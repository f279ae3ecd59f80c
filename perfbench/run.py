"""The repository benchmark: one command, four workloads, one seed.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics declared in
``BENCHMARK.json``; ``--trace 1`` runs an untraced and a traced pass of
half the length each and prints the per-layer metrics, including the
tracing overhead between the two passes.  Every workload checks the
program's outputs first: a failed correctness gate exits 1 without a
result, a checkout without the program exits 2.  The last line of
standard output is the JSON result; the lines before it repeat the
metrics for people and carry the host block.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, GateFailure, SetupError, host_block, import_program  # noqa: E402

WORKLOADS = ("campaign", "serve_cold", "serve_hot", "explore")

#: Scratch space inside the checkout: checkpoints, registries, server
#: logs (removed after each run) and traced runs' span dumps (kept).
WORK_ROOT = ROOT / ".perfbench"


def _declared():
    path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        raise SetupError(f"cannot read {path}: {error}") from error
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return end_to_end, per_layer


def _workload(name: str):
    if name == "campaign":
        import campaign as module
    elif name == "explore":
        import explore as module
    else:
        import serving as module
    return module


def run(workload: str, seed: int, seconds: float, trace: bool):
    """Measure one workload; returns ``(outcome, metric units)``."""
    end_to_end, per_layer = _declared()
    import_program()
    module = _workload(workload)
    work = WORK_ROOT / f"work-{workload}-{seed}-{trace:d}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        outcome = module.run(workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if trace:
        missing = set(module.LAYERS) - set(outcome.layers)
        unknown = set(outcome.layers) - set(per_layer)
        if missing or unknown:
            raise GateFailure(
                f"per-layer metrics missing {sorted(missing)}, "
                f"undeclared {sorted(unknown)}"
            )
        # Layers this workload does not exercise are idle: zero work.
        values = {name: outcome.layers.get(name, 0.0) for name in per_layer}
        units = per_layer
        outcome.spans.dump(WORK_ROOT / f"trace-{workload}-{seed}.json")
    else:
        if set(outcome.end_to_end) != set(end_to_end):
            raise GateFailure(
                f"end-to-end metrics {sorted(outcome.end_to_end)} differ "
                f"from the declared {sorted(end_to_end)}"
            )
        values = outcome.end_to_end
        units = end_to_end
    metrics = {
        name: {"value": float(values[name]), "unit": units[name]}
        for name in units
    }
    return outcome, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        outcome, metrics = run(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except SetupError as error:
        print(f"perfbench: cannot run: {error}", file=sys.stderr)
        return 2
    except GateFailure as error:
        print(f"perfbench: correctness gate failed: {error}",
              file=sys.stderr)
        return 1
    print("# host " + json.dumps(host_block(), sort_keys=True))
    print(f"# workload {args.workload} seed {args.seed} "
          f"trace {args.trace}: {outcome.attempted} attempted, "
          f"{outcome.failed} failed")
    for name, metric in metrics.items():
        print(f"# {name:<36} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": True,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

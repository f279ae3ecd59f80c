"""Plumbing shared by the benchmark workloads.

Everything here belongs to the benchmark, not to the program under
test: the span recorder, the percentile helper and the result record
are deliberately independent of ``repro.obs`` so that a change to the
program's own telemetry cannot move the ruler it is measured with.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: The checkout the benchmark runs from (the parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class SetupError(RuntimeError):
    """The program or its inputs are missing; nothing can be measured."""


class GateFailure(RuntimeError):
    """A correctness gate failed; the run must not report numbers."""


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path, or refuse."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def gate(condition: bool, message: str) -> None:
    """Raise :class:`GateFailure` with ``message`` unless ``condition``."""
    if not condition:
        raise GateFailure(message)


def same_bits(a, b) -> bool:
    """True when two float arrays hold identical IEEE-754 bit patterns."""
    import numpy as np

    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``values``."""
    import numpy as np

    if not len(values):
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def peak_rss_mb_self() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live child process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise SetupError(f"no VmHWM for process {pid}")


def host_block() -> Dict:
    """CPU count, affinity, interpreter/numpy versions and the git sha."""
    import numpy as np

    sha: Optional[str] = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": sha,
    }


class Spans:
    """An in-memory span recorder for one thread of benchmark code.

    Spans are recorded only around calls the benchmark makes into the
    program's layers.  A disabled recorder's :meth:`span` costs one
    generator step and records nothing, but the workloads do not even
    install their timing wrappers when tracing is off.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.records: List[Dict] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = len(self.records)
        parent = self._stack[-1] if self._stack else None
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent}
        self.records.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def _closed(self, name: str) -> List[Tuple[int, Dict]]:
        return [
            (i, r) for i, r in enumerate(self.records)
            if r["name"] == name and r["end"] is not None
        ]

    def count(self, name: str) -> int:
        return len(self._closed(name))

    def busy(self, name: str) -> float:
        """Total duration of every span called ``name``."""
        return sum(r["end"] - r["start"] for _, r in self._closed(name))

    def self_time(self, name: str) -> float:
        """Duration of ``name`` spans minus what their children cover."""
        total = 0.0
        for index, record in self._closed(name):
            children = sorted(
                (c["start"], c["end"]) for c in self.records
                if c["parent"] == index and c["end"] is not None
            )
            covered, reach = 0.0, record["start"]
            for start, end in children:
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            total += (record["end"] - record["start"]) - covered
        return total

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.records) + "\n", encoding="utf-8")


class TimedBackend:
    """A simulation backend whose calls run inside ``name`` spans.

    It keeps the ``simulate_suite`` fast path, so a campaign takes the
    same path through it as through the backend it wraps, and counts
    the (program, configuration) evaluations it passes on.
    """

    def __init__(self, inner, spans: Spans, name: str) -> None:
        self.inner = inner
        self.spans = spans
        self.name = name
        self.space = inner.space
        self.configs = 0

    def simulate_batch(self, profile, configs):
        with self.spans.span(self.name):
            self.configs += len(configs)
            return self.inner.simulate_batch(profile, configs)

    def simulate_suite(self, profiles, configs):
        with self.spans.span(self.name):
            self.configs += len(profiles) * len(configs)
            return self.inner.simulate_suite(profiles, configs)


@dataclass
class Outcome:
    """What one measured pass of a workload produced.

    ``end_to_end`` and ``layers`` map metric names to values; the units
    come from ``BENCHMARK.json``.  ``p90_ms`` is the workload's tail
    latency, reported by traced runs only.  ``wall_s`` and
    ``attributed_s`` are the traced pass's wall time and the sum of its
    layer busy and self times — the invariant the benchmark's tests
    check.
    """

    attempted: int
    failed: int
    end_to_end: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    rate: float = 0.0
    p90_ms: float = 0.0
    wall_s: float = 0.0
    attributed_s: float = 0.0
    spans: Optional[Spans] = None


def measure_workload(measure, seconds: float, trace: bool) -> Outcome:
    """Run ``measure(seconds, traced)`` once, or twice when tracing.

    A traced run measures an untraced pass and then a traced pass of
    half the length each; the ratio of their work rates is the tracing
    overhead.  The layer metrics come from the traced pass, the tail
    latency from the untraced one.
    """
    if not trace:
        return measure(seconds, False)
    reference = measure(seconds / 2.0, False)
    outcome = measure(seconds / 2.0, True)
    outcome.attempted += reference.attempted
    outcome.failed += reference.failed
    outcome.layers["obs.trace_overhead_frac"] = (
        reference.rate / outcome.rate - 1.0
    )
    outcome.layers["obs.p90_ms"] = reference.p90_ms
    outcome.layers["obs.wall_s"] = outcome.wall_s
    outcome.layers["obs.attributed_frac"] = (
        outcome.attributed_s / outcome.wall_s
    )
    return outcome

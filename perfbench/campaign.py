"""``campaign``: serial checkpointed campaigns over the SPEC suite.

The bulk data path of the paper's offline phase: ``CampaignRunner.run``
over an ``IntervalBackend`` covering the 26-program SPEC suite and a
seeded configuration sample, at ``repro simulate``'s default chunk size
(128), each repetition into a fresh checkpoint directory.  Only the
``sim`` and ``runtime`` layers work here; serving and the predictor are
idle.

End-to-end: ``configs_per_s`` counts (program, configuration)
evaluations journalled per second of ``run`` over all repetitions, and
``p50_ms`` is the median of one campaign's duration (its p90 is the
traced run's ``obs.p90_ms``).  The per-cell latency, from one
journalled cell to the next (``store_cell``'s savez, fsyncs, rename
and journal append, plus the chunk's simulation for the cell that
triggers it), is a per-layer metric: on a shared disk its tail follows
other tenants' fsyncs.  Gate: every repetition's
matrices are bit-identical to one direct ``simulate_suite`` call.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path
from typing import List

from common import (
    Outcome,
    Spans,
    TimedBackend,
    gate,
    measure_workload,
    median,
    peak_rss_mb_self,
    percentile,
    same_bits,
)

#: Configurations per campaign: 16 chunks of 128 per program, about
#: 1.4 s a campaign on a 2-vCPU VM.
CONFIGS = 2048
CHUNK_SIZE = 128
#: Set-up is about 70 ms, so it is repeated often enough for a steady median.
SETUP_REPEATS = 15

LAYERS = (
    "sim.calls", "sim.busy_s", "sim.configs_per_s",
    "runtime.store.calls", "runtime.store.busy_s", "runtime.self_s",
    "runtime.bytes_written", "runtime.attempts", "runtime.cell_p50_ms",
    "runtime.cell_p90_ms",
    "obs.trace_overhead_frac", "obs.p90_ms", "obs.wall_s",
    "obs.attributed_frac",
)


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run(workload: str, seed: int, seconds: float, trace: bool,
        work: Path) -> Outcome:
    from repro.designspace.sampling import sample_configurations
    from repro.runtime import CampaignRunner, IntervalBackend
    from repro.sim import IntervalSimulator, Metric
    from repro.workloads import spec2000_suite

    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        suite = spec2000_suite()
        simulator = IntervalSimulator()
        configs = sample_configurations(simulator.space, CONFIGS, seed=seed)
        setups.append(time.perf_counter() - start)
    setup_s = median(setups)

    # The reference matrices for the gate; the call also fills the
    # simulator's per-profile caches before anything is timed.
    reference = simulator.simulate_suite(list(suite.profiles), configs)
    expected = {
        metric: [batch.metric(metric) for batch in reference]
        for metric in Metric.all()
    }
    evaluations = len(suite) * len(configs)
    repetition = [0]

    def measure(budget: float, traced: bool) -> Outcome:
        spans = Spans(traced)
        durations, p50s, p90s = [], [], []
        attempted = failed = attempts = sim_configs = bytes_written = 0
        wall = 0.0
        deadline = time.perf_counter() + budget
        while time.perf_counter() < deadline or len(durations) < 2:
            repetition[0] += 1
            checkpoint = work / f"campaign-{repetition[0]}"
            backend = IntervalBackend(simulator)
            if traced:
                backend = TimedBackend(backend, spans, "sim")
            runner = CampaignRunner(
                backend, checkpoint, chunk_size=CHUNK_SIZE, seed=seed
            )
            stored: List[float] = []

            def timed_store(*args, _store=runner.store_cell):
                with spans.span("runtime.store"):
                    _store(*args)
                stored.append(time.perf_counter())

            runner.store_cell = timed_store
            start = time.perf_counter()
            with spans.span("runtime"):
                result = runner.run(suite, configs, resume=False)
            end = time.perf_counter()
            wall += end - start
            durations.append(1000.0 * (end - start))
            marks = [start] + stored
            cell_ms = [1000.0 * (b - a) for a, b in zip(marks, marks[1:])]
            p50s.append(percentile(cell_ms, 50))
            p90s.append(percentile(cell_ms, 90))
            attempted += result.total_cells
            failed += len(result.failed_cells) + len(result.pending_cells)
            attempts += result.attempts
            gate(result.complete, f"campaign left cells unfinished: "
                 f"{result.failed_cells + result.pending_cells}")
            for metric, rows in expected.items():
                gate(same_bits(result.matrix(metric), rows),
                     f"campaign {metric.value} matrix differs from a "
                     f"direct simulate_suite")
            if traced:
                sim_configs += backend.configs
                bytes_written += _dir_bytes(checkpoint)
            shutil.rmtree(checkpoint)
        outcome = Outcome(attempted=attempted, failed=failed, spans=spans)
        outcome.rate = evaluations * len(durations) / wall
        outcome.end_to_end = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb_self(),
            "success_frac": 1.0 - failed / attempted,
            "configs_per_s": outcome.rate,
            "p50_ms": percentile(durations, 50),
        }
        outcome.p90_ms = percentile(durations, 90)
        if traced:
            sim_busy = spans.busy("sim")
            store_busy = spans.busy("runtime.store")
            runtime_self = spans.self_time("runtime")
            outcome.layers = {
                "sim.calls": spans.count("sim"),
                "sim.busy_s": sim_busy,
                "sim.configs_per_s": sim_configs / sim_busy,
                "runtime.store.calls": spans.count("runtime.store"),
                "runtime.store.busy_s": store_busy,
                "runtime.self_s": runtime_self,
                "runtime.bytes_written": bytes_written,
                "runtime.attempts": attempts,
                "runtime.cell_p50_ms": median(p50s),
                "runtime.cell_p90_ms": median(p90s),
            }
            outcome.wall_s = wall
            outcome.attributed_s = sim_busy + store_busy + runtime_self
        return outcome

    return measure_workload(measure, seconds, trace)

"""Simulator throughput: the speed/fidelity trade the repository offers.

Not a paper artefact — an engineering table a downstream user needs:
how many (program, configuration) evaluations per second does each
simulator tier deliver?  The whole methodology only works because the
bulk tier is orders of magnitude faster than detailed simulation, so
this bench also guards against performance regressions in the
vectorised interval model, the event-driven pipeline engine (measured
against its tick oracle on the same trace, bit-identity checked), and
the campaign executor's program-major suite fast path.  The numbers
land machine-readable in ``results/BENCH_sim.json``.
"""

import os
import time
from dataclasses import asdict

from repro.designspace import DesignSpace, sample_configurations
from repro.exploration import format_table, scale_banner
from repro.parallel import available_cpus
from repro.runtime import CampaignRunner, IntervalBackend
from repro.sim import IntervalSimulator, MonteCarloSimulator
from repro.sim.pipeline import PipelineSimulator
from repro.workloads import generate_trace, spec2000_suite

BATCH = 2000
TRACE_LENGTH = 20_000
CAMPAIGN_PROGRAMS = ("gzip", "applu", "art")
CAMPAIGN_CONFIGS = 60
CAMPAIGN_CHUNK = 16


def _campaign_rates(backend, suite, configs, root, n_jobs):
    """(cells/second, configs/second) of one fresh campaign.

    A cell is one (program, chunk) checkpoint unit; configs/s counts
    (program, configuration) evaluations, the unit every other rate in
    this bench uses.
    """
    runner = CampaignRunner(
        backend, root, chunk_size=CAMPAIGN_CHUNK, n_jobs=n_jobs, seed=5
    )
    start = time.perf_counter()
    result = runner.run(suite, configs)
    elapsed = time.perf_counter() - start
    assert result.complete
    evaluations = len(result.programs) * len(result.configs)
    return result.total_cells / elapsed, evaluations / elapsed


def test_simulator_throughput(benchmark, record_artifact, record_json,
                              tmp_path):
    space = DesignSpace()
    suite = spec2000_suite().subset(CAMPAIGN_PROGRAMS)
    profile = suite["gzip"]
    configs = sample_configurations(space, BATCH, seed=77)
    interval = IntervalSimulator(space)

    def interval_batch():
        return interval.simulate_batch(profile, configs)

    benchmark(interval_batch)

    # One-shot measurements for the slower tiers.
    start = time.perf_counter()
    interval.simulate_batch(profile, configs)
    interval_rate = BATCH / (time.perf_counter() - start)

    # The program-major suite fast path: one column build for all
    # programs of the suite at once.
    start = time.perf_counter()
    interval.simulate_suite(list(suite.profiles), configs)
    suite_rate = len(suite) * BATCH / (time.perf_counter() - start)

    montecarlo = MonteCarloSimulator(space, replications=8)
    start = time.perf_counter()
    for config in configs[:20]:
        montecarlo.simulate(profile, config, seed=1)
    montecarlo_rate = 20 / (time.perf_counter() - start)

    # Pipeline tier: the event engine against its tick oracle on the
    # same trace — the speedup only counts if the stats stay identical.
    trace = generate_trace(profile, TRACE_LENGTH)
    start = time.perf_counter()
    event_result = PipelineSimulator(space.baseline, engine="event").run(
        trace
    )
    event_seconds = time.perf_counter() - start
    start = time.perf_counter()
    tick_result = PipelineSimulator(space.baseline, engine="tick").run(
        trace
    )
    tick_seconds = time.perf_counter() - start
    assert asdict(event_result.stats) == asdict(tick_result.stats)
    assert event_result.cycles == tick_result.cycles
    event_speedup = tick_seconds / event_seconds
    pipeline_rate = 1.0 / event_seconds

    # Campaign executor throughput, serial and 2-way.
    campaign_configs = configs[:CAMPAIGN_CONFIGS]
    backend = IntervalBackend(interval)
    serial_cells, serial_configs = _campaign_rates(
        backend, suite, campaign_configs, tmp_path / "serial", n_jobs=1
    )
    parallel_cells, parallel_configs = _campaign_rates(
        backend, suite, campaign_configs, tmp_path / "par", n_jobs=2
    )

    rows = [
        ("interval (vectorised)", f"{interval_rate:,.0f}", "bulk experiments"),
        ("interval suite (3 programs)", f"{suite_rate:,.0f}",
         "campaign fast path"),
        ("monte-carlo (8 windows)", f"{montecarlo_rate:,.1f}",
         "noisy-response studies"),
        (f"pipeline event ({TRACE_LENGTH} instr)", f"{pipeline_rate:,.2f}",
         "deep-dive / fidelity checks"),
        (f"pipeline tick ({TRACE_LENGTH} instr)",
         f"{1.0 / tick_seconds:,.2f}", "equivalence oracle"),
    ]
    text = (
        scale_banner(
            "Simulator throughput (configurations evaluated per second)",
            batch=BATCH,
        )
        + "\n"
        + format_table(("simulator", "configs/second", "role"), rows)
        + f"\nevent engine speedup over tick: {event_speedup:.2f}x"
        + f"\ncampaign cells/second: serial {serial_cells:,.1f}, "
        + f"2 jobs {parallel_cells:,.1f}"
        + f"\ncampaign configs/second: serial {serial_configs:,.0f}, "
        + f"2 jobs {parallel_configs:,.0f}"
    )
    record_artifact("simulator_throughput", text)
    record_json("BENCH_sim", {
        "configs_per_second": {
            "interval": interval_rate,
            "interval_suite": suite_rate,
            "montecarlo": montecarlo_rate,
            "pipeline_event": pipeline_rate,
            "pipeline_tick": 1.0 / tick_seconds,
        },
        "event_speedup_over_tick": event_speedup,
        "event_bit_identical_to_tick": True,  # asserted above
        "campaign_cells_per_second": {
            "serial": serial_cells,
            "jobs2": parallel_cells,
        },
        "campaign_configs_per_second": {
            "serial": serial_configs,
            "jobs2": parallel_configs,
        },
        "host": {
            "cpu_count": os.cpu_count(),
            "affinity": available_cpus(),
        },
        "trace_length": TRACE_LENGTH,
        "batch": BATCH,
        "campaign": {
            "programs": len(suite),
            "configs": CAMPAIGN_CONFIGS,
            "chunk_size": CAMPAIGN_CHUNK,
        },
    })

    # The methodology's premise: the bulk tier is vastly faster.  The
    # event rewrite closed most of the old monte-carlo/pipeline gap, so
    # the 10x guard now anchors on the tick oracle; the tiers must
    # still come out in order.
    assert interval_rate > 100 * montecarlo_rate
    assert montecarlo_rate > pipeline_rate
    assert montecarlo_rate > 10 / tick_seconds
    assert interval_rate > 1000
    # The tentpole's premise: event-driven execution beats ticking.
    assert event_speedup > 1.0

"""``explore``: the paper's new-program flow, in process.

Set-up is the offline phase: simulate a seeded SPEC sample and train
the per-program pools for cycles and energy with applu left out
(:data:`TRAINING_SIZE` simulations per program, 25 networks a metric),
repeated and taken as the median.  The measured phase is the online
phase, after one untimed warm-up round, repeated until the time is
up: ``explore_new_program`` for each metric (R = 32 simulated
responses, the fit, and a :data:`CANDIDATES`-configuration predicted
sweep), then a seeded genetic ``run_search`` over a
``PredictorOracle`` of both predictors.
It is the only workload for ``core.training``, ``ml.mlp`` and
``search``, and it drives the predictor at large batches where the
serving workloads drive it at one or two rows.

End-to-end: ``p50_ms`` of characterising the new program,
``explore_new_program`` for cycles then energy (its p90 is the traced
run's ``obs.p90_ms``), and ``configs_per_s``
as search evaluations per second.  Gate: the mean
rmae of the fitted predictors against simulation over :data:`RESPONSE_SEEDS`
response draws stays under :data:`RMAE_LIMIT_PCT`; the value, a pure
function of the seed, is reported as ``core.rmae_pct``.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List

from common import (
    Outcome,
    Spans,
    TimedBackend,
    gate,
    measure_workload,
    median,
    peak_rss_mb_self,
    percentile,
)

PROGRAM = "applu"
TRAINING_SIZE = 256
RESPONSES = 32
CANDIDATES = 4096
SEARCH_BUDGET = 256
SEARCH_BATCH = 16
SETUP_REPEATS = 3
#: Distinct response draws the online loop cycles through; rmae is
#: averaged over all of them whether or not the loop reached each.
RESPONSE_SEEDS = 8
#: About twice the mean rmae measured when this was written (13-15 %): a broken
#: predictor lands far above it, a slightly different fit does not.
RMAE_LIMIT_PCT = 30.0

LAYERS = (
    "core.train.busy_s", "core.train.models", "sim.responses.busy_s",
    "core.explore.self_s", "core.predict.bulk_configs_per_s",
    "search.oracle.busy_s", "search.agent.busy_s", "search.env.self_s",
    "core.rmae_pct", "obs.trace_overhead_frac", "obs.p90_ms",
    "obs.wall_s", "obs.attributed_frac",
)


class TimedOracle:
    """Oracle evaluations inside ``search.oracle`` spans."""

    def __init__(self, inner, spans: Spans) -> None:
        self.inner = inner
        self.spans = spans

    @property
    def metrics(self):
        return self.inner.metrics

    def evaluate(self, configs):
        with self.spans.span("search.oracle"):
            return self.inner.evaluate(configs)


class TimedAgent:
    """Agent proposals and observations inside ``search.agent`` spans."""

    def __init__(self, inner, spans: Spans) -> None:
        self.inner = inner
        self.spans = spans
        self.name = inner.name

    def propose(self, count):
        with self.spans.span("search.agent"):
            return self.inner.propose(count)

    def observe(self, observations):
        with self.spans.span("search.agent"):
            return self.inner.observe(observations)


def response_seed(seed: int, draw: int) -> int:
    return seed * 1000 + draw


def run(workload: str, seed: int, seconds: float, trace: bool,
        work: Path) -> Outcome:
    from repro.core.training import TrainingPool
    from repro.core.workflow import explore_new_program
    from repro.designspace.sampling import sample_configurations
    from repro.exploration import DesignSpaceDataset
    from repro.ml.metrics import rmae
    from repro.runtime import IntervalBackend
    from repro.search import DesignSpaceEnv, PredictorOracle, make_agent, run_search
    from repro.sim import IntervalSimulator, Metric
    from repro.workloads import spec2000_suite

    metrics = (Metric.CYCLES, Metric.ENERGY)
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        suite = spec2000_suite()
        dataset = DesignSpaceDataset.sampled(
            suite, sample_size=TRAINING_SIZE, seed=seed
        )
        models = {
            metric: TrainingPool(
                dataset, metric, training_size=TRAINING_SIZE, seed=seed,
                n_jobs=1,
            ).models(exclude=[PROGRAM])
            for metric in metrics
        }
        setups.append(time.perf_counter() - start)
    setup_s = median(setups)

    simulator = IntervalSimulator()
    space = simulator.space
    profile = suite[PROGRAM]
    candidates = [
        sample_configurations(space, CANDIDATES,
                              seed=response_seed(seed, draw) + 1)
        for draw in range(RESPONSE_SEEDS)
    ]
    predictors: Dict = {}

    def explore(draw: int, metric, backend):
        report = explore_new_program(
            models[metric], profile, responses=RESPONSES,
            sweet_spot_candidates=CANDIDATES,
            seed=response_seed(seed, draw), backend=backend,
        )
        gate(not report.degraded,
             f"{report.failed_responses} response simulations failed")
        predictors.setdefault((draw, metric), report.predictor)
        return report

    rounds = [0]

    def measure(budget: float, traced: bool) -> Outcome:
        spans = Spans(traced)
        backend = IntervalBackend(simulator)
        if traced:
            backend = TimedBackend(backend, spans, "sim.responses")
        latencies: List[float] = []
        evaluations, search_s, bulk_configs = 0, 0.0, 0
        attempted = failed = 0
        start = time.perf_counter()
        deadline = time.perf_counter() + budget
        while time.perf_counter() < deadline or not evaluations:
            draw = rounds[0] % RESPONSE_SEEDS
            rounds[0] += 1
            fitted = {}
            explore_s = 0.0
            for metric in metrics:
                begin = time.perf_counter()
                with spans.span("core.explore"):
                    report = explore(draw, metric, backend)
                explore_s += time.perf_counter() - begin
                attempted += RESPONSES
                failed += report.failed_responses
                fitted[metric] = report.predictor
                if traced:
                    with spans.span("core.predict.bulk"):
                        report.predictor.predict(candidates[draw])
                    bulk_configs += CANDIDATES
            latencies.append(1000.0 * explore_s)
            oracle = PredictorOracle(fitted)
            agent = make_agent("genetic", space, objectives=len(metrics),
                               seed=response_seed(seed, draw))
            if traced:
                oracle = TimedOracle(oracle, spans)
                agent = TimedAgent(agent, spans)
            env = DesignSpaceEnv(space, oracle, objectives=metrics,
                                 budget=SEARCH_BUDGET)
            begin = time.perf_counter()
            with spans.span("search.env"):
                outcome = run_search(env, agent, batch_size=SEARCH_BATCH,
                                     seed=response_seed(seed, draw))
            search_s += time.perf_counter() - begin
            evaluations += outcome.spent
            attempted += SEARCH_BUDGET
            failed += SEARCH_BUDGET - outcome.spent
        wall = time.perf_counter() - start

        result = Outcome(attempted=attempted, failed=failed, spans=spans)
        result.rate = evaluations / search_s
        result.end_to_end = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb_self(),
            "success_frac": 1.0 - failed / attempted,
            "configs_per_s": result.rate,
            "p50_ms": percentile(latencies, 50),
        }
        result.p90_ms = percentile(latencies, 90)
        if traced:
            bulk_s = spans.busy("core.predict.bulk")
            result.layers = {
                "core.train.busy_s": setup_s,
                "core.train.models": sum(len(m) for m in models.values()),
                "sim.responses.busy_s": spans.busy("sim.responses"),
                "core.explore.self_s": spans.self_time("core.explore"),
                "core.predict.bulk_configs_per_s": bulk_configs / bulk_s,
                "search.oracle.busy_s": spans.busy("search.oracle"),
                "search.agent.busy_s": spans.busy("search.agent"),
                "search.env.self_s": spans.self_time("search.env"),
            }
            result.wall_s = wall
            result.attributed_s = sum(
                result.layers[name] for name in (
                    "sim.responses.busy_s", "core.explore.self_s",
                    "search.oracle.busy_s", "search.agent.busy_s",
                    "search.env.self_s",
                )
            ) + bulk_s
        return result

    # One untimed round first, so lazy set-up in the program (first
    # calls into the simulator and the networks) is not a sample.
    measure(0.0, False)
    outcome = measure_workload(measure, seconds, trace)

    # Accuracy over every response draw, outside the timed loop, so the
    # reading does not depend on how many rounds the time allowed.
    errors = []
    plain = IntervalBackend(simulator)
    for draw in range(RESPONSE_SEEDS):
        truth = simulator.simulate_batch(profile, candidates[draw])
        for metric in metrics:
            predictor = predictors.get((draw, metric))
            if predictor is None:
                predictor = explore(draw, metric, plain).predictor
            errors.append(
                rmae(predictor.predict(candidates[draw]),
                     truth.metric(metric))
            )
    rmae_pct = sum(errors) / len(errors)
    gate(rmae_pct <= RMAE_LIMIT_PCT,
         f"rmae {rmae_pct:.2f}% exceeds {RMAE_LIMIT_PCT}%")
    if trace:
        outcome.layers["core.rmae_pct"] = rmae_pct
    return outcome

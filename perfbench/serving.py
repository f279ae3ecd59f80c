"""``serve_cold`` and ``serve_hot``: a ``repro serve`` child under load.

Both workloads publish an applu-cycles predictor into a fresh model
registry, start ``python -m repro serve`` on it as a child process and
load it from this process alone (see :mod:`httpload`).  Set-up is the
child's start until its first ``/healthz`` answer, repeated and taken
as the median.

* ``serve_cold`` asks for configurations never asked before in every
  request, so the prediction cache never hits.  Its open-loop Poisson
  stage (60 rps) sends single-configuration requests that mostly arrive
  alone: each pays HTTP, the batch window and a one-row
  ``predict_invariant``.  Its closed-loop stage has two clients post
  :data:`BULK` fresh configurations per request, which drives the
  batcher and the forward pass at full batches.
* ``serve_hot`` first warms the cache with a hot pool smaller than it,
  then picks configurations from that pool with a Zipf law, in the same
  two stages with the open loop at 250 rps.  The forward pass stays
  idle, so this isolates the HTTP and cache path.

A pass alternates the two stages over :data:`ROUNDS` rounds.
End-to-end: ``p50_ms`` of the open-loop requests, timed from their
due time (failed requests count as the stage length), the median of
the rounds' own medians (the traced run's ``obs.p90_ms`` takes the
rounds' p90s the same way); ``configs_per_s`` answered
over all closed-loop stages; and the child's peak RSS.
Gates: every 200 is bit-identical to ``predict_invariant`` on the same
registry artifact in this process, and ``serve_cold`` counts zero
cache hits.
"""

from __future__ import annotations

import gc
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from common import (
    SRC,
    Outcome,
    SetupError,
    Spans,
    gate,
    measure_workload,
    median,
    peak_rss_mb_of,
    percentile,
    same_bits,
)
from httpload import Connection, closed_loop, open_loop, poisson_schedule

MODEL = "applu-cycles"
PROGRAM = "applu"
#: The served model's offline phase: small, because serving cost
#: depends on the pool's shape (25 networks of 10 hidden units), not on
#: how many simulations trained it.
TRAINING_SIZE = 96
RESPONSES = 32
SETUP_REPEATS = 3
START_TIMEOUT_S = 120.0

#: Open-loop arrival rates (requests/s): cold requests mostly arrive
#: alone, hot ones overlap.
RATES = {"serve_cold": 60.0, "serve_hot": 250.0}
BULK = 64
#: Fresh configurations for serve_cold's closed loop, per second of
#: closed-loop stage: half again the 10k configs/s a 2-vCPU VM answered;
#: the stage ends early if it would run out.
CLOSED_CONFIGS_PER_S = 15000
#: serve_hot's pool: a quarter of the server's default 4096-entry cache.
HOT_POOL = 1024
ZIPF_EXPONENT = 1.1
#: Share of a pass given to the open-loop stages (the rest is closed).
OPEN_SHARE = 0.6
#: Each pass alternates open and closed stages this many times, so a
#: burst of outside interference on a shared host lands on both kinds
#: of stage and moves one round's percentiles, not their median.
ROUNDS = 5

LAYERS = (
    "serve.cache.hit_frac", "serve.batch.mean_size", "serve.request_ms",
    "serve.batch_ms", "core.predict_ms", "ml.ensemble_ms",
    "serve.rejected", "http.floor_ms", "core.predict_invariant_ms.b1",
    "core.predict_invariant_ms.b64", "serve.residual_ms",
    "load.late_ms.p99", "obs.trace_overhead_frac", "obs.p90_ms",
    "obs.wall_s", "obs.attributed_frac",
)

_SERVING_LINE = re.compile(r"serving on http://([0-9.]+):(\d+)")


def config_pool(space, count: int, seed: int, stream: int):
    """``count`` distinct legal configurations, seeded."""
    from repro.designspace.sampling import sample_configurations

    return sample_configurations(space, count, seed=[seed, stream])


def zipf_sampler(seed: int, pool: int):
    """A seeded ``count -> indices`` sampler, Zipf over a shuffled pool."""
    rng = np.random.default_rng([seed, 1])
    ranks = rng.permutation(pool)
    weights = 1.0 / np.arange(1, pool + 1) ** ZIPF_EXPONENT
    weights /= weights.sum()

    def sample(count: int) -> List[int]:
        return ranks[rng.choice(pool, size=count, p=weights)].tolist()

    return sample


def publish(registry_dir: Path, seed: int) -> None:
    """Train, fit and publish the served predictor (not timed)."""
    from repro.core import ArchitectureCentricPredictor
    from repro.core.training import TrainingPool
    from repro.exploration import DesignSpaceDataset
    from repro.serve import ModelRegistry
    from repro.sim import Metric
    from repro.workloads import spec2000_suite

    dataset = DesignSpaceDataset.sampled(
        spec2000_suite(), sample_size=TRAINING_SIZE + RESPONSES, seed=seed
    )
    pool = TrainingPool(dataset, Metric.CYCLES,
                        training_size=TRAINING_SIZE, seed=seed, n_jobs=1)
    predictor = ArchitectureCentricPredictor(pool.models(exclude=[PROGRAM]))
    indices, _ = dataset.split_indices(RESPONSES, seed=seed)
    predictor.fit_responses(
        dataset.subset_configs(indices),
        dataset.subset_values(PROGRAM, Metric.CYCLES, indices),
    )
    ModelRegistry(registry_dir).publish(predictor, MODEL, seed=seed)


class ServerChild:
    """``python -m repro serve`` on a free port, stopped with SIGTERM."""

    def __init__(self, registry_dir: Path, log: Path) -> None:
        self.log = log
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.pop("REPRO_JOBS", None)
        with open(log, "wb") as handle:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--registry", str(registry_dir), "--model", MODEL,
                 "--port", "0"],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=handle, env=env, cwd=str(SRC.parent),
            )
        self.host, self.port = self._wait_ready()

    def _wait_ready(self):
        deadline = time.perf_counter() + START_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise SetupError(
                    f"repro serve exited with {self.process.returncode}: "
                    + self.log.read_text(errors="replace")[-2000:]
                )
            match = _SERVING_LINE.search(self.log.read_text(errors="replace"))
            if match:
                host, port = match.group(1), int(match.group(2))
                conn = Connection(host, port)
                try:
                    if conn.request("GET", "/healthz")[0] == 200:
                        return host, port
                finally:
                    conn.close()
            time.sleep(0.005)
        self.stop()
        raise SetupError("repro serve did not become ready")

    def peak_rss_mb(self) -> float:
        return peak_rss_mb_of(self.process.pid)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


def scrape(conn: Connection) -> Dict[str, float]:
    """``/metrics`` as ``{series: value}`` (labels kept in the key)."""
    status, body = conn.request("GET", "/metrics")
    gate(status == 200, f"/metrics answered {status}")
    series = {}
    for line in body.decode("utf-8").splitlines():
        if line and not line.startswith("#"):
            key, value = line.rsplit(" ", 1)
            series[key] = float(value)
    return series


def delta(windows, name: str) -> float:
    """Increase of every series of ``name`` (any labels) over stage windows.

    ``windows`` holds one ``(before, after)`` scrape pair per stage.
    """
    def total(series):
        return sum(
            v for k, v in series.items()
            if k == name or k.startswith(name + "{")
        )
    return sum(total(after) - total(before) for before, after in windows)


def mean_ms(windows, histogram: str) -> float:
    count = delta(windows, histogram + "_count")
    if not count:
        return 0.0
    return 1000.0 * delta(windows, histogram + "_sum") / count


def _time_ms(function, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        times.append(time.perf_counter() - start)
    return 1000.0 * median(times)


def run(workload: str, seed: int, seconds: float, trace: bool,
        work: Path) -> Outcome:
    from repro.designspace.space import DesignSpace
    from repro.serve import ModelRegistry

    registry_dir = work / "registry"
    publish(registry_dir, seed)
    reference, _ = ModelRegistry(registry_dir).load(MODEL)
    space = DesignSpace()
    hot = workload == "serve_hot"
    # serve_cold's open-loop stages draw from a reserved head of the
    # pool, so however fast the closed loop runs it cannot starve them.
    reserve = int(RATES[workload] * seconds * OPEN_SHARE * 1.5) + 100
    closed = int(CLOSED_CONFIGS_PER_S * seconds * (1.0 - OPEN_SHARE))
    pool = config_pool(space, HOT_POOL if hot else reserve + closed, seed,
                       stream=1 if hot else 2)
    rows = [json.dumps(list(c.values())).encode() for c in pool]

    def encode(indices: Sequence[int]) -> bytes:
        return b'{"configs": [' + b",".join(rows[i] for i in indices) + b"]}"

    setups = []
    server: Optional[ServerChild] = None
    for attempt in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        start = time.perf_counter()
        server = ServerChild(registry_dir, work / f"serve-{attempt}.log")
        setups.append(time.perf_counter() - start)
    setup_s = median(setups)

    served_indices: List[int] = []
    served_values: List[float] = []
    picks = zipf_sampler(seed, len(pool))
    cursors = {"open": [0, reserve], "closed": [reserve, len(pool)]}

    def take(count: int, stage: str) -> Optional[List[int]]:
        if hot:
            return picks(count)
        cursor = cursors[stage]
        start = cursor[0]
        if start + count > cursor[1]:
            return None
        cursor[0] = start + count
        return list(range(start, start + count))

    def record(samples) -> int:
        failed = 0
        for sample in samples:
            if sample.status != 200:
                failed += 1
                continue
            served_indices.extend(sample.indices)
            served_values.extend(sample.predictions)
        return failed

    control = Connection(server.host, server.port)
    stage = [0]
    try:
        if hot:
            for begin in range(0, len(pool), BULK):
                status, _ = control.request(
                    "POST", "/predict",
                    encode(range(begin, min(begin + BULK, len(pool)))),
                )
                gate(status == 200, f"cache warm-up answered {status}")

        def measure(budget: float, traced: bool) -> Outcome:
            spans = Spans(traced)
            open_s = budget * OPEN_SHARE / ROUNDS
            closed_s = budget * (1.0 - OPEN_SHARE) / ROUNDS
            samples, bulk = [], []
            open_windows, closed_windows = [], []
            p50s, p90s = [], []
            answered, closed_wall = 0, 0.0
            for _ in range(ROUNDS):
                stage[0] += 1
                offsets = poisson_schedule(seed, stage[0], RATES[workload],
                                           open_s)
                requests = [take(1, "open") for _ in offsets]
                gate(None not in requests,
                     "the open-loop stage ran out of fresh configurations")
                first = scrape(control)
                with spans.span("load.open"):
                    round_samples = open_loop(server.host, server.port,
                                              offsets, requests, encode)
                middle = scrape(control)
                with spans.span("load.closed"):
                    round_bulk, bulk_wall = closed_loop(
                        server.host, server.port, closed_s,
                        lambda: take(BULK, "closed"), encode,
                    )
                open_windows.append((first, middle))
                closed_windows.append((middle, scrape(control)))
                latencies = [
                    1000.0 * (s.latency if s.status == 200 else open_s)
                    for s in round_samples
                ]
                p50s.append(percentile(latencies, 50))
                p90s.append(percentile(latencies, 90))
                answered += sum(
                    len(s.indices) for s in round_bulk if s.status == 200
                )
                closed_wall += bulk_wall
                samples += round_samples
                bulk += round_bulk

            failed = record(samples) + record(bulk)
            attempted = len(samples) + len(bulk)
            outcome = Outcome(attempted=attempted, failed=failed,
                              spans=spans)
            outcome.rate = answered / closed_wall
            windows = open_windows + closed_windows
            hits = delta(windows, "serve_cache_hits")
            lookups = hits + delta(windows, "serve_cache_misses")
            if not hot:
                gate(hits == 0, f"serve_cold saw {hits:.0f} cache hits")
            outcome.end_to_end = {
                "setup_s": setup_s,
                "peak_rss_mb": server.peak_rss_mb(),
                "success_frac": 1.0 - failed / attempted,
                "configs_per_s": outcome.rate,
                "p50_ms": median(p50s),
            }
            outcome.p90_ms = median(p90s)
            if traced:
                floor_ms = _time_ms(
                    lambda: control.request("GET", "/healthz"), 200
                )
                batch_ms = mean_ms(open_windows, "serve_batch_seconds")
                one = [pool[0]]
                full = pool[:BULK]
                server_s = delta(open_windows, "serve_request_seconds_sum")
                ok = [s for s in samples if s.status == 200]
                outcome.layers = {
                    "serve.cache.hit_frac": hits / lookups if lookups else 0.0,
                    "serve.batch.mean_size": delta(
                        closed_windows, "serve_batch_size_sum"
                    ) / max(delta(closed_windows, "serve_batch_size_count"), 1),
                    "serve.request_ms": mean_ms(
                        open_windows, "serve_request_seconds"
                    ),
                    "serve.batch_ms": batch_ms,
                    "core.predict_ms": mean_ms(
                        open_windows, "predict_batch_seconds"
                    ),
                    "ml.ensemble_ms": mean_ms(
                        open_windows, "ensemble_batch_seconds"
                    ),
                    "serve.rejected": delta(windows, "serve_rejected"),
                    "http.floor_ms": floor_ms,
                    "core.predict_invariant_ms.b1": _time_ms(
                        lambda: reference.predict_invariant(one), 200
                    ),
                    "core.predict_invariant_ms.b64": _time_ms(
                        lambda: reference.predict_invariant(full), 50
                    ),
                    "serve.residual_ms": median(
                        [1000.0 * s.latency for s in ok]
                    ) - floor_ms - batch_ms,
                    "load.late_ms.p99": 1000.0 * percentile(
                        [s.late for s in samples], 99
                    ),
                }
                # Open-stage accounting: every request's time from its due
                # time is load-generator lateness, server-side request time, or
                # transport (the rest of the round trip).
                outcome.wall_s = sum(s.latency for s in ok)
                late = sum(s.late for s in ok)
                transport = sum(s.rtt for s in ok) - server_s
                outcome.attributed_s = late + server_s + transport
            return outcome

        # The load generator's own garbage (the pool, the samples) must not pause
        # it mid-stage: a 60 ms collection would be charged to the server
        # as lateness.  timeit disables the collector for the same reason.
        gc.collect()
        gc.freeze()
        gc.disable()
        try:
            outcome = measure_workload(measure, seconds, trace)
        finally:
            gc.enable()
            gc.unfreeze()
    finally:
        control.close()
        server.stop()

    # predict_invariant is batch-invariant, so one call over the distinct
    # served configurations gives the bits each request should have got.
    distinct = sorted(set(served_indices))
    expected = dict(zip(
        distinct, reference.predict_invariant([pool[i] for i in distinct])
    ))
    gate(same_bits([expected[i] for i in served_indices], served_values),
         "a served prediction differs from in-process predict_invariant")
    return outcome

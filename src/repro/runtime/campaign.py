"""Chunked, journalled, resumable simulation campaigns.

A campaign is the cross product of programs and a shared configuration
sample — exactly the shape of the paper's offline builds (T = 512
simulations for each of 26 training programs).  The runner splits every
program's configurations into fixed chunks; each (program, chunk)
*cell* is the unit of checkpointing: its metric arrays go to their own
checksummed ``.npz`` and the completion is journalled.  Interrupt the
process at any point and a rerun resumes from the journal: verified
cells are loaded from disk, unfinished ones are re-simulated, and the
assembled matrices are bit-identical to an uninterrupted run.

The unit of *execution* is the run slice (:func:`plan_slices`): a run
of consecutive chunks that every listed program still needs, about
:data:`SLICE_CONFIGS` configurations wide.  The serial loop and the
process pool share the planner.  Backends advertising the program-major
``simulate_suite`` fast path (see
:func:`repro.runtime.backend.supports_suite`) are called once per slice
across all its programs, and the per-cell batches are cut from the
slice's arrays; other backends get one retried ``simulate_batch`` per
cell.  Either way each slice's journal records are group-committed
with one ``fsync``, and every path journals exactly the same cells
with exactly the same arrays.
"""

from __future__ import annotations

import hashlib
import io
import json
import pathlib
import time
import uuid
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.designspace.configuration import Configuration
from repro.obs import (
    build_manifest,
    get_logger,
    get_registry,
    get_tracer,
    scoped_registry,
    scoped_tracer,
    span,
    write_manifest,
)
from repro.parallel import resolve_jobs
from repro.sim.interval import BatchResult
from repro.sim.metrics import Metric
from repro.workloads.profile import WorkloadProfile, stable_seed

from .backend import (
    SimulationBackend,
    SimulationError,
    supports_suite,
    validate_batch,
)
from .artifact import _write_atomic
from .integrity import array_checksum, file_checksum
from .journal import CampaignJournal, record_stage
from .retry import CircuitBreaker, CircuitOpenError, RetryPolicy, call_with_retry

if TYPE_CHECKING:  # lazy import keeps runtime free of exploration
    from repro.exploration.dataset import DesignSpaceDataset
    from repro.workloads.suite import BenchmarkSuite

_MANIFEST_VERSION = 1
_METRIC_FIELDS = ("cycles", "energy", "ed", "edd")

#: Configurations one run slice covers, rounded to whole chunks (at
#: least one).  A slice costs one suite call and one journal fsync, so
#: wider slices amortise more; past about 512 the speed-up flattens
#: while the peak memory of the slice's arrays keeps growing.
SLICE_CONFIGS = 512

_log = get_logger(__name__)


def _retried_call(fn, validate, policy, seed, breaker, sleep, clock,
                  name, **attrs):
    """One backend call under the retry policy, traced as ``name``.

    ``breaker=None`` gives the call a private breaker (the pool
    workers' semantics); the serial loop passes its campaign-wide one.
    The span records the attempts and the outcome, and its duration
    feeds ``campaign.chunk.seconds``.

    Returns:
        (result or None, attempts, the permanent failure or None).

    Raises:
        CircuitOpenError: once the shared breaker is open (after the
            span is recorded).
    """
    attempts = 0

    def attempt():
        nonlocal attempts
        attempts += 1
        return fn()

    result, error, outcome = None, None, "ok"
    with span(name, **attrs) as record:
        try:
            result = call_with_retry(
                attempt,
                policy,
                seed=seed,
                breaker=breaker if breaker is not None else CircuitBreaker(),
                validate=validate,
                sleep=sleep,
                clock=clock,
            )
        except CircuitOpenError as failure:
            error, outcome = failure, "circuit-open"
        except SimulationError as failure:
            error, outcome = failure, "failed"
        if record is not None:
            record["attrs"]["attempts"] = attempts
            record["attrs"]["outcome"] = outcome
    if record is not None:
        # The span's duration is final only once the block exits.
        get_registry().histogram("campaign.chunk.seconds").observe(
            record["dur"]
        )
    if outcome == "circuit-open":
        raise error
    return result, attempts, error


def _cut(batch: BatchResult, start: int, stop: int) -> BatchResult:
    return BatchResult(
        **{field: getattr(batch, field)[start:stop] for field in _METRIC_FIELDS}
    )


def _slice_outcomes(
    backend, work: CampaignSlice, configs: Sequence[Configuration],
    policy: RetryPolicy, seed: int, breaker=None, sleep=None, clock=None,
) -> Iterator[Tuple[CampaignCell, Optional[BatchResult], int,
                    Optional[SimulationError]]]:
    """Simulate one slice: yield (cell, batch, attempts, failure) per cell.

    ``configs`` is the slice's own range (``configs[work.start:work.stop]``
    of the campaign).  A suite backend serves the whole slice with one
    retried ``simulate_suite`` call, traced as ``simulate.suite``; its
    attempts are credited to the first cell, and validation checks
    every cut, so one corrupted batch retries the slice.  Other
    backends get one retried ``simulate_batch`` per cell, traced as
    ``simulate.chunk``, so fault schedules stay per cell.  A generator,
    so the serial loop stores each cell before simulating the next.
    """
    if supports_suite(backend):
        rows = {profile.name: row for row, profile in enumerate(work.profiles)}

        def cut(results: List[BatchResult]) -> List[BatchResult]:
            return [
                validate_batch(
                    _cut(
                        results[rows[cell.profile.name]],
                        cell.start - work.start,
                        cell.stop - work.start,
                    ),
                    f"for cell {cell.cell}",
                )
                for cell in work.cells
            ]

        first = work.cells[0].chunk_index
        batches, attempts, error = _retried_call(
            lambda: backend.simulate_suite(list(work.profiles), configs),
            cut, policy,
            stable_seed("campaign-retry", f"suite:{first}", str(seed)),
            breaker, sleep, clock, "simulate.suite",
            chunk=first, chunks=work.cells[-1].chunk_index - first + 1,
            programs=len(work.profiles),
        )
        for index, cell in enumerate(work.cells):
            # Every cell gets its own span whichever path served it; the
            # attempts live on the slice's ``simulate.suite`` span.
            with span(
                "simulate.chunk", program=cell.profile.name,
                chunk=cell.chunk_index, attempts=0,
                outcome="ok" if error is None else "failed",
            ):
                pass
            yield (
                cell,
                None if batches is None else batches[index],
                attempts if index == 0 else 0,
                error,
            )
        return
    for cell in work.cells:
        cell_configs = configs[cell.start - work.start:cell.stop - work.start]
        batch, attempts, error = _retried_call(
            lambda: backend.simulate_batch(cell.profile, cell_configs),
            lambda result: validate_batch(result, f"for cell {cell.cell}"),
            policy,
            stable_seed("campaign-retry", cell.cell, str(seed)),
            breaker, sleep, clock, "simulate.chunk",
            program=cell.profile.name, chunk=cell.chunk_index,
        )
        yield cell, batch, attempts, error


def _simulate_slice_worker(task):
    """Simulate one run slice in a worker process.

    Module-level so it pickles.  Each task carries its *own copy* of
    the backend and every call gets a private circuit breaker;
    deterministic backends produce exactly the arrays the serial loop
    would.  Telemetry is captured into a private registry/tracer (the
    fork-inherited globals would be lost with the process) and shipped
    back as a picklable dict the parent merges, so aggregate counters
    are independent of the worker count.

    Returns:
        (one (batch or None, attempts, failure or None) per cell of
        the slice, telemetry dict).
    """
    backend, work, configs, policy, seed = task
    with scoped_registry() as registry, scoped_tracer() as tracer:
        # Failures travel as plain SimulationErrors: a backend's own
        # exception type need not survive pickling.
        outcomes = [
            (
                batch, attempts,
                None if error is None else SimulationError(str(error)),
            )
            for _, batch, attempts, error in _slice_outcomes(
                backend, work, configs, policy, seed
            )
        ]
        telemetry = {
            "metrics": registry.snapshot(),
            "spans": list(tracer.spans),
        }
    return outcomes, telemetry


@dataclass(frozen=True)
class CampaignCell:
    """One (program, chunk) unit of campaign work.

    Attributes:
        cell: The cell id, ``"<program>:<chunk_index>"``.
        profile: The program's workload profile.
        chunk_index: Index into the campaign's chunk bounds.
        start: First configuration index of the chunk (inclusive).
        stop: One past the last configuration index (exclusive).
    """

    cell: str
    profile: WorkloadProfile
    chunk_index: int
    start: int
    stop: int


@dataclass(frozen=True)
class CampaignSlice:
    """A run of consecutive chunks that the same programs still need.

    Attributes:
        profiles: The slice's programs, in campaign order.
        cells: Its cells, chunk-major (the order they are journalled).
        start: First configuration index covered (inclusive).
        stop: One past the last configuration index (exclusive).
    """

    profiles: Tuple[WorkloadProfile, ...]
    cells: Tuple[CampaignCell, ...]
    start: int
    stop: int


def plan_slices(
    cells: Sequence[CampaignCell], chunk_size: int
) -> List[CampaignSlice]:
    """Group unfinished cells by chunk, then merge chunks into slices.

    Consecutive chunks needed by the same program set merge into one
    slice of up to ``round(SLICE_CONFIGS / chunk_size)`` chunks (never
    fewer than one).  A gap (a chunk nobody needs) or a change in the
    program set starts a new slice, so every slice is a rectangle of
    programs x configurations — one ``simulate_suite`` call.
    """
    per_slice = max(1, round(SLICE_CONFIGS / chunk_size))
    by_chunk: Dict[int, List[CampaignCell]] = {}
    for cell in cells:
        by_chunk.setdefault(cell.chunk_index, []).append(cell)

    def programs(group: List[CampaignCell]) -> List[str]:
        return [cell.profile.name for cell in group]

    runs: List[List[List[CampaignCell]]] = []
    for index in sorted(by_chunk):
        group = by_chunk[index]
        last = runs[-1] if runs else None
        if (
            last is None
            or len(last) == per_slice
            or last[-1][0].chunk_index != index - 1
            or programs(last[-1]) != programs(group)
        ):
            runs.append([group])
        else:
            last.append(group)
    return [
        CampaignSlice(
            profiles=tuple(cell.profile for cell in run[0]),
            cells=tuple(cell for group in run for cell in group),
            start=run[0][0].start,
            stop=run[-1][0].stop,
        )
        for run in runs
    ]


@dataclass(frozen=True)
class CampaignPlan:
    """The resolved shape of a campaign before any cell is simulated.

    Produced by :meth:`CampaignRunner.plan` and shared by every
    execution strategy — the serial loop, the process pool and the
    distributed coordinator all iterate the same cells against the same
    journal, which is what makes their outputs interchangeable.

    Attributes:
        programs: Program names in campaign order.
        profiles: The matching workload profiles.
        configs: The shared configuration sample.
        chunks: ``(start, stop)`` bounds of each configuration chunk.
        cells: Every (program, chunk) cell in campaign order.
        completed: Journalled cells whose result files still verify,
            mapped to their on-disk paths.
    """

    programs: Tuple[str, ...]
    profiles: Tuple[WorkloadProfile, ...]
    configs: Tuple[Configuration, ...]
    chunks: Tuple[Tuple[int, int], ...]
    cells: Tuple[CampaignCell, ...]
    completed: Dict[str, pathlib.Path]

    @property
    def remaining(self) -> Tuple[CampaignCell, ...]:
        """Cells not yet journalled (the work an executor must run)."""
        return tuple(c for c in self.cells if c.cell not in self.completed)


@dataclass(frozen=True)
class CampaignResult:
    """Assembled matrices plus an accounting of how the run went.

    Attributes:
        programs: Program names in campaign order.
        configs: The shared configuration sample.
        total_cells: Number of (program, chunk) cells in the campaign.
        simulated_cells: Cells simulated by *this* run.
        resumed_cells: Cells restored from the checkpoint journal.
        failed_cells: Cell ids whose retries were exhausted.
        pending_cells: Cell ids never attempted (early stop or an open
            circuit breaker).
        attempts: Backend calls made by this run (retries included).
    """

    programs: Tuple[str, ...]
    configs: Tuple[Configuration, ...]
    total_cells: int
    simulated_cells: int
    resumed_cells: int
    failed_cells: Tuple[str, ...]
    pending_cells: Tuple[str, ...]
    attempts: int
    _values: Dict[Tuple[str, Metric], np.ndarray]

    @property
    def complete(self) -> bool:
        """True when every cell of every program finished."""
        return not self.failed_cells and not self.pending_cells

    def values(self, program: str, metric: Metric) -> np.ndarray:
        """One program's metric vector (NaN where cells are missing)."""
        try:
            return self._values[(program, metric)]
        except KeyError:
            raise KeyError(f"program {program!r} is not in this campaign")

    def matrix(self, metric: Metric) -> np.ndarray:
        """(programs, configurations) metric matrix in campaign order."""
        return np.stack(
            [self.values(program, metric) for program in self.programs]
        )

    def to_dataset(
        self,
        suite: "BenchmarkSuite",
        simulator=None,
    ) -> "DesignSpaceDataset":
        """Hydrate a :class:`DesignSpaceDataset` from the campaign.

        Args:
            suite: The suite the campaign simulated (must contain every
                campaign program).
            simulator: Optional simulator for the dataset.

        Raises:
            ValueError: if the campaign is incomplete or the suite does
                not cover the campaign's programs.
        """
        from repro.exploration.dataset import DesignSpaceDataset

        if not self.complete:
            missing = len(self.failed_cells) + len(self.pending_cells)
            raise ValueError(
                f"cannot build a dataset from an incomplete campaign "
                f"({missing} unfinished cell(s)); resume it first"
            )
        if tuple(suite.programs) != self.programs:
            raise ValueError(
                "suite program list does not match the campaign "
                f"({list(suite.programs)} vs {list(self.programs)})"
            )
        dataset = DesignSpaceDataset(suite, self.configs, simulator)
        for program in self.programs:
            for metric in Metric.all():
                dataset.hydrate(
                    program, metric, self.values(program, metric)
                )
        return dataset


class CampaignRunner:
    """Execute a (programs x configurations) campaign with checkpoints.

    Args:
        backend: Where simulations run (any :class:`SimulationBackend`).
        checkpoint_dir: Directory for the journal, the manifest and the
            per-cell result files.
        chunk_size: Configurations per cell — the unit of retry, of
            checkpointing and of loss on interruption.
        retry_policy: Per-cell retry policy (defaults to
            :class:`RetryPolicy()`).
        breaker_threshold: Consecutive cell failures that trip the
            campaign-wide circuit breaker.
        seed: Base seed of the deterministic retry jitter.
        n_jobs: Worker processes simulating run slices concurrently.
            1 (the default) runs the serial loop; -1 uses one worker per
            CPU.  The parallel path requires a picklable backend, gives
            each backend call a private circuit breaker (the
            campaign-wide breaker and the ``sleep``/``clock`` hooks
            apply to the serial loop only) and assembles matrices
            bit-identical to a serial run for deterministic backends.
        sleep: Sleep hook shared by backoff delays (injectable for
            tests).
        clock: Monotonic clock hook for the per-call timeout guard.
    """

    def __init__(
        self,
        backend: SimulationBackend,
        checkpoint_dir: Union[str, pathlib.Path],
        chunk_size: int = 128,
        retry_policy: Optional[RetryPolicy] = None,
        breaker_threshold: int = 8,
        seed: int = 0,
        n_jobs: Optional[int] = None,
        sleep=None,
        clock=None,
    ) -> None:
        if chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        self.backend = backend
        self.checkpoint_dir = pathlib.Path(checkpoint_dir)
        self.chunk_size = chunk_size
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy()
        )
        self.breaker_threshold = breaker_threshold
        self.seed = seed
        self.n_jobs = resolve_jobs(n_jobs)
        self._sleep = sleep
        self._clock = clock
        self.journal = CampaignJournal(self.checkpoint_dir / "journal.jsonl")


    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        profiles: Union["BenchmarkSuite", Sequence[WorkloadProfile]],
        configs: Sequence[Configuration],
        resume: bool = True,
        max_cells: Optional[int] = None,
        fail_fast: bool = False,
    ) -> CampaignResult:
        """Run (or resume) the campaign.

        Args:
            profiles: A benchmark suite or an explicit profile sequence.
            configs: The shared configuration sample.
            resume: Reuse a compatible existing checkpoint; ``False``
                refuses to run over one.
            max_cells: Simulate only the first this-many unfinished
                cells in campaign order and leave the rest pending (the
                test hook for interruption).
            fail_fast: Re-raise the first permanent cell failure instead
                of recording it and moving on.

        Raises:
            ValueError: on an incompatible or unexpected checkpoint.
            SimulationError: with ``fail_fast``, the first permanent
                failure.

        Every run also leaves a ``run_manifest.json`` next to the
        journal — run id, seed, git sha, configuration checksum, cell
        accounting and a per-stage timing summary — so a checkpoint
        directory documents its own provenance.
        """
        config_checksum = self._config_checksum(configs)
        plan = self._plan(profiles, configs, resume, config_checksum)
        programs = plan.programs
        values: Dict[Tuple[str, Metric], np.ndarray] = {
            (program, metric): np.full(len(configs), np.nan)
            for program in programs
            for metric in Metric.all()
        }
        started = time.time()
        tracer = get_tracer()
        trace_start = tracer.mark()
        # One trace id per campaign: process-pool children's spans are
        # adopted trace-id-less and stamped with this on merge, so a
        # local campaign stitches exactly like a distributed one.
        tracer.ensure_trace_id()
        _log.info(
            "campaign start: %d program(s) x %d configuration(s) = "
            "%d cell(s), %d already journalled, n_jobs=%d",
            len(programs), len(configs), len(plan.cells),
            len(plan.completed), self.n_jobs,
            extra={"event": "campaign.start", "cells": len(plan.cells),
                   "journalled": len(plan.completed),
                   "n_jobs": self.n_jobs},
        )
        try:
            with span(
                "campaign.run",
                programs=len(programs),
                configs=len(configs),
                cells=len(plan.cells),
                n_jobs=self.n_jobs,
            ):
                resumed = self._restore(plan, values)
                todo = list(plan.remaining)
                pending: List[str] = []
                if max_cells is not None and len(todo) > max_cells:
                    pending = [cell.cell for cell in todo[max_cells:]]
                    todo = todo[:max_cells]
                execute = (
                    self._run_parallel if self.n_jobs > 1
                    else self._run_serial
                )
                simulated, attempts, failed, stopped = execute(
                    plan.configs,
                    plan_slices(todo, self.chunk_size),
                    values,
                    fail_fast,
                )
            result = CampaignResult(
                programs=programs,
                configs=plan.configs,
                total_cells=len(plan.cells),
                simulated_cells=simulated,
                resumed_cells=resumed,
                failed_cells=tuple(failed),
                pending_cells=tuple(stopped + pending),
                attempts=attempts,
                _values=values,
            )
        except BaseException as error:
            # SIGTERM (SystemExit), Ctrl-C (KeyboardInterrupt) or a
            # crash: the checkpoint directory must still document what
            # happened — journalled cells are safe, and the next
            # --resume needs the provenance, not a missing manifest.
            self._write_interrupted_manifest(error, trace_start, started)
            raise
        self._finalize(result, trace_start, started, config_checksum)
        return result

    def plan(
        self,
        profiles: Union["BenchmarkSuite", Sequence[WorkloadProfile]],
        configs: Sequence[Configuration],
        resume: bool = True,
    ) -> CampaignPlan:
        """Resolve the campaign's cells and what the journal already holds.

        Validates the inputs, checks (or creates) the checkpoint
        manifest and verifies journalled cell files against their
        checksums — everything :meth:`run` does before simulating, with
        no simulation.  The distributed coordinator calls this to build
        its work queue over the same checkpoint a serial run would use.

        Raises:
            ValueError: on empty inputs or an incompatible checkpoint.
        """
        return self._plan(
            profiles, configs, resume, self._config_checksum(configs)
        )

    def _plan(
        self,
        profiles: Union["BenchmarkSuite", Sequence[WorkloadProfile]],
        configs: Sequence[Configuration],
        resume: bool,
        config_checksum: str,
    ) -> CampaignPlan:
        """:meth:`plan` with the configuration checksum already taken."""
        profile_list = self._profiles(profiles)
        if not configs:
            raise ValueError("a campaign needs at least one configuration")
        programs = tuple(profile.name for profile in profile_list)
        self._check_manifest(programs, configs, resume, config_checksum)
        chunks = tuple(self._chunk_bounds(len(configs)))
        cells = tuple(
            CampaignCell(
                cell=f"{profile.name}:{index}",
                profile=profile,
                chunk_index=index,
                start=start,
                stop=stop,
            )
            for profile in profile_list
            for index, (start, stop) in enumerate(chunks)
        )
        return CampaignPlan(
            programs=programs,
            profiles=tuple(profile_list),
            configs=tuple(configs),
            chunks=chunks,
            cells=cells,
            completed=self._verified_completed_cells(),
        )


    def _restore(
        self, plan: CampaignPlan, values: Dict[Tuple[str, Metric], np.ndarray]
    ) -> int:
        """Load every journalled cell into ``values``; returns the count."""
        for cell in plan.cells:
            if cell.cell not in plan.completed:
                continue
            with span(
                "resume.chunk", program=cell.profile.name,
                chunk=cell.chunk_index,
            ):
                batch = self.resume_cell(
                    cell.cell, plan.completed[cell.cell],
                    cell.stop - cell.start,
                )
            self.fill_values(
                values, cell.profile.name, cell.start, cell.stop, batch
            )
        return len(plan.completed)

    def _run_serial(
        self,
        configs: Tuple[Configuration, ...],
        slices: List[CampaignSlice],
        values: Dict[Tuple[str, Metric], np.ndarray],
        fail_fast: bool,
    ) -> Tuple[int, int, List[str], List[str]]:
        """The in-process slice loop (``n_jobs == 1``).

        Each cell is stored as soon as it is simulated, and the slice's
        journal records are group-committed when the slice ends.  The
        campaign-wide circuit breaker stops the loop once it opens,
        leaving everything not yet simulated pending for a later resume.

        Returns:
            (cells simulated, backend attempts, failed cell ids, cell
            ids left pending by an open breaker).
        """
        breaker = CircuitBreaker(self.breaker_threshold)
        simulated = attempts = 0
        failed: List[str] = []
        for position, work in enumerate(slices):
            settled = 0
            with self.journal.group():
                try:
                    for cell, batch, cell_attempts, error in _slice_outcomes(
                        self.backend, work, configs[work.start:work.stop],
                        self.retry_policy, self.seed, breaker,
                        self._sleep, self._clock,
                    ):
                        attempts += cell_attempts
                        simulated += self._settle(
                            cell, batch, error, values, failed, fail_fast
                        )
                        settled += 1
                except CircuitOpenError:
                    # The backend is down; stop burning attempts.
                    return simulated, attempts, failed, [
                        cell.cell
                        for later in [work.cells[settled:]] + [
                            rest.cells for rest in slices[position + 1:]
                        ]
                        for cell in later
                    ]
        return simulated, attempts, failed, []

    def _run_parallel(
        self,
        configs: Tuple[Configuration, ...],
        slices: List[CampaignSlice],
        values: Dict[Tuple[str, Metric], np.ndarray],
        fail_fast: bool,
    ) -> Tuple[int, int, List[str], List[str]]:
        """Fan the slices out over a process pool.

        A suite backend gets one task per slice.  A suite-less backend
        gets one task per cell, as its slice would buy it no shared
        call, and its cells still spread over every worker.  Results
        are journalled, one group commit per slice, as the ordered
        ``map`` stream delivers them, so an interrupted parallel run
        resumes exactly like a serial one.  Each worker ships its
        telemetry (spans, counters, call latencies) back with the
        batches; the parent merges everything into the process-global
        registry/tracer, so aggregate metrics match a serial run for
        deterministic backends.
        """
        registry = get_registry()
        tracer = get_tracer()
        simulated = attempts = 0
        failed: List[str] = []
        if not slices:
            return simulated, attempts, failed, []
        suite = supports_suite(self.backend)
        units = [
            [work] if suite else [
                CampaignSlice((cell.profile,), (cell,), cell.start, cell.stop)
                for cell in work.cells
            ]
            for work in slices
        ]
        tasks = [
            (
                self.backend, unit, configs[unit.start:unit.stop],
                self.retry_policy, self.seed,
            )
            for parts in units
            for unit in parts
        ]
        with ProcessPoolExecutor(
            max_workers=min(self.n_jobs, len(tasks))
        ) as pool:
            results = pool.map(_simulate_slice_worker, tasks)
            for parts in units:
                with self.journal.group():
                    for unit in parts:
                        outcomes, telemetry = next(results)
                        registry.merge(telemetry["metrics"])
                        tracer.adopt(telemetry["spans"])
                        for cell, (batch, cell_attempts, error) in zip(
                            unit.cells, outcomes
                        ):
                            attempts += cell_attempts
                            simulated += self._settle(
                                cell, batch, error, values, failed,
                                fail_fast,
                            )
        return simulated, attempts, failed, []

    def _settle(
        self,
        cell: CampaignCell,
        batch: Optional[BatchResult],
        error: Optional[SimulationError],
        values: Dict[Tuple[str, Metric], np.ndarray],
        failed: List[str],
        fail_fast: bool,
    ) -> bool:
        """Store a simulated cell, or record its failure; True if stored."""
        if batch is None:
            if fail_fast:
                raise error
            _log.warning(
                "cell %s failed permanently: %s", cell.cell, error,
                extra={"event": "campaign.cell_failed", "cell": cell.cell},
            )
            failed.append(cell.cell)
            return False
        self.store_cell(cell.cell, cell.profile.name, cell.chunk_index, batch)
        self.fill_values(
            values, cell.profile.name, cell.start, cell.stop, batch
        )
        return True


    def _write_interrupted_manifest(
        self, error: BaseException, trace_start: int, started: float
    ) -> None:
        """Best-effort run manifest for a run that did not finish.

        Never raises: the manifest write must not mask the original
        interruption, and a half-created checkpoint directory is still
        created by :func:`write_manifest` itself.
        """
        try:
            manifest = build_manifest(
                run_id=uuid.uuid4().hex,
                seed=self.seed,
                extra={
                    "kind": "campaign",
                    "status": "interrupted",
                    "error": f"{type(error).__name__}: {error}",
                    "checkpoint_dir": str(self.checkpoint_dir),
                    "chunk_size": self.chunk_size,
                    "n_jobs": self.n_jobs,
                    "journal_records": len(self.journal.records()),
                },
                trace_start=trace_start,
                started=started,
            )
            write_manifest(self.run_manifest_path, manifest)
            _log.warning(
                "campaign interrupted (%s); manifest written to %s",
                type(error).__name__, self.run_manifest_path,
                extra={"event": "campaign.interrupted"},
            )
        except Exception:  # noqa: BLE001 - deliberately silent
            pass

    def _finalize(
        self, result: CampaignResult, trace_start: int, started: float,
        config_checksum: str,
    ) -> None:
        """Record campaign-level metrics and write the run manifest."""
        registry = get_registry()
        registry.counter("campaign.cells.simulated").inc(
            result.simulated_cells
        )
        registry.counter("campaign.cells.resumed").inc(result.resumed_cells)
        registry.counter("campaign.cells.failed").inc(
            len(result.failed_cells)
        )
        registry.counter("campaign.cells.pending").inc(
            len(result.pending_cells)
        )
        registry.counter("campaign.attempts").inc(result.attempts)
        level = (
            "info" if result.complete else "warning"
        )
        getattr(_log, level)(
            "campaign done: %d simulated, %d resumed, %d failed, "
            "%d pending, %d backend attempt(s)",
            result.simulated_cells, result.resumed_cells,
            len(result.failed_cells), len(result.pending_cells),
            result.attempts,
            extra={"event": "campaign.done",
                   "simulated": result.simulated_cells,
                   "resumed": result.resumed_cells,
                   "failed": len(result.failed_cells),
                   "pending": len(result.pending_cells),
                   "attempts": result.attempts},
        )
        manifest = build_manifest(
            run_id=uuid.uuid4().hex,
            seed=self.seed,
            config_checksum=config_checksum,
            extra={
                "kind": "campaign",
                "status": "complete" if result.complete else "incomplete",
                "checkpoint_dir": str(self.checkpoint_dir),
                "programs": list(result.programs),
                "config_count": len(result.configs),
                "chunk_size": self.chunk_size,
                "n_jobs": self.n_jobs,
                "total_cells": result.total_cells,
                "simulated_cells": result.simulated_cells,
                "resumed_cells": result.resumed_cells,
                "failed_cells": list(result.failed_cells),
                "pending_cells": list(result.pending_cells),
                "attempts": result.attempts,
                "journal_records": len(self.journal.records()),
            },
            trace_start=trace_start,
            started=started,
        )
        write_manifest(self.run_manifest_path, manifest)

    # ------------------------------------------------------------------
    # Checkpoint plumbing
    # ------------------------------------------------------------------
    @property
    def manifest_path(self) -> pathlib.Path:
        return self.checkpoint_dir / "manifest.json"

    @property
    def run_manifest_path(self) -> pathlib.Path:
        """Provenance manifest of the most recent :meth:`run`."""
        return self.checkpoint_dir / "run_manifest.json"

    @property
    def chunks_dir(self) -> pathlib.Path:
        return self.checkpoint_dir / "chunks"

    @staticmethod
    def _profiles(
        profiles: Union["BenchmarkSuite", Sequence[WorkloadProfile]]
    ) -> List[WorkloadProfile]:
        items = list(
            profiles.profiles if hasattr(profiles, "profiles") else profiles
        )
        if not items:
            raise ValueError("a campaign needs at least one program")
        return items

    def _chunk_bounds(self, count: int) -> List[Tuple[int, int]]:
        return [
            (start, min(start + self.chunk_size, count))
            for start in range(0, count, self.chunk_size)
        ]

    def _config_checksum(self, configs: Sequence[Configuration]) -> str:
        matrix = np.array(
            [list(config.values()) for config in configs], dtype=np.int64
        )
        return array_checksum(matrix)

    def _check_manifest(
        self,
        programs: Tuple[str, ...],
        configs: Sequence[Configuration],
        resume: bool,
        config_checksum: str,
    ) -> None:
        manifest = {
            "version": _MANIFEST_VERSION,
            "programs": list(programs),
            "config_count": len(configs),
            "chunk_size": self.chunk_size,
            "configs_checksum": config_checksum,
        }
        if self.manifest_path.exists():
            if not resume:
                raise ValueError(
                    f"checkpoint directory {self.checkpoint_dir} already "
                    "holds a campaign; resume it or start in a fresh "
                    "directory"
                )
            try:
                existing = json.loads(
                    self.manifest_path.read_text(encoding="utf-8")
                )
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"corrupt campaign manifest {self.manifest_path}"
                ) from error
            if existing != manifest:
                raise ValueError(
                    "checkpoint directory belongs to a different campaign "
                    "(programs, configurations or chunk size changed)"
                )
            return
        self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        self.manifest_path.write_text(
            json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8"
        )

    def _verified_completed_cells(self) -> Dict[str, pathlib.Path]:
        """Journalled cells whose result files still pass their checksum."""
        completed: Dict[str, pathlib.Path] = {}
        for record in self.journal.records():
            cell = record.get("cell")
            filename = record.get("file")
            checksum = record.get("checksum")
            if not (cell and filename and checksum):
                continue
            path = self.checkpoint_dir / filename
            if not path.exists() or file_checksum(path) != checksum:
                continue  # damaged or missing: re-simulate this cell
            completed[cell] = path
        return completed

    def _cell_path(self, program: str, chunk_index: int) -> pathlib.Path:
        return self.chunks_dir / f"{program}__{chunk_index:05d}.npz"

    def store_cell(
        self, cell: str, program: str, chunk_index: int, batch: BatchResult
    ) -> None:
        """Write the cell atomically, then journal it with its checksum.

        The metric arrays are serialised in memory as a stored ``.npz``
        (not deflated: float64 metrics barely compress), and the bytes
        go to a scratch file that is fsynced and only then renamed over
        the final name — a crash at any point leaves either no cell
        file or a complete one, never a torn ``.npz`` that a later
        ``--resume`` would have to distrust.  The journal checksum is
        the SHA-256 of exactly the bytes written, so the file is never
        read back; resume verifies it against the file on disk.
        Inside a :meth:`CampaignJournal.group` the record is buffered
        and committed with the rest of the run slice; the distributed
        coordinator calls this outside any group, so each of its
        records is fsynced on its own.  The serialise, write
        (create, write and rename) and fsync stages are recorded in
        ``campaign.stage.seconds``.
        """
        started = time.perf_counter()
        buffer = io.BytesIO()
        np.savez(
            buffer,
            **{field: getattr(batch, field) for field in _METRIC_FIELDS},
        )
        data = buffer.getvalue()
        checksum = hashlib.sha256(data).hexdigest()
        record_stage("serialise", time.perf_counter() - started)
        self.chunks_dir.mkdir(parents=True, exist_ok=True)
        path = self._cell_path(program, chunk_index)
        write_s, fsync_s = _write_atomic(path, data)
        record_stage("write", write_s)
        record_stage("fsync", fsync_s)
        self.journal.append(
            {
                "cell": cell,
                "file": str(path.relative_to(self.checkpoint_dir)),
                "checksum": checksum,
            }
        )
        _log.debug(
            "journalled cell %s -> %s", cell, path.name,
            extra={"event": "campaign.cell_stored", "cell": cell},
        )

    def resume_cell(
        self, cell: str, path: pathlib.Path, expected: int
    ) -> BatchResult:
        """Load a journalled cell back from disk, checking its shape.

        Shared by the serial loop, the process-parallel loop and the
        distributed coordinator, so every executor restores checkpoints
        identically.
        """
        batch = self._load_cell(path)
        if len(batch) != expected:
            raise ValueError(
                f"checkpointed cell {cell} holds {len(batch)} "
                f"configurations, expected {expected}"
            )
        return batch

    def _load_cell(self, path: pathlib.Path) -> BatchResult:
        with np.load(path, allow_pickle=False) as archive:
            return BatchResult(
                **{field: archive[field] for field in _METRIC_FIELDS}
            )

    @staticmethod
    def fill_values(
        values: Dict[Tuple[str, Metric], np.ndarray],
        program: str,
        start: int,
        stop: int,
        batch: BatchResult,
    ) -> None:
        """Write one cell's metric arrays into the campaign matrices."""
        for metric in Metric.all():
            values[(program, metric)][start:stop] = batch.metric(metric)

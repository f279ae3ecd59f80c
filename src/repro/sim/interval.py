"""First-order interval performance/energy model (the bulk simulator).

This is the fast data generator behind the large experiments, playing
the role statistical simulation plays in the paper's related work: a
first-order superscalar model in the tradition of Karkhanis & Smith's
interval analysis.  Execution proceeds at a window-and-width-limited
steady-state issue rate, punctuated by miss events — branch
mispredictions, instruction-cache misses, data misses to L2 and memory —
each charged its exposure after out-of-order latency hiding and
memory-level parallelism.

The model is fully vectorised over configurations with numpy: evaluating
a program on thousands of design points is a single pass of array
arithmetic, which is what makes sampling 3,000 architectures per
benchmark (Section 3.3 of the paper) cheap enough to run everywhere.

Cycle model
-----------
The effective out-of-order window is the binding minimum of the reorder
buffer, the rename registers the register file can supply, the issue
queue and load/store queue occupancies the program generates, and the
in-flight branch limit.  The program's ILP curve maps the window to a
sustainable issue rate, capped (smoothly) by the pipeline width, the
register-file ports, and the width-scaled functional units.  Penalty
terms then add the exposed cost of branch mispredictions (front-end
refill plus window drain), BTB misses, instruction misses, L2 hits that
the window cannot hide, and memory accesses divided by the achievable
memory-level parallelism.

Energy model
------------
Wattch-style: per-instruction activity counts for every structure times
the Cacti-style per-access energies of :mod:`repro.sim.energy`, inflated
on the speculative front-end path by the wrong-path factor, plus leakage
and clock power integrated over the elapsed cycles.  The per-access
energies, area, leakage and clock power depend on the configuration
alone, so a suite evaluation computes them once for all its programs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.designspace.configuration import Configuration
from repro.designspace.space import DesignSpace
from repro.workloads.profile import WorkloadProfile

from . import energy as energy_model
from .branch import branch_penalties
from .caches import hierarchy_miss_ratios
from .machine import FixedParameters, functional_units
from .metrics import Metric, derive_metrics

#: Instructions per I-cache line fetch (32-byte lines, 4-byte insns).
_INSTRUCTIONS_PER_FETCH = 8.0
#: Exponent of the smooth minimum combining window ILP and structural
#: width limits (higher = closer to a hard min).
_SOFT_MIN_POWER = 4.0


@dataclass(frozen=True)
class SimulationResult:
    """Metrics for one (program, configuration) pair, with breakdown."""

    cycles: float
    energy: float
    ed: float
    edd: float
    breakdown: Dict[str, float] = field(default_factory=dict)

    def metric(self, metric: Metric) -> float:
        """Look up one of the four target metrics."""
        return {
            Metric.CYCLES: self.cycles,
            Metric.ENERGY: self.energy,
            Metric.ED: self.ed,
            Metric.EDD: self.edd,
        }[metric]


@dataclass(frozen=True)
class BatchResult:
    """Metric arrays for one program across a batch of configurations."""

    cycles: np.ndarray
    energy: np.ndarray
    ed: np.ndarray
    edd: np.ndarray

    def metric(self, metric: Metric) -> np.ndarray:
        """Look up one of the four target metric arrays."""
        return {
            Metric.CYCLES: self.cycles,
            Metric.ENERGY: self.energy,
            Metric.ED: self.ed,
            Metric.EDD: self.edd,
        }[metric]

    def __len__(self) -> int:
        return len(self.cycles)


@dataclass(frozen=True)
class _ConfigEnergy:
    """Program-independent energy terms of one configuration batch.

    Per-access energies (pairs that are always summed are stored as
    their sum) and the per-cycle static power.  Built once per
    configuration columns and shared by every program simulated over
    them; each field is combined with program activity exactly as the
    unshared expression was, so results stay bit-identical.
    """

    icache: np.ndarray
    predictor: np.ndarray  # 2 x gshare read + BTB read
    rename: np.ndarray
    rob: np.ndarray  # write + read
    iq: np.ndarray  # write + wakeup
    rf_read: np.ndarray
    rf_write: np.ndarray
    lsq_dcache: np.ndarray  # LSQ write + D-cache access
    lsq_search: np.ndarray
    l2: np.ndarray
    static: np.ndarray  # leakage + clock, per cycle


@dataclass(frozen=True)
class _ProfileInvariants:
    """Config-independent quantities of one profile, cached across
    batches so repeated campaign chunks do not recompute them."""

    instructions: float
    alu_energy: float


class IntervalSimulator:
    """Vectorised first-order simulator over a design space."""

    def __init__(
        self,
        space: Optional[DesignSpace] = None,
        fixed: Optional[FixedParameters] = None,
    ) -> None:
        self.space = space if space is not None else DesignSpace()
        self.fixed = fixed if fixed is not None else FixedParameters()
        # Space-invariant tables for the vectorised column build: the
        # value grids (as float arrays for np.isin), the feature
        # encoding divisors, and the unit-cube scaling bounds.
        parameters = self.space.parameters
        self._param_names = tuple(p.name for p in parameters)
        self._grids = tuple(
            np.asarray(p.values, dtype=float) for p in parameters
        )
        self._divisors = np.array(
            [p.encoding_divisor for p in parameters], dtype=float
        )
        lo, hi = self.space.feature_bounds()
        self._unit_lo = lo
        self._unit_span = hi - lo
        # Per-profile invariants, keyed by object identity (the profile
        # is kept referenced so the id stays valid).
        self._profiles: Dict[int, tuple] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def simulate(
        self, profile: WorkloadProfile, config: Configuration
    ) -> SimulationResult:
        """Simulate one configuration, returning a diagnostic breakdown."""
        columns = self._columns([config])
        cycles, energy, breakdown = self._evaluate(
            profile, columns, self._config_energy(columns)
        )
        metrics = derive_metrics(cycles[0], energy[0])
        return SimulationResult(
            cycles=float(metrics[Metric.CYCLES]),
            energy=float(metrics[Metric.ENERGY]),
            ed=float(metrics[Metric.ED]),
            edd=float(metrics[Metric.EDD]),
            breakdown={name: float(values[0]) for name, values in breakdown.items()},
        )

    def simulate_batch(
        self, profile: WorkloadProfile, configs: Sequence[Configuration]
    ) -> BatchResult:
        """Simulate a batch of configurations in one vectorised pass."""
        if not configs:
            empty = np.empty(0)
            return BatchResult(empty, empty.copy(), empty.copy(), empty.copy())
        columns = self._columns(configs)
        return self._batch_from_columns(
            profile, columns, self._config_energy(columns)
        )

    def simulate_suite(
        self,
        profiles: Sequence[WorkloadProfile],
        configs: Sequence[Configuration],
    ) -> List[BatchResult]:
        """Program-major 2-D evaluation: every profile over one batch.

        The configuration columns (validation, raw values, unit-cube
        coordinates) and the program-independent energy terms are
        built once and shared by all profiles, so a whole suite costs
        one column build plus one model pass per program.  Results are
        bit-identical to calling :meth:`simulate_batch` per profile.
        """
        profiles = list(profiles)
        if not configs:
            return [
                BatchResult(
                    np.empty(0), np.empty(0), np.empty(0), np.empty(0)
                )
                for _ in profiles
            ]
        columns = self._columns(configs)
        config_energy = self._config_energy(columns)
        return [
            self._batch_from_columns(profile, columns, config_energy)
            for profile in profiles
        ]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _batch_from_columns(
        self,
        profile: WorkloadProfile,
        columns: Dict[str, np.ndarray],
        config_energy: _ConfigEnergy,
    ) -> BatchResult:
        cycles, energy, _ = self._evaluate(profile, columns, config_energy)
        metrics = derive_metrics(cycles, energy)
        return BatchResult(
            cycles=metrics[Metric.CYCLES],
            energy=metrics[Metric.ENERGY],
            ed=metrics[Metric.ED],
            edd=metrics[Metric.EDD],
        )

    def _columns(
        self, configs: Sequence[Configuration]
    ) -> Dict[str, np.ndarray]:
        """Raw parameter columns plus unit-cube coordinates.

        One vectorised pass: the raw value matrix is built from each
        configuration's canonical tuple, grid membership and the
        legality constraints are checked with array operations (the
        error names the offending configuration index), and the feature
        encoding divides by the per-parameter divisors — exactly
        :meth:`Parameter.encode` without the per-config Python loops.
        """
        raw = np.array([c.values() for c in configs], dtype=float)
        raw = raw.reshape(len(configs), len(self._param_names))
        # Batched grid validation, reported in canonical scan order
        # (lowest config index first, then parameter order).
        bad_config = None
        for j, grid in enumerate(self._grids):
            on_grid = np.isin(raw[:, j], grid)
            if not on_grid.all():
                index = int(np.argmin(on_grid))
                if bad_config is None or index < bad_config[0]:
                    bad_config = (index, j)
        if bad_config is not None:
            index, j = bad_config
            parameter = self.space.parameters[j]
            value = getattr(configs[index], parameter.name)
            raise ValueError(
                f"config[{index}]: {parameter.name}={value} is off the "
                f"grid {parameter.values}"
            )
        columns = {
            name: raw[:, j] for j, name in enumerate(self._param_names)
        }
        legal = (
            (columns["rob_size"] >= columns["iq_size"])
            & (columns["rob_size"] >= columns["lsq_size"])
            & (columns["rf_read_ports"] <= 2.0 * columns["width"])
            & (columns["rf_write_ports"] <= columns["width"])
            & (
                columns["l2cache_kb"]
                >= 8.0 * np.maximum(columns["icache_kb"], columns["dcache_kb"])
            )
        )
        if not legal.all():
            index = int(np.argmin(legal))
            raise ValueError(
                f"config[{index}] violates legality constraints: "
                f"{configs[index]}"
            )
        columns["_unit"] = (raw / self._divisors - self._unit_lo) / self._unit_span
        return columns

    def _invariants(self, profile: WorkloadProfile) -> _ProfileInvariants:
        """Cached config-independent per-profile quantities."""
        cached = self._profiles.get(id(profile))
        if cached is not None and cached[0] is profile:
            return cached[1]
        mix = profile.mix
        e = energy_model
        invariants = _ProfileInvariants(
            instructions=float(profile.instructions),
            alu_energy=(
                mix.int_alu * e.ALU_ENERGY["int_alu"]
                + mix.int_mul * e.ALU_ENERGY["int_mul"]
                + mix.fp_alu * e.ALU_ENERGY["fp_alu"]
                + mix.fp_mul * e.ALU_ENERGY["fp_mul"]
            ),
        )
        if len(self._profiles) > 128:  # bound the cache
            self._profiles.clear()
        self._profiles[id(profile)] = (profile, invariants)
        return invariants

    def _effective_window(
        self, profile: WorkloadProfile, columns: Dict[str, np.ndarray]
    ) -> np.ndarray:
        """Binding out-of-order window (instructions)."""
        mix = profile.mix
        rename = np.maximum(
            1.0,
            (columns["rf_size"] - self.fixed.architected_registers)
            / profile.dest_fraction,
        )
        branch_limit = columns["max_branches"] / max(mix.branch, 1e-6)
        iq_limit = columns["iq_size"] / profile.iq_pressure
        lsq_limit = columns["lsq_size"] / max(mix.memory, 1e-6)
        window = np.minimum(columns["rob_size"], rename)
        window = np.minimum(window, branch_limit)
        window = np.minimum(window, iq_limit)
        window = np.minimum(window, lsq_limit)
        return np.maximum(window, 1.0)

    def _structural_ipc(
        self, profile: WorkloadProfile, columns: Dict[str, np.ndarray]
    ) -> np.ndarray:
        """Width / ports / functional-unit issue-rate ceiling."""
        mix = profile.mix
        width = columns["width"]
        port_limit = np.minimum(
            columns["rf_read_ports"] / profile.reads_per_instruction,
            columns["rf_write_ports"] / profile.dest_fraction,
        )
        # Width-scaled functional units (Table 2b), vectorised.
        int_alu = width
        int_mul = np.maximum(1.0, np.ceil(width / 2.0))
        fp_alu = np.maximum(1.0, np.ceil(width / 2.0))
        fp_mul = np.maximum(1.0, np.ceil(width / 4.0))
        dports = np.maximum(1.0, np.ceil(width / 2.0))
        fu_limit = np.full_like(width, np.inf)
        for count, fraction in (
            (int_alu, mix.int_alu),
            (int_mul, mix.int_mul),
            (fp_alu, mix.fp_alu),
            (fp_mul, mix.fp_mul),
            (dports, mix.memory),
        ):
            if fraction > 1e-9:
                fu_limit = np.minimum(fu_limit, count / fraction)
        return np.minimum(width, np.minimum(port_limit, fu_limit))

    def _evaluate(
        self,
        profile: WorkloadProfile,
        columns: Dict[str, np.ndarray],
        config_energy: _ConfigEnergy,
    ):
        """Core vectorised evaluation -> (cycles, energy, breakdown)."""
        fixed = self.fixed
        mix = profile.mix
        instructions = self._invariants(profile).instructions

        window = self._effective_window(profile, columns)
        ipc_window = np.asarray(profile.ilp(window), dtype=float)
        ipc_struct = self._structural_ipc(profile, columns)
        # Smooth minimum: both limits bind gradually, as in real machines.
        p = _SOFT_MIN_POWER
        ipc_base = (ipc_window**-p + ipc_struct**-p) ** (-1.0 / p)
        ipc_base = np.maximum(ipc_base, 1e-3)

        # Branches ---------------------------------------------------------
        branches = branch_penalties(
            profile.branches,
            mix.branch,
            columns["gshare_size"],
            columns["btb_size"],
        )
        resolve = window / (2.0 * ipc_base)
        mispredict_penalty = branches.mispredicts_per_instruction * (
            fixed.frontend_depth + fixed.branch_redirect_penalty + resolve
        )
        btb_penalty = branches.btb_bubbles_per_instruction * (
            fixed.branch_redirect_penalty + 1.0
        )

        # Instruction fetch -------------------------------------------------
        imiss = hierarchy_miss_ratios(
            profile.instruction_locality,
            columns["icache_kb"] * 1024.0,
            columns["l2cache_kb"] * 1024.0,
            fixed.l1_associativity,
            fixed.l2_associativity,
        )
        fetches_per_instruction = 1.0 / _INSTRUCTIONS_PER_FETCH
        icache_penalty = fetches_per_instruction * (
            imiss.l1 * (1.0 - imiss.l2_local) * fixed.l2_latency * 0.7
            + imiss.l2_global * fixed.memory_latency * 0.8
        )

        # Data memory ---------------------------------------------------------
        dmiss = hierarchy_miss_ratios(
            profile.data_locality,
            columns["dcache_kb"] * 1024.0,
            columns["l2cache_kb"] * 1024.0,
            fixed.l1_associativity,
            fixed.l2_associativity,
        )
        hide = np.exp(-window / profile.latency_hiding_scale)
        l2_hit_penalty = (
            mix.load * dmiss.l1 * (1.0 - dmiss.l2_local) * fixed.l2_latency * hide
        )
        misses_in_window = window * mix.load * dmiss.l2_global
        mlp = np.minimum(
            profile.mlp_max,
            np.minimum(1.0 + misses_in_window, float(fixed.mshr_entries)),
        )
        mlp = np.maximum(mlp, 1.0)
        memory_penalty = (
            mix.load * dmiss.l2_global * fixed.memory_latency / mlp
        )
        store_penalty = (
            mix.store * dmiss.l2_global * fixed.memory_latency * 0.15 / mlp
        )

        cpi = (
            1.0 / ipc_base
            + mispredict_penalty
            + btb_penalty
            + icache_penalty
            + l2_hit_penalty
            + memory_penalty
            + store_penalty
        )
        perf_factor = profile.idiosyncrasy_performance.factor(columns["_unit"])
        cycles = cpi * instructions * perf_factor

        # Energy -------------------------------------------------------------
        energy = self._energy(
            profile, config_energy, cycles, ipc_base, resolve, branches,
            imiss, dmiss,
        )
        energy_factor = profile.idiosyncrasy_energy.factor(columns["_unit"])
        energy = energy * energy_factor

        breakdown = {
            "window": window,
            "ipc_base": ipc_base,
            "cpi": cpi,
            "mispredict_penalty": mispredict_penalty,
            "icache_penalty": icache_penalty,
            "l2_hit_penalty": l2_hit_penalty,
            "memory_penalty": memory_penalty,
            "l1d_miss_ratio": dmiss.l1,
            "l2d_local_miss_ratio": dmiss.l2_local,
            "mlp": mlp,
        }
        return cycles, energy, breakdown

    def _config_energy(self, columns: Dict[str, np.ndarray]) -> _ConfigEnergy:
        """Per-access energies and static power of a configuration batch."""
        fixed = self.fixed
        width = columns["width"]
        rf_ports = columns["rf_read_ports"] + columns["rf_write_ports"]

        # Per-access energies, vectorised over the batch.
        e = energy_model
        rob_read = e.array_read_energy(columns["rob_size"], 76, 2 * width)
        rob_write = e.array_write_energy(columns["rob_size"], 76, 2 * width)
        iq_write = e.array_write_energy(columns["iq_size"], 48, width)
        iq_wakeup = e.cam_search_energy(columns["iq_size"], 10)
        lsq_search = e.cam_search_energy(columns["lsq_size"], 40)
        lsq_write = e.array_write_energy(columns["lsq_size"], 72, width)
        rf_read = e.array_read_energy(columns["rf_size"], 64, rf_ports)
        rf_write = e.array_write_energy(columns["rf_size"], 64, rf_ports)
        gshare = e.array_read_energy(columns["gshare_size"], 2)
        btb = e.array_read_energy(columns["btb_size"], 60)
        icache = e.cache_access_energy(
            columns["icache_kb"] * 1024.0,
            fixed.l1_line_bytes,
            fixed.l1_associativity,
        )
        dcache = e.cache_access_energy(
            columns["dcache_kb"] * 1024.0,
            fixed.l1_line_bytes,
            fixed.l1_associativity,
        )
        l2 = e.cache_access_energy(
            columns["l2cache_kb"] * 1024.0,
            fixed.l2_line_bytes,
            fixed.l2_associativity,
        )
        rename = e.array_read_energy(64, 8, 2 * width)

        # Area and static power.
        alu_units = {
            "int_alu": width,
            "int_mul": np.maximum(1.0, np.ceil(width / 2.0)),
            "fp_alu": np.maximum(1.0, np.ceil(width / 2.0)),
            "fp_mul": np.maximum(1.0, np.ceil(width / 4.0)),
        }
        alu_area = 1.6e5 * (
            alu_units["int_alu"]
            + 2.0 * alu_units["int_mul"]
            + 2.5 * alu_units["fp_alu"]
            + 4.0 * alu_units["fp_mul"]
        )
        area = (
            e.array_area(columns["rob_size"], 76, 2 * width)
            + e.array_area(columns["iq_size"], 48, width)
            + e.array_area(columns["lsq_size"], 72, width)
            + 2.0 * e.array_area(columns["rf_size"], 64, rf_ports)
            + e.array_area(columns["gshare_size"], 2)
            + e.array_area(columns["btb_size"], 60)
            + e.cache_area(columns["icache_kb"] * 1024.0)
            + e.cache_area(columns["dcache_kb"] * 1024.0)
            + e.cache_area(columns["l2cache_kb"] * 1024.0)
            + alu_area
        )
        leakage = area * e.LEAKAGE_PER_AREA
        clock = e.CLOCK_ENERGY_COEFF * np.sqrt(area) * width

        return _ConfigEnergy(
            icache=icache,
            predictor=2.0 * gshare + btb,
            rename=rename,
            rob=rob_write + rob_read,
            iq=iq_write + iq_wakeup,
            rf_read=rf_read,
            rf_write=rf_write,
            lsq_dcache=lsq_write + dcache,
            lsq_search=lsq_search,
            l2=l2,
            static=leakage + clock,
        )

    def _energy(
        self,
        profile: WorkloadProfile,
        config_energy: _ConfigEnergy,
        cycles: np.ndarray,
        ipc_base: np.ndarray,
        resolve: np.ndarray,
        branches,
        imiss,
        dmiss,
    ) -> np.ndarray:
        """Wattch-style energy: activity x per-access energy + overheads."""
        mix = profile.mix
        invariants = self._invariants(profile)
        instructions = invariants.instructions
        c = config_energy

        # Wrong-path inflation: speculatively fetched/renamed work that a
        # misprediction discards.
        wasted = np.clip(
            branches.mispredicts_per_instruction * ipc_base * resolve * 0.5,
            0.0,
            1.5,
        )
        spec = 1.0 + wasted

        alu = invariants.alu_energy
        per_instruction = (
            (1.0 / _INSTRUCTIONS_PER_FETCH) * c.icache * spec
            + mix.branch * c.predictor * spec
            + c.rename * spec
            + c.rob * spec
            + c.iq * spec
            + profile.reads_per_instruction * c.rf_read * spec
            + profile.dest_fraction * c.rf_write * spec
            + mix.memory * c.lsq_dcache * spec
            + mix.load * c.lsq_search * spec
            + alu * spec
            + (imiss.l1 / _INSTRUCTIONS_PER_FETCH + mix.memory * dmiss.l1) * c.l2
        )
        return instructions * per_instruction + cycles * c.static


def simulate(
    profile: WorkloadProfile,
    config: Configuration,
    space: Optional[DesignSpace] = None,
) -> SimulationResult:
    """Convenience wrapper: simulate one (program, configuration) pair."""
    return IntervalSimulator(space).simulate(profile, config)

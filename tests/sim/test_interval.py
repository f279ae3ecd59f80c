"""Behavioural tests for the interval simulator.

These encode the paper's Section 3.4 observations as invariants: the
register file is the critical bottleneck, wide machines burn energy,
memory-bound programs live and die by the L2, and so on.
"""

import numpy as np
import pytest

from repro.sim import IntervalSimulator, Metric
from repro.workloads import spec2000_profile


@pytest.fixture(scope="module")
def sim():
    return IntervalSimulator()


@pytest.fixture(scope="module")
def baseline(sim):
    return sim.space.baseline


class TestBasics:
    def test_result_metrics_consistent(self, sim, baseline):
        result = sim.simulate(spec2000_profile("gzip"), baseline)
        assert result.ed == pytest.approx(result.cycles * result.energy)
        assert result.edd == pytest.approx(result.ed * result.cycles)

    def test_metric_lookup(self, sim, baseline):
        result = sim.simulate(spec2000_profile("gzip"), baseline)
        assert result.metric(Metric.CYCLES) == result.cycles
        assert result.metric(Metric.EDD) == result.edd

    def test_batch_matches_scalar(self, sim, baseline, configs):
        profile = spec2000_profile("applu")
        subset = list(configs[:20])
        batch = sim.simulate_batch(profile, subset)
        for i, config in enumerate(subset):
            single = sim.simulate(profile, config)
            assert batch.cycles[i] == pytest.approx(single.cycles)
            assert batch.energy[i] == pytest.approx(single.energy)

    def test_empty_batch(self, sim):
        batch = sim.simulate_batch(spec2000_profile("gzip"), [])
        assert len(batch) == 0

    def test_illegal_configuration_rejected(self, sim, baseline):
        config = baseline.replace(rob_size=32, iq_size=80)
        with pytest.raises(ValueError):
            sim.simulate(spec2000_profile("gzip"), config)

    def test_deterministic(self, sim, baseline):
        profile = spec2000_profile("gzip")
        a = sim.simulate(profile, baseline)
        b = sim.simulate(profile, baseline)
        assert a.cycles == b.cycles and a.energy == b.energy

    def test_breakdown_fields(self, sim, baseline):
        result = sim.simulate(spec2000_profile("gzip"), baseline)
        assert {"window", "ipc_base", "cpi", "mlp"} <= set(result.breakdown)
        assert result.breakdown["ipc_base"] <= baseline.width

    def test_cycles_scale_with_instructions(self, sim, baseline):
        short = spec2000_profile("gzip")
        long = short.with_overrides(instructions=short.instructions * 2)
        assert sim.simulate(long, baseline).cycles == pytest.approx(
            2 * sim.simulate(short, baseline).cycles
        )


class TestRegisterFileBottleneck:
    """Section 3.4: a small RF dominates the worst-cycles tail."""

    def test_tiny_rf_is_a_cliff(self, sim, baseline):
        profile = spec2000_profile("gzip")
        tiny = sim.simulate(profile, baseline.replace(rf_size=40)).cycles
        base = sim.simulate(profile, baseline).cycles
        assert tiny > 1.5 * base

    def test_big_rf_beyond_rob_does_not_help(self, sim, baseline):
        """Large RF is not sufficient for high performance (Fig 2c)."""
        profile = spec2000_profile("gzip")
        big = sim.simulate(profile, baseline.replace(rf_size=160)).cycles
        base = sim.simulate(profile, baseline).cycles
        assert big == pytest.approx(base, rel=0.12)

    def test_rf_cliff_shrinks_the_window(self, sim, baseline):
        profile = spec2000_profile("gzip")
        result = sim.simulate(profile, baseline.replace(rf_size=40))
        assert result.breakdown["window"] < 20


class TestMemoryHierarchy:
    def test_l2_matters_for_memory_bound_art(self, sim, baseline):
        art = spec2000_profile("art")
        small = sim.simulate(art, baseline.replace(l2cache_kb=256)).cycles
        large = sim.simulate(art, baseline.replace(l2cache_kb=4096)).cycles
        assert small > 1.25 * large

    def test_l2_barely_matters_for_cache_friendly_gzip(self, sim, baseline):
        gzip = spec2000_profile("gzip")
        small = sim.simulate(gzip, baseline.replace(l2cache_kb=1024)).cycles
        large = sim.simulate(gzip, baseline.replace(l2cache_kb=4096)).cycles
        assert small < 1.15 * large

    def test_mcf_is_slowest(self, sim, baseline):
        mcf = sim.simulate(spec2000_profile("mcf"), baseline).cycles
        gzip = sim.simulate(spec2000_profile("gzip"), baseline).cycles
        assert mcf > 3 * gzip

    def test_bigger_dcache_reduces_cycles(self, sim, baseline):
        profile = spec2000_profile("equake")
        small = sim.simulate(profile, baseline.replace(dcache_kb=8)).cycles
        large = sim.simulate(profile, baseline.replace(dcache_kb=128)).cycles
        assert large < small


class TestFrontEnd:
    def test_bigger_gshare_reduces_cycles_for_branchy_code(self, sim, baseline):
        profile = spec2000_profile("gcc")
        small = sim.simulate(profile, baseline.replace(gshare_size=1024)).cycles
        large = sim.simulate(profile, baseline.replace(gshare_size=32768)).cycles
        assert large < small

    def test_width_helps_high_ilp_fp_code(self, sim, baseline):
        profile = spec2000_profile("galgel")
        narrow = sim.simulate(
            profile, baseline.replace(width=2, rf_read_ports=4,
                                      rf_write_ports=2)
        ).cycles
        wide = sim.simulate(
            profile, baseline.replace(width=8)
        ).cycles
        assert wide < narrow

    def test_few_read_ports_throttle_issue(self, sim, baseline):
        profile = spec2000_profile("galgel")
        starved = sim.simulate(profile, baseline.replace(rf_read_ports=2)).cycles
        fed = sim.simulate(profile, baseline.replace(rf_read_ports=8)).cycles
        assert starved > fed


class TestEnergyBehaviour:
    """Section 3.4's energy structure."""

    def test_wide_machine_burns_more_energy(self, sim, baseline):
        profile = spec2000_profile("gzip")
        narrow = sim.simulate(
            profile,
            baseline.replace(width=2, rf_read_ports=4, rf_write_ports=2),
        ).energy
        wide = sim.simulate(profile, baseline.replace(width=8)).energy
        assert wide > narrow

    def test_big_l2_leaks(self, sim, baseline):
        profile = spec2000_profile("gzip")
        small = sim.simulate(profile, baseline.replace(l2cache_kb=1024)).energy
        large = sim.simulate(profile, baseline.replace(l2cache_kb=4096)).energy
        assert large > small

    def test_tiny_rf_wastes_energy_through_leakage(self, sim, baseline):
        """Slow configurations pay static energy for longer (Fig 3i)."""
        profile = spec2000_profile("gzip")
        tiny = sim.simulate(profile, baseline.replace(rf_size=40)).energy
        base = sim.simulate(profile, baseline).energy
        assert tiny > base

    def test_fewer_read_ports_save_energy(self, sim, baseline):
        profile = spec2000_profile("gzip")
        few = sim.simulate(profile, baseline.replace(rf_read_ports=4)).energy
        many = sim.simulate(profile, baseline.replace(rf_read_ports=16,
                                                      width=8)).energy
        assert few < many


class TestProgramDifferences:
    def test_programs_have_distinct_spaces(self, sim, configs):
        a = sim.simulate_batch(spec2000_profile("gzip"), list(configs[:50]))
        b = sim.simulate_batch(spec2000_profile("applu"), list(configs[:50]))
        assert not np.allclose(a.cycles, b.cycles)

    def test_idiosyncrasy_changes_the_space_shape(self, sim, configs):
        """Two profiles differing only in idiosyncrasy seed disagree."""
        base = spec2000_profile("gzip")
        twisted = base.with_overrides(
            idiosyncrasy_performance=base.idiosyncrasy_performance.__class__(
                amplitude=base.idiosyncrasy_performance.amplitude,
                seed=base.idiosyncrasy_performance.seed + 1,
            )
        )
        a = sim.simulate_batch(base, list(configs[:50])).cycles
        b = sim.simulate_batch(twisted, list(configs[:50])).cycles
        assert not np.allclose(a, b)
        # But only by the idiosyncrasy amplitude.
        assert np.max(np.abs(a - b) / a) < 3 * base.idiosyncrasy_performance.amplitude


class TestSuiteSharesConfigEnergy:
    def test_consecutive_suites_match_fresh_batches(
        self, spec_suite, mibench, configs
    ):
        """The program-independent energy terms are built per call: two
        suites over *different* configurations on one simulator each
        equal fresh per-profile batches bit for bit, so nothing from
        the first call can leak into the second."""
        shared = IntervalSimulator()
        for profiles, sample in (
            (list(spec_suite.profiles), list(configs[:90])),
            (list(mibench.profiles), list(configs[300:341])),
            (list(spec_suite.profiles)[:5], list(configs[500:503])),
        ):
            suite_results = shared.simulate_suite(profiles, sample)
            for profile, result in zip(profiles, suite_results):
                fresh = IntervalSimulator().simulate_batch(profile, sample)
                for metric in Metric.all():
                    assert (
                        result.metric(metric).tobytes()
                        == fresh.metric(metric).tobytes()
                    ), (profile.name, metric)

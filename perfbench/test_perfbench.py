"""Tests of the benchmark itself: determinism and the traced invariant.

Run from the root of a checkout::

    python3 -m pytest perfbench -q

Workload sizes are shrunk through the modules' constants so the whole
file takes about a minute; the measured code paths are the real ones.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import campaign  # noqa: E402
import explore  # noqa: E402
import run  # noqa: E402
import serving  # noqa: E402
from common import ROOT, import_program, same_bits  # noqa: E402
from httpload import poisson_schedule  # noqa: E402

import_program()


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload to a few seconds of work."""
    monkeypatch.setattr(campaign, "CONFIGS", 256)
    monkeypatch.setattr(campaign, "SETUP_REPEATS", 1)
    monkeypatch.setattr(serving, "SETUP_REPEATS", 1)
    monkeypatch.setattr(explore, "TRAINING_SIZE", 48)
    monkeypatch.setattr(explore, "SETUP_REPEATS", 1)
    monkeypatch.setattr(explore, "RESPONSE_SEEDS", 2)
    monkeypatch.setattr(explore, "CANDIDATES", 512)
    monkeypatch.setattr(explore, "SEARCH_BUDGET", 64)
    monkeypatch.setattr(explore, "RMAE_LIMIT_PCT", 100.0)


def test_schedule_is_a_function_of_the_seed():
    first = poisson_schedule(3, 1, 250.0, 2.0)
    assert np.array_equal(first, poisson_schedule(3, 1, 250.0, 2.0))
    assert not np.array_equal(first[:50], poisson_schedule(4, 1, 250.0, 2.0)[:50])
    assert len(first) > 300 and first.max() < 2.0


def test_config_pools_are_a_function_of_the_seed():
    from repro.designspace.space import DesignSpace

    space = DesignSpace()
    pool = [c.values() for c in serving.config_pool(space, 200, 5, 2)]
    again = [c.values() for c in serving.config_pool(space, 200, 5, 2)]
    other = [c.values() for c in serving.config_pool(space, 200, 6, 2)]
    assert pool == again and pool != other
    assert len(set(pool)) == len(pool)
    first, second = serving.zipf_sampler(5, 1024), serving.zipf_sampler(5, 1024)
    assert first(300) == second(300)
    assert serving.zipf_sampler(5, 1024)(300) != serving.zipf_sampler(6, 1024)(300)


def test_same_bits_sees_one_ulp():
    values = np.array([1.0, 2.5])
    assert same_bits(values, [1.0, 2.5])
    assert not same_bits(values, [1.0, np.nextafter(2.5, 3.0)])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_layers_sum_to_wall_time(small, workload):
    outcome, metrics = run.run(workload, 11, 2.0, trace=True)
    assert outcome.failed == 0 and outcome.attempted > 0
    assert abs(metrics["obs.attributed_frac"]["value"] - 1.0) <= 0.05
    assert metrics["obs.wall_s"]["value"] > 0
    for name in getattr(run._workload(workload), "LAYERS"):
        assert name in metrics


def test_untraced_run_reports_every_end_to_end_metric(small):
    _, metrics = run.run("campaign", 2, 1.0, trace=False)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in declared["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())


def test_rmae_is_a_function_of_the_seed(small):
    first = run.run("explore", 4, 1.0, trace=True)[1]["core.rmae_pct"]
    again = run.run("explore", 4, 1.0, trace=True)[1]["core.rmae_pct"]
    assert first["value"] == again["value"]


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout

"""Tests for the shared ``n_jobs`` resolver (one dialect everywhere)."""

import os

import pytest

from repro.parallel import JOBS_ENV, available_cpus, resolve_jobs


class TestResolveJobs:
    def test_none_defaults_to_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs(None) == 1

    def test_explicit_count_taken_literally(self):
        assert resolve_jobs(3) == 3

    def test_minus_one_means_all_cpus(self):
        assert resolve_jobs(-1) >= 1

    def test_zero_and_negatives_rejected(self):
        for bad in (0, -2, -17):
            with pytest.raises(ValueError):
                resolve_jobs(bad)

    def test_env_supplies_the_default(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "5")
        assert resolve_jobs(None) == 5

    def test_env_minus_one_means_all_cpus(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "-1")
        assert resolve_jobs(None) >= 1

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "7")
        assert resolve_jobs(2) == 2

    def test_blank_env_ignored(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "  ")
        assert resolve_jobs(None) == 1

    def test_garbage_env_rejected(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "many")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            resolve_jobs(None)

    def test_zero_env_rejected(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "0")
        with pytest.raises(ValueError):
            resolve_jobs(None)

    def test_caller_default_used_without_env(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs(None, default=4) == 4

    def test_env_beats_caller_default(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "2")
        assert resolve_jobs(None, default=4) == 2


class TestAffinity:
    def test_minus_one_follows_the_affinity_set(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 3}, raising=False
        )
        assert available_cpus() == 2
        assert resolve_jobs(-1) == 2

    def test_env_minus_one_follows_the_affinity_set(self, monkeypatch):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {5}, raising=False
        )
        monkeypatch.setenv(JOBS_ENV, "-1")
        assert resolve_jobs(None) == 1

    def test_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert resolve_jobs(-1) == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert resolve_jobs(-1) == 1

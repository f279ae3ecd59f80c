"""Run slices: the planner shared by the serial loop and the pool.

A slice is one suite call and one journal group commit, so the planner
decides how much work a crash can cost and how many backend calls a
campaign makes.  These tests pin the planner's shape, drive a crash
between a slice's cell files and its journal flush, and check that
serial, ``--jobs 2`` and the per-cell path agree cell for cell over
random partial checkpoints.
"""

import json
import shutil
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.runtime import CampaignJournal, CampaignRunner
from repro.runtime import campaign as campaign_module
from repro.runtime.campaign import CampaignCell, SLICE_CONFIGS, plan_slices
from repro.sim import Metric

from .test_campaign import BatchOnlyBackend, _journal_cells


def _cells(programs, count, chunk_size, keep=None):
    """Campaign-order cells of a campaign, optionally filtered."""
    from repro.workloads import spec2000_suite

    suite = spec2000_suite()
    cells = []
    for name in programs:
        for index, start in enumerate(range(0, count, chunk_size)):
            cell = CampaignCell(
                cell=f"{name}:{index}",
                profile=suite[name],
                chunk_index=index,
                start=start,
                stop=min(start + chunk_size, count),
            )
            if keep is None or cell.cell in keep:
                cells.append(cell)
    return cells


def _records(root):
    """The journal as a sorted list of records (order-insensitive)."""
    journal = CampaignJournal(Path(root) / "journal.jsonl")
    return sorted(
        json.dumps(record, sort_keys=True) for record in journal.records()
    )


class TestPlanner:
    def test_full_campaign_slices_are_about_512_configs(self):
        cells = _cells(("gzip", "applu"), 2048, 128)
        slices = plan_slices(cells, 128)
        assert len(slices) == 4
        assert [(s.start, s.stop) for s in slices] == [
            (0, 512), (512, 1024), (1024, 1536), (1536, 2048),
        ]
        assert all(len(s.cells) == 2 * 4 for s in slices)

    def test_slice_never_smaller_than_one_chunk(self):
        cells = _cells(("gzip",), 3000, 1000)
        assert [(s.start, s.stop) for s in plan_slices(cells, 1000)] == [
            (0, 1000), (1000, 2000), (2000, 3000),
        ]

    def test_program_set_change_and_gap_split_slices(self):
        keep = {"gzip:0", "applu:0", "gzip:1", "gzip:3"}
        cells = _cells(("gzip", "applu"), 64, 16, keep)
        slices = plan_slices(cells, 16)
        assert [[c.cell for c in s.cells] for s in slices] == [
            ["gzip:0", "applu:0"], ["gzip:1"], ["gzip:3"],
        ]
        assert [s.profiles[0].name for s in slices] == ["gzip"] * 3

    @settings(max_examples=200, deadline=None)
    @given(
        count=st.integers(1, 90),
        chunk_size=st.integers(1, 40),
        kept=st.data(),
    )
    def test_slices_partition_the_cells_into_rectangles(
        self, count, chunk_size, kept
    ):
        programs = ("gzip", "applu", "art")
        every = _cells(programs, count, chunk_size)
        keep = set(kept.draw(st.sets(st.sampled_from(
            [cell.cell for cell in every]
        ))))
        cells = [cell for cell in every if cell.cell in keep]
        per_slice = max(1, round(SLICE_CONFIGS / chunk_size))
        slices = plan_slices(cells, chunk_size)
        planned = [cell for work in slices for cell in work.cells]
        assert sorted(c.cell for c in planned) == sorted(keep)
        for work in slices:
            chunks = sorted({cell.chunk_index for cell in work.cells})
            assert chunks == list(range(chunks[0], chunks[-1] + 1))
            assert len(chunks) <= per_slice
            names = [profile.name for profile in work.profiles]
            assert [c.profile.name for c in work.cells] == names * len(
                chunks
            )
            assert work.start == work.cells[0].start
            assert work.stop == work.cells[-1].stop
        # Maximal: neighbours merge unless full, gapped or mismatched.
        for left, right in zip(slices, slices[1:]):
            left_chunks = {c.chunk_index for c in left.cells}
            assert (
                len(left_chunks) == per_slice
                or left.cells[-1].chunk_index + 1
                != right.cells[0].chunk_index
                or left.profiles != right.profiles
            )


class TestGroupCommitCrash:
    def test_crash_between_cell_files_and_flush(
        self, backend, tiny_suite, tiny_configs, tmp_path, monkeypatch
    ):
        """The second slice's cell files are renamed into place, then the
        group flush dies before writing their records: resume must
        re-simulate exactly those orphans and converge on the same
        matrices and journal as an uninterrupted run."""
        monkeypatch.setattr(campaign_module, "SLICE_CONFIGS", 16)
        straight = CampaignRunner(backend, tmp_path / "straight",
                                  chunk_size=8)
        clean = straight.run(tiny_suite, tiny_configs)

        target = tmp_path / "crash"
        runner = CampaignRunner(backend, target, chunk_size=8)
        flushes = []
        write = runner.journal._write

        def dying_write(lines):
            flushes.append(len(lines))
            if len(flushes) == 2:
                raise OSError("power cut during the journal flush")
            write(lines)

        monkeypatch.setattr(runner.journal, "_write", dying_write)
        with pytest.raises(OSError, match="power cut"):
            runner.run(tiny_suite, tiny_configs)
        # 8 chunks of 8 (the last holds 4), 2 chunks a slice, 3 programs
        assert flushes == [6, 6]
        journalled = _journal_cells(target)
        assert len(journalled) == 6
        on_disk = {path.name for path in (target / "chunks").glob("*.npz")}
        assert len(on_disk) == 12  # six orphans without a record

        resumed = CampaignRunner(backend, target, chunk_size=8).run(
            tiny_suite, tiny_configs, resume=True
        )
        assert resumed.complete
        assert resumed.resumed_cells == 6
        assert resumed.simulated_cells == clean.total_cells - 6
        for metric in Metric.all():
            assert np.array_equal(
                resumed.matrix(metric), clean.matrix(metric)
            )
        assert _records(target) == _records(tmp_path / "straight")

    def test_interrupt_mid_slice_keeps_stored_cells(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        """An exception inside a slice still commits the records of
        the cells stored before it."""

        class Interrupting(BatchOnlyBackend):
            calls = 0

            def simulate_batch(self, profile, configs):
                Interrupting.calls += 1
                if Interrupting.calls == 4:
                    raise KeyboardInterrupt
                return super().simulate_batch(profile, configs)

        target = tmp_path / "ctrl-c"
        with pytest.raises(KeyboardInterrupt):
            CampaignRunner(
                Interrupting(backend), target, chunk_size=16
            ).run(tiny_suite, tiny_configs)
        assert len(_journal_cells(target)) == 3


def _run_mode(backend, source, root, chunk_size, configs, suite,
              max_cells, n_jobs):
    shutil.copytree(source, root)
    result = CampaignRunner(
        backend, root, chunk_size=chunk_size, n_jobs=n_jobs
    ).run(suite, configs, max_cells=max_cells)
    matrices = {metric: result.matrix(metric) for metric in Metric.all()}
    return result, matrices, _records(root)


class TestExecutorsAgree:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        count=st.integers(20, 60),
        chunk_size=st.integers(3, 17),
        slice_configs=st.sampled_from((1, 16, 40, SLICE_CONFIGS)),
        data=st.data(),
    )
    def test_serial_jobs_and_per_cell_paths_agree(
        self, backend, tiny_suite, tiny_configs, count, chunk_size,
        slice_configs, data,
    ):
        configs = tiny_configs[:count]
        with tempfile.TemporaryDirectory() as scratch, mock.patch.object(
            campaign_module, "SLICE_CONFIGS", slice_configs
        ):
            scratch = Path(scratch)
            # A finished checkpoint, thinned to a random completed set.
            source = scratch / "source"
            full = CampaignRunner(
                backend, source, chunk_size=chunk_size
            ).run(tiny_suite, configs)
            ids = sorted(_journal_cells(source))
            done = data.draw(st.sets(st.sampled_from(ids)), label="done")
            journal = CampaignJournal(source / "journal.jsonl")
            kept = [r for r in journal.records() if r["cell"] in done]
            journal.path.unlink()
            with journal.group():
                for record in kept:
                    journal.append(record)
            for record in journal.records():
                assert record["cell"] in done
            todo = len(ids) - len(done)
            max_cells = data.draw(
                st.none() | st.integers(0, todo), label="max_cells"
            )

            simulated = todo if max_cells is None else min(todo, max_cells)
            remaining = [
                cell
                for cell in _cells(tiny_suite.programs, count, chunk_size)
                if cell.cell not in done
            ][:simulated]
            slices = plan_slices(remaining, chunk_size)
            runs = {
                label: _run_mode(
                    mode_backend, source, scratch / label, chunk_size,
                    configs, tiny_suite, max_cells, n_jobs,
                )
                for label, mode_backend, n_jobs in (
                    ("serial", backend, 1),
                    ("jobs2", backend, 2),
                    ("per-cell", BatchOnlyBackend(backend), 1),
                )
            }

        serial, serial_matrices, serial_records = runs["serial"]
        for label, (result, matrices, records) in runs.items():
            assert result.simulated_cells == simulated, label
            assert result.resumed_cells == len(done), label
            assert len(result.pending_cells) == todo - simulated, label
            assert records == serial_records, label
            for metric, matrix in matrices.items():
                assert np.array_equal(
                    matrix, serial_matrices[metric], equal_nan=True
                ), label
                finished = ~np.isnan(matrix)
                assert np.array_equal(
                    matrix[finished], full.matrix(metric)[finished]
                ), label
        # One suite call per planned slice, serial or pooled; one batch
        # call per cell on the per-cell path.
        assert runs["jobs2"][0].attempts == serial.attempts == len(slices)
        assert runs["per-cell"][0].attempts == simulated

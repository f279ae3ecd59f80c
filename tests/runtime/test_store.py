"""The per-cell store path: one in-memory ``.npz``, one atomic write.

``CampaignRunner.store_cell`` serialises a cell in memory, writes it
with one create/write/fsync/rename and journals the SHA-256 of exactly
the bytes written.  These tests pin what that must keep true: every
journal record verifies against its file whichever executor wrote it,
checkpoints written by the older deflated format still resume without
re-simulation, and the ``campaign.stage.seconds`` ledger accounts for
every stored cell and every journal commit without exceeding the run.
"""

import numpy as np
import pytest

import repro.runtime.campaign as campaign_module
from repro.obs import scoped_registry, scoped_tracer
from repro.runtime import CampaignJournal, CampaignRunner, file_checksum
from repro.sim import Metric

STAGES = ("serialise", "write", "fsync", "journal")


def _assert_records_verify(checkpoint_dir):
    records = CampaignJournal(checkpoint_dir / "journal.jsonl").records()
    assert records
    for record in records:
        path = checkpoint_dir / record["file"]
        assert record["checksum"] == file_checksum(path), record["cell"]
    return records


def _journal_map(checkpoint_dir):
    return {
        record["cell"]: record["checksum"]
        for record in CampaignJournal(
            checkpoint_dir / "journal.jsonl"
        ).records()
    }


class TestChecksumOfBytesWritten:
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_every_record_matches_its_file(
        self, backend, tiny_suite, tiny_configs, tmp_path, n_jobs
    ):
        runner = CampaignRunner(
            backend, tmp_path / "run", chunk_size=16, n_jobs=n_jobs
        )
        result = runner.run(tiny_suite, tiny_configs)
        assert result.complete
        records = _assert_records_verify(tmp_path / "run")
        assert len(records) == result.total_cells

    def test_store_outside_a_group(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        """The distributed coordinator's path: no journal group, so
        each record is committed (and fsynced) on its own."""
        serial = CampaignRunner(backend, tmp_path / "serial", chunk_size=16)
        serial.run(tiny_suite, tiny_configs)
        runner = CampaignRunner(backend, tmp_path / "loose", chunk_size=16)
        plan = runner.plan(tiny_suite, tiny_configs)
        with scoped_registry() as registry:
            for cell in plan.cells:
                batch = backend.simulate_batch(
                    cell.profile, tiny_configs[cell.start:cell.stop]
                )
                runner.store_cell(
                    cell.cell, cell.profile.name, cell.chunk_index, batch
                )
        _assert_records_verify(tmp_path / "loose")
        assert _journal_map(tmp_path / "loose") == _journal_map(
            tmp_path / "serial"
        )
        journal = registry.histogram("campaign.stage.seconds", stage="journal")
        assert journal.count == len(plan.cells)
        assert not list((tmp_path / "loose").rglob("*.tmp"))


class TestDeflatedCheckpoints:
    def test_compressed_cells_resume_without_resimulation(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        """Cells written by ``np.savez_compressed`` (the older format)
        verify and load: nothing is simulated again."""
        checkpoint = tmp_path / "old"
        runner = CampaignRunner(backend, checkpoint, chunk_size=16)
        first = runner.run(tiny_suite, tiny_configs)
        journal = CampaignJournal(checkpoint / "journal.jsonl")
        rewritten = []
        for record in journal.records():
            path = checkpoint / record["file"]
            with np.load(path) as archive:
                arrays = {name: archive[name] for name in archive.files}
            path.unlink()
            with open(path, "wb") as handle:
                np.savez_compressed(handle, **arrays)
            rewritten.append({**record, "checksum": file_checksum(path)})
        journal.path.unlink()
        for record in rewritten:
            journal.append(record)

        resumed = CampaignRunner(backend, checkpoint, chunk_size=16).run(
            tiny_suite, tiny_configs, resume=True
        )
        assert resumed.simulated_cells == 0
        assert resumed.resumed_cells == resumed.total_cells
        for metric in Metric.all():
            assert (
                resumed.matrix(metric).tobytes()
                == first.matrix(metric).tobytes()
            )


class TestStageLedger:
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_counts_and_sums(
        self, backend, tiny_suite, tiny_configs, tmp_path, monkeypatch,
        n_jobs,
    ):
        # Two chunks per slice: 4 chunks -> 2 slices, 2 journal commits.
        monkeypatch.setattr(campaign_module, "SLICE_CONFIGS", 32)
        runner = CampaignRunner(
            backend, tmp_path / "ledger", chunk_size=16, n_jobs=n_jobs
        )
        with scoped_registry() as registry, scoped_tracer() as tracer:
            result = runner.run(tiny_suite, tiny_configs)
        assert result.complete
        stages = {
            stage: registry.histogram("campaign.stage.seconds", stage=stage)
            for stage in STAGES
        }
        for stage in ("serialise", "write", "fsync"):
            assert stages[stage].count == result.simulated_cells, stage
        assert stages["journal"].count == 2
        (run_span,) = [s for s in tracer.spans if s["name"] == "campaign.run"]
        total = sum(histogram.sum for histogram in stages.values())
        assert 0.0 < total <= run_span["dur"]

    def test_resumed_cells_record_nothing(
        self, backend, tiny_suite, tiny_configs, tmp_path
    ):
        runner = CampaignRunner(backend, tmp_path / "again", chunk_size=16)
        runner.run(tiny_suite, tiny_configs)
        with scoped_registry() as registry:
            runner.run(tiny_suite, tiny_configs, resume=True)
        for stage in STAGES:
            assert registry.histogram(
                "campaign.stage.seconds", stage=stage
            ).count == 0

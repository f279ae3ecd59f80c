"""Tests for the append-only campaign journal."""

import os

import pytest

from repro.runtime import CampaignJournal


class TestJournal:
    def test_round_trip(self, tmp_path):
        journal = CampaignJournal(tmp_path / "journal.jsonl")
        journal.append({"cell": "gzip:0", "checksum": "abc"})
        journal.append({"cell": "gzip:1", "checksum": "def"})
        records = journal.records()
        assert [r["cell"] for r in records] == ["gzip:0", "gzip:1"]

    def test_missing_file_reads_empty(self, tmp_path):
        assert CampaignJournal(tmp_path / "absent.jsonl").records() == []

    def test_parent_directories_created(self, tmp_path):
        journal = CampaignJournal(tmp_path / "a" / "b" / "journal.jsonl")
        journal.append({"cell": "x:0"})
        assert journal.exists()

    def test_torn_tail_line_ignored(self, tmp_path):
        """A kill mid-append leaves a half-written last line; reading
        must recover every record before it."""
        path = tmp_path / "journal.jsonl"
        journal = CampaignJournal(path)
        journal.append({"cell": "gzip:0"})
        journal.append({"cell": "gzip:1"})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"cell": "gzip:2", "chec')  # torn append
        assert [r["cell"] for r in journal.records()] == ["gzip:0", "gzip:1"]

    def test_corruption_mid_file_rejected(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = CampaignJournal(path)
        journal.append({"cell": "gzip:0"})
        journal.append({"cell": "gzip:1"})
        text = path.read_text().replace('"cell": "gzip:0"', '"cell": gz!!')
        path.write_text(text)
        with pytest.raises(ValueError, match="corrupt journal"):
            journal.records()

    def test_non_object_line_rejected(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ValueError, match="not an object"):
            CampaignJournal(path).records()


class TestGroupCommit:
    def test_group_writes_once_on_exit(self, tmp_path, monkeypatch):
        journal = CampaignJournal(tmp_path / "journal.jsonl")
        fsyncs = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: fsyncs.append(fd) or real_fsync(fd)
        )
        with journal.group():
            journal.append({"cell": "gzip:0"})
            journal.append({"cell": "gzip:1"})
            assert journal.records() == []  # buffered, not yet written
        assert [r["cell"] for r in journal.records()] == ["gzip:0", "gzip:1"]
        assert len(fsyncs) == 1

    def test_group_bytes_match_single_appends(self, tmp_path):
        single = CampaignJournal(tmp_path / "single.jsonl")
        grouped = CampaignJournal(tmp_path / "grouped.jsonl")
        records = [{"cell": f"art:{i}", "checksum": "f" * 8} for i in range(3)]
        for record in records:
            single.append(record)
        with grouped.group():
            for record in records:
                grouped.append(record)
        assert grouped.path.read_bytes() == single.path.read_bytes()

    def test_exception_still_commits_buffered_records(self, tmp_path):
        journal = CampaignJournal(tmp_path / "journal.jsonl")
        with pytest.raises(KeyboardInterrupt):
            with journal.group():
                journal.append({"cell": "gzip:0"})
                raise KeyboardInterrupt
        assert [r["cell"] for r in journal.records()] == ["gzip:0"]

    def test_groups_do_not_nest(self, tmp_path):
        journal = CampaignJournal(tmp_path / "journal.jsonl")
        with journal.group():
            with pytest.raises(RuntimeError, match="nest"):
                with journal.group():
                    pass

"""Append-only on-disk journal of completed campaign cells.

The journal is the campaign's source of truth for what is already done.
Each completed (program, chunk) cell appends exactly one JSON line —
cell id, result file, content checksum.  Every write is one ``open``,
one ``write`` and one ``fsync``: either a single record (:meth:`append`)
or a whole run slice's records group-committed together (:meth:`group`
around the appends).  The campaign runner appends a record only after
its cell file is fsynced and renamed into place, so a durable record
never points at a file that is not durable.  Crash semantics of the
group commit:

* a ``kill -9`` loses nothing already written — the OS keeps every
  completed ``write``; only records still buffered for the slice in
  flight are gone, and their cells are re-simulated on resume;
* a power loss loses at most the slice being flushed.  Its cell files
  may be on disk without records; resume treats them as never
  finished and re-simulates them, never trusting a torn record.

A half-written trailing line (the signature of an interrupted write)
is detected and ignored on read, never treated as data.

Each commit's wall time is recorded as the ``journal`` stage of
``campaign.stage.seconds`` (see :func:`record_stage`).
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Union

from repro.obs import get_registry

#: Bucket bounds (seconds) of ``campaign.stage.seconds``: the stages of
#: storing one cell take tens of microseconds to a few milliseconds,
#: below the default buckets' 1 ms floor.
_STAGE_BUCKETS = (
    1e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 0.01, 0.05, 0.1, 1.0,
)


def record_stage(stage: str, seconds: float) -> None:
    """Observe one campaign store stage (serialise, write, fsync, journal)."""
    get_registry().histogram(
        "campaign.stage.seconds", buckets=_STAGE_BUCKETS, stage=stage
    ).observe(seconds)


class CampaignJournal:
    """One append-only JSONL file recording completed cells.

    Args:
        path: Journal file location (parent directories are created).
    """

    def __init__(self, path: Union[str, pathlib.Path]) -> None:
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._buffer: Optional[List[str]] = None

    def exists(self) -> bool:
        """True when a journal file is already on disk."""
        return self.path.exists()

    def append(self, record: Dict) -> None:
        """Durably append one record (buffered inside :meth:`group`)."""
        if self._buffer is None:
            self._write([self._line(record)])
        else:
            self._buffer.append(self._line(record))

    @contextmanager
    def group(self) -> Iterator[None]:
        """Group-commit every :meth:`append` made inside the block.

        The buffered records are written on exit, clean or not, so the
        cells stored before an exception stay journalled; a crash
        before the exit loses only the buffered records.
        """
        if self._buffer is not None:
            raise RuntimeError("journal groups do not nest")
        self._buffer = []
        try:
            yield
        finally:
            lines, self._buffer = self._buffer, None
            self._write(lines)

    def _write(self, lines: List[str]) -> None:
        if not lines:
            return
        started = time.perf_counter()
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write("".join(lines))
            handle.flush()
            os.fsync(handle.fileno())
        record_stage("journal", time.perf_counter() - started)

    @staticmethod
    def _line(record: Dict) -> str:
        line = json.dumps(record, sort_keys=True)
        if "\n" in line:
            raise ValueError("journal records must serialise to one line")
        return line + "\n"

    def records(self) -> List[Dict]:
        """All intact records, oldest first (torn tail lines skipped)."""
        return list(self._iter_records())

    def _iter_records(self) -> Iterator[Dict]:
        if not self.path.exists():
            return
        with open(self.path, "r", encoding="utf-8") as handle:
            lines = handle.read().split("\n")
        for index, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                # A torn line can only be the interrupted final append;
                # corruption anywhere else means the file was tampered
                # with and the cells after it cannot be trusted either.
                remaining = [l for l in lines[index + 1 :] if l.strip()]
                if remaining:
                    raise ValueError(
                        f"corrupt journal line {index + 1} in {self.path}"
                    )
                return
            if not isinstance(record, dict):
                raise ValueError(
                    f"journal line {index + 1} in {self.path} is not an "
                    "object"
                )
            yield record

"""The one checksummed ``.npz`` artifact writer/reader.

Every durable array artefact in this repository — trained model pools,
fitted predictors, simulated datasets, registry entries — shares the
same failure modes: a truncated download, a bit flip, a hand-edited
matrix, an archive produced by an incompatible code version.  They used
to share the *defences* only by copy-paste (``core/persistence.py`` and
``exploration/persistence.py`` each grew their own version/checksum
plumbing); this module is the single implementation both of them, and
the model registry, now build on.

An archive written by :func:`write_archive` carries two reserved keys:

* ``format_version`` — the caller's schema version, checked on read;
* ``checksum`` — a SHA-256 digest over every other entry's *name*,
  dtype, shape and bytes, recomputed and compared on read.

Writes are atomic (scratch file, fsync, rename), so a crash mid-write
leaves either the previous artifact or none — never a torn archive that
a later load would have to distrust.  The archive is built in memory
and handed to :func:`_write_atomic`, the package's one
create/write/fsync/rename sequence; the campaign runner's per-cell
files go through it too.  Reads wrap every way an archive can be
unreadable (truncation, zip damage, missing keys) into one
:class:`ValueError` with the path in the message.
"""

from __future__ import annotations

import hashlib
import io
import os
import pathlib
import time
import zipfile
import zlib
from typing import Dict, Mapping, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "CHECKSUM_KEY",
    "FORMAT_KEY",
    "payload_checksum",
    "read_archive",
    "write_archive",
]

#: Reserved archive key holding the caller's schema version.
FORMAT_KEY = "format_version"

#: Reserved archive key holding the content digest.
CHECKSUM_KEY = "checksum"

_RESERVED = (FORMAT_KEY, CHECKSUM_KEY)


def payload_checksum(payload: Mapping[str, np.ndarray]) -> str:
    """SHA-256 hex digest over named arrays, in sorted key order.

    The key names are folded into the digest alongside each array's
    dtype, shape and bytes, so renaming an entry — not just corrupting
    one — changes the checksum.
    """
    digest = hashlib.sha256()
    for name in sorted(payload):
        if name in _RESERVED:
            continue
        array = np.asarray(payload[name])
        digest.update(name.encode("utf-8"))
        digest.update(str(array.dtype).encode("utf-8"))
        digest.update(str(array.shape).encode("utf-8"))
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _write_atomic(path: pathlib.Path, data: bytes) -> Tuple[float, float]:
    """Durably replace ``path`` with ``data``.

    One scratch file is created next to ``path``, written, fsynced and
    renamed over it, so a crash at any point leaves the old file or
    the new one, never a torn mix.  The scratch file is removed if any
    step fails.

    Returns:
        ``(write_s, fsync_s)``: seconds spent creating, writing and
        renaming, and seconds spent in ``fsync``.
    """
    scratch = path.with_name(path.name + ".tmp")
    started = time.perf_counter()
    try:
        with open(scratch, "wb") as handle:
            handle.write(data)
            handle.flush()
            synced = time.perf_counter()
            os.fsync(handle.fileno())
            fsync_s = time.perf_counter() - synced
        os.replace(scratch, path)
    except BaseException:
        scratch.unlink(missing_ok=True)
        raise
    return time.perf_counter() - started - fsync_s, fsync_s


def write_archive(
    path: Union[str, pathlib.Path],
    payload: Mapping[str, np.ndarray],
    format_version: int,
) -> pathlib.Path:
    """Write ``payload`` to ``path`` with version and checksum embedded.

    Args:
        path: Destination ``.npz`` path.
        payload: Named arrays (anything ``np.asarray`` accepts).  The
            reserved keys ``format_version`` and ``checksum`` are
            written by this function and must not appear in it.
        format_version: The caller's schema version.

    Returns:
        The destination path.
    """
    path = pathlib.Path(path)
    reserved = sorted(set(payload) & set(_RESERVED))
    if reserved:
        raise ValueError(f"payload uses reserved archive keys: {reserved}")
    complete = {
        FORMAT_KEY: np.array(int(format_version)),
        CHECKSUM_KEY: np.array(payload_checksum(payload)),
        **payload,
    }
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **complete)
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_atomic(path, buffer.getvalue())
    return path


def read_archive(
    path: Union[str, pathlib.Path],
    current_version: int,
    legacy_versions: Sequence[int] = (),
    label: str = "archive",
) -> Tuple[int, Dict[str, np.ndarray]]:
    """Load and verify an archive written by :func:`write_archive`.

    Args:
        path: The ``.npz`` archive.
        current_version: The schema version this code writes; archives
            at this version must carry a matching content checksum.
        legacy_versions: Older versions still accepted.  Their payload
            is returned *unverified* — the caller owns whatever
            integrity story those formats had (or lacked).
        label: Human-facing artefact kind for error messages
            ("dataset archive", "model pool", ...).

    Returns:
        ``(version, payload)`` with every array materialised and the
        reserved keys stripped from the payload.

    Raises:
        ValueError: on a truncated or unreadable file, an unsupported
            version, or a checksum mismatch.
    """
    path = pathlib.Path(path)
    try:
        with np.load(path, allow_pickle=False) as archive:
            payload = {name: archive[name] for name in archive.files}
    except (
        zipfile.BadZipFile, zlib.error, EOFError, OSError, KeyError,
        ValueError,
    ) as error:
        raise ValueError(
            f"corrupt or truncated {label} {path}: {error}"
        ) from error
    if FORMAT_KEY not in payload:
        raise ValueError(
            f"corrupt or truncated {label} {path}: no format version"
        )
    version = int(payload.pop(FORMAT_KEY))
    accepted = {int(current_version), *(int(v) for v in legacy_versions)}
    if version not in accepted:
        raise ValueError(f"unsupported {label} format version {version}")
    if version == int(current_version):
        recorded = payload.pop(CHECKSUM_KEY, None)
        if recorded is None:
            raise ValueError(
                f"corrupt or truncated {label} {path}: no checksum"
            )
        if payload_checksum(payload) != str(recorded):
            raise ValueError(
                f"{label} {path} failed its content checksum "
                "(the file was corrupted or tampered with)"
            )
    # Legacy versions keep their "checksum" entry (if any) in the
    # payload: its digest semantics belong to the caller's old format.
    return version, payload

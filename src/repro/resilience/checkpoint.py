"""Per-location survey progress on disk: resume instead of re-bill.

A survey is an expensive artifact — every fetched image is billed —
so aborting at location 812 of 1,000 must not forfeit the first 811.
:class:`SurveyCheckpoint` persists progress keyed by the survey's
identity; a rerun with the same identity skips every completed
location.

The file is an **append-only journal** (the idiom of
:mod:`repro.llm.cache`): a header line holding the format version and
the key, then one line per recorded location holding its index, its
payload and that line's own CRC-32.  Recording a location appends one
line, so per-location cost stays flat however large the survey grows.
Nothing stays open between calls:
each :meth:`~SurveyCheckpoint.record` opens the file in append mode,
writes its line and closes it.

Crash safety: a worker killed mid-append (SIGKILL, OOM) leaves at
most one incomplete final line — a **torn tail**.  Loading only
reads: it skips the torn tail (counted on ``checkpoint.torn_tail``),
so any process may load a journal another process is still appending
to.  The writer cuts the torn tail off just before its first append.
Damage anywhere else — an unreadable header, a key that is not a
dict, a complete line before the tail that fails its checksum — is
**quarantined as corrupt** (renamed to ``<path>.corrupt``, counted on
``checkpoint.corrupt``) and treated as a cold start instead of
raising: losing a checkpoint must cost a re-fetch, not wedge the
survey.  A checkpoint whose *key* identifies a different survey is
still a hard :class:`CheckpointMismatchError`: silently mixing two
surveys' billing is worse than failing loudly.

Version 1 and 2 single-document checkpoints still load; the first
record rewrites them as a journal with one temp-file-plus-rename
write, which is also how a journal is created.

The payload stored per location is an opaque JSON dict owned by the
caller (:class:`~repro.core.pipeline.NeighborhoodDecoder` stores the
decoded indicators plus billing/retry provenance), which keeps this
module free of pipeline imports.

Appends deliberately do **not** fsync: an appended line survives
process death (page cache persists), and a whole-machine crash merely
re-fetches the tail of one survey.  A caller that settles money from
the checkpoint calls :meth:`~SurveyCheckpoint.sync` first — the
service daemon does, once per job, before settling its bill.  Rare,
high-value documents (the coordinator's shard manifest and shard
results) fsync every write — see :mod:`repro.coordinator.manifest`.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from pathlib import Path

from ..obs.metrics import get_metrics

#: Version 3 is the append-only journal.  Version 2 (one document with
#: a whole-body ``checksum``) and version 1 (no checksum) still load,
#: so pre-existing checkpoints keep their value and their billing.
FORMAT_VERSION = 3
_LEGACY_VERSIONS = (1, 2)


class CheckpointMismatchError(ValueError):
    """The checkpoint on disk belongs to a different survey."""


def _crc(text: str) -> str:
    return f"{zlib.crc32(text.encode('utf-8')):08x}"


def _header_line(key: dict) -> bytes:
    """``{"format_version": 3, "key": {...}, "crc32": "…"}`` + newline."""
    body = json.dumps({"format_version": FORMAT_VERSION, "key": key})
    return f'{body[:-1]}, "crc32": "{_crc(body)}"}}\n'.encode("utf-8")


def _record_line(index: int, payload: dict) -> bytes:
    """``[index, payload, "crc32"]`` + newline; the payload is inline JSON."""
    body = json.dumps([int(index), payload])
    return f'{body[:-1]}, "{_crc(body)}"]\n'.encode("utf-8")


def _parse_record(raw: bytes) -> tuple[int, dict] | None:
    """One journal line back to ``(index, payload)``, or None if damaged.

    The checksum covers the line's JSON without its checksum element;
    ``json.dumps`` output round-trips through ``json.loads`` exactly,
    so re-serializing the parsed value reproduces the hashed text.
    """
    try:
        entry = json.loads(raw)
    except ValueError:  # includes UnicodeDecodeError
        return None
    if not isinstance(entry, list) or len(entry) != 3:
        return None
    index, payload, crc = entry
    if (
        type(index) is not int
        or not isinstance(payload, dict)
        or crc != _crc(json.dumps([index, payload]))
    ):
        return None
    return index, payload


def _legacy_checksum(key: dict, locations: dict) -> str:
    """Version 2's checksum over the canonical serialization of the body."""
    body = json.dumps(
        {"key": key, "locations": locations}, sort_keys=True
    )
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def _fsync(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class SurveyCheckpoint:
    """Append-only per-location progress store.

    Parameters
    ----------
    path:
        The journal file.  Parent directories are created on the
        first record.
    key:
        The survey's identity (county, n_locations, seed, ...).  A
        file whose key differs raises :class:`CheckpointMismatchError`
        instead of silently mixing two surveys' billing.
    """

    def __init__(self, path: str | Path, key: dict) -> None:
        self.path = Path(path)
        self.key = {k: key[k] for k in sorted(key)}
        self._records: dict[int, dict] = {}
        # Whether the file on disk is a journal this store may append
        # to; otherwise the next record writes the whole file afresh.
        self._appendable = False
        # Byte offset of the end of the last good line when loading
        # found a torn tail: the writer truncates there before its
        # first append.
        self._cut_at: int | None = None
        if self.path.exists():
            self._load()

    # ------------------------------------------------------------------

    def _load(self) -> None:
        try:
            data = self.path.read_bytes()
        except OSError:
            self._quarantine_corrupt("unreadable file")
            return
        first, newline, rest = data.partition(b"\n")
        try:
            header = json.loads(first)
        except ValueError:  # includes UnicodeDecodeError
            # Cut inside the header, or garbled — cold start, not a crash.
            self._quarantine_corrupt("unparseable header")
            return
        if not isinstance(header, dict):
            self._quarantine_corrupt("header is not a JSON object")
            return
        version = header.get("format_version")
        if version in _LEGACY_VERSIONS:
            self._load_legacy(header, version)
            return
        if version != FORMAT_VERSION:
            raise ValueError(
                f"unsupported checkpoint format version: {version!r}"
            )
        stored_key = header.get("key")
        if not newline or not isinstance(stored_key, dict):
            self._quarantine_corrupt("incomplete or mangled header")
            return
        if header.get("crc32") != _crc(
            json.dumps({"format_version": version, "key": stored_key})
        ):
            self._quarantine_corrupt("header checksum mismatch")
            return
        self._check_key(stored_key)

        # The segment after the final newline is an unterminated line
        # (empty when the last append completed).
        *lines, tail = rest.split(b"\n")
        good_end = len(first) + 1
        torn = bool(tail)
        for number, raw in enumerate(lines):
            parsed = _parse_record(raw)
            if parsed is None:
                if number == len(lines) - 1 and not tail:
                    torn = True  # the final line: a torn tail
                    break
                self._quarantine_corrupt("record checksum mismatch")
                return
            index, payload = parsed
            self._records[index] = payload
            good_end += len(raw) + 1
        if torn:
            get_metrics().inc("checkpoint.torn_tail")
            self._cut_at = good_end
        self._appendable = True

    def _load_legacy(self, document: dict, version: int) -> None:
        """Read a version 1/2 single-document checkpoint."""
        stored_key = document.get("key", {})
        locations = document.get("locations", {})
        if not isinstance(stored_key, dict) or not isinstance(
            locations, dict
        ):
            self._quarantine_corrupt("mangled structure")
            return
        if version == 2 and document.get("checksum") != _legacy_checksum(
            stored_key, locations
        ):
            self._quarantine_corrupt("checksum mismatch")
            return
        self._check_key(stored_key)
        try:
            self._records = {
                int(index): record
                for index, record in locations.items()
            }
        except (TypeError, ValueError):
            self._quarantine_corrupt("non-integer location index")

    def _check_key(self, stored_key: dict) -> None:
        if stored_key != self.key:
            raise CheckpointMismatchError(
                f"checkpoint at {self.path} is for survey {stored_key!r}, "
                f"not {self.key!r}"
            )

    def _quarantine_corrupt(self, reason: str) -> None:
        """Count, preserve, and forget a corrupt checkpoint file.

        The damaged file is renamed to ``<path>.corrupt`` for
        forensics (the next record recreates the real path), the
        ``checkpoint.corrupt`` counter moves so dashboards see the
        event, and the store cold-starts.
        """
        get_metrics().inc("checkpoint.corrupt")
        try:
            self.path.replace(
                self.path.with_suffix(self.path.suffix + ".corrupt")
            )
        except OSError:  # pragma: no cover - best effort only
            pass
        self._records = {}

    def _rewrite(self) -> None:
        """Write header plus every record atomically (temp file + rename).

        Creates a journal, and migrates a legacy document or replaces
        a quarantined or vanished file, in one step.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        with open(tmp, "wb") as handle:
            handle.write(_header_line(self.key))
            for index, payload in sorted(self._records.items()):
                handle.write(_record_line(index, payload))
        tmp.replace(self.path)
        self._appendable = True
        self._cut_at = None

    def _append(self, line: bytes) -> None:
        """Append one line; raises FileNotFoundError if the file vanished.

        Raw ``os`` calls rather than a file object: three syscalls per
        record (open, write, close) and no buffer set-up.
        """
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
        try:
            if self._cut_at is not None:
                os.ftruncate(fd, self._cut_at)
                self._cut_at = None
            written = os.write(fd, line)
        finally:
            os.close(fd)
        if written != len(line):
            raise OSError(
                f"short append to {self.path}: {written} of {len(line)} bytes"
            )

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def has(self, index: int) -> bool:
        return index in self._records

    def get(self, index: int) -> dict:
        return self._records[index]

    @property
    def completed_indices(self) -> tuple[int, ...]:
        return tuple(sorted(self._records))

    def record(self, index: int, payload: dict) -> None:
        """Store one completed location and persist it immediately.

        Persisting per location (not per survey) is the point: a crash
        between locations loses at most the in-flight location.
        """
        self._records[index] = payload
        if self._appendable:
            try:
                self._append(_record_line(index, payload))
            except FileNotFoundError:
                self._rewrite()
            except OSError:
                # A failed append may have left a partial line that a
                # later append would bury mid-file: rewrite next time.
                self._appendable = False
                raise
        else:
            self._rewrite()
        get_metrics().inc("checkpoint.writes")

    def sync(self) -> None:
        """fsync the journal and its directory (a no-op if never written).

        Appends survive process death but not a machine crash; call
        this before anything irreversible is derived from the file,
        such as settling a bill.
        """
        if not self.path.exists():
            return
        _fsync(self.path)
        _fsync(self.path.parent)

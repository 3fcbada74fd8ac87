"""The durable shard manifest: one fsynced JSON file of record.

A coordinated survey's entire recoverable state is three kinds of
file under its state directory::

    state/
      manifest.json            <- this module: plan + shard lifecycle
      shards/shard_0007.ckpt.json    <- per-location SurveyCheckpoint
      shards/shard_0007.result.json  <- worker's completion document
      heartbeats/shard_0007.hb       <- liveness (advisory, not durable)

The manifest is the only file whose loss loses the run, so it gets
the full durability treatment: every save writes a temp file, fsyncs
it, renames over the real path, and fsyncs the directory — after a
crash at *any* instant the manifest on disk is a complete document
describing some prefix of the run's state transitions.

The manifest is **content-fingerprinted**: its fingerprint hashes the
plan configuration (county names, n_locations, seed, shard size) and
a digest of every planned sample point.  A resumed coordinator
replans, recomputes the fingerprint, and refuses to adopt state from
a different plan — changing the config invalidates stale state
instead of silently merging two different surveys.  Shard checkpoints
embed the same fingerprint in their keys, so a stale shard file can
never be mistaken for progress either.

Shard lifecycle (see DESIGN.md §12 for the full state machine)::

    PENDING ──claim──► LEASED ──valid result──► COMPLETED
       ▲                 │
       └──crash/expiry───┴──attempt budget exhausted──► QUARANTINED

``attempts`` counts dispatches and survives coordinator restarts, so
a poison shard cannot burn an unbounded number of attempts across
resumes of the *same* run (an explicit resume grants a fresh budget —
the operator asked to try again).
"""

from __future__ import annotations

import enum
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

from ..geo.sampling import SamplePoint
from ..obs.metrics import get_metrics

__all__ = [
    "FORMAT_VERSION",
    "ManifestCorruptError",
    "ManifestMismatchError",
    "ShardManifest",
    "ShardRecord",
    "ShardState",
    "atomic_write_json",
    "plan_fingerprint",
    "points_digest",
]

FORMAT_VERSION = 1

MANIFEST_FILENAME = "manifest.json"


class ManifestMismatchError(ValueError):
    """The manifest on disk was planned from a different config/frame."""


class ManifestCorruptError(ValueError):
    """The manifest on disk is unreadable or structurally invalid."""


class ShardState(enum.Enum):
    PENDING = "pending"
    LEASED = "leased"
    COMPLETED = "completed"
    QUARANTINED = "quarantined"


def atomic_write_json(path: str | Path, payload: dict) -> None:
    """Durable atomic JSON write: temp file + fsync + rename + dir fsync.

    The rename makes the update atomic (readers see old or new, never
    torn); the fsyncs make it durable (a machine crash after return
    cannot roll it back).  Used for the manifest and shard result
    documents — the rare, high-value writes; per-location checkpoint
    appends skip the fsyncs (see :mod:`repro.resilience.checkpoint`).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, sort_keys=True))
        handle.flush()
        os.fsync(handle.fileno())
    tmp.replace(path)
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def points_digest(points: list[SamplePoint]) -> str:
    """Content digest of a sequence of planned sample points.

    ``repr`` round-trips floats exactly, so two identically planned
    frames digest identically and any drift (different seed, different
    road network) changes the digest.
    """
    digest = hashlib.sha256()
    for point in points:
        digest.update(
            (
                f"{point.location.lat!r},{point.location.lon!r},"
                f"{point.county},{point.zone_kind.value},"
                f"{point.road_class.value},{point.road_bearing!r}\n"
            ).encode("utf-8")
        )
    return digest.hexdigest()


def plan_fingerprint(
    *,
    counties: list[str],
    n_locations: int,
    seed: int,
    shard_size: int,
    frame_digest: str,
    extra: dict | None = None,
) -> str:
    """Fingerprint of the whole plan: config + the frame it produced.

    Hashing the frame digest (not just the config) means a change in
    *how* points are planned — a new road-network generator, say —
    also invalidates stale state, even if the config tuple is
    unchanged.
    """
    body = json.dumps(
        {
            "counties": counties,
            "n_locations": n_locations,
            "seed": seed,
            "shard_size": shard_size,
            "frame_digest": frame_digest,
            "extra": extra or {},
        },
        sort_keys=True,
    )
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


@dataclass
class ShardRecord:
    """Durable lifecycle state of one contiguous shard of the frame."""

    shard_id: int
    start: int
    stop: int
    digest: str
    state: ShardState = ShardState.PENDING
    attempts: int = 0
    worker: str | None = None
    lease_expires_s: float | None = None
    error: str | None = None

    @property
    def size(self) -> int:
        return self.stop - self.start

    def as_dict(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "start": self.start,
            "stop": self.stop,
            "digest": self.digest,
            "state": self.state.value,
            "attempts": self.attempts,
            "worker": self.worker,
            "lease_expires_s": self.lease_expires_s,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ShardRecord":
        return cls(
            shard_id=int(data["shard_id"]),
            start=int(data["start"]),
            stop=int(data["stop"]),
            digest=str(data["digest"]),
            state=ShardState(data["state"]),
            attempts=int(data.get("attempts", 0)),
            worker=data.get("worker"),
            lease_expires_s=data.get("lease_expires_s"),
            error=data.get("error"),
        )


class ShardManifest:
    """The durable document of record for one coordinated survey."""

    def __init__(
        self,
        path: str | Path,
        fingerprint: str,
        shards: list[ShardRecord],
        plan: dict | None = None,
    ) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint
        self.shards = shards
        #: Human-readable plan provenance (county names, n, seed, ...);
        #: informational — the fingerprint is what gates resumption.
        self.plan = plan or {}

    # -- planning ------------------------------------------------------

    @classmethod
    def plan_shards(
        cls,
        path: str | Path,
        points: list[SamplePoint],
        shard_size: int,
        fingerprint: str,
        plan: dict | None = None,
    ) -> "ShardManifest":
        """Slice a planned frame into contiguous, digested shards."""
        if shard_size < 1:
            raise ValueError(f"shard_size must be positive: {shard_size}")
        shards = [
            ShardRecord(
                shard_id=shard_id,
                start=start,
                stop=min(start + shard_size, len(points)),
                digest=points_digest(
                    points[start : min(start + shard_size, len(points))]
                ),
            )
            for shard_id, start in enumerate(
                range(0, len(points), shard_size)
            )
        ]
        return cls(path, fingerprint, shards, plan=plan)

    # -- persistence ---------------------------------------------------

    def save(self) -> None:
        atomic_write_json(
            self.path,
            {
                "format_version": FORMAT_VERSION,
                "fingerprint": self.fingerprint,
                "plan": self.plan,
                "shards": [record.as_dict() for record in self.shards],
            },
        )
        get_metrics().inc("coord.manifest.writes")

    @classmethod
    def load(cls, path: str | Path) -> "ShardManifest":
        path = Path(path)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise
        except (OSError, ValueError) as err:
            raise ManifestCorruptError(
                f"unreadable manifest at {path}: {err}"
            ) from err
        if (
            not isinstance(payload, dict)
            or payload.get("format_version") != FORMAT_VERSION
            or not isinstance(payload.get("shards"), list)
        ):
            raise ManifestCorruptError(
                f"manifest at {path} is structurally invalid"
            )
        try:
            shards = [
                ShardRecord.from_dict(entry)
                for entry in payload["shards"]
            ]
        except (KeyError, TypeError, ValueError) as err:
            raise ManifestCorruptError(
                f"manifest at {path} has an invalid shard record: {err}"
            ) from err
        return cls(
            path,
            str(payload.get("fingerprint", "")),
            shards,
            plan=payload.get("plan") or {},
        )

    # -- queries -------------------------------------------------------

    def record(self, shard_id: int) -> ShardRecord:
        return self.shards[shard_id]

    def in_state(self, *states: ShardState) -> list[ShardRecord]:
        return [r for r in self.shards if r.state in states]

    def counts(self) -> dict[str, int]:
        counts = {state.value: 0 for state in ShardState}
        for record in self.shards:
            counts[record.state.value] += 1
        return counts

    @property
    def finished(self) -> bool:
        """No shard can make further progress without intervention."""
        return not self.in_state(ShardState.PENDING, ShardState.LEASED)

"""Roadway segmentation and street-view sampling frame.

Reproduces the paper's data-collection protocol (Section IV-A):

    "We randomly selected 1,200 images from the locations where we
    segment all roadways with an interval of 50 feet across two
    counties ... We obtained the coordinates for each location and
    request images ... from all four directions."

``build_sampling_frame`` counts every 50-foot sample point on a
county's road network; ``select_survey_locations`` draws the random
subset of locations and builds only those points; each selected
location expands into four ``CaptureRequest`` records (one per heading).
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING, overload

import networkx as nx
import numpy as np

from .coordinates import (
    CARDINAL_HEADINGS,
    SEGMENT_INTERVAL_M,
    LatLon,
    segment_count,
    segment_point,
)
from .county import County, ZoneKind
from .roadnet import RoadClass, RoadEdge, build_road_network, iter_edges

if TYPE_CHECKING:
    from ..obs.trace import Span


@dataclass(frozen=True)
class SamplePoint:
    """One 50-foot roadway sample point and its local context."""

    location: LatLon
    county: str
    zone_kind: ZoneKind
    road_class: RoadClass
    road_bearing: float


@dataclass(frozen=True)
class CaptureRequest:
    """A single street-view image request (location + heading)."""

    point: SamplePoint
    heading: int

    @property
    def location(self) -> LatLon:
        return self.point.location


class SamplingFrame(Sequence[SamplePoint]):
    """A county's 50-foot sampling frame, counted up front, built on demand.

    Construction walks the road edges once and keeps each edge's length
    and point count, so ``len()`` is exact without creating a single
    point.  Indexing builds only the point asked for — the edge's
    ``segment_point`` plus one ``zone_at`` lookup — with the same
    arithmetic as :func:`~repro.geo.coordinates.segment_points`, so
    ``list(frame)`` equals the eagerly segmented frame point for point.
    Immutable; an empty frame is falsy.
    """

    __slots__ = ("_county", "_interval_m", "_edges", "_lengths", "_starts")

    def __init__(
        self,
        county: County,
        edges: Iterable[RoadEdge],
        interval_m: float = SEGMENT_INTERVAL_M,
    ) -> None:
        self._county = county
        self._interval_m = interval_m
        self._edges = tuple(edges)
        self._lengths = tuple(edge.length_m for edge in self._edges)
        counts = [segment_count(length, interval_m) for length in self._lengths]
        #: ``_starts[k]`` is the frame index of edge ``k``'s first point;
        #: the last entry is the frame's length.
        self._starts = tuple(accumulate(counts, initial=0))

    def __setattr__(self, name: str, value: object) -> None:
        if hasattr(self, "_starts"):
            raise AttributeError("SamplingFrame is immutable")
        object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return self._starts[-1]

    @overload
    def __getitem__(self, index: int) -> SamplePoint: ...

    @overload
    def __getitem__(self, index: slice) -> list[SamplePoint]: ...

    def __getitem__(self, index: int | slice) -> SamplePoint | list[SamplePoint]:
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(f"sampling frame index out of range: {index}")
        edge = bisect_right(self._starts, i) - 1
        return self._build(edge, i - self._starts[edge])

    def __iter__(self) -> Iterator[SamplePoint]:
        for edge in range(len(self._edges)):
            for i in range(self._starts[edge + 1] - self._starts[edge]):
                yield self._build(edge, i)

    def _build(self, edge_index: int, i: int) -> SamplePoint:
        edge = self._edges[edge_index]
        location = segment_point(
            edge.start, edge.end, self._lengths[edge_index], i, self._interval_m
        )
        return SamplePoint(
            location=location,
            county=self._county.name,
            zone_kind=self._county.zone_at(location).kind,
            road_class=edge.road_class,
            road_bearing=edge.bearing,
        )


def build_sampling_frame(
    county: County,
    graph: nx.Graph,
    interval_m: float = SEGMENT_INTERVAL_M,
) -> SamplingFrame:
    """Segment every road edge of ``graph`` at ``interval_m``.

    Returns the full deterministic sampling frame for the county as a
    lazy :class:`SamplingFrame`: O(edges) to build, one bisection and
    one zone lookup per point read.
    """
    return SamplingFrame(county, iter_edges(graph), interval_m)


def select_survey_locations(
    frames: Mapping[str, Sequence[SamplePoint]],
    n_locations: int,
    seed: int = 0,
) -> list[SamplePoint]:
    """Randomly select survey locations across counties.

    Locations are drawn without replacement, proportionally to each
    county's share of the combined sampling frame, mirroring a uniform
    draw over the pooled frame.  Raises ``ValueError`` if the pooled
    frame is smaller than ``n_locations``.  The pooled frame is never
    built: each drawn index reads one point from the county it falls in.
    """
    names = sorted(frames)
    starts = list(accumulate((len(frames[name]) for name in names), initial=0))
    total = starts[-1]
    if n_locations > total:
        raise ValueError(
            f"requested {n_locations} locations but the sampling frame "
            f"only has {total} points"
        )
    rng = np.random.default_rng(seed)
    indices = rng.choice(total, size=n_locations, replace=False)
    chosen = []
    for index in sorted(int(i) for i in indices):
        county = bisect_right(starts, index) - 1
        chosen.append(frames[names[county]][index - starts[county]])
    return chosen


def plan_survey_points(
    counties: list[County],
    n_locations: int,
    seed: int = 0,
    *,
    span: Span | None = None,
) -> list[SamplePoint]:
    """Plan a deterministic survey frame across one or many counties.

    This is the single sampling entry point shared by the batch
    pipeline and the shard coordinator: each county's road network is
    built from ``seed + 17`` and the pooled draw uses ``seed + 23``,
    exactly matching the historical single-county path — so a
    one-county plan is byte-identical to what ``decoder.survey``
    samples, and a multi-county plan is the natural generalization
    (pooled proportional draw over the combined frame).

    Returns an empty list when every county yields an empty frame;
    raises ``ValueError`` (from :func:`select_survey_locations`) when
    the pooled frame is smaller than ``n_locations``.  ``span``, when
    given, records the pooled frame's size as ``frame_points``.
    """
    frames: dict[str, Sequence[SamplePoint]] = {}
    for county in counties:
        graph = build_road_network(county, seed=seed + 17)
        frames[county.name] = build_sampling_frame(county, graph)
    if span is not None:
        span.set(frame_points=sum(len(frame) for frame in frames.values()))
    if not any(frames.values()):
        return []
    return select_survey_locations(frames, n_locations, seed=seed + 23)


def expand_to_captures(
    points: list[SamplePoint],
    headings: tuple[int, ...] = CARDINAL_HEADINGS,
) -> list[CaptureRequest]:
    """Expand survey locations into per-heading capture requests."""
    return [
        CaptureRequest(point=point, heading=heading)
        for point in points
        for heading in headings
    ]


def frame_statistics(frame: Sequence[SamplePoint]) -> dict[str, float]:
    """Descriptive statistics of a sampling frame (diagnostics)."""
    if not frame:
        return {"n_points": 0}
    zone_counts: dict[str, int] = {}
    road_counts: dict[str, int] = {}
    for point in frame:
        zone_counts[point.zone_kind.value] = (
            zone_counts.get(point.zone_kind.value, 0) + 1
        )
        road_counts[point.road_class.value] = (
            road_counts.get(point.road_class.value, 0) + 1
        )
    stats: dict[str, float] = {"n_points": float(len(frame))}
    for name, count in sorted(zone_counts.items()):
        stats[f"zone_{name}"] = count / len(frame)
    for name, count in sorted(road_counts.items()):
        stats[f"road_{name}"] = count / len(frame)
    return stats

"""The lazy sampling frame against the eager frame it replaced.

``SamplingFrame`` counts a county's 50-foot sample points up front and
builds a point only when it is read.  The oracle below is the eager
loop it replaced, kept verbatim: every point the frame yields, however
it is read (iteration, indexing, negative indexing, slicing), must
equal the oracle's, and every plan drawn over lazy frames must equal
the same draw over eager frames.  The cost pin checks the point of the
design: planning ``n`` locations builds ``n`` points, whatever the
frame's size.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.coordinator import points_digest
from repro.core.classifier import LLMIndicatorClassifier
from repro.core.pipeline import NeighborhoodDecoder
from repro.geo import (
    SEGMENT_INTERVAL_M,
    County,
    SamplePoint,
    SamplingFrame,
    build_road_network,
    build_sampling_frame,
    iter_edges,
    make_durham_like,
    make_robeson_like,
    plan_survey_points,
    segment_points,
    select_survey_locations,
    study_counties,
)
from repro.gsv import StreetViewClient
from repro.obs.trace import Tracer, use_tracer


def eager_frame(
    county: County, graph: nx.Graph, interval_m: float = SEGMENT_INTERVAL_M
) -> list[SamplePoint]:
    """The materializing frame builder the lazy frame replaced."""
    frame = []
    for edge in iter_edges(graph):
        for location in segment_points(edge.start, edge.end, interval_m):
            zone = county.zone_at(location)
            frame.append(
                SamplePoint(
                    location=location,
                    county=county.name,
                    zone_kind=zone.kind,
                    road_class=edge.road_class,
                    road_bearing=edge.bearing,
                )
            )
    return frame


def eager_plan(
    counties: list[County], n_locations: int, seed: int
) -> list[SamplePoint]:
    """``plan_survey_points`` as "select over eager frames"."""
    frames = {
        county.name: eager_frame(
            county, build_road_network(county, seed=seed + 17)
        )
        for county in counties
    }
    return select_survey_locations(frames, n_locations, seed=seed + 23)


MAKERS = {"durham": make_durham_like, "robeson": make_robeson_like}


@pytest.mark.parametrize("network_seed", [9, 17])
@pytest.mark.parametrize("county_seed", [1, 2, 3])
@pytest.mark.parametrize("kind", sorted(MAKERS))
def test_lazy_frame_equals_eager_oracle(kind, county_seed, network_seed):
    county = MAKERS[kind](seed=county_seed)
    graph = build_road_network(county, seed=network_seed)
    frame = build_sampling_frame(county, graph)
    oracle = eager_frame(county, graph)
    n = len(oracle)
    assert isinstance(frame, SamplingFrame)
    assert len(frame) == n > graph.number_of_edges()
    assert list(frame) == oracle
    assert [frame[i] for i in range(n)] == oracle
    for i in range(1, n + 1, 97):
        assert frame[-i] == oracle[-i]
    assert frame[-1] == oracle[-1] and frame[-n] == oracle[0]
    assert frame[3:500:7] == oracle[3:500:7]
    assert frame[-40:] == oracle[-40:]
    assert frame[::-1][:25] == oracle[::-1][:25]
    assert frame[n:] == [] == oracle[n:]


def test_frame_index_bounds_and_types():
    county = make_robeson_like(seed=2)
    frame = build_sampling_frame(county, build_road_network(county, seed=9))
    n = len(frame)
    with pytest.raises(IndexError):
        frame[n]
    with pytest.raises(IndexError):
        frame[-n - 1]
    with pytest.raises(TypeError):
        frame[1.0]
    assert frame[True] == frame[1]
    with pytest.raises(AttributeError):
        frame._starts = (0,)


def test_empty_frame_is_falsy():
    county = make_robeson_like(seed=2)
    frame = build_sampling_frame(county, nx.Graph())
    assert len(frame) == 0
    assert not frame
    assert list(frame) == [] == frame[:]
    with pytest.raises(IndexError):
        frame[0]
    assert plan_survey_points([county], 5, seed=0)  # real frames are not


def test_zero_length_edge_contributes_its_start():
    county = make_robeson_like(seed=2)
    edge = iter_edges(build_road_network(county, seed=9))[0]
    graph = nx.Graph()
    graph.add_edge(edge.start, edge.start, road_class=edge.road_class)
    frame = build_sampling_frame(county, graph)
    assert list(frame) == eager_frame(county, graph)
    assert len(frame) == 1 and frame[0].location == edge.start


def test_nonpositive_interval_rejected():
    county = make_robeson_like(seed=2)
    graph = build_road_network(county, seed=9)
    with pytest.raises(ValueError):
        build_sampling_frame(county, graph, interval_m=0.0)


@pytest.mark.parametrize("n_locations", [1, 6, 500])
@pytest.mark.parametrize(
    "counties",
    [
        pytest.param(lambda: [make_durham_like(seed=3)], id="one-county"),
        pytest.param(lambda: study_counties(seed=7), id="two-county"),
    ],
)
def test_plan_equals_select_over_eager_frames(counties, n_locations):
    plan = plan_survey_points(counties(), n_locations, seed=4)
    assert len(plan) == n_locations
    assert plan == eager_plan(counties(), n_locations, seed=4)


def test_select_maps_every_index_across_county_boundaries():
    """Drawing the whole pooled frame reads each county's first and
    last point too, so an off-by-one at a boundary cannot hide."""
    county = make_robeson_like(seed=2)
    edges = iter_edges(build_road_network(county, seed=9))
    frames = {
        "A": SamplingFrame(county, edges[:2]),
        "B": [],
        "C": SamplingFrame(county, edges[2:3]),
        "D": SamplingFrame(county, edges[3:5]),
    }
    pooled = [point for name in "ABCD" for point in frames[name]]
    assert select_survey_locations(frames, len(pooled), seed=1) == pooled


def test_select_accepts_mixed_and_empty_frames():
    county = make_robeson_like(seed=2)
    graph = build_road_network(county, seed=9)
    frames = {"A": [], "B": build_sampling_frame(county, graph), "C": []}
    eager = {"A": [], "B": eager_frame(county, graph), "C": []}
    assert select_survey_locations(frames, 40, seed=5) == (
        select_survey_locations(eager, 40, seed=5)
    )


@pytest.mark.parametrize(
    "counties, n_locations, seed, digest",
    [
        # The coordinator's CLI drill plan (Durham, 48 locations).
        (
            lambda: [make_durham_like(seed=3)],
            48,
            0,
            "cf9a90b07492a4d813efcb8c07a19cf5e5de13a03bded7ae87e6df72e86f09b9",
        ),
        (
            lambda: study_counties(seed=7),
            500,
            11,
            "eac5444a2ef1ff645869cf8da0881fb96ba1de1a5ab23714972571cf0e294d49",
        ),
    ],
)
def test_coordinator_plan_digest_unchanged(counties, n_locations, seed, digest):
    """Digests recorded from the eager frame builder."""
    plan = plan_survey_points(counties(), n_locations, seed=seed)
    assert points_digest(plan) == digest


@pytest.mark.parametrize("n_locations", [6, 500])
def test_plan_builds_only_the_drawn_points(monkeypatch, n_locations):
    """Plan cost does not grow with frame size: one zone lookup per
    drawn location, none for the ~45k points that are never drawn.

    The road-network generator classifies each lattice edge by zone
    (a fixed ~364 lookups whatever the frame or ``n``); that share is
    counted on its own and subtracted.
    """
    calls = []
    zone_at = County.zone_at

    def counting(self, point):
        calls.append(point)
        return zone_at(self, point)

    county = make_durham_like(seed=3)
    monkeypatch.setattr(County, "zone_at", counting)
    build_road_network(county, seed=7 + 17)
    network_lookups = len(calls)
    assert 0 < network_lookups <= 2 * 14 * 13
    calls.clear()
    points = plan_survey_points([county], n_locations, seed=7)
    assert len(points) == n_locations
    assert len(calls) - network_lookups == n_locations


def test_one_plan_span_under_the_ambient_span(clients):
    county = make_robeson_like(seed=2)
    decoder = NeighborhoodDecoder(
        street_view=StreetViewClient(counties=[county], api_key="k"),
        classifier=LLMIndicatorClassifier(clients["gemini-1.5-pro"]),
    )
    frame = build_sampling_frame(county, build_road_network(county, seed=4 + 17))
    tracer = Tracer(trace_id="plan")
    with use_tracer(tracer), tracer.span("job") as outer:
        report = decoder.survey(county, n_locations=3, seed=4)
    assert report.completed_locations == 3
    (plan,) = [s for s in tracer.spans if s.name == "survey.plan"]
    assert plan.parent_id == outer.span_id
    assert plan.attributes == {"n_locations": 3, "frame_points": len(frame)}


def test_traced_plan_equals_untraced_plan():
    county = make_robeson_like(seed=2)
    with use_tracer(Tracer(trace_id="plan")):
        traced = NeighborhoodDecoder._select_points(county, 5, 4)
    assert traced == NeighborhoodDecoder._select_points(county, 5, 4)
    assert traced == plan_survey_points([county], 5, 4)

"""Route-based surveys: sample imagery along a driving route.

Besides area-wide random sampling, practitioners often audit a
specific corridor — a school walking route, a bus line, a proposed
sidewalk extension.  This module plans shortest-distance routes on the
road network and produces the same 50-foot capture sequence the
area-wide sampler uses, so the whole decoding pipeline applies
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from .coordinates import SEGMENT_INTERVAL_M, LatLon
from .county import County
from .roadnet import RoadEdge
from .sampling import CaptureRequest, SamplePoint, SamplingFrame


class NoRouteError(ValueError):
    """The endpoints are not connected on the road network."""


@dataclass(frozen=True)
class Route:
    """A planned route: ordered nodes and total length."""

    nodes: tuple[LatLon, ...]
    length_m: float

    @property
    def start(self) -> LatLon:
        return self.nodes[0]

    @property
    def end(self) -> LatLon:
        return self.nodes[-1]


def nearest_node(graph: nx.Graph, point: LatLon) -> LatLon:
    """The road-network node closest to an arbitrary point."""
    if graph.number_of_nodes() == 0:
        raise ValueError("empty road network")
    return min(graph.nodes, key=lambda node: point.distance_m(node))


def plan_route(graph: nx.Graph, start: LatLon, end: LatLon) -> Route:
    """Shortest route (by road distance) between two points.

    Endpoints snap to their nearest network nodes first.
    """
    source = nearest_node(graph, start)
    target = nearest_node(graph, end)
    try:
        nodes = nx.shortest_path(
            graph, source, target, weight="length_m"
        )
    except nx.NetworkXNoPath as err:
        raise NoRouteError(
            f"no route between ({start.lat:.4f}, {start.lon:.4f}) and "
            f"({end.lat:.4f}, {end.lon:.4f})"
        ) from err
    length = sum(
        graph.edges[a, b]["length_m"] for a, b in zip(nodes, nodes[1:])
    )
    return Route(nodes=tuple(nodes), length_m=float(length))


def route_sample_points(
    county: County,
    graph: nx.Graph,
    route: Route,
    interval_m: float = SEGMENT_INTERVAL_M,
) -> list[SamplePoint]:
    """50-foot sample points along a route, in travel order."""
    edges = [
        RoadEdge(a, b, graph.edges[a, b]["road_class"])
        for a, b in zip(route.nodes, route.nodes[1:])
    ]
    return list(SamplingFrame(county, edges, interval_m))


def route_captures(
    county: County,
    graph: nx.Graph,
    route: Route,
    headings: tuple[int, ...] = (0, 90, 180, 270),
    interval_m: float = SEGMENT_INTERVAL_M,
) -> list[CaptureRequest]:
    """Capture requests for every sample point along the route."""
    return [
        CaptureRequest(point=point, heading=heading)
        for point in route_sample_points(county, graph, route, interval_m)
        for heading in headings
    ]

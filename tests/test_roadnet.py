"""Road-network ingestion, placement, and coverage tests.

The placement oracle is exhaustive set-cover search: for 12 signals,
every subset (smallest first) is checked for full cover under the same
strict-inequality rule, giving the true minimum count the greedy result
is compared against. Spatial queries are checked against a naive scan
over every RSU.
"""

import itertools
import math
import random

import pytest

from vanetsim import roadnet as rn
from vanetsim.errors import ParseError, ValidationError


def write(tmp_path, text, name="net.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


TOY = """\
# format: roadnet v1
[nodes]
1 0.0 0.0
2 1000.0 0.0
[links]
1 1 2 1000.0 1 50.0 120.0
[signals]
1 1
"""


def test_toy_file_identity_ingestion(tmp_path):
    net = rn.load_network(write(tmp_path, TOY))
    assert set(net.nodes) == {1, 2}
    assert net.link(1).length == 1000.0
    assert net.report.rejected == []


def test_rejected_rows_are_reported_with_line_numbers(tmp_path):
    text = """\
# format: roadnet v1
[nodes]
1 0.0 0.0
2 1000.0 0.0
[links]
1 1 2 1000.0 1 50.0 120.0
2 1 2 -5.0 1 50.0 120.0
3 1 9 100.0 1 50.0 120.0
[signals]
1 1
"""
    net = rn.load_network(write(tmp_path, text))
    assert len(net.links) == 1
    reasons = dict(net.report.rejected)
    assert reasons[7] == "link length must be > 0"
    assert reasons[8] == "link endpoint not a known node"


def test_parse_error_carries_line_number(tmp_path):
    text = TOY.replace("1 1 2 1000.0 1 50.0 120.0",
                       "1 1 2 oops 1 50.0 120.0")
    with pytest.raises(ParseError) as err:
        rn.load_network(write(tmp_path, text))
    assert err.value.line == 6


def test_rsus_section_is_a_parse_error(tmp_path):
    # RSUs come from the greedy cover over the scenario's [rsu] range_m;
    # a network file that still places them by hand is refused, not ignored
    text = TOY + "[rsus]\n1 1 250.0\n"
    with pytest.raises(ParseError, match="rsus") as err:
        rn.load_network(write(tmp_path, text))
    assert err.value.line == 9


def test_empty_node_list_is_validation_error(tmp_path):
    with pytest.raises(ValidationError):
        rn.load_network(write(tmp_path, "# format: roadnet v1\n[nodes]\n"))


def test_disconnected_graph_is_validation_error(tmp_path):
    text = TOY + "\n"
    text = text.replace("[links]\n1 1 2 1000.0 1 50.0 120.0\n", "[links]\n")
    with pytest.raises(ValidationError) as err:
        rn.load_network(write(tmp_path, text))
    assert "connected" in str(err.value)


def test_grid_generator_and_loader_roundtrip(tmp_path):
    net = rn.gen_grid(10, 10, spacing=150.0)
    assert len(net.nodes) == 100
    assert len(net.links) == 360
    assert len(net.signals) == 100
    path = tmp_path / "grid.txt"
    rn.write_network(path, net)
    back = rn.load_network(path)
    assert back.report.rejected == []
    assert back.links == net.links
    assert back.nodes == net.nodes


def test_single_cover_when_everything_is_close():
    net = rn.gen_grid(3, 3, spacing=10.0)
    selected = rn.place_rsus(net, r_com=1000.0)
    assert len(selected) == 1
    assert selected[0] == 1  # lowest id wins the all-equal tie


def test_exact_spacing_is_not_covered():
    # strict inequality: distance == r_com does not cover
    nodes = [rn.Node(i, i * 100.0, 0.0) for i in range(1, 6)]
    links = [rn.Link(i, i, i + 1, 100.0, 1, 50.0, 120.0)
             for i in range(1, 5)]
    signals = [rn.Signal(i, i) for i in range(1, 6)]
    net = rn.RoadNetwork(nodes, links, signals)
    selected = rn.place_rsus(net, r_com=100.0)
    assert sorted(selected) == [1, 2, 3, 4, 5]


def brute_force_minimum_cover(points, r_com):
    ids = sorted(points)
    for size in range(1, len(ids) + 1):
        for combo in itertools.combinations(ids, size):
            if all(any(math.dist(points[s], points[g]) < r_com
                       for g in combo) for s in ids):
                return size
    return len(ids)


def test_greedy_cover_against_exhaustive_minimum():
    rng = random.Random(2024)
    for case in range(20):
        pts = {i + 1: (rng.uniform(0, 1000), rng.uniform(0, 1000))
               for i in range(12)}
        r_com = rng.uniform(200, 700)
        nodes = [rn.Node(i, x, y) for i, (x, y) in pts.items()]
        links = [rn.Link(i, i, i % 12 + 1, 10.0, 1, 50.0, 120.0)
                 for i in range(1, 13)]
        signals = [rn.Signal(i, i) for i in pts]
        net = rn.RoadNetwork(nodes, links, signals)
        selected = rn.place_rsus(net, r_com)
        # all covered, under the same strict rule
        assert all(any(math.dist(pts[s], pts[g]) < r_com for g in selected)
                   for s in pts), f"case {case} left a signal uncovered"
        optimum = brute_force_minimum_cover(pts, r_com)
        assert len(selected) >= optimum
        assert selected == rn.place_rsus(net, r_com)  # deterministic


def test_connected_rsu_basics():
    net = rn.gen_grid(2, 2, spacing=300.0)
    net = net.with_rsus([1, 4], range_m=200.0)
    idx = rn.CoverageIndex(net)
    assert idx.connected_rsu(0.0, 0.0) == 0          # exactly on rsu 0
    assert idx.connected_rsu(150.0, 150.0) is None   # 212 m from both
    assert idx.connected_rsu(5000.0, 5000.0) is None


def test_connected_rsu_tie_goes_to_lower_id():
    nodes = [rn.Node(1, 0.0, 0.0), rn.Node(2, 100.0, 0.0)]
    links = [rn.Link(1, 1, 2, 100.0, 1, 50.0, 120.0)]
    signals = [rn.Signal(1, 1), rn.Signal(2, 2)]
    net = rn.RoadNetwork(nodes, links, signals).with_rsus([1, 2], 200.0)
    idx = rn.CoverageIndex(net)
    assert idx.connected_rsu(50.0, 0.0) == 0  # equidistant, lower id


def test_count_per_rsu_constructed():
    net = rn.gen_grid(2, 2, spacing=1000.0).with_rsus([1], range_m=100.0)
    idx = rn.CoverageIndex(net)
    inside = [(0.0, 0.0), (99.0, 0.0), (0.0, 100.0)]   # boundary included
    outside = [(101.0, 0.0), (500.0, 500.0)]
    assert idx.count_per_rsu(inside + outside) == {0: 3}


def test_spatial_index_matches_naive_scan():
    rng = random.Random(7)
    net = rn.gen_grid(5, 5, spacing=200.0)
    chosen = rn.place_rsus(net, r_com=350.0)
    net = net.with_rsus(chosen, range_m=220.0)
    idx = rn.CoverageIndex(net)
    rsus = {r.id: (net.node(r.node).x, net.node(r.node).y, r.range_m)
            for r in net.rsus}
    positions = [(rng.uniform(-100, 900), rng.uniform(-100, 900))
                 for _ in range(500)]

    def naive_connected(x, y):
        best, best_d = None, math.inf
        for rid in sorted(rsus):
            rx, ry, rng_m = rsus[rid]
            d = math.hypot(x - rx, y - ry)
            if d <= rng_m and d < best_d - 1e-9:
                best, best_d = rid, d
        return best

    for x, y in positions:
        assert idx.connected_rsu(x, y) == naive_connected(x, y)

    counts = idx.count_per_rsu(positions)
    for rid, (rx, ry, rng_m) in rsus.items():
        naive = sum(1 for x, y in positions
                    if math.hypot(x - rx, y - ry) <= rng_m)
        assert counts[rid] == naive


def test_coverage_metrics():
    net = rn.gen_grid(4, 4, spacing=150.0)
    chosen = rn.place_rsus(net, r_com=250.0)
    assert rn.signal_coverage_fraction(net, chosen, 250.0) == 1.0
    net = net.with_rsus(chosen, range_m=250.0)
    idx = rn.CoverageIndex(net)
    frac = rn.link_length_coverage(net, idx)
    assert 0.0 < frac <= 1.0


# --- shortest path -------------------------------------------------------

DIAMOND = """\
# format: roadnet v1
[nodes]
1 0.0 0.0
2 1000.0 500.0
3 1000.0 -500.0
4 2000.0 0.0
[links]
1 1 2 1000.0 1 50.0 120.0
2 1 3 1000.0 1 50.0 120.0
3 2 4 1000.0 1 50.0 120.0
4 3 4 1000.0 1 50.0 120.0
"""


def test_shortest_path_picks_cheaper_route(tmp_path):
    net = rn.load_network(write(tmp_path, DIAMOND))
    # top route (links 1,3) costs 3, bottom (2,4) costs 2
    cost = {1: 1.0, 2: 1.0, 3: 2.0, 4: 1.0}
    path = rn.shortest_path(net, 1, 4, lambda ln: cost[ln.id])
    assert [ln.id for ln in path] == [2, 4]


def test_shortest_path_tie_breaks_lexicographically(tmp_path):
    net = rn.load_network(write(tmp_path, DIAMOND))
    # both routes cost exactly 2.0; (1,3) < (2,4) as id sequences
    path = rn.shortest_path(net, 1, 4, lambda ln: 1.0)
    assert [ln.id for ln in path] == [1, 3]


def test_shortest_path_trivial_and_unreachable(tmp_path):
    net = rn.load_network(write(tmp_path, DIAMOND))
    assert rn.shortest_path(net, 2, 2, lambda ln: 1.0) == []
    from vanetsim.errors import NoPathError
    with pytest.raises(NoPathError):
        rn.shortest_path(net, 4, 1, lambda ln: 1.0)  # links are one-way

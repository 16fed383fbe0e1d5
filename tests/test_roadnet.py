"""Road-network ingestion, placement, and coverage tests.

The placement oracle is exhaustive set-cover search: for 12 signals,
every subset (smallest first) is checked for full cover under the same
strict-inequality rule, giving the true minimum count the greedy result
is compared against. Spatial queries are checked against a naive scan
over every RSU.
"""

import heapq
import itertools
import math
import random

import pytest

from vanetsim import roadnet as rn
from vanetsim.errors import NoPathError, ParseError, ValidationError


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
    assert net.links[1].length == 1000.0


# One case per loader rule: a section header and one row that breaks the
# rule, appended to TOY so the row sits on line 10, and the reason. A bad
# row stops the load; it is never skipped.
BAD_ROWS = {
    "duplicate-node": ("[nodes]\n2 5.0 5.0", "duplicate node id 2"),
    "node-inf": ("[nodes]\n3 inf 5.0", "node coordinates must be finite"),
    "duplicate-link": ("[links]\n1 2 1 1000.0 1 50.0 120.0", "duplicate link id 1"),
    "length": ("[links]\n2 2 1 0.0 1 50.0 120.0", "link length must be > 0"),
    "lanes": ("[links]\n2 2 1 1000.0 0 50.0 120.0", "lanes must be >= 1"),
    "speed": ("[links]\n2 2 1 1000.0 1 -50.0 120.0", "free-flow speed must be > 0"),
    "jam-density": ("[links]\n2 2 1 1000.0 1 50.0 0.0", "jam density must be > 0"),
    "endpoint": ("[links]\n2 2 9 1000.0 1 50.0 120.0", "link endpoint not a known node"),
    "duplicate-signal": ("[signals]\n1 2", "duplicate signal id 1"),
    "signal-node": ("[signals]\n2 9", "signal node not a known node"),
}


@pytest.mark.parametrize("case", sorted(BAD_ROWS))
def test_bad_row_is_a_parse_error_at_its_line(tmp_path, case):
    extra, reason = BAD_ROWS[case]
    with pytest.raises(ParseError, match=reason) as err:
        rn.load_network(write(tmp_path, TOY + extra + "\n"))
    assert err.value.line == 10


@pytest.mark.parametrize("arg,value", [
    ("spacing", 0.0), ("spacing", math.inf), ("lanes", 0), ("free_speed", -5.0),
    ("free_speed", math.inf), ("jam_density", 0.0), ("jam_density", math.nan)])
def test_gen_grid_and_loader_refuse_the_same_link_values(tmp_path, arg, value):
    with pytest.raises(ValidationError) as err:
        rn.gen_grid(2, 2, **{arg: value})
    assert err.value.field == arg
    link = {"length": 1000.0, "lanes": 1, "free_speed": 50.0, "jam_density": 120.0}
    link["length" if arg == "spacing" else arg] = value
    row = "[links]\n2 2 1 {length!r} {lanes} {free_speed!r} {jam_density!r}\n"
    with pytest.raises(ParseError) as loaded:
        rn.load_network(write(tmp_path, TOY + row.format(**link)))
    assert str(loaded.value).endswith(str(err.value))


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
    idx = rn.CoverageIndex(net, [1, 4], 200.0)
    assert idx.connected_rsu(0.0, 0.0) == 0          # exactly on rsu 0
    assert idx.connected_rsu(150.0, 150.0) is None   # 212 m from both
    assert idx.connected_rsu(5000.0, 5000.0) is None


def test_connected_rsu_tie_goes_to_lower_id():
    nodes = [rn.Node(1, 0.0, 0.0), rn.Node(2, 100.0, 0.0)]
    links = [rn.Link(1, 1, 2, 100.0, 1, 50.0, 120.0)]
    signals = [rn.Signal(1, 1), rn.Signal(2, 2)]
    net = rn.RoadNetwork(nodes, links, signals)
    idx = rn.CoverageIndex(net, [1, 2], 200.0)
    assert idx.connected_rsu(50.0, 0.0) == 0  # equidistant, lower id


def test_count_per_rsu_constructed():
    net = rn.gen_grid(2, 2, spacing=1000.0)
    idx = rn.CoverageIndex(net, [1], 100.0)
    inside = [(0.0, 0.0), (99.0, 0.0), (0.0, 100.0)]   # boundary included
    outside = [(101.0, 0.0), (500.0, 500.0)]
    assert idx.count_per_rsu(inside + outside) == {0: 3}


def test_empty_index_counts_nothing_and_connects_nothing():
    idx = rn.CoverageIndex(rn.gen_grid(2, 2, spacing=100.0), [], 250.0)
    assert list(idx.ids) == []
    assert idx.count_per_rsu([(0.0, 0.0), (50.0, 50.0)]) == {}
    assert idx.connected_rsu(0.0, 0.0) is None


def test_spatial_index_matches_naive_scan():
    rng = random.Random(7)
    net = rn.gen_grid(5, 5, spacing=200.0)
    chosen = rn.place_rsus(net, r_com=350.0)
    reach = 220.0
    idx = rn.CoverageIndex(net, chosen, reach)
    # gen_grid puts signal i on node i
    rsus = [(net.nodes[sid].x, net.nodes[sid].y) for sid in chosen]
    positions = [(rng.uniform(-100, 900), rng.uniform(-100, 900))
                 for _ in range(500)]

    def naive_connected(x, y):
        best, best_d = None, math.inf
        for rid, (rx, ry) in enumerate(rsus):
            d = math.hypot(x - rx, y - ry)
            if d <= reach and d < best_d - 1e-9:
                best, best_d = rid, d
        return best

    for x, y in positions:
        assert idx.connected_rsu(x, y) == naive_connected(x, y)

    counts = idx.count_per_rsu(positions)
    for rid, (rx, ry) in enumerate(rsus):
        naive = sum(1 for x, y in positions
                    if math.hypot(x - rx, y - ry) <= reach)
        assert counts[rid] == naive


def test_coverage_metrics():
    net = rn.gen_grid(4, 4, spacing=150.0)
    chosen = rn.place_rsus(net, r_com=250.0)
    assert rn.signal_coverage_fraction(net, chosen, 250.0) == 1.0
    idx = rn.CoverageIndex(net, chosen, 250.0)
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
    with pytest.raises(NoPathError):
        rn.shortest_path(net, 4, 1, lambda ln: 1.0)  # links are one-way


def reference_shortest_path(network, origin, destination, weight):
    """Label-setting search that pushes every label, pruned or not."""
    if origin == destination:
        return []
    heap = [(0.0, (), origin)]
    settled = set()
    while heap:
        cost, seq, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        if node == destination:
            return [network.links[lid] for lid in seq]
        for link in sorted((ln for ln in network.links.values()
                            if ln.from_node == node), key=lambda ln: ln.id):
            if link.to_node not in settled:
                heapq.heappush(heap, (cost + weight(link), seq + (link.id,),
                                      link.to_node))
    raise NoPathError(f"no path {origin}->{destination}")


def random_network(rng, n_nodes, n_extra):
    """Weakly connected: a random spanning tree plus extra links, some parallel."""
    nodes = [rn.Node(i, float(i), 0.0) for i in range(1, n_nodes + 1)]
    pairs = []
    for i in range(2, n_nodes + 1):
        j = rng.randint(1, i - 1)
        pairs.append((i, j) if rng.random() < 0.5 else (j, i))
    for _ in range(n_extra):
        a, b = rng.sample(range(1, n_nodes + 1), 2)
        pairs.append((a, b))
    rng.shuffle(pairs)
    links = [rn.Link(k, a, b, 100.0, 1, 50.0, 120.0)
             for k, (a, b) in enumerate(pairs, start=1)]
    return rn.RoadNetwork(nodes, links, [])


def test_shortest_path_matches_reference_search():
    # Integer weights, zero included, make exact cost ties common, so the
    # lexicographic tie rule decides many of these queries.
    rng = random.Random(12)
    for _ in range(60):
        n_nodes = rng.randint(2, 14)
        net = random_network(rng, n_nodes, rng.randint(0, 3 * n_nodes))
        cost = {lid: float(rng.randint(0, 3)) for lid in net.links}
        for _ in range(8):
            origin, destination = (rng.randint(1, n_nodes) for _ in range(2))
            calls = {"fast": [], "reference": []}

            def weight(ln, key):
                calls[key].append(ln.id)
                return cost[ln.id]

            got = {}
            for key, search in (("fast", rn.shortest_path),
                                ("reference", reference_shortest_path)):
                try:
                    path = search(net, origin, destination,
                                  lambda ln, key=key: weight(ln, key))
                    got[key] = [ln.id for ln in path]
                except NoPathError:
                    got[key] = None
            assert got["fast"] == got["reference"]
            assert calls["fast"] == calls["reference"]

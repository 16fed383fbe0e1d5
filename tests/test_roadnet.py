"""Road-network ingestion, placement, and coverage tests.

The placement oracle is exhaustive set-cover search: for 12 signals,
every subset (smallest first) is checked for full cover under the same
strict-inequality rule, giving the true minimum count the greedy result
is compared against. The greedy's picks are checked against an
all-pairs greedy that recounts every uncovered signal in every round.
Spatial queries are checked against a naive scan over every RSU.
"""

import bisect
import heapq
import itertools
import math
import random
from collections import Counter

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


@pytest.mark.parametrize("nodes, links, signals, field, message", [
    # with two nodes the connectivity walk, with one the dense index met
    # node 3 first
    ([(1, 0.0, 0.0), (2, 100.0, 0.0)], [(1, 1, 2), (2, 2, 3)], [],
     "links", "link 2 references unknown node 3"),
    ([(1, 0.0, 0.0)], [(1, 1, 3)], [], "links", "link 1 references unknown node 3"),
    ([(1, 0.0, 0.0), (2, 100.0, 0.0)], [(1, 1, 2)], [(1, 5)],
     "signals", "signal 1 references unknown node 5"),
], ids=["link-to-unknown", "one-node", "signal-on-unknown"])
def test_direct_construction_refuses_unknown_nodes(nodes, links, signals, field, message):
    with pytest.raises(ValidationError, match=message) as err:
        rn.RoadNetwork([rn.Node(*n) for n in nodes],
                       [rn.Link(lid, a, b, 100.0, 1, 50.0, 120.0) for lid, a, b in links],
                       [rn.Signal(*s) for s in signals])
    assert err.value.field == field


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


def reference_place_rsus(network, r_com):
    """All-pairs greedy: every round recounts every uncovered signal's cover."""
    pos = {sid: network.nodes[s.node] for sid, s in network.signals.items()}
    uncovered = set(network.signals)
    selected = []
    while uncovered:
        best_id, best_cover = None, None
        for sid in sorted(uncovered):
            cover = {other for other in uncovered
                     if rn._distance(pos[sid], pos[other]) < r_com}
            if best_cover is None or len(cover) > len(best_cover):
                best_id, best_cover = sid, cover
        selected.append(best_id)
        uncovered -= best_cover
    return selected


def cover_instance(rng, layout):
    """Signal points and a range that put the cover rule on one of its edges.

    lattice: neighbors exactly r_com apart before rounding, at a spacing
    such as 0.1 whose multiples round; below: a range under every
    spacing; above: a range over the whole extent; scatter: uniform
    points. Some signals share a node, and signal ids are sparse and
    unordered against node ids.
    """
    n = rng.randint(1, 40)
    ox, oy = rng.choice([0.0, -1000.0, 123.456]), rng.choice([0.0, -0.3, 1e6])
    if layout == "lattice":
        step = rng.choice([0.1, 0.3, 1.0, 150.0, 250.0, 3.7])
        cols = rng.randint(1, 8)
        pts = [(ox + (i % cols) * step, oy + (i // cols) * step)
               for i in range(n)]
        r_com = step * rng.choice([1, 2, 3])
    else:
        pts = [(ox + rng.uniform(0, 1000), oy + rng.uniform(0, 1000))
               for _ in range(n)]
        r_com = rng.uniform(20, 400)
    nodes = [rn.Node(i + 1, x, y) for i, (x, y) in enumerate(pts)]
    links = [rn.Link(i, i, i + 1, 10.0, 1, 50.0, 120.0) for i in range(1, n)]
    hosts = list(range(1, n + 1)) + [rng.randint(1, n)
                                     for _ in range(rng.randint(0, 4))]
    sids = rng.sample(range(1, 10 * len(hosts)), len(hosts))
    signals = [rn.Signal(sid, node) for sid, node in zip(sids, hosts)]
    spread = [math.dist(a, b) for a, b in itertools.combinations(pts, 2)]
    if layout == "below":
        r_com = min((d for d in spread if d > 0), default=1.0) / 2
    elif layout == "above":
        r_com = 2 * max(spread, default=0.0) + 1.0
    return rn.RoadNetwork(nodes, links, signals), r_com


@pytest.mark.parametrize("layout", ["lattice", "below", "above", "scatter"])
def test_place_rsus_matches_reference_greedy(layout):
    rng = random.Random(layout)
    for _ in range(80):
        net, r_com = cover_instance(rng, layout)
        picks = rn.place_rsus(net, r_com)
        assert picks == reference_place_rsus(net, r_com)
        if layout == "above":
            assert picks == [min(net.signals)]
        if layout == "below":  # only signals that share a node cover each other
            assert len(picks) == len({s.node for s in net.signals.values()})


@pytest.mark.parametrize("size", [10, 20])
def test_place_rsus_matches_reference_greedy_on_grids(size):
    net = rn.gen_grid(size, size)
    assert rn.place_rsus(net, 250.0) == reference_place_rsus(net, 250.0)


def test_place_rsus_distance_evaluations_grow_linearly(monkeypatch):
    # the all-pairs greedy makes about 30,000 per signal on this grid
    calls = 0
    distance = rn._distance

    def counted(a, b):
        nonlocal calls
        calls += 1
        return distance(a, b)

    net = rn.gen_grid(30, 30)
    monkeypatch.setattr(rn, "_distance", counted)
    rn.place_rsus(net, rn.RSU_RANGE_M)
    assert 0 < calls <= 100 * len(net.signals)


def reference_coverage_fraction(network, selected, r_com):
    """All-pairs scan: each signal against every pick."""
    pos = {sid: network.nodes[s.node] for sid, s in network.signals.items()}
    covered = sum(1 for sid in network.signals
                  if any(rn._distance(pos[sid], pos[g]) < r_com for g in selected))
    return covered / len(network.signals)


@pytest.mark.parametrize("layout", ["lattice", "below", "above", "scatter"])
def test_signal_coverage_matches_reference_scan(layout):
    rng = random.Random(f"coverage {layout}")
    for _ in range(80):
        net, r_com = cover_instance(rng, layout)
        # a random subset of signals, so partial coverage is checked too
        picks = rng.sample(sorted(net.signals), rng.randint(0, len(net.signals)))
        assert (rn.signal_coverage_fraction(net, picks, r_com)
                == reference_coverage_fraction(net, picks, r_com))


def test_signal_coverage_distance_evaluations_per_signal(monkeypatch):
    # scanning every pick makes about 50 per signal on this grid
    net = rn.gen_grid(30, 30)
    picks = rn.place_rsus(net, rn.RSU_RANGE_M)
    calls = 0
    distance = rn._distance

    def counted(a, b):
        nonlocal calls
        calls += 1
        return distance(a, b)

    monkeypatch.setattr(rn, "_distance", counted)
    assert rn.signal_coverage_fraction(net, picks, rn.RSU_RANGE_M) == 1.0
    assert 0 < calls <= 10 * len(net.signals)


def test_points_in_range_have_neighboring_cell_keys():
    # x = -5e-324 and x = r are computed exactly r apart, yet x / r puts
    # them two cells apart; the cell's margin over the range joins them
    for r in (1.0, 250.0, 1e6):
        cell = rn._cell_size(r, [(-5e-324, 0.0), (r, 0.0)])
        assert rn._cell_key(r, 0.0, cell)[0] - rn._cell_key(-5e-324, 0.0, cell)[0] <= 1
    # magnitudes from 1e-3 to 1e300, ranges from below an ulp of the
    # coordinates up past them, pairs at or just inside the range
    rng = random.Random(11)
    for _ in range(3000):
        mag = 10.0 ** rng.randint(-3, 300)
        ax, ay = rng.uniform(-mag, mag), rng.uniform(-mag, mag)
        r = mag * 10.0 ** rng.uniform(-20, 1)
        if rng.random() < 0.1:
            r = 1e-306
        angle = rng.uniform(0, 2 * math.pi)
        bx, by = ax + r * math.cos(angle), ay + r * math.sin(angle)
        if not math.hypot(ax - bx, ay - by) <= r:
            continue
        cell = rn._cell_size(r, [(ax, ay), (bx, by)])
        (kax, kay), (kbx, kby) = rn._cell_key(ax, ay, cell), rn._cell_key(bx, by, cell)
        assert abs(kax - kbx) <= 1 and abs(kay - kby) <= 1, (ax, ay, bx, by, r)


def tally(idx, points):
    """{cover id: vehicles} from {(x, y): vehicles there}."""
    out = Counter()
    for (x, y), k in points.items():
        out[idx.cover_of(x, y)] += k
    return out


def test_range_below_a_meter_keeps_cell_keys_finite():
    # coordinate / range overflows to inf at 1e-306; each signal covers itself
    net = rn.gen_grid(3, 3, spacing=150.0)
    assert rn.place_rsus(net, 1e-306) == list(range(1, 10))
    idx = rn.CoverageIndex(net, [1, 9], 1e-306)
    assert idx.connected_rsu(0.0, 0.0) == 0
    assert idx.connected_rsu(1e300, -1e300) is None
    assert idx.count_per_rsu(tally(idx, Counter([(0.0, 0.0), (300.0, 300.0),
                                                (1.0, 0.0)]))) == {0: 1, 1: 1}
    alone = rn.CoverageIndex(net, [1], 1e-306)   # one RSU, at the origin
    assert alone.connected_rsu(1e300, 0.0) is None
    assert alone.count_per_rsu(tally(alone, Counter([(0.0, 0.0), (450.0, 450.0)]))) == {
        0: 1}


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
    assert idx.count_per_rsu(tally(idx, Counter(inside + outside))) == {0: 3}


def test_count_per_rsu_weighs_each_point_by_its_vehicles():
    net = rn.gen_grid(2, 2, spacing=1000.0)
    idx = rn.CoverageIndex(net, [1, 2], 100.0)   # at (0, 0) and (1000, 0)
    points = {(0.0, 0.0): 4, (0.0, 100.0): 2, (101.0, 0.0): 7, (950.0, 0.0): 3}
    assert idx.count_per_rsu(tally(idx, points)) == {0: 6, 1: 3}


def test_empty_index_counts_nothing_and_connects_nothing():
    idx = rn.CoverageIndex(rn.gen_grid(2, 2, spacing=100.0), [], 250.0)
    assert list(idx.ids) == []
    assert idx.count_per_rsu(tally(idx, {(0.0, 0.0): 1, (50.0, 50.0): 2})) == {}
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
    positions += rng.choices(positions, k=200)     # vehicles that share a point

    def naive_connected(x, y):
        best, best_d = None, math.inf
        for rid, (rx, ry) in enumerate(rsus):
            d = math.hypot(x - rx, y - ry)
            if d <= reach and d < best_d - 1e-9:
                best, best_d = rid, d
        return best

    for x, y in positions:
        assert idx.connected_rsu(x, y) == naive_connected(x, y)

    counts = idx.count_per_rsu(tally(idx, Counter(positions)))
    for rid, (rx, ry) in enumerate(rsus):
        naive = sum(1 for x, y in positions
                    if math.hypot(x - rx, y - ry) <= reach)
        assert counts[rid] == naive


def _profile_instance(rng):
    """A random diagonal link, near-tangent disks on it and distractors.

    Returns (index, line, profile, RSU coordinates, range). Magnitudes go
    from 1 m to 1e9 m; each disk meets the line at a distance from it of
    range * (1 +- 10**-k), exactly range, or anywhere inside, and one in
    three instances adds 40 RSUs around the link, most of whose disks
    miss it.
    """
    mag = 10.0 ** rng.choice([0, 2, 3, 6, 9])
    ax, ay = rng.uniform(-mag, mag), rng.uniform(-mag, mag)
    length = rng.uniform(1.0, 2000.0)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    ux, uy = math.cos(angle), math.sin(angle)
    bx, by = ax + length * ux, ay + length * uy
    r = rng.choice([1e-306, 10.0 ** rng.uniform(-3.0, 4.0), rng.uniform(1.0, 500.0)])
    rsus = []
    for _ in range(rng.randint(1, 4)):
        foot = rng.uniform(-0.2, 1.2) * length
        k = rng.randint(0, 17)
        h = rng.choice([r, r * (1.0 - 10.0 ** -k), r * (1.0 + 10.0 ** -k),
                        rng.uniform(0.0, r)])
        side = rng.choice([-1.0, 1.0])
        rsus.append((ax + foot * ux - side * h * uy, ay + foot * uy + side * h * ux))
    if rng.random() < 1 / 3:
        spread = length + 4.0 * r
        rsus += [(ax + rng.uniform(-spread, spread), ay + rng.uniform(-spread, spread))
                 for _ in range(40)]
    nodes = [rn.Node(1, ax, ay), rn.Node(2, bx, by)]
    nodes += [rn.Node(i + 3, x, y) for i, (x, y) in enumerate(rsus)]
    # the link's stated length need not be the distance of its nodes
    links = [rn.Link(1, 1, 2, length * rng.choice([1.0, 0.9, 1.1]), 1, 50.0, 120.0)]
    links += [rn.Link(i + 2, 2, i + 3, 1.0, 1, 50.0, 120.0) for i in range(len(rsus))]
    signals = [rn.Signal(i + 1, i + 3) for i in range(len(rsus))]
    net = rn.RoadNetwork(nodes, links, signals)
    idx = rn.CoverageIndex(net, [s.id for s in signals], r)
    return idx, rn.LinkLine(net.links[1], net), idx.profile(1), rsus, r


def test_profile_matches_the_exact_test_at_every_drawn_pos():
    """More than a unit from a cut, the profile answers as the distance test.

    The profile's cuts, in whole position units, are the coverage rule.
    Positions are drawn uniformly and at every unit within 40 of every
    cut. At each one more than a unit from every cut, the profile's cover
    must hold the RSUs that ``cover_of`` finds in range of its point, and
    the carrier's RSU (the cover's nearest to the point) must be
    ``connected_rsu``'s. Where the computed distance to some RSU is
    within 2**-48 * big of the range, big bounding every coordinate and
    the range, ``point`` and ``hypot`` may round enough to decide the
    test themselves (each rounds by a few ulps of big), and such a pos is
    not compared. Near-tangent disks far from the origin put about one
    drawn pos in ten there.
    """
    rng = random.Random(2024)
    checked = near = undecided = 0
    for _ in range(400):
        idx, line, prof, rsus, r = _profile_instance(rng)
        length = line.length
        big = max(abs(line.x0) + abs(line.dx), abs(line.y0) + abs(line.dy),
                  *(max(abs(rx), abs(ry)) for rx, ry in rsus)) + r
        draws = [rng.randint(0, length) for _ in range(50)] + [0, length]
        for cut in prof.cuts:
            draws += range(cut - 40, cut + 41)
        for pos in draws:
            if not 0 <= pos <= length:
                continue
            i = bisect.bisect_right(prof.cuts, pos)
            if any(abs(pos - c) <= 1 for c in prof.cuts[max(i - 1, 0):i + 1]):
                continue
            x, y = line.point(pos)
            if any(abs(math.hypot(x - rx, y - ry) - r) <= 2.0 ** -48 * big
                   for rx, ry in rsus):
                undecided += 1
                continue
            cid = prof.covers[i]
            assert idx.count_per_rsu({cid: 1}) == idx.count_per_rsu(
                {idx.cover_of(x, y): 1}), (pos, length, r)
            assert idx.nearest(cid, x, y) == idx.connected_rsu(x, y), (pos, length, r)
            checked += 1
            near += any(abs(pos - c) <= 40 for c in prof.cuts[max(i - 1, 0):i + 1])
    assert checked > 20_000 and near > 10_000 and undecided < checked / 5


def test_profile_is_built_on_first_use_and_kept():
    net = rn.gen_grid(3, 3, spacing=150.0)
    idx = rn.CoverageIndex(net, [1, 9], 150.0)
    assert idx.profiles == {}
    prof = idx.profile(1)              # node 1 (0, 0) to node 2 (150, 0)
    assert idx.profiles == {1: prof}
    # in range of RSU 0 from the from-node to the to-node, where the disk's
    # edge falls: one stretch, whose span includes the stop line
    assert prof.cuts == [] and len(prof.covers) == 1
    assert idx.count_per_rsu({prof.covers[0]: 1}) == {0: 1, 1: 0}
    # link 6 runs from node 3 (300, 0) to node 2: out of range short of
    # 150 m, then in range for the last unit, the to-node
    prof = idx.profile(6)
    assert prof.cuts == [150 * rn.POS_UNITS]
    assert [idx.count_per_rsu({c: 1})[0] for c in prof.covers] == [0, 1]
    assert idx.profiles.keys() == {1, 6}


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
    assert rn.shortest_path(net, 1, 4, cost.__getitem__) == [2, 4]


def test_shortest_path_tie_breaks_lexicographically(tmp_path):
    net = rn.load_network(write(tmp_path, DIAMOND))
    # both routes cost exactly 2.0; (1,3) < (2,4) as id sequences
    assert rn.shortest_path(net, 1, 4, lambda lid: 1.0) == [1, 3]


def test_shortest_path_trivial_and_unreachable(tmp_path):
    net = rn.load_network(write(tmp_path, DIAMOND))
    assert rn.shortest_path(net, 2, 2, lambda lid: 1.0) == []
    with pytest.raises(NoPathError):
        rn.shortest_path(net, 4, 1, lambda lid: 1.0)  # links are one-way


@pytest.mark.parametrize("origin,destination", [(999, 999), (999, 1), (1, 999)])
def test_shortest_path_refuses_unknown_node_even_to_itself(tmp_path, origin,
                                                           destination):
    net = rn.load_network(write(tmp_path, DIAMOND))
    with pytest.raises(NoPathError, match="unknown node"):
        rn.shortest_path(net, origin, destination, lambda lid: 1.0)


def test_shortest_path_refuses_negative_weight(tmp_path):
    net = rn.load_network(write(tmp_path, DIAMOND))
    with pytest.raises(ValidationError, match="negative weight on link 1"):
        rn.shortest_path(net, 1, 4, lambda lid: -1.0)


def reference_shortest_path(network, origin, destination, weight):
    """Label-setting search over node ids that pushes every label, pruned or not.

    weight takes a link id; the path comes back as link ids.
    """
    if origin not in network.nodes or destination not in network.nodes:
        raise NoPathError(f"unknown node in query {origin}->{destination}")
    if origin == destination:
        return []
    out = {}
    for link in sorted(network.links.values(), key=lambda ln: ln.id):
        out.setdefault(link.from_node, []).append(link)
    heap = [(0.0, (), origin)]
    settled = set()
    while heap:
        cost, seq, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        if node == destination:
            return list(seq)
        for link in out.get(node, ()):
            if link.to_node not in settled:
                heapq.heappush(heap, (cost + weight(link.id), seq + (link.id,),
                                      link.to_node))
    raise NoPathError(f"no path {origin}->{destination}")


def random_network(rng, n_nodes, n_extra, sparse=False):
    """Weakly connected: a random spanning tree plus extra links, some parallel.

    sparse=True draws node and link ids from a wide range and hands
    nodes and links to RoadNetwork in shuffled order, so node ids are
    neither contiguous nor in the dense index's order.
    """
    if sparse:
        ids = rng.sample(range(1, 10 ** 6), n_nodes)
    else:
        ids = list(range(1, n_nodes + 1))
    nodes = [rn.Node(nid, float(k), 0.0) for k, nid in enumerate(ids)]
    pairs = []
    for i in range(1, n_nodes):
        j = rng.randint(0, i - 1)
        pairs.append((ids[i], ids[j]) if rng.random() < 0.5 else (ids[j], ids[i]))
    for _ in range(n_extra):
        pairs.append(tuple(rng.sample(ids, 2)))
    rng.shuffle(pairs)
    lids = (rng.sample(range(1, 10 ** 6), len(pairs)) if sparse
            else range(1, len(pairs) + 1))
    links = [rn.Link(k, a, b, 100.0, 1, 50.0, 120.0)
             for k, (a, b) in zip(lids, pairs)]
    if sparse:
        rng.shuffle(nodes)
        rng.shuffle(links)
    return rn.RoadNetwork(nodes, links, [])


def assert_searches_agree(net, origin, destination, make_weight):
    """Same path (or NoPathError) and the same weight calls, in order.

    make_weight() gives each search a fresh weight(lid), so a weight that
    draws from a stream draws from its own copy.
    """
    got, calls = {}, {}
    for key, search in (("fast", rn.shortest_path),
                        ("reference", reference_shortest_path)):
        weight, seen = make_weight(), calls.setdefault(key, [])

        def recorded(lid, weight=weight, seen=seen):
            seen.append(lid)
            return weight(lid)

        try:
            got[key] = search(net, origin, destination, recorded)
        except NoPathError:
            got[key] = None
    assert got["fast"] == got["reference"]
    assert calls["fast"] == calls["reference"]
    return got["fast"]


def test_shortest_path_matches_reference_search():
    # Integer weights, zero included, make exact cost ties common, so the
    # lexicographic tie rule decides many of these queries.
    rng = random.Random(12)
    for sparse in (False, True):
        for _ in range(60):
            n_nodes = rng.randint(2, 14)
            net = random_network(rng, n_nodes, rng.randint(0, 3 * n_nodes), sparse)
            cost = {lid: float(rng.randint(0, 3)) for lid in net.links}
            ids = sorted(net.nodes)
            for _ in range(8):
                origin, destination = (rng.choice(ids) for _ in range(2))
                assert_searches_agree(net, origin, destination,
                                      lambda: cost.__getitem__)


def test_shortest_path_matches_reference_with_dead_ends_and_parallel_links():
    # Sparse shuffled ids; each network has nodes without out-links and
    # pairs of nodes joined by several links of one direction.
    rng = random.Random(5)
    seen_dead_end = seen_parallel = False
    for _ in range(40):
        n_nodes = rng.randint(3, 12)
        net = random_network(rng, n_nodes, 0, sparse=True)
        links = list(net.links.values())
        for _ in range(rng.randint(1, 6)):   # parallel copies of tree links
            ln = rng.choice(links)
            links.append(rn.Link(max(net.links) + len(links), ln.from_node,
                                 ln.to_node, 100.0, 1, 50.0, 120.0))
        net = rn.RoadNetwork(list(net.nodes.values()), links, [])
        tails = {ln.from_node for ln in links}
        seen_dead_end |= any(nid not in tails for nid in net.nodes)
        seen_parallel |= len({(ln.from_node, ln.to_node) for ln in links}) < len(links)
        cost = {lid: float(rng.randint(0, 2)) for lid in net.links}
        for origin in net.nodes:
            for destination in net.nodes:
                assert_searches_agree(net, origin, destination,
                                      lambda: cost.__getitem__)
    assert seen_dead_end and seen_parallel


def test_shortest_path_matches_reference_on_grid_with_noisy_costs():
    # The router's protocol: float costs times a fresh noise factor per
    # weight call.
    net = rn.gen_grid(30, 30)
    rng = random.Random(3)
    cost = {lid: rng.uniform(0.005, 0.02) for lid in net.links}
    nodes = sorted(net.nodes)
    for q in range(200):
        origin, destination = rng.sample(nodes, 2)

        def make_weight(q=q):
            draw = random.Random(q).random
            return lambda lid: cost[lid] * (1.0 + (-0.15 + 0.3 * draw()))

        path = assert_searches_agree(net, origin, destination, make_weight)
        assert path and net.links[path[0]].from_node == origin
        assert net.links[path[-1]].to_node == destination

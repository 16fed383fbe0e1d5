"""Road network: ingestion, grid generation, RSU placement, coverage.

Networks are directed graphs on planar metric coordinates. The file
format is a sectioned text table (see `load_network`); a generator for
Manhattan grids is included so experiments do not depend on external
data. RSUs sit on signal nodes and are chosen by a greedy cover loop:
repeatedly pick the signal whose communication disk covers the most
still-uncovered signals (strictly closer than the range), lowest id on
ties, until every signal is covered. `place_rsus` builds each signal's
cover set once, testing only the signals in the 3x3 block of grid
cells around it, and keeps the greedy counts in a lazy heap that
recounts a signal only when it comes to the top (Minoux's accelerated
greedy). The picks, and their order, are those of recounting every
uncovered signal in every round.

The RSU layout lives in `CoverageIndex`: the placed signals, one
shared range, and a uniform grid index whose cells are at least that
range wide (`_cell_size`), so any disk lies in the 3x3 cell
neighborhood of its center. It also builds, on first use, a coverage
profile per link (`LinkProfile`): the positions along the link where an
RSU's disk starts or ends, rounded once to whole position units
(``POS_UNITS`` per metre). The cuts are the coverage rule: a position
is in range of an RSU when it lies in that RSU's span of cuts.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import NoPathError, ParseError, ValidationError

GRID_ROWS = 10
GRID_COLS = 10
GRID_SPACING_M = 150.0
FREE_SPEED_KMH = 50.0
JAM_DENSITY = 120.0      # veh/km/lane
LANES = 1
RSU_RANGE_M = 250.0
COVERAGE_SAMPLES_PER_LINK = 10   # interior points of link_length_coverage
MIN_CELL_M = 1.0   # grid cells at least this wide keep every x / cell finite
# position units per metre along a link: a step of 0.1 s at a speed of n
# thousandths of a km/h moves n units (see traffic)
POS_UNITS = 36_000


@dataclass(frozen=True)
class Node:
    id: int
    x: float
    y: float


@dataclass(frozen=True)
class Link:
    id: int
    from_node: int
    to_node: int
    length: float        # meters
    lanes: int
    free_speed: float    # km/h
    jam_density: float   # veh/km/lane


@dataclass(frozen=True)
class Signal:
    id: int
    node: int


class RoadNetwork:
    """Immutable after construction; safe to share between threads.

    ``_index`` maps node ids to 0..n-1, and ``_adj[i]`` holds the
    (head index, link id) pairs of node i's out-links, sorted by link id;
    only `shortest_path` reads them.
    """

    def __init__(self, nodes, links, signals):
        self.nodes: dict[int, Node] = {n.id: n for n in nodes}
        self.links: dict[int, Link] = {l.id: l for l in links}
        self.signals: dict[int, Signal] = {s.id: s for s in signals}
        self._signal_nodes = frozenset(s.node for s in self.signals.values())
        self._validate()
        index = self._index = {nid: i for i, nid in enumerate(self.nodes)}
        adj: list[list[tuple[int, int]]] = [[] for _ in index]
        for lid in sorted(self.links):
            link = self.links[lid]
            adj[index[link.from_node]].append((index[link.to_node], lid))
        self._adj = [tuple(out) for out in adj]

    def _validate(self) -> None:
        if not self.nodes:
            raise ValidationError("empty node list")
        # before the connectivity walk and the dense index, which look
        # every endpoint up
        for link in self.links.values():
            for end in (link.from_node, link.to_node):
                if end not in self.nodes:
                    raise ValidationError(
                        f"link {link.id} references unknown node {end}", field="links")
        for sig in self.signals.values():
            if sig.node not in self.nodes:
                raise ValidationError(
                    f"signal {sig.id} references unknown node {sig.node}",
                    field="signals")
        if not self._weakly_connected():
            raise ValidationError("graph is not weakly connected")

    def _weakly_connected(self) -> bool:
        if len(self.nodes) == 1:
            return True
        neigh: dict[int, set[int]] = {nid: set() for nid in self.nodes}
        for link in self.links.values():
            neigh[link.from_node].add(link.to_node)
            neigh[link.to_node].add(link.from_node)
        seen = set()
        stack = [next(iter(self.nodes))]
        while stack:
            nid = stack.pop()
            if nid in seen:
                continue
            seen.add(nid)
            stack.extend(neigh[nid] - seen)
        return len(seen) == len(self.nodes)

    def has_signal(self, node_id: int) -> bool:
        return node_id in self._signal_nodes


def _distance(a: Node, b: Node) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


# --- ingestion ----------------------------------------------------------

_SCHEMA = {
    "nodes": (Node, (int, float, float)),
    "links": (Link, (int, int, int, float, int, float, float)),
    "signals": (Signal, (int, int)),
}


def link_error(length: float, lanes: int, free_speed: float,
               jam_density: float) -> tuple[str, str] | None:
    """The first link rule the values break, as (Link field, reason), or None.

    A link has a finite length, free-flow speed and jam density, each
    > 0, and at least one lane. The file loader and gen_grid both apply
    these rules, so a generated network always loads back.
    """
    if not 0 < length < math.inf:
        return "length", f"link length must be > 0 and finite, got {length}"
    if lanes < 1:
        return "lanes", f"lanes must be >= 1, got {lanes}"
    if not 0 < free_speed < math.inf:
        return "free_speed", f"free-flow speed must be > 0 and finite, got {free_speed}"
    if not 0 < jam_density < math.inf:
        return "jam_density", f"jam density must be > 0 and finite, got {jam_density}"
    return None


def _row_error(section, fields, seen, nodes):
    """Domain check for one parsed row; returns a reason or None.

    seen holds the section's rows accepted so far, nodes the node table.
    """
    if fields[0] in seen:
        return f"duplicate {section[:-1]} id {fields[0]}"
    if section == "nodes" and not all(map(math.isfinite, fields[1:])):
        return "node coordinates must be finite"
    if section == "links":
        _, a, b, length, lanes, vf, kjam = fields
        error = link_error(length, lanes, vf, kjam)
        if error is not None:
            return error[1]
        if a not in nodes or b not in nodes:
            return "link endpoint not a known node"
    if section == "signals" and fields[1] not in nodes:
        return "signal node not a known node"
    return None


def load_network(path) -> RoadNetwork:
    """Parse a sectioned network file.

    Grammar (whitespace-separated; `#` starts a comment; header first):

        # format: roadnet v1
        [nodes]    id x_m y_m
        [links]    id from to length_m lanes free_kmh jam_veh_km_lane
        [signals]  id node

    RSUs are not part of the file. `run` and `sweep` place them with
    `place_rsus` over the scenario's `[rsu] range_m`, and `place-rsus`
    over its `--range`; an `[rsus]` section raises ParseError as an
    unknown section.

    A row that does not parse, or that breaks a domain rule (duplicate
    id; a node coordinate that is not finite; a link rule of `link_error`;
    unknown endpoint or signal node), raises ParseError with its line
    number; violated network-level invariants raise ValidationError.
    """
    spath = str(path)
    with open(path, encoding="utf-8") as fp:
        lines = fp.read().splitlines()
    if not lines or not lines[0].lstrip().startswith("# format: roadnet "):
        raise ParseError("missing '# format: roadnet v1' header",
                         path=spath, line=1)

    rows: dict[str, list[tuple[int, tuple]]] = {k: [] for k in _SCHEMA}
    section = None
    for no, raw in enumerate(lines[1:], start=2):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            name = line.strip("[]").strip()
            if name not in _SCHEMA:
                raise ParseError(f"unknown section {name!r}", path=spath, line=no)
            section = name
            continue
        if section is None:
            raise ParseError("data before any [section]", path=spath, line=no)
        tokens = line.split()
        types = _SCHEMA[section][1]
        if len(tokens) != len(types):
            raise ParseError(
                f"{section} row needs {len(types)} fields, got {len(tokens)}",
                path=spath, line=no)
        try:
            fields = tuple(t(tok) for t, tok in zip(types, tokens))
        except ValueError as exc:
            raise ParseError(f"bad {section} row: {exc}", path=spath, line=no)
        rows[section].append((no, fields))

    tables: dict[str, dict] = {}
    for section, (cls, _) in _SCHEMA.items():
        seen = tables[section] = {}
        for no, f in rows[section]:
            reason = _row_error(section, f, seen, tables["nodes"])
            if reason is not None:
                raise ParseError(reason, path=spath, line=no)
            seen[f[0]] = cls(*f)
    return RoadNetwork(tables["nodes"].values(), tables["links"].values(),
                       tables["signals"].values())


def write_network(path, network: RoadNetwork) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        fp.write("# format: roadnet v1\n[nodes]\n")
        for n in sorted(network.nodes.values(), key=lambda n: n.id):
            fp.write(f"{n.id} {n.x!r} {n.y!r}\n")
        fp.write("[links]\n")
        for l in sorted(network.links.values(), key=lambda l: l.id):
            fp.write(f"{l.id} {l.from_node} {l.to_node} {l.length!r} "
                     f"{l.lanes} {l.free_speed!r} {l.jam_density!r}\n")
        fp.write("[signals]\n")
        for s in sorted(network.signals.values(), key=lambda s: s.id):
            fp.write(f"{s.id} {s.node}\n")


def gen_grid(rows: int = GRID_ROWS, cols: int = GRID_COLS,
             spacing: float = GRID_SPACING_M, free_speed: float = FREE_SPEED_KMH,
             jam_density: float = JAM_DENSITY, lanes: int = LANES) -> RoadNetwork:
    """Manhattan grid: every intersection signalized, links both ways.

    Values that break a link rule (`link_error`), or that put a node
    beyond float range, raise ValidationError whose field names the
    refused argument.
    """
    if rows < 2:
        raise ValidationError(f"grid needs at least 2 rows, got {rows}", field="rows")
    if cols < 2:
        raise ValidationError(f"grid needs at least 2 columns, got {cols}",
                              field="cols")
    error = link_error(spacing, lanes, free_speed, jam_density)
    if error is not None:
        name, reason = error
        raise ValidationError(reason, field="spacing" if name == "length" else name)
    if not math.isfinite((max(rows, cols) - 1) * spacing):
        raise ValidationError(f"grid of {rows}x{cols} nodes at {spacing} m spacing "
                              f"has coordinates beyond float range", field="spacing")
    nodes = [Node(id=r * cols + c + 1, x=c * spacing, y=r * spacing)
             for r in range(rows) for c in range(cols)]
    links = []
    lid = itertools.count(1)
    for r in range(rows):
        for c in range(cols):
            here = r * cols + c + 1
            for dr, dc in ((0, 1), (1, 0)):
                rr, cc = r + dr, c + dc
                if rr >= rows or cc >= cols:
                    continue
                there = rr * cols + cc + 1
                for a, b in ((here, there), (there, here)):
                    links.append(Link(id=next(lid), from_node=a, to_node=b,
                                      length=spacing, lanes=lanes,
                                      free_speed=free_speed,
                                      jam_density=jam_density))
    signals = [Signal(id=n.id, node=n.id) for n in nodes]
    return RoadNetwork(nodes, links, signals)


def shortest_path(network: RoadNetwork, origin: int, destination: int,
                  weight) -> list[int]:
    """Deterministic label-setting minimum-cost path, as a list of link ids.

    weight(link_id) must be >= 0. It is called once for each link
    inspected, when the link's tail node is settled, and every node
    settles at most once per query. Exact cost ties resolve to the
    lexicographically smallest link-id sequence, which makes route choice
    reproducible on symmetric networks. Both nodes must exist, even when
    they are the same one (then the path is empty); an unknown node, or
    no path, raises NoPathError.

    The search runs over the network's dense node index: labels, lowest
    costs and settled marks are indexed by node position, and the heap
    holds (cost, link ids so far, node position). Two labels with equal
    cost and link ids are for the same node, so the position never
    decides an order that the node id would not.

    A label costlier than the cheapest one already pushed for its node
    can only pop after that node settles, so it is not pushed; a label
    of equal cost is, since its link ids may win the tie.
    """
    index = network._index
    src, dst = index.get(origin), index.get(destination)
    if src is None or dst is None:
        raise NoPathError(f"unknown node in query {origin}->{destination}")
    if src == dst:
        return []
    push, pop = heapq.heappush, heapq.heappop
    adj = network._adj
    heap = [(0.0, (), src)]
    best = [math.inf] * len(adj)  # lowest cost pushed per node
    best[src] = 0.0
    settled = [False] * len(adj)
    while heap:
        cost, seq, node = pop(heap)
        if settled[node]:
            continue
        settled[node] = True
        if node == dst:
            return list(seq)
        for to, lid in adj[node]:
            if settled[to]:
                continue
            w = weight(lid)
            if w < 0:
                raise ValidationError(f"negative weight on link {lid}")
            c = cost + w
            if c > best[to]:
                continue
            best[to] = c
            push(heap, (c, seq + (lid,), to))
    raise NoPathError(f"no path {origin}->{destination}")


# --- grid cells ---------------------------------------------------------

_CELL_MARGIN = 2.0 ** -20


def _cell_size(range_m: float, xy) -> float:
    """Side of the square cells that index the points xy for disks of range_m.

    Two points whose computed distance is at most range_m get cell keys
    (`_cell_key`) that differ by at most 1 in each axis, so the 3x3
    block of cells around one holds every point in range of it. Why:
    hypot is never below |fl(dx)|, so the exact |dx| is at most
    range_m * (1 + 2u), u = 2**-53, and each computed quotient x / cell
    is off by at most u * |x| / cell, where |x| is at most the largest
    coordinate of xy plus range_m. The cell exceeds both range_m and
    2**-20 times that largest coordinate by the factor 1 + 2**-20, which
    keeps the difference of two computed quotients below 1 and that of
    their floors at most 1, even where a quotient rounds onto a cell
    edge.

    The cell is also at least MIN_CELL_M wide, so x / cell stays finite
    for every finite x, however small the range.
    """
    span = max((max(abs(x), abs(y)) for x, y in xy), default=0.0)
    return max(range_m, span * _CELL_MARGIN, MIN_CELL_M) * (1.0 + _CELL_MARGIN)


def _cell_key(x: float, y: float, cell: float) -> tuple[int, int]:
    return math.floor(x / cell), math.floor(y / cell)


def _bucket(xy, cell: float) -> dict[tuple[int, int], list[int]]:
    """Indices of the points xy by cell key, each bucket in index order."""
    buckets: dict[tuple[int, int], list[int]] = {}
    for i, (x, y) in enumerate(xy):
        buckets.setdefault(_cell_key(x, y, cell), []).append(i)
    return buckets


def _near(buckets, key):
    """The indices in the 3x3 block of cells around key."""
    cx, cy = key
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            yield from buckets.get((cx + dx, cy + dy), ())


# --- RSU placement ------------------------------------------------------

def place_rsus(network: RoadNetwork, r_com: float) -> list[int]:
    """Greedy signal cover; returns selected signal ids in pick order.

    A signal covers another iff their node distance is strictly below
    r_com (a signal always covers itself). Each round picks the
    uncovered signal that covers the most still-uncovered signals
    (lowest id on ties) and removes its covered set. Terminates with
    every signal covered.

    Cover sets are built once: the signals are bucketed in grid cells
    (`_cell_size`) and only pairs in neighboring cells are tested, each
    pair once. The rounds keep a heap of (-count, rank in id order),
    whose counts can only be too high, since covering signals only
    lowers them. A popped signal that is still uncovered is recounted:
    it is pushed back if its count fell and picked if not, because no
    other entry can then beat it or tie it with a lower id. The picks
    and their order are those of recounting every uncovered signal in
    every round, at near-linear instead of cubic cost.
    """
    if not network.signals:
        raise ValidationError("network has no signals")
    if not r_com > 0:
        raise ValidationError(f"r_com must be > 0, got {r_com}", field="r_com")
    sids = sorted(network.signals)
    nodes = [network.nodes[network.signals[sid].node] for sid in sids]
    xy = [(node.x, node.y) for node in nodes]
    buckets = _bucket(xy, _cell_size(r_com, xy))
    cover = [{i} for i in range(len(sids))]
    for key, members in buckets.items():
        near = list(_near(buckets, key))
        for i in members:
            for j in near:
                if j > i and _distance(nodes[i], nodes[j]) < r_com:
                    cover[i].add(j)
                    cover[j].add(i)
    heap = [(-len(c), i) for i, c in enumerate(cover)]
    heapq.heapify(heap)
    uncovered = set(range(len(sids)))
    selected: list[int] = []
    while uncovered:
        neg_count, i = heapq.heappop(heap)
        if i not in uncovered:
            continue
        count = len(cover[i] & uncovered)
        if count < -neg_count:
            heapq.heappush(heap, (-count, i))
        else:
            selected.append(sids[i])
            uncovered -= cover[i]
    return selected


def signal_coverage_fraction(network: RoadNetwork, selected, r_com: float) -> float:
    """Share of signals strictly closer than r_com to some selected signal.

    The signals are bucketed in grid cells (`_cell_size`), so each pick
    tests only the signals in the 3x3 block of cells around it, and only
    those not yet covered.
    """
    nodes = [network.nodes[s.node] for s in network.signals.values()]
    xy = [(node.x, node.y) for node in nodes]
    cell = _cell_size(r_com, xy)
    buckets = _bucket(xy, cell)
    covered: set[int] = set()
    for sid in selected:
        pick = network.nodes[network.signals[sid].node]
        for i in _near(buckets, _cell_key(pick.x, pick.y, cell)):
            if i not in covered and _distance(nodes[i], pick) < r_com:
                covered.add(i)
    return len(covered) / len(network.signals)


def link_length_coverage(network: RoadNetwork, index: "CoverageIndex") -> float:
    """Fraction of link length within some RSU disk, by midpoint sampling.

    Signal cover is guaranteed by construction; area cover is not. This
    reports the residual: each link is sampled at evenly spaced interior
    points and the covered sample fraction is weighted by link length.
    """
    total = covered = 0.0
    for link in network.links.values():
        a = network.nodes[link.from_node]
        b = network.nodes[link.to_node]
        hit = 0
        for i in range(COVERAGE_SAMPLES_PER_LINK):
            t = (i + 0.5) / COVERAGE_SAMPLES_PER_LINK
            x = a.x + t * (b.x - a.x)
            y = a.y + t * (b.y - a.y)
            if index.connected_rsu(x, y) is not None:
                hit += 1
        total += link.length
        covered += link.length * hit / COVERAGE_SAMPLES_PER_LINK
    return covered / total if total else 0.0


# --- coverage index -----------------------------------------------------

class LinkLine:
    """A link as a line: ``pos`` units along it lie at ``point(pos)``.

    ``length`` is the link's stated length in whole position units
    (``POS_UNITS`` per metre). The point is interpolated between the
    link's end nodes by pos / length, so pos == length is the to-node and
    every pos lies on the line through both nodes, whatever the link's
    stated length.
    """

    __slots__ = ("length", "x0", "y0", "dx", "dy")

    def __init__(self, link: Link, network: RoadNetwork):
        a = network.nodes[link.from_node]
        b = network.nodes[link.to_node]
        self.length = round(link.length * POS_UNITS)
        self.x0, self.y0 = a.x, a.y
        self.dx, self.dy = b.x - a.x, b.y - a.y

    def point(self, pos: int) -> tuple[float, float]:
        """Plane coordinates of ``pos`` units along the link."""
        f = pos / self.length
        return self.x0 + self.dx * f, self.y0 + self.dy * f


class LinkProfile(NamedTuple):
    """Which RSUs a position along a link is in range of.

    A pos falls in entry ``bisect_right(cuts, pos)`` of ``covers``: the id
    of the set of RSUs whose span on the link holds that pos (see
    `CoverageIndex.profile`). This is the coverage rule of the recount
    and of the uplink; `CoverageIndex.cover_of`, the distance test on a
    point, agrees with it wherever the pos is more than a unit from a
    cut and the test is not decided by its own rounding.
    """
    cuts: list[int]
    covers: list[int]


class CoverageIndex:
    """The RSU layout and its uniform-grid spatial index.

    RSU i sits on the node of signal signal_ids[i]; every RSU reaches
    range_m, and the grid's cells are at least that wide (`_cell_size`).
    With no signal ids every count map is empty and no position is
    connected.

    A set of RSUs (in id order) that share a point's range is a cover,
    known by a small integer id (`cover_of`). ``profiles`` holds each
    link's `LinkProfile` once `profile` has built it.
    """

    def __init__(self, network: RoadNetwork, signal_ids, range_m: float):
        self.range_m = range_m
        self.network = network
        nodes = [network.nodes[network.signals[sid].node] for sid in signal_ids]
        self._xy = [(node.x, node.y) for node in nodes]
        self.ids = range(len(self._xy))
        self._cell = _cell_size(range_m, self._xy)
        self._buckets = _bucket(self._xy, self._cell)
        self._covers: list[tuple[int, ...]] = []      # cover id -> RSU ids
        self._cover_ids: dict[tuple[int, ...], int] = {}
        self.profiles: dict[int, LinkProfile] = {}

    def _in_range(self, x: float, y: float):
        """The RSU ids whose range holds (x, y): hypot(x - rx, y - ry) <= range_m."""
        rng = self.range_m
        xy = self._xy
        return [rid for rid in _near(self._buckets, _cell_key(x, y, self._cell))
                if math.hypot(x - xy[rid][0], y - xy[rid][1]) <= rng]

    def connected_rsu(self, x: float, y: float) -> int | None:
        """Nearest in-range RSU id; ties within 1e-9 m go to lowest id."""
        return self._nearest(self._in_range(x, y), x, y)

    def nearest(self, cid: int, x: float, y: float) -> int | None:
        """The RSU of cover cid nearest (x, y), ties as in `connected_rsu`.

        None for the cover with no RSU.
        """
        return self._nearest(self._covers[cid], x, y)

    def _nearest(self, rids, x: float, y: float) -> int | None:
        best_id = None
        best_d = math.inf
        for rid in rids:
            rx, ry = self._xy[rid]
            d = math.hypot(x - rx, y - ry)
            if d < best_d - 1e-9 or (abs(d - best_d) <= 1e-9
                                     and (best_id is None or rid < best_id)):
                best_id, best_d = rid, d
        return best_id

    def cover_of(self, x: float, y: float) -> int:
        """Cover id of the RSUs in range of (x, y): hypot(x - rx, y - ry) <= range_m."""
        return self._cover_id(tuple(sorted(self._in_range(x, y))))

    def count_per_rsu(self, tallies) -> dict[int, int]:
        """Vehicles in range of each RSU, from {cover id: vehicles}."""
        counts = dict.fromkeys(self.ids, 0)
        covers = self._covers
        for cid, k in tallies.items():
            for rid in covers[cid]:
                counts[rid] += k
        return counts

    def profile(self, lid: int) -> LinkProfile:
        """Build link lid's coverage profile and keep it in ``profiles``.

        Each RSU whose disk meets the link spans the whole units
        [lo, hi] of `_disk_span`, and adds the cuts lo and hi + 1. A
        stretch between two cuts gets the cover of the RSUs whose span
        holds its first pos.
        """
        line = LinkLine(self.network.links[lid], self.network)
        spans = []
        for rid in self.ids:
            span = _disk_span(line, *self._xy[rid], self.range_m)
            if span is not None:
                spans.append((rid, *span))
        cuts = sorted({c for _, lo, hi in spans for c in (lo, hi + 1)
                       if 0 < c <= line.length})
        covers = [self._cover_id(tuple(rid for rid, lo, hi in spans if lo <= start <= hi))
                  for start in [0, *cuts]]
        prof = self.profiles[lid] = LinkProfile(cuts, covers)
        return prof

    def _cover_id(self, cover: tuple[int, ...]) -> int:
        cid = self._cover_ids.get(cover)
        if cid is None:
            cid = self._cover_ids[cover] = len(self._covers)
            self._covers.append(cover)
        return cid


def _disk_span(line: LinkLine, rx: float, ry: float, range_m: float):
    """The pos along line whose points lie within range_m of (rx, ry).

    Returns (lo, hi) in whole position units, rounded to the nearest,
    with [lo, hi] the span in range, or None where the disk misses the
    line. The distance from the line's point at pos to the RSU is
    sqrt(h**2 + (s*pos - t)**2), with h the RSU's distance from the
    line, t its foot along it and s = |d| / length; the span is where
    that is at most range_m. Coordinates are first scaled by a power of
    two to at most 2, which keeps the squares finite. A link whose nodes
    coincide is one point, in range or not as a whole.
    """
    big = max(abs(line.x0) + abs(line.dx), abs(line.y0) + abs(line.dy),
              abs(rx), abs(ry)) + range_m
    scale = 2.0 ** (math.frexp(big)[1] - 1)
    dx, dy = line.dx / scale, line.dy / scale
    qx, qy = rx / scale - line.x0 / scale, ry / scale - line.y0 / scale
    r = range_m / scale
    norm = math.hypot(dx, dy)
    if norm == 0.0:
        return (0, line.length) if math.hypot(qx, qy) <= r else None
    t = (qx * dx + qy * dy) / norm
    h = abs(qx * dy - qy * dx) / norm
    reach = r * r - h * h
    if not reach >= 0.0:
        return None
    w = math.sqrt(reach)
    lo = max((t - w) / norm * line.length, -1.0)
    hi = min((t + w) / norm * line.length, line.length + 1.0)
    return round(lo), round(hi)

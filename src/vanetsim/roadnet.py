"""Road network: ingestion, grid generation, RSU placement, coverage.

Networks are directed graphs on planar metric coordinates. The file
format is a sectioned text table (see `load_network`); a generator for
Manhattan grids is included so experiments do not depend on external
data. RSUs sit on signal nodes and are chosen by a greedy cover loop:
repeatedly pick the signal whose communication disk covers the most
still-uncovered signals (strictly closer than the range), lowest id on
ties, until every signal is covered.

Coverage queries run through a uniform grid index whose cell size is
the largest RSU range, so any disk intersects at most the 3x3 cell
neighborhood of its center.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field

from .errors import NoPathError, ParseError, ValidationError

GRID_ROWS = 10
GRID_COLS = 10
GRID_SPACING_M = 150.0
FREE_SPEED_KMH = 50.0
JAM_DENSITY = 120.0      # veh/km/lane
LANES = 1
RSU_RANGE_M = 250.0


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


@dataclass(frozen=True)
class Rsu:
    id: int
    node: int
    range_m: float


@dataclass
class IngestionReport:
    rejected: list[tuple[int, str]] = field(default_factory=list)
    accepted: int = 0

    def reject(self, line_no: int, reason: str) -> None:
        self.rejected.append((line_no, reason))


class RoadNetwork:
    """Immutable after construction; safe to share between threads."""

    def __init__(self, nodes, links, signals, rsus=(), report=None):
        self.nodes: dict[int, Node] = {n.id: n for n in nodes}
        self.links: dict[int, Link] = {l.id: l for l in links}
        self.signals: dict[int, Signal] = {s.id: s for s in signals}
        self.rsus: tuple[Rsu, ...] = tuple(rsus)
        self.report = report if report is not None else IngestionReport()
        self._out: dict[int, tuple[Link, ...]] = {}
        grouped: dict[int, list[Link]] = {}
        for link in self.links.values():
            grouped.setdefault(link.from_node, []).append(link)
        for nid, out in grouped.items():
            self._out[nid] = tuple(sorted(out, key=lambda l: l.id))
        self._signal_nodes = frozenset(s.node for s in self.signals.values())
        self._validate()

    def _validate(self) -> None:
        if not self.nodes:
            raise ValidationError("empty node list")
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

    def out_links(self, node_id: int) -> tuple[Link, ...]:
        return self._out.get(node_id, ())

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def link(self, link_id: int) -> Link:
        return self.links[link_id]

    def has_signal(self, node_id: int) -> bool:
        return node_id in self._signal_nodes

    def with_rsus(self, signal_ids, range_m: float) -> "RoadNetwork":
        """New network with RSUs installed on the given signals."""
        rsus = [Rsu(id=i, node=self.signals[sid].node, range_m=range_m)
                for i, sid in enumerate(signal_ids)]
        return RoadNetwork(self.nodes.values(), self.links.values(),
                           self.signals.values(), rsus, self.report)


def _distance(a: Node, b: Node) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


# --- ingestion ----------------------------------------------------------

_SECTIONS = ("nodes", "links", "signals", "rsus")


def _row_error(kind, fields):
    """Domain check for one parsed row; returns a reason or None."""
    if kind == "links":
        _, _, _, length, lanes, vf, kjam = fields
        if length <= 0:
            return "link length must be > 0"
        if lanes < 1:
            return "lanes must be >= 1"
        if vf <= 0:
            return "free-flow speed must be > 0"
        if kjam <= 0:
            return "jam density must be > 0"
    if kind == "rsus" and fields[2] <= 0:
        return "rsu range must be > 0"
    return None


def load_network(path) -> RoadNetwork:
    """Parse a sectioned network file.

    Grammar (whitespace-separated; `#` starts a comment; header first):

        # format: roadnet v1
        [nodes]    id x_m y_m
        [links]    id from to length_m lanes free_kmh jam_veh_km_lane
        [signals]  id node
        [rsus]     id node range_m        (section optional)

    Rows that parse but violate a domain rule (bad length, unknown
    endpoint, duplicate id) are skipped and listed in network.report;
    unparseable rows raise ParseError with the line number; violated
    network-level invariants raise ValidationError.
    """
    spath = str(path)
    with open(path, encoding="utf-8") as fp:
        lines = fp.read().splitlines()
    if not lines or not lines[0].lstrip().startswith("# format: roadnet "):
        raise ParseError("missing '# format: roadnet v1' header",
                         path=spath, line=1)

    schema = {
        "nodes": (int, float, float),
        "links": (int, int, int, float, int, float, float),
        "signals": (int, int),
        "rsus": (int, int, float),
    }
    rows: dict[str, list[tuple[int, tuple]]] = {k: [] for k in _SECTIONS}
    section = None
    for no, raw in enumerate(lines[1:], start=2):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            name = line.strip("[]").strip()
            if name not in _SECTIONS:
                raise ParseError(f"unknown section {name!r}", path=spath, line=no)
            section = name
            continue
        if section is None:
            raise ParseError("data before any [section]", path=spath, line=no)
        tokens = line.split()
        types = schema[section]
        if len(tokens) != len(types):
            raise ParseError(
                f"{section} row needs {len(types)} fields, got {len(tokens)}",
                path=spath, line=no)
        try:
            fields = tuple(t(tok) for t, tok in zip(types, tokens))
        except ValueError as exc:
            raise ParseError(f"bad {section} row: {exc}", path=spath, line=no)
        rows[section].append((no, fields))

    report = IngestionReport()
    nodes: dict[int, Node] = {}
    for no, f in rows["nodes"]:
        if f[0] in nodes:
            report.reject(no, f"duplicate node id {f[0]}")
            continue
        nodes[f[0]] = Node(*f)
        report.accepted += 1

    links: dict[int, Link] = {}
    for no, f in rows["links"]:
        reason = _row_error("links", f)
        if reason is None and f[0] in links:
            reason = f"duplicate link id {f[0]}"
        if reason is None and (f[1] not in nodes or f[2] not in nodes):
            reason = "link endpoint not a known node"
        if reason is not None:
            report.reject(no, reason)
            continue
        links[f[0]] = Link(*f)
        report.accepted += 1

    signals: dict[int, Signal] = {}
    for no, f in rows["signals"]:
        reason = None
        if f[0] in signals:
            reason = f"duplicate signal id {f[0]}"
        elif f[1] not in nodes:
            reason = "signal node not a known node"
        if reason is not None:
            report.reject(no, reason)
            continue
        signals[f[0]] = Signal(*f)
        report.accepted += 1

    rsus: list[Rsu] = []
    seen_rsu = set()
    for no, f in rows["rsus"]:
        reason = _row_error("rsus", f)
        if reason is None and f[0] in seen_rsu:
            reason = f"duplicate rsu id {f[0]}"
        if reason is None and f[1] not in nodes:
            reason = "rsu node not a known node"
        if reason is not None:
            report.reject(no, reason)
            continue
        seen_rsu.add(f[0])
        rsus.append(Rsu(*f))
        report.accepted += 1

    return RoadNetwork(nodes.values(), links.values(), signals.values(),
                       rsus, report)


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
        if network.rsus:
            fp.write("[rsus]\n")
            for r in network.rsus:
                fp.write(f"{r.id} {r.node} {r.range_m!r}\n")


def gen_grid(rows: int = GRID_ROWS, cols: int = GRID_COLS,
             spacing: float = GRID_SPACING_M, free_speed: float = FREE_SPEED_KMH,
             jam_density: float = JAM_DENSITY, lanes: int = LANES) -> RoadNetwork:
    """Manhattan grid: every intersection signalized, links both ways."""
    if rows < 2 or cols < 2:
        raise ValidationError("grid needs at least 2x2 nodes")
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
                  weight) -> list[Link]:
    """Deterministic label-setting minimum-cost path.

    weight(link) must be >= 0. Exact cost ties resolve to the
    lexicographically smallest link-id sequence, which makes route
    choice reproducible on symmetric networks.
    """
    if origin == destination:
        return []
    if origin not in network.nodes or destination not in network.nodes:
        raise NoPathError(f"unknown node in query {origin}->{destination}")
    heap = [(0.0, (), origin)]
    settled: set[int] = set()
    while heap:
        cost, seq, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        if node == destination:
            return [network.link(lid) for lid in seq]
        for link in network.out_links(node):
            if link.to_node in settled:
                continue
            w = weight(link)
            if w < 0:
                raise ValidationError(f"negative weight on link {link.id}")
            heapq.heappush(heap, (cost + w, seq + (link.id,), link.to_node))
    raise NoPathError(f"no path {origin}->{destination}")


# --- RSU placement ------------------------------------------------------

def place_rsus(network: RoadNetwork, r_com: float) -> list[int]:
    """Greedy signal cover; returns selected signal ids in pick order.

    A signal covers another iff their node distance is strictly below
    r_com (a signal always covers itself). Each round recomputes cover
    counts over the still-uncovered set, picks the uncovered signal
    with the largest count (lowest id on ties), and removes its covered
    set. Terminates with every signal covered.
    """
    if not network.signals:
        raise ValidationError("network has no signals")
    if not r_com > 0:
        raise ValidationError("r_com must be > 0")
    pos = {sid: network.node(s.node)
           for sid, s in network.signals.items()}
    uncovered = set(network.signals)
    selected: list[int] = []
    while uncovered:
        best_id, best_cover = None, None
        for sid in sorted(uncovered):
            cover = {other for other in uncovered
                     if _distance(pos[sid], pos[other]) < r_com}
            if best_cover is None or len(cover) > len(best_cover):
                best_id, best_cover = sid, cover
        selected.append(best_id)
        uncovered -= best_cover
    return selected


def signal_coverage_fraction(network: RoadNetwork, selected, r_com: float) -> float:
    pos = {sid: network.node(s.node) for sid, s in network.signals.items()}
    chosen = [pos[sid] for sid in selected]
    covered = sum(
        1 for sid in network.signals
        if any(_distance(pos[sid], g) < r_com for g in chosen))
    return covered / len(network.signals)


def link_length_coverage(network: RoadNetwork, index: "CoverageIndex",
                         samples_per_link: int = 10) -> float:
    """Fraction of link length within some RSU disk, by midpoint sampling.

    Signal cover is guaranteed by construction; area cover is not. This
    reports the residual: each link is sampled at evenly spaced interior
    points and the covered sample fraction is weighted by link length.
    """
    total = covered = 0.0
    for link in network.links.values():
        a = network.node(link.from_node)
        b = network.node(link.to_node)
        hit = 0
        for i in range(samples_per_link):
            t = (i + 0.5) / samples_per_link
            x = a.x + t * (b.x - a.x)
            y = a.y + t * (b.y - a.y)
            if index.connected_rsu(x, y) is not None:
                hit += 1
        total += link.length
        covered += link.length * hit / samples_per_link
    return covered / total if total else 0.0


# --- coverage index -----------------------------------------------------

class CoverageIndex:
    """Uniform-grid spatial index over the network's RSU disks."""

    def __init__(self, network: RoadNetwork):
        self._rsus = {r.id: (network.node(r.node).x, network.node(r.node).y,
                             r.range_m) for r in network.rsus}
        self._cell = max((r.range_m for r in network.rsus), default=1.0)
        self._buckets: dict[tuple[int, int], list[int]] = {}
        for rid, (x, y, _rng) in sorted(self._rsus.items()):
            self._buckets.setdefault(self._key(x, y), []).append(rid)

    def _key(self, x: float, y: float) -> tuple[int, int]:
        return (math.floor(x / self._cell), math.floor(y / self._cell))

    def _near(self, x: float, y: float):
        cx, cy = self._key(x, y)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                yield from self._buckets.get((cx + dx, cy + dy), ())

    def connected_rsu(self, x: float, y: float) -> int | None:
        """Nearest in-range RSU id; ties within 1e-9 m go to lowest id."""
        best_id = None
        best_d = math.inf
        for rid in self._near(x, y):
            rx, ry, rng = self._rsus[rid]
            d = math.hypot(x - rx, y - ry)
            if d > rng:
                continue
            if d < best_d - 1e-9 or (abs(d - best_d) <= 1e-9
                                     and (best_id is None or rid < best_id)):
                best_id, best_d = rid, d
        return best_id

    def count_per_rsu(self, positions) -> dict[int, int]:
        """One bucketing pass, then per-RSU neighborhood counts."""
        buckets: dict[tuple[int, int], list[tuple[float, float]]] = {}
        for pos in positions:
            buckets.setdefault(self._key(pos[0], pos[1]), []).append(pos)
        counts = {}
        for rid, (rx, ry, rng) in self._rsus.items():
            cx, cy = self._key(rx, ry)
            n = 0
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    for x, y in buckets.get((cx + dx, cy + dy), ()):
                        if math.hypot(x - rx, y - ry) <= rng:
                            n += 1
            counts[rid] = n
        return counts

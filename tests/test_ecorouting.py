"""Cost-table, route-noise, and uplink tests.

The uplink Monte-Carlo uses a stub carrier fleet so one solved cell
faces exactly 10,000 reports under a known drop probability; the
binomial 3-sigma band around that value is the oracle. The closed-loop
pieces (ideal-mode equivalence, never-delivered degeneracy) run the
real co-simulation end to end.
"""

import bisect
import collections
import dataclasses
import math
import random
import types

import pytest

from vanetsim import ecorouting as eco
from vanetsim import energy, mac_analytic, roadnet as rn, traffic
from vanetsim.errors import SimulationError, ValidationError

from test_roadnet import reference_shortest_path


def diamond():
    nodes = [rn.Node(1, 0.0, 0.0), rn.Node(2, 1000.0, 500.0),
             rn.Node(3, 1000.0, -500.0), rn.Node(4, 2000.0, 0.0)]
    links = [rn.Link(1, 1, 2, 1000.0, 1, 50.0, 120.0),
             rn.Link(2, 1, 3, 1000.0, 1, 50.0, 120.0),
             rn.Link(3, 2, 4, 1000.0, 1, 50.0, 120.0),
             rn.Link(4, 3, 4, 1000.0, 1, 50.0, 120.0)]
    return rn.RoadNetwork(nodes, links, [])


class Dest:
    def __init__(self, destination):
        self.destination = destination


def mkupdate(uid, link_id=1, fuel=0.002, created_at=0.0, carrier=None):
    return traffic.LinkCostUpdate(uid, link_id, fuel, created_at, carrier)


# --- cost table -------------------------------------------------------------

def test_table_initializes_to_free_flow_fuel():
    # two free-flow speeds, so the table reuses each speed's cruise rate
    base = diamond()
    links = [dataclasses.replace(ln, free_speed=30.0 if ln.id % 2 else 50.0)
             for ln in base.links.values()]
    net = rn.RoadNetwork(base.nodes.values(), links, [])
    coeffs = energy.load_coefficients()
    table = eco.TmcCostTable(net, coeffs)
    for lid, link in net.links.items():
        seconds = (link.length / 1000.0) / link.free_speed * 3600.0
        want = seconds * energy.vt_micro_rate(link.free_speed, 0.0, coeffs)
        assert table.costs[lid] == want > 0.0


def test_apply_update_smoothing_arithmetic():
    net = diamond()
    table = eco.TmcCostTable(net, beta=0.2)
    table.costs[1] = 1.0
    upd = mkupdate(1, fuel=2.0)
    upd.mark_delivered(5.0)
    table.apply_update(upd)
    assert table.costs[1] == pytest.approx(1.2, rel=1e-12)

    replace = eco.TmcCostTable(net, beta=1.0)
    upd2 = mkupdate(2, fuel=0.7)
    upd2.mark_delivered(1.0)
    replace.apply_update(upd2)
    assert replace.costs[1] == 0.7


def test_apply_update_rejects_undelivered():
    table = eco.TmcCostTable(diamond())
    with pytest.raises(SimulationError):
        table.apply_update(mkupdate(1))
    with pytest.raises(ValidationError):
        eco.TmcCostTable(diamond(), beta=0.0)
    with pytest.raises(ValidationError):
        eco.EcoRouter(diamond(), table, eta=-0.1)
    index = rn.CoverageIndex(diamond(), [], 250.0)
    params = mac_analytic.MacParams(n_stations=1, arrival_rate=1.0)
    for key, value in (("background_rate", 0.0), ("background_rate", -5.0)):
        with pytest.raises(ValidationError, match=key):
            eco.CommModule(index, table, params, **{key: value})


# --- routing ----------------------------------------------------------------

def test_router_noise_width_is_at_most_one():
    net = diamond()
    table = eco.TmcCostTable(net)
    for eta in (math.nextafter(1.0, 2.0), 1.5, 3.0, math.inf, math.nan):
        with pytest.raises(ValidationError, match="outside") as err:
            eco.EcoRouter(net, table, eta=eta)
        assert err.value.field == "eta"
    # at eta = 1 the factor 1 + (-1 + 2r) is never negative: r = 0 makes
    # it 0 exactly, and every link then weighs 0
    router = eco.EcoRouter(net, table, eta=1.0, seed=3)
    for r in (0.0, 2.0 ** -60, 0.25, 0.5 - 2.0 ** -54, 1.0 - 2.0 ** -53):
        router._rng = types.SimpleNamespace(random=lambda r=r: r)
        assert router(0.0, Dest(4), 1) in ([1, 3], [2, 4])
    router._rng = types.SimpleNamespace(random=lambda: 0.0)
    assert router(0.0, Dest(4), 1) == [1, 3]    # all weights 0: the id tie rule


def test_router_zero_noise_argmin_ties_and_scaling():
    net = diamond()
    table = eco.TmcCostTable(net)
    router = eco.EcoRouter(net, table, eta=0.0, seed=1)

    table.costs.update({1: 0.5, 2: 0.5, 3: 0.6, 4: 0.5})
    assert router(0.0, Dest(4), 1) == [2, 4]
    # exact tie resolves to the smallest link-id sequence
    table.costs.update({1: 0.5, 2: 0.5, 3: 0.5, 4: 0.5})
    assert router(0.0, Dest(4), 1) == [1, 3]
    # positive scaling cannot change an argmin
    table.costs.update({1: 500.0, 2: 500.0, 3: 600.0, 4: 500.0})
    assert router(0.0, Dest(4), 1) == [2, 4]


def test_router_noise_spreads_near_ties():
    net = diamond()
    table = eco.TmcCostTable(net)
    table.costs.update({1: 0.50, 2: 0.50, 3: 0.50, 4: 0.51})
    router = eco.EcoRouter(net, table, eta=0.05, seed=9)
    picks = {(1, 3): 0, (2, 4): 0}
    for _ in range(10000):
        picks[tuple(router(0.0, Dest(4), 1))] += 1
    assert picks[(1, 3)] > 500 and picks[(2, 4)] > 500
    assert picks[(1, 3)] > picks[(2, 4)]    # the genuinely cheaper route leads


def test_router_draws_one_factor_per_weighed_link():
    net = rn.gen_grid(10, 10)
    table = eco.TmcCostTable(net)
    rng = random.Random(11)
    for lid in table.costs:
        table.costs[lid] = rng.uniform(0.005, 0.02)
    eta = 0.15
    router = eco.EcoRouter(net, table, eta=eta, seed=4)
    ref_rng = random.Random(4)

    def reference(origin, destination):
        # a per-query cache of each link's factor, drawn with uniform(), on
        # the plain search over node ids, so the router's own search order
        # is checked rather than mirrored
        eps = {}

        def weight(lid):
            e = eps.get(lid)
            if e is None:
                e = eps[lid] = ref_rng.uniform(-eta, eta)
            return table.costs[lid] * (1.0 + e)

        return reference_shortest_path(net, origin, destination, weight)

    nodes = sorted(net.nodes)
    for _ in range(300):
        origin, destination = rng.sample(nodes, 2)
        assert router(0.0, Dest(destination), origin) == reference(origin, destination)
        assert router._rng.getstate() == ref_rng.getstate()
        weighed = collections.Counter()

        def counting(lid):
            weighed[lid] += 1
            return table.costs[lid]

        rn.shortest_path(net, origin, destination, counting)
        assert max(weighed.values()) == 1


# --- uplink Monte-Carlo -------------------------------------------------------


class StubCarrier:
    def __init__(self, seq):
        self.seq = seq
        self.state = traffic.EN_ROUTE


class StubSim:
    """Just enough surface for CommModule.step: a fleet parked at one point.

    Each of the ``size`` carriers has made ``per`` reports, carrier by
    carrier.
    """

    def __init__(self, size, xy, per=0):
        self.fleet = [StubCarrier(i) for i in range(size)]
        self.updates = [mkupdate(i * per + j + 1, carrier=c)
                        for i, c in enumerate(self.fleet) for j in range(per)]
        self.xy = xy

    def position(self, veh):
        return self.xy

    def cover(self, veh, index):
        return index.cover_of(*self.xy)

    def cell_tallies(self, index):
        return {index.cover_of(*self.xy): len(self.fleet)}


def rsu_cell_network():
    """One road, one RSU at its start reaching 300 m."""
    nodes = [rn.Node(1, 0.0, 0.0), rn.Node(2, 500.0, 0.0)]
    links = [rn.Link(1, 1, 2, 500.0, 1, 50.0, 120.0)]
    net = rn.RoadNetwork(nodes, links, [rn.Signal(1, 1)])
    return net, rn.CoverageIndex(net, [1], 300.0)


def test_drop_fraction_matches_cell_probability():
    net, index = rsu_cell_network()
    table = eco.TmcCostTable(net)
    params = mac_analytic.MacParams(n_stations=1, arrival_rate=1.0,
                                    payload_bits=8000, queue_capacity=64)
    module = eco.CommModule(index, table, params, seed=5)

    per, fleet = 500, 20
    sim = StubSim(fleet, (0.0, 0.0), per)
    module.step(sim, 0.1)

    sol = module.cells[0]
    assert sol is module._solve_cell(fleet, module.background_rate)
    assert sol.t_delay is not None
    total = per * fleet
    p = sol.p_drop
    sigma = math.sqrt(p * (1.0 - p) / total)
    assert module.dropped + module.as_record()["in_flight"] == total
    assert abs(module.dropped / total - p) <= 3.0 * sigma

    # drain: everything left must land, in nondecreasing stamped order
    applied = []
    original = table.apply_update
    table.apply_update = lambda u: (applied.append(u.delivered_at), original(u))
    sim.fleet = []
    module.step(sim, 1e9)
    assert applied == sorted(applied)
    assert module.delivered + module.dropped == total
    assert not module.carriers


def test_recount_adds_the_cells_own_reports_to_its_load():
    net, index = rsu_cell_network()
    table = eco.TmcCostTable(net)
    params = mac_analytic.MacParams(n_stations=1, arrival_rate=1.0,
                                    payload_bits=8000, queue_capacity=64)
    module = eco.CommModule(index, table, params, seed=5)
    rate = module.background_rate

    # the first recount has no window behind it: background load only
    per, fleet = 30, 4
    sim = StubSim(fleet, (0.0, 0.0), per)
    module.step(sim, 0.5)
    assert module.cells[0] is module._solve_cell(fleet, rate)

    # one refresh later: the reports sent since, per second per station
    sim.fleet.pop()
    module.step(sim, 0.5 + eco.CELL_REFRESH)
    n, sent, window = fleet - 1, per * fleet, eco.CELL_REFRESH
    want = module._solve_cell(n, rate + sent / window / max(n, 1))
    assert want is not module._solve_cell(n, rate)
    assert module.cells[0] is want


def test_saturated_cell_takes_every_report_once():
    net, index = rsu_cell_network()
    table = eco.TmcCostTable(net)
    params = mac_analytic.MacParams(n_stations=1, arrival_rate=1.0,
                                    payload_bits=8000, queue_capacity=64)
    module = eco.CommModule(index, table, params, background_rate=200.0, seed=5)
    sol = module._solve_cell(40, 200.0)
    assert sol.t_delay > 1e9       # saturated: the delay outlasts any run

    sim = StubSim(40, (0.0, 0.0), 50)
    module.step(sim, 0.1)
    assert module.cells[0] is sol
    # each report is dropped or in flight, and no carrier keeps one
    assert module.delivered == 0 and module.dropped > 0
    assert module.dropped + module.as_record()["in_flight"] == 2000
    assert not module.carriers

    # a tick with nothing new to send, then the next recount: its offered
    # load counts each of the 2000 reports once
    module.step(sim, 0.2)
    module.step(sim, 0.1 + eco.CELL_REFRESH)
    window = (0.1 + eco.CELL_REFRESH) - 0.1
    assert module.cells[0] is module._solve_cell(40, 200.0 + 2000 / window / 40)
    assert module.dropped + module.as_record()["in_flight"] == 2000


def test_finished_carrier_loses_its_reports_outside_the_channel_count():
    net, index = rsu_cell_network()
    table = eco.TmcCostTable(net)
    params = mac_analytic.MacParams(n_stations=1, arrival_rate=1.0,
                                    payload_bits=8000, queue_capacity=64)
    module = eco.CommModule(index, table, params, background_rate=200.0, seed=5)

    # 40 carriers of 5 reports each, 400 m from the RSU: out of its range
    sim = StubSim(40, (400.0, 0.0), 5)
    module.step(sim, 0.1)
    assert list(module.carriers) == sim.fleet
    assert {u.fate for u in sim.updates} == {"queued"}

    # ten finish their trips; the others drive into the cell
    gone = sim.fleet[::4]
    for veh in gone:
        veh.state = traffic.FINISHED
    sim.fleet = [veh for veh in sim.fleet if veh not in gone]
    sim.xy = (0.0, 0.0)
    module.step(sim, 0.1 + eco.CELL_REFRESH)
    lost = [u for u in sim.updates if u.carrier in gone]
    assert len(lost) == 50 and {u.fate for u in lost} == {"dropped"}
    assert not module.carriers
    # the channel dropped some of the others, and only those count
    sent = [u for u in sim.updates if u.carrier not in gone]
    channel = [u for u in sent if u.fate == "dropped"]
    assert module.dropped == len(channel) > 0
    packet_dropped = len(lost) + len(channel)
    assert packet_dropped - module.as_record()["dropped"] == len(lost)


# --- closed loop ----------------------------------------------------------------

GRID_OD = ((1, 9, 400.0, 0.0, 240.0), (3, 7, 400.0, 0.0, 240.0))


def grid_scenario(mode, comm_cls=eco.CommModule, *, net=None, range_m=160.0,
                  od_rows=GRID_OD):
    """A 3x3 grid at 150 m spacing (or net) with RSUs on nodes 1, 5 and 9."""
    net = net or rn.gen_grid(3, 3, spacing=150.0)
    index = rn.CoverageIndex(net, [1, 5, 9], range_m)
    table = eco.TmcCostTable(net)
    router = eco.EcoRouter(net, table, eta=0.05, seed=21)
    params = mac_analytic.MacParams(n_stations=1, arrival_rate=1.0,
                                    payload_bits=8000, queue_capacity=64)
    comm = comm_cls(index, table, params, mode=mode, seed=4)
    od = traffic.OdDemand(tuple(traffic.OdEntry(*row) for row in od_rows))
    sim = traffic.Simulation(net, demand=od, seed=17, router=router, comm=comm)
    sim.run()
    return sim, table, comm


class BypassComm(eco.CommModule):
    """Reference pipeline: reports land the instant they are created."""

    def step(self, sim, now):
        new = sim.updates[self._seen:]
        self._seen = len(sim.updates)
        for upd in new:
            upd.mark_delivered(upd.created_at)
            self.table.apply_update(upd)


def test_ideal_mode_equals_direct_bypass():
    a_sim, a_table, _ = grid_scenario("ideal")
    b_sim, b_table, _ = grid_scenario("ideal", comm_cls=BypassComm)
    assert repr(a_table.costs) == repr(b_table.costs)
    assert a_sim.state_hash() == b_sim.state_hash()
    assert [u.fate for u in a_sim.updates] == [u.fate for u in b_sim.updates]
    assert all(u.fate == "delivered" for u in a_sim.updates)
    assert all(u.delivered_at == u.created_at for u in a_sim.updates)


def test_unreachable_uplink_leaves_table_at_free_flow():
    net = rn.gen_grid(3, 3, spacing=150.0)
    no_rsus = rn.CoverageIndex(net, [], 250.0)
    table = eco.TmcCostTable(net)
    initial = repr(table.costs)
    router = eco.EcoRouter(net, table, eta=0.05, seed=21)
    params = mac_analytic.MacParams(n_stations=1, arrival_rate=1.0,
                                    payload_bits=8000, queue_capacity=64)
    comm = eco.CommModule(no_rsus, table, params, seed=4)
    od = traffic.OdDemand((traffic.OdEntry(1, 9, 300.0, 0.0, 180.0),))
    sim = traffic.Simulation(net, demand=od, seed=2, router=router, comm=comm)
    sim.run()
    assert comm.delivered == 0
    assert repr(table.costs) == initial
    assert sim.counts()[traffic.FINISHED] > 0


def test_fate_exclusivity_over_full_run():
    sim, _, comm = grid_scenario("realistic")
    fates = [u.fate for u in sim.updates]
    assert fates and set(fates) <= {"delivered", "dropped", "queued"}
    # a drained run leaves no report with a carrier; only packets still
    # in flight inside the delivery heap at the horizon may stay queued
    queued = fates.count("queued")
    assert queued == comm.as_record()["in_flight"]
    uids = [u.uid for u in sim.updates]
    assert len(set(uids)) == len(uids)
    for u in sim.updates:
        if u.fate == "delivered":
            assert u.delivered_at >= u.created_at


# --- traffic-uplink seam ----------------------------------------------------------

class CheckedIdealComm(eco.CommModule):
    """Ideal uplink that checks that each of its steps leaves no report queued."""

    def step(self, sim, now):
        seen = self._seen
        super().step(sim, now)
        # a delivered report stays delivered, so the new ones are all to check
        assert {u.fate for u in sim.updates[seen:]} <= {"delivered"}
        assert not self.carriers


class RecountParity(eco.CommModule):
    """Realistic uplink that checks each recount against every vehicle's replayed pos.

    The tallies place each moving sleeper at the pos its unapplied steps
    reach, without applying them. Here every such vehicle (``lagging``)
    is then replayed, and each vehicle's pos is placed by the cut rule
    (its link profile's entry for that pos); the counts must be equal.
    It also counts the lagging vehicles on a ramp (speed off target).
    """

    recounts = lagging = ramp_lagging = 0

    def _recount(self, sim, now):
        lagging = [v for v in sim.enroute if v.moving and v.burned_to < sim._moved]
        tallies = sim.cell_tallies(self.index)
        self.lagging += len(lagging)
        self.ramp_lagging += sum(v.speed != v.target for v in lagging)
        for veh in lagging:
            sim._replay(veh, sim._moved)
        want = collections.Counter()
        for veh in sim.enroute:
            cuts, covers = self.index.profiles[veh.route[0]]
            want[covers[bisect.bisect_right(cuts, veh.pos)]] += 1
        assert tallies == want
        self.recounts += 1
        super()._recount(sim, now)


def test_recount_counts_equal_a_count_of_every_position():
    sim, _, comm = grid_scenario("realistic", comm_cls=RecountParity)
    assert comm.recounts > 300 and comm.delivered > 0
    # moving sleepers, ramps among them, were placed without a replay, and
    # parked vehicles at their link's stop line
    assert comm.ramp_lagging > 0 and sim.parked_red_steps > 0


def test_ideal_mode_leaves_no_report_queued():
    sim, _, comm = grid_scenario("ideal", comm_cls=CheckedIdealComm)
    assert comm.delivered == len(sim.updates) > 0


def test_position_interpolates_link_ends_bit_for_bit():
    for net in (rn.gen_grid(3, 3, spacing=150.0), diamond()):
        sim = traffic.Simulation(net, schedule=[])
        for link in net.links.values():
            a, b = net.nodes[link.from_node], net.nodes[link.to_node]
            veh = traffic.Vehicle(1, traffic.Departure(0.0, a.id, b.id))
            veh.route = [link.id]
            length = round(link.length * rn.POS_UNITS)
            for pos in (0, length // 3, length // 2, length):
                veh.pos = pos
                f = pos / length
                assert sim.position(veh) == (a.x + (b.x - a.x) * f,
                                             a.y + (b.y - a.y) * f)

"""Cost-table, route-noise, and uplink tests.

The uplink Monte-Carlo uses a stub carrier fleet so one solved cell
faces exactly 10,000 reports under a known drop probability; the
binomial 3-sigma band around that value is the oracle. The closed-loop
pieces (ideal-mode equivalence, never-delivered degeneracy) run the
real co-simulation end to end.
"""

import collections
import math
import random

import pytest

from vanetsim import ecorouting as eco
from vanetsim import energy, mac_analytic, roadnet as rn, traffic
from vanetsim.errors import SimulationError, ValidationError


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


def mkupdate(uid, link_id=1, fuel=0.002, created_at=0.0):
    return traffic.LinkCostUpdate(uid, link_id, fuel, created_at)


# --- cost table -------------------------------------------------------------

def test_table_initializes_to_free_flow_fuel():
    net = diamond()
    coeffs = energy.load_coefficients()
    table = eco.TmcCostTable(net, coeffs)
    for lid, link in net.links.items():
        want = energy.free_flow_link_fuel(link.length, link.free_speed, coeffs)
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
    for key, value in (("background_rate", 0.0), ("background_rate", -5.0),
                       ("refresh", 0.0), ("refresh", -1.0)):
        with pytest.raises(ValidationError, match=key):
            eco.CommModule(index, table, params, **{key: value})


# --- routing ----------------------------------------------------------------

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
        # a per-query cache of each link's factor, drawn with uniform()
        eps = {}

        def weight(ln):
            e = eps.get(ln.id)
            if e is None:
                e = eps[ln.id] = ref_rng.uniform(-eta, eta)
            return table.costs[ln.id] * (1.0 + e)

        return [ln.id for ln in rn.shortest_path(net, origin, destination, weight)]

    nodes = sorted(net.nodes)
    for _ in range(300):
        origin, destination = rng.sample(nodes, 2)
        assert router(0.0, Dest(destination), origin) == reference(origin, destination)
        assert router._rng.getstate() == ref_rng.getstate()
        weighed = collections.Counter()

        def counting(ln):
            weighed[ln.id] += 1
            return table.costs[ln.id]

        rn.shortest_path(net, origin, destination, counting)
        assert max(weighed.values()) == 1


# --- uplink Monte-Carlo -------------------------------------------------------


class StubCarrier:
    def __init__(self, pending):
        self.pending = pending


class StubSim:
    """Just enough surface for CommModule.step: a parked fleet."""

    def __init__(self, fleet, xy):
        self.updates = []
        self.enroute = fleet
        self.carriers = [c for c in fleet if c.pending]
        self.xy = xy

    def position(self, veh):
        return self.xy


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
    carriers = [StubCarrier([mkupdate(i * per + j + 1) for j in range(per)])
                for i in range(fleet)]
    sim = StubSim(carriers, (0.0, 0.0))
    module.step(sim, 0.1)

    sol = module.cells[0]
    assert sol is module._solve_cell(fleet, module.background_rate)
    assert sol.t_delay is not None
    total = per * fleet
    p = sol.p_drop
    sigma = math.sqrt(p * (1.0 - p) / total)
    assert module.dropped + module.in_flight() == total
    assert abs(module.dropped / total - p) <= 3.0 * sigma

    # drain: everything left must land, in nondecreasing stamped order
    applied = []
    original = table.apply_update
    table.apply_update = lambda u: (applied.append(u.delivered_at), original(u))
    module.step(StubSim([], (0.0, 0.0)), 1e9)
    assert applied == sorted(applied)
    assert module.delivered + module.dropped == total
    assert all(not c.pending for c in carriers)


def test_recount_adds_the_cells_own_reports_to_its_load():
    net, index = rsu_cell_network()
    table = eco.TmcCostTable(net)
    params = mac_analytic.MacParams(n_stations=1, arrival_rate=1.0,
                                    payload_bits=8000, queue_capacity=64)
    module = eco.CommModule(index, table, params, seed=5)
    rate = module.background_rate

    # the first recount has no window behind it: background load only
    per, fleet = 30, 4
    carriers = [StubCarrier([mkupdate(i * per + j + 1) for j in range(per)])
                for i in range(fleet)]
    module.step(StubSim(carriers, (0.0, 0.0)), 0.5)
    assert module.cells[0] is module._solve_cell(fleet, rate)

    # one refresh later: the reports sent since, per second per station
    parked = [StubCarrier([]) for _ in range(fleet - 1)]
    module.step(StubSim(parked, (0.0, 0.0)), 0.5 + module.refresh)
    n, sent, window = fleet - 1, per * fleet, module.refresh
    want = module._solve_cell(n, rate + sent / window / max(n, 1))
    assert want is not module._solve_cell(n, rate)
    assert module.cells[0] is want


def test_saturated_cell_defers_survivors():
    net, index = rsu_cell_network()
    table = eco.TmcCostTable(net)
    params = mac_analytic.MacParams(n_stations=1, arrival_rate=1.0,
                                    payload_bits=8000, queue_capacity=64)
    module = eco.CommModule(index, table, params, background_rate=200.0, seed=5)
    sol = module._solve_cell(40, 200.0)
    assert sol.t_delay is None     # the queue really is saturated here

    carriers = [StubCarrier([mkupdate(i * 50 + j + 1) for j in range(50)])
                for i in range(40)]
    sim = StubSim(carriers, (0.0, 0.0))
    module.step(sim, 0.1)
    assert module.delivered == 0 and module.in_flight() == 0
    assert module.deferred_saturated > 0
    assert module.dropped > 0
    left = sum(len(c.pending) for c in carriers)
    assert left == module.deferred_saturated
    assert left + module.dropped == 2000


# --- closed loop ----------------------------------------------------------------

def grid_scenario(mode, comm_cls=eco.CommModule):
    net = rn.gen_grid(3, 3, spacing=150.0)
    index = rn.CoverageIndex(net, [1, 5, 9], 160.0)
    table = eco.TmcCostTable(net)
    router = eco.EcoRouter(net, table, eta=0.05, seed=21)
    params = mac_analytic.MacParams(n_stations=1, arrival_rate=1.0,
                                    payload_bits=8000, queue_capacity=64)
    comm = comm_cls(index, table, params, mode=mode, seed=4)
    od = traffic.OdDemand((traffic.OdEntry(1, 9, 400.0, 0.0, 240.0),
                           traffic.OdEntry(3, 7, 400.0, 0.0, 240.0)))
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
    # a drained run leaves nothing queued on vehicles; only packets still
    # in flight inside the delivery heap at the horizon may stay queued
    queued = fates.count("queued")
    assert queued == comm.in_flight()
    uids = [u.uid for u in sim.updates]
    assert len(set(uids)) == len(uids)
    for u in sim.updates:
        if u.fate == "delivered":
            assert u.delivered_at >= u.created_at


# --- traffic-uplink seam ----------------------------------------------------------

class CheckedIdealComm(eco.CommModule):
    """Ideal uplink that checks the moving fleet after each of its steps."""

    carried = 0

    def step(self, sim, now):
        super().step(sim, now)
        self.carried += len(sim.carriers)
        assert all(not veh.pending for veh in sim.enroute)


def test_ideal_mode_empties_carriers_every_step():
    sim, _, comm = grid_scenario("ideal", comm_cls=CheckedIdealComm)
    assert comm.carried > 0
    assert comm.delivered == len(sim.updates) > 0


def test_position_interpolates_link_ends_bit_for_bit():
    for net in (rn.gen_grid(3, 3, spacing=150.0), diamond()):
        sim = traffic.Simulation(net, schedule=[])
        for link in net.links.values():
            a, b = net.nodes[link.from_node], net.nodes[link.to_node]
            veh = traffic.Vehicle(1, traffic.Departure(0.0, a.id, b.id))
            veh.route = [link.id]
            for pos in (0.0, link.length / 3.0, link.length / 2.0, link.length):
                veh.pos = pos
                f = pos / link.length
                assert sim.position(veh) == (a.x + (b.x - a.x) * f,
                                             a.y + (b.y - a.y) * f)

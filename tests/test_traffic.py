"""Traffic simulator tests.

The signal hand trace is fully derived on paper: a lone vehicle on two
500 m links at 50 km/h covers 25/18 m per step, so each link takes
exactly 360 steps; with an east-west signal at the middle node (green
over [0,30) s of each minute) a vehicle reaching the stop line at
t=36.0 s waits until t=60.0 s. Fuel follows the same timeline, split
between the cruise rate and the idle rate, so the totals are checked
against closed-form sums rather than against the simulator itself.

Vehicle state is integer: speeds in thousandths of a km/h
(``traffic.SPEED_UNITS`` per km/h), positions in 1/36,000 m
(``traffic.POS_UNITS`` per metre) and burns in the quanta of
``traffic.BURN_QUANTA``.
"""

import hashlib
import math
import random

import pytest

from vanetsim import ecorouting as eco, energy, mac_analytic, roadnet as rn, traffic
from vanetsim.errors import SimulationError, ValidationError


def line_network(lengths, signal_nodes=(), *, vf=50.0, kjam=120.0, vertical=False):
    nodes, links, x = [rn.Node(1, 0.0, 0.0)], [], 0.0
    for i, length in enumerate(lengths):
        x += length
        nodes.append(rn.Node(i + 2, 0.0 if vertical else x, x if vertical else 0.0))
        links.append(rn.Link(i + 1, i + 1, i + 2, length, 1, vf, kjam))
    signals = [rn.Signal(i + 1, nid) for i, nid in enumerate(signal_nodes)]
    return rn.RoadNetwork(nodes, links, signals)


def counting_router(network):
    inner = traffic.free_flow_router(network)
    calls = []

    def route(now, vehicle, at_node):
        calls.append((vehicle.id, at_node))
        return inner(now, vehicle, at_node)

    route.calls = calls
    return route


# --- demand ---------------------------------------------------------------

def test_demand_poisson_counts_and_determinism():
    od = traffic.OdDemand((traffic.OdEntry(1, 2, 3600.0, 0.0, 3600.0),), odsf=0.5)
    sched = traffic.generate_demand(od, seed=42)
    mean = 1800.0
    assert abs(len(sched) - mean) <= 3.0 * math.sqrt(mean)
    assert all(0.0 <= d.time < 3600.0 for d in sched)
    assert [d.time for d in sched] == sorted(d.time for d in sched)
    assert sched == traffic.generate_demand(od, seed=42)
    assert sched != traffic.generate_demand(od, seed=43)


def test_demand_zero_odsf_is_empty():
    od = traffic.OdDemand((traffic.OdEntry(1, 2, 3600.0, 0.0, 3600.0),), odsf=0.0)
    assert traffic.generate_demand(od, seed=1) == []


def test_demand_validation():
    with pytest.raises(ValidationError):
        traffic.OdDemand((), odsf=1.5)
    with pytest.raises(ValidationError):
        traffic.OdDemand((traffic.OdEntry(1, 2, -1.0, 0.0, 10.0),))
    with pytest.raises(ValidationError):
        traffic.OdDemand((traffic.OdEntry(1, 2, 1.0, 10.0, 10.0),))
    with pytest.raises(ValidationError):
        traffic.OdDemand((traffic.OdEntry(3, 3, 1.0, 0.0, 10.0),))
    # an endless rate or window would draw departures without end
    for entry in (traffic.OdEntry(1, 2, math.inf, 0.0, 10.0),
                  traffic.OdEntry(1, 2, 1.0, 0.0, math.inf),
                  traffic.OdEntry(1, 2, 1.0, -math.inf, 10.0)):
        with pytest.raises(ValidationError) as err:
            traffic.OdDemand((entry,))
        assert err.value.field == "entries"
    for a_max in (0.0, -3.6, math.inf):
        with pytest.raises(ValidationError):
            traffic.TrafficConfig(a_max=a_max)
    for horizon in (0.0, -1.0, math.inf):
        with pytest.raises(ValidationError):
            traffic.TrafficConfig(horizon=horizon)
    for drain in (-200.0, math.inf):
        with pytest.raises(ValidationError):
            traffic.TrafficConfig(drain=drain)
    assert traffic.TrafficConfig(drain=0.0).drain == 0.0


def test_unknown_trip_node_is_refused_before_any_draw():
    net = line_network([500.0, 500.0])       # nodes 1, 2 and 3
    # rate 0 draws no vehicle, so only a check of the entries sees node 9
    demand = traffic.OdDemand((traffic.OdEntry(1, 3, 60.0, 0.0, 60.0),
                               traffic.OdEntry(1, 9, 0.0, 0.0, 60.0)))
    with pytest.raises(ValidationError, match="unknown node 9") as err:
        traffic.Simulation(net, demand=demand)
    assert err.value.field == "entries"
    with pytest.raises(ValidationError, match="unknown node 9") as err:
        traffic.Simulation(net, schedule=[traffic.Departure(0.0, 9, 3)])
    assert err.value.field == "schedule"


# --- kinematics -------------------------------------------------------------

def test_free_flow_traversal_time():
    net = line_network([500.0, 500.0])
    sim = traffic.Simulation(net, schedule=[traffic.Departure(0.0, 1, 3)],
                             config=traffic.TrafficConfig(a_max=1e9, horizon=200.0))
    sim.step()
    veh = sim.vehicles[0]
    assert veh.state == traffic.EN_ROUTE
    assert veh.speed == 50_000     # admitted at the empty-link equilibrium speed
    sim.run()
    assert veh.state == traffic.FINISHED
    assert veh.finished_at - veh.depart == pytest.approx(72.0, abs=0.2)


def test_signal_hand_trace():
    net = line_network([500.0, 500.0], signal_nodes=[2])
    router = counting_router(net)
    sim = traffic.Simulation(net, schedule=[traffic.Departure(0.0, 1, 3)],
                             config=traffic.TrafficConfig(a_max=1e9, horizon=200.0),
                             router=router)
    sim.run()
    veh = sim.vehicles[0]
    assert veh.finished_at == pytest.approx(96.0, abs=1e-6)
    assert veh.finished_at - veh.depart - veh.ff_time == pytest.approx(24.0, abs=1e-6)

    # one decision at admission, one at the stop line, none while blocked
    assert len(router.calls) == 2
    # 959 steps on the network; the 239 after the arrival step wait parked
    assert sim.vehicle_steps == 959
    assert (sim.parked_red_steps, sim.parked_full_steps) == (239, 0)

    # each step burns its rate times DT, rounded once to the fuel quantum
    q = traffic.BURN_QUANTA[0]
    r50, idle = (round(energy.vt_micro_rate(v, 0.0, sim.coeffs) * traffic.DT / q)
                 for v in (50.0, 0.0))
    assert veh.fuel == 719 * r50 + 240 * idle

    u1, u2 = sim.updates
    assert (u1.link_id, u2.link_id) == (1, 2)
    assert u1.created_at == pytest.approx(60.1, abs=1e-6)
    assert u2.created_at == pytest.approx(96.0, abs=1e-6)
    assert u1.fuel == (360 * r50 + 239 * idle) * q
    assert u2.fuel == (359 * r50 + 1 * idle) * q
    # no comm module attached, so nothing takes the reports or sends them
    assert u1.fate == u2.fate == "queued"


def test_acceleration_clamp_after_release():
    net = line_network([500.0, 500.0], signal_nodes=[2])
    sim = traffic.Simulation(net, schedule=[traffic.Departure(0.0, 1, 3)],
                             config=traffic.TrafficConfig(horizon=200.0))
    sim.run(until=60.0)
    veh = sim.vehicles[0]
    assert veh.speed == 0 and veh.pos == 500 * traffic.POS_UNITS
    for k in range(1, 11):
        sim.step()
        sim.state_hash()        # replays it, asleep on its ramp
        assert veh.speed == k * 360


def test_route_requeried_at_each_link_exit():
    net = line_network([500.0, 500.0, 500.0])
    router = counting_router(net)
    sim = traffic.Simulation(net, schedule=[traffic.Departure(0.0, 1, 4)],
                             config=traffic.TrafficConfig(a_max=1e9, horizon=200.0),
                             router=router)
    sim.run()
    assert sim.vehicles[0].state == traffic.FINISHED
    # admission, end of link 1, end of link 2; the last link needs no decision
    assert [at for _, at in router.calls] == [1, 2, 3]


def test_unit_constants():
    # one step at s speed units (thousandths of a km/h) moves s position
    # units: s / 1000 km/h for 0.1 s is s / 36,000 m
    assert (traffic.SPEED_UNITS, traffic.POS_UNITS, traffic.DT) == (1000, 36_000, 0.1)
    sim = traffic.Simulation(line_network([150.0]), schedule=[])
    assert sim._lk[1].length == 5_400_000
    assert sim._dv_max == 360 == round(traffic.A_MAX * traffic.DT * traffic.SPEED_UNITS)
    assert all(q == 2.0 ** round(math.log2(q)) for q in traffic.BURN_QUANTA)


def test_position_overrun_diagnostic():
    nodes = [rn.Node(1, 0.0, 0.0), rn.Node(2, 499.0, 0.0), rn.Node(3, 500.0, 0.0)]
    links = [rn.Link(1, 1, 2, 499.0, 1, 50.0, 120.0),
             rn.Link(2, 2, 3, 1.0, 1, 50.0, 5000.0)]
    net = rn.RoadNetwork(nodes, links, [])
    sim = traffic.Simulation(net, schedule=[traffic.Departure(0.0, 1, 3)],
                             config=traffic.TrafficConfig(a_max=1e9, horizon=100.0))
    with pytest.raises(SimulationError, match="overrun"):
        sim.run()


def test_vehicle_lost_from_enroute_breaks_conservation():
    net = line_network([500.0, 500.0])
    sched = [traffic.Departure(float(t), 1, 3) for t in range(3)]
    sim = traffic.Simulation(net, schedule=sched,
                             config=traffic.TrafficConfig(horizon=200.0))
    sim.run(until=10.0)
    assert len(sim.enroute) == 3
    sim.enroute.pop(1)          # admitted, not finished, and no longer stepped
    with pytest.raises(SimulationError, match="conservation broken"):
        sim.step()


def test_speed_density_relation_bounds():
    assert traffic.greenshields(50.0, 0.0, 120.0) == 50.0
    assert traffic.greenshields(50.0, 120.0, 120.0) == 0.0
    assert traffic.greenshields(50.0, 200.0, 120.0) == 0.0
    prev = 50.0
    for k in range(1, 121):
        v = traffic.greenshields(50.0, float(k), 120.0)
        assert 0.0 <= v < prev
        prev = v


# --- admission and jam behaviour ---------------------------------------------

def test_admission_stops_at_jam_density():
    net = line_network([150.0], signal_nodes=[2], vertical=True)
    sched = [traffic.Departure(0.0, 1, 2) for _ in range(50)]
    sim = traffic.Simulation(net, schedule=sched,
                             config=traffic.TrafficConfig(horizon=60.0))
    cap = int(120.0 * 0.15)
    while not sim.done():
        sim.step()
        assert sim._occ[1] <= cap
    counts = sim.counts()
    assert counts[traffic.EN_ROUTE] == cap == 18
    assert counts[traffic.DEFERRED] == 50 - cap
    assert counts[traffic.WAITING] == 0


def test_target_table_is_greenshields_bit_for_bit():
    # a diamond whose lower branch is longer, so two tables exist
    diamond = rn.RoadNetwork(
        [rn.Node(1, 0.0, 0.0), rn.Node(2, 1000.0, 500.0),
         rn.Node(3, 1000.0, -500.0), rn.Node(4, 2000.0, 0.0)],
        [rn.Link(1, 1, 2, 1000.0, 1, 50.0, 120.0),
         rn.Link(2, 1, 3, 1500.0, 1, 50.0, 120.0),
         rn.Link(3, 2, 4, 1000.0, 1, 50.0, 120.0),
         rn.Link(4, 3, 4, 1500.0, 1, 50.0, 120.0)], [])
    for net, n_tables in ((rn.gen_grid(4, 4), 1), (diamond, 2)):
        sim = traffic.Simulation(net, schedule=[])
        tables = {}
        for lid, lk in sim._lk.items():
            link = net.links[lid]
            inv_len_lanes = 1.0 / (link.length / 1000.0 * link.lanes)
            assert len(lk.target) == lk.cap + 1
            for k, v in enumerate(lk.target):
                want = traffic.greenshields(link.free_speed, k * inv_len_lanes,
                                            link.jam_density)
                assert v == round(want * traffic.SPEED_UNITS)
            assert lk.free_speed == 50_000 and lk.length == round(link.length * 36_000)
            key = (link.free_speed, inv_len_lanes, link.jam_density, lk.cap)
            assert tables.setdefault(key, lk.target) is lk.target
        assert len(tables) == n_tables


def test_admission_enters_at_target_for_occupancy():
    net = line_network([150.0])
    sched = [traffic.Departure(0.0, 1, 2) for _ in range(30)]
    sim = traffic.Simulation(net, schedule=sched)
    sim.step()
    lk = sim._lk[1]
    assert len(sim.enroute) == lk.cap == 18
    # the k-th admitted vehicle found k on the link
    assert [v.speed for v in sim.enroute] == lk.target[:lk.cap]
    assert lk.target[0] == 50_000 and lk.target[lk.cap] == 0


def ring_gridlock_sim():
    nodes = [rn.Node(1, 0.0, 0.0), rn.Node(2, 150.0, 0.0),
             rn.Node(3, 150.0, 150.0), rn.Node(4, 0.0, 150.0)]
    links = [rn.Link(1, 1, 2, 150.0, 1, 50.0, 120.0),
             rn.Link(2, 2, 3, 150.0, 1, 50.0, 120.0),
             rn.Link(3, 3, 4, 150.0, 1, 50.0, 120.0),
             rn.Link(4, 4, 1, 150.0, 1, 50.0, 120.0)]
    net = rn.RoadNetwork(nodes, links, [])
    sched = []
    for origin, dest in ((1, 3), (2, 4), (3, 1), (4, 2)):
        sched.extend(traffic.Departure(0.0, origin, dest) for _ in range(30))
    return traffic.Simulation(net, schedule=sched,
                              config=traffic.TrafficConfig(horizon=300.0))


def test_ring_gridlock_flow_zero_density_at_jam():
    sim = ring_gridlock_sim()
    sim.run()
    counts = sim.counts()
    assert counts[traffic.FINISHED] == 0
    assert counts[traffic.EN_ROUTE] == 72
    assert counts[traffic.DEFERRED] == 48
    last = sim.nfd[-1]
    assert last.density == pytest.approx(120.0)   # pinned at jam density
    assert last.speed == 0.0
    assert last.flow == 0.0


# --- parked vehicles ------------------------------------------------------------
#
# Vehicles held at a stop line are skipped by the step loop and their idle
# burn is replayed later. The pinned hashes and burns below were taken from
# PerStepSimulation, the plain per-step loop, which burned every held step;
# they must not move.

class PerStepSimulation(traffic.Simulation):
    """The per-step loop every pin here is taken from: no vehicle sleeps.

    No moving vehicle sleeps, and one that fails to cross is filed for the
    next step instead of being parked, so the loop visits every en-route
    vehicle every step.
    """

    def _sleep_moving(self, veh, lid, n, target):
        pass

    def _try_cross(self, veh, n, now_end):
        if super()._try_cross(veh, n, now_end):
            return True
        if veh.wake == traffic._NEVER:
            self._waiters[veh.route[1]].remove(veh)
        veh.wake = n + 1
        self._file(veh, n + 1)
        return False


def accumulator_digest(sim):
    h = hashlib.sha256()
    for v in sim.vehicles:
        h.update(repr((v.id, v.fuel, v.link_fuel, v.co, v.hc, v.nox)).encode())
    return h.hexdigest()


def red_hold_sim():
    # all three reach the stop line during the red half of the first minute
    net = line_network([500.0, 500.0], signal_nodes=[2])
    sched = [traffic.Departure(t, 1, 3) for t in (0.0, 3.0, 7.5)]
    return traffic.Simulation(net, schedule=sched,
                              config=traffic.TrafficConfig(horizon=200.0))


RED_HOLD_HASH_45 = "d5fb52d01cf130e8fc1805aa0386b3664af57f052229e751b23acbf77eac8928"
RED_HOLD_FUEL_45 = [100798653305, 99149611190, 93962418000]     # quanta


def test_red_hold_mid_wait_matches_per_step_burn():
    sim = red_hold_sim()
    sim.run(until=45.0)
    assert all(v.pos == 500 * traffic.POS_UNITS and v.speed == 0 for v in sim.vehicles)
    assert [v.fuel for v in sim.vehicles] == RED_HOLD_FUEL_45
    assert [v.link_fuel for v in sim.vehicles] == RED_HOLD_FUEL_45
    assert accumulator_digest(sim) == (
        "542eff91645d03f8d6a405b75f158d7409d06daa9910a2568671f8ee9f50c84a")
    assert sim.state_hash() == RED_HOLD_HASH_45
    sim.run()
    assert sim.state_hash() == (
        "daf7b3352c6d24928ad97e22460be9691b5527e81e59bc0f08d47e4651ce1296")
    assert accumulator_digest(sim) == (
        "da1252e33aeff22cd16fca7e76102161170db8562ffba16c717da8e678342f6b")


def test_state_hash_settles_parked_vehicles():
    sim = red_hold_sim()
    for _ in range(450):
        sim.step()
    assert sim.state_hash() == RED_HOLD_HASH_45
    assert [v.fuel for v in sim.vehicles] == RED_HOLD_FUEL_45
    assert [v.link_fuel for v in sim.vehicles] == RED_HOLD_FUEL_45


def test_ring_gridlock_full_link_wait_matches_per_step_burn():
    sim = ring_gridlock_sim()
    sim.run()
    assert sim.parked_red_steps == 0 and sim.parked_full_steps > 0
    assert sim.state_hash() == (
        "740b9bc3d652a8154a6649e25bab3d03230fc6908f581861d6b2dc2fe0a9c703")
    assert accumulator_digest(sim) == (
        "83e8267f197d2d5dc706b6b385a925b3c6ad52eb6b0e69f47111faa6c5090013")


def test_full_link_waiters_wake_in_step_order():
    # A short last link (capacity 3) fills with the later-admitted trips
    # from node 2 while its exit is red. The earlier-admitted trips from
    # node 1 then wait behind it. At the green, the three occupants leave:
    # vehicle 7, later in the step order, crosses in that same step, and
    # vehicles 1 and 2 one step later; vehicle 3 finds the link full again.
    nodes = [rn.Node(1, 0.0, 0.0), rn.Node(2, 600.0, -100.0),
             rn.Node(3, 600.0, 0.0), rn.Node(4, 630.0, 0.0)]
    links = [rn.Link(1, 1, 3, 600.0, 1, 50.0, 120.0),
             rn.Link(2, 2, 3, 100.0, 1, 50.0, 120.0),
             rn.Link(3, 3, 4, 30.0, 1, 50.0, 120.0)]
    net = rn.RoadNetwork(nodes, links, [rn.Signal(1, 4)])
    sched = [traffic.Departure(t, 1, 4) for t in (0.0, 1.0, 2.0)]
    sched += [traffic.Departure(t, 2, 4) for t in (30.0, 31.0, 32.0, 33.0)]
    sim = traffic.Simulation(net, schedule=sched,
                             config=traffic.TrafficConfig(horizon=200.0))
    sim.run(until=61.0)
    # positions in units: 0.45 m, 600 m, 30 m and 0.55 m
    assert [(v.state, v.pos) for v in sim.vehicles] == [
        (traffic.EN_ROUTE, 16_200), (traffic.EN_ROUTE, 16_200),
        (traffic.EN_ROUTE, 21_600_000), (traffic.FINISHED, 1_080_000),
        (traffic.FINISHED, 1_080_000), (traffic.FINISHED, 1_080_000),
        (traffic.EN_ROUTE, 19_800)]
    assert sim.state_hash() == (
        "ba526c110fee351597ea7854345f511dc2aea612df85adffc24e8d6d536b40d9")
    sim.run()
    assert sim.state_hash() == (
        "d63a2bf581548db72cc82b87e7df8e44f3308238a743e6718d4fdd6b8c6af497")
    assert accumulator_digest(sim) == (
        "a73c9338bb575bd1ca1a56e39dca4c4ae4d102eacaadddc52d61c2841fc500a1")


# --- cruising vehicles ----------------------------------------------------------
#
# A vehicle that holds its link's target speed sleeps until the link's
# occupancy changes or its stop line is near; its moves and burns are
# replayed. The pins below were taken from PerStepSimulation: at each read
# time, the x bits of position() for every en-route vehicle and the state
# hash; at the end, the state hash and the accumulator digest.

CRUISE_PINS = {
    # vehicle 1 cruises on the empty link until vehicle 2 is admitted onto it
    "admission": (
        [2000.0], [(0.0, 1, 2), (30.0, 1, 2)], (),
        {
            20.0: (["0x1.14638e38e38e4p+8"],
                   "6cbc49ef583dc0c1a891f79545bfeca717e72217d7a10b3360cb103471645186"),
            35.0: (["0x1.e46eeeeeeeeefp+8", "0x1.149f49f49f49fp+6"],
                   "6fa65861dc2687c7e06bee34a6c7cced0fc52f7748d6735c907ed1c040c89822"),
        },
        ("c63714c50ad52d226efa76627516a1d3984deb1b8fb0fcb037d37ff6e5de7bdb",
         "87ba8bfa27e64158a55ea564b805c0087ad46168ccb950471cc79a36f75d24fa")),
    # vehicle 2 cruises behind vehicle 1 until vehicle 1 leaves the link
    "exit": (
        [1000.0], [(0.0, 1, 2), (10.0, 1, 2)], (),
        {
            60.0: (["0x1.9d13c21ad9ff8p+9", "0x1.58538e38e38e4p+9"],
                   "cdc2437ec845406d018f84765da59adbcb8e81c29c4a12f579b8939216082d76"),
            80.0: (["0x1.e27a9c1a657d6p+9"],
                   "cebcc5af425fae5cd9a6e02c84c15b032f39c24ce9e932314a19baf0aa74691e"),
        },
        ("44d1cf13f19556051a2ca297f40600280cbe9ff83fe5330aad45d2d7f9e710ab",
         "29d46ddb4c6708baff0905bad52cad8148cce1c7119c2c71182f8e06cf15f35f")),
    # vehicle 2 cruises on link 2 until vehicle 1, earlier in the step
    # order, enters it from upstream
    "entry-earlier": (
        [300.0, 2000.0], [(0.0, 1, 3), (5.0, 2, 3)], (),
        {
            15.0: (["0x1.9de38e38e38e3p+7", "0x1.b6e38e38e38e4p+8"],
                   "bcb0955fd9bb89d97868d3f22bff1d1296a7c1fc6fcefe68afb9498b85ddff51"),
            30.0: (["0x1.9ecc584aa3628p+8", "0x1.435f0fb38a94dp+9"],
                   "4b9996ef5fdd2da8c1a228d6f360e9e0f1a1987c6a255608cd3c064a5133f811"),
        },
        ("1aa8d64bb6cad19a2eeb910ad83486312fe4b72058449b3d3f73059d23aaab74",
         "e6efcab91e82b594f4393678d4ca256c8e6b2dd4a4db7f769523bb5e29131d2a")),
    # vehicle 1 cruises on link 2 until vehicle 2, later in the step
    # order, enters it from upstream
    "entry-later": (
        [300.0, 2000.0], [(0.0, 2, 3), (3.0, 1, 3)], (),
        {
            15.0: (["0x1.faf1c71c71c72p+8", "0x1.4d55555555556p+7"],
                   "9623ef26508e6801df32135fb56c998ce223716cc2721ee6d336c3422bd869cc"),
            30.0: (["0x1.657b9e9b31612p+9", "0x1.76b020c49ba5ep+8"],
                   "e596e9b551c674b8e4d24da1ab4646c2f7aa44e6b145f135ddf517734c53417f"),
        },
        ("4aba06f42c71314a20169d4413017bbd090de87f63875b0c6d8c303d5547e9d9",
         "51c16bd67e8a35093c53413740fbad5490462c8c8d612d03f8cde2254aa41243")),
    # released at the green, the three accelerate to the target; its first
    # steady steps hold the rates of an accelerating step
    "accelerating": (
        [500.0, 500.0], [(0.0, 1, 3), (3.0, 1, 3), (7.5, 1, 3)], (2,),
        {
            70.0: (["0x1.1340000000000p+9", "0x1.1340000000000p+9", "0x1.1340000000000p+9"],
                   "4d6af09560e4a1941411edbd8dda706d3ddb038756110ea1ad5476b6ef229681"),
            85.0: (["0x1.751846ff513ccp+9", "0x1.751846ff513ccp+9", "0x1.751846ff513ccp+9"],
                   "2d1b9c5ecb53364a07c2b0bd8f03689dd0ce8a86e984c3e211c2fff5d9031256"),
        },
        ("daf7b3352c6d24928ad97e22460be9691b5527e81e59bc0f08d47e4651ce1296",
         "da1252e33aeff22cd16fca7e76102161170db8562ffba16c717da8e678342f6b")),
}


# Vehicles on a speed ramp sleep too. These pins were taken from
# PerStepSimulation, in the format of CRUISE_PINS.
RAMP_PINS = {
    # released at the green, the two cross the 40 m link 2 mid-ramp
    "stop-line-mid-ramp": (
        [500.0, 40.0, 500.0], [(0.0, 1, 4), (3.0, 1, 4)], (2,),
        {
            64.0: (["0x1.fc33333333333p+8", "0x1.fc33333333333p+8"],
                   "7303fae7effa10c228580b2a4613a36b881370ebc13763e50cb660e93b385d98"),
            70.0: (["0x1.1340000000000p+9", "0x1.1340000000000p+9"],
                   "af583e4000eedea7789103c87e4cc51cad05fd34403b2991eb6d5107f3a4f27e"),
        },
        ("d1268a41b13f0ecc0ef32126616016845b61047b9962c72f2505d8f5598d9feb",
         "ffb63bdca1dec5a838fe7c99f3f84809baa7f95c297638705e3794c5540ea02b")),
    # vehicle 1 ramps up from the green until six admissions at 68 s drop
    # its target below its speed; it and the admitted ones then decelerate
    # to it, and ramp up again as the link empties
    "admission-decelerating": (
        [300.0, 100.0], [(10.0, 1, 3)] + [(68.0, 2, 3)] * 6, (2,),
        {
            66.0: (["0x1.3e4cccccccccdp+8"],
                   "605ca9c70909a3487f74d4691f438077a95430b4190f56cbe8199ce6dc28fb6c"),
            72.0: (["0x1.68aeeeeeeeeefp+8", "0x1.56b9be02468adp+8", "0x1.5218bf258bf26p+8",
                    "0x1.4da2222222222p+8", "0x1.4a5775a56ed1dp+8", "0x1.48641a657d621p+8",
                    "0x1.47c71c71c71c7p+8"],
                   "b3f6430a4a32e4e9f212d4e6f8842d69bc70d279818f64bfc983de970092be81"),
        },
        ("3845f1e822583d13f495455e3d85a1ba8a355e61fe4d15b5dcccc90bf06d4a39",
         "cc5defa7ff5ce3fcf4a6e48c1cfc4234f37d48de7ab9ce5866066253da3b7805")),
    # vehicle 1 ramps up from the green behind vehicle 2; vehicle 2's exit
    # raises its target mid-ramp
    "exit-higher-target": (
        [300.0, 150.0], [(10.0, 1, 3), (58.0, 2, 3)], (2,),
        {
            65.0: (["0x1.38c0000000000p+8", "0x1.89b3834cafac4p+8"],
                   "16008fd4ea8cd0b0dfeabafa0330d8899a2bfaa2c74a41ed5038f678dfc904c5"),
            70.0: (["0x1.5e80000000000p+8"],
                   "c43be88af4587a23f712b9be403f1437ac8b47edfb1dcd1aa0abbcf7d5acd2f2"),
        },
        ("04d0d54ed16a828f631c44a14a088d4f00cfd9cabbecd86025c686d65f6d4c75",
         "3893740dd681f0ca57a817b47b530688eb4605f70ed8c050c52f6d20e607caa5")),
}


def cruise_sim(lengths, trips, signal_nodes):
    net = line_network(lengths, signal_nodes)
    sched = [traffic.Departure(t, o, d) for t, o, d in trips]
    return traffic.Simulation(net, schedule=sched,
                              config=traffic.TrafficConfig(horizon=400.0))


def check_pins(lengths, trips, signal_nodes, reads, final):
    sim = cruise_sim(lengths, trips, signal_nodes)
    for t, (xs, state) in reads.items():
        while sim.now < t - 1e-9:
            sim.step()
        # position() first, which replays only the moving sleepers
        got = [sim.position(v) for v in sim.enroute]
        assert [x.hex() for x, _ in got] == xs
        assert all(y == 0.0 for _, y in got)
        assert sim.state_hash() == state
    sim.run()
    assert (sim.state_hash(), accumulator_digest(sim)) == final
    # reading mid-sleep changes nothing that follows
    quiet = cruise_sim(lengths, trips, signal_nodes)
    quiet.run()
    assert (quiet.state_hash(), accumulator_digest(quiet)) == final
    assert (quiet.cruise_steps, quiet.ramp_steps) == (sim.cruise_steps, sim.ramp_steps)
    return sim


@pytest.mark.parametrize("name", list(CRUISE_PINS))
def test_cruise_matches_per_step_loop(name):
    assert check_pins(*CRUISE_PINS[name]).cruise_steps > 0


@pytest.mark.parametrize("name", list(RAMP_PINS))
def test_ramp_matches_per_step_loop(name):
    assert check_pins(*RAMP_PINS[name]).ramp_steps > 0


def random_scenario(rng):
    """A seeded small network with signals, its trips and an a_max.

    Line networks mix links shorter than a ramp with longer ones, some of
    them short and dense enough to fill; grids carry trips both ways.
    Bursts of trips fill links, so vehicles wait for room, and trips
    depart until late in the run, so admissions meet vehicles asleep.
    """
    if rng.random() < 0.5:
        lengths = [rng.choice([25.0, 40.0, 90.0, 150.0, 400.0, 900.0])
                   for _ in range(rng.randint(2, 4))]
        nodes = range(1, len(lengths) + 2)
        net = line_network(lengths, rng.sample(nodes[1:], rng.randint(0, len(lengths))),
                           kjam=rng.choice([60.0, 120.0]))
        pairs = [(a, b) for a in nodes for b in nodes if a < b]
    else:
        net = rn.gen_grid(rng.randint(2, 3), rng.randint(2, 3),
                          spacing=rng.choice([30.0, 60.0, 150.0]),
                          jam_density=rng.choice([60.0, 120.0]))
        pairs = [(a, b) for a in net.nodes for b in net.nodes if a != b]
    sched = []
    for _ in range(rng.randint(3, 12)):
        origin, dest = rng.choice(pairs)
        t = round(rng.uniform(0.0, 150.0), 1)
        sched += [traffic.Departure(t, origin, dest)] * rng.choice([1, 1, 2, 8])
    sched.sort(key=lambda d: d.time)
    config = traffic.TrafficConfig(a_max=rng.choice([1.0, 3.6, 12.0]), horizon=300.0)
    return net, sched, config


def end_state(sim):
    return (sim.state_hash(), accumulator_digest(sim), sim.nfd_rows(), sim.vehicle_rows())


def test_moving_sleepers_match_the_per_step_loop():
    """Sleeping changes nothing: positions, tallies and end states are equal.

    At each read, both sides place their fleets through one shared
    coverage index over the scenario's signals, so the tallies of
    vehicles asleep (placed at the pos their unapplied steps reach)
    meet those of the loop that moved every vehicle.
    """
    totals = dict.fromkeys(("ramp_steps", "cruise_steps", "parked_full_steps",
                            "parked_red_steps"), 0)
    lagging = 0          # moving sleepers the reads met with steps unapplied
    for seed in range(40):
        rng = random.Random(seed)
        net, sched, config = random_scenario(rng)
        reads = sorted(round(rng.uniform(1.0, 250.0), 1) for _ in range(3))
        index = rn.CoverageIndex(net, sorted(net.signals), rng.choice([40.0, 100.0, 250.0]))
        ref = PerStepSimulation(net, schedule=sched, config=config)
        sim = traffic.Simulation(net, schedule=sched, config=config)
        for t in reads:
            # stepped, not run(until=t), which would settle the sleepers
            for side in (ref, sim):
                while not side.done() and side.now < t - 1e-9:
                    side.step()
            assert ([[c.hex() for c in sim.position(v)] for v in sim.enroute]
                    == [[c.hex() for c in ref.position(v)] for v in ref.enroute]), (seed, t)
            assert sim.cell_tallies(index) == ref.cell_tallies(index), (seed, t)
            lagging += sum(v.moving and v.burned_to < sim._moved for v in sim.enroute)
        ref.run()
        sim.run()
        want = end_state(ref)
        assert end_state(sim) == want, seed
        # the reads apply nothing, so a run without them ends the same
        quiet = traffic.Simulation(net, schedule=sched, config=config)
        quiet.run()
        assert end_state(quiet) == want, seed
        assert ref.ramp_steps == ref.cruise_steps == 0
        assert ref.parked_red_steps == ref.parked_full_steps == 0
        for key in totals:
            totals[key] += getattr(quiet, key)
    assert all(totals.values()) and lagging, (totals, lagging)


def test_moving_sleeper_wakes_by_the_first_step_that_could_reach_the_line():
    """A moving sleeper's wake is a ceiling division, exact for a cruiser.

    A vehicle put to sleep after step n at pos, with top the faster of
    its speed and target, wakes at step n + ceil((length - pos) / top),
    or stays awake if that is within two steps. For a cruiser (speed ==
    target) that is exactly the step whose move first reaches the line,
    taken step by step as the loop takes it; a ramp's speeds are never
    above top, so it reaches the line no earlier.
    """
    sim = traffic.Simulation(line_network([150.0]), schedule=[])
    length = 150 * traffic.POS_UNITS
    dv_max = 360
    rng = random.Random(3)
    cruisers = 0
    for _ in range(20_000):
        target = rng.randint(20_000, 50_000)
        speed = target + rng.choice([0, rng.randint(-3_000, 3_000)])
        pos = length - rng.randint(1, 60 * target)
        n = rng.randint(0, 1000)
        veh = traffic.Vehicle(1, traffic.Departure(0.0, 1, 2))
        veh.route, veh.pos, veh.speed = [1], pos, speed
        sim._sleep_moving(veh, 1, n, target)
        p, v, step = pos, speed, n
        while p < length:
            v += min(max(target - v, -dv_max), dv_max)
            p += v
            step += 1
        wake = n + -(-(length - pos) // max(speed, target))
        if wake - n - 1 < 2:
            assert veh.wake == 0 and not veh.moving
            continue
        assert veh.wake == wake <= step
        if speed == target:
            cruisers += 1
            assert wake == step
    assert cruisers > 1000


# --- the wake calendar ----------------------------------------------------------
#
# The step loop visits only the vehicles that are awake or due; a sleeping one
# is filed under its wake step. The pins below were taken from
# PerStepSimulation, which visits every en-route vehicle every step.

# position() x bits of the en-route vehicles and the state hash at each read
# time, then the state hash and accumulator digest at the end
RESUMED_CRUISE_READS = {
    144.7: (["0x1.f410c0f794980p+10", "0x1.e30d32beb109dp+10", "0x0.0p+0"],
            "e52d701a9c2af6be9e2439249e41233e8f5a0489dd89fa6d3f42e5e766433fc1"),
    146.0: (["0x1.f8944f3078264p+10", "0x1.e78bf258bf259p+10", "0x1.1fafe68386f0cp+4"],
            "b9f0bd5c9b6a2ecff2626960f4af61746a5912a28bc17035f649d2a516e66b41"),
    149.6: (["0x1.028a27983c132p+11", "0x1.f3fea27983c13p+10", "0x1.0f16fbad2b769p+6"],
            "b3d75a1d9b515a6e0dcb46bf4d55e9b3756a4a75c8308b6b317e28f5d8860241"),
    150.0: (["0x1.033a3b645a1cbp+11", "0x1.f55dd950c83fbp+10", "0x1.2549f49f49f4ap+6"],
            "37ceeb70d5c157931668993e799cbb4d96de020fc49d8fd6948ee4271f9b203b"),
}
RESUMED_CRUISE_FINAL = (
    "9ab4a279b83afe82341b43822a27e3bfb854395c74ca2db75207efcefe1037bf",
    "04a3aed609f2463004e192c282c8bb4c1951fadca5f8ea88b0563766e55f0b8b")


def test_cruise_cut_short_and_resumed_with_the_same_wake_steps_once():
    # Vehicle 2 cruises behind vehicle 1 on link 1 from step 51, due at
    # step 1496. In step 1446 vehicle 1 leaves the link and vehicle 3 is
    # admitted onto it, which cuts the cruise short although the next
    # snapshot holds the count it read. The cruise resumes after its next
    # visit, from step 1448, with the same wake, so vehicle 2 is filed
    # twice under step 1496; it must be moved once there.
    net = line_network([2000.0, 500.0])
    sched = [traffic.Departure(t, 1, 3) for t in (0.0, 5.0, 144.65)]
    sim = traffic.Simulation(net, schedule=sched,
                             config=traffic.TrafficConfig(horizon=400.0))
    veh = sim.vehicles[1]
    for t, (xs, state) in RESUMED_CRUISE_READS.items():
        sim.run(until=t)
        if t == 146.0:
            assert veh.wake == 1496 and sim._calendar[1496].count(veh) == 2
        assert [sim.position(v)[0].hex() for v in sim.enroute] == xs
        assert sim.state_hash() == state
    sim.run()
    assert (sim.state_hash(), accumulator_digest(sim)) == RESUMED_CRUISE_FINAL
    assert (sim.vehicle_steps, sim.cruise_steps, sim.ramp_steps) == (5425, 5402, 5)
    # every vehicle-step is either visited or replayed
    assert sim.visited_steps == 5425 - 5402 - 5


class CarrierLog(eco.CommModule):
    """Realistic uplink that logs its carriers in step order after each step.

    At t = 80 s it takes the second carrier's reports out of its custody,
    as a delivery would.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = []

    def step(self, sim, now):
        super().step(sim, now)
        carriers = sorted(self.carriers, key=lambda v: v.seq)
        self.log.append([v.id for v in carriers])
        # a carrier that finished lost its reports in the step it finished
        assert all(v.state == traffic.EN_ROUTE for v in carriers)
        if abs(now - 80.0) < 1e-9:
            del self.carriers[carriers[1]]


def test_parked_carrier_stays_in_step_order_until_emptied():
    # Four trips carry the report of link 1 to the red light at node 3,
    # where all four park from about 76 s to 90 s. The only RSU sits at
    # node 1 and reaches 1e-306 m, so no carrier is ever connected, and
    # only the emptying at 80 s (vehicle 2) or the end of a trip takes a
    # sleeping carrier out of the uplink's carriers.
    net = line_network([500.0, 500.0, 300.0], signal_nodes=[1, 3], vertical=True)
    comm = CarrierLog(rn.CoverageIndex(net, [1], 1e-306), eco.TmcCostTable(net),
                      mac_analytic.MacParams(n_stations=1, arrival_rate=1.0))
    sched = [traffic.Departure(t, 1, 4) for t in (0.0, 1.0, 2.0, 3.0)]
    sim = traffic.Simulation(net, schedule=sched, comm=comm,
                             config=traffic.TrafficConfig(horizon=400.0))
    sim.run()
    assert comm.log[799:802] == [[1, 2, 3, 4], [1, 3, 4], [1, 3, 4]]
    assert comm.log[899:901] == [[1, 3, 4], [1, 2, 3, 4]]
    assert hashlib.sha256(repr(comm.log).encode()).hexdigest() == (
        "6b4128a081959323d551ffd598b4e353b50d787fee9cc280767afe6853a23d9d")
    assert (sim.state_hash(), accumulator_digest(sim)) == (
        "3e661f739e98db8bce19b317d13ff6cd2c13577aaf99d3f0318f74c3b2c6ea62",
        "b79cf0675b21417941578f931c25aa55e59262bedfaaf4e10639019bb7d5385b")
    assert comm.delivered == 0


# --- statistics ---------------------------------------------------------------

def test_nfd_sample_arithmetic():
    net = line_network([10000.0], vf=60.0)
    sim = traffic.Simulation(net, schedule=[traffic.Departure(0.0, 1, 2)],
                             config=traffic.TrafficConfig(horizon=100.0))
    sim.run(until=40.0)
    empty, loaded = sim.nfd[0], sim.nfd[1]
    assert (empty.time, empty.density, empty.flow, empty.speed) == (0.0, 0.0, 0.0, None)
    assert loaded.time == pytest.approx(30.0)
    assert loaded.density == pytest.approx(0.1, rel=1e-12)
    assert loaded.flow == pytest.approx(6.0, rel=1e-12)
    assert loaded.speed == pytest.approx(60.0, rel=1e-12)


def test_free_flow_limit_mean_delay_is_signal_wait():
    net = line_network([500.0, 500.0], signal_nodes=[2])
    od = traffic.OdDemand((traffic.OdEntry(1, 3, 120.0, 0.0, 7200.0),))
    sim = traffic.Simulation(net, demand=od, seed=3,
                             config=traffic.TrafficConfig(a_max=1e9))
    sim.run()
    s = sim.summary()
    assert s["deferred"] == 0 and s["unfinished"] == 0 and s["waiting"] == 0
    assert s["generated"] == s["finished"] > 150
    # uniform arrival in a 60 s cycle with 30 s green: mean residual red 7.5 s
    assert 6.0 < s["mean_delay_s"] < 10.5
    assert s["mean_travel_s"] == pytest.approx(72.0 + s["mean_delay_s"], abs=0.2)


def test_determinism_and_seed_sensitivity():
    net = rn.gen_grid(3, 3, spacing=150.0)
    od = traffic.OdDemand((traffic.OdEntry(1, 9, 600.0, 0.0, 300.0),
                           traffic.OdEntry(9, 1, 600.0, 0.0, 300.0)))
    runs = []
    for seed in (7, 7, 8):
        sim = traffic.Simulation(net, demand=od, seed=seed)
        sim.run()
        runs.append((sim.state_hash(), sim.summary()))
    assert runs[0] == runs[1]
    assert runs[0][0] != runs[2][0]


def test_quantized_energy_tracks_exact_mode():
    # The reference is the step loop's lookup without the 0.5-unit bins,
    # clamped to the envelope as the real one is, installed on the
    # instance; step and _replay both call self._lookup_rates.
    (v_lo, v_hi), (a_lo, a_hi) = energy.ENVELOPE_V, energy.ENVELOPE_A

    def exact_rates(sim):
        def lookup(v, dv):
            v = min(max(v / traffic.SPEED_UNITS, v_lo), v_hi)
            a = min(max(dv / (traffic.SPEED_UNITS * traffic.DT), a_lo), a_hi)
            return tuple(round(energy.vt_micro_rate(v, a, sim.coeffs, m) * traffic.DT / q)
                         for m, q in zip(energy.MEASURES, traffic.BURN_QUANTA))
        return lookup

    net = line_network([500.0, 500.0], signal_nodes=[2])
    fuels = []
    for exact in (True, False):
        sim = traffic.Simulation(
            net, schedule=[traffic.Departure(0.0, 1, 3)],
            config=traffic.TrafficConfig(horizon=300.0))
        if exact:
            sim._lookup_rates = exact_rates(sim)
        sim.run()
        fuels.append(sim.vehicles[0].fuel)
    exact_fuel, quant_fuel = fuels
    assert quant_fuel != exact_fuel
    assert quant_fuel == pytest.approx(exact_fuel, rel=0.03)

"""Traffic simulator tests.

The signal hand trace is fully derived on paper: a lone vehicle on two
500 m links at 50 km/h covers 25/18 m per step, so each link takes
exactly 360 steps; with an east-west signal at the middle node (green
over [0,30) s of each minute) a vehicle reaching the stop line at
t=36.0 s waits until t=60.0 s. Fuel follows the same timeline, split
between the cruise rate and the idle rate, so the totals are checked
against closed-form sums rather than against the simulator itself.
"""

import hashlib
import math

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
    assert veh.speed == 50.0       # admitted at the empty-link equilibrium speed
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

    r50 = energy.vt_micro_rate(50.0, 0.0, sim.coeffs)
    idle = energy.vt_micro_rate(0.0, 0.0, sim.coeffs)
    assert veh.fuel == pytest.approx(71.9 * r50 + 24.0 * idle, rel=1e-9)

    u1, u2 = sim.updates
    assert (u1.link_id, u2.link_id) == (1, 2)
    assert u1.created_at == pytest.approx(60.1, abs=1e-6)
    assert u2.created_at == pytest.approx(96.0, abs=1e-6)
    assert u1.fuel == pytest.approx(36.0 * r50 + 23.9 * idle, rel=1e-9)
    assert u2.fuel == pytest.approx(35.9 * r50 + 0.1 * idle, rel=1e-9)
    # no comm module attached, so reports die with the trip
    assert u1.fate == u2.fate == "dropped"


def test_acceleration_clamp_after_release():
    net = line_network([500.0, 500.0], signal_nodes=[2])
    sim = traffic.Simulation(net, schedule=[traffic.Departure(0.0, 1, 3)],
                             config=traffic.TrafficConfig(horizon=200.0))
    sim.run(until=60.0)
    veh = sim.vehicles[0]
    assert veh.speed == 0.0 and veh.pos == 500.0
    for k in range(1, 11):
        sim.step()
        assert veh.speed == pytest.approx(k * 0.36, abs=1e-9)


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
        for lk in sim._lk.values():
            assert len(lk.target) == lk.cap + 1
            for k, v in enumerate(lk.target):
                want = traffic.greenshields(lk.free_speed, k * lk.inv_len_lanes, lk.jam)
                assert v.hex() == want.hex()
            key = (lk.free_speed, lk.inv_len_lanes, lk.jam, lk.cap)
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
    assert lk.target[0] == 50.0 and lk.target[lk.cap] == 0.0


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
# burn is replayed later. The pinned hashes and float bits below were taken
# from the plain per-step loop, which burned every held step; they must not
# move.

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


RED_HOLD_HASH_45 = "54fd57cb3f7493553b33befccbbeb5129b022c4b15b7d19e979b6e698cefa2e9"
RED_HOLD_FUEL_45 = ["0x1.7781163fdbbabp-5", "0x1.715c701337b19p-5",
                    "0x1.5e098b7d5b768p-5"]


def test_red_hold_mid_wait_matches_per_step_burn():
    sim = red_hold_sim()
    sim.run(until=45.0)
    assert all(v.pos == 500.0 and v.speed == 0.0 for v in sim.vehicles)
    assert [v.fuel.hex() for v in sim.vehicles] == RED_HOLD_FUEL_45
    assert [v.link_fuel.hex() for v in sim.vehicles] == RED_HOLD_FUEL_45
    assert accumulator_digest(sim) == (
        "216ce1eb3c9593fdb0ded01805fe53f696ceb3d19170a02eedb17afd62b58849")
    assert sim.state_hash() == RED_HOLD_HASH_45
    sim.run()
    assert sim.state_hash() == (
        "8c1a047049eb5aeeddfe3486a6611702f0d24a180f981dd4d128edcb1aaf4ff0")
    assert accumulator_digest(sim) == (
        "af49e3a5aea172fc0af793c196b573020c971b05544abe7a914688bfb40a44fe")


def test_state_hash_settles_parked_vehicles():
    sim = red_hold_sim()
    for _ in range(450):
        sim.step()
    assert sim.state_hash() == RED_HOLD_HASH_45
    assert [v.fuel.hex() for v in sim.vehicles] == RED_HOLD_FUEL_45
    assert [v.link_fuel.hex() for v in sim.vehicles] == RED_HOLD_FUEL_45


def test_ring_gridlock_full_link_wait_matches_per_step_burn():
    sim = ring_gridlock_sim()
    sim.run()
    assert sim.parked_red_steps == 0 and sim.parked_full_steps > 0
    assert sim.state_hash() == (
        "773003fdc70d68cc0ab2db68271e2cd579bc88d9d43700119453dfc327d41dfb")
    assert accumulator_digest(sim) == (
        "e1ecc13c8b8a733b1dda6701d6a719a46fe0713a8662f90379e9d66b14657141")


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
    assert [(v.state, v.pos) for v in sim.vehicles] == [
        (traffic.EN_ROUTE, 0.45000000000000007), (traffic.EN_ROUTE, 0.45000000000000007),
        (traffic.EN_ROUTE, 600.0), (traffic.FINISHED, 30.0),
        (traffic.FINISHED, 30.0), (traffic.FINISHED, 30.0), (traffic.EN_ROUTE, 0.55)]
    assert sim.state_hash() == (
        "552e5a083e9301f6d4904563c5ddccea5a6a5ccc47b2f0644099718f355abe20")
    sim.run()
    assert sim.state_hash() == (
        "d1ba867e484faa71e4ead1b28a235e2151344b929ad7b4210805dd82d8f701cf")
    assert accumulator_digest(sim) == (
        "c7cc8cecdb0516751867b9418decb10612c1397b8aba56323415a631588d41b5")


# --- cruising vehicles ----------------------------------------------------------
#
# A vehicle that holds its link's target speed sleeps until the link's
# occupancy changes or its stop line is near; its moves and burns are
# replayed. The pins below were taken from the plain per-step loop: at each
# read time, the x bits of position() for every en-route vehicle and the
# state hash; at the end, the state hash and the accumulator digest.

CRUISE_PINS = {
    # vehicle 1 cruises on the empty link until vehicle 2 is admitted onto it
    "admission": (
        [2000.0], [(0.0, 1, 2), (30.0, 1, 2)], (),
        {
            20.0: (["0x1.14638e38e38e1p+8"],
                   "e648e1d925f45907d10629cef7ae11581234fd1532006719aff5c3d4dd755085"),
            35.0: (["0x1.e46ed097b4285p+8", "0x1.149ed097b4262p+6"],
                   "5cf7404ba54e293b1de300d279ee9b930a8f6341f5b33c32a96b737ff4284481"),
        },
        ("99d5f88fc8d4671224eb5a1f7ac3b7ba3eff649f61de4ecbd3be47bc22359935",
         "125243d978aa8609b062ae7401ad6e39dfba64e8048388bac02698828ef2f3ee")),
    # vehicle 2 cruises behind vehicle 1 until vehicle 1 leaves the link
    "exit": (
        [1000.0], [(0.0, 1, 2), (10.0, 1, 2)], (),
        {
            60.0: (["0x1.9d14598153cecp+9", "0x1.585425ed097aep+9"],
                   "df9af4e09db358d969ca1b3a0f0e23bcb0fffd81fefa35a155d2bb12d6b87b41"),
            80.0: (["0x1.e27b5aa49936cp+9"],
                   "aa0eaa001527aeb8bd4d51e4e462e8e340d3ae39b5759f4213dde185d59e7d76"),
        },
        ("b53a88afb0d0e3df4ffea2cd35a0fb3001155ec20f5d280a45757e2da7db903f",
         "fc49a20ec89d90acd916e6e72da65951bb506e1e103ddcb8a4aedcf4b285cfc8")),
    # vehicle 2 cruises on link 2 until vehicle 1, earlier in the step
    # order, enters it from upstream
    "entry-earlier": (
        [300.0, 2000.0], [(0.0, 1, 3), (5.0, 2, 3)], (),
        {
            15.0: (["0x1.9de38e38e38d6p+7", "0x1.b6e38e38e38e0p+8"],
                   "af3416578fdc47e3e81bbb1f3209e514b8dbc3fc6a77f3db8a2937ce406b1a99"),
            30.0: (["0x1.9ecc25ed097b8p+8", "0x1.435ef684bda0cp+9"],
                   "30208c63f30c6e9d6cc617b446e8e670b5d585a3466f919c8634e454af2a5b78"),
        },
        ("86fc303503a990fac36dd002650e40cf941537182da9a7b8e7cfacab319cd824",
         "a37ba58d9ab6aa9fa274a9e8d00f65856e2eae688d37cfa27aa30b2e1b691a6a")),
    # vehicle 1 cruises on link 2 until vehicle 2, later in the step
    # order, enters it from upstream
    "entry-later": (
        [300.0, 2000.0], [(0.0, 2, 3), (3.0, 1, 3)], (),
        {
            15.0: (["0x1.faf1c71c71c6bp+8", "0x1.4d5555555554bp+7"],
                   "461f04f5d2b2888f898a5376e0a1459a8fa3947b1f9c8aa0e6803d09c9b56908"),
            30.0: (["0x1.657b8e38e38eap+9", "0x1.76b0000000006p+8"],
                   "9e18f7c2f656adbb1d1e0897fbb692b847ec6d837bff5a4ff8fabdaeb3b3e36c"),
        },
        ("e4a2f7825264a0701d61ff71728d75ceefe542637e07fda8394b0ada97361107",
         "8c3ada0b736d53a35537127fed56a0af94d64be3449ede93c1743600de628da3")),
    # released at the green, the three accelerate to the target; its first
    # steady steps hold the rates of an accelerating step
    "accelerating": (
        [500.0, 500.0], [(0.0, 1, 3), (3.0, 1, 3), (7.5, 1, 3)], (2,),
        {
            70.0: (["0x1.1340000000000p+9", "0x1.1340000000000p+9", "0x1.1340000000000p+9"],
                   "d45ad3bf943173113f4406ccc00b454d181f59cc7c27a5b2bd452d9092f81feb"),
            85.0: (["0x1.75186a314dbefp+9", "0x1.75186a314dbefp+9", "0x1.75186a314dbefp+9"],
                   "d4eb4b861516b8b01ad8e4d3cc75dcd2dc94463923848448afa9e1909fd2449f"),
        },
        ("8c1a047049eb5aeeddfe3486a6611702f0d24a180f981dd4d128edcb1aaf4ff0",
         "af49e3a5aea172fc0af793c196b573020c971b05544abe7a914688bfb40a44fe")),
}


def cruise_sim(lengths, trips, signal_nodes):
    net = line_network(lengths, signal_nodes)
    sched = [traffic.Departure(t, o, d) for t, o, d in trips]
    return traffic.Simulation(net, schedule=sched,
                              config=traffic.TrafficConfig(horizon=400.0))


@pytest.mark.parametrize("name", list(CRUISE_PINS))
def test_cruise_matches_per_step_loop(name):
    lengths, trips, signal_nodes, reads, final = CRUISE_PINS[name]
    sim = cruise_sim(lengths, trips, signal_nodes)
    for t, (xs, state) in reads.items():
        while sim.now < t - 1e-9:
            sim.step()
        # position() first, which settles only the position
        got = [sim.position(v) for v in sim.enroute]
        assert [x.hex() for x, _ in got] == xs
        assert all(y == 0.0 for _, y in got)
        assert sim.state_hash() == state
    sim.run()
    assert (sim.state_hash(), accumulator_digest(sim)) == final
    assert sim.cruise_steps > 0
    # reading mid-cruise changes nothing that follows
    quiet = cruise_sim(lengths, trips, signal_nodes)
    quiet.run()
    assert (quiet.state_hash(), accumulator_digest(quiet)) == final
    assert quiet.cruise_steps == sim.cruise_steps


# --- the wake calendar ----------------------------------------------------------
#
# The step loop visits only the vehicles that are awake or due; a sleeping one
# is filed under its wake step. The pins below were taken from the loop that
# visited every en-route vehicle every step.

# position() x bits of the en-route vehicles and the state hash at each read
# time, then the state hash and accumulator digest at the end
RESUMED_CRUISE_READS = {
    144.7: (["0x1.f40fed097b56dp+10", "0x1.e30c5ed097c72p+10", "0x0.0p+0"],
            "5cfbe996ac57a5e3a9933382ab10412c4d84df426cbd14f3c72db8b88f3d5d0a"),
    146.0: (["0x1.f8937b425ee51p+10", "0x1.e78b1c71c72fdp+10", "0x1.1faf684bda12ep+4"],
            "138fe7a1bd990e97e83257de4361de2b758bcee3269f47f613d45e4e683e87ff"),
    149.6: (["0x1.0289bda12f728p+11", "0x1.f3fdc71c71db9p+10", "0x1.0f1684bda12fap+6"],
            "86b1bb3cda940c36a1bc3323b9a4bb418e7d230c232ab21693ec6eb6cfa08e7e"),
    150.0: (["0x1.0339d159e2753p+11", "0x1.f55cfd585e22ep+10", "0x1.25497b425ed0cp+6"],
            "844e9fa9b568179953510d3e245d5384a54b48594855180c9b64dd3056cc2eb7"),
}
RESUMED_CRUISE_FINAL = (
    "519346b7146e2eb623867f1991d3ab4809bec7417c8fbdb3e0f01060002188ad",
    "807921241c1d02eb74632c905df4852194610c9e27cb68a8849179273d52ad04")


def test_cruise_cut_short_and_resumed_with_the_same_wake_steps_once():
    # Vehicle 2 cruises behind vehicle 1 on link 1 from step 51, due at
    # step 1495. In step 1446 vehicle 1 leaves the link and vehicle 3 is
    # admitted onto it, which cuts the cruise short although the next
    # snapshot holds the count it read. The cruise resumes at the next
    # lookup, step 1450, with the same wake, so vehicle 2 is filed twice
    # under step 1495; it must be moved once there.
    net = line_network([2000.0, 500.0])
    sched = [traffic.Departure(t, 1, 3) for t in (0.0, 5.0, 144.65)]
    sim = traffic.Simulation(net, schedule=sched,
                             config=traffic.TrafficConfig(horizon=400.0))
    veh = sim.vehicles[1]
    for t, (xs, state) in RESUMED_CRUISE_READS.items():
        sim.run(until=t)
        if t == 146.0:
            assert veh.wake == 1495 and sim._calendar[1495].count(veh) == 2
        assert [sim.position(v)[0].hex() for v in sim.enroute] == xs
        assert sim.state_hash() == state
    sim.run()
    assert (sim.state_hash(), accumulator_digest(sim)) == RESUMED_CRUISE_FINAL
    assert (sim.vehicle_steps, sim.cruise_steps) == (5425, 5361)
    # every vehicle-step is either visited or replayed
    assert sim.visited_steps == 5425 - 5361


class CarrierLog(eco.CommModule):
    """Realistic uplink that logs the carriers it is handed at each step.

    At t = 80 s it empties the second carrier's pending list, as a delivery
    would.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = []

    def step(self, sim, now):
        self.log.append([v.id for v in sim.carriers])
        assert sim.carriers == [v for v in sim.enroute if v.pending]
        super().step(sim, now)
        if abs(now - 80.0) < 1e-9:
            sim.carriers[1].pending = []


def test_parked_carrier_stays_in_step_order_until_emptied():
    # Four trips carry the report of link 1 to the red light at node 3,
    # where all four park from about 76 s to 90 s. The only RSU sits at
    # node 1 and reaches 1e-306 m, so no carrier is ever connected, and
    # only the emptying at 80 s (vehicle 2) or the end of a trip takes a
    # sleeping carrier out of the list.
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
        "f9bc026281fbd4385eafd91a3a886a05ce05c63a1dadcb5539fd9d6757c92066",
        "8d01f1cb0bb16f5c85a41ad82138c84bfcb2bbfd5b585cca14b42b80ec4cfa45")
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


def test_preload_trips_shape_density_but_not_statistics():
    net = line_network([10000.0], vf=60.0)
    sched = [traffic.Departure(0.0, 1, 2, preload=True),
             traffic.Departure(0.0, 1, 2)]
    sim = traffic.Simulation(net, schedule=sched,
                             config=traffic.TrafficConfig(horizon=700.0))
    sim.run(until=40.0)
    assert sim.nfd[1].density == pytest.approx(0.2, rel=1e-12)
    sim.run()
    s = sim.summary()
    assert s["generated"] == s["finished"] == 1
    assert len(sim.vehicle_rows()) == 1


def test_quantized_energy_tracks_exact_mode():
    # The reference is the step loop's lookup without the 0.5-unit bins,
    # clamped to the envelope as the real one is, installed on the
    # instance; step and _replay both call self._lookup_rates.
    (v_lo, v_hi), (a_lo, a_hi) = energy.ENVELOPE_V, energy.ENVELOPE_A

    def exact_rates(sim):
        def lookup(v, a):
            v = min(max(v, v_lo), v_hi)
            a = min(max(a, a_lo), a_hi)
            return tuple(energy.vt_micro_rate(v, a, sim.coeffs, m) * traffic.DT
                         for m in energy.MEASURES)
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

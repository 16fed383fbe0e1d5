"""Traffic simulator tests.

The signal hand trace is fully derived on paper: a lone vehicle on two
500 m links at 50 km/h covers 25/18 m per step, so each link takes
exactly 360 steps; with an east-west signal at the middle node (green
over [0,30) s of each minute) a vehicle reaching the stop line at
t=36.0 s waits until t=60.0 s. Fuel follows the same timeline, split
between the cruise rate and the idle rate, so the totals are checked
against closed-form sums rather than against the simulator itself.
"""

import math

import pytest

from vanetsim import energy, roadnet as rn, traffic
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
    for a_max in (0.0, -3.6):
        with pytest.raises(ValidationError):
            traffic.TrafficConfig(a_max=a_max)
    for horizon in (0.0, -1.0):
        with pytest.raises(ValidationError):
            traffic.TrafficConfig(horizon=horizon)


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


def test_ring_gridlock_flow_zero_density_at_jam():
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
    sim = traffic.Simulation(net, schedule=sched,
                             config=traffic.TrafficConfig(horizon=300.0))
    sim.run()
    counts = sim.counts()
    assert counts[traffic.FINISHED] == 0
    assert counts[traffic.EN_ROUTE] == 72
    assert counts[traffic.DEFERRED] == 48
    last = sim.nfd[-1]
    assert last.density == pytest.approx(120.0)   # pinned at jam density
    assert last.speed == 0.0
    assert last.flow == 0.0


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
    net = line_network([500.0, 500.0], signal_nodes=[2])
    fuels = []
    for exact in (True, False):
        sim = traffic.Simulation(
            net, schedule=[traffic.Departure(0.0, 1, 3)],
            config=traffic.TrafficConfig(horizon=300.0, exact_energy=exact))
        sim.run()
        fuels.append(sim.vehicles[0].fuel)
    exact_fuel, quant_fuel = fuels
    assert quant_fuel == pytest.approx(exact_fuel, rel=0.03)

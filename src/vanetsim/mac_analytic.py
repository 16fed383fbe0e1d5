"""Analytical model of one V2I communication cell with a finite queue.

A cell is N stations sharing a channel. Each station feeds packets
(Poisson, rate lambda) through a K-limited FIFO into a slotted CSMA/CA
access function with AIFS sensing and binary-exponential back-off. The
access function is a Markov chain over (retry stage i, remaining
back-off slots j) plus one empty-system state; the queue in front of it
behaves as M/M/1/K with service rate 1/t_serv. Chain and queue close on
each other through four coupled quantities

    p_trans  per-slot transmission probability of one station
    p_col    conditional collision probability of an attempt
    p_idle   probability the medium stays idle for AIFS slots in a row
    q0       probability a station's system is empty

which solve() settles by damped fixed-point iteration. Every function
here is pure and deterministic: same inputs, bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from . import constants
from .errors import ConfigurationError, ConvergenceError, DegenerateInputError

FIXED_POINT_TOL = 1e-9
FIXED_POINT_DAMPING = 0.5
FIXED_POINT_MAX_ITER = 10_000
RHO_UNIT_EPS = 1e-9        # relative threshold selecting the lambda == mu branch
SATURATED_Q0_FLOOR = 1e-12  # below this the queue-wait expression has no float meaning
_P_IDLE_FLOOR = 1e-300      # keeps 1/p_idle finite while iterates pass through 0


class AccessMode(Enum):
    BASIC = "basic"
    RTS_CTS = "rtscts"


@dataclass(frozen=True)
class MacParams:
    """Inputs of the cell model: population, load, and protocol timing."""

    n_stations: int
    arrival_rate: float                 # packets/s offered per station
    queue_capacity: int = constants.QUEUE_CAPACITY
    w0: int = constants.CW_MIN
    alpha: int = constants.CW_SCALING
    m_stages: int = constants.MAX_DOUBLINGS
    f_extra: int = constants.EXTRA_RETRIES
    aifs_slots: int = constants.AIFS_SLOTS
    slot_time: float = constants.SLOT_TIME
    sifs: float = constants.SIFS_TIME
    data_rate: float = constants.DATA_RATE
    payload_bits: int = constants.PAYLOAD_BITS
    ack_bits: int = constants.ACK_BITS
    rts_bits: int = constants.RTS_BITS
    cts_bits: int = constants.CTS_BITS
    propagation_delay: float = constants.PROPAGATION_DELAY
    access_mode: AccessMode = AccessMode.BASIC

    def problems(self) -> list[str]:
        """Every violated field constraint, not just the first."""
        bad = []
        if self.n_stations < 1:
            bad.append(f"n_stations must be >= 1, got {self.n_stations}")
        if not self.arrival_rate > 0:
            bad.append(f"arrival_rate must be > 0, got {self.arrival_rate}")
        if self.queue_capacity < 1:
            bad.append(f"queue_capacity must be >= 1, got {self.queue_capacity}")
        if self.w0 < 2:
            bad.append(f"w0 must be >= 2, got {self.w0}")
        if self.alpha < 2:
            bad.append(f"alpha must be >= 2, got {self.alpha}")
        if self.m_stages < 0:
            bad.append(f"m_stages must be >= 0, got {self.m_stages}")
        if self.f_extra < 0:
            bad.append(f"f_extra must be >= 0, got {self.f_extra}")
        if self.m_stages + self.f_extra < 1:
            bad.append("m_stages + f_extra must be >= 1 (a packet needs one attempt)")
        if self.aifs_slots < 1:
            bad.append(f"aifs_slots must be >= 1, got {self.aifs_slots}")
        if not self.slot_time > 0:
            bad.append(f"slot_time must be > 0, got {self.slot_time}")
        if self.sifs < 0:
            bad.append(f"sifs must be >= 0, got {self.sifs}")
        if not self.data_rate > 0:
            bad.append(f"data_rate must be > 0, got {self.data_rate}")
        if self.payload_bits < 0:
            bad.append(f"payload_bits must be >= 0, got {self.payload_bits}")
        for name in ("ack_bits", "rts_bits", "cts_bits"):
            if getattr(self, name) < 0:
                bad.append(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.propagation_delay < 0:
            bad.append(f"propagation_delay must be >= 0, got {self.propagation_delay}")
        return bad

    def validate(self) -> "MacParams":
        bad = self.problems()
        if bad:
            raise ConfigurationError("invalid MacParams: " + "; ".join(bad))
        return self

    @property
    def retry_stages(self) -> int:
        """Total attempt stages per packet (M doublings plus f capped retries)."""
        return self.m_stages + self.f_extra


@dataclass
class MacSolution:
    """Converged cell metrics. t_q/t_delay are None when the queue is saturated."""

    p_trans: float
    p_col: float
    p_idle_slot: float
    p_idle: float
    p_suc: float
    p_fail: float
    q0: float
    p00: float
    t_s: float
    t_f: float
    t_w: float
    t_tr_av: float
    t_serv: float
    mu: float
    rho: float
    p_rej: float
    p_drop: float
    t_q: float | None
    t_delay: float | None
    lambda_eff: float
    throughput: float        # packets/s for the whole cell, rate-scaled
    throughput_raw: float    # dimensionless form of the same quantity
    iterations: int
    residual: float

    def as_record(self) -> dict:
        """Field name -> value, in declaration order, for text records."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def window_sizes(params: MacParams) -> tuple[int, ...]:
    """Contention window per retry stage: doubles M times, then stays capped."""
    return tuple(
        params.w0 * params.alpha ** min(i, params.m_stages)
        for i in range(params.retry_stages)
    )


def transmission_times(params: MacParams) -> tuple[float, float]:
    """Channel occupancy (t_s, t_f) in seconds of a successful and a failed attempt.

    Every frame is charged bits / data_rate; the AIFS ahead of the attempt
    is part of both occupancies.
    """
    t_aifs = params.aifs_slots * params.slot_time
    t_frame = params.payload_bits / params.data_rate
    t_pro = params.propagation_delay
    t_ack = params.ack_bits / params.data_rate
    if params.access_mode is AccessMode.BASIC:
        t_s = t_aifs + t_frame + t_pro + params.sifs + t_ack + t_pro
        t_f = t_aifs + t_frame + t_pro
    else:
        t_rts = params.rts_bits / params.data_rate
        t_cts = params.cts_bits / params.data_rate
        t_s = (t_aifs + t_rts + t_pro + params.sifs + t_cts + t_pro
               + params.sifs + t_frame + t_pro + params.sifs + t_ack + t_pro)
        t_f = t_aifs + t_rts + t_pro
    return t_s, t_f


@dataclass
class StateDistribution:
    """Stationary chain probabilities, all expressed through p00."""

    p00: float
    p_empty: float                # empty-system state
    head: np.ndarray              # P(i,0), one entry per retry stage
    backoff: list[np.ndarray]     # backoff[i][j-1] = P(i,j), j = 1..w_i-1

    @property
    def p_trans(self) -> float:
        """A station transmits when it sits in any head-of-stage state."""
        return float(self.head.sum())

    @property
    def p_last(self) -> float:
        """P(M+f-1, 0): occupancy of the final retry stage."""
        return float(self.head[-1])

    def total_mass(self) -> float:
        """Literal sum over every state; equals 1 at a consistent iterate."""
        return float(self.p_empty + self.head.sum()
                     + sum(row.sum() for row in self.backoff))


def state_probabilities(p00: float, p_col: float, p_idle: float, q0: float,
                        params: MacParams) -> StateDistribution:
    """Expand p00 into the full stationary distribution of the chain."""
    if q0 >= 1.0:
        raise DegenerateInputError("q0 = 1 leaves no probability mass for the chain")
    if not p_idle > 0.0:
        raise DegenerateInputError("p_idle must be positive")
    windows = window_sizes(params)
    head = np.array([p00 * p_col ** i for i in range(len(windows))])
    backoff = []
    for i, w in enumerate(windows):
        j = np.arange(1, w)
        backoff.append((w - j) / w * (p_col ** i / p_idle) * p00)
    p_empty = q0 / (1.0 - q0) * p00
    return StateDistribution(p00=p00, p_empty=p_empty, head=head, backoff=backoff)


def normalize_p00(p_col: float, p_idle: float, q0: float, params: MacParams) -> float:
    """p00 fixed by requiring the full state mass to sum to one.

    Sums stage by stage; the per-stage back-off mass uses the exact
    arithmetic-series identity sum_{j=1..w-1} (w-j)/w = (w-1)/2.
    """
    if q0 >= 1.0:
        raise DegenerateInputError("q0 = 1 leaves no probability mass for the chain")
    if not p_idle > 0.0:
        raise DegenerateInputError("p_idle must be positive")
    windows = window_sizes(params)
    mass = q0 / (1.0 - q0)
    for i, w in enumerate(windows):
        weight = p_col ** i
        mass += weight                                # head state (i, 0)
        mass += weight * (w - 1) / (2.0 * p_idle)     # back-off states (i, j>0)
    return 1.0 / mass


def normalize_p00_closed_form(p_col: float, p_idle: float, q0: float,
                              params: MacParams) -> float:
    """Geometric-series closed form of normalize_p00, as a cross-check.

    Unstable where the series ratios approach 1; callers should guard
    p_col away from 1 and from 1/alpha.
    """
    if q0 >= 1.0:
        raise DegenerateInputError("q0 = 1 leaves no probability mass for the chain")
    p = p_col
    w0, a = params.w0, params.alpha
    m, r = params.m_stages, params.retry_stages
    if abs(1.0 - p) < 1e-12 or abs(1.0 - a * p) < 1e-12:
        raise DegenerateInputError("closed form is singular at p_col in {1, 1/alpha}")
    n_doubling = min(r - 1, m)  # stages beyond 0 whose window still grows
    geo_ap = (a * p) * (1.0 - (a * p) ** n_doubling) / (1.0 - a * p)
    geo_p_all = p * (1.0 - p ** (r - 1)) / (1.0 - p)
    if r - 1 > m:
        geo_p_capped = (p ** (m + 1)) * (1.0 - p ** (r - 1 - m)) / (1.0 - p)
    else:
        geo_p_capped = 0.0
    tail = 0.5 * (w0 * geo_ap + w0 * a ** m * geo_p_capped - geo_p_all)
    inv = (q0 / (1.0 - q0)
           + (1.0 - p ** r) / (1.0 - p)
           + (w0 - 1) / (2.0 * p_idle)
           + tail / p_idle)
    return 1.0 / inv


def coupling_equations(p_trans: float, params: MacParams
                       ) -> tuple[float, float, float, float, float]:
    """Channel-level probabilities seen by one station, given everyone's p_trans.

    Returns (p_col, p_idle_slot, p_idle, p_suc, p_fail).
    """
    n = params.n_stations
    quiet = (1.0 - p_trans) ** (n - 1)
    p_col = 1.0 - quiet
    p_idle_slot = (1.0 - p_trans) ** n
    p_idle = max(p_idle_slot ** params.aifs_slots, _P_IDLE_FLOOR)
    p_suc = n * p_trans * quiet
    p_fail = max(0.0, 1.0 - p_suc - p_idle_slot)  # floor absorbs float residue
    return p_col, p_idle_slot, p_idle, p_suc, p_fail


def _service_terms(p_col: float, p_idle: float, p_suc: float, p_fail: float,
                   t_s: float, t_f: float, params: MacParams
                   ) -> tuple[float, float, float]:
    """(t_serv, t_w, t_tr_av) in seconds.

    Internally everything is counted in slots: one back-off decrement
    costs t_w slots, one attempt costs t_tr_av slots, and a packet at
    stage i spends (w_i-1)/2 decrements on average. The slot_time factor
    at the end converts the expectation to seconds.
    """
    if not p_idle > 0.0:
        raise DegenerateInputError("p_idle must be positive")
    slot = params.slot_time
    ts_slots = t_s / slot
    tf_slots = t_f / slot
    t_w = p_fail * tf_slots + p_suc * ts_slots + 1.0 / p_idle
    t_tr_av = p_col * tf_slots + (1.0 - p_col) * ts_slots
    total = 0.0
    for i, w in enumerate(window_sizes(params)):
        total += (p_col ** i) * (t_w * (w - 1) / 2.0 + t_tr_av)
    return slot * total, slot * t_w, slot * t_tr_av


def mm1k_metrics(rho: float, queue_capacity: int, mu: float, arrival_rate: float,
                 exact_wait: bool = False) -> tuple[float, float, float, float | None]:
    """Finite-queue metrics (q0, p_rej, lambda_eff, t_q).

    The default t_q is the infinite-queue expression 1/(mu - lambda_eff),
    evaluated through the flow-balance identity mu - lambda_eff = mu*q0
    because the literal subtraction cancels to float noise once rho
    passes ~1.5. When q0 is below float resolution the expression has no
    meaning and t_q is reported as None ("saturated"). exact_wait=True
    returns instead the exact mean queueing wait Lq/lambda_eff of the
    finite system, which stays finite at any load.
    """
    k = queue_capacity
    if abs(rho - 1.0) < RHO_UNIT_EPS:
        q0 = 1.0 / (k + 1)
        p_rej = 1.0 / (k + 1)
    elif rho < 1.0:
        q0 = (1.0 - rho) / (1.0 - rho ** (k + 1))
        p_rej = rho ** k * q0
    else:
        s = 1.0 / rho  # mirrored form avoids rho**k overflow
        p_rej = (1.0 - s) / (1.0 - s ** (k + 1))
        q0 = p_rej * s ** k
    lambda_eff = arrival_rate * (1.0 - p_rej)
    if exact_wait:
        if rho <= 1.0 or abs(rho - 1.0) < RHO_UNIT_EPS:
            probs = [q0 * rho ** n for n in range(k + 1)]
        else:
            s = 1.0 / rho
            probs = [p_rej * s ** (k - n) for n in range(k + 1)]
        mean_in_system = sum(n * p for n, p in enumerate(probs))
        mean_in_queue = mean_in_system - (1.0 - q0)
        t_q = mean_in_queue / lambda_eff if lambda_eff > 0 else None
        return q0, p_rej, lambda_eff, t_q
    if q0 < SATURATED_Q0_FLOOR or mu <= 0.0:
        return q0, p_rej, lambda_eff, None
    return q0, p_rej, lambda_eff, 1.0 / (mu * q0)


def drop_probability(p_rej: float, p_last_state: float, p_col: float) -> float:
    """A packet is lost on a full queue or by exhausting its retry stages.

    Expanded form of 1 - (1-p_rej)(1 - p_last_state*p_col); the expansion
    keeps tiny probabilities from vanishing against the 1.
    """
    p_exhaust = p_last_state * p_col
    return p_rej + p_exhaust - p_rej * p_exhaust


def _initial_q0(params: MacParams, t_s: float, t_f: float) -> float:
    """Queue-empty probability of an uncontended station (p_col = 0 start)."""
    t_serv0, _, _ = _service_terms(0.0, 1.0, 0.0, 0.0, t_s, t_f, params)
    rho0 = params.arrival_rate * t_serv0
    q0, _, _, _ = mm1k_metrics(rho0, params.queue_capacity, 1.0 / t_serv0,
                               params.arrival_rate)
    return q0


def solve(params: MacParams, *, exact_queue_wait: bool = False) -> MacSolution:
    """Damped fixed-point solution of the coupled chain/queue system.

    Iterates the vector (p_trans, p_col, p_idle, q0); each component is
    relaxed as 0.5*new + 0.5*old (FIXED_POINT_DAMPING; plain iteration
    oscillates under high load). Convergence is max component change
    < FIXED_POINT_TOL; ConvergenceError after FIXED_POINT_MAX_ITER
    iterations.

    exact_queue_wait swaps the reported queue wait for the exact
    finite-queue expectation; the fixed point itself is unaffected
    (q0 does not depend on the wait formula).
    """
    params.validate()
    t_s, t_f = transmission_times(params)
    r = params.retry_stages
    lam = params.arrival_rate

    p_col, p_idle = 0.0, 1.0
    q0 = _initial_q0(params, t_s, t_f)
    p_trans = normalize_p00(p_col, p_idle, q0, params)  # single live stage at start

    iterations = 0
    residual = math.inf
    damping = FIXED_POINT_DAMPING
    for iterations in range(1, FIXED_POINT_MAX_ITER + 1):
        p00 = normalize_p00(p_col, p_idle, q0, params)
        p_trans_raw = p00 * sum(p_col ** i for i in range(r))
        p_trans_new = damping * p_trans_raw + (1.0 - damping) * p_trans

        p_col_raw, _, p_idle_raw, p_suc, p_fail = coupling_equations(p_trans_new, params)
        p_col_new = damping * p_col_raw + (1.0 - damping) * p_col
        p_idle_new = damping * p_idle_raw + (1.0 - damping) * p_idle

        t_serv, _, _ = _service_terms(p_col_new, p_idle_new, p_suc, p_fail,
                                      t_s, t_f, params)
        rho = lam * t_serv
        q0_raw, _, _, _ = mm1k_metrics(rho, params.queue_capacity, 1.0 / t_serv, lam)
        q0_new = damping * q0_raw + (1.0 - damping) * q0

        residual = max(abs(p_trans_new - p_trans), abs(p_col_new - p_col),
                       abs(p_idle_new - p_idle), abs(q0_new - q0))
        p_trans, p_col, p_idle, q0 = p_trans_new, p_col_new, p_idle_new, q0_new
        if residual < FIXED_POINT_TOL:
            break
    else:
        raise ConvergenceError(
            "fixed point did not converge", iterations, residual,
            {"p_trans": p_trans, "p_col": p_col, "p_idle": p_idle, "q0": q0})

    # One consistent evaluation at the converged iterate for the report.
    p00 = normalize_p00(p_col, p_idle, q0, params)
    p_last = p00 * p_col ** (r - 1)  # head state of the final retry stage
    _, p_idle_slot, _, p_suc, p_fail = coupling_equations(p_trans, params)
    t_serv, t_w, t_tr_av = _service_terms(p_col, p_idle, p_suc, p_fail, t_s, t_f, params)
    mu = 1.0 / t_serv
    rho = lam * t_serv
    _, p_rej, lambda_eff, t_q = mm1k_metrics(rho, params.queue_capacity, mu, lam,
                                             exact_wait=exact_queue_wait)
    p_drop = drop_probability(p_rej, p_last, p_col)
    thr_raw = (params.n_stations * (1.0 - q0)
               * (1.0 - p_last * p_col) * (1.0 - p_fail))
    return MacSolution(
        p_trans=p_trans, p_col=p_col, p_idle_slot=p_idle_slot, p_idle=p_idle,
        p_suc=p_suc, p_fail=p_fail, q0=q0, p00=p00,
        t_s=t_s, t_f=t_f, t_w=t_w, t_tr_av=t_tr_av,
        t_serv=t_serv, mu=mu, rho=rho, p_rej=p_rej, p_drop=p_drop,
        t_q=t_q, t_delay=None if t_q is None else t_serv + t_q,
        lambda_eff=lambda_eff,
        throughput=thr_raw / t_serv, throughput_raw=thr_raw,
        iterations=iterations, residual=residual)

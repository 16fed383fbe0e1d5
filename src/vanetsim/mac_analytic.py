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

which solve() settles by damped fixed-point iteration. What depends on
the parameters alone (t_s and t_f, in seconds and in slots, and the
back-off decrements w_i - 1 of each stage) is computed once per solve;
each iterate builds one list of the powers p_col ** i, which the
normalisation, the p_trans sum and the service terms share. Every
function here is pure and deterministic: same inputs, bit-identical
outputs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from enum import Enum

from . import constants
from .constants import (ACK_BITS, CTS_BITS, DATA_RATE, PROPAGATION_DELAY, RTS_BITS,
                        SIFS_TIME, SLOT_TIME)
from .errors import ConfigurationError, ConvergenceError, DegenerateInputError
from .floats import left_sum

FIXED_POINT_TOL = 1e-9
FIXED_POINT_DAMPING = 0.5
FIXED_POINT_MAX_ITER = 10_000
RHO_UNIT_EPS = 1e-9        # relative threshold selecting the lambda == mu branch
_P_IDLE_FLOOR = 1e-300      # keeps 1/p_idle finite while iterates pass through 0
_WINDOW_LOG2_CAP = sys.float_info.max_exp - 1  # windows stay below 2 ** this
_FMAX = sys.float_info.max  # int fields stay below it: the model makes floats of them
# attempt stages per packet, m_stages + f_extra, stay within the 802.11 MIB
# range of dot11ShortRetryLimit and dot11LongRetryLimit (1..255); the model
# builds lists of that length
RETRY_STAGES_MAX = 255


class AccessMode(Enum):
    BASIC = "basic"
    RTS_CTS = "rtscts"


@dataclass(frozen=True)
class MacParams:
    """Inputs of the cell model that a caller varies: population, load,
    queue, payload, access mode and the contention settings of one
    access category. The channel's timing and control-frame sizes are
    the fixed 802.11p profile in `constants`, which the model reads
    directly.

    Built means valid: construction raises ConfigurationError naming
    every field out of range, so no consumer checks a MacParams again.
    """

    n_stations: int
    arrival_rate: float                 # packets/s offered per station
    queue_capacity: int = constants.QUEUE_CAPACITY
    w0: int = constants.CW_MIN
    m_stages: int = constants.MAX_DOUBLINGS
    f_extra: int = constants.EXTRA_RETRIES
    aifs_slots: int = constants.AIFS_SLOTS
    payload_bits: int = constants.PAYLOAD_BITS
    access_mode: AccessMode = AccessMode.BASIC

    def problems(self) -> list[str]:
        """Every violated field constraint, not just the first, each led by its field."""
        bad = []
        # the one float field, which the range check below does not keep finite
        if not math.isfinite(self.arrival_rate):
            bad.append(f"arrival_rate must be finite, got {self.arrival_rate}")
        if not 1 <= self.n_stations <= _FMAX:
            bad.append(f"n_stations must be in [1, {_FMAX:.3}], got {self.n_stations}")
        if not self.arrival_rate > 0:
            bad.append(f"arrival_rate must be > 0, got {self.arrival_rate}")
        if not 1 <= self.queue_capacity <= _FMAX:
            bad.append(f"queue_capacity must be in [1, {_FMAX:.3}], "
                       f"got {self.queue_capacity}")
        if not 2 <= self.w0 <= _FMAX:
            bad.append(f"w0 must be in [2, {_FMAX:.3}], got {self.w0}")
        if not 0 <= self.m_stages <= _FMAX:
            bad.append(f"m_stages must be in [0, {_FMAX:.3}], got {self.m_stages}")
        if not 0 <= self.f_extra <= _FMAX:
            bad.append(f"f_extra must be in [0, {_FMAX:.3}], got {self.f_extra}")
        if not 1 <= self.m_stages + self.f_extra <= RETRY_STAGES_MAX:
            bad.append(f"m_stages + f_extra must be in [1, {RETRY_STAGES_MAX}] (one "
                       f"attempt at least, 802.11's retry limit at most), got "
                       f"{self.m_stages} + {self.f_extra}")
        # the largest window in logarithms, since its integer can be too
        # large to build; one binade of margin absorbs the rounding of log2
        if self.w0 >= 2 and self.m_stages >= _WINDOW_LOG2_CAP - math.log2(self.w0):
            bad.append(f"w0 * 2 ** m_stages must be below 2 ** {_WINDOW_LOG2_CAP}, "
                       f"got {self.w0} * 2 ** {self.m_stages}")
        if not 1 <= self.aifs_slots <= _FMAX:
            bad.append(f"aifs_slots must be in [1, {_FMAX:.3}], got {self.aifs_slots}")
        if not 0 <= self.payload_bits <= _FMAX:
            bad.append(f"payload_bits must be in [0, {_FMAX:.3}], got {self.payload_bits}")
        return bad

    def validate(self) -> "MacParams":
        bad = self.problems()
        if bad:
            raise ConfigurationError("invalid MacParams: " + "; ".join(bad),
                                     fields=tuple(p.split(" ", 1)[0] for p in bad))
        return self

    def __post_init__(self):
        self.validate()

    @property
    def retry_stages(self) -> int:
        """Total attempt stages per packet (M doublings plus f capped retries)."""
        return self.m_stages + self.f_extra


@dataclass
class MacSolution:
    """Converged cell metrics; t_q and t_delay diverge as the queue saturates."""

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
    t_q: float
    t_delay: float
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
    return tuple(params.w0 << min(i, params.m_stages)
                 for i in range(params.retry_stages))


def transmission_times(params: MacParams) -> tuple[float, float]:
    """Channel occupancy (t_s, t_f) in seconds of a successful and a failed attempt.

    Every frame is charged bits / DATA_RATE; the AIFS ahead of the attempt
    is part of both occupancies.
    """
    t_aifs = params.aifs_slots * SLOT_TIME
    t_frame = params.payload_bits / DATA_RATE
    t_pro = PROPAGATION_DELAY
    t_ack = ACK_BITS / DATA_RATE
    if params.access_mode is AccessMode.BASIC:
        t_s = t_aifs + t_frame + t_pro + SIFS_TIME + t_ack + t_pro
        t_f = t_aifs + t_frame + t_pro
    else:
        t_rts = RTS_BITS / DATA_RATE
        t_cts = CTS_BITS / DATA_RATE
        t_s = (t_aifs + t_rts + t_pro + SIFS_TIME + t_cts + t_pro
               + SIFS_TIME + t_frame + t_pro + SIFS_TIME + t_ack + t_pro)
        t_f = t_aifs + t_rts + t_pro
    return t_s, t_f


@dataclass
class StateDistribution:
    """Stationary chain probabilities, all expressed through p00."""

    p00: float
    p_empty: float                # empty-system state
    head: list[float]             # P(i,0), one entry per retry stage
    backoff: list[list[float]]    # backoff[i][j-1] = P(i,j), j = 1..w_i-1

    @property
    def p_trans(self) -> float:
        """A station transmits when it sits in any head-of-stage state."""
        return math.fsum(self.head)

    @property
    def p_last(self) -> float:
        """P(M+f-1, 0): occupancy of the final retry stage."""
        return self.head[-1]

    def total_mass(self) -> float:
        """Literal sum over every state; equals 1 at a consistent iterate."""
        return math.fsum([self.p_empty, *self.head,
                          *(x for row in self.backoff for x in row)])


def state_probabilities(p00: float, p_col: float, p_idle: float, q0: float,
                        params: MacParams) -> StateDistribution:
    """Expand p00 into the full stationary distribution of the chain."""
    if q0 >= 1.0:
        raise DegenerateInputError("q0 = 1 leaves no probability mass for the chain")
    if not p_idle > 0.0:
        raise DegenerateInputError("p_idle must be positive")
    windows = window_sizes(params)
    head = [p00 * p_col ** i for i in range(len(windows))]
    backoff = [[(w - j) / w * (p_col ** i / p_idle) * p00 for j in range(1, w)]
               for i, w in enumerate(windows)]
    p_empty = q0 / (1.0 - q0) * p00
    return StateDistribution(p00=p00, p_empty=p_empty, head=head, backoff=backoff)


def normalize_p00(powers: list[float], decrements: list[int], p_idle: float,
                  q0: float) -> float:
    """p00 fixed by requiring the full state mass to sum to one.

    Takes the stage vectors: powers[i] = p_col ** i and decrements[i] =
    w_i - 1. Sums stage by stage; the per-stage back-off mass uses the
    exact arithmetic-series identity sum_{j=1..w-1} (w-j)/w = (w-1)/2.

    q0 = 1 is the zero-load limit, where the chain holds no mass: p00 = 0.
    p_idle is positive, as every iterate of solve keeps it.
    """
    if q0 == 1.0:
        return 0.0
    two_idle = 2.0 * p_idle
    mass = q0 / (1.0 - q0)
    for weight, dec in zip(powers, decrements):
        mass += weight                        # head state (i, 0)
        mass += weight * dec / two_idle       # back-off states (i, j>0)
    return 1.0 / mass


def normalize_p00_closed_form(p_col: float, p_idle: float, q0: float,
                              params: MacParams) -> float:
    """Geometric-series closed form of normalize_p00, as a cross-check.

    Unstable where the series ratios approach 1; callers should guard
    p_col away from 1 and from 1/2, the inverse of the window's doubling.
    """
    if q0 >= 1.0:
        raise DegenerateInputError("q0 = 1 leaves no probability mass for the chain")
    p = p_col
    w0, m, r = params.w0, params.m_stages, params.retry_stages
    if abs(1.0 - p) < 1e-12 or abs(1.0 - 2 * p) < 1e-12:
        raise DegenerateInputError("closed form is singular at p_col in {1, 1/2}")
    n_doubling = min(r - 1, m)  # stages beyond 0 whose window still grows
    geo_ap = (2 * p) * (1.0 - (2 * p) ** n_doubling) / (1.0 - 2 * p)
    geo_p_all = p * (1.0 - p ** (r - 1)) / (1.0 - p)
    if r - 1 > m:
        geo_p_capped = (p ** (m + 1)) * (1.0 - p ** (r - 1 - m)) / (1.0 - p)
    else:
        geo_p_capped = 0.0
    tail = 0.5 * (w0 * geo_ap + (w0 << m) * geo_p_capped - geo_p_all)
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
                   powers: list[float], decrements: list[int],
                   ts_slots: float, tf_slots: float, slot: float
                   ) -> tuple[float, float, float]:
    """(t_serv, t_w, t_tr_av) in seconds.

    Internally everything is counted in slots: one back-off decrement
    costs t_w slots, one attempt costs t_tr_av slots (ts_slots and
    tf_slots are t_s and t_f in slots), and a packet at stage i spends
    decrements[i]/2 decrements on average, weighted by powers[i] =
    p_col ** i. The slot factor at the end converts the expectation to
    seconds. p_idle is positive, as every iterate of solve keeps it.
    """
    t_w = p_fail * tf_slots + p_suc * ts_slots + 1.0 / p_idle
    t_tr_av = p_col * tf_slots + (1.0 - p_col) * ts_slots
    total = 0.0
    for weight, dec in zip(powers, decrements):
        total += weight * (t_w * dec / 2.0 + t_tr_av)
    return slot * total, slot * t_w, slot * t_tr_av


def mm1k_metrics(rho: float, queue_capacity: int, mu: float, arrival_rate: float,
                 exact_wait: bool = False) -> tuple[float, float, float, float]:
    """Finite-queue metrics (q0, p_rej, lambda_eff, t_q).

    The default t_q is the infinite-queue expression 1/(mu - lambda_eff),
    evaluated through the flow-balance identity mu - lambda_eff = mu*q0
    because the literal subtraction cancels to float noise once rho
    passes ~1.5. That expression is the M/M/1 mean sojourn, service
    included, not the wait before service, so solve's t_delay = t_serv +
    t_q counts the service time twice: at zero load t_q equals t_serv.
    It diverges as the queue saturates, to inf where mu*q0 is 0.
    exact_wait=True returns instead the exact mean queueing wait
    Lq/lambda_eff of the finite system, which stays finite at any load.
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
        mean_in_system = left_sum(n * p for n, p in enumerate(probs))
        mean_in_queue = mean_in_system - (1.0 - q0)
        # lambda_eff is 0 once p_rej rounds to 1; mu*(1-q0) equals it by flow balance
        return q0, p_rej, lambda_eff, mean_in_queue / (lambda_eff or mu * (1.0 - q0))
    return q0, p_rej, lambda_eff, 1.0 / (mu * q0) if mu * q0 else math.inf


def drop_probability(p_rej: float, p_last_state: float, p_col: float) -> float:
    """A packet is lost on a full queue or by exhausting its retry stages.

    Expanded form of 1 - (1-p_rej)(1 - p_last_state*p_col); the expansion
    keeps tiny probabilities from vanishing against the 1.
    """
    p_exhaust = p_last_state * p_col
    return p_rej + p_exhaust - p_rej * p_exhaust


def solve(params: MacParams) -> MacSolution:
    """Damped fixed-point solution of the coupled chain/queue system.

    Iterates the vector (p_trans, p_col, p_idle, q0) from the uncontended
    start p_col = 0, p_idle = 1; each component is relaxed as
    0.5*new + 0.5*old (FIXED_POINT_DAMPING; plain iteration oscillates
    under high load). Convergence is max component change
    < FIXED_POINT_TOL; ConvergenceError after FIXED_POINT_MAX_ITER
    iterations.

    What depends on params alone is computed once per call: t_s and t_f,
    both in slots, and the back-off decrements w_i - 1 of each stage. The
    model is evaluated once per iterate, and each iterate builds one list
    of powers p_col ** i. Its service terms read that list, and so do the
    next iterate's normalisation and p_trans sum, which use the same
    p_col. The report reads the channel, service and queue terms of the
    last iterate, which were evaluated at the converged (p_trans, p_col,
    p_idle); only p00 is computed after the loop, at the converged q0.

    p_idle never falls below _P_IDLE_FLOOR / 2: it starts at 1 and each
    iterate damps a value floored at _P_IDLE_FLOOR. At an arrival rate so
    low that q0 rounds to 1, p00 and p_trans are 0 and the loop stops
    after one iterate: p_col and throughput are 0, and p_drop is the
    queue's p_rej alone.
    """
    t_s, t_f = transmission_times(params)
    slot = SLOT_TIME
    ts_slots = t_s / slot
    tf_slots = t_f / slot
    decrements = [w - 1 for w in window_sizes(params)]
    stages = range(params.retry_stages)
    k = params.queue_capacity
    lam = params.arrival_rate

    p_col, p_idle = 0.0, 1.0
    powers = [p_col ** i for i in stages]
    t_serv0, _, _ = _service_terms(p_col, p_idle, 0.0, 0.0, powers, decrements,
                                   ts_slots, tf_slots, slot)
    q0, _, _, _ = mm1k_metrics(lam * t_serv0, k, 1.0 / t_serv0, lam)
    p_trans = normalize_p00(powers, decrements, p_idle, q0)  # one live stage at start

    iterations = 0
    residual = math.inf
    damping = FIXED_POINT_DAMPING
    for iterations in range(1, FIXED_POINT_MAX_ITER + 1):
        p00 = normalize_p00(powers, decrements, p_idle, q0)
        p_trans_raw = p00 * left_sum(powers)
        p_trans_new = damping * p_trans_raw + (1.0 - damping) * p_trans

        p_col_raw, p_idle_slot, p_idle_raw, p_suc, p_fail = coupling_equations(
            p_trans_new, params)
        p_col_new = damping * p_col_raw + (1.0 - damping) * p_col
        p_idle_new = damping * p_idle_raw + (1.0 - damping) * p_idle

        powers = [p_col_new ** i for i in stages]
        t_serv, t_w, t_tr_av = _service_terms(p_col_new, p_idle_new, p_suc, p_fail,
                                              powers, decrements,
                                              ts_slots, tf_slots, slot)
        rho = lam * t_serv
        q0_raw, p_rej, lambda_eff, t_q = mm1k_metrics(rho, k, 1.0 / t_serv, lam)
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

    p00 = normalize_p00(powers, decrements, p_idle, q0)
    p_last = p00 * powers[-1]  # head state of the final retry stage
    p_drop = drop_probability(p_rej, p_last, p_col)
    thr_raw = (params.n_stations * (1.0 - q0)
               * (1.0 - p_last * p_col) * (1.0 - p_fail))
    return MacSolution(
        p_trans=p_trans, p_col=p_col, p_idle_slot=p_idle_slot, p_idle=p_idle,
        p_suc=p_suc, p_fail=p_fail, q0=q0, p00=p00,
        t_s=t_s, t_f=t_f, t_w=t_w, t_tr_av=t_tr_av,
        t_serv=t_serv, mu=1.0 / t_serv, rho=rho, p_rej=p_rej, p_drop=p_drop,
        t_q=t_q, t_delay=t_serv + t_q,
        lambda_eff=lambda_eff,
        throughput=thr_raw / t_serv, throughput_raw=thr_raw,
        iterations=iterations, residual=residual)

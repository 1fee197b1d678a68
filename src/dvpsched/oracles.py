"""Scalar one-state oracles that the tests check the production path
against: the one-frame queue update and its transition distribution, the
stage reward, the binomial CDF, the fixed-exponent bound and its gradient,
and the exact DVP by brute-force enumeration. They are written for clarity,
not speed, and no production module imports them.
"""
from __future__ import annotations

import itertools
import math
from typing import NamedTuple, Sequence

import numpy as np

from .dvp import EvalResult, _as_n2, _log_alpha, union_terms
from .model import CapExceededError, ScenarioConfig, Schedule, binomial_pmf, check_schedule

ENUM_CAP_DEFAULT = 10_000_000


class QueueState(NamedTuple):
    """Joint backlog pair at a frame boundary."""

    q1: int
    q2: int


def step_queues(state: QueueState, s1: int, s2: int) -> tuple[QueueState, int]:
    """Apply one frame of granted service. Packets relayed from the first
    queue this frame are appended to the second queue after it was served,
    so they only become servable next frame. Returns the next state and the
    number of packets that left the system (d2)."""
    if s1 < 0 or s2 < 0:
        raise ValueError(f"service must be >= 0, got s1={s1}, s2={s2}")
    q1, q2 = state
    d1 = min(q1, s1)
    d2 = min(q2, s2)
    return QueueState(q1 - d1, q2 - d2 + d1), d2


def binomial_cdf(n: int, p: float, r: int) -> float:
    """P{Binomial(n, p) <= r}."""
    n = int(n)
    r = int(r)
    if r < 0 or r > n:
        raise ValueError(f"r={r} outside 0..{n}")
    if r == n:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p}")
        return 1.0
    total = 0.0
    for j in range(r + 1):
        total += binomial_pmf(n, p, j)
    return min(total, 1.0)


def _check_action(config: ScenarioConfig, n1: int) -> None:
    if not 0 <= n1 <= config.N:
        raise ValueError(f"action n1={n1} outside 0..{config.N}")


def transition_probs(
    config: ScenarioConfig, state: QueueState, n1: int
) -> dict[QueueState, float]:
    """One-frame transition distribution, by marginalizing the queue update
    over the two independent binomial service draws, summed in s1-major,
    s2-minor order. It is the oracle the kernel's rows are tested against
    bit for bit; see transition_probs_casewise for the closed-form
    counterpart kept as a cross-check."""
    _check_action(config, n1)
    n2 = config.N - n1
    q = 1.0 - config.p_e
    out: dict[QueueState, float] = {}
    for s1 in range(n1 + 1):
        p1 = binomial_pmf(n1, q, s1)
        for s2 in range(n2 + 1):
            p = p1 * binomial_pmf(n2, q, s2)
            nxt, _ = step_queues(state, s1, s2)
            out[nxt] = out.get(nxt, 0.0) + p
    return out


def _pmf_at_least(n: int, q: float, r: int) -> float:
    """P{Binomial(n, q) >= r}; zero when r exceeds the trial count."""
    if r <= 0:
        return 1.0
    if r > n:
        return 0.0
    return sum(binomial_pmf(n, q, j) for j in range(r, n + 1))


def _pmf_eq(n: int, q: float, r: int) -> float:
    if r < 0 or r > n:
        return 0.0
    return binomial_pmf(n, q, r)


def transition_probs_casewise(
    config: ScenarioConfig, state: QueueState, n1: int
) -> dict[QueueState, float]:
    """One-frame transition distribution assembled case by case from the
    target state, distinguishing whether each queue is partially drained,
    fully drained, or left untouched, with the proviso that an empty queue
    contributes no service term.

    For a target (l1p, l2p) from (l1, l2) with both queues non-empty:
      - infeasible if l1p > l1 or l1p + l2p > l1 + l2;
      - l1p > 0 pins s1 = l1 - l1p exactly; l1p = 0 needs s1 >= l1;
      - the second queue must shed l2 - l2p + (l1 - l1p) packets, which
        requires s2 equal to that count when it is below l2 and s2 >= l2
        when the queue drains completely.
    """
    _check_action(config, n1)
    l1, l2 = state
    n2 = config.N - n1
    q = 1.0 - config.p_e
    out: dict[QueueState, float] = {}

    def put(l1p: int, l2p: int, prob: float) -> None:
        if prob > 0.0:
            out[QueueState(l1p, l2p)] = out.get(QueueState(l1p, l2p), 0.0) + prob

    if l1 == 0 and l2 == 0:
        return {QueueState(0, 0): 1.0}

    if l1 == 0:
        # only the second queue receives service
        for l2p in range(l2 + 1):
            if l2p > 0:
                put(0, l2p, _pmf_eq(n2, q, l2 - l2p))
            else:
                put(0, 0, _pmf_at_least(n2, q, l2))
        return out

    if l2 == 0:
        # only the first queue receives service; relays land in queue 2
        for l1p in range(l1 + 1):
            if l1p > 0:
                put(l1p, l1 - l1p, _pmf_eq(n1, q, l1 - l1p))
            else:
                put(0, l1, _pmf_at_least(n1, q, l1))
        return out

    for l1p in range(l1 + 1):
        for l2p in range(l1 + l2 - l1p + 1):
            # relayed packets keep the second queue at >= l1 - l1p
            drained2 = l2 - l2p + (l1 - l1p)
            if drained2 > l2:
                continue
            if l1p > 0 and l2p > 0:
                p1 = _pmf_eq(n1, q, l1 - l1p)
                p2 = _pmf_eq(n2, q, drained2) if drained2 < l2 else _pmf_at_least(n2, q, l2)
                put(l1p, l2p, p1 * p2)
            elif l1p == 0 and l2p > 0:
                p1 = _pmf_at_least(n1, q, l1)
                p2 = _pmf_eq(n2, q, drained2) if drained2 < l2 else _pmf_at_least(n2, q, l2)
                put(l1p, l2p, p1 * p2)
            elif l1p > 0 and l2p == 0:
                # queue 1 partially served with queue 2 emptied needs the
                # frame's relays to vanish, i.e. s1 = 0 and l1p = l1
                if l1p == l1:
                    put(l1, 0, _pmf_eq(n1, q, 0) * _pmf_at_least(n2, q, l2))
            else:
                # l1p = 0 and l2p = 0 is unreachable: the l1 relayed packets
                # arrive after queue 2 was served
                continue
    return out


def reward(config: ScenarioConfig, state: QueueState, n1: int) -> float:
    """Expected departures from the system in one frame: E[min(q2, s2)]."""
    _check_action(config, n1)
    n2 = config.N - n1
    q = 1.0 - config.p_e
    return sum(min(state.q2, r) * binomial_pmf(n2, q, r) for r in range(n2 + 1))


def _log_terms(config: ScenarioConfig, n2, s: float) -> np.ndarray:
    """Exponent of each union term's bound at a fixed s:
    T_j log(alpha(s)) + s m_j, so that wtb = sum(exp(_log_terms))."""
    c, A, m = union_terms(config)
    return (c + A @ _as_n2(config, n2)) * _log_alpha(config.p_e, s) + s * m


def wtb(config: ScenarioConfig, schedule, s: float) -> float:
    """Exponential-moment (transient) bound on DVP at a fixed exponent s > 0.

    Each union term P{S <= m} with S ~ Binomial(T, 1 - p_e) is bounded by
    alpha^T e^{s m} with alpha = (1 - p_e) e^{-s} + p_e, so real-valued
    trial counts are accepted; the allocation may be any vector in the
    relaxed box. dvp.wtb_min_s minimizes it over s."""
    s = float(s)
    if not s > 0:
        raise ValueError(f"s must be > 0, got {s}")
    e = _log_terms(config, schedule, s)
    if e.max() >= 709.0:
        return math.inf
    return float(np.exp(e).sum())


def wtb_gradient(config: ScenarioConfig, n2: Sequence[float], s: float) -> list[float]:
    """Partial derivatives of the fixed-s bound w.r.t. each link-2
    allocation: term value times log(alpha) times the term's row of A
    (+1 where the frame lies in the term's link-2 window, -1 where it lies
    in its link-1 window, since n1 = N - n2)."""
    e = _log_terms(config, n2, s)
    with np.errstate(over="ignore"):
        values = np.exp(e)
    return (_log_alpha(config.p_e, s) * (values @ union_terms(config).A)).tolist()


def exact_dvp_enum(
    config: ScenarioConfig, schedule: Schedule, cap: int = ENUM_CAP_DEFAULT
) -> EvalResult:
    """Exact DVP by brute-force enumeration of every joint per-frame service
    outcome, weighted by its binomial probability. Independent of the
    chain evaluator; serves as the oracle for everything else."""
    check_schedule(config, schedule)
    n1 = schedule.n1
    n2 = schedule.n2
    outcomes = 1
    for k in range(config.w):
        outcomes *= (n1[k] + 1) * (n2[k] + 1)
    if outcomes > cap:
        raise CapExceededError(
            f"enumeration needs {outcomes} outcomes, cap is {cap}", outcomes, cap
        )
    q = 1.0 - config.p_e
    frame_draws = []
    for k in range(config.w):
        frame_draws.append(
            [
                (s1, s2, binomial_pmf(n1[k], q, s1) * binomial_pmf(n2[k], q, s2))
                for s1 in range(n1[k] + 1)
                for s2 in range(n2[k] + 1)
            ]
        )
    violation = 0.0
    departed_weighted = 0.0
    start = QueueState(config.first_hop_load, config.x2)
    for path in itertools.product(*frame_draws):
        prob = 1.0
        state = start
        for s1, s2, p in path:
            prob *= p
            state, _ = step_queues(state, s1, s2)
        if state.q1 + state.q2 > 0:
            violation += prob
        departed_weighted += prob * (config.total_load - state.q1 - state.q2)
    return EvalResult(
        dvp=violation, method="exact-enum", mean_departures=departed_weighted
    )

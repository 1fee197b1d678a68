"""Delay-violation probability: exact evaluation and analytic upper bounds.

The violation event is that fewer than y + x1 + x2 packets have left the
second queue after w frames. It decomposes exactly into a union over the
last frame u at which the batch could still clear the first hop:

  - the second link's slots over the whole horizon carry fewer than
    total_load successes, or
  - for some u in 1..w: the first link's slots in frames 0..u-2 plus the
    second link's slots in frames u..w-1 carry fewer than first_hop_load
    successes.

(The first-link window ends one frame before the second-link window starts
because a relayed packet is only servable the frame after it crosses.) Both
links share the per-slot success probability, so each union term is a single
binomial tail; summing the terms gives the union-bound estimate, and
replacing each tail by its exponential-moment bound gives a looser bound
whose real-relaxation is used by the schedule optimizer.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .model import ScenarioConfig, Schedule, backlog_states, binomial_cdf_table, check_schedule
from .mdp import BASELINE_KINDS, _baseline_chain, _policy_values, policy_actions, transition_kernel

# the exponent search's range is [S_LO, _S_HI * 2**_MAX_DOUBLINGS]: a cold
# search brackets [S_LO, _S_HI] and doubles its upper end while the bound
# still falls there
S_LO = 1e-6
_S_HI = 50.0
_MAX_DOUBLINGS = 6
_S_CAP = _S_HI * 2.0**_MAX_DOUBLINGS
_S_TOL = 1e-9  # the exponent search stops on a step or bracket below this
_S_MAX_STEPS = 100  # Newton-or-bisection steps of the exponent search
# a search given `above` rejects once its lower bound on log wtb exceeds
# above by this share of 1 + |above|, far more than the bound's rounding
_REJECT_MARGIN = 1e-9


@dataclass(frozen=True)
class EvalResult:
    """A DVP value with its provenance. Bound methods may exceed 1 and are
    reported unclamped. The chain evaluator also records its state count
    and a forward chain its mass residual |1 - sum(rho)| at the horizon; a
    backward chain has none (nan), as a third pass, from the ones, would
    slow a warm dynamic round by about 30 %. Neither takes part in equality."""

    dvp: float
    method: str
    detail: tuple[float, ...] | None = None
    mean_departures: float | None = None
    mass_residual: float = field(default=math.nan, compare=False)
    states: int = field(default=0, compare=False)


def _as_n2(config: ScenarioConfig, schedule) -> np.ndarray:
    """Accept a Schedule or a raw per-frame link-2 allocation vector: real
    values for acceptance criterion 03 and the oracles, or the integer
    vectors the semi-static searches build in range. The relaxed optimizer
    calls min_log_wtb on its trial counts instead."""
    if isinstance(schedule, Schedule):
        check_schedule(config, schedule)
        return np.array(schedule.n2, dtype=float)
    n2 = np.array([float(v) for v in schedule])
    if len(n2) != config.w:
        raise ValueError(f"allocation has {len(n2)} frames, deadline needs {config.w}")
    return n2


class UnionTerms(NamedTuple):
    """The w+1 union terms in matrix form: term j has trial count
    c[j] + A[j] @ n2 and threshold m[j]. Row 0 is the all-horizon
    second-link term; row u (u = 1..w) counts the first link's frames
    0..u-2 (A = -1, since n1 = N - n2, with their N's in c) and the second
    link's frames u..w-1 (A = +1)."""

    c: np.ndarray
    A: np.ndarray
    m: np.ndarray


@functools.lru_cache(maxsize=128)
def union_terms(config: ScenarioConfig) -> UnionTerms:
    """The scenario's union terms; see UnionTerms. Cached, so the arrays
    are read-only."""
    w = config.w
    frame = np.arange(w)
    last = np.arange(1, w + 1)[:, None]
    A = np.vstack([np.ones(w), (frame >= last).astype(float) - (frame <= last - 2)])
    c = np.concatenate([[0.0], config.N * (last[:, 0] - 1.0)])
    m = np.array([config.total_load - 1] + [config.first_hop_load - 1] * w)
    for arr in (c, A, m):
        arr.flags.writeable = False
    return UnionTerms(c, A, m)


def _term_cdf(config: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """The CDF table every union term's tail is read from, covering every
    trial count up to w * N, and each term's column in it: its threshold,
    clipped to the table, where the tail is 1 for any trial count."""
    n_max = config.w * config.N
    cdf = binomial_cdf_table(n_max, 1.0 - config.p_e)
    return cdf, np.minimum(union_terms(config).m, n_max)


def dvpub(config: ScenarioConfig, schedule) -> EvalResult:
    """Union-bound DVP estimate of a Schedule or a raw link-2 vector
    (_as_n2): the sum of the binomial tails of the union terms, unclamped
    (it may exceed 1) and read from _term_cdf's table, so an allocation
    outside [0, N]^w whose trial counts leave 0..w*N raises ValueError."""
    c, A, _ = union_terms(config)
    cdf, cols = _term_cdf(config)
    trials = np.rint(c + A @ _as_n2(config, schedule)).astype(np.intp)
    if trials.min() < 0 or trials.max() >= len(cdf):
        raise ValueError(f"union-term trial counts {trials.tolist()} outside 0..{len(cdf) - 1}")
    terms = cdf[trials, cols].tolist()
    return EvalResult(dvp=sum(terms), method="dvpub", detail=tuple(terms))


def _log_alpha(p_e: float, s: float) -> float:
    """log E[e^{-s B}] for one Bernoulli(1 - p_e) slot, relatively accurate
    both near s = 0 (alpha near 1) and for large s (alpha near p_e)."""
    if p_e == 0.0:
        return -s
    shortfall = (1.0 - p_e) * math.expm1(-s)  # alpha - 1
    if shortfall > -0.5:
        return math.log1p(shortfall)
    return math.log(p_e + (1.0 - p_e) * math.exp(-s))


def _exp_or_inf(exponent: float) -> float:
    return math.exp(exponent) if exponent < 709.0 else math.inf


def _log_wtb_in_s(T: np.ndarray, m: np.ndarray, p_e: float, s: float):
    """log wtb and its first two derivatives in s, for fixed trial counts,
    with the union terms' softmax weights.

    With r = (1 - p_e) e^{-s} / alpha, each exponent e_j = T_j log alpha + s m_j
    has e_j' = m_j - r T_j and e_j'' = r (1 - r) T_j >= 0, so the
    log-sum-exp g = log sum exp(e_j) is convex with
    g' = E_p[e'] and g'' = E_p[e''] + Var_p(e') under the softmax weights p."""
    q_decay = (1.0 - p_e) * math.exp(-s)
    alpha = p_e + q_decay
    r = q_decay / alpha if p_e > 0.0 else 1.0
    e = T * _log_alpha(p_e, s) + s * m
    top = max(e.tolist())  # e.max(), since e holds no NaN
    p = np.exp(e - top)
    total = p.sum()
    p /= total
    slope = m - r * T
    g1 = float(p.dot(slope))
    g2 = (r * p_e / alpha if p_e > 0.0 else 0.0) * float(p.dot(T))
    d = slope - g1
    g2 += float(p.dot(d * d))
    return top + math.log(total), g1, g2, p


def _newton_in_bracket(f, lo: float, hi: float, s: float, point, lo_seen=True, hi_seen=True):
    """Safeguarded Newton on the increasing derivative g' of log wtb over
    [lo, hi], from s, where f gave point = (g, g', g'', weights). A step
    that would leave the shrinking bracket bisects it instead, except past
    an end not yet evaluated (lo_seen or hi_seen False): that end is
    evaluated next, so that an optimum beyond it ends exactly there. Stops
    when a step or the bracket is below _S_TOL, or when a step toward an end
    not yet evaluated leaves log wtb unchanged; returns the last s and its
    point."""
    g1, g2 = point[1], point[2]
    for _ in range(_S_MAX_STEPS):
        if g1 < 0.0:
            lo, lo_seen = s, True
        elif g1 > 0.0:
            hi, hi_seen = s, True
        else:
            break
        # with no curvature, step as far as the bracket lets
        nxt = s - g1 / g2 if g2 > 0.0 else -math.copysign(math.inf, g1)
        unseen = nxt <= lo and not lo_seen or nxt >= hi and not hi_seen
        if unseen:
            nxt = lo if nxt <= lo else hi
        elif not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if nxt == s or not unseen and abs(nxt - s) <= _S_TOL:
            break
        # toward an end not yet evaluated, the optimum may lie at infinity
        # on a tail flat to rounding, where Newton steps do not shrink
        toward_unseen = not hi_seen if g1 < 0.0 else not lo_seen
        g = point[0]
        s = nxt
        point = f(s)
        g1, g2 = point[1], point[2]
        if toward_unseen and point[0] == g:
            break
    return s, point


class ExponentMin(NamedTuple):
    """The exponent s minimizing log wtb for fixed trial counts, log wtb
    there, the union terms' softmax weights there, and how many exponents
    the search evaluated."""

    s: float
    log_wtb: float
    weights: np.ndarray
    evals: int

    @property
    def value(self) -> float:
        """The bound itself, inf where it overflows."""
        return _exp_or_inf(self.log_wtb)


class Rejected(NamedTuple):
    """min_log_wtb's result once its evaluated points prove that log wtb
    exceeds `above` over the whole exponent range: the lower bound they
    gave, and how many exponents the search evaluated."""

    bound: float
    evals: int


class _Proven(Exception):
    """Ends an exponent search whose lower bound has passed `above`."""


def _tangent_bound(neg, pos) -> float:
    """A lower bound on a convex g over [S_LO, _S_CAP] from its tangents at
    neg = (s, g, g') with g' < 0 and pos = (s, g, g') with g' >= 0: where
    the two cross. (With one tangent only, min_log_wtb takes its value at
    the end of the range it falls toward.) The smaller of the two tangents'
    values at the computed crossing is taken, so that rounding in the
    crossing can only lower the bound."""
    (sa, ga, da), (sb, gb, db) = neg, pos
    gap = sb - sa
    dx = (gb - ga - db * gap) / (da - db)
    return min(ga + da * dx, gb + db * (dx - gap))


def min_log_wtb(
    T: np.ndarray,
    m: np.ndarray,
    p_e: float,
    s0: float | None = None,
    *,
    above: float | None = None,
) -> ExponentMin | Rejected:
    """Minimize log wtb over the exponent for trial counts T and thresholds
    m (see union_terms), over [S_LO, _S_CAP].

    log wtb is a log-sum-exp of exponents convex in s (see _log_wtb_in_s),
    so its derivative is increasing and the minimizer is its root; an
    optimum outside the range sits at the nearer end. Both entries end in
    the same safeguarded Newton loop (_newton_in_bracket).

    Cold (s0 None): the bracket [S_LO, _S_HI] has its upper end doubled
    while the bound still falls there (alpha saturates at p_e for large s,
    so a handful of doublings always suffices), and Newton starts from
    that end. Warm (s0 given, as the previous optimum of a nearby T): a
    probe one and a half Newton steps from s0 either passes the root and
    closes a bracket with s0, where Newton starts, or is where Newton
    starts; a range end is evaluated only if a step would cross it.

    With `above` given, the search stops early and returns Rejected once
    the tangents at its evaluated points (at the right-most point of
    falling and the left-most point of rising log wtb: their crossing,
    _tangent_bound, or one tangent's value at the range end it falls
    toward) put the minimum above `above` by more than _REJECT_MARGIN * (1 +
    |above|); the full search would then have ended above `above` too.
    Otherwise it evaluates the same exponents and returns the same result
    as without `above`."""
    evals = 0
    neg = pos = None
    if above is not None:
        limit = above + _REJECT_MARGIN * (1.0 + abs(above))
    m = np.asarray(m, dtype=float)  # once, not at every exponent

    def f(s: float):
        nonlocal evals, neg, pos
        evals += 1
        point = _log_wtb_in_s(T, m, p_e, s)
        if above is not None:
            if point[1] < 0.0:
                if neg is None or s > neg[0]:
                    neg = (s, point[0], point[1])
            elif pos is None or s < pos[0]:
                pos = (s, point[0], point[1])
            if pos is None:
                bound = neg[1] + neg[2] * (_S_CAP - neg[0])
            elif neg is None:
                bound = pos[1] + pos[2] * (S_LO - pos[0])
            else:
                bound = _tangent_bound(neg, pos)
            if bound > limit:
                raise _Proven(bound)
        return point

    try:
        if s0 is not None:
            s = min(max(s0, S_LO), _S_CAP)
            point = f(s)
            lo, hi, lo_seen, hi_seen = S_LO, _S_CAP, False, False
            g1, g2 = point[1], point[2]
            if g1 != 0.0:
                # probe one and a half Newton steps on, past where Newton
                # puts the root, so that the probe and s usually bracket it
                step = -g1 / g2 if g2 > 0.0 else -math.copysign(math.inf, g1)
                probe = min(max(s + 1.5 * step, S_LO), _S_CAP)
                probe_point = f(probe)
                if (probe_point[1] > 0.0) == (g1 > 0.0) or probe_point[1] == 0.0:
                    s, point = probe, probe_point  # not past the root: go on from there
                elif g1 < 0.0:
                    hi, hi_seen = probe, True
                else:
                    lo, lo_seen = probe, True
            s, point = _newton_in_bracket(f, lo, hi, s, point, lo_seen, hi_seen)
        else:
            s, point = S_LO, f(S_LO)
            if point[1] < 0.0:
                lo, hi = s, _S_HI
                point = f(hi)
                for _ in range(_MAX_DOUBLINGS):
                    if point[1] >= 0.0:
                        break
                    hi *= 2.0
                    point = f(hi)
                s = hi
                if point[1] > 0.0:  # the minimizer lies inside the bracket
                    s, point = _newton_in_bracket(f, lo, hi, s, point)
    except _Proven as proven:
        return Rejected(proven.args[0], evals)
    return ExponentMin(s, point[0], point[3], evals)


def wtb_min_s(config: ScenarioConfig, schedule) -> tuple[float, float]:
    """Minimize the exponential-moment bound over the exponent by
    min_log_wtb's cold search: the exponent and the bound there. The
    bound at a fixed exponent is oracles.wtb."""
    c, A, m = union_terms(config)
    found = min_log_wtb(c + A @ _as_n2(config, schedule), m, config.p_e)
    return found.s, found.value


def exact_dvp_chain(config: ScenarioConfig, policy) -> EvalResult:
    """Exact DVP of the policy, in any form mdp.policy_actions accepts and
    checks (schedule, policy table or baseline name), one step of
    mdp.transition_kernel(config) per frame. A schedule, one action in every
    state at each frame, moves the backlog distribution forward from the
    start state; the batch met the deadline iff both queues are empty at the
    horizon (TransitionKernel._reading). A table runs backward, with no mass
    residual (mdp._policy_values). A baseline's chain depends on the kernel
    key alone: it is read at w off the record mdp._baseline_chain keeps."""
    if isinstance(policy, str) and policy in BASELINE_KINDS:
        reading = _baseline_chain(policy, config)[config.w - 1].tolist()
    else:
        rows = policy_actions(policy, config).rows
        kernel = transition_kernel(config)
        if isinstance(policy, Schedule):
            rho = kernel.start()
            for a in policy.n1:
                rho = kernel.forward(rho, a)
            reading = kernel._reading(rho)
        else:
            *_, values = _policy_values(config, rows[::-1], config.w)
            reading = kernel._value_reading(*values)
    dvp, departures, *residual = reading
    return EvalResult(
        dvp=dvp,
        method="exact-chain",
        mean_departures=departures,
        mass_residual=residual[0] if residual else math.nan,
        states=len(backlog_states(config)),
    )

"""Semi-static schedules computed once from the initial backlogs: the
relaxed convex bound minimization, its integer rounding heuristics, the
union bound's dynamic programme and the exhaustive reference searches.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .dvp import (
    S_LO,
    Rejected,
    _log_alpha,
    _term_cdf,
    dvpub,
    exact_dvp_chain,
    min_log_wtb,
    union_terms,
    wtb_min_s,
)
from .mdp import transition_kernel, violation_to_go
from .model import CapExceededError, ScenarioConfig, Schedule

EXHAUSTIVE_CAP = 1_000_000
DVPUB_BYTE_CAP = 50_000_000
NEIGHBOR_CAP = 2**24

# branch-and-bound prunes a child whose bound exceeds the incumbent by more
# than this share: the backward bounds and the forward chain sum the same
# non-negative terms in different orders
_BNB_MARGIN = 1e-9
# opt's leaf replaces the incumbent only when below it by more than this
# share, so that exact DVPs equal up to rounding tie, and the first such
# schedule in product order wins whatever order the chain adds in
_TIE_MARGIN = 1e-13

_ARMIJO_C = 1e-4
_PG_TOL = 1e-9  # projected gradient of log wtb, so independent of the bound's scale
_MAX_ITERS = 200
_MAX_HALVINGS = 60
_DAMPING = 0.1

STOP_REASONS = ("converged", "line-search-stalled", "max-iters")


@dataclass(frozen=True)
class RelaxedSchedule:
    """Real-valued link-2 allocation in the box [1, N-1]^w, with the bound
    exponent and value at the joint optimum, the number of Newton
    iterations taken and why the solver stopped (one of STOP_REASONS; the
    defaults describe an allocation given rather than solved for). pg_norm
    is the projected gradient's norm at n2 (nan when not solved for),
    s_evals the exponents the solve's exponent searches evaluated, trials
    the line-search trials (one exponent search each), rejected_early the
    trials whose search stopped once it proved the Armijo test fails, and
    s_at_lo whether s ended at the exponent range's lower end S_LO, the
    plateau where the bound is vacuous; none takes part in equality."""

    n2: tuple[float, ...]
    s: float
    objective: float
    iterations: int = 0
    stop_reason: str = "converged"
    pg_norm: float = field(default=math.nan, compare=False)
    s_evals: int = field(default=0, compare=False)
    trials: int = field(default=0, compare=False)
    rejected_early: int = field(default=0, compare=False)
    s_at_lo: bool = field(default=False, compare=False)


@dataclass(frozen=True)
class SemiStaticResult:
    """An integer schedule, the criterion that selected it (wtb, dvpub or
    dvp, the exact DVP) and its value there, the score. nodes, for the
    searches, is the work done: the chain steps opt's branch-and-bound took,
    the schedules e-wtb, wtb-w or wtb-d scored, or the edges e-dvpub's
    forward pass scored. It takes no part in equality."""

    schedule: Schedule
    criterion: str
    score: float
    relaxed: RelaxedSchedule | None = None
    nodes: int = field(default=0, compare=False)


def solve_relaxed(config: ScenarioConfig) -> RelaxedSchedule:
    """Minimize the transient bound over the relaxed box [1, N-1]^w.

    Projected Newton (Bertsekas, 1982) on phi(n2) = min_s log wtb(n2, s),
    starting from the even split. With the union terms' trial counts
    T = c + A n2 and softmax weights p at the optimal exponent s*, the
    envelope gradient is log(alpha(s*)) A^T p, and log wtb at fixed s is a
    log-sum-exp of terms affine in n2, whose Hessian log(alpha)^2 Cov_p(A),
    plus _DAMPING times the projected gradient's norm on its diagonal
    (Li, Fukushima, Qi and Yamashita, 2004), is the Newton matrix on the
    coordinates not held at a face of the box. Steps are projected back
    into the box and backtracked (halving) until phi meets an Armijo
    condition. Each trial's exponent search starts warm from the last
    accepted s* (min_log_wtb), which the trials lie close to, and stops as
    soon as it proves that phi lies above the Armijo threshold; the even
    split's search starts cold. The solver stops when the projected
    gradient of log wtb is below _PG_TOL, which does not depend on how
    small the bound is, or the bound is exactly 0 (as at p_e = 0), when no
    halving decreases phi, or after _MAX_ITERS iterations.
    """
    if config.N < 2:
        raise ValueError(f"relaxed box [1, N-1] is empty for N={config.N}")
    lo, hi = 1.0, float(config.N - 1)
    c, A, m = union_terms(config)
    x = np.minimum(np.maximum(np.full(config.w, config.N / 2.0), lo), hi)
    best = min_log_wtb(c + A @ x, m, config.p_e)
    s_evals = best.evals
    iterations = trials = rejected_early = 0
    while True:
        log_alpha = _log_alpha(config.p_e, best.s)
        p = best.weights
        pA = p @ A
        grad = log_alpha * pA
        # np.clip and np.linalg.norm compute the same, with more dispatch
        gap = x - np.minimum(np.maximum(x - grad, lo), hi)
        pg_norm = math.sqrt(gap.dot(gap))
        if pg_norm <= _PG_TOL or best.value == 0.0:  # a zero bound cannot fall further
            stop_reason = "converged"
            break
        if iterations == _MAX_ITERS:
            stop_reason = "max-iters"
            break
        iterations += 1
        # held: at a face of the box, with the gradient pointing out of it
        held = np.where(grad > 0.0, x <= lo, (grad < 0.0) & (x >= hi))
        free = ~held if held.any() else slice(None)  # all free: no fancy indexing
        step = -grad
        Af = A[:, free] - pA[free]
        hess = log_alpha**2 * (Af.T @ (p[:, None] * Af))
        # the damping keeps steps finite along the flat directions of a
        # non-unique optimum (as at L) and vanishes as the iterates converge
        hess.flat[:: len(hess) + 1] += _DAMPING * pg_norm
        try:
            step[free] = -np.linalg.solve(hess, grad[free])
        except np.linalg.LinAlgError:
            pass  # singular: keep the gradient step on the free coordinates
        if grad @ step >= 0.0:
            step = -grad
        # a nearly singular Hessian gives a huge step that the box clips
        # anyway; start the search no longer than the box is wide
        t = min(1.0, (hi - lo) / np.abs(step).max())
        for _ in range(_MAX_HALVINGS):
            cand = np.minimum(np.maximum(x + t * step, lo), hi)
            decrease = grad @ (cand - x)
            if decrease < 0.0:
                threshold = best.log_wtb + _ARMIJO_C * decrease
                trial = min_log_wtb(c + A @ cand, m, config.p_e, best.s, above=threshold)
                s_evals += trial.evals
                trials += 1
                if isinstance(trial, Rejected):
                    rejected_early += 1
                elif trial.log_wtb <= threshold:
                    x, best = cand, trial
                    break
            t *= 0.5
        else:
            stop_reason = "line-search-stalled"
            break
    return RelaxedSchedule(
        n2=tuple(x.tolist()),
        s=best.s,
        objective=best.value,
        iterations=iterations,
        stop_reason=stop_reason,
        pg_norm=pg_norm,
        s_evals=s_evals,
        trials=trials,
        rejected_early=rejected_early,
        s_at_lo=best.s == S_LO,
    )


def _schedule_from_n2(config: ScenarioConfig, n2: tuple[int, ...]) -> Schedule:
    return Schedule(n1=tuple(config.N - v for v in n2), N=config.N)


def _wtb_below(config: ScenarioConfig, n2: tuple[int, ...], best: float) -> float:
    """wtb_min_s's bound for the link-2 vector n2, or inf once its exponent
    search proves that bound is above best (a finite positive incumbent):
    the schedule could not win a strict < against best either way."""
    c, A, m = union_terms(config)
    above = math.log(best) if 0.0 < best < math.inf else None
    found = min_log_wtb(c + A @ np.array(n2, dtype=float), m, config.p_e, above=above)
    return math.inf if isinstance(found, Rejected) else found.value


def round_nearest(config: ScenarioConfig, relaxed: RelaxedSchedule) -> SemiStaticResult:
    """Nearest-integer rounding of the relaxed allocation (halves round up),
    clamped back into {1..N-1}."""
    n2 = tuple(int(min(max(math.floor(v + 0.5), 1), config.N - 1)) for v in relaxed.n2)
    schedule = _schedule_from_n2(config, n2)
    return SemiStaticResult(schedule, "wtb", wtb_min_s(config, schedule)[1], relaxed)


def _scan(
    config: ScenarioConfig, choices: list[tuple[int, ...]], criterion: str
) -> tuple[tuple[int, ...], float, int]:
    """The first n2 in product order (lexicographic: each choice ascends)
    of least dvpub or wtb, that score, and the number of schedules scored.
    Each n2 is scored as the link-2 vector it is, with no Schedule built
    for it. Under wtb, a schedule's exponent search stops once it proves
    the schedule cannot beat the best so far (_wtb_below)."""
    best_n2, best_score, count = None, math.inf, 0
    for count, n2 in enumerate(itertools.product(*choices), start=1):
        if criterion == "dvpub":
            score = dvpub(config, n2).dvp
        else:
            score = _wtb_below(config, n2, best_score)
        if score < best_score:
            best_n2, best_score = n2, score
    return best_n2, best_score, count


def neighbor_search(
    config: ScenarioConfig, relaxed: RelaxedSchedule, criterion: str
) -> SemiStaticResult:
    """Score every floor/ceil combination around the relaxed allocation
    (clamped into {1..N-1}, duplicates collapsed) by criterion, dvpub or
    wtb, and keep the best (_scan); ties go to the lexicographically
    smallest link-2 vector, and nodes counts the combinations scored. More
    than NEIGHBOR_CAP combinations raise CapExceededError."""
    if criterion not in ("dvpub", "wtb"):
        raise ValueError(f"criterion must be dvpub or wtb, got {criterion!r}")
    choices = []
    for v in relaxed.n2:
        a = int(min(max(math.floor(v), 1), config.N - 1))
        b = int(min(max(math.ceil(v), 1), config.N - 1))
        choices.append((a,) if a == b else (a, b))
    count = math.prod(len(c) for c in choices)
    if count > NEIGHBOR_CAP:
        raise CapExceededError(
            f"{count} neighbor combinations exceed cap {NEIGHBOR_CAP}", count, NEIGHBOR_CAP
        )
    n2, score, nodes = _scan(config, choices, criterion)
    return SemiStaticResult(_schedule_from_n2(config, n2), criterion, score, relaxed, nodes=nodes)


def _largest_addend(t: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Elementwise, the largest float a >= 0 whose rounded sum a + t is at
    most u, or -inf where none is, stepped there from a close estimate."""
    fits = t <= u
    t, u = np.where(fits, t, 0.0), np.where(fits, u, 0.0)
    a = u - t + np.spacing(u) / 2
    while (over := a + t > u).any():
        a = np.where(over, np.nextafter(a, 0.0), a)
    while (more := (up := np.nextafter(a, np.inf)) + t <= u).any():
        a = np.where(more, up, a)
    return np.where(fits, a, -np.inf)


def e_dvpub(config: ScenarioConfig) -> SemiStaticResult:
    """The first n2 in {1..N-1}^w, in product order, of least dvpub, by
    dynamic programming; nodes counts the forward pass's edges.
    Arrays of more than DVPUB_BYTE_CAP bytes raise CapExceededError.
    Term k (1..w) has N (k-1) + S - P_{k-1} - P_k trials, with P_k the
    link-2 slots of frames before k and S = P_w; arrays run over R = S - w,
    Q_k = P_k - k and the step e = n2 - 1. Float addition is monotone, so
    the least partial sum at each (R, Q_k), added in dvpub's order, leads to
    the least dvpub bit for bit. The walk takes at each frame the least step
    whose partial sum can still reach it: the schedule a full scan keeps.
    A trial count outside 0..w*N scores inf, never a clipped entry."""
    N, w = config.N, config.w
    if N < 2:
        raise ValueError(f"domain {{1..N-1}} is empty for N={N}")
    v, width = N - 1, w * (N - 2) + 1  # R and every Q_k lie in 0..width-1
    if (nbytes := 8 * v * width * width) > DVPUB_BYTE_CAP:
        message = f"e-dvpub's arrays need {nbytes} bytes, cap is {DVPUB_BYTE_CAP}"
        raise CapExceededError(message, nbytes, DVPUB_BYTE_CAP)
    cdf, cols = _term_cdf(config)
    # term k+1 has (N-2) k + w - 1 + z trials, z = R - Q_k - Q_{k+1} >= -z_lo
    z_lo = 2 * width + v - 3
    trials = (N - 2) * np.arange(w)[:, None] + w - 1 + np.arange(-z_lo, width + v - 1)
    fits = (trials >= 0) & (trials < len(cdf))
    tails = np.where(fits, cdf[np.clip(trials, 0, len(cdf) - 1), cols[1:, None]], np.inf)
    # term k+1 by source, cost[k, e, R, Q_k], and by target, cost_in[k, v-1-e, R, Q_{k+1}]
    shape, strides = (w, v, width, width), (tails.strides[0], -8, 8, -16)
    cost = np.ndarray(shape, float, tails, 8 * z_lo, strides)
    cost_in = np.ndarray(shape, float, tails, 8 * (z_lo + v - 1), strides)
    first = cdf[w : w + width, cols[0]]
    # least[R, v-1+Q_k], the least partial sum through term k, shifted by j in window[j]
    least = np.full((width, width + v - 1), np.inf)
    least[:, v - 1] = first
    window = np.ndarray((v, width, width), float, least, 0, (8,) + least.strides)
    for k in range(w):
        least[:, v - 1 :] = (window + cost_in[k]).min(axis=0)
    totals = least.diagonal(v - 1)
    best = float(totals.min())
    # caps[k, r, Q_k], the most a partial sum may be and still reach best at total rows[r]
    rows = np.flatnonzero(totals == best)
    caps = np.full((w + 1, len(rows), width + v - 1), -np.inf)
    s = caps.strides
    ahead = np.ndarray((w + 1, v, len(rows), width), float, caps, 0, (s[0], 8, s[1], 8))
    caps[w, np.arange(len(rows)), rows] = best
    for k in range(w - 1, -1, -1):
        caps[k, :, :width] = _largest_addend(cost[k][:, rows], ahead[k + 1]).max(axis=0)
    partial, n2, q = first[rows], [], 0
    for k in range(w):
        cand = partial + cost[k][:, rows, q]
        ok = cand <= caps[k + 1, :, q : q + v].T
        e = int(ok.any(axis=1).argmax())
        partial, q = np.where(ok[e], cand[e], np.inf), q + e
        n2.append(1 + e)
    return SemiStaticResult(_schedule_from_n2(config, n2), "dvpub", best, nodes=w * v * width**2)


def _least_exact_dvp(
    config: ScenarioConfig, values: np.ndarray
) -> tuple[tuple[int, ...], float, int]:
    """The n2 in values^w of least exact DVP up to ties, that DVP, and the
    chain steps taken, by depth-first branch-and-bound. A schedule ties
    with the incumbent when it is not below it by more than _TIE_MARGIN of
    it; the first in product order is kept.

    A node at depth k holds its prefix's backlog distribution rho_k on the
    grid. A child advances it one frame, and a leaf is scored, by
    exact_dvp_chain's own transition_kernel(config).forward and
    kernel.violation, so every leaf's score equals exact_dvp_chain's bit
    for bit. The bound is the violation-to-go over the search's own actions
    (mdp.violation_to_go): a child's Q_k[j] . rho_k is the least DVP that
    action j followed by the best closed-loop play can reach, and an
    open-loop completion is one closed-loop policy. A greedy dive down the
    least bounds gives the first incumbent. The search keeps its own stack,
    so w is not limited by Python's recursion depth. Leaves are visited in
    product order and replace the best only when below it by more than
    _TIE_MARGIN of it, and a child is pruned only when its bound exceeds
    the incumbent by more than _BNB_MARGIN, so the search returns what a
    full scan under the same rule would."""
    w = config.w
    acts = config.N - values
    kernel = transition_kernel(config)
    Q = violation_to_go(config, acts)
    start = kernel.start()
    rho = start
    for k in range(w):
        rho = kernel.forward(rho, acts[int(np.argmin(Q[k] @ rho.ravel()))])
    dive = kernel.violation(rho)
    nodes = w  # the dive's steps, then one per child

    best, best_path = math.inf, None
    path = [-1] * w  # the child last tried at each depth
    rhos = [start] + [None] * (w - 1)
    bounds = [(Q[0] @ start.ravel()).tolist()] + [None] * (w - 1)
    k = 0
    while k >= 0:
        limit = min(dive, best) * (1.0 + _BNB_MARGIN)
        j = path[k] + 1
        while j < len(acts) and bounds[k][j] > limit:
            j += 1
        if j == len(acts):  # every child of this node is done: back up
            path[k] = -1
            k -= 1
            continue
        path[k] = j
        nodes += 1
        child = kernel.forward(rhos[k], acts[j])
        if k + 1 < w:
            k += 1
            rhos[k], bounds[k] = child, (Q[k] @ child.ravel()).tolist()
        else:
            score = kernel.violation(child)
            if score < best * (1.0 - _TIE_MARGIN):
                best, best_path = score, list(path)
    return tuple(values[best_path].tolist()), best, nodes


def _exhaustive_domain(config: ScenarioConfig, full_domain: bool = False) -> np.ndarray:
    """The link-2 values an exhaustive search tries per frame, {1..N-1} or
    {0..N}. A domain of more than EXHAUSTIVE_CAP schedules raises
    CapExceededError."""
    if not full_domain and config.N < 2:
        raise ValueError(f"domain {{1..N-1}} is empty for N={config.N}")
    values = np.arange(0, config.N + 1) if full_domain else np.arange(1, config.N)
    count = len(values) ** config.w
    if count > EXHAUSTIVE_CAP:
        message = f"exhaustive search over {count} schedules exceeds cap {EXHAUSTIVE_CAP}"
        raise CapExceededError(message, count, EXHAUSTIVE_CAP)
    return values


def even_split(config: ScenarioConfig) -> Schedule:
    """Queue-agnostic even split; the spare slot of an odd frame goes to the
    first link."""
    return Schedule(n1=((config.N + 1) // 2,) * config.w, N=config.N)


def fifty_fifty(config: ScenarioConfig) -> SemiStaticResult:
    """The even split, scored by its exact DVP."""
    schedule = even_split(config)
    score = exact_dvp_chain(config, schedule).dvp
    return SemiStaticResult(schedule=schedule, criterion="dvp", score=score)


def wtb_w(config: ScenarioConfig) -> SemiStaticResult:
    """wtb-w from its own relaxed solve; a sweep shares one among wtb-*."""
    return neighbor_search(config, solve_relaxed(config), "wtb")


def e_wtb(config: ScenarioConfig) -> SemiStaticResult:
    """The first n2 in {1..N-1}^w, in product order, of least wtb, by
    scoring every schedule (_scan); nodes counts them."""
    values = _exhaustive_domain(config).tolist()
    n2, score, nodes = _scan(config, [values] * config.w, "wtb")
    return SemiStaticResult(_schedule_from_n2(config, n2), "wtb", score, nodes=nodes)


def opt(config: ScenarioConfig, full_domain: bool = False) -> SemiStaticResult:
    """The n2 in {1..N-1}^w ({0..N}^w with full_domain) of least exact
    DVP, the first in product order of those within _TIE_MARGIN, by
    branch-and-bound (_least_exact_dvp), which fetches
    transition_kernel(config) once the cap is checked and returns what
    scoring every schedule would; nodes counts its chain steps."""
    n2, score, nodes = _least_exact_dvp(config, _exhaustive_domain(config, full_domain))
    return SemiStaticResult(_schedule_from_n2(config, n2), "dvp", score, nodes=nodes)

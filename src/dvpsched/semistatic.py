"""Semi-static schedules computed once from the initial backlogs: the
relaxed convex bound minimization, its integer rounding heuristics, and the
exhaustive reference searches.
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
    _violation,
    dvpub,
    exact_dvp_chain,
    min_log_wtb,
    union_terms,
    wtb_min_s,
)
from .mdp import TransitionKernel, transition_kernel
from .model import CapExceededError, ScenarioConfig, Schedule

EXHAUSTIVE_CAP = 1_000_000
NEIGHBOR_CAP = 2**24

# branch-and-bound prunes a child whose bound exceeds the incumbent by more
# than this share: the backward bounds and the forward chain sum the same
# non-negative terms in different orders
_BNB_MARGIN = 1e-9
# opt's leaf replaces the incumbent only when below it by more than this
# share, so that exact DVPs equal up to rounding tie, and the first such
# schedule in product order wins whatever order the chain adds in
_TIE_MARGIN = 1e-13
_GRID_BLOCK = 1024  # schedules per block of the union-bound search

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
    """An integer schedule, how it was chosen, and the criterion value that
    selected it. nodes, for the exhaustive searches, is the work done: the
    chain steps opt's branch-and-bound took, or the schedules e-dvpub and
    e-wtb scored. It takes no part in equality."""

    schedule: Schedule
    method: str
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
    x = np.clip(np.full(config.w, config.N / 2.0), lo, hi)
    best = min_log_wtb(c + A @ x, m, config.p_e)
    s_evals = best.evals
    iterations = trials = rejected_early = 0
    while True:
        log_alpha = _log_alpha(config.p_e, best.s)
        p = best.weights
        pA = p @ A
        grad = log_alpha * pA
        pg_norm = float(np.linalg.norm(x - np.clip(x - grad, lo, hi)))
        if pg_norm <= _PG_TOL or best.value == 0.0:  # a zero bound cannot fall further
            stop_reason = "converged"
            break
        if iterations == _MAX_ITERS:
            stop_reason = "max-iters"
            break
        iterations += 1
        held = ((x <= lo) & (grad > 0.0)) | ((x >= hi) & (grad < 0.0))
        free = ~held
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
            cand = np.clip(x + t * step, lo, hi)
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
    n2 = tuple(
        int(min(max(math.floor(v + 0.5), 1), config.N - 1)) for v in relaxed.n2
    )
    schedule = _schedule_from_n2(config, n2)
    _, score = wtb_min_s(config, schedule)
    return SemiStaticResult(schedule=schedule, method="wtb-r", score=score, relaxed=relaxed)


def neighbor_search(
    config: ScenarioConfig, relaxed: RelaxedSchedule, criterion: str
) -> SemiStaticResult:
    """Score every floor/ceil combination around the relaxed allocation
    (clamped into {1..N-1}, duplicates collapsed) and keep the best; ties go
    to the lexicographically smallest link-2 vector. Under wtb, a
    combination's exponent search stops once it proves the combination
    cannot beat the best so far (_wtb_below). More than NEIGHBOR_CAP
    combinations raise CapExceededError."""
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
    best_n2 = None
    best_score = math.inf
    for n2 in itertools.product(*choices):
        if criterion == "dvpub":
            score = dvpub(config, _schedule_from_n2(config, n2)).dvp
        else:
            score = _wtb_below(config, n2, best_score)
        if score < best_score:
            best_score = score
            best_n2 = n2
    method = "wtb-d" if criterion == "dvpub" else "wtb-w"
    return SemiStaticResult(
        schedule=_schedule_from_n2(config, best_n2),
        method=method,
        score=best_score,
        relaxed=relaxed,
    )


def _product_blocks(values: np.ndarray, w: int):
    """values^w in itertools.product order, in blocks of at most
    _GRID_BLOCK rows (len(values) rows where one value alone exceeds that):
    np.indices gives the trailing digits once, and each block fills in the
    leading ones. Every block is the same array, refilled."""
    k = len(values)
    t = w
    while t > 1 and k**t > _GRID_BLOCK:
        t -= 1
    grid = np.empty((k**t, w), dtype=values.dtype)
    grid[:, w - t :] = values[np.indices((k,) * t).reshape(t, -1).T]
    for head in np.ndindex(*(k,) * (w - t)):
        grid[:, : w - t] = values[list(head)]
        yield grid


def _least_dvpub(config: ScenarioConfig, values: np.ndarray) -> tuple[tuple[int, ...], float]:
    """The first n2 in values^w, in itertools.product order, of least
    dvpub, and that value. Each block adds the union terms' tails, read
    from dvpub's table, in dvpub's term order, so every sum equals dvpub's
    bit for bit, and argmin keeps the first minimum as a strict < does."""
    c, A, _ = union_terms(config)
    cdf, cols = _term_cdf(config)
    best_n2, best = None, math.inf
    for grid in _product_blocks(values.astype(float), config.w):
        acc = np.zeros(len(grid))
        for j in range(len(c)):
            trials = np.rint(c[j] + grid @ A[j]).astype(np.intp)
            acc = acc + cdf[trials, cols[j]]
        i = int(np.argmin(acc))
        if acc[i] < best:
            best_n2, best = tuple(int(v) for v in grid[i]), float(acc[i])
    return best_n2, best


def _least_exact_dvp(
    config: ScenarioConfig, values: np.ndarray, kernel: TransitionKernel
) -> tuple[tuple[int, ...], float, int]:
    """The n2 in values^w of least exact DVP up to ties, that DVP, and the
    chain steps taken, by depth-first branch-and-bound. A schedule ties
    with the incumbent when it is not below it by more than _TIE_MARGIN of
    it; the first in itertools.product order is kept.

    A node at depth k holds its prefix's backlog distribution rho_k on the
    grid, and a child advances it one frame with exact_dvp_chain's own
    kernel.forward, so every leaf's score equals exact_dvp_chain's bit for
    bit. The bound is the violation-to-go over the search's own actions:
    with V_w the indicator of a non-empty state, Q_k = backward(V_{k+1})
    at those actions and V_k = Q_k.min(0), a child's Q_k[j] . rho_k is the
    least DVP that action j followed by the best closed-loop play can
    reach, and an open-loop completion is one closed-loop policy. A greedy
    dive down the least bounds gives the first incumbent. The search keeps
    its own stack, so w is not limited by Python's recursion depth. Leaves
    are visited in product order and replace the best only when below it
    by more than _TIE_MARGIN of it, and a child is pruned only when its
    bound exceeds the incumbent by more than _BNB_MARGIN, so the search
    returns what a full scan under the same rule would."""
    w = config.w
    acts = config.N - values
    violation = np.zeros(kernel.shape)
    violation.flat[kernel.cells[kernel.states.nonempty]] = 1.0
    Q = [None] * w
    for k in range(w - 1, -1, -1):
        Q[k] = kernel.backward(violation)[acts]
        violation = Q[k].min(axis=0)
    Q = [q.reshape(len(acts), -1) for q in Q]
    nodes = 0

    def advance(rho: np.ndarray, a: int) -> np.ndarray:
        nonlocal nodes
        nodes += 1
        return kernel.forward(rho, a)

    start = kernel.start()
    rho = start
    for k in range(w):
        rho = advance(rho, acts[int(np.argmin(Q[k] @ rho.ravel()))])
    dive = _violation(kernel, rho.ravel()[kernel.cells])

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
        child = advance(rhos[k], acts[j])
        if k + 1 < w:
            k += 1
            rhos[k], bounds[k] = child, (Q[k] @ child.ravel()).tolist()
        else:
            score = _violation(kernel, child.ravel()[kernel.cells])
            if score < best * (1.0 - _TIE_MARGIN):
                best, best_path = score, list(path)
    return tuple(values[best_path].tolist()), best, nodes


def exhaustive(
    config: ScenarioConfig, criterion: str, full_domain: bool = False
) -> SemiStaticResult:
    """The minimizer of the chosen criterion over every allocation in
    {1..N-1}^w (optionally {0..N}^w for the exact criterion), the first in
    itertools.product order of n2 where several tie (for the exact
    criterion, where several lie within _TIE_MARGIN); the default domain
    matches the bound methods so rankings stay comparable. A domain of more
    than EXHAUSTIVE_CAP schedules raises CapExceededError.

    The exact criterion is searched by branch-and-bound (_least_exact_dvp)
    on transition_kernel(config), fetched once the domain and the cap are
    checked; dvpub scores the whole domain in vectorised blocks
    (_least_dvpub); wtb scores one schedule at a time, each exponent search
    stopping once it proves the schedule cannot beat the best so far
    (_wtb_below). Each returns the schedule and score that scoring every
    schedule in turn would."""
    if criterion not in ("dvpub", "wtb", "exact"):
        raise ValueError(f"criterion must be dvpub, wtb or exact, got {criterion!r}")
    if full_domain and criterion != "exact":
        raise ValueError("the widened {0..N}^w domain applies to the exact criterion")
    if full_domain:
        values = np.arange(0, config.N + 1)
    else:
        if config.N < 2:
            raise ValueError(f"domain {{1..N-1}} is empty for N={config.N}")
        values = np.arange(1, config.N)
    count = len(values) ** config.w
    if count > EXHAUSTIVE_CAP:
        raise CapExceededError(
            f"exhaustive search over {count} schedules exceeds cap {EXHAUSTIVE_CAP}",
            count,
            EXHAUSTIVE_CAP,
        )
    nodes = count
    if criterion == "exact":
        best_n2, best_score, nodes = _least_exact_dvp(config, values, transition_kernel(config))
    elif criterion == "dvpub":
        best_n2, best_score = _least_dvpub(config, values)
    else:
        best_n2 = None
        best_score = math.inf
        for n2 in itertools.product(values.tolist(), repeat=config.w):
            score = _wtb_below(config, n2, best_score)
            if score < best_score:
                best_score = score
                best_n2 = n2
    method = {"dvpub": "e-dvpub", "wtb": "e-wtb", "exact": "opt"}[criterion]
    return SemiStaticResult(
        schedule=_schedule_from_n2(config, best_n2),
        method=method,
        score=best_score,
        nodes=nodes,
    )


def even_split(config: ScenarioConfig) -> Schedule:
    """Queue-agnostic even split; the spare slot of an odd frame goes to the
    first link."""
    return Schedule(n1=((config.N + 1) // 2,) * config.w, N=config.N)


def fifty_fifty(config: ScenarioConfig) -> SemiStaticResult:
    """The even split, scored by its exact DVP."""
    schedule = even_split(config)
    score = exact_dvp_chain(config, schedule).dvp
    return SemiStaticResult(schedule=schedule, method="fifty-fifty", score=score)


def wtb_w(config: ScenarioConfig) -> SemiStaticResult:
    return neighbor_search(config, solve_relaxed(config), "wtb")


def e_wtb(config: ScenarioConfig) -> SemiStaticResult:
    return exhaustive(config, "wtb")


def e_dvpub(config: ScenarioConfig) -> SemiStaticResult:
    return exhaustive(config, "dvpub")


def opt(config: ScenarioConfig, full_domain: bool = False) -> SemiStaticResult:
    return exhaustive(config, "exact", full_domain=full_domain)

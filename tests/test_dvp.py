"""Exact DVP evaluators and the two analytic upper bounds."""
import dataclasses
import itertools
import math

import numpy as np
import pytest

from dvpsched import (
    CapExceededError,
    ScenarioConfig,
    Schedule,
    binomial_pmf,
    dvpub,
    exact_dvp_chain,
    value_iteration,
    wtb_min_s,
)
from dvpsched.dvp import S_LO, Rejected, _log_alpha, _log_wtb_in_s, min_log_wtb, union_terms
from dvpsched.model import backlog_states
from dvpsched.oracles import binomial_cdf, exact_dvp_enum, wtb

HAND_CFG = ScenarioConfig(N=2, p_e=0.5, w=2, y=1, x1=0, x2=0)
HAND_SCHED = Schedule(n1=(1, 1), N=2)


def term_counts(cfg, sched):
    """(trial count, threshold) of each union term."""
    c, A, m = union_terms(cfg)
    return zip((c + A @ np.array(sched.n2, dtype=float)).tolist(), m.tolist())


# frozen from exact_dvp_enum: (y=2, x1=1, x2=1, N=3, w=3, p_e=0.33, n1=(2,1,1))
GOLDEN_ENUM = 0.8593914907565057


def random_instance(rng, max_N=4, max_w=4, max_load=5):
    while True:
        N = int(rng.integers(1, max_N + 1))
        w = int(rng.integers(1, max_w + 1))
        y = int(rng.integers(1, 4))
        x1 = int(rng.integers(0, 3))
        x2 = int(rng.integers(0, 3))
        if y + x1 + x2 <= max_load:
            break
    pe = float(rng.uniform(0.05, 0.95))
    n1 = tuple(int(v) for v in rng.integers(0, N + 1, size=w))
    return ScenarioConfig(N=N, p_e=pe, w=w, y=y, x1=x1, x2=x2), Schedule(n1=n1, N=N)


def union_event_probability(config, schedule):
    """Independent oracle for the violation-event decomposition: enumerate
    every joint service outcome and test the union event directly (all-
    horizon second-link shortfall, or for some u a shortfall of first-link
    successes before u plus second-link successes from u on)."""
    n1, n2 = schedule.n1, schedule.n2
    q = 1.0 - config.p_e
    w = config.w
    total = 0.0
    frame_outcomes = [
        [
            (s1, s2, binomial_pmf(n1[k], q, s1) * binomial_pmf(n2[k], q, s2))
            for s1 in range(n1[k] + 1)
            for s2 in range(n2[k] + 1)
        ]
        for k in range(w)
    ]
    for path in itertools.product(*frame_outcomes):
        prob = 1.0
        for _, _, p in path:
            prob *= p
        s1seq = [o[0] for o in path]
        s2seq = [o[1] for o in path]
        hit = sum(s2seq) < config.total_load
        for u in range(1, w + 1):
            if sum(s1seq[: u - 1]) + sum(s2seq[u:]) < config.first_hop_load:
                hit = True
        if hit:
            total += prob
    return total


class TestExactEvaluators:
    def test_lossless_draining_schedule(self):
        cfg = ScenarioConfig(N=2, p_e=0.0, w=2, y=1, x1=0, x2=0)
        sched = Schedule(n1=(1, 1), N=2)
        assert exact_dvp_chain(cfg, sched).dvp == 0.0
        assert exact_dvp_enum(cfg, sched).dvp == 0.0

    def test_dead_channel(self):
        cfg = ScenarioConfig(N=2, p_e=1.0, w=2, y=1, x1=0, x2=0)
        sched = Schedule(n1=(1, 1), N=2)
        assert exact_dvp_chain(cfg, sched).dvp == 1.0
        assert exact_dvp_enum(cfg, sched).dvp == 1.0

    def test_hand_enumerated_case(self):
        # success needs a frame-0 first-link success and a frame-1
        # second-link success: 0.5 * 0.5, so DVP = 0.75
        assert exact_dvp_chain(HAND_CFG, HAND_SCHED).dvp == pytest.approx(0.75, abs=1e-12)
        assert exact_dvp_enum(HAND_CFG, HAND_SCHED).dvp == pytest.approx(0.75, abs=1e-12)

    def test_golden_regression(self):
        cfg = ScenarioConfig(N=3, p_e=0.33, w=3, y=2, x1=1, x2=1)
        sched = Schedule(n1=(2, 1, 1), N=3)
        assert exact_dvp_enum(cfg, sched).dvp == pytest.approx(GOLDEN_ENUM, abs=1e-12)
        assert exact_dvp_chain(cfg, sched).dvp == pytest.approx(GOLDEN_ENUM, abs=1e-12)

    def test_enum_equals_chain_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            cfg, sched = random_instance(rng)
            e = exact_dvp_enum(cfg, sched).dvp
            c = exact_dvp_chain(cfg, sched).dvp
            assert e == pytest.approx(c, abs=1e-12)

    def test_enum_cap_refusal(self):
        cfg = ScenarioConfig(N=30, p_e=0.5, w=8, y=1, x1=0, x2=0)
        sched = Schedule(n1=(15,) * 8, N=30)
        with pytest.raises(CapExceededError) as exc:
            exact_dvp_enum(cfg, sched)
        assert exc.value.estimate == 256**8

    def test_one_frame_deadline_always_violates(self):
        # the batch needs one frame to cross each hop, so w=1 cannot work
        cfg = ScenarioConfig(N=4, p_e=0.0, w=1, y=1, x1=0, x2=0)
        assert exact_dvp_chain(cfg, Schedule(n1=(2,), N=4)).dvp == 1.0

    def test_schedule_mismatch_rejected(self):
        with pytest.raises(ValueError):
            exact_dvp_chain(HAND_CFG, Schedule(n1=(1,), N=2))
        with pytest.raises(ValueError):
            exact_dvp_enum(HAND_CFG, Schedule(n1=(1, 1, 1), N=2))

    def test_event_union_equals_exact_dvp(self):
        # the violation event IS the union event, outcome by outcome
        rng = np.random.default_rng(7)
        for _ in range(40):
            cfg, sched = random_instance(rng, max_N=3, max_w=3, max_load=4)
            assert union_event_probability(cfg, sched) == pytest.approx(
                exact_dvp_enum(cfg, sched).dvp, abs=1e-12
            )

    def test_mean_departures_accumulator(self):
        res = exact_dvp_chain(HAND_CFG, HAND_SCHED)
        # the single packet departs iff the run succeeds: E[D] = 0.25
        assert res.mean_departures == pytest.approx(0.25, abs=1e-12)


class TestSmallDvps:
    """The chain sums the mass left on non-empty states; 1 - P(empty) would
    lose every DVP below the kernel rows' rounding drift (~1e-14)."""

    def test_low_loss_matches_enumeration(self):
        cfg = ScenarioConfig(N=4, p_e=0.01, w=5, y=1, x1=1, x2=1)
        sched = Schedule(n1=(3, 3, 2, 1, 1), N=4)
        e = exact_dvp_enum(cfg, sched).dvp
        assert e < 1e-12
        assert exact_dvp_chain(cfg, sched).dvp == pytest.approx(e, rel=1e-9, abs=0.0)

    def test_large_instance_mdp_table_is_positive(self):
        # L of the roadmap: 1 - P(empty) read -1.55e-14 here
        cfg = ScenarioConfig(N=16, p_e=0.4, w=12, y=10, x1=10, x2=10)
        dvp = exact_dvp_chain(cfg, value_iteration(cfg)).dvp
        assert 0.0 < dvp < 1e-14

    def test_far_below_rounding(self):
        cfg = ScenarioConfig(N=10, p_e=0.02, w=10, y=1, x1=1, x2=1)
        assert 1e-73 < exact_dvp_chain(cfg, "fifty").dvp < 1e-72


class TestDvpub:
    def test_lossless_with_ample_slots(self):
        cfg = ScenarioConfig(N=10, p_e=0.0, w=4, y=1, x1=1, x2=1)
        sched = Schedule(n1=(5, 5, 5, 5), N=10)
        assert dvpub(cfg, sched).dvp == 0.0

    def test_hand_terms(self):
        # all-horizon second-link tail, then the u = 1, 2 shortfall terms:
        # P{Bin(2,.5)=0} + P{Bin(1,.5)=0} + P{Bin(1,.5)=0}
        res = dvpub(HAND_CFG, HAND_SCHED)
        assert res.detail == pytest.approx((0.25, 0.5, 0.5), abs=1e-12)
        assert res.dvp == pytest.approx(1.25, abs=1e-12)
        assert res.dvp >= 0.75

    def test_upper_bounds_exact(self):
        cfg = ScenarioConfig(N=4, p_e=0.2, w=4, y=1, x1=1, x2=1)
        sched = Schedule(n1=(2, 2, 2, 2), N=4)
        assert dvpub(cfg, sched).dvp >= exact_dvp_enum(cfg, sched).dvp

    def test_term_count(self):
        assert len(dvpub(HAND_CFG, HAND_SCHED).detail) == HAND_CFG.w + 1

    def test_one_frame_deadline_is_certainly_vacuous(self):
        # with one frame nothing can cross both hops, and the bound knows:
        # the u=1 term has zero trials against a nonnegative threshold
        cfg = ScenarioConfig(N=4, p_e=0.1, w=1, y=1, x1=0, x2=0)
        res = dvpub(cfg, Schedule(n1=(2,), N=4))
        assert res.detail[-1] == 1.0
        assert res.dvp >= 1.0 >= exact_dvp_chain(cfg, Schedule(n1=(2,), N=4)).dvp


    def test_terms_are_binomial_cdf_tails(self):
        # the per-term loop dvpub ran before it read binomial_cdf_table: a
        # threshold at or beyond the trial count gives 1
        rng = np.random.default_rng(11)
        for _ in range(100):
            cfg, sched = random_instance(rng, max_N=6, max_w=6, max_load=9)
            q = 1.0 - cfg.p_e
            tails = [
                binomial_cdf(int(trials), q, min(threshold, int(trials)))
                for trials, threshold in term_counts(cfg, sched)
            ]
            res = dvpub(cfg, sched)
            assert res.detail == tuple(tails)
            assert res.dvp == sum(tails)

    def test_raw_link2_vector_scores_as_its_schedule(self):
        # the semi-static searches score the link-2 tuples they build with
        # no Schedule
        rng = np.random.default_rng(30)
        for _ in range(300):
            cfg, sched = random_instance(rng, max_N=7, max_w=6, max_load=9)
            assert dvpub(cfg, sched.n2) == dvpub(cfg, sched)

    def test_rejects_allocations_beyond_the_table(self):
        # link-2 allocations above N give trial counts outside 0..w*N
        cfg = ScenarioConfig(N=4, p_e=0.2, w=2, y=1, x1=0, x2=0)
        for n2 in ([2.0, 9.0], [9.0, 2.0]):
            with pytest.raises(ValueError, match="trial counts"):
                dvpub(cfg, n2)


class TestWtb:
    def test_small_s_limit_counts_terms(self):
        for cfg, sched in [
            (HAND_CFG, HAND_SCHED),
            (ScenarioConfig(N=4, p_e=0.3, w=5, y=1, x1=1, x2=0), Schedule(n1=(2,) * 5, N=4)),
        ]:
            assert wtb(cfg, sched, 1e-12) == pytest.approx(cfg.w + 1, rel=1e-6)

    def test_dead_channel_is_vacuous(self):
        cfg = ScenarioConfig(N=2, p_e=1.0, w=3, y=1, x1=1, x2=1)
        sched = Schedule(n1=(1, 1, 1), N=2)
        for s in (0.5, 1.0, 3.0):
            assert wtb(cfg, sched, s) >= 1.0

    def test_hand_value(self):
        a = 0.5 * math.exp(-1.0) + 0.5
        assert wtb(HAND_CFG, HAND_SCHED, 1.0) == pytest.approx(a * a + 2 * a, rel=1e-12)

    def test_chernoff_dominates_each_tail_term(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            cfg, sched = random_instance(rng)
            s = float(rng.uniform(0.05, 4.0))
            alpha = (1.0 - cfg.p_e) * math.exp(-s) + cfg.p_e
            ub = dvpub(cfg, sched).detail
            for (trials, threshold), tail in zip(term_counts(cfg, sched), ub):
                assert alpha**trials * math.exp(s * threshold) >= tail - 1e-12

    def test_accepts_real_valued_allocations(self):
        cfg = ScenarioConfig(N=4, p_e=0.3, w=2, y=1, x1=0, x2=0)
        assert wtb(cfg, [1.5, 2.25], 0.7) > 0.0

    def test_rejects_nonpositive_s(self):
        with pytest.raises(ValueError):
            wtb(HAND_CFG, HAND_SCHED, 0.0)
        with pytest.raises(ValueError):
            wtb(HAND_CFG, HAND_SCHED, -1.0)

    def test_convex_in_s(self):
        # each term is log-convex in s, so the sum is convex in s
        rng = np.random.default_rng(8)
        for _ in range(40):
            cfg, sched = random_instance(rng)
            sa, sb = sorted(rng.uniform(0.01, 6.0, size=2))
            mid = wtb(cfg, sched, (sa + sb) / 2)
            assert mid <= (wtb(cfg, sched, sa) + wtb(cfg, sched, sb)) / 2 + 1e-9


class TestWtbMinS:
    def test_lossless_bound_vanishes(self):
        cfg = ScenarioConfig(N=10, p_e=0.0, w=4, y=1, x1=1, x2=0)
        _, value = wtb_min_s(cfg, Schedule(n1=(5,) * 4, N=10))
        assert value <= 1e-6

    def test_minimizer_beats_probes(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            cfg, sched = random_instance(rng)
            s_star, v_star = wtb_min_s(cfg, sched)
            assert s_star > 0
            for s in rng.uniform(1e-5, 60.0, size=20):
                assert v_star <= wtb(cfg, sched, float(s)) + 1e-9

    def test_three_way_ordering(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            cfg, sched = random_instance(rng)
            e = exact_dvp_enum(cfg, sched).dvp
            u = dvpub(cfg, sched).dvp
            _, b = wtb_min_s(cfg, sched)
            assert e <= u + 1e-12
            assert u <= b + 1e-9

    def test_midpoint_convex_where_informative(self):
        # the optimized bound is empirically convex wherever it is < 1;
        # convexity genuinely fails where it rises toward its cap of
        # (number of terms), so acceptance criterion 3 probes the same
        # informative region
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 150:
            N = int(rng.integers(3, 6))
            w = int(rng.integers(2, 6))
            cfg = ScenarioConfig(
                N=N,
                p_e=float(rng.choice([0.2, 0.33, 0.4, 0.5])),
                w=w,
                y=1,
                x1=int(rng.integers(0, 3)),
                x2=int(rng.integers(0, 3)),
            )
            na = rng.uniform(1, N - 1, size=w)
            nb = rng.uniform(1, N - 1, size=w)
            _, fa = wtb_min_s(cfg, list(na))
            _, fb = wtb_min_s(cfg, list(nb))
            if max(fa, fb) >= 1.0:
                continue
            _, fm = wtb_min_s(cfg, list((na + nb) / 2))
            assert fm <= (fa + fb) / 2 + 1e-9
            checked += 1


def cold_search_before_warm_start(T, m, p_e, s_lo=1e-6, s_hi=50.0, tol=1e-9, max_doublings=6):
    """The exponent search as wtb_min_s ran it before it shared its Newton
    loop with the warm entry, kept as the reference it must equal."""
    f = lambda s: _log_wtb_in_s(T, m, p_e, s)[:3]
    s, (g, g1, g2) = s_lo, f(s_lo)
    if g1 < 0.0:
        lo, hi = s, s_hi
        g, g1, g2 = f(hi)
        for _ in range(max_doublings):
            if g1 >= 0.0:
                break
            hi *= 2.0
            g, g1, g2 = f(hi)
        s = hi
        if g1 > 0.0:
            for _ in range(100):
                if g1 < 0.0:
                    lo = s
                elif g1 > 0.0:
                    hi = s
                else:
                    break
                nxt = s - g1 / g2 if g2 > 0.0 else math.nan
                if not lo < nxt < hi:
                    nxt = 0.5 * (lo + hi)
                if abs(nxt - s) <= tol:
                    break
                s = nxt
                g, g1, g2 = f(s)
    return s, g


def bisected_root(T, m, p_e, lo=1e-6, hi=50.0 * 2**6):
    """The root of log wtb's derivative in s over [lo, hi] (an end where it
    has none), by bisection down to adjacent doubles."""
    slope = lambda s: _log_wtb_in_s(T, m, p_e, s)[1]
    if slope(lo) >= 0.0:
        return lo
    if slope(hi) <= 0.0:
        return hi
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if slope(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def random_terms(rng):
    k = int(rng.integers(1, 12))
    T = rng.uniform(0.0, 40.0, size=k)
    m = rng.integers(0, 20, size=k).astype(float)
    p_e = 0.0 if rng.random() < 0.15 else float(rng.uniform(0.0, 0.9))
    return T, m, p_e


def log_sum_exp_before_fusion(e):
    """log(sum(exp(e))) and the softmax weights, as _log_wtb_in_s computed
    them through a helper of its own before it did so inline."""
    top = e.max()
    p = np.exp(e - top)
    total = p.sum()
    return top + math.log(total), p / total


def log_wtb_in_s_before_fusion(T, m, p_e, s):
    """_log_wtb_in_s before it fused its array passes, kept as the
    reference it must equal bit for bit."""
    q = 1.0 - p_e
    alpha = p_e + q * math.exp(-s)
    r = q * math.exp(-s) / alpha if p_e > 0.0 else 1.0
    g, p = log_sum_exp_before_fusion(T * _log_alpha(p_e, s) + s * m)
    slope = m - r * T
    g1 = float(p @ slope)
    g2 = (r * p_e / alpha if p_e > 0.0 else 0.0) * float(p @ T)
    g2 += float(p @ (slope - g1) ** 2)
    return g, g1, g2, p


class TestFusedEvaluation:
    """_log_wtb_in_s equals its unfused form bit for bit, so every exponent
    search evaluates the same exponents and returns the same result."""

    @staticmethod
    def check(T, m, p_e, s):
        g, g1, g2, p = _log_wtb_in_s(T, m, p_e, s)
        rg, rg1, rg2, rp = log_wtb_in_s_before_fusion(T, m, p_e, s)
        assert (g, g1, g2) == (rg, rg1, rg2)
        assert np.array_equal(p, rp)

    def test_random_terms(self):
        rng = np.random.default_rng(29)
        for _ in range(500):
            T, m, p_e = random_terms(rng)
            s = float(np.exp(rng.uniform(math.log(S_LO), math.log(3200.0))))
            self.check(T, m, p_e, s)
            self.check(T, m.astype(int), p_e, s)  # union_terms' thresholds are int

    def test_union_terms(self):
        # the trial counts and thresholds the relaxed solver searches, at
        # p_e = 0, at the low-loss corner and at S, M and L, over both ends
        # of the exponent range
        rng = np.random.default_rng(30)
        for cfg in [
            ScenarioConfig(4, 0.0, 5, 1, 1, 1),
            ScenarioConfig(5, 0.02, 6, 1, 1, 1),
            ScenarioConfig(6, 0.4, 6, 1, 3, 3),
            ScenarioConfig(10, 0.4, 10, 5, 5, 5),
            ScenarioConfig(16, 0.4, 12, 10, 10, 10),
        ]:
            c, A, m = union_terms(cfg)
            for _ in range(40):
                T = c + A @ rng.uniform(1.0, cfg.N - 1.0, size=cfg.w)
                for s in (S_LO, float(rng.uniform(0.01, 20.0)), 3200.0):
                    self.check(T, m, cfg.p_e, s)
                    self.check(T, m.astype(float), cfg.p_e, s)


class TestExponentSearch:
    """min_log_wtb's cold entry (wtb_min_s) and its warm entry (the relaxed
    solver's, from the last optimum) share one Newton loop."""

    TOL = 1e-9
    S_MAX = 50.0 * 2**6  # the upper end of both searches' range

    def test_cold_entry_unchanged(self):
        rng = np.random.default_rng(21)
        for _ in range(400):
            T, m, p_e = random_terms(rng)
            s, g = cold_search_before_warm_start(T, m, p_e)
            found = min_log_wtb(T, m, p_e)
            assert (found.s, found.log_wtb) == (s, g)

    def test_wtb_min_s_is_the_cold_entry(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            cfg, sched = random_instance(rng, max_N=6, max_w=6, max_load=9)
            c, A, m = union_terms(cfg)
            s, g = cold_search_before_warm_start(c + A @ np.array(sched.n2, float), m, cfg.p_e)
            assert wtb_min_s(cfg, sched) == (s, math.exp(g))

    def assert_warm_agrees(self, T, m, p_e, starts):
        """The warm entry from each start against the cold entry; returns
        the cold result and the warm ones."""
        cold = min_log_wtb(T, m, p_e)
        # each search stops once a Newton step or half its bracket is below
        # tol, so each lies within 2 tol of the root; where the optimum
        # lies at infinity, on a tail that log wtb reaches to rounding
        # before the range ends, any s on that tail minimizes it
        root = bisected_root(T, m, p_e)
        at_root = _log_wtb_in_s(T, m, p_e, root)[0]
        rounding = 4 * np.finfo(float).eps * max(1.0, abs(at_root))
        warms = [min_log_wtb(T, m, p_e, s0) for s0 in starts]
        for found in [cold, *warms]:
            on_tail = root == self.S_MAX and abs(found.log_wtb - at_root) <= rounding
            if not on_tail:
                assert abs(found.s - root) <= 2 * self.TOL
        for warm in warms:
            assert warm.log_wtb == pytest.approx(cold.log_wtb, rel=1e-12)
            np.testing.assert_allclose(warm.weights, cold.weights, rtol=1e-6, atol=1e-12)
        return cold, warms

    def test_warm_entry_agrees_from_either_side(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            T, m, p_e = random_terms(rng)
            s_star = min_log_wtb(T, m, p_e).s
            factors = (1e-3, 0.5, 0.999, 1.0, 1.001, 2.0, 1e3)
            self.assert_warm_agrees(T, m, p_e, [s_star * f for f in factors])

    def test_lossless_terms(self):
        # p_e = 0: log alpha = -s, every exponent is linear in s
        T, m = np.array([4.0, 6.5, 9.0]), np.array([3.0, 7.0, 2.0])
        self.assert_warm_agrees(T, m, 0.0, [1e-6, 0.01, 1.0, 40.0, 3200.0])

    def test_optimum_on_the_vacuous_plateau(self):
        # thresholds above every trial count: the bound only rises with s
        T, m = np.array([2.0, 3.0]), np.array([5.0, 5.0])
        cold, warms = self.assert_warm_agrees(T, m, 0.3, [1e-6, 1.001e-6, 0.3, 7.0, 3200.0])
        assert {cold.s, *(warm.s for warm in warms)} == {1e-6}

    def test_optimum_past_the_last_doubling(self):
        # lossless, thresholds below every trial count: the bound falls
        # for every s, so both searches end at the range's upper end
        T, m = np.array([9.7, 8.5]), np.array([8.0, 3.0])
        cold, warms = self.assert_warm_agrees(T, m, 0.0, [1e-5, 1.0, 799.0, 3199.0, 3200.0])
        assert {cold.s, *(warm.s for warm in warms)} == {self.S_MAX}

    def test_flat_tail_stops_where_the_bound_stops_falling(self):
        # a single term with threshold 0: log wtb falls toward its limit
        # for every s, by less than rounding past s of about 40, and Newton
        # steps there stay about 1 long instead of shrinking
        T, m = np.array([17.1357501]), np.array([0.0])
        cold, warms = self.assert_warm_agrees(T, m, 0.37, [30.0, 400.0, 3199.0])
        assert max(warm.evals for warm in warms) <= 12

    def test_warm_start_near_the_optimum_is_cheap(self):
        rng = np.random.default_rng(24)
        cold_evals = warm_evals = 0
        for _ in range(200):
            T, m, p_e = random_terms(rng)
            cold = min_log_wtb(T, m, p_e)
            cold_evals += cold.evals
            warm_evals += min_log_wtb(T, m, p_e, cold.s * 1.01).evals
        assert warm_evals <= cold_evals / 2


class TestRejectionBound:
    """min_log_wtb(..., above=a) stops once the tangents at its points put
    log wtb above a over the whole range; otherwise it is the search
    without `above`, bit for bit."""

    def check(self, T, m, p_e, s0, above):
        """Returns whether the search rejected."""
        full = min_log_wtb(T, m, p_e, s0)
        found = min_log_wtb(T, m, p_e, s0, above=above)
        if isinstance(found, Rejected):
            assert full.log_wtb > above
            assert found.bound > above
            # the bound lies below the minimum, up to its rounding
            assert found.bound <= full.log_wtb + 1e-12 * (1.0 + abs(full.log_wtb))
            assert found.evals <= full.evals
            return True
        assert (found.s, found.log_wtb, found.evals) == (full.s, full.log_wtb, full.evals)
        assert np.array_equal(found.weights, full.weights)
        return False

    def offsets(self, g):
        """Thresholds from far below log wtb's minimum g to above it, with
        several within min_log_wtb's margin of 1e-9 (1 + |g|)."""
        scale = 1.0 + abs(g)
        rel = (-1.0, -1e-3, -1e-6, -2e-9, -1e-9, -5e-10, -1e-12, 0.0, 1e-12, 1e-6, 1.0)
        return [g + r * scale for r in rel]

    def check_case(self, T, m, p_e, starts):
        rejected = 0
        for s0 in starts:
            g = min_log_wtb(T, m, p_e, s0).log_wtb
            for above in self.offsets(g):
                rejected += self.check(T, m, p_e, s0, above)
        return rejected

    def test_random_terms(self):
        rng = np.random.default_rng(31)
        rejected = total = 0
        for _ in range(300):
            T, m, p_e = random_terms(rng)
            s0 = None if rng.random() < 0.3 else float(np.exp(rng.uniform(-14.0, 8.0)))
            g = min_log_wtb(T, m, p_e, s0).log_wtb
            for above in [*self.offsets(g), g + float(rng.normal()) * (1.0 + abs(g))]:
                rejected += self.check(T, m, p_e, s0, above)
                total += 1
        # far enough below the minimum, the bound settles the search
        assert rejected >= total // 4

    def test_far_below_is_rejected_early(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            T, m, p_e = random_terms(rng)
            full = min_log_wtb(T, m, p_e, 1.0)
            found = min_log_wtb(T, m, p_e, 1.0, above=full.log_wtb - 1.0 - abs(full.log_wtb))
            assert isinstance(found, Rejected)
            assert found.evals <= min(full.evals, 4)

    def test_lossless_terms(self):
        T, m = np.array([4.0, 6.5, 9.0]), np.array([3.0, 7.0, 2.0])
        assert self.check_case(T, m, 0.0, [None, 1e-6, 0.01, 1.0, 40.0, 3200.0]) > 0

    def test_optimum_on_the_vacuous_plateau(self):
        T, m = np.array([2.0, 3.0]), np.array([5.0, 5.0])
        assert min_log_wtb(T, m, 0.3).s == S_LO
        assert self.check_case(T, m, 0.3, [None, 1e-6, 0.3, 7.0, 3200.0]) > 0

    def test_optimum_past_the_last_doubling(self):
        T, m = np.array([9.7, 8.5]), np.array([8.0, 3.0])
        assert min_log_wtb(T, m, 0.0).s == TestExponentSearch.S_MAX
        assert self.check_case(T, m, 0.0, [None, 1e-5, 1.0, 799.0, 3200.0]) > 0

    def test_flat_tail(self):
        # log wtb falls toward its limit for every s, flat to rounding
        # past s of about 40
        T, m = np.array([17.14]), np.array([0.0])
        assert self.check_case(T, m, 0.37, [None, 0.8, 30.0, 400.0, 3199.0]) > 0

    def test_no_incumbent_never_rejects(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            T, m, p_e = random_terms(rng)
            assert not self.check(T, m, p_e, None, math.inf)
            assert not self.check(T, m, p_e, 2.0, math.inf)


class TestEvalResult:
    def test_exact_methods_stay_in_unit_interval(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            cfg, sched = random_instance(rng)
            res = exact_dvp_chain(cfg, sched)
            assert 0.0 <= res.dvp <= 1.0 + 1e-12

    def test_chain_records_mass_residual_and_states(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            cfg, sched = random_instance(rng)
            res = exact_dvp_chain(cfg, sched)
            assert 0.0 <= res.mass_residual <= 1e-12
            assert res.states == len(backlog_states(cfg))
        assert math.isnan(dvpub(HAND_CFG, HAND_SCHED).mass_residual)

    def test_chain_statistics_stay_out_of_equality(self):
        res = exact_dvp_chain(HAND_CFG, HAND_SCHED)
        assert res == dataclasses.replace(res, mass_residual=1.0, states=0)

"""Monte Carlo estimator: correctness, reproducibility, interval behavior."""
import numpy as np
import pytest

from dvpsched import (
    PolicyLookupError,
    PolicyTable,
    ScenarioConfig,
    Schedule,
    SimResult,
    SimSpec,
    binomial_cdf,
    exact_dvp_chain,
    simulate,
    value_iteration,
    wilson_interval,
)
from dvpsched.sim import _inversion_table

HAND_CFG = ScenarioConfig(N=2, p_e=0.5, w=2, y=1, x1=0, x2=0)
HAND_SCHED = Schedule(n1=(1, 1), N=2)

GOLDEN_CFG = ScenarioConfig(N=3, p_e=0.4, w=3, y=1, x1=1, x2=1)
# simulate(GOLDEN_CFG, SimSpec(20_000, 11, policy)), recorded once; the
# stream, and so every field, must not move under refactoring
GOLDEN_STREAMS = {
    "schedule": SimResult(
        dvp_hat=0.619, ci_low=0.6122473547212111, ci_high=0.625706940697436,
        mean_departures=2.14215, replications=20000,
    ),
    "table": SimResult(
        dvp_hat=0.3474, ci_low=0.3408309734554091, ci_high=0.354027635948914,
        mean_departures=2.5838, replications=20000,
    ),
    "mw": SimResult(
        dvp_hat=0.46095, ci_low=0.45404980518159466, ci_high=0.4678651928343872,
        mean_departures=2.38465, replications=20000,
    ),
}


class TestSimulate:
    def test_lossless_schedule_never_violates(self):
        cfg = ScenarioConfig(N=2, p_e=0.0, w=2, y=1, x1=0, x2=0)
        res = simulate(cfg, SimSpec(5000, 1, Schedule(n1=(1, 1), N=2)))
        assert res.dvp_hat == 0.0
        assert res.mean_departures == pytest.approx(cfg.total_load)

    def test_dead_channel_always_violates(self):
        cfg = ScenarioConfig(N=2, p_e=1.0, w=2, y=1, x1=0, x2=0)
        res = simulate(cfg, SimSpec(2000, 1, Schedule(n1=(1, 1), N=2)))
        assert res.dvp_hat == 1.0
        assert res.mean_departures == 0.0

    def test_hand_case_bracketed_at_one_million_reps(self):
        res = simulate(HAND_CFG, SimSpec(1_000_000, 20240601, HAND_SCHED))
        assert res.ci_low <= 0.75 <= res.ci_high
        assert res.dvp_hat == pytest.approx(0.75, abs=0.002)

    def test_bit_identical_reruns(self):
        spec = SimSpec(30_000, 99, HAND_SCHED)
        assert simulate(HAND_CFG, spec) == simulate(HAND_CFG, spec)

    @pytest.mark.parametrize("kind", sorted(GOLDEN_STREAMS))
    def test_golden_stream(self, kind):
        policy = {
            "schedule": Schedule(n1=(2, 2, 1), N=3),
            "table": value_iteration(GOLDEN_CFG),
            "mw": "mw",
        }[kind]
        res = simulate(GOLDEN_CFG, SimSpec(20_000, 11, policy))
        assert res == GOLDEN_STREAMS[kind]

    def test_chunking_does_not_change_the_stream(self):
        spec = SimSpec(10_000, 7, HAND_SCHED)
        results = {simulate(HAND_CFG, spec, chunk_size=c) for c in (64, 999, 4096, 100_000)}
        assert len(results) == 1

    def test_matches_exact_for_dynamic_policies(self):
        cfg = ScenarioConfig(N=3, p_e=0.4, w=3, y=1, x1=1, x2=1)
        table = value_iteration(cfg)
        exact = exact_dvp_chain(cfg, table).dvp
        res = simulate(cfg, SimSpec(200_000, 5, table))
        assert res.ci_low <= exact <= res.ci_high
        for baseline in ("mw", "wfq", "bp", "fifty"):
            exact_b = exact_dvp_chain(cfg, baseline).dvp
            res_b = simulate(cfg, SimSpec(200_000, 5, baseline))
            assert res_b.ci_low <= exact_b <= res_b.ci_high

    def test_interval_coverage(self):
        # the 95% interval should cover the exact value in >= 93 of 100 runs
        exact = 0.75
        covered = 0
        for seed in range(100):
            res = simulate(HAND_CFG, SimSpec(4000, seed, HAND_SCHED))
            if res.ci_low <= exact <= res.ci_high:
                covered += 1
        assert covered >= 93

    def test_error_shrinks_like_root_n(self):
        # sample std across seeds should fall by ~1/sqrt(4) per 4x step
        stds = []
        for reps in (500, 2000, 8000):
            vals = [
                simulate(HAND_CFG, SimSpec(reps, 1000 + s, HAND_SCHED)).dvp_hat
                for s in range(40)
            ]
            stds.append(np.std(vals))
        slope = np.polyfit(np.log([500, 2000, 8000]), np.log(stds), 1)[0]
        assert -0.65 <= slope <= -0.35

    def test_truncated_table_raises_named_state(self):
        cfg = ScenarioConfig(N=2, p_e=0.5, w=2, y=1, x1=0, x2=0)
        text = value_iteration(cfg).to_text()
        # drop every epoch-1 row with q1 == 1 (reachable when frame 0 fails)
        kept = [ln for ln in text.splitlines() if not ln.startswith("1 1")]
        table = PolicyTable.from_text("\n".join(kept))
        with pytest.raises(PolicyLookupError, match="epoch=1"):
            simulate(cfg, SimSpec(1000, 3, table))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SimSpec(0, 1, HAND_SCHED)
        with pytest.raises(ValueError):
            SimSpec(10, -1, HAND_SCHED)
        with pytest.raises(ValueError):
            simulate(HAND_CFG, SimSpec(10, 1, "round-robin"))
        with pytest.raises(TypeError):
            simulate(HAND_CFG, SimSpec(10, 1, 3.14))


class TestWilson:
    def test_contains_point_estimate(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(1, 10_000))
            k = int(rng.integers(0, n + 1))
            lo, hi = wilson_interval(k, n)
            assert 0.0 <= lo <= k / n <= hi <= 1.0

    def test_degenerate_counts(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0 and hi > 0.0
        lo, hi = wilson_interval(100, 100)
        assert hi == 1.0 and lo < 1.0


class TestInversionSampling:
    @pytest.mark.parametrize("N", [1, 2, 7, 20])
    @pytest.mark.parametrize("p_e", [0.0, 0.05, 0.4, 0.77, 1.0])
    def test_table_is_binomial_cdf(self, N, p_e):
        q = 1.0 - p_e
        cdf = _inversion_table(N, q)
        assert cdf.shape == (N + 1, N)
        for a in range(N + 1):
            for r in range(N):
                # ==, not approx: the table keeps the sampled streams fixed
                assert cdf[a, r] == (binomial_cdf(a, q, r) if r < a else 1.0)

    def test_support_and_mean(self):
        # drawn service stays within the slot count and matches the
        # binomial mean to within three standard errors
        N, q = 5, 0.7
        cdf = _inversion_table(N, q)
        rng = np.random.default_rng(123)
        u = rng.random(200_000)
        for n in range(N + 1):
            s = (u[:, None] >= cdf[n]).sum(axis=1)
            assert s.min() >= 0 and s.max() <= n
            if n > 0:
                se = np.sqrt(n * q * (1 - q) / len(u))
                assert abs(s.mean() - n * q) <= 3 * se

    def test_pmf_recovered(self):
        from dvpsched import binomial_pmf

        N, q = 4, 0.35
        cdf = _inversion_table(N, q)
        rng = np.random.default_rng(7)
        u = rng.random(400_000)
        s = (u[:, None] >= cdf[N]).sum(axis=1)
        for r in range(N + 1):
            frac = (s == r).mean()
            se = np.sqrt(binomial_pmf(N, q, r) / len(u))
            assert abs(frac - binomial_pmf(N, q, r)) <= 4 * se + 1e-9

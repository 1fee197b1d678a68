"""Core model: binomial numerics, queue stepping, scenario and schedule checks."""
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvpsched import ScenarioConfig, Schedule, binomial_pmf, binomial_pmf_table
from dvpsched.model import binomial_cdf_table
from dvpsched.oracles import QueueState, binomial_cdf, step_queues


def exact_binomial_cdf(n: int, p: Fraction, r: int) -> Fraction:
    """Independent oracle: exact rational partial sum of the pmf."""
    total = Fraction(0)
    for j in range(r + 1):
        c = Fraction(1)
        for i in range(j):
            c = c * (n - i) / (i + 1)
        total += c * p**j * (1 - p) ** (n - j)
    return total


class TestBinomialPmf:
    def test_fair_coin(self):
        assert binomial_pmf(2, 0.5, 1) == pytest.approx(0.5, abs=1e-15)

    def test_certain_success(self):
        assert binomial_pmf(4, 1.0, 4) == 1.0

    def test_hand_expanded(self):
        # 3 * 0.8^2 * 0.2
        assert binomial_pmf(3, 0.8, 2) == pytest.approx(0.384, abs=1e-15)

    @pytest.mark.parametrize("n,p", [(0, 0.3), (1, 0.5), (7, 0.2), (40, 0.9), (200, 0.33)])
    def test_sums_to_one(self, n, p):
        assert sum(binomial_pmf(n, p, r) for r in range(n + 1)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            binomial_pmf(3, 0.5, 4)
        with pytest.raises(ValueError):
            binomial_pmf(3, 0.5, -1)
        with pytest.raises(ValueError):
            binomial_pmf(3, 1.5, 2)

    def test_matches_exact_rational(self):
        p = Fraction(3, 10)
        for n in (1, 5, 23):
            for r in range(n + 1):
                want = p**r * (1 - p) ** (n - r)
                c = Fraction(1)
                for i in range(r):
                    c = c * (n - i) / (i + 1)
                assert binomial_pmf(n, 0.3, r) == pytest.approx(
                    float(c * want), rel=1e-12
                )


class TestBinomialPmfTable:
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.95, 1.0])
    def test_entries_are_binomial_pmf(self, p):
        table = binomial_pmf_table(5, p)
        assert table.shape == (6, 6)
        for n in range(6):
            for r in range(6):
                assert table[n, r] == (binomial_pmf(n, p, r) if r <= n else 0.0)


class TestBinomialCdf:
    def test_full_support(self):
        assert binomial_cdf(2, 0.5, 2) == 1.0

    def test_both_failures(self):
        assert binomial_cdf(2, 0.5, 0) == pytest.approx(0.25, abs=1e-15)

    def test_partial_sum_against_rational_oracle(self):
        # frozen from the exact rational oracle: P{Bin(5, 0.6) <= 2}
        assert float(exact_binomial_cdf(5, Fraction(3, 5), 2)) == 0.31744
        assert binomial_cdf(5, 0.6, 2) == pytest.approx(0.31744, abs=1e-12)

    @pytest.mark.parametrize("n,p", [(4, 0.3), (9, 0.77)])
    def test_monotone_and_complete(self, n, p):
        vals = [binomial_cdf(n, p, r) for r in range(n + 1)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(1.0, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            binomial_cdf(2, 0.5, 3)
        with pytest.raises(ValueError):
            binomial_cdf(2, 0.5, -1)


class TestBinomialCdfTable:
    # n_max = w * N for the largest semi-static benchmark scenario (N = w = 6),
    # on test_sim.py's inversion-table p_e grid, both ends included
    @pytest.mark.parametrize("p_e", [0.0, 0.05, 0.4, 0.77, 1.0])
    def test_entries_are_binomial_cdf(self, p_e):
        q = 1.0 - p_e
        n_max = 36
        cdf = binomial_cdf_table(n_max, q)
        assert cdf.shape == (n_max + 1, n_max + 1)
        for n in range(n_max + 1):
            for r in range(n_max + 1):
                # ==, not approx: dvpub's sums, and so e-dvpub's argmin, read it
                assert cdf[n, r] == (binomial_cdf(n, q, r) if r < n else 1.0)

    def test_cached_and_read_only(self):
        cdf = binomial_cdf_table(4, 0.8)
        assert binomial_cdf_table(4, 0.8) is cdf
        with pytest.raises(ValueError):
            cdf[1, 0] = 0.5


class TestStepQueues:
    def test_relay_into_empty_second_queue(self):
        assert step_queues(QueueState(1, 0), 1, 1) == (QueueState(0, 1), 0)

    def test_empty_system_absorbs_service(self):
        assert step_queues(QueueState(0, 0), 3, 3) == (QueueState(0, 0), 0)

    def test_partial_drain_with_relay(self):
        assert step_queues(QueueState(2, 2), 1, 3) == (QueueState(1, 1), 2)

    def test_negative_service_rejected(self):
        with pytest.raises(ValueError):
            step_queues(QueueState(1, 1), -1, 0)

    @given(
        q1=st.integers(0, 20),
        q2=st.integers(0, 20),
        s1=st.integers(0, 25),
        s2=st.integers(0, 25),
    )
    def test_conserves_packets(self, q1, q2, s1, s2):
        nxt, d2 = step_queues(QueueState(q1, q2), s1, s2)
        assert nxt.q1 + nxt.q2 == q1 + q2 - d2
        assert 0 <= d2 <= min(q2, s2)
        assert nxt.q1 >= 0 and nxt.q2 >= 0

    @settings(max_examples=50)
    @given(st.integers(0, 2**32 - 1))
    def test_trace_identity_total_departures(self, seed):
        # over any w-frame run, total departures equal what left the system
        rng = np.random.default_rng(seed)
        y, x1, x2 = rng.integers(1, 4), rng.integers(0, 3), rng.integers(0, 3)
        w, N = rng.integers(1, 7), rng.integers(1, 5)
        state = QueueState(int(y + x1), int(x2))
        total_d2 = 0
        for _ in range(w):
            n1 = int(rng.integers(0, N + 1))
            s1 = int(rng.binomial(n1, 0.6))
            s2 = int(rng.binomial(N - n1, 0.6))
            state, d2 = step_queues(state, s1, s2)
            total_d2 += d2
        assert total_d2 == int(y + x1 + x2) - state.q1 - state.q2


class TestConfigAndSchedule:
    def test_load_accessors(self):
        cfg = ScenarioConfig(N=4, p_e=0.2, w=3, y=2, x1=1, x2=3)
        assert cfg.total_load == 6
        assert cfg.first_hop_load == 3
        assert cfg.q1_max == 3 and cfg.q2_max == 6

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(N=0, p_e=0.2, w=3, y=1, x1=0, x2=0),
            dict(N=2, p_e=0.2, w=0, y=1, x1=0, x2=0),
            dict(N=2, p_e=0.2, w=3, y=0, x1=0, x2=0),
            dict(N=2, p_e=0.2, w=3, y=1, x1=-1, x2=0),
            dict(N=2, p_e=1.2, w=3, y=1, x1=0, x2=0),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ScenarioConfig(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [("N", 2.5), ("w", 2.0), ("N", True), ("y", "1"), ("x1", 0.0), ("x2", False)],
    )
    def test_non_integer_counts_rejected(self, field, value):
        kwargs = dict(N=2, p_e=0.2, w=3, y=1, x1=0, x2=0)
        kwargs[field] = value
        with pytest.raises(TypeError, match=f"^{field} must be an integer, got {value!r}$"):
            ScenarioConfig(**kwargs)

    @pytest.mark.parametrize("value", [True, False, "0.5", None, 0.5j])
    def test_non_real_pe_rejected(self, value):
        kwargs = dict(N=2, p_e=value, w=3, y=1, x1=0, x2=0)
        message = f"^p_e must be a real number, got {re.escape(repr(value))}$"
        with pytest.raises(TypeError, match=message):
            ScenarioConfig(**kwargs)

    @pytest.mark.parametrize("value", [np.float64(0.25), np.float32(0.25), 0, np.int64(1)])
    def test_real_pe_becomes_float(self, value):
        cfg = ScenarioConfig(N=2, p_e=value, w=3, y=1, x1=0, x2=0)
        assert type(cfg.p_e) is float and cfg.p_e == float(value)

    def test_numpy_integer_counts_become_ints(self):
        cfg = ScenarioConfig(N=np.int64(4), p_e=0.2, w=np.int32(3), y=1, x1=np.uint8(1), x2=0)
        assert cfg == ScenarioConfig(N=4, p_e=0.2, w=3, y=1, x1=1, x2=0)
        assert all(type(getattr(cfg, f)) is int for f in ("N", "w", "y", "x1", "x2"))

    def test_schedule_bounds(self):
        with pytest.raises(ValueError):
            Schedule(n1=(3,), N=2)
        assert Schedule(n1=(1, 2), N=3).n2 == (2, 1)

    @pytest.mark.parametrize(
        "n1, N, name",
        [
            ((1.7, 1), 2, "n1[0]"),
            ((True, 1), 2, "n1[0]"),
            (("1", 1), 2, "n1[0]"),
            ((1, np.float64(1.0)), 2, "n1[1]"),
            ((1, 1), 2.5, "N"),
            ((1, 1), True, "N"),
            ((1, 1), "2", "N"),
        ],
        ids=["float", "bool", "str", "numpy-float", "N-float", "N-bool", "N-str"],
    )
    def test_schedule_non_integer_counts_rejected(self, n1, N, name):
        with pytest.raises(TypeError, match=f"^{re.escape(name)} must be an integer, got "):
            Schedule(n1=n1, N=N)

    def test_schedule_numpy_integers_become_ints(self):
        schedule = Schedule(n1=(np.int64(1), np.uint8(2)), N=np.int32(3))
        assert schedule == Schedule(n1=(1, 2), N=3)
        assert type(schedule.N) is int and all(type(v) is int for v in schedule.n1)

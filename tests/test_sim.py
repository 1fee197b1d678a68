"""Monte Carlo estimator: correctness, reproducibility, interval behavior."""
import dataclasses
import tracemalloc

import numpy as np
import pytest

from dvpsched import (
    PolicyTable,
    ScenarioConfig,
    Schedule,
    SimResult,
    exact_dvp_chain,
    simulate_policies,
    value_iteration,
    wilson_interval,
)
from dvpsched import model, sim
from dvpsched.mdp import baseline_actions
from dvpsched.model import CapExceededError, backlog_states
from dvpsched.oracles import QueueState, binomial_cdf, step_queues
from dvpsched.semistatic import even_split
from dvpsched.sim import (
    CHUNK,
    GUIDE_BITS,
    Cells,
    Moves,
    _inversion_table,
)

HAND_CFG = ScenarioConfig(N=2, p_e=0.5, w=2, y=1, x1=0, x2=0)
HAND_SCHED = Schedule(n1=(1, 1), N=2)

GOLDEN_CFG = ScenarioConfig(N=3, p_e=0.4, w=3, y=1, x1=1, x2=1)
# simulate_policies(GOLDEN_CFG, [policy], 20_000, 11), recorded once; the
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

# the benchmark's three Monte Carlo scenarios (N, p_e, w, y, x1, x2) under
# each dynamic policy, simulate_policies(cfg, [policy], 50_000, 1) recorded
# before draws went through the guide table; "mdp" is value_iteration's table
GOLDEN_BENCH_SCALE = {
    ((6, 0.4, 6, 1, 3, 3), "mdp"): SimResult(
        dvp_hat=0.00012, ci_low=5.4998199932506644e-05,
        ci_high=0.00026180663662669906, mean_departures=6.99988,
        replications=50000,
    ),
    ((6, 0.4, 6, 1, 3, 3), "mw"): SimResult(
        dvp_hat=0.00128, ci_low=0.0010025985065716702,
        ci_high=0.0016340280999915192, mean_departures=6.99856,
        replications=50000,
    ),
    ((6, 0.4, 6, 1, 3, 3), "wfq"): SimResult(
        dvp_hat=0.00052, ci_low=0.0003549024872305227,
        ci_high=0.0007618408907093669, mean_departures=6.99946,
        replications=50000,
    ),
    ((6, 0.4, 6, 1, 3, 3), "bp"): SimResult(
        dvp_hat=0.01234, ci_low=0.011409112246613602,
        ci_high=0.0133458150291255, mean_departures=6.98742,
        replications=50000,
    ),
    ((6, 0.4, 6, 1, 3, 3), "fifty"): SimResult(
        dvp_hat=0.0262, ci_low=0.02483591320444472,
        ci_high=0.027636884530135082, mean_departures=6.96592,
        replications=50000,
    ),
    ((6, 0.3, 4, 1, 2, 2), "mdp"): SimResult(
        dvp_hat=0.00022, ci_low=0.00012285301612294255,
        ci_high=0.0003939364557814342, mean_departures=4.99978,
        replications=50000,
    ),
    ((6, 0.3, 4, 1, 2, 2), "mw"): SimResult(
        dvp_hat=0.00508, ci_low=0.004493741529370347,
        ci_high=0.00574230122030934, mean_departures=4.99472,
        replications=50000,
    ),
    ((6, 0.3, 4, 1, 2, 2), "wfq"): SimResult(
        dvp_hat=0.001, ci_low=0.0007586635624695673,
        ci_high=0.0013180060651271433, mean_departures=4.99898,
        replications=50000,
    ),
    ((6, 0.3, 4, 1, 2, 2), "bp"): SimResult(
        dvp_hat=0.06188, ci_low=0.05980159947780508,
        ci_high=0.06402571614793173, mean_departures=4.93776,
        replications=50000,
    ),
    ((6, 0.3, 4, 1, 2, 2), "fifty"): SimResult(
        dvp_hat=0.0207, ci_low=0.01948835049647194,
        ci_high=0.02198529229412345, mean_departures=4.97594,
        replications=50000,
    ),
    ((10, 0.5, 8, 5, 5, 5), "mdp"): SimResult(
        dvp_hat=0.00028, ci_low=0.0001668041917435913,
        ci_high=0.00046997606136788797, mean_departures=14.9996,
        replications=50000,
    ),
    ((10, 0.5, 8, 5, 5, 5), "mw"): SimResult(
        dvp_hat=0.00516, ci_low=0.004568882662300291,
        ci_high=0.005827147795655532, mean_departures=14.99384,
        replications=50000,
    ),
    ((10, 0.5, 8, 5, 5, 5), "wfq"): SimResult(
        dvp_hat=0.00194, ci_low=0.0015906906113567054,
        ci_high=0.0023658345884846124, mean_departures=14.99794,
        replications=50000,
    ),
    ((10, 0.5, 8, 5, 5, 5), "bp"): SimResult(
        dvp_hat=0.01724, ci_low=0.01613560769118401,
        ci_high=0.018418566716468465, mean_departures=14.98022,
        replications=50000,
    ),
    ((10, 0.5, 8, 5, 5, 5), "fifty"): SimResult(
        dvp_hat=0.04788, ci_low=0.0460429994246275,
        ci_high=0.04978646725278536, mean_departures=14.91672,
        replications=50000,
    ),
}
M_SIZE = (10, 0.5, 8, 5, 5, 5)
# simulate_policies(N20_CFG, [policy], 20_000, 3), recorded before the draw
# cells lost their guide-bucket edges; at N = 20 the most draws fall in a
# bucket that holds a threshold
N20_CFG = ScenarioConfig(20, 0.4, 4, 10, 5, 5)
GOLDEN_N20 = {
    "mw": SimResult(
        dvp_hat=0.5133, ci_low=0.5063710434421456, ci_high=0.520223848398762,
        mean_departures=18.7805, replications=20000,
    ),
    "even split": SimResult(
        dvp_hat=0.26465, ci_low=0.2585817472299695, ci_high=0.27080864414163897,
        mean_departures=19.46695, replications=20000,
    ),
    "mdp": SimResult(
        dvp_hat=0.00355, ci_low=0.0028156394428322743, ci_high=0.004475033157274009,
        mean_departures=19.99445, replications=20000,
    ),
}


class TestSimulate:
    def test_lossless_schedule_never_violates(self):
        cfg = ScenarioConfig(N=2, p_e=0.0, w=2, y=1, x1=0, x2=0)
        [res] = simulate_policies(cfg, [Schedule(n1=(1, 1), N=2)], 5000, 1)
        assert res.dvp_hat == 0.0
        assert res.mean_departures == pytest.approx(cfg.total_load)

    def test_dead_channel_always_violates(self):
        cfg = ScenarioConfig(N=2, p_e=1.0, w=2, y=1, x1=0, x2=0)
        [res] = simulate_policies(cfg, [Schedule(n1=(1, 1), N=2)], 2000, 1)
        assert res.dvp_hat == 1.0
        assert res.mean_departures == 0.0

    def test_hand_case_bracketed_at_one_million_reps(self):
        [res] = simulate_policies(HAND_CFG, [HAND_SCHED], 1_000_000, 20240601)
        assert res.ci_low <= 0.75 <= res.ci_high
        assert res.dvp_hat == pytest.approx(0.75, abs=0.002)

    def test_bit_identical_reruns(self):
        run = lambda: simulate_policies(HAND_CFG, [HAND_SCHED], 30_000, 99)
        assert run() == run()

    @pytest.mark.parametrize("kind", sorted(GOLDEN_STREAMS))
    def test_golden_stream(self, kind):
        policy = {
            "schedule": Schedule(n1=(2, 2, 1), N=3),
            "table": value_iteration(GOLDEN_CFG),
            "mw": "mw",
        }[kind]
        [res] = simulate_policies(GOLDEN_CFG, [policy], 20_000, 11)
        assert res == GOLDEN_STREAMS[kind]

    @pytest.mark.parametrize("cell", sorted(GOLDEN_BENCH_SCALE), ids=str)
    def test_golden_stream_at_bench_scale(self, cell):
        scenario, name = cell
        cfg = ScenarioConfig(*scenario)
        policy = value_iteration(cfg) if name == "mdp" else name
        [res] = simulate_policies(cfg, [policy], 50_000, 1)
        assert res == GOLDEN_BENCH_SCALE[cell]

    @pytest.mark.parametrize("name", sorted(GOLDEN_N20))
    def test_golden_stream_at_n20(self, name):
        policy = {
            "mw": "mw", "even split": even_split(N20_CFG), "mdp": value_iteration(N20_CFG)
        }[name]
        assert simulate_policies(N20_CFG, [policy], 20_000, 3) == [GOLDEN_N20[name]]

    def test_chunking_does_not_change_the_padded_stream(self, monkeypatch):
        # 2w = 10 words per replication fill 3 Philox blocks of 4, so each
        # replication's row ends in 2 unused words
        cfg = ScenarioConfig(N=5, p_e=0.35, w=5, y=2, x1=1, x2=2)
        table = value_iteration(cfg)
        results = []
        for chunk in (1, 3, CHUNK):
            monkeypatch.setattr(sim, "CHUNK", chunk)
            results += simulate_policies(cfg, [table], 2000, 5)
        assert results[0] == results[1] == results[2]

    def test_chunking_does_not_change_the_bench_scale_stream(self, monkeypatch):
        cfg = ScenarioConfig(*M_SIZE)
        table = value_iteration(cfg)
        for chunk in (64, CHUNK, 100_000):
            monkeypatch.setattr(sim, "CHUNK", chunk)
            [res] = simulate_policies(cfg, [table], 50_000, 1)
            assert res == GOLDEN_BENCH_SCALE[(M_SIZE, "mdp")]

    def test_chunking_does_not_change_the_stream(self, monkeypatch):
        results = set()
        for chunk in (64, 999, 4096, 100_000):
            monkeypatch.setattr(sim, "CHUNK", chunk)
            results.update(simulate_policies(HAND_CFG, [HAND_SCHED], 10_000, 7))
        assert len(results) == 1

    def test_matches_exact_for_dynamic_policies(self):
        cfg = ScenarioConfig(N=3, p_e=0.4, w=3, y=1, x1=1, x2=1)
        table = value_iteration(cfg)
        exact = exact_dvp_chain(cfg, table).dvp
        [res] = simulate_policies(cfg, [table], 200_000, 5)
        assert res.ci_low <= exact <= res.ci_high
        for baseline in ("mw", "wfq", "bp", "fifty"):
            exact_b = exact_dvp_chain(cfg, baseline).dvp
            [res_b] = simulate_policies(cfg, [baseline], 200_000, 5)
            assert res_b.ci_low <= exact_b <= res_b.ci_high

    def test_interval_coverage(self):
        # the 95% interval should cover the exact value in >= 93 of 100 runs
        exact = 0.75
        covered = 0
        for seed in range(100):
            [res] = simulate_policies(HAND_CFG, [HAND_SCHED], 4000, seed)
            if res.ci_low <= exact <= res.ci_high:
                covered += 1
        assert covered >= 93

    def test_error_shrinks_like_root_n(self):
        # sample std across seeds should fall by ~1/sqrt(4) per 4x step
        stds = []
        for reps in (500, 2000, 8000):
            vals = [
                simulate_policies(HAND_CFG, [HAND_SCHED], reps, 1000 + s)[0].dvp_hat
                for s in range(40)
            ]
            stds.append(np.std(vals))
        slope = np.polyfit(np.log([500, 2000, 8000]), np.log(stds), 1)[0]
        assert -0.65 <= slope <= -0.35

    def test_truncated_table_raises_named_state(self):
        cfg = ScenarioConfig(N=2, p_e=0.5, w=2, y=1, x1=0, x2=0)
        text = value_iteration(cfg).to_text()
        # drop every epoch-1 row with q1 == 1 (reachable when frame 0 fails)
        kept = "\n".join(ln for ln in text.splitlines() if not ln.startswith("1 1"))
        with pytest.raises(ValueError, match=r"^no action stored for epoch=1 state=\(1,0\)$"):
            simulate_policies(cfg, ["mw", PolicyTable.from_text(kept)], 1000, 3)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            simulate_policies(HAND_CFG, [HAND_SCHED], 0, 1)
        with pytest.raises(ValueError):
            simulate_policies(HAND_CFG, [HAND_SCHED], 10, -1)
        with pytest.raises(ValueError):
            simulate_policies(HAND_CFG, ["round-robin"], 10, 1)
        with pytest.raises(TypeError):
            simulate_policies(HAND_CFG, [3.14], 10, 1)

    @pytest.mark.parametrize(
        "replications, seed", [(True, 1), (2.5, 1), (10.0, 1), (10, True), (10, 1.5)]
    )
    def test_spec_rejects_non_integer_counts(self, replications, seed):
        with pytest.raises(TypeError, match="must be an integer"):
            simulate_policies(HAND_CFG, [HAND_SCHED], replications, seed)

    def test_numpy_integer_counts_accepted(self):
        got = simulate_policies(HAND_CFG, [HAND_SCHED], np.int64(3000), np.uint64(4))
        assert got == simulate_policies(HAND_CFG, [HAND_SCHED], 3000, 4)

    def test_run_statistics_stay_out_of_equality(self):
        [res] = simulate_policies(GOLDEN_CFG, ["mw"], 20_000, 11)
        assert res.wall_s > 0.0
        assert res == dataclasses.replace(res, wall_s=0.0)
        assert res == GOLDEN_STREAMS["mw"]


    @pytest.mark.parametrize("policy, bound_mb", [("mw", 57.0), ("even split", 44.2)])
    def test_memory_stays_below_the_next_state_parts(self, policy, bound_mb):
        # 361 201 states; the bounds are the traced peaks of an earlier
        # sampler that moved states through two S x (N + 1) next-state parts
        cfg = ScenarioConfig(4, 0.4, 5, 300, 300, 300)
        if policy == "even split":
            policy = even_split(cfg)
        model._backlog_states.cache_clear()  # count the domain's arrays too
        tracemalloc.start()
        try:
            simulate_policies(cfg, [policy], 20_000, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mb * 1e6

def bench_policies(cfg):
    """The benchmark's five dynamic policies by name; "mdp" is
    value_iteration's table."""
    return {
        "mdp": value_iteration(cfg), "mw": "mw", "wfq": "wfq", "bp": "bp", "fifty": "fifty"
    }


def sampled_counts(config, policy, replications, seed):
    """Violations and departures of replications 0..replications - 1, one
    at a time in pure Python: replication r reads 2w words from
    Philox(key=seed, counter=r * blocks), frame k's service counts are the
    thresholds of the inversion table that the uniforms of words k and
    w + k reach, and oracles.step_queues moves the queues."""
    N, w = config.N, config.w
    cdf = _inversion_table(N, 1.0 - config.p_e).tolist()
    blocks = -(-2 * w // 4)
    if isinstance(policy, Schedule):
        act = lambda k, q1, q2: policy.n1[k]
    elif isinstance(policy, PolicyTable):
        act = policy.action
    elif isinstance(policy, str):
        act = lambda k, q1, q2: int(baseline_actions(policy, [q1], [q2], N)[0])
    else:
        act = policy
    violations = departed = 0
    for r in range(replications):
        words = np.random.Philox(key=seed, counter=r * blocks).random_raw(2 * w)
        u = [(int(word) >> 11) * 2.0**-53 for word in words]
        state = QueueState(config.first_hop_load, config.x2)
        for k in range(w):
            a = act(k, *state)
            s1 = sum(t <= u[k] for t in cdf[a])
            s2 = sum(t <= u[w + k] for t in cdf[N - a])
            state, d2 = step_queues(state, s1, s2)
            departed += d2
        violations += state.q1 + state.q2 > 0
    return violations, departed


PADDED_CFG = ScenarioConfig(N=5, p_e=0.35, w=5, y=2, x1=1, x2=2)


class TestSimulatePolicies:
    @pytest.mark.parametrize(
        "scenario", sorted({sc for sc, _ in GOLDEN_BENCH_SCALE}), ids=str
    )
    def test_joint_run_gives_each_golden_stream(self, scenario):
        cfg = ScenarioConfig(*scenario)
        policies = bench_policies(cfg)
        results = simulate_policies(cfg, list(policies.values()), 50_000, 1)
        for name, res in zip(policies, results):
            assert res == GOLDEN_BENCH_SCALE[(scenario, name)], name
        # one call, one wall time
        assert len({r.wall_s for r in results}) == 1 and results[0].wall_s > 0.0

    def test_results_do_not_depend_on_the_other_policies(self):
        cfg = ScenarioConfig(*M_SIZE)
        policies = list(bench_policies(cfg).values())
        solo = [simulate_policies(cfg, [p], 20_000, 3)[0] for p in policies]
        assert simulate_policies(cfg, policies, 20_000, 3) == solo
        assert simulate_policies(cfg, policies[::-1], 20_000, 3) == solo[::-1]
        for subset in ([1], [4, 0], [0, 2, 3]):
            got = simulate_policies(cfg, [policies[i] for i in subset], 20_000, 3)
            assert got == [solo[i] for i in subset]
        got = simulate_policies(cfg, [policies[2], policies[0], policies[2]], 20_000, 3)
        assert got == [solo[2], solo[0], solo[2]]

    def test_chunking_does_not_change_a_joint_run(self, monkeypatch):
        # 2w = 10 words per replication fill 3 Philox blocks of 4
        N = PADDED_CFG.N
        policies = [
            Schedule(n1=(3, 2, 2, 1, 4), N=N),
            lambda epoch, q1, q2: min(N, q1 + epoch % 2),
            value_iteration(PADDED_CFG),
            "bp",
        ]
        solo = [simulate_policies(PADDED_CFG, [p], 600, 5)[0] for p in policies]
        for chunk in (1, 3, CHUNK):
            monkeypatch.setattr(sim, "CHUNK", chunk)
            assert simulate_policies(PADDED_CFG, policies, 600, 5) == solo

    def test_partial_table_raises_named_state(self, monkeypatch):
        # a table lacking only epoch 2's row for (2,1), which a run reaches
        # with probability 6.4e-5, is refused alike by both evaluators and
        # for every seed, when parsed and so before any draw
        cfg = ScenarioConfig(N=3, p_e=0.2, w=3, y=1, x1=1, x2=1)
        lines = value_iteration(cfg).to_text().splitlines()
        text = "\n".join(ln for ln in lines if not ln.startswith("2 2 1 "))

        def no_draws(*args, **kwargs):
            raise AssertionError("drew before checking every policy")

        monkeypatch.setattr(np.random, "Philox", no_draws)
        runs = [lambda: exact_dvp_chain(cfg, PolicyTable.from_text(text))]
        runs += [
            lambda seed=seed: simulate_policies(cfg, ["mw", PolicyTable.from_text(text)], 1000, seed)
            for seed in range(6)
        ]
        for run in runs:
            with pytest.raises(ValueError) as exc:
                run()
            assert str(exc.value) == "no action stored for epoch=2 state=(2,1)"

    @pytest.mark.parametrize(
        "bad, error",
        [
            ("round-robin", ValueError),
            (Schedule(n1=(1, 1, 1), N=2), ValueError),
            (Schedule(n1=(1, 1), N=3), ValueError),
            (3.14, TypeError),
            pytest.param(  # bad only at (0,0) in frame 0, which no run reaches
                lambda epoch, q1, q2: 7 if (epoch, q1, q2) == (0, 0, 0) else 1, ValueError,
                id="callable-bad-where-unreached",
            ),
        ],
    )
    def test_invalid_policy_raises_before_any_draw(self, monkeypatch, bad, error):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew before checking every policy")

        monkeypatch.setattr(np.random, "Philox", no_draws)
        with pytest.raises(error):
            simulate_policies(HAND_CFG, [HAND_SCHED, "mw", bad], 1000, 1)

    def test_counts_checked_as_for_a_spec(self):
        with pytest.raises(ValueError, match="replications must be >= 1"):
            simulate_policies(HAND_CFG, [HAND_SCHED], 0, 1)
        with pytest.raises(ValueError, match="seed must fit in 64 bits"):
            simulate_policies(HAND_CFG, [HAND_SCHED], 10, -1)
        with pytest.raises(TypeError, match="must be an integer"):
            simulate_policies(HAND_CFG, [HAND_SCHED], 10.0, 1)

    def test_no_policies_no_results(self):
        assert simulate_policies(HAND_CFG, [], 1000, 1) == []

    def test_move_table_over_budget_refused_before_it_is_made(self, monkeypatch):
        cfg = ScenarioConfig(N=20, p_e=0.4, w=2, y=10, x1=10, x2=10)
        cells = Cells.of(_inversion_table(cfg.N, 1.0 - cfg.p_e))
        nbytes = 8 * (cfg.N + 1) * (cfg.first_hop_load + cfg.N + 2) * len(cells.cuts)
        assert Moves.of(cfg, cells).table.nbytes == nbytes

        def no_draws(*args, **kwargs):
            raise AssertionError("drew past the move table's budget")

        monkeypatch.setattr(np.random, "Philox", no_draws)
        monkeypatch.setattr(sim, "MOVES_BYTE_CAP", nbytes - 1)
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError) as exc:
                simulate_policies(cfg, ["mw"], 1000, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (exc.value.estimate, exc.value.cap) == (nbytes, nbytes - 1)
        assert str(exc.value) == (
            f"Monte Carlo move table needs {nbytes} bytes (21 actions, 21 first-queue "
            f"backlogs, {len(cells.cuts)} draw cells), cap is {nbytes - 1}"
        )
        assert peak < nbytes / 2
        monkeypatch.setattr(sim, "MOVES_BYTE_CAP", nbytes)  # at the cap it is made
        assert Moves.of(cfg, cells).table.nbytes == nbytes

    @pytest.mark.parametrize(
        "scenario",
        [
            (4, 0.3, 1, 1, 1, 1),  # the first frame is the last
            (5, 0.35, 2, 2, 1, 2),  # no middle frame
            (4, 0.3, 3, 2, 1, 1),
            (5, 0.35, 5, 2, 1, 2),  # 2w = 10 words pad 3 blocks of 4
        ],
        ids=str,
    )
    def test_counts_equal_a_per_replication_sampler(self, monkeypatch, scenario):
        cfg = ScenarioConfig(*scenario)
        N, w = cfg.N, cfg.w
        policies = [
            Schedule(n1=tuple((3 * k + 1) % N + 1 for k in range(w)), N=N),
            value_iteration(cfg),
            "bp",
            lambda epoch, q1, q2: min(N, q1 + epoch % 2),
        ]
        monkeypatch.setattr(sim, "CHUNK", 3)
        results = simulate_policies(cfg, policies, 301, 17)
        for policy, res in zip(policies, results):
            v, d = sampled_counts(cfg, policy, 301, 17)
            assert (res.dvp_hat, res.mean_departures) == (v / 301, d / 301), policy

    def test_searched_draws_counted_from_the_raw_words(self, monkeypatch):
        # the draws whose guide bucket, a word's top GUIDE_BITS bits, holds
        # a threshold strictly inside it, at S
        cfg = ScenarioConfig(6, 0.4, 6, 1, 3, 3)
        buckets = 1 << GUIDE_BITS
        edges = np.arange(buckets) / buckets
        thresholds = np.unique(_inversion_table(cfg.N, 1.0 - cfg.p_e))
        cut = ((thresholds > edges[:, None]) & (thresholds < edges[:, None] + 1 / buckets)).any(axis=1)
        words = np.random.Philox(key=4).random_raw(20_000 * 12).reshape(20_000, 12)
        want = int(cut[words >> (64 - GUIDE_BITS)].sum())
        assert want > 0
        results = simulate_policies(cfg, ["mw", "bp"], 20_000, 4)
        assert [r.searched_draws for r in results] == [want, want]
        monkeypatch.setattr(sim, "CHUNK", 999)
        [res] = simulate_policies(cfg, ["mw"], 20_000, 4)
        assert res.searched_draws == want
        assert res == dataclasses.replace(res, searched_draws=0) == results[0]


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

    @pytest.mark.parametrize("p_e", [0.0, 0.05, 0.4, 0.77, 1.0])
    def test_cells_are_the_thresholds(self, p_e):
        # the cells are cut exactly at the thresholds, and their guide
        # table, bucket_cell, leaves a bucket to the search only where a
        # threshold lies strictly inside it
        buckets = 1 << GUIDE_BITS
        edges = np.arange(buckets) / buckets
        for N in range(21):
            cdf = _inversion_table(N, 1.0 - p_e)
            cells = Cells.of(cdf)
            thresholds = np.unique(cdf)
            assert cells.cuts.tolist() == sorted({0.0} | set(thresholds[thresholds < 1.0].tolist())), N
            inside = (thresholds > edges[:, None]) & (thresholds < edges[:, None] + 1 / buckets)
            assert np.array_equal(cells.bucket_cell < 0, inside.any(axis=1)), N
            # every threshold of every row and every bucket edge as raw
            # Philox words: the 53-bit values on either side of each, with
            # the 11 low bits, which the uniform drops, clear and set
            points = np.concatenate([thresholds, edges, [0.0, np.nextafter(1.0, 0.0)]])
            m = np.ceil(points * 2.0**53).astype(np.int64)
            m = np.clip(np.concatenate([m - 1, m, m + 1]), 0, 2**53 - 1).astype(np.uint64)
            words = np.concatenate([m << 11, (m << 11) | 0x7FF])
            [cell], _ = cells.of_words(words[:, None])
            u = (words >> 11) * 2.0**-53
            assert np.all(cells.cuts[cell] <= u), N
            assert np.all(u < np.append(cells.cuts, 1.0)[cell + 1]), N
            # each row's draw, #{cdf[a] <= u}, counted in the sorted row
            draws = np.stack([np.searchsorted(np.sort(row), u, side="right") for row in cdf])
            assert np.array_equal(cells.counts.take(cell, axis=1), draws), N

    @pytest.mark.parametrize(
        "scenario",
        [
            (3, 0.4, 3, 1, 1, 1),
            (2, 0.3, 3, 4, 2, 5),  # both queues above N
            (1, 0.5, 2, 2, 1, 3),
            (5, 0.0, 2, 3, 3, 3),
            (4, 1.0, 2, 2, 2, 2),
            (6, 0.77, 2, 1, 4, 2),
        ],
        ids=str,
    )
    def test_moves_reproduce_step_queues(self, scenario):
        # for every state, action and pair of cells the two lookups give
        # step_queues' next state under the cells' service counts
        cfg = ScenarioConfig(*scenario)
        N = cfg.N
        states = backlog_states(cfg)
        cells = Cells.of(_inversion_table(N, 1.0 - cfg.p_e))
        moves = Moves.of(cfg, cells)
        want = np.empty((len(states), N + 1, N + 1), dtype=np.int64)
        for i, (q1, q2) in enumerate(zip(states.q1.tolist(), states.q2.tolist())):
            for s1 in range(N + 1):
                for s2 in range(N + 1):
                    after, _ = step_queues(QueueState(q1, q2), s1, s2)
                    want[i, s1, s2] = states.index(*after)
        i = np.arange(len(states))[:, None, None]
        c1 = np.arange(len(cells.cuts))[None, :, None]
        c2 = np.arange(len(cells.cuts))[None, None, :]
        for a in range(N + 1):
            got = (
                i
                + moves.table[moves.key1[i] + a * moves.step1 + c1]
                + moves.table[moves.key2[i] + a * moves.step2 + c2]
            )
            assert np.array_equal(got, want[i, cells.counts[a][c1], cells.counts[N - a][c2]]), a

    @pytest.mark.parametrize(
        "key, counter", [(0, 0), (1, 0), (11, 3), (7, 2**40 + 5), (2**64 - 1, 2**255)]
    )
    def test_raw_words_are_generator_uniforms(self, key, counter):
        # the sampler forms the uniform from the raw word only where its bucket
        # holds a threshold, so the two must agree bit for bit
        words = np.random.Philox(key=key, counter=counter).random_raw(4099)
        u = np.random.Generator(np.random.Philox(key=key, counter=counter)).random(4099)
        assert np.array_equal(((words >> 11) * 2.0**-53).view(np.uint64), u.view(np.uint64))
        assert np.array_equal(words >> (64 - GUIDE_BITS), np.floor(u * (1 << GUIDE_BITS)))

    def test_edge_words_land_in_their_bucket(self):
        edges = [b << (64 - GUIDE_BITS) for b in range(1 << GUIDE_BITS)] + [2**64]
        words = {0, 2**64 - 1} | {e + d for e in edges for d in (-1, 0, 1)}
        words = np.array(sorted(v for v in words if 0 <= v < 2**64), dtype=np.uint64)
        u = (words >> 11) * 2.0**-53
        exact = [(int(v) >> 11) / 2**53 for v in words]
        assert np.array_equal(u, np.array(exact))
        assert u.max() < 1.0
        assert np.array_equal(words >> (64 - GUIDE_BITS), np.floor(u * (1 << GUIDE_BITS)))

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

"""State space, transition kernel, value iteration, and baseline policies."""
import dataclasses
import importlib.util
import itertools
import random
import weakref
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest

from dvpsched import (
    PolicyTable,
    ScenarioConfig,
    Schedule,
    TransitionKernel,
    exact_dvp_chain,
    opt,
    simulate_policies,
    value_iteration,
)
from dvpsched import mdp
from dvpsched.mdp import (
    BASELINE_KINDS,
    baseline_actions,
    kernel_key,
    policy_actions,
    transition_kernel,
    violation_to_go,
)
from dvpsched.model import CapExceededError, backlog_states
from dvpsched.oracles import QueueState, reward, transition_probs, transition_probs_casewise


def criterion_05_grid():
    """The configs of acceptance criterion 05: loads y + x1 <= 3, x2 <= 3,
    N <= 6, two loss rates."""
    for y, x1 in ((1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (3, 0)):
        for x2, N, pe in itertools.product(range(4), range(1, 7), (0.35, 0.7)):
            yield ScenarioConfig(N=N, p_e=pe, w=2, y=y, x1=x1, x2=x2)


def random_config(rng, max_N=4):
    return ScenarioConfig(
        N=int(rng.integers(1, max_N + 1)),
        p_e=float(rng.uniform(0.05, 0.95)),
        w=int(rng.integers(1, 5)),
        y=int(rng.integers(1, 3)),
        x1=int(rng.integers(0, 3)),
        x2=int(rng.integers(0, 3)),
    )


def domain(cfg):
    """The states of backlog_states(cfg), in index order."""
    states = backlog_states(cfg)
    return [QueueState(*st) for st in zip(states.q1.tolist(), states.q2.tolist())]


def rectangle(cfg):
    """Every backlog pair up to the queues' maxima, the reachable ones and
    the corner beyond them: the oracles are defined there too."""
    return [
        QueueState(q1, q2)
        for q1 in range(cfg.first_hop_load + 1)
        for q2 in range(cfg.total_load + 1)
    ]


class TestStateSpace:
    @pytest.mark.parametrize(
        "y,x1,x2,size", [(1, 0, 0, 3), (1, 1, 1, 9), (2, 2, 3, 30)]
    )
    def test_triangle_size(self, y, x1, x2, size):
        cfg = ScenarioConfig(N=2, p_e=0.5, w=2, y=y, x1=x1, x2=x2)
        space = domain(cfg)
        q1_max = y + x1
        assert len(space) == size == (q1_max + 1) * (q1_max + x2 + 1) - q1_max * (q1_max + 1) // 2
        assert len(set(space)) == size

    def test_bounds(self):
        cfg = ScenarioConfig(N=2, p_e=0.5, w=2, y=1, x1=1, x2=2)
        for st in domain(cfg):
            assert 0 <= st.q1 <= cfg.first_hop_load
            assert 0 <= st.q2 and st.q1 + st.q2 <= cfg.total_load

    def test_index_lookup_start_and_nonempty_agree(self):
        cfg = ScenarioConfig(N=2, p_e=0.5, w=2, y=2, x1=1, x2=2)
        states = backlog_states(cfg)
        for i, st in enumerate(domain(cfg)):
            assert states.index(*st) == states.lookup[st] == i
            assert states.nonempty[i] == (st != (0, 0))
        assert states.start == states.index(cfg.first_hop_load, cfg.x2)
        assert (states.lookup >= 0).sum() == len(states)

    def test_configs_of_equal_bounds_share_one_domain(self):
        # first_hop_load 3 and total_load 5 in both; N, p_e, w and the y/x1 split differ
        a = ScenarioConfig(N=2, p_e=0.5, w=2, y=2, x1=1, x2=2)
        b = ScenarioConfig(N=5, p_e=0.3, w=4, y=1, x1=2, x2=2)
        assert backlog_states(a) is backlog_states(b)
        assert backlog_states(b).start == backlog_states(b).index(3, 2)

    def test_domain_is_the_reachable_set(self):
        # a search from the start state over transition_probs' moves of
        # positive probability, on criterion 05's grid
        for cfg in kernel_grid(pes=(0.35, 0.7)):
            start = QueueState(cfg.first_hop_load, cfg.x2)
            seen, todo = {start}, [start]
            while todo:
                st = todo.pop()
                for a in range(cfg.N + 1):
                    for nxt, p in transition_probs(cfg, st, a).items():
                        if p > 0 and nxt not in seen:
                            seen.add(nxt)
                            todo.append(nxt)
            assert seen == set(domain(cfg)), cfg


class TestTransitionProbs:
    def test_empty_state_absorbs(self):
        cfg = ScenarioConfig(N=3, p_e=0.4, w=2, y=1, x1=1, x2=1)
        for a in range(cfg.N + 1):
            probs = transition_probs(cfg, QueueState(0, 0), a)
            assert set(probs) == {QueueState(0, 0)}
            assert probs[QueueState(0, 0)] == pytest.approx(1.0, abs=1e-12)

    def test_single_bernoulli_relay(self):
        cfg = ScenarioConfig(N=1, p_e=0.5, w=2, y=1, x1=0, x2=0)
        probs = transition_probs(cfg, QueueState(1, 0), 1)
        assert probs[QueueState(0, 1)] == pytest.approx(0.5)
        assert probs[QueueState(1, 0)] == pytest.approx(0.5)
        assert len(probs) == 2

    def test_frozen_two_by_two_marginalization(self):
        # s1, s2 ~ iid Bernoulli(1/2): four equally likely service pairs
        cfg = ScenarioConfig(N=2, p_e=0.5, w=2, y=1, x1=0, x2=1)
        probs = transition_probs(cfg, QueueState(1, 1), 1)
        assert probs == {
            QueueState(1, 1): pytest.approx(0.25),
            QueueState(1, 0): pytest.approx(0.25),
            QueueState(0, 2): pytest.approx(0.25),
            QueueState(0, 1): pytest.approx(0.25),
        }

    def test_invalid_action(self):
        cfg = ScenarioConfig(N=2, p_e=0.5, w=2, y=1, x1=0, x2=0)
        with pytest.raises(ValueError):
            transition_probs(cfg, QueueState(1, 0), 3)

    def test_rows_are_stochastic_and_feasible(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            cfg = random_config(rng)
            for st in rectangle(cfg):
                for a in range(cfg.N + 1):
                    probs = transition_probs(cfg, st, a)
                    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
                    for nxt, p in probs.items():
                        assert p >= 0.0
                        assert nxt.q1 <= st.q1
                        assert nxt.q1 + nxt.q2 <= st.q1 + st.q2

    def test_casewise_matches_marginalization(self):
        rng = np.random.default_rng(22)
        for _ in range(12):
            cfg = random_config(rng)
            for st in rectangle(cfg):
                for a in range(cfg.N + 1):
                    ref = transition_probs(cfg, st, a)
                    case = transition_probs_casewise(cfg, st, a)
                    assert set(case) == set(ref)
                    for k in ref:
                        assert case[k] == pytest.approx(ref[k], abs=1e-12)


def kernel_grid(pes=(0.35, 0.7, 0.0, 1.0)):
    """Criterion 05's grid (test_acceptance), by default plus a lossless and
    a dead channel."""
    for (y, x1) in ((1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (3, 0)):
        for x2 in (0, 1, 2, 3):
            for N in (1, 2, 3, 4, 5, 6):
                for pe in pes:
                    yield ScenarioConfig(N=N, p_e=pe, w=2, y=y, x1=x1, x2=x2)


def forward_row(kern, state, a):
    """The operator's row of state under action a: forward of the unit
    distribution on state, as {next state: probability} over its grid
    cells with mass."""
    rho = np.zeros(kern.shape)
    rho[state] = 1.0
    out = kern.forward(rho, a)
    return {QueueState(int(q1), int(q2)): out[q1, q2] for q1, q2 in zip(*np.nonzero(out))}


def random_on_states(kern, rng):
    """A random grid distribution with mass on every state, none off them."""
    rho = np.zeros(kern.shape)
    rho.flat[kern.cells] = rng.random(len(kern.cells))
    return rho / rho.sum()


class TestKernel:
    def test_dense_rows_match_sparse_dict(self):
        cfg = ScenarioConfig(N=3, p_e=0.3, w=2, y=1, x1=1, x2=1)
        kern = TransitionKernel(cfg)
        for st in domain(cfg):
            for a in range(cfg.N + 1):
                ref = transition_probs(cfg, st, a)
                row = forward_row(kern, st, a)
                assert set(row) == {k for k, v in ref.items() if v > 0}
                for nxt, p in row.items():
                    assert p == pytest.approx(ref[nxt], abs=1e-12)

    def test_rows_match_oracles(self):
        # the rows to 1e-12, where the two links' tables add in their own
        # order; the stage rewards bit for bit, added in reward()'s order
        for cfg in kernel_grid():
            kern = TransitionKernel(cfg)
            R = kern.rewards()
            for st in domain(cfg):
                for a in range(cfg.N + 1):
                    row = forward_row(kern, st, a)
                    ref = transition_probs(cfg, st, a)
                    assert set(row) <= set(ref)
                    for nxt, p in ref.items():
                        assert abs(row.get(nxt, 0.0) - p) <= 1e-12, (cfg, st, a, nxt)
                    assert abs(sum(row.values()) - 1.0) <= 1e-12
                    assert R[a, st.q2] == reward(cfg, st, a)

    def test_rows_sum_to_one(self):
        cfg = ScenarioConfig(N=2, p_e=0.4, w=3, y=2, x1=1, x2=2)
        kern = TransitionKernel(cfg)
        assert np.allclose(kern.P.sum(axis=2), 1.0, atol=1e-12)
        assert np.allclose(kern.D1.sum(axis=2), 1.0, atol=1e-12)
        rho = random_on_states(kern, np.random.default_rng(30))
        for a in range(cfg.N + 1):
            assert kern.forward(rho, a).sum() == pytest.approx(1.0, abs=1e-12)

    def test_backward_is_the_adjoint_of_forward(self):
        rng = np.random.default_rng(31)
        for cfg in (*kernel_grid(pes=(0.35,)), ScenarioConfig(10, 0.4, 10, 5, 5, 5)):
            kern = TransitionKernel(cfg)
            rho = random_on_states(kern, rng)
            v = rng.random(kern.shape)
            back = kern.backward(v)
            for a in range(cfg.N + 1):
                assert abs(np.vdot(back[a], rho) - np.vdot(v, kern.forward(rho, a))) <= 1e-12

    def test_backward_on_the_states_ignores_v_off_them(self):
        # what lets the one backward recursion carry V_k off the triangle
        rng = np.random.default_rng(33)
        configs = [ScenarioConfig(6, 0.4, 6, 1, 3, 3), ScenarioConfig(10, 0.4, 10, 5, 5, 5),
                   ScenarioConfig(16, 0.4, 12, 10, 10, 10)]
        configs += [random_config(rng, max_N=6) for _ in range(5)]
        for cfg in configs:
            kern = TransitionKernel(cfg)
            on = np.zeros(kern.shape)
            on.flat[kern.cells] = rng.random(len(kern.cells))
            off = rng.uniform(1e6, 1e9, kern.shape)
            off.flat[kern.cells] = on.flat[kern.cells]
            A = cfg.N + 1
            want = kern.backward(on).reshape(A, -1)[:, kern.cells]
            got = kern.backward(off).reshape(A, -1)[:, kern.cells]
            assert np.array_equal(got, want), cfg

    @pytest.mark.parametrize("some", [False, True], ids=["every action", "two actions"])
    def test_split_actions_add_up_the_single_actions(self, some):
        rng = np.random.default_rng(32)
        for cfg in (ScenarioConfig(4, 0.3, 2, 2, 1, 2), ScenarioConfig(10, 0.4, 10, 5, 5, 5)):
            kern = TransitionKernel(cfg)
            rho = random_on_states(kern, rng)
            choices = [1, cfg.N] if some else np.arange(cfg.N + 1)
            acts = rng.choice(choices, len(kern.cells))
            on_grid = np.full(rho.size, -1)
            on_grid[kern.cells] = acts
            parts = sum(
                kern.forward(np.where(on_grid.reshape(rho.shape) == a, rho, 0.0), a)
                for a in range(cfg.N + 1)
            )
            [split] = kern.split(acts[None])
            assert np.allclose(kern.forward(rho, split), parts, rtol=0.0, atol=1e-15)

    def test_index_domain(self):
        # q1 <= q1_max = 2 and q1 + q2 <= q2_max = 4, row-major
        cfg = ScenarioConfig(N=2, p_e=0.4, w=3, y=1, x1=1, x2=2)
        kern = TransitionKernel(cfg)
        states = kern.states
        assert kern.P.shape == (cfg.N + 1, 5, 5)
        assert kern.shape == (3, 5)
        assert len(states) == 5 + 4 + 3
        assert states.index(0, 4) == 4 and states.index(1, 0) == 5 and states.index(2, 2) == 11
        assert states.start == 11
        assert kern.cells.tolist() == [0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12]
        for q1, q2 in ((-1, 0), (0, -1), (3, 0), (0, 5), (1, 4), (2, 3)):
            with pytest.raises(ValueError, match="outside the backlog triangle"):
                states.index(q1, q2)


def random_kept_configs(count: int, seed: int) -> list[ScenarioConfig]:
    # few loss rates and small loads, so that kernel keys repeat across deadlines
    rng = np.random.default_rng(seed)
    return [
        ScenarioConfig(
            N=int(rng.integers(1, 7)),
            p_e=float(rng.choice([0.0, 0.2, 0.4, 0.7, 1.0, rng.uniform(0.0, 1.0)])),
            w=int(rng.integers(1, 10)),
            y=int(rng.integers(1, 4)),
            x1=int(rng.integers(0, 3)),
            x2=int(rng.integers(0, 3)),
        )
        for _ in range(count)
    ]


def table_and_chains(config: ScenarioConfig):
    """value_iteration's bits and text, and the whole EvalResult of the
    table's chain and of each baseline's."""
    table = value_iteration(config)
    chains = [exact_dvp_chain(config, p) for p in (table, *BASELINE_KINDS)]
    return (
        table.actions.tobytes(),
        table.values.tobytes(),
        table.to_text(),
        [dataclasses.astuple(r) for r in chains],
    )


def held() -> int:
    """The bytes charged to everything kept."""
    return sum(nbytes for nbytes, _ in mdp._kept.values())


def peek(config: ScenarioConfig, name: str):
    """What is kept under config's kernel key and name, or None, leaving
    the order of the store as it is."""
    entry = mdp._kept.get((kernel_key(config), name))
    return entry and entry[1]


class TestKernelScenarioGuard:
    """transition_kernel keeps a kernel per kernel_key in the one store, as
    its entry "kernel", within KERNEL_BYTE_CAP with everything else kept,
    least recently used first out, serves it to every scenario of its key
    and builds anew for any other. Only a build drops entries."""

    CFG = ScenarioConfig(N=4, p_e=0.4, w=4, y=1, x1=1, x2=1)
    # the kernel does not depend on w, nor on how first_hop_load splits into y, x1
    SAME_KEY = ScenarioConfig(N=4, p_e=0.4, w=1, y=2, x1=0, x2=1)
    OTHERS = {
        "p_e": ScenarioConfig(N=4, p_e=0.2, w=4, y=1, x1=1, x2=1),
        "N": ScenarioConfig(N=5, p_e=0.4, w=4, y=1, x1=1, x2=1),
        "q1_max": ScenarioConfig(N=4, p_e=0.4, w=4, y=1, x1=2, x2=0),
        "q2_max": ScenarioConfig(N=4, p_e=0.4, w=4, y=1, x1=1, x2=2),
    }

    @pytest.mark.parametrize("field", sorted(OTHERS))
    def test_other_scenarios_kernel_rejected(self, field):
        other = transition_kernel(self.OTHERS[field])
        kern = transition_kernel(self.CFG)
        assert kern is not other
        assert kern.key == kernel_key(self.CFG) != other.key

    def test_other_deadline_accepted(self):
        kern = transition_kernel(self.SAME_KEY)
        assert transition_kernel(self.CFG) is kern
        for table in (kern.P, kern.D1, kern._P_T, kern._D1_by_q1):
            assert not table.flags.writeable

    def test_reused_kernel_evaluates_as_a_rebuilt_one(self, monkeypatch):
        def table(cfg):
            built = value_iteration(cfg)
            return built.actions.tolist(), built.values.tolist()

        evaluators = (lambda cfg: exact_dvp_chain(cfg, "mw"), table, opt)
        monkeypatch.setattr(mdp, "_kept", OrderedDict())
        kern = transition_kernel(self.SAME_KEY)
        reused = [evaluate(self.CFG) for evaluate in evaluators]  # all on SAME_KEY's kernel
        assert transition_kernel(self.CFG) is kern
        rebuilt = []
        for evaluate in evaluators:
            monkeypatch.setattr(mdp, "_kept", OrderedDict())  # a fresh kernel each
            rebuilt.append(evaluate(self.CFG))
        assert reused == rebuilt

    def test_least_recently_used_kernel_dropped_first(self, monkeypatch):
        a, b, c = (ScenarioConfig(N=4, p_e=pe, w=4, y=1, x1=1, x2=1) for pe in (0.4, 0.2, 0.3))
        # room for two kernels of this size, not three
        monkeypatch.setattr(mdp, "KERNEL_BYTE_CAP", 2 * mdp._kernel_nbytes(kernel_key(a)))
        monkeypatch.setattr(mdp, "_kept", OrderedDict())
        kern_a, kern_b = transition_kernel(a), transition_kernel(b)
        assert transition_kernel(a) is kern_a
        kern_c = transition_kernel(c)
        assert list(mdp._kept) == [(kernel_key(a), "kernel"), (kernel_key(c), "kernel")]
        assert transition_kernel(a) is kern_a and transition_kernel(c) is kern_c
        assert transition_kernel(b) is not kern_b

    def test_kernel_over_the_cap_raises_and_drops_none(self, monkeypatch):
        cap = 2 * mdp._kernel_nbytes(kernel_key(self.CFG))
        monkeypatch.setattr(mdp, "KERNEL_BYTE_CAP", cap)
        monkeypatch.setattr(mdp, "_kept", OrderedDict())
        kept = [transition_kernel(self.CFG), transition_kernel(self.OTHERS["p_e"])]
        big = ScenarioConfig(N=4, p_e=0.4, w=4, y=1, x1=1, x2=10)
        with pytest.raises(CapExceededError) as info:
            transition_kernel(big)
        assert str(info.value) == (
            "transition operator needs 18296 bytes "
            f"(5 actions over a 3 x 13 backlog grid), cap is {cap}"
        )
        assert (info.value.estimate, info.value.cap) == (18296, cap)
        assert [kernel for _, kernel in mdp._kept.values()] == kept

    def test_rewards_equal_a_fresh_kernels_bit_for_bit(self, monkeypatch):
        # computed on each call, on a kernel that has stepped as on a new one
        monkeypatch.setattr(mdp, "_kept", OrderedDict())
        kern = transition_kernel(self.CFG)
        value_iteration(self.CFG)
        exact_dvp_chain(self.CFG, "wfq")
        R = kern.rewards()
        fresh = TransitionKernel(self.CFG).rewards()
        assert R.shape == fresh.shape and R.tobytes() == fresh.tobytes()
        assert kern.rewards() is not R

    def test_every_build_and_keep_fits_the_cap(self, monkeypatch):
        configs = random_kept_configs(60, seed=34)
        biggest = max(mdp._kernel_nbytes(kernel_key(c)) for c in configs)
        monkeypatch.setattr(mdp, "KERNEL_BYTE_CAP", 2 * biggest)
        monkeypatch.setattr(mdp, "_kept", OrderedDict())
        init, keep = TransitionKernel.__init__, mdp._keep
        checks = []

        def tracked_init(kernel, config):
            # what is kept and the new kernel fit in the cap at every build
            assert held() + mdp._kernel_nbytes(kernel_key(config)) <= mdp.KERNEL_BYTE_CAP
            checks.append("build")
            init(kernel, config)

        def tracked_keep(key, name, arrays):
            keep(key, name, arrays)
            assert held() <= mdp.KERNEL_BYTE_CAP
            checks.append(name)

        monkeypatch.setattr(TransitionKernel, "__init__", tracked_init)
        monkeypatch.setattr(mdp, "_keep", tracked_keep)
        for config in configs:
            table_and_chains(config)
        assert {"build", "table", "mw", "wfq", "bp"} <= set(checks)

    def test_table_over_the_cap_is_computed_and_not_kept(self, monkeypatch):
        want = table_and_chains(self.CFG)
        # room for the kernel alone
        nbytes = mdp._kernel_nbytes(kernel_key(self.CFG))
        monkeypatch.setattr(mdp, "KERNEL_BYTE_CAP", nbytes)
        monkeypatch.setattr(mdp, "_kept", OrderedDict())
        kern = transition_kernel(self.CFG)
        assert table_and_chains(self.CFG) == want
        assert list(mdp._kept.items()) == [((kern.key, "kernel"), (nbytes, kern))]

    def test_a_grown_table_is_charged_in_place_of_the_shorter_one(self, monkeypatch):
        monkeypatch.setattr(mdp, "_kept", OrderedDict())
        value_iteration(self.CFG)
        full = held()  # the kernel and its w = 4 table
        monkeypatch.setattr(mdp, "KERNEL_BYTE_CAP", full)
        monkeypatch.setattr(mdp, "_kept", OrderedDict())
        value_iteration(dataclasses.replace(self.CFG, w=2))
        value_iteration(self.CFG)
        assert len(peek(self.CFG, "table")[0]) == 4 and held() == full

    def test_a_grown_table_that_does_not_fit_drops_the_shorter_one(self, monkeypatch):
        want = value_iteration(self.CFG).to_text()
        monkeypatch.setattr(mdp, "_kept", OrderedDict())
        value_iteration(self.CFG)
        # room for the kernel and its w = 2 table, one byte short of its w = 4 one
        monkeypatch.setattr(mdp, "KERNEL_BYTE_CAP", held() - 1)
        monkeypatch.setattr(mdp, "_kept", OrderedDict())
        value_iteration(dataclasses.replace(self.CFG, w=2))
        assert len(peek(self.CFG, "table")[0]) == 2
        assert value_iteration(self.CFG).to_text() == want
        assert list(mdp._kept) == [(kernel_key(self.CFG), "kernel")]

    def test_entries_leave_one_at_a_time(self, monkeypatch):
        a, b, c = (dataclasses.replace(self.CFG, p_e=pe) for pe in (0.4, 0.2, 0.3))
        monkeypatch.setattr(mdp, "_kept", OrderedDict())
        value_iteration(a)
        full = held()  # a kernel and its table
        # room for two kernels with their tables, not three
        monkeypatch.setattr(mdp, "KERNEL_BYTE_CAP", 2 * full)
        monkeypatch.setattr(mdp, "_kept", OrderedDict())
        value_iteration(a)
        value_iteration(b)
        table_a = weakref.ref(peek(a, "table")[0])
        kern_a = weakref.ref(peek(a, "kernel"))
        transition_kernel(c)  # its build drops a's kernel, the least recently used, alone
        key_a, key_b, key_c = map(kernel_key, (a, b, c))
        assert list(mdp._kept) == [
            (key_a, "table"), (key_b, "kernel"), (key_b, "table"), (key_c, "kernel")
        ]
        assert kern_a() is None and table_a() is not None
        assert held() <= mdp.KERNEL_BYTE_CAP

    def test_a_keep_drops_nothing(self, monkeypatch):
        a, b = (dataclasses.replace(self.CFG, p_e=pe) for pe in (0.4, 0.2))
        monkeypatch.setattr(mdp, "_kept", OrderedDict())
        want = value_iteration(b).to_text()
        monkeypatch.setattr(mdp, "_kept", OrderedDict())
        value_iteration(a)
        # room for two kernels and a table less one byte
        monkeypatch.setattr(mdp, "KERNEL_BYTE_CAP", held() + mdp._kernel_nbytes(kernel_key(b)) - 1)
        monkeypatch.setattr(mdp, "_kept", OrderedDict())
        transition_kernel(a)
        transition_kernel(b)
        transition_kernel(a)  # b is now the least recently used
        kept = dict(mdp._kept)
        # b's table does not fit beside both kernels: computed, not kept, and a stays
        assert value_iteration(b).to_text() == want
        assert dict(mdp._kept) == kept
        assert held() <= mdp.KERNEL_BYTE_CAP

    def test_over_the_cap_raises_and_drops_none_of_what_is_kept(self, monkeypatch):
        monkeypatch.setattr(mdp, "_kept", OrderedDict())
        value_iteration(self.CFG)
        exact_dvp_chain(self.CFG, "mw")
        kept = list(mdp._kept.items())
        cap = 2 * held()
        monkeypatch.setattr(mdp, "KERNEL_BYTE_CAP", cap)
        big = ScenarioConfig(N=6, p_e=0.4, w=4, y=1, x1=3, x2=200)
        nbytes = mdp._kernel_nbytes(kernel_key(big))
        assert nbytes > cap
        with pytest.raises(CapExceededError) as info:
            value_iteration(big)
        assert str(info.value) == (
            f"transition operator needs {nbytes} bytes "
            f"(7 actions over a 5 x 205 backlog grid), cap is {cap}"
        )
        assert list(mdp._kept.items()) == kept


class TestKeptTableAndSplits:
    """The store keeps, per kernel key, the value-iteration table by frames
    to go and the split of each state-dependent baseline; what it hands out
    is what an empty store computes, bit for bit."""

    S = ScenarioConfig(N=6, p_e=0.4, w=6, y=1, x1=3, x2=3)
    FIXED = (
        S,
        ScenarioConfig(N=10, p_e=0.4, w=10, y=5, x1=5, x2=5),  # M
        ScenarioConfig(N=16, p_e=0.4, w=12, y=10, x1=10, x2=10),  # L
        ScenarioConfig(N=5, p_e=0.02, w=6, y=1, x1=1, x2=1),  # the low-loss corner
        ScenarioConfig(N=4, p_e=0.0, w=5, y=2, x1=1, x2=1),
        ScenarioConfig(N=4, p_e=1.0, w=5, y=2, x1=1, x2=1),
    )

    @pytest.mark.parametrize("room", [None, 1, 3])
    def test_kept_tables_and_chains_are_bit_identical(self, monkeypatch, room):
        configs = list(self.FIXED) + random_kept_configs(200, seed=33)
        fresh = []
        for config in configs:
            monkeypatch.setattr(mdp, "_kept", OrderedDict())  # nothing kept
            fresh.append(table_and_chains(config))
        if room is not None:  # room for `room` times the largest kernel alone
            biggest = max(mdp._kernel_nbytes(kernel_key(c)) for c in configs)
            monkeypatch.setattr(mdp, "KERNEL_BYTE_CAP", room * biggest)
        monkeypatch.setattr(mdp, "_kept", OrderedDict())
        # each config twice, in shuffled order: every table is both grown and sliced
        order = list(range(len(configs))) * 2
        random.Random(room).shuffle(order)
        seen, grown, sliced = set(), [], 0
        for i in order:
            rows = len((peek(configs[i], "table") or ((),))[0])
            if rows < configs[i].w:
                grown.append(i in seen)
            sliced += rows > configs[i].w
            seen.add(i)
            assert table_and_chains(configs[i]) == fresh[i], configs[i]
        assert len(grown) >= 100 and sliced >= 10
        if room is None:  # nothing dropped: a second visit always reads the kept table
            assert not any(grown)

    def test_kept_arrays_are_read_only_and_a_table_owns_copies(self, monkeypatch):
        monkeypatch.setattr(mdp, "_kept", OrderedDict())
        shorter = dataclasses.replace(self.S, w=3)
        tables = [value_iteration(self.S), value_iteration(shorter)]
        for kind in BASELINE_KINDS:
            exact_dvp_chain(self.S, kind)
        key = kernel_key(self.S)
        # fifty needs no split
        assert sorted(name for _, name in mdp._kept) == ["bp", "kernel", "mw", "table", "wfq"]
        assert mdp._kept[key, "kernel"][0] == mdp._kernel_nbytes(key)
        kept = []
        for (_, name), (nbytes, arrays) in mdp._kept.items():
            if name != "kernel":
                assert nbytes == sum(a.nbytes for a in arrays), name
                kept += arrays
        assert not any(a.flags.writeable for a in kept)
        actions, values = peek(self.S, "table")
        assert (len(actions), len(values)) == (6, 7)
        for table in tables:
            for arr in (table.actions, table.values):
                assert not arr.flags.writeable and arr.flags.c_contiguous
                assert not any(np.shares_memory(arr, a) for a in kept)
        # deadline 3's table is deadline 6's last three epochs
        assert tables[1].actions.tobytes() == tables[0].actions[3:].tobytes()
        assert tables[1].values.tobytes() == tables[0].values[3:].tobytes()


def bench_reference():
    """bench/reference.py, the benchmark's own DVP evaluator."""
    path = Path(__file__).resolve().parent.parent / "bench" / "reference.py"
    spec = importlib.util.spec_from_file_location("bench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestPastTheOldKernelCap:
    # 1 681 states: a dense kernel took 21 x 1681^2 entries, over its cap
    CFG = ScenarioConfig(N=20, p_e=0.4, w=11, y=20, x1=20, x2=20)

    def test_mw_is_exact_and_the_table_beats_it(self):
        mw = exact_dvp_chain(self.CFG, "mw")
        assert f"{mw.dvp:.10g}" == "0.005808452233"
        reference = bench_reference()
        ref = reference.Reference(20, 0.4, 11, 20, 20, 20)
        assert mw.dvp == pytest.approx(ref.evaluate(reference.baseline_action("mw", 20))[0], rel=2e-14)
        [sim] = simulate_policies(self.CFG, ["mw"], 200_000, 3)  # [0.005438, 0.006101]
        assert sim.ci_low <= mw.dvp <= sim.ci_high
        table = exact_dvp_chain(self.CFG, value_iteration(self.CFG))
        assert table.dvp <= mw.dvp
        assert table.mean_departures >= mw.mean_departures


class TestReward:
    def test_empty_second_queue(self):
        cfg = ScenarioConfig(N=4, p_e=0.3, w=2, y=1, x1=0, x2=0)
        for a in range(cfg.N + 1):
            assert reward(cfg, QueueState(2, 0), a) == 0.0

    def test_min_never_binds(self):
        cfg = ScenarioConfig(N=4, p_e=0.25, w=2, y=2, x1=1, x2=3)
        # q2 >= n2 means the expectation is the binomial mean
        assert reward(cfg, QueueState(0, 4), 1) == pytest.approx(3 * 0.75, abs=1e-12)

    def test_single_packet(self):
        cfg = ScenarioConfig(N=2, p_e=0.5, w=2, y=1, x1=0, x2=1)
        assert reward(cfg, QueueState(0, 1), 0) == pytest.approx(0.75, abs=1e-12)


def criterion_04_grid():
    """The tiny instances of acceptance criterion 04: N = 1, loads
    y + x1 <= 2, x2 <= 1, w <= 3, three loss rates."""
    for (y, x1), x2, w, pe in itertools.product(
        ((1, 0), (1, 1), (2, 0)), (0, 1), (1, 2, 3), (0.3, 0.5, 0.8)
    ):
        yield ScenarioConfig(N=1, p_e=pe, w=w, y=y, x1=x1, x2=x2)


def brute_force_optima(cfg):
    """Independent oracle for value iteration and the violation recursion:
    enumerate every assignment of actions to reachable (epoch, state) pairs,
    that is every deterministic Markov policy, and forward-evaluate each.
    Returns the most expected departures and the least DVP (the mass left
    on the non-empty states) over them. Unreachable states cannot affect
    either, so restricting the enumeration to the union-reachable sets
    loses nothing."""
    start = QueueState(cfg.first_hop_load, cfg.x2)
    reach = [{start}]
    for _ in range(cfg.w - 1):
        nxt = set()
        for st in reach[-1]:
            for a in range(cfg.N + 1):
                nxt.update(transition_probs(cfg, st, a))
        reach.append(nxt)
    slots = [(k, st) for k, states in enumerate(reach) for st in sorted(states)]
    best, least = -1.0, 2.0
    for assignment in itertools.product(range(cfg.N + 1), repeat=len(slots)):
        act = dict(zip(slots, assignment))
        dist = {start: 1.0}
        for k in range(cfg.w):
            nxt = {}
            for st, p in dist.items():
                for st2, q in transition_probs(cfg, st, act[(k, st)]).items():
                    nxt[st2] = nxt.get(st2, 0.0) + p * q
            dist = nxt
        left = sum(p * (st.q1 + st.q2) for st, p in dist.items())
        best = max(best, cfg.total_load - left)
        least = min(least, sum(p for st, p in dist.items() if st != (0, 0)))
    return best, least


def dvp_star(cfg):
    """DVP*, the least DVP of any dynamic policy: the least entry of the
    violation-to-go over every action at the start state."""
    kern = transition_kernel(cfg)
    Q = violation_to_go(cfg, np.arange(cfg.N + 1))
    return float(Q[0][:, kern.cells[kern.states.start]].min())


class TestValueIteration:
    def test_lossless_drain(self):
        cfg = ScenarioConfig(N=2, p_e=0.0, w=2, y=1, x1=0, x2=0)
        table = value_iteration(cfg)
        assert table.values[0, backlog_states(cfg).index(1, 0)] == pytest.approx(1.0, abs=1e-12)

    def test_dead_channel(self):
        cfg = ScenarioConfig(N=2, p_e=1.0, w=3, y=1, x1=1, x2=1)
        table = value_iteration(cfg)
        assert (table.values[0] == 0.0).all()

    def test_matches_policy_enumeration(self):
        cfg = ScenarioConfig(N=1, p_e=0.5, w=2, y=1, x1=0, x2=0)
        table = value_iteration(cfg)
        value = table.values[0, backlog_states(cfg).index(1, 0)]
        assert value == pytest.approx(brute_force_optima(cfg)[0], abs=1e-12)

    def test_value_monotone_in_remaining_frames(self):
        cfg = ScenarioConfig(N=3, p_e=0.4, w=4, y=2, x1=1, x2=1)
        table = value_iteration(cfg)
        for k in range(cfg.w):
            assert (table.values[k] >= table.values[min(k + 1, cfg.w - 1)] - 1e-12).all()

    def test_value_bounded_by_backlog(self):
        cfg = ScenarioConfig(N=4, p_e=0.3, w=5, y=2, x1=2, x2=1)
        table = value_iteration(cfg)
        states = backlog_states(cfg)
        for k in range(cfg.w):
            assert (table.values[k] <= states.q1 + states.q2 + 1e-12).all()

    def test_tie_break_prefers_smallest_action(self):
        cfg = ScenarioConfig(N=3, p_e=0.4, w=2, y=1, x1=1, x2=1)
        table = value_iteration(cfg)
        # every action is worthless in the empty state, so ties resolve to 0
        assert table.action(0, 0, 0) == 0

    def test_throughput_dominates_baselines(self):
        rng = np.random.default_rng(31)
        for _ in range(6):
            cfg = random_config(rng, max_N=5)
            table = value_iteration(cfg)
            mdp_ed = exact_dvp_chain(cfg, table).mean_departures
            for b in ("mw", "wfq", "bp", "fifty"):
                base_ed = exact_dvp_chain(cfg, b).mean_departures
                assert mdp_ed >= base_ed - 1e-9


class TestViolationToGo:
    # DVP* at S, M and L (see ROADMAP aim 1), recorded to full precision
    GOLDEN = {
        (6, 0.4, 6, 1, 3, 3): 1.7492832068294805e-4,
        (10, 0.4, 10, 5, 5, 5): 6.761188199280331e-13,
        (16, 0.4, 12, 10, 10, 10): 8.657827844473288e-22,
    }

    def test_frames_and_shapes(self):
        cfg = ScenarioConfig(N=4, p_e=0.3, w=3, y=2, x1=1, x2=1)
        acts = np.array([3, 1])
        Q = violation_to_go(cfg, acts)
        assert len(Q) == cfg.w
        assert all(q.shape == (2, (cfg.first_hop_load + 1) * (cfg.total_load + 1)) for q in Q)

    def test_last_frame_is_one_step_to_the_horizon(self):
        # Q_{w-1}[j] . rho is the violation one frame after rho under acts[j]
        cfg = ScenarioConfig(N=4, p_e=0.3, w=3, y=2, x1=1, x2=1)
        kern = transition_kernel(cfg)
        rho = random_on_states(kern, np.random.default_rng(33))
        Q = violation_to_go(cfg, np.arange(cfg.N + 1))
        for a in range(cfg.N + 1):
            want = kern.violation(kern.forward(rho, a))
            assert Q[-1][a] @ rho.ravel() == pytest.approx(want, rel=1e-12)

    def test_equals_brute_force_on_criterion_04_instances(self):
        # the least DVP over every deterministic Markov policy
        for cfg in criterion_04_grid():
            least = brute_force_optima(cfg)[1]
            assert dvp_star(cfg) == pytest.approx(least, rel=1e-12, abs=0.0), cfg

    def test_at_most_every_policy_on_criterion_07_grid(self):
        for N, w, x in itertools.product((4, 6), (3, 4, 5, 6), (1, 3)):
            cfg = ScenarioConfig(N=N, p_e=0.4, w=w, y=1, x1=x, x2=x)
            star = dvp_star(cfg)
            policies = [
                *BASELINE_KINDS,
                value_iteration(cfg),
                opt(cfg).schedule,
                opt(cfg, full_domain=True).schedule,
            ]
            for policy in policies:
                assert star <= exact_dvp_chain(cfg, policy).dvp * (1 + 1e-12), (cfg, policy)

    @pytest.mark.parametrize("scenario", sorted(GOLDEN))
    def test_golden_at_s_m_l(self, scenario):
        cfg = ScenarioConfig(*scenario)
        assert dvp_star(cfg) == pytest.approx(self.GOLDEN[scenario], rel=1e-12, abs=0.0)


class TestPolicyTable:
    def test_text_golden_at_s(self):
        # solve --method mdp at S, recorded before the violation recursion
        # moved into mdp.violation_to_go
        cfg = ScenarioConfig(N=6, p_e=0.4, w=6, y=1, x1=3, x2=3)
        golden = (Path(__file__).resolve().parent / "golden" / "policy-table-S.txt").read_text()
        assert value_iteration(cfg).to_text() == golden

    def test_round_trip(self):
        cfg = ScenarioConfig(N=3, p_e=0.25, w=3, y=1, x1=1, x2=1)
        table = value_iteration(cfg)
        parsed = PolicyTable.from_text(table.to_text())
        assert parsed.config == cfg
        assert np.array_equal(parsed.actions, table.actions)
        assert np.allclose(parsed.values[: cfg.w], table.values[: cfg.w], rtol=1e-11)

    @pytest.mark.parametrize(
        "p_e, header",
        [
            (0.4, "pe=0.4"),
            (0.1234567890123, "pe=0.1234567890123"),
            (0.1 + 0.2, "pe=0.30000000000000004"),
        ],
    )
    def test_header_pe_reads_back(self, p_e, header):
        # 12 significant digits where they read back as p_e, else in full
        cfg = ScenarioConfig(N=3, p_e=p_e, w=2, y=1, x1=1, x2=1)
        text = value_iteration(cfg).to_text()
        assert text.splitlines()[0].split()[3] == header
        assert PolicyTable.from_text(text).config == cfg

    def test_text_format(self):
        cfg = ScenarioConfig(N=2, p_e=0.5, w=1, y=1, x1=0, x2=0)
        lines = value_iteration(cfg).to_text().splitlines()
        assert lines[0].startswith("# policy-table N=2 pe=0.5 w=1")
        assert len(lines) == 1 + 3  # header + one epoch over the 3 states
        for line in lines[1:]:
            parts = line.split()
            assert len(parts) == 5

    def test_missing_state_lookup_names_state(self):
        # a table is complete or refused when parsed, at its first missing
        # entry in epoch-then-state order
        cfg = ScenarioConfig(N=2, p_e=0.5, w=2, y=1, x1=0, x2=0)
        lines = value_iteration(cfg).to_text().splitlines()
        for dropped in ("1 0 0", "0 1 0"):
            truncated = "\n".join(line for line in lines if not line.startswith(dropped))
            q1, q2 = dropped.split()[1:]
            with pytest.raises(ValueError) as exc:
                PolicyTable.from_text(truncated)
            assert str(exc.value) == f"no action stored for epoch={dropped[0]} state=({q1},{q2})"

    def test_repeated_entry_refused(self):
        cfg = ScenarioConfig(N=2, p_e=0.5, w=1, y=1, x1=0, x2=0)
        text = value_iteration(cfg).to_text()
        assert PolicyTable.from_text(text).action(0, 0, 0) == 0
        with pytest.raises(ValueError) as exc:
            PolicyTable.from_text(text + "0 0 0 2 0\n")
        assert str(exc.value) == "line 5: repeated entry epoch=0 state=(0,0)"

    @pytest.mark.parametrize(
        "bad, message",
        [
            (lambda acts: acts * 0 + 4, r"action 4 outside 0\.\.3 at epoch=0 state=\(0,0\)"),
            (lambda acts: acts * 0 + 99, r"action 99 outside 0\.\.3 at epoch=0 state=\(0,0\)"),
            (lambda acts: acts + 0.5, "actions must be integers, got float64"),
            (lambda acts: acts[:, :-1], r"actions of shape \(3, 8\) .* do not fit w=3 over 9"),
            (lambda acts: acts[:-1], r"actions of shape \(2, 9\) .* do not fit w=3 over 9"),
        ],
        ids=["N+1", "99", "float", "short-row", "missing-epoch"],
    )
    def test_hand_built_table_checked_when_made(self, bad, message):
        # such tables ran unchecked under Monte Carlo's clipped lookups
        cfg = ScenarioConfig(N=3, p_e=0.4, w=3, y=1, x1=1, x2=1)
        table = value_iteration(cfg)
        with pytest.raises(ValueError, match=message):
            PolicyTable(cfg, bad(table.actions), table.values)
        with pytest.raises(ValueError, match=r"values of shape \(3, 9\) do not fit"):
            PolicyTable(cfg, table.actions, table.values[:-1])

    def test_made_table_is_read_only(self):
        cfg = ScenarioConfig(N=3, p_e=0.4, w=3, y=1, x1=1, x2=1)
        built = value_iteration(cfg)
        actions, values = built.actions.astype(np.int32), built.values.copy()
        table = PolicyTable(cfg, actions, values)
        assert table.actions.dtype == np.int64 and np.array_equal(table.actions, actions)
        for arr in (table.actions, table.values, built.actions, built.values):
            assert not arr.flags.writeable
        actions[0, 0] = 3 - actions[0, 0]  # the table keeps its own copy
        assert table.actions[0, 0] != actions[0, 0]

    def test_parse_error_carries_line_number(self):
        cfg = ScenarioConfig(N=2, p_e=0.5, w=1, y=1, x1=0, x2=0)
        text = value_iteration(cfg).to_text() + "0 0 0 nonsense\n"
        with pytest.raises(ValueError, match="line 5"):
            PolicyTable.from_text(text)

    # beyond both maxima, a negative backlog (which a numpy index would wrap
    # to a real state), and the unreachable corner row that tables written
    # over the backlog rectangle carried
    @pytest.mark.parametrize("state", ["9 9", "-1 0", "1 1"])
    def test_state_outside_domain_carries_line_number(self, state):
        text = f"# policy-table N=2 pe=0.5 w=1 y=1 x1=0 x2=0\n0 {state} 1 0.5\n"
        with pytest.raises(
            ValueError, match=rf"line 2: state \({state.replace(' ', ',')}\) outside the backlog triangle"
        ):
            PolicyTable.from_text(text)

    def test_epoch_outside_the_table_refused(self):
        cfg = ScenarioConfig(N=2, p_e=0.5, w=2, y=1, x1=0, x2=0)
        table = value_iteration(cfg)
        # action stops at w - 1
        assert table.action(np.int64(1), 1, 0) == table.action(1, 1, 0)
        for epoch in (-1, 2):
            with pytest.raises(ValueError, match=rf"epoch {epoch} outside 0\.\.1"):
                table.action(epoch, 1, 0)
        for epoch in (True, 1.0):
            with pytest.raises(TypeError, match="epoch must be an integer"):
                table.action(epoch, 1, 0)

    def test_lookup_outside_domain_refused(self):
        table = value_iteration(ScenarioConfig(N=2, p_e=0.5, w=1, y=1, x1=0, x2=0))
        for q1, q2 in ((1, 1), (-1, 0), (0, 2)):
            with pytest.raises(ValueError, match="outside the backlog triangle"):
                table.action(0, q1, q2)

    def test_header_required(self):
        with pytest.raises(ValueError, match="line 1"):
            PolicyTable.from_text("0 0 0 0 0.0\n")

    @pytest.mark.parametrize(
        "header, message",
        [
            ("N=2 pe=0.5 w=1 y=1 x1=0 x2=0 bogus=7", "line 1: unknown field 'bogus'"),
            ("N=3 pe=0.5 w=1 y=1 x1=0 x2=0 N=2", "line 1: repeated field 'N'"),
        ],
    )
    def test_unknown_or_repeated_header_field_refused(self, header, message):
        with pytest.raises(ValueError) as exc:
            PolicyTable.from_text(f"# policy-table {header}\n")
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "n, pe, message",
        [
            pytest.param("abc", "0.5", "line 1: N must be an integer, got 'abc'", id="abc"),
            pytest.param("0", "0.5", "line 1: N must be >= 1, got 0", id="0"),
            pytest.param("2.5", "0.5", "line 1: N must be an integer, got '2.5'", id="2.5"),
            pytest.param("2", "x", "line 1: pe must be a number, got 'x'", id="pe-x"),
        ],
    )
    def test_malformed_header_value_carries_line_number(self, n, pe, message):
        # the sweep parser's wording for a value that does not convert
        text = f"# policy-table N={n} pe={pe} w=1 y=1 x1=0 x2=0\n"
        with pytest.raises(ValueError) as exc:
            PolicyTable.from_text(text)
        assert str(exc.value) == message


def one_action(kind, N, q1, q2):
    """A baseline's action in one state, through the vectorised rule."""
    return int(baseline_actions(kind, np.array([q1]), np.array([q2]), N)[0])


class TestBaselines:
    def test_max_weight_favors_longest_queue(self):
        assert one_action("mw", 4, 3, 1) == 4
        assert one_action("mw", 4, 1, 3) == 0
        assert one_action("mw", 4, 2, 2) == 4  # tie upstream

    def test_wfq_proportional(self):
        assert one_action("wfq", 4, 1, 3) == 1
        assert one_action("wfq", 4, 3, 1) == 3
        assert one_action("wfq", 4, 0, 0) == 2
        # half-up at an exact .5 share
        assert one_action("wfq", 5, 1, 1) == 3

    def test_backpressure_weights(self):
        assert one_action("bp", 4, 1, 2) == 0  # w1=-1 < w2=2
        assert one_action("bp", 4, 4, 1) == 4  # w1=3 > w2=1
        assert one_action("bp", 4, 0, 0) == 2  # both <= 0
        assert one_action("bp", 4, 2, 1) == 2  # w1=w2=1 tie

    def test_fifty_even_split(self):
        assert one_action("fifty", 5, 1, 0) == 3

    def test_vector_matches_scalar(self):
        # each entry of a many-state call equals its one-state call
        rng = np.random.default_rng(17)
        q1 = rng.integers(0, 6, size=50)
        q2 = rng.integers(0, 6, size=50)
        for kind in ("mw", "wfq", "bp", "fifty"):
            vec = baseline_actions(kind, q1, q2, 5)
            for i in range(50):
                assert vec[i] == one_action(kind, 5, q1[i], q2[i])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            baseline_actions("rr", np.array([1]), np.array([1]), 4)


def assert_both_raise(exc, cfg, policy, match=None):
    """The exact chain and Monte Carlo reject a policy alike."""
    with pytest.raises(exc, match=match):
        exact_dvp_chain(cfg, policy)
    with pytest.raises(exc, match=match):
        simulate_policies(cfg, [policy], 1000, 3)


class TestResolvePolicy:
    """Both evaluators read a policy through mdp.policy_actions, so each
    malformed policy fails the same way in either."""

    def test_schedule_length_checked(self):
        cfg = ScenarioConfig(N=2, p_e=0.5, w=2, y=1, x1=0, x2=0)
        assert_both_raise(ValueError, cfg, Schedule(n1=(1,), N=2), match="1 frames")

    def test_foreign_table_rejected(self):
        cfg = ScenarioConfig(N=2, p_e=0.5, w=2, y=1, x1=0, x2=0)
        other = ScenarioConfig(N=2, p_e=0.4, w=2, y=1, x1=0, x2=0)
        assert_both_raise(ValueError, cfg, value_iteration(other), match="different")

    def test_unknown_name_rejected(self):
        cfg = ScenarioConfig(N=2, p_e=0.5, w=2, y=1, x1=0, x2=0)
        assert_both_raise(ValueError, cfg, "round-robin", match="round-robin")

    def test_non_policy_rejected(self):
        cfg = ScenarioConfig(N=2, p_e=0.5, w=2, y=1, x1=0, x2=0)
        assert_both_raise(TypeError, cfg, 3.14, match="float")

    def test_truncated_table_names_state(self):
        cfg = ScenarioConfig(N=2, p_e=0.5, w=2, y=1, x1=0, x2=0)
        text = value_iteration(cfg).to_text()
        # drop every epoch-1 row with q1 == 1 (reachable when frame 0 fails):
        # the text is refused before either evaluator could read it
        kept = [ln for ln in text.splitlines() if not ln.startswith("1 1")]
        with pytest.raises(ValueError, match=r"^no action stored for epoch=1 state=\(1,0\)$"):
            PolicyTable.from_text("\n".join(kept))


def laid_out(act, epoch, idx):
    """The actions that a policy laid out as rows and shift gives the
    states idx at epoch, as both evaluators read them."""
    return act.shift[epoch] + act.rows[epoch % len(act.rows)][idx]


class TestPolicyActions:
    """policy_actions reads every policy kind over state indices."""

    def test_index_gathers_match_the_rules_and_tables(self):
        for cfg in criterion_05_grid():
            states = backlog_states(cfg)
            # every state, in order and then reversed and repeated
            every = np.arange(len(states))
            idx = np.concatenate([every, every[::-1], every])
            table = value_iteration(cfg)
            schedule = Schedule(n1=(cfg.N, 0), N=cfg.N)
            for k in range(cfg.w):
                for kind in BASELINE_KINDS:
                    want = baseline_actions(kind, states.q1[idx], states.q2[idx], cfg.N)
                    got = laid_out(policy_actions(kind, cfg), k, idx)
                    assert np.array_equal(got, want), (cfg, kind)
                got = laid_out(policy_actions(table, cfg), k, idx)
                assert np.array_equal(got, table.actions[k, idx]), cfg
                got = laid_out(policy_actions(schedule, cfg), k, idx)
                assert np.array_equal(got, np.full(idx.shape, schedule.n1[k])), cfg

    def test_layout_of_each_form(self):
        # what the sampler keys its moves by: a schedule never lays out a
        # w x S array, a baseline one row and a table its own rows, as int64
        # whatever integers it was built from
        cfg = ScenarioConfig(N=3, p_e=0.4, w=3, y=1, x1=1, x2=1)
        S = len(backlog_states(cfg))
        schedule = policy_actions(Schedule(n1=(2, 0, 3), N=3), cfg)
        assert schedule.shift.tolist() == [2, 0, 3]
        assert schedule.rows.shape == (1, S) and not schedule.rows.any()
        baseline = policy_actions("mw", cfg)
        assert baseline.shift.tolist() == [0, 0, 0] and baseline.rows.shape == (1, S)
        table = value_iteration(cfg)
        assert policy_actions(table, cfg).rows is table.actions
        want = np.where(baseline.rows[0] == 3, np.arange(3)[:, None], 0)
        hand = PolicyTable(cfg, want.astype(np.int32), np.zeros((cfg.w + 1, S)))
        made = policy_actions(hand, cfg)
        assert made.shift.tolist() == [0, 0, 0]
        assert made.rows.dtype == np.int64 and np.array_equal(made.rows, want)

"""Finite-horizon MDP scheduler and the queue-state transition kernel.

The state is the joint backlog (q1, q2), the action is the number of slots
n1 given to the first link, and the per-frame reward is the expected number
of packets leaving the system. Backward value iteration yields the policy
maximizing expected total departures over the horizon; the resulting table
is computed once and looked up per frame.

A bound of the form  DVP <= total_load * E[1 / D(w)]  motivates maximizing
throughput as a proxy for minimizing DVP, but the expectation is undefined
on runs with zero departures, so no such bound is computed here; only the
throughput-maximizing policy itself is.

This module also hosts the queue-agnostic-to-queue-aware comparison rules
(max-weight, proportional split, backpressure, even split) as dynamic
policies over the same state space.
"""
from __future__ import annotations

import io
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import (
    CapExceededError,
    PolicyLookupError,
    ScenarioConfig,
    Schedule,
    backlog_states,
    binomial_pmf_table,
    check_schedule,
    next_states,
)

BASELINE_KINDS = ("mw", "wfq", "bp", "fifty")

# dense kernel budget: (N + 1) transition matrices over the state space
KERNEL_ENTRY_CAP = 50_000_000


def kernel_key(config: ScenarioConfig) -> tuple:
    """What a TransitionKernel depends on: N, p_e and the backlog bounds,
    not the deadline w."""
    return (config.N, config.p_e, config.q1_max, config.q2_max)


class TransitionKernel:
    """Dense per-action transition matrices P[a, i, j], the chance of moving
    from state i to state j of model.backlog_states in one frame under action
    a. pmf is the binomial table of one frame's service (binomial_pmf_table)."""

    def __init__(self, config: ScenarioConfig):
        self.key = kernel_key(config)
        n_actions = config.N + 1
        n_states = (config.q1_max + 1) * (2 * config.q2_max + 2 - config.q1_max) // 2
        entries = n_actions * n_states * n_states
        if entries > KERNEL_ENTRY_CAP:
            raise CapExceededError(
                f"dense kernel needs {entries} entries "
                f"({n_actions} actions x {n_states}^2 states), "
                f"cap is {KERNEL_ENTRY_CAP}",
                entries,
                KERNEL_ENTRY_CAP,
            )
        self.states = states = backlog_states(config)
        self.pmf = binomial_pmf_table(config.N, 1.0 - config.p_e)
        relayed, kept = next_states(config)
        row_start = (np.arange(n_states) * n_states)[:, None, None]
        P = np.zeros((n_actions, n_states, n_states))
        for a in range(n_actions):
            n2 = config.N - a
            # outcome (i, s1, s2) along axes 0, 1, 2: flattened, each entry's
            # contributions arrive in oracles.transition_probs' s1-major,
            # s2-minor order, and add.at sums them one by one, so every
            # entry equals it bit for bit
            nxt = relayed[:, : a + 1, None] + kept[:, None, : n2 + 1]
            prob = np.outer(self.pmf[a, : a + 1], self.pmf[n2, : n2 + 1])
            np.add.at(
                P[a].reshape(-1),
                (row_start + nxt).ravel(),
                np.broadcast_to(prob, nxt.shape).ravel(),
            )
        self.P = P

    def rewards(self) -> np.ndarray:
        """Stage rewards R[a, i] = oracles.reward(config, state i, a), each
        summed over r in its order, so bit for bit equal to it."""
        N = len(self.pmf) - 1
        R = np.empty((N + 1, len(self.states)))
        for a in range(N + 1):
            n2 = N - a
            acc = np.zeros(len(self.states))
            for r in range(n2 + 1):
                acc = acc + np.minimum(self.states.q2, r) * self.pmf[n2, r]
            R[a] = acc
        return R


def checked_kernel(
    config: ScenarioConfig, kernel: TransitionKernel | None = None
) -> TransitionKernel:
    """The kernel to evaluate config with: `kernel` when it was built for a
    scenario of the same kernel_key (any deadline), a new one when None.
    A kernel of another scenario raises ValueError."""
    if kernel is None:
        return TransitionKernel(config)
    if kernel.key != kernel_key(config):
        raise ValueError(
            f"kernel was built for (N, p_e, q1_max, q2_max) = {kernel.key}, "
            f"scenario needs {kernel_key(config)}"
        )
    return kernel


@dataclass(frozen=True, eq=False)
class PolicyTable:
    """Per-epoch action and value tables over model.backlog_states.

    actions[k, i] is the slot count for link 1 at epoch k in state i;
    values[k, i] the expected departures collectable from epoch k on. The
    terminal row values[w] is zero. Parsed tables may be partial, in which
    case missing lookups raise PolicyLookupError. A state outside the
    domain raises ValueError.
    """

    config: ScenarioConfig
    actions: np.ndarray  # (w, S) int, -1 marks a missing entry
    values: np.ndarray  # (w + 1, S) float

    def action(self, epoch: int, q1: int, q2: int) -> int:
        if not 0 <= epoch < self.config.w:
            raise ValueError(f"epoch {epoch} outside 0..{self.config.w - 1}")
        a = int(self.actions[epoch, backlog_states(self.config).index(q1, q2)])
        if a < 0:
            raise PolicyLookupError(
                f"no action stored for epoch={epoch} state=({q1},{q2})"
            )
        return a

    def value(self, epoch: int, q1: int, q2: int) -> float:
        return float(self.values[epoch, backlog_states(self.config).index(q1, q2)])

    def to_text(self) -> str:
        """Line format: one config header, then `epoch q1 q2 action value`
        rows with values rendered to 12 significant digits, one per stored
        entry of each epoch, states in the domain's order. The header gives
        p_e to 12 significant digits too, or in full where those would not
        read back as p_e."""
        c = self.config
        states = backlog_states(c)
        pe = f"{c.p_e:.12g}"
        if float(pe) != c.p_e:
            pe = repr(float(c.p_e))
        buf = io.StringIO()
        buf.write(
            f"# policy-table N={c.N} pe={pe} w={c.w} y={c.y} x1={c.x1} x2={c.x2}\n"
        )
        for k in range(c.w):
            for i, (q1, q2) in enumerate(zip(states.q1.tolist(), states.q2.tolist())):
                a = int(self.actions[k, i])
                if a >= 0:
                    buf.write(f"{k} {q1} {q2} {a} {self.values[k, i]:.12g}\n")
        return buf.getvalue()

    @classmethod
    def from_text(cls, text: str) -> "PolicyTable":
        lines = text.splitlines()
        if not lines or not lines[0].startswith("# policy-table "):
            raise ValueError("line 1: missing policy-table header")
        fields = {}
        for token in lines[0].removeprefix("# policy-table ").split():
            key, _, val = token.partition("=")
            fields[key] = val
        try:
            config = ScenarioConfig(
                N=int(fields["N"]),
                p_e=float(fields["pe"]),
                w=int(fields["w"]),
                y=int(fields["y"]),
                x1=int(fields["x1"]),
                x2=int(fields["x2"]),
            )
        except KeyError as exc:
            raise ValueError(f"line 1: header missing field {exc}") from exc
        states = backlog_states(config)
        actions = np.full((config.w, len(states)), -1, dtype=np.int64)
        values = np.zeros((config.w + 1, len(states)))
        for lineno, line in enumerate(lines[1:], start=2):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 5:
                raise ValueError(f"line {lineno}: expected 5 fields, got {len(parts)}")
            try:
                k, q1, q2, a = int(parts[0]), int(parts[1]), int(parts[2]), int(parts[3])
                v = float(parts[4])
                i = states.index(q1, q2)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
            if not 0 <= k < config.w:
                raise ValueError(f"line {lineno}: epoch {k} outside 0..{config.w - 1}")
            if not 0 <= a <= config.N:
                raise ValueError(f"line {lineno}: action {a} outside 0..{config.N}")
            actions[k, i], values[k, i] = a, v
        return cls(config=config, actions=actions, values=values)


def value_iteration(config: ScenarioConfig, kernel: TransitionKernel | None = None) -> PolicyTable:
    """Backward recursion from a zero terminal value; per epoch and state the
    action maximizing immediate expected departures plus expected
    continuation, ties broken toward the smallest n1. One sweep costs
    (N + 1) * |states| kernel rows, repeated for each of the w epochs."""
    kernel = checked_kernel(config, kernel)
    S = len(kernel.states)
    R = kernel.rewards()  # (A, S)
    actions = np.zeros((config.w, S), dtype=np.int64)
    values = np.zeros((config.w + 1, S))
    for k in range(config.w - 1, -1, -1):
        q_sa = R + kernel.P @ values[k + 1]  # (A, S)
        actions[k] = np.argmax(q_sa, axis=0)  # first (= smallest) maximizing action
        values[k] = q_sa.max(axis=0)
    return PolicyTable(config=config, actions=actions, values=values)


def baseline_actions(kind: str, q1: np.ndarray, q2: np.ndarray, N: int) -> np.ndarray:
    """Vectorized state-to-allocation rules for the comparison policies.

    mw: every slot to the longer queue, ties (including empty-empty) to the
        first link so fresh relays stay possible.
    wfq: n1 proportional to q1/(q1+q2), half-up rounding; an empty system
        falls back to the even split.
    bp: weights q1-q2 and q2; every slot to the strictly larger positive
        weight, otherwise the even split.
    fifty: even split, spare slot to the first link.
    """
    q1 = np.asarray(q1, dtype=np.int64)
    q2 = np.asarray(q2, dtype=np.int64)
    half_up = (N + 1) // 2
    if kind == "mw":
        return np.where(q1 >= q2, N, 0).astype(np.int64)
    if kind == "wfq":
        tot = q1 + q2
        safe = np.maximum(tot, 1)
        prop = (2 * N * q1 + safe) // (2 * safe)  # integer round-half-up
        return np.where(tot == 0, half_up, prop).astype(np.int64)
    if kind == "bp":
        w1 = q1 - q2
        w2 = q2
        n1 = np.full(q1.shape, half_up, dtype=np.int64)
        n1 = np.where((w1 > w2) & (w1 > 0), N, n1)
        n1 = np.where((w2 > w1) & (w2 > 0), 0, n1)
        return n1
    if kind == "fifty":
        return np.full(q1.shape, half_up, dtype=np.int64)
    raise ValueError(f"unknown baseline {kind!r}")


@dataclass(frozen=True, eq=False)
class PolicyActions:
    """A policy checked against a scenario and read over state indices into
    model.backlog_states(config): actions(epoch, idx) -> n1 of the states
    idx at that epoch.

    Where the actions are known without asking, rows lays them out over the
    domain: at epoch k state i takes shift[k] + rows[k % len(rows)][i]. A
    schedule is its per-epoch actions over one zero row, a baseline one row
    shared by every epoch, and a table one row per epoch. rows is None for
    a callable, which is asked once per distinct state in idx, and for a
    table that lacks entries, which raises PolicyLookupError naming the
    epoch and state whose action it lacks."""

    shift: np.ndarray
    rows: np.ndarray | None
    ask: Callable[[int, np.ndarray], np.ndarray]

    def __call__(self, epoch: int, idx: np.ndarray) -> np.ndarray:
        return self.ask(epoch, idx)


def policy_actions(policy, config: ScenarioConfig) -> PolicyActions:
    """Check a policy against the scenario once and return its
    PolicyActions, the one view of it that both evaluators read.

    A policy is a Schedule, a PolicyTable (a missing entry raises
    PolicyLookupError naming the epoch and state), a baseline name from
    BASELINE_KINDS, or a callable (epoch, q1, q2) -> n1 on ints. Every form
    but a callable is laid out over the domain once. The callable is asked
    once per distinct state, and an action that is not an integer in 0..N
    raises ValueError naming the epoch and state.
    """
    states = backlog_states(config)
    shift = np.zeros(config.w, dtype=np.int64)
    if isinstance(policy, Schedule):
        check_schedule(config, policy)
        shift = np.array(policy.n1, dtype=np.int64)
        rows = np.zeros((1, len(states)), dtype=np.int64)
    elif isinstance(policy, PolicyTable):
        if policy.config != config:
            raise ValueError("policy table was built for a different scenario")
        rows = policy.actions  # -1 marks an entry a partial table lacks
        if (rows < 0).any():

            def partial(epoch, idx):
                acts = rows[epoch][idx]
                missing = np.flatnonzero(acts < 0)
                if missing.size:
                    i = idx[missing[0]]
                    raise PolicyLookupError(
                        f"no action stored for epoch={epoch} "
                        f"state=({states.q1[i]},{states.q2[i]})"
                    )
                return acts

            return PolicyActions(shift, None, partial)
    elif isinstance(policy, str):
        if policy not in BASELINE_KINDS:
            raise ValueError(f"unknown policy name {policy!r}")
        # the rules ignore the epoch
        rows = baseline_actions(policy, states.q1, states.q2, config.N)[None, :]
    elif callable(policy):

        def rule(epoch, idx):
            index, inverse = np.unique(idx, return_inverse=True)
            acts = []
            for s1, s2 in zip(states.q1[index].tolist(), states.q2[index].tolist()):
                a = policy(epoch, s1, s2)
                # a float such as 2.0 is refused, not truncated to an action
                if not isinstance(a, numbers.Integral) or not 0 <= a <= config.N:
                    raise ValueError(
                        f"policy returned n1={a} outside the integers 0..{config.N} "
                        f"at epoch={epoch} state=({s1},{s2})"
                    )
                acts.append(a)
            return np.array(acts, dtype=np.int64)[inverse]

        return PolicyActions(shift, None, rule)
    else:
        raise TypeError(f"cannot interpret {type(policy).__name__} as a policy")

    def laid_out(epoch, idx):
        return shift[epoch] + rows[epoch % len(rows)][idx]

    return PolicyActions(shift, rows, laid_out)

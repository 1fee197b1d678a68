"""Finite-horizon MDP scheduler and the one-frame transition operator.

The state is the joint backlog (q1, q2), the action is the number of slots
n1 given to the first link, and the per-frame reward is the expected number
of packets leaving the system. Backward value iteration yields the policy
maximizing expected total departures over the horizon; the resulting table
is computed once and looked up per frame.

The two links serve independently within a frame, so the transition
operator (TransitionKernel) is kept factored, as a structured Markov chain
is (Plateau, SIGMETRICS 1985; Buchholz, Ciardo, Donatelli and Kemper,
INFORMS J. Computing 12, 2000): a relay table for link 1 and a matrix stack
for link 2 per action, acting on distributions and values held on the
(first_hop_load + 1) x (total_load + 1) backlog grid. Its size is capped in
bytes (KERNEL_BYTE_CAP), not in states. Every evaluator gets it from
transition_kernel. One store (_kept) holds what the exact path keeps, by
kernel_key and name, least recently used first: the kernel itself
("kernel"), the value-iteration table by frames to go, which serves every
deadline ("table"), and the action split of each state-dependent baseline
("mw", "wfq", "bp"), each entry charged its bytes, all within that same
cap. Only a kernel build drops entries; a keep that does not fit is
computed and returned, not kept.

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
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .model import (
    CapExceededError,
    ScenarioConfig,
    Schedule,
    _read_number,
    backlog_states,
    binomial_pmf_table,
    check_integer,
    check_schedule,
    pe_text,
)

BASELINE_KINDS = ("mw", "wfq", "bp", "fifty")

# the transition operator's budget: its tables and one step's temporaries,
# as many bytes as the dense kernel's old cap of 5e7 float64 entries
KERNEL_BYTE_CAP = 400_000_000


def kernel_key(config: ScenarioConfig) -> tuple:
    """What a TransitionKernel depends on: N, p_e and the backlog bounds,
    not the deadline w."""
    return (config.N, config.p_e, config.first_hop_load, config.total_load)


def _kernel_nbytes(key: tuple) -> int:
    """The bytes charged to the TransitionKernel of kernel_key key: its
    tables (P twice, D1 twice), its relay buffer, and the two (A, grid)
    arrays of one step."""
    N, _, first_hop_load, total_load = key
    A, R, C = N + 1, first_hop_load + 1, total_load + 1
    K = min(R, A)  # relay counts 0..min(first_hop_load, N)
    return 8 * (2 * A * C * C + 2 * A * R * K + R * K * C + 2 * A * R * C)


class ActionSplit(NamedTuple):
    """States split by action, for TransitionKernel.forward: masks[u] is
    True at the grid cells of the states under the u-th action used, and
    P and D1 hold those actions' link-2 matrices, (U, C, C), and relay
    tables, q1-major, (R, K, U)."""

    masks: np.ndarray
    P: np.ndarray
    D1: np.ndarray


class TransitionKernel:
    """The one-frame transition operator, factored into its two links.

    A distribution over states is held on the backlog grid, a
    (first_hop_load + 1) x (total_load + 1) array that is zero off the
    triangle of model.backlog_states. In a frame under action a (n1 = a
    slots to link 1), link 1 relays d1 = min(q1, Bin(a)) packets and link 2
    leaves r = max(q2 - Bin(N - a), 0), independently, and the next state
    is (q1 - d1, r + d1). So the operator is two small tables per action:
    D1[a, q1, d1], the chance of relaying d1, and the link-2 stack
    P[a, q2, r], the chance of leaving r. pmf is the binomial table of one
    frame's service (binomial_pmf_table) both are read from.

    forward moves a distribution one frame, backward takes a value on the
    grid one frame back under every action; each is a batched matmul and a
    fixed strided view that adds the relay shift (q1, r) -> (q1 - d1,
    r + d1). cells[i] is state i's cell in the flattened grid."""

    def __init__(self, config: ScenarioConfig):
        self.key = kernel_key(config)
        N = config.N
        A, R, C = N + 1, config.first_hop_load + 1, config.total_load + 1
        K = min(R, A)  # relay counts 0..min(first_hop_load, N)
        nbytes = _kernel_nbytes(self.key)
        if nbytes > KERNEL_BYTE_CAP:
            raise CapExceededError(
                f"transition operator needs {nbytes} bytes "
                f"({A} actions over a {R} x {C} backlog grid), "
                f"cap is {KERNEL_BYTE_CAP}",
                nbytes,
                KERNEL_BYTE_CAP,
            )
        self.states = states = backlog_states(config)
        self.cells = states.q1 * C + states.q2
        self.shape = (R, C)
        self.pmf = pmf = binomial_pmf_table(N, 1.0 - config.p_e)
        tail = np.cumsum(pmf[:, ::-1], axis=1)[:, ::-1]  # P{Bin(n) >= j}
        d1 = np.arange(K)
        # min(q1, Bin(a)) = d1 < q1 is Bin(a) = d1; = q1 is Bin(a) >= q1
        self.D1 = np.where(d1 < np.arange(R)[:, None], pmf[:, None, :K], 0.0)
        self.D1[:, d1, d1] = tail[:, :K]
        # max(q2 - Bin(n2), 0) = r > 0 is Bin(n2) = q2 - r; = 0 is Bin(n2) >= q2
        n2 = N - np.arange(A)
        q2 = np.arange(C)
        drop = q2[:, None] - q2
        self.P = np.where((drop >= 0) & (drop <= N), pmf[n2][:, np.clip(drop, 0, N)], 0.0)
        self.P[:, :, 0] = np.where(q2 <= N, tail[n2][:, np.minimum(q2, N)], 0.0)
        self._P_T = np.ascontiguousarray(self.P.transpose(0, 2, 1))
        self._D1_by_q1 = np.ascontiguousarray(self.D1.transpose(1, 2, 0))  # (R, K, A)
        for table in (self.P, self.D1, self._P_T, self._D1_by_q1):
            table.flags.writeable = False
        # relay buffer W[d1, q1, r], then zeros: row d1 of the view, at the
        # flattened cell of (q1, r), is W[d1, q1 + d1, r - d1], the entry
        # that lands there; every entry it reads outside that is zero
        S = R * C
        self._relay = np.zeros(K * S + (K - 1) * (C - 1))
        self._W = self._relay[: K * S].reshape(K, R, C)
        size = self._relay.itemsize
        self._shifted = as_strided(self._relay, (K, S), (size * (S + C - 1), size))
        # value buffer: zeros, then v; the view g[q1, d1, r] = v[q1 - d1, r + d1]
        pad = (K - 1) * (C - 1)
        self._value = np.zeros(pad + R * C)
        self._v = self._value[pad:]
        self._gathered = as_strided(
            self._value, (R, K, C), (size * C, size * (C - 1), size)
        )[:, ::-1]

    def start(self) -> np.ndarray:
        """The grid distribution with all its mass on the start state."""
        rho = np.zeros(self.shape)
        rho.flat[self.cells[self.states.start]] = 1.0
        return rho

    def split(self, acts: np.ndarray) -> list[ActionSplit]:
        """One ActionSplit per row of acts, a (rows, states) array of
        actions, state i of row k under acts[k, i], for forward to take.
        They share the tables of the actions that any row uses."""
        on_grid = np.full((len(acts), self.shape[0] * self.shape[1]), -1)
        on_grid[:, self.cells] = acts
        used = np.bincount(acts.ravel(), minlength=len(self.P)).nonzero()[0]
        masks = (on_grid[:, None, :] == used[:, None]).reshape(len(acts), len(used), *self.shape)
        P, D1 = self.P.take(used, axis=0), self._D1_by_q1.take(used, axis=2)
        return [ActionSplit(m, P, D1) for m in masks]

    def forward(self, rho: np.ndarray, a) -> np.ndarray:
        """The grid distribution one frame after rho: every state under
        action a, or, for an ActionSplit a from split, each state under its
        own; the split's masks cut rho into one grid per action, which that
        action's link-2 matrix moves and its relay table weights."""
        if isinstance(a, ActionSplit):
            moved = np.multiply(a.masks, rho) @ a.P
            np.matmul(a.D1, moved.transpose(1, 0, 2), out=self._W.transpose(1, 0, 2))
        else:
            np.multiply(self.D1[a].T[:, :, None], rho @ self.P[a], out=self._W)
        return np.add.reduce(self._shifted, axis=0).reshape(self.shape)

    def backward(self, v: np.ndarray) -> np.ndarray:
        """(A, grid): entry [a, q1, q2] is the expected value of v, a grid
        array, one frame after state (q1, q2) under action a. Off the
        triangle it is meaningless; on it, P or D1 weights v off the triangle
        by exact zeros, so finite values there do not change it. It is
        forward's adjoint: backward(v)[a] . rho equals v . forward(rho, a)."""
        self._v[:] = v.ravel()
        relayed = np.matmul(self._D1_by_q1.transpose(0, 2, 1), self._gathered)  # (R, A, C)
        return relayed.transpose(1, 0, 2) @ self._P_T

    def rewards(self) -> np.ndarray:
        """R[a, q2] = E[min(q2, Bin(N - a))], the stage reward at any state
        with that q2, summed over the service count r in oracles.reward's
        order, with exact zeros added past N - a, so equal to it bit for bit.
        Computed on each call: value_iteration calls it only to grow a kept
        table."""
        q2 = np.arange(self.shape[1])
        pmf2 = self.pmf[::-1]  # row a: Bin(N - a)
        R = np.zeros((len(pmf2), len(q2)))
        for r in range(len(pmf2)):
            R = R + np.minimum(q2, r) * pmf2[:, r, None]
        return R

    def violation(self, rho: np.ndarray) -> float:
        """The DVP of a grid distribution at the horizon: its mass on the
        non-empty states, summed directly, since 1 - P(empty) would cancel
        away every DVP below the operator's rounding drift (~1e-14)."""
        mass = rho.ravel()[self.cells]
        return min(float(np.add.reduce(mass[self.states.nonempty])), 1.0)


# what the exact path keeps: (kernel_key, name) -> (nbytes, value), least
# recently used first, all of it within KERNEL_BYTE_CAP
_kept: OrderedDict[tuple, tuple] = OrderedDict()


def _recall(key: tuple, name: str):
    """The value kept under (key, name), now the most recently used, or None."""
    entry = _kept.get((key, name))
    if entry is not None:
        _kept.move_to_end((key, name))
        return entry[1]


def _keep(key: tuple, name: str, arrays: tuple) -> None:
    """Freeze arrays and keep them under (key, name) in place of what that
    held, if their bytes fit in KERNEL_BYTE_CAP beside everything else kept.
    A keep drops nothing else: what does not fit is just not kept."""
    for a in arrays:
        a.flags.writeable = False
    _kept.pop((key, name), None)
    nbytes = sum(a.nbytes for a in arrays)
    if sum(n for n, _ in _kept.values()) + nbytes <= KERNEL_BYTE_CAP:
        _kept[key, name] = (nbytes, arrays)


def transition_kernel(config: ScenarioConfig) -> TransitionKernel:
    """The TransitionKernel of config's kernel_key (any deadline, any split
    of first_hop_load into y and x1), kept in _kept as the entry "kernel",
    charged _kernel_nbytes(key). Only a build drops entries: before it the
    least recently used go, one at a time, until the new kernel fits in
    KERNEL_BYTE_CAP beside those left, so everything kept takes no more
    than one kernel may. A key whose kernel alone is over the cap raises
    CapExceededError and drops none. So a run builds each key's kernel
    once while they fit: sweeps/dynamic-deadlines.sweep at two loss rates
    builds 8 where keeping only the last kernel built 32. Reuse gives the
    bits of a rebuild, since forward and backward overwrite a kernel's step
    buffers in full; for the same reason a kernel serves one thread at a
    time."""
    key = kernel_key(config)
    kernel = _recall(key, "kernel")
    if kernel is not None:
        return kernel
    nbytes = _kernel_nbytes(key)
    if nbytes <= KERNEL_BYTE_CAP:  # else TransitionKernel raises, dropping none
        held = sum(n for n, _ in _kept.values())
        while held + nbytes > KERNEL_BYTE_CAP:
            held -= _kept.popitem(last=False)[1][0]
    kernel = TransitionKernel(config)
    _kept[key, "kernel"] = (nbytes, kernel)
    return kernel


def _baseline_split(kind: str, config: ScenarioConfig) -> ActionSplit:
    """The ActionSplit of state-dependent baseline kind's one row of
    actions, which the backlog and N alone decide, so one per kernel_key:
    kept (_keep) under kind, split again only when not kept."""
    key = kernel_key(config)
    split = _recall(key, kind)
    if split is None:
        [split] = transition_kernel(config).split(policy_actions(kind, config).rows)
        _keep(key, kind, split)
    return split


@dataclass(frozen=True, eq=False)
class PolicyTable:
    """Per-epoch action and value tables over model.backlog_states.

    actions[k, i] is the slot count for link 1 at epoch k in state i;
    values[k, i] the expected departures collectable from epoch k on. The
    terminal row values[w] is zero. A table is complete and valid when
    made: actions must be an integer (w, S) array with every entry in 0..N
    and values a (w + 1, S) array, else ValueError; both are kept as
    read-only copies. action looks up epochs 0..w - 1; an epoch or a state
    outside the range raises ValueError.
    """

    config: ScenarioConfig
    actions: np.ndarray  # (w, S) int
    values: np.ndarray  # (w + 1, S) float

    def __post_init__(self):
        c = self.config
        states = backlog_states(c)
        actions, values = np.array(self.actions), np.array(self.values, dtype=float)
        if actions.shape != (c.w, len(states)) or values.shape != (c.w + 1, len(states)):
            raise ValueError(
                f"actions of shape {actions.shape} and values of shape {values.shape} "
                f"do not fit w={c.w} over {len(states)} states"
            )
        if actions.dtype.kind not in "iu":
            raise ValueError(f"actions must be integers, got {actions.dtype}")
        bad = (actions < 0) | (actions > c.N)
        if bad.any():
            k, i = np.argwhere(bad)[0]
            raise ValueError(
                f"action {actions[k, i]} outside 0..{c.N} "
                f"at epoch={k} state=({states.q1[i]},{states.q2[i]})"
            )
        for name, arr in (("actions", actions.astype(np.int64, copy=False)), ("values", values)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def action(self, epoch: int, q1: int, q2: int) -> int:
        epoch = self._epoch(epoch, self.config.w)
        return int(self.actions[epoch, backlog_states(self.config).index(q1, q2)])

    @staticmethod
    def _epoch(epoch, w: int) -> int:
        """epoch as an int (model.check_integer), ValueError outside 0..w - 1."""
        if not 0 <= check_integer("epoch", epoch) < w:
            raise ValueError(f"epoch {epoch} outside 0..{w - 1}")
        return int(epoch)

    def to_text(self) -> str:
        """Line format: one config header, then `epoch q1 q2 action value`
        rows with values rendered to 12 significant digits, one per state
        of each epoch, in the domain's order. The header gives
        p_e to 12 significant digits too, or in full where those would not
        read back as p_e."""
        c = self.config
        states = backlog_states(c)
        buf = io.StringIO()
        buf.write(
            f"# policy-table N={c.N} pe={pe_text(c.p_e)} w={c.w} y={c.y} x1={c.x1} x2={c.x2}\n"
        )
        for k in range(c.w):
            for i, (q1, q2) in enumerate(zip(states.q1.tolist(), states.q2.tolist())):
                buf.write(f"{k} {q1} {q2} {self.actions[k, i]} {self.values[k, i]:.12g}\n")
        return buf.getvalue()

    @classmethod
    def from_text(cls, text: str) -> "PolicyTable":
        lines = text.splitlines()
        if not lines or not lines[0].startswith("# policy-table "):
            raise ValueError("line 1: missing policy-table header")
        # the header's fields, in ScenarioConfig's order
        kinds = {"N": int, "pe": float, "w": int, "y": int, "x1": int, "x2": int}
        fields = {}
        for token in lines[0].removeprefix("# policy-table ").split():
            key, _, val = token.partition("=")
            if key not in kinds:
                raise ValueError(f"line 1: unknown field {key!r}")
            if key in fields:
                raise ValueError(f"line 1: repeated field {key!r}")
            fields[key] = val
        try:
            config = ScenarioConfig(
                *(_read_number(key, fields[key], kind) for key, kind in kinds.items())
            )
        except KeyError as exc:
            raise ValueError(f"line 1: header missing field {exc}") from exc
        except ValueError as exc:
            raise ValueError(f"line 1: {exc}") from exc
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
                k = cls._epoch(k, config.w)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
            if not 0 <= a <= config.N:
                raise ValueError(f"line {lineno}: action {a} outside 0..{config.N}")
            if actions[k, i] >= 0:
                raise ValueError(f"line {lineno}: repeated entry epoch={k} state=({q1},{q2})")
            actions[k, i], values[k, i] = a, v
        missing = np.argwhere(actions < 0)  # epoch-then-state order
        if missing.size:
            k, i = missing[0]
            raise ValueError(
                f"no action stored for epoch={k} state=({states.q1[i]},{states.q2[i]})"
            )
        return cls(config=config, actions=actions, values=values)


def _action_values(config, epochs, terminal, acts=None, rewards=None, best=np.maximum):
    """The backward recursion over transition_kernel(config), epochs frames
    back from V = terminal, a grid array: yields Q = rewards + backward(V),
    at the actions acts (all if None), flattened over the grid, one frame
    further back each time, and folds V = best.reduce(Q, axis=0) back in.
    V is finite off the triangle, where backward weights it by exact zeros,
    so any finite terminal there gives the same Q on the states."""
    kernel = transition_kernel(config)
    v = terminal
    for _ in range(epochs):
        q = kernel.backward(v)
        if rewards is not None:
            q += rewards
        if acts is not None:
            q = q[acts]
        q = q.reshape(len(q), -1)
        yield q
        v = best.reduce(q, axis=0)


def value_iteration(config: ScenarioConfig) -> PolicyTable:
    """Backward recursion from a zero terminal value; per epoch and state the
    action maximizing immediate expected departures plus expected
    continuation, ties broken toward the smallest n1 (_action_values, read
    on the states).

    Frames to go, not the deadline, decide an entry, so one table by
    frames to go is kept (_keep) per kernel_key as "table": actions[j] and
    values[j + 1] with j + 1 frames left, values[0] zero. A deadline past
    its rows grows it from its last values, put on the grid with zeros off
    the states, which _action_values ignores, and keeps the grown table in
    place of the shorter one; deadline w's table is its first w rows
    (w + 1 values), reversed and copied."""
    kernel = transition_kernel(config)
    cells, w = kernel.cells, config.w
    empty = (np.zeros((0, len(cells)), dtype=np.int64), np.zeros((1, len(cells))))
    actions, values = _recall(kernel.key, "table") or empty
    done = len(actions)
    if done < w:
        actions = np.concatenate([actions, np.zeros((w - done, len(cells)), dtype=np.int64)])
        values = np.concatenate([values, np.zeros((w - done, len(cells)))])
        v = np.zeros(kernel.shape)
        v.flat[cells] = values[done]
        rewards = kernel.rewards()[:, None, :]  # (A, 1, total_load + 1)
        passes = _action_values(config, w - done, v, rewards=rewards)
        for j, q in zip(range(done, w), passes):
            q_sa = q[:, cells]
            actions[j] = np.argmax(q_sa, axis=0)  # first (= smallest) maximizing action
            values[j + 1] = q_sa.max(axis=0)
        _keep(kernel.key, "table", (actions, values))
    return PolicyTable(config=config, actions=actions[w - 1 :: -1], values=values[w::-1])


def violation_to_go(config: ScenarioConfig, acts: np.ndarray) -> list[np.ndarray]:
    """The violation recursion (_action_values): V_w indicates the non-empty
    states, Q_k = backward(V_{k+1})[acts] and V_k = Q_k.min(0). Q[k] @
    rho.ravel() is the least DVP that each action at frame k, then the best
    closed-loop play over acts, reaches from rho; over every action 0..N,
    Q[0]'s least entry at the start state is DVP*."""
    kernel = transition_kernel(config)
    v = np.zeros(kernel.shape)
    v.flat[kernel.cells[kernel.states.nonempty]] = 1.0
    return list(_action_values(config, config.w, v, acts, best=np.minimum))[::-1]


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
    """A policy checked against a scenario and laid out over state indices
    into model.backlog_states(config): at epoch k state i takes
    shift[k] + rows[k % len(rows)][i], an integer in 0..N. A schedule is its
    per-epoch actions over one zero row, a baseline one row shared by every
    epoch, and a table one row per epoch."""

    shift: np.ndarray
    rows: np.ndarray


def policy_actions(policy, config: ScenarioConfig) -> PolicyActions:
    """Check a policy against the scenario and lay it out over the domain
    as PolicyActions, the one view of it that both evaluators read, before
    either does any work.

    A policy is a Schedule, a PolicyTable (complete and in range by
    construction) or a baseline name from BASELINE_KINDS.
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
        rows = policy.actions
    elif isinstance(policy, str):
        if policy not in BASELINE_KINDS:
            raise ValueError(f"unknown policy name {policy!r}")
        # the rules ignore the epoch
        rows = baseline_actions(policy, states.q1, states.q2, config.N)[None, :]
    else:
        raise TypeError(f"cannot interpret {type(policy).__name__} as a policy")
    return PolicyActions(shift, rows)

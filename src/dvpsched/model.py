"""Core model of the two-hop relay path: scenario parameters, slot schedules,
the backlog-state domain, binomial per-frame service, and the frame update.

Time is slotted and grouped into frames of N slots. Each frame's slots are
split between the two links (n1 + n2 = N). A slot carries one transmission
attempt that succeeds independently with probability 1 - p_e, so the service
granted to link i in a frame is Binomial(n_i, 1 - p_e). Packets leaving the
first queue during a frame become servable at the second queue in the next
frame.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np


class CapExceededError(RuntimeError):
    """An enumeration would exceed its configured size cap."""

    def __init__(self, message: str, estimate: int, cap: int):
        super().__init__(message)
        self.estimate = estimate
        self.cap = cap


# the least value of each integer field of ScenarioConfig
SCENARIO_MINIMA = {"N": 1, "w": 1, "y": 1, "x1": 0, "x2": 0}


def is_integer(value) -> bool:
    """The package's one integer rule: an integer, numpy's included, not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_integer(name: str, value, least: int | None = None) -> int:
    """value as a plain int: TypeError naming name unless is_integer(value),
    ValueError if it is below least."""
    if not is_integer(value):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return int(value)


def check_scenario_field(name: str, value):
    """value as ScenarioConfig stores its field name: a count through
    check_integer, least SCENARIO_MINIMA[name], and p_e as a float in [0, 1]
    (TypeError unless a real number other than a bool, else ValueError)."""
    if name != "p_e":
        return check_integer(name, value, SCENARIO_MINIMA[name])
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"p_e must be a real number, got {value!r}")
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"p_e must be in [0, 1], got {value}")
    return float(value)


@dataclass(frozen=True)
class ScenarioConfig:
    """One problem instance, the one record of a scenario (a sweep cell and
    its rows carry one).

    N: slots per frame; p_e: per-slot packet error rate; w: deadline in
    frames; y: size of the time-critical batch arriving at frame 0;
    x1, x2: initial backlogs of the first and second queue. Each field is
    checked and stored by check_scenario_field: the counts as int, p_e as
    float, numpy numbers included.
    """

    N: int
    p_e: float
    w: int
    y: int
    x1: int
    x2: int

    def __post_init__(self):
        for name in (*SCENARIO_MINIMA, "p_e"):
            object.__setattr__(self, name, check_scenario_field(name, getattr(self, name)))

    @property
    def total_load(self) -> int:
        """Packets that must clear the second queue, y + x1 + x2: also the
        largest reachable total backlog q1 + q2, and so second-queue one."""
        return self.y + self.x1 + self.x2

    @property
    def first_hop_load(self) -> int:
        """Packets that must clear the first queue, y + x1: also the largest
        reachable first-queue backlog."""
        return self.y + self.x1


def pe_text(p_e: float) -> str:
    """p_e as printed in a policy-table header or a sweep row: 12
    significant digits, or in full where those would not read back as p_e."""
    text = f"{p_e:.12g}"
    return text if float(text) == p_e else repr(float(p_e))


@dataclass(frozen=True)
class Schedule:
    """A per-frame slot split fixed for the whole horizon, stored as the
    link-1 allocations; link 2 implicitly gets the remaining N - n1 slots.
    N and each n1[k] must be integers (check_integer), stored as int."""

    n1: tuple[int, ...]
    N: int

    def __post_init__(self):
        object.__setattr__(self, "N", check_integer("N", self.N, 1))
        n1 = tuple(check_integer(f"n1[{k}]", v) for k, v in enumerate(self.n1))
        object.__setattr__(self, "n1", n1)
        for k, v in enumerate(n1):
            if not 0 <= v <= self.N:
                raise ValueError(f"n1[{k}]={v} outside 0..{self.N}")

    @property
    def n2(self) -> tuple[int, ...]:
        return tuple(self.N - v for v in self.n1)

    def __len__(self) -> int:
        return len(self.n1)


def check_schedule(config: ScenarioConfig, schedule: Schedule) -> None:
    """Raise ValueError unless schedule has config's w frames of N slots."""
    if len(schedule) != config.w:
        raise ValueError(f"schedule has {len(schedule)} frames, deadline needs {config.w}")
    if schedule.N != config.N:
        raise ValueError(f"schedule N={schedule.N} differs from config N={config.N}")


@dataclass(frozen=True, eq=False)
class BacklogStates:
    """The state domain: the joint backlogs reachable from the start state
    (y + x1, x2). Neither queue 1 nor the total backlog ever grows, so it is
    the triangle {q1 <= first_hop_load, q1 + q2 <= total_load}, numbered
    row-major: q1[i], q2[i] are state i's backlogs, lookup[q1, q2] its index
    (-1 outside the domain), start the start state's index, and nonempty
    marks the states with a packet left."""

    q1: np.ndarray
    q2: np.ndarray
    lookup: np.ndarray
    start: int
    nonempty: np.ndarray

    def __len__(self) -> int:
        return len(self.q1)

    def index(self, q1: int, q2: int) -> int:
        rows, cols = self.lookup.shape
        if 0 <= q1 < rows and 0 <= q2 < cols and self.lookup[q1, q2] >= 0:
            return int(self.lookup[q1, q2])
        raise ValueError(f"state ({q1},{q2}) outside the backlog triangle "
                         f"q1 <= {rows - 1}, q1 + q2 <= {cols - 1}")


def backlog_states(config: ScenarioConfig) -> BacklogStates:
    """The state domain of config, which depends only on its first_hop_load
    and total_load: configs with equal bounds share one, whose arrays are
    read-only."""
    return _backlog_states(config.first_hop_load, config.total_load)


@functools.lru_cache(maxsize=64)
def _backlog_states(first_hop_load: int, total_load: int) -> BacklogStates:
    grid = np.add.outer(np.arange(first_hop_load + 1), np.arange(total_load + 1))
    q1, q2 = np.nonzero(grid <= total_load)
    lookup = np.full(grid.shape, -1, dtype=np.int64)
    lookup[q1, q2] = np.arange(len(q1))
    nonempty = q1 + q2 > 0
    for arr in (q1, q2, lookup, nonempty):
        arr.flags.writeable = False
    start = int(lookup[first_hop_load, total_load - first_hop_load])
    return BacklogStates(q1, q2, lookup, start, nonempty)


def binomial_pmf(n: int, p: float, r: int) -> float:
    """P{Binomial(n, p) = r}, computed in log space for stability at the
    cumulative trial counts (up to a few hundred) this toolkit produces.
    n and r must be integers (check_integer), never truncated to one."""
    n = check_integer("n", n, 0)
    r = check_integer("r", r)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if r < 0 or r > n:
        raise ValueError(f"r={r} outside 0..{n}")
    if p == 0.0:
        return 1.0 if r == 0 else 0.0
    if p == 1.0:
        return 1.0 if r == n else 0.0
    log_pmf = (
        math.lgamma(n + 1)
        - math.lgamma(r + 1)
        - math.lgamma(n - r + 1)
        + r * math.log(p)
        + (n - r) * math.log(1.0 - p)
    )
    return math.exp(log_pmf)


@functools.lru_cache(maxsize=64)
def binomial_pmf_table(N: int, p: float) -> np.ndarray:
    """table[n, r] = binomial_pmf(n, p, r) for 0 <= r <= n <= N, and 0 for
    r > n: every binomial probability of one frame's service, each entry
    taken from binomial_pmf itself. Cached, since every transition kernel
    of a frame size and loss rate reads the same table, so the array is
    read-only."""
    table = np.zeros((N + 1, N + 1))
    for n in range(N + 1):
        for r in range(n + 1):
            table[n, r] = binomial_pmf(n, p, r)
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=64)
def binomial_cdf_table(n_max: int, p: float) -> np.ndarray:
    """cdf[n, r] = P{Binomial(n, p) <= r} for 0 <= r < n <= n_max, and 1
    for r >= n. Each row is the running sum of binomial_pmf_table's row,
    added in oracles.binomial_cdf's order and capped at 1 as it is, so every
    entry equals it bit for bit. Cached, so the array is read-only."""
    cdf = np.minimum(np.cumsum(binomial_pmf_table(n_max, p), axis=1), 1.0)
    cdf[np.arange(n_max + 1) >= np.arange(n_max + 1)[:, None]] = 1.0
    cdf.flags.writeable = False
    return cdf


"""DVP reference evaluator owned by the benchmark, independent of dvpsched.

It propagates the joint backlog distribution {(q1, q2): probability} frame
by frame under a policy's actions. In a frame with action n1 the first
queue loses d1 = min(q1, Bin(n1, 1 - pe)) packets and the second loses
d2 = min(q2, Bin(N - n1, 1 - pe)); the two draws are independent and the
d1 relayed packets join the second queue after it was served. Binomial
probabilities come from math.comb, the probability of draining a queue is
summed term by term rather than taken as one minus the rest, and the DVP
is the mass summed directly over the non-empty states at the horizon. No
step subtracts one probability from another, so small DVPs keep their
relative accuracy.

The baseline rules below are written from their documented definitions
(max-weight, weighted-fair, backpressure and even split), not imported.
"""
from __future__ import annotations

import math
from collections import defaultdict


def _pmf_row(n: int, success: float) -> list[float]:
    fail = 1.0 - success
    return [math.comb(n, j) * success**j * fail ** (n - j) for j in range(n + 1)]


class Reference:
    """Exact DVP and expected departures of one scenario under any policy
    given as a function (epoch, q1, q2) -> n1."""

    def __init__(self, N: int, pe: float, w: int, y: int, x1: int, x2: int):
        self.N, self.pe, self.w, self.y, self.x1, self.x2 = N, pe, w, y, x1, x2
        self._served: dict[tuple[int, int], list[tuple[int, float]]] = {}

    def _served_dist(self, slots: int, backlog: int) -> list[tuple[int, float]]:
        """Distribution of min(backlog, Bin(slots, 1 - pe)) as (d, prob)."""
        key = (slots, backlog)
        dist = self._served.get(key)
        if dist is None:
            if backlog == 0 or slots == 0:
                dist = [(0, 1.0)]
            else:
                row = _pmf_row(slots, 1.0 - self.pe)
                if backlog >= slots:
                    dist = list(enumerate(row))
                else:
                    dist = [(d, row[d]) for d in range(backlog)]
                    dist.append((backlog, math.fsum(row[backlog:])))
            self._served[key] = dist
        return dist

    def evaluate(self, action) -> tuple[float, float]:
        """(DVP, expected departures) of the policy `action`."""
        dist = {(self.y + self.x1, self.x2): 1.0}
        for epoch in range(self.w):
            nxt: dict[tuple[int, int], float] = defaultdict(float)
            for (q1, q2), p in dist.items():
                n1 = action(epoch, q1, q2)
                if not 0 <= n1 <= self.N:
                    raise ValueError(f"action {n1} outside 0..{self.N} at ({q1},{q2})")
                for d1, p1 in self._served_dist(n1, q1):
                    for d2, p2 in self._served_dist(self.N - n1, q2):
                        nxt[(q1 - d1, q2 - d2 + d1)] += p * p1 * p2
            dist = nxt
        total = self.y + self.x1 + self.x2
        dvp = math.fsum(p for (q1, q2), p in dist.items() if q1 + q2 > 0)
        departures = math.fsum(p * (total - q1 - q2) for (q1, q2), p in dist.items())
        return dvp, departures


def schedule_action(n1: tuple[int, ...]):
    """A semi-static schedule: frame k gets n1[k] slots on the first link."""
    return lambda epoch, q1, q2: n1[epoch]


def baseline_action(kind: str, N: int):
    """The documented comparison rules.

    mw: every slot to the longer queue, ties to the first link.
    wfq: n1 = N * q1 / (q1 + q2) rounded half up; an empty system gets the
        even split.
    bp: weights q1 - q2 and q2; every slot to the strictly larger positive
        weight, otherwise the even split.
    fifty: even split, the spare slot of an odd frame to the first link.
    """
    half = (N + 1) // 2
    if kind == "mw":
        return lambda epoch, q1, q2: N if q1 >= q2 else 0
    if kind == "wfq":
        def wfq(epoch, q1, q2):
            tot = q1 + q2
            return half if tot == 0 else (2 * N * q1 + tot) // (2 * tot)
        return wfq
    if kind == "bp":
        def bp(epoch, q1, q2):
            w1, w2 = q1 - q2, q2
            if w1 > w2 and w1 > 0:
                return N
            if w2 > w1 and w2 > 0:
                return 0
            return half
        return bp
    if kind == "fifty":
        return lambda epoch, q1, q2: half
    raise ValueError(f"unknown baseline {kind!r}")


def wilson(successes: int, n: int, z: float) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    p = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = z / denom * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n))
    return max(0.0, center - half), min(1.0, center + half)

"""Monte Carlo DVP estimation with reproducible, order-independent streams.

Each replication owns a fixed range of counter blocks of a Philox generator
keyed by the seed (one block budget per replication, sized by the horizon),
so the random inputs of replication r never depend on chunking or worker
scheduling: identical (config, spec) give bit-identical results. Binomial
service draws use one raw 64-bit Philox word per link per frame, inverted
through the binomial distribution function at the uniform
(word >> 11) * 2**-53 that Generator.random makes of it. A guide table
(indexed search, Chen & Asau 1974) resolves most draws from the word's top
GUIDE_BITS bits, the uniform's bucket; only the few in a bucket holding a
threshold form the uniform and are counted exactly against the whole row,
so the draws, and the stream, are the same as with full counting. Each
replication's backlog is one index into model.backlog_states, which a
frame moves by adding two gathers from model.next_states' parts.
simulate_policies runs several policies of one scenario over the same
words (common random numbers), drawing each chunk once for all of them.
"""
from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .mdp import policy_actions
from .model import ScenarioConfig, backlog_states, binomial_cdf_table, next_states

WILSON_Z = 1.959963984540054  # two-sided 95%
DEFAULT_CHUNK = 1 << 14
GUIDE_BITS = 10  # 1 024 buckets; fewer than 1% of them hold a threshold for N <= 20


@dataclass(frozen=True, eq=False)
class SimSpec:
    """Replication count, stream seed, and the policy to simulate: a
    schedule, policy table, baseline name or callable, as for
    exact_dvp_chain (see mdp.policy_actions)."""

    replications: int
    seed: int
    policy: object

    def __post_init__(self):
        check_counts(self.replications, self.seed)


def check_counts(replications, seed) -> None:
    """Raise TypeError unless both are integers (not bools), ValueError
    unless replications >= 1 and the seed fits in 64 bits."""
    for name, value in (("replications", replications), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise TypeError(f"{name} must be an integer, got {value!r}")
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 bits")


@dataclass(frozen=True)
class SimResult:
    """The estimate and its Wilson interval. wall_s (the wall time of the
    call that produced the result, so the results of one simulate_policies
    call share it) and exact_fallbacks (the draws the guide table left to
    exact counting) say how it was obtained and take no part in equality."""

    dvp_hat: float
    ci_low: float
    ci_high: float
    mean_departures: float
    replications: int
    wall_s: float = field(default=0.0, compare=False)
    exact_fallbacks: int = field(default=0, compare=False)


def wilson_interval(successes: int, n: int, z: float = WILSON_Z) -> tuple[float, float]:
    """Wilson score interval; stays sane for counts of 0 or n."""
    p_hat = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p_hat + z2 / (2.0 * n)) / denom
    half = (z / denom) * np.sqrt(p_hat * (1.0 - p_hat) / n + z2 / (4.0 * n * n))
    # cancellation at counts of 0 or n must not push the interval off the
    # point estimate
    lo = min(max(0.0, float(center - half)), p_hat)
    hi = max(min(1.0, float(center + half)), p_hat)
    return lo, hi


def _inversion_table(N: int, q: float) -> np.ndarray:
    """cdf[a, r] = P{Binomial(a, q) <= r} for r < a, and 1 beyond, so that
    counting thresholds <= u inverts the distribution: the first max(N, 1)
    columns of model.binomial_cdf_table, binomial_cdf's sums term for term."""
    return binomial_cdf_table(N, q)[:, : max(N, 1)]


def _guide_table(cdf: np.ndarray) -> np.ndarray:
    """Flat g[a * 2**GUIDE_BITS + b] = #{cdf[a] <= u}, the same for every u
    in bucket [b, b + 1) / 2**GUIDE_BITS, or -1 where a threshold lies
    strictly inside the bucket and the count depends on u."""
    edges = np.arange((1 << GUIDE_BITS) + 1) / (1 << GUIDE_BITS)
    rows = []
    for thresholds in cdf:
        at_low = np.searchsorted(thresholds, edges[:-1], side="right")
        below_high = np.searchsorted(thresholds, edges[1:], side="left")
        rows.append(np.where(at_low == below_high, at_low, -1))
    return np.concatenate(rows)


def _draw(buckets, words, acts, cdf, guide):
    """#{cdf[acts[i]] <= u[i]} for each i, where u[i] = (words[i] >> 11)
    * 2**-53 is the uniform Generator.random makes of the raw Philox word
    and buckets[i] = words[i] >> (64 - GUIDE_BITS) is its guide bucket;
    and how many draws needed the exact count, the only ones that form u."""
    s = guide[(acts << GUIDE_BITS) + buckets]
    exact = np.flatnonzero(s < 0)
    if exact.size:
        u = (words[exact] >> 11) * 2.0**-53
        s[exact] = (u[:, None] >= cdf[acts[exact]]).sum(axis=1)
    return s, exact.size


def simulate(
    config: ScenarioConfig, spec: SimSpec, chunk_size: int = DEFAULT_CHUNK
) -> SimResult:
    """Estimate DVP and expected departures for a policy; Wilson 95% CI.

    The one-policy call of simulate_policies, which says how the policy is
    asked for actions. The result does not depend on chunk_size. A run is
    a violation iff any packet is still queued after the final frame.
    """
    return simulate_policies(
        config, [spec.policy], spec.replications, spec.seed, chunk_size
    )[0]


def simulate_policies(
    config: ScenarioConfig,
    policies,
    replications: int,
    seed: int,
    chunk_size: int = DEFAULT_CHUNK,
) -> list[SimResult]:
    """simulate(config, SimSpec(replications, seed, policy), chunk_size)
    for each policy, in order, over one stream: each chunk's Philox words
    and guide buckets are made once and every policy's frames run over
    them in turn (common random numbers). A policy's result, its
    exact_fallbacks included, depends on neither the other policies, nor
    their order, nor chunk_size; the results share the call's wall_s.

    Every policy is checked against the scenario before any draw and then
    asked for the actions of a whole chunk of replications per frame, so
    a callable is called once per distinct state in each chunk and frame.
    """
    check_counts(replications, seed)
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    start = time.perf_counter()
    actions = [policy_actions(policy, config) for policy in policies]
    if not actions:
        return []
    w, N = config.w, config.N
    states = backlog_states(config)
    backlog = states.q1 + states.q2
    relayed, kept = (part.ravel() for part in next_states(config))
    cdf = _inversion_table(N, 1.0 - config.p_e)
    guide = _guide_table(cdf)
    words_per_rep = 2 * w
    blocks_per_rep = -(-words_per_rep // 4)  # Philox yields 4 words per block
    row = 4 * blocks_per_rep

    violations = [0] * len(actions)
    departed = [0] * len(actions)
    fallbacks = [0] * len(actions)
    done = 0
    while done < replications:
        n = min(chunk_size, replications - done)
        philox = np.random.Philox(key=seed, counter=done * blocks_per_rep)
        words = philox.random_raw(n * row).reshape(n, row)[:, :words_per_rep]
        # each bucket is below 2**GUIDE_BITS, so 16 bits hold it
        buckets = np.empty(words.shape, dtype=np.uint16)
        np.right_shift(words, 64 - GUIDE_BITS, out=buckets, casting="unsafe")
        for i, act in enumerate(actions):
            idx = np.full(n, states.start)
            for k in range(w):
                acts = act(k, idx)
                s1, f1 = _draw(buckets[:, k], words[:, k], acts, cdf, guide)
                s2, f2 = _draw(buckets[:, w + k], words[:, w + k], N - acts, cdf, guide)
                fallbacks[i] += f1 + f2
                idx *= N + 1
                idx = relayed[idx + s1] + kept[idx + s2]
            violations[i] += int(np.count_nonzero(states.nonempty[idx]))
            departed[i] += n * config.total_load - int(backlog[idx].sum())
        done += n

    wall_s = time.perf_counter() - start
    results = []
    for v, d, f in zip(violations, departed, fallbacks):
        lo, hi = wilson_interval(v, replications)
        results.append(SimResult(
            dvp_hat=v / replications,
            ci_low=lo,
            ci_high=hi,
            mean_departures=d / replications,
            replications=replications,
            wall_s=wall_s,
            exact_fallbacks=f,
        ))
    return results

"""Monte Carlo DVP estimation with reproducible, order-independent streams.

Each replication owns a fixed range of counter blocks of a Philox generator
keyed by the seed (one block budget per replication, sized by the horizon),
so the random inputs of replication r never depend on chunking or worker
scheduling: identical arguments give bit-identical results. Binomial
service draws use one raw 64-bit Philox word per link per frame, inverted
through the binomial distribution function at the uniform
(word >> 11) * 2**-53 that Generator.random makes of it.

A draw is read as its cell: [0, 1) is cut at every threshold of the
inversion table, so a cell fixes every row's service count. Each chunk
maps its words to cells once for all policies, by a guide table (indexed
search, Chen & Asau 1974) on the word's top GUIDE_BITS bits; only the few
words in a bucket that a threshold cuts (see GUIDE_BITS) form the uniform
and search the cuts, so the draws, and the stream, are the same as with
full counting. Each replication's backlog is one index into
model.backlog_states, which a frame moves by two lookups in one table of
index changes per link, action, queue backlog and cell (Moves), keyed by
the policy's layout over the domain (mdp.PolicyActions). Every
replication starts at states.start, so frame 0 reads each link's change
from a vector over the cells, one pair per policy. Link 1 only moves
packets from queue 1 to queue 2, so the last frame adds link 2's change
to the backlog and makes no next index. simulate_policies, the one entry
point, runs one or several policies of one scenario over the same words
(common random numbers), drawing each chunk once for all of them.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .mdp import policy_actions
from .model import (
    CapExceededError,
    ScenarioConfig,
    backlog_states,
    binomial_cdf_table,
    check_integer,
)

WILSON_Z = 1.959963984540054  # two-sided 95%
CHUNK = 1 << 14  # replications per chunk; no result depends on it
WORD_BLOCK = 1 << 10  # replications whose words are made and mapped to cells at once
MOVES_BYTE_CAP = 100_000_000  # Moves.table: 8 (N+1)(first_hop_load+N+2) bytes per draw cell
# 16 384 buckets (128 kB); a threshold lies strictly inside 0.12 % of them
# at S, 0.28 % at the M-size cell (10, 0.5, 8, 5, 5, 5) and 1.08 % at
# N = 20, pe = 0.4, and only the draws in those buckets search the cuts
GUIDE_BITS = 14


def check_counts(replications, seed) -> None:
    """Raise TypeError unless both are integers (model.check_integer),
    ValueError unless replications >= 1 and the seed fits in 64 bits."""
    check_integer("replications", replications, 1)
    if not 0 <= check_integer("seed", seed) < 2**64:
        raise ValueError("seed must fit in 64 bits")


@dataclass(frozen=True)
class SimResult:
    """The estimate and its Wilson interval. wall_s, the wall time of the
    call that produced the result, and searched_draws, the call's draws
    that fell in a cut guide bucket and searched the cuts (Cells.of_words),
    are shared by the results of one simulate_policies call and take no
    part in equality."""

    dvp_hat: float
    ci_low: float
    ci_high: float
    mean_departures: float
    replications: int
    wall_s: float = field(default=0.0, compare=False)
    searched_draws: int = field(default=0, compare=False)


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """Wilson score interval at WILSON_Z; stays sane for counts of 0 or n."""
    p_hat = successes / n
    z = WILSON_Z
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
    columns of model.binomial_cdf_table, oracles.binomial_cdf term for term."""
    return binomial_cdf_table(N, q)[:, : max(N, 1)]


@dataclass(frozen=True, eq=False)
class Cells:
    """[0, 1) cut at 0 and at every threshold of an inversion table below
    1. Cell c is [cuts[c], cuts[c + 1]); in it, row a's draw counts[a, c] =
    #{cdf[a] <= u} is the same for every u. bucket_cell[b] is the cell of
    every u in guide bucket [b, b + 1) / 2**GUIDE_BITS, or -1 where a cut
    lies strictly inside the bucket."""

    cuts: np.ndarray
    bucket_cell: np.ndarray
    counts: np.ndarray

    @classmethod
    def of(cls, cdf: np.ndarray) -> "Cells":
        buckets = 1 << GUIDE_BITS
        cuts = np.unique(np.append(cdf, 0.0))
        cuts = cuts[cuts < 1.0]
        bucket_cell = np.searchsorted(cuts, np.arange(buckets) / buckets, side="right") - 1
        # cut * buckets is exact, so a cut lies strictly inside the bucket
        # of its integer part unless it is an integer, a bucket's edge
        scaled = cuts * buckets
        bucket_cell[scaled[scaled != np.floor(scaled)].astype(np.intp)] = -1
        counts = np.stack([np.searchsorted(row, cuts, side="right") for row in cdf])
        return cls(cuts, bucket_cell, counts)

    def of_words(self, words: np.ndarray) -> tuple[np.ndarray, int]:
        """The cells of raw Philox words, transposed, and how many words
        searched the cuts: out[j, r] is the cell of the uniform
        (words[r, j] >> 11) * 2**-53. Only the words in a cut bucket form
        the uniform, the one Generator.random makes, and search the cuts
        for it."""
        out = np.empty(words.shape[::-1], dtype=np.int64)
        np.right_shift(words.T, 64 - GUIDE_BITS, out=out, casting="unsafe")
        self.bucket_cell.take(out, out=out, mode="clip")
        flat = out.reshape(-1)
        inside = np.flatnonzero(flat < 0)
        if inside.size:
            j, r = np.divmod(inside, out.shape[1])
            u = (words[r, j] >> 11) * 2.0**-53
            # in ascending order the search runs without backtracking
            order = np.argsort(u)
            flat[inside[order]] = np.searchsorted(self.cuts, u[order], side="right") - 1
        return out, inside.size


@dataclass(frozen=True, eq=False)
class Moves:
    """One frame's move of a state index, as two lookups in one table.
    Under action a and cells c1, c2 (the draws of links 1 and 2), state i
    of model.backlog_states moves to i + table[key1[i] + a * step1 + c1] +
    table[key2[i] + a * step2 + c2]. The first lookup is link 1's change
    R(q1 - d1) + d1 - R(q1), with R(q) the index of (q, 0) and d1 =
    min(q1, s1); the second is -min(q2, s2), the same for every q2 >= N,
    with s2 drawn for N - a slots. Link 1 leaves the backlog q1 + q2
    unchanged, so the second lookup alone is the backlog's change: the
    last frame of simulate_policies needs no first lookup."""

    table: np.ndarray
    key1: np.ndarray
    key2: np.ndarray
    step1: int
    step2: int

    @classmethod
    def of(cls, config: ScenarioConfig, cells: Cells) -> "Moves":
        """The table for config's scenario and draw cells; one of more than
        MOVES_BYTE_CAP bytes raises CapExceededError before it is made."""
        states = backlog_states(config)
        N, C = config.N, len(cells.cuts)
        row_start = states.lookup[:, 0]
        step1, step2 = len(row_start) * C, (N + 1) * C
        nbytes = 8 * (N + 1) * (step1 + step2)
        if nbytes > MOVES_BYTE_CAP:
            raise CapExceededError(
                f"Monte Carlo move table needs {nbytes} bytes "
                f"({N + 1} actions, {len(row_start)} first-queue backlogs, {C} draw cells), "
                f"cap is {MOVES_BYTE_CAP}",
                nbytes,
                MOVES_BYTE_CAP,
            )
        table = np.empty((N + 1) * (step1 + step2), dtype=np.int64)
        link1 = table[: (N + 1) * step1].reshape(N + 1, len(row_start), C)
        link2 = table[(N + 1) * step1 :].reshape(N + 1, N + 1, C)
        q1 = np.arange(len(row_start))[:, None]
        for a in range(N + 1):
            d1 = np.minimum(q1, cells.counts[a])
            link1[a] = row_start[q1 - d1] + d1 - row_start[q1]
        np.minimum(np.arange(N + 1)[:, None], cells.counts[::-1, None, :], out=link2)
        np.negative(link2, out=link2)
        return cls(
            table=table,
            key1=states.q1 * C,
            key2=link1.size + np.minimum(states.q2, N) * C,
            step1=step1,
            step2=step2,
        )


def simulate_policies(
    config: ScenarioConfig, policies, replications: int, seed: int
) -> list[SimResult]:
    """Estimate DVP and expected departures, with Wilson 95% CIs, of each
    policy in order (a schedule, policy table or baseline name, as
    mdp.policy_actions reads them); a run is a violation iff any packet
    is still queued after the final frame. The policies share one stream:
    each chunk's Philox words and draw cells are made once and every
    policy's frames run over them in turn (common random numbers), so a
    policy's result depends on neither the other policies, nor their
    order, nor CHUNK. The results share the call's wall_s and
    searched_draws.

    The counts (check_counts) are checked and every policy is laid out
    over the domain before any draw.
    """
    check_counts(replications, seed)
    start = time.perf_counter()
    actions = [policy_actions(policy, config) for policy in policies]
    if not actions:
        return []
    w = config.w
    states = backlog_states(config)
    backlog = states.q1 + states.q2
    cells = Cells.of(_inversion_table(config.N, 1.0 - config.p_e))
    moves = Moves.of(config, cells)
    # per policy, each link's keys over the domain, one row or one per epoch
    keys = [(act.rows * moves.step1 + moves.key1, act.rows * moves.step2 + moves.key2)
            for act in actions]
    # frame 0 starts every replication at states.start, so each link's
    # change depends only on its cell: per policy, link 1's next index and
    # link 2's change over the C cells
    C = len(cells.cuts)
    firsts = []
    for act, (keys1, keys2) in zip(actions, keys):
        at1 = act.shift[0] * moves.step1 + keys1[0][states.start]
        at2 = act.shift[0] * moves.step2 + keys2[0][states.start]
        firsts.append((states.start + moves.table[at1 : at1 + C], moves.table[at2 : at2 + C]))
    words_per_rep = 2 * w
    blocks_per_rep = -(-words_per_rep // 4)  # Philox yields 4 words per block
    row = 4 * blocks_per_rep

    violations = [0] * len(actions)
    departed = [0] * len(actions)
    searched = 0
    done = 0
    # one chunk's buffers, allocated once and reused by every chunk (the
    # last through its first n columns): fresh ones per chunk let the
    # process heap grow by a chunk's cells on some calls and not others,
    # so that peak memory differed between otherwise identical runs
    width = min(CHUNK, replications)
    buffers = [np.empty((words_per_rep, width), dtype=np.int64)]
    buffers += [np.empty(width, dtype=np.int64) for _ in range(3)]
    while done < replications:
        n = min(CHUNK, replications - done)
        philox = np.random.Philox(key=seed, counter=done * blocks_per_rep)
        cell, idx, buf1, buf2 = (b[..., :n] for b in buffers)
        # cell[k] and cell[w + k] are the draws of frame k; the words are
        # made and transposed a cache-sized block of replications at a time
        for lo in range(0, n, WORD_BLOCK):
            words = philox.random_raw(min(WORD_BLOCK, n - lo) * row).reshape(-1, row)
            # unpacked straight into the chunk, so no block outlives its copy
            cell[:, lo : lo + len(words)], hits = cells.of_words(words[:, :words_per_rep])
            searched += hits
        for i, act in enumerate(actions):
            first1, first2 = firsts[i]
            # every key is in range by construction, so no take checks bounds;
            # frame 0 is also the last frame at w = 1
            if w == 1:
                idx.fill(states.start)
            else:
                first1.take(cell[0], out=idx, mode="clip")
                idx += first2.take(cell[w], out=buf1, mode="clip")
            for k in range(1, w - 1):
                key1 = keys[i][0][k % len(keys[i][0])].take(idx, out=buf1, mode="clip")
                key2 = keys[i][1][k % len(keys[i][1])].take(idx, out=buf2, mode="clip")
                shift = act.shift[k]
                key1 += cell[k]
                idx += moves.table[shift * moves.step1 :].take(key1, out=key1, mode="clip")
                key2 += cell[w + k]
                idx += moves.table[shift * moves.step2 :].take(key2, out=key2, mode="clip")
            # link 1 keeps packets in the system, so the last frame
            # changes the backlog by link 2's change alone
            k = w - 1
            left = backlog.take(idx, out=buf1, mode="clip")
            key2 = keys[i][1][k % len(keys[i][1])].take(idx, out=buf2, mode="clip")
            key2 += cell[w + k]
            left += moves.table[act.shift[k] * moves.step2 :].take(key2, out=key2, mode="clip")
            violations[i] += int(np.count_nonzero(left))
            departed[i] += n * config.total_load - int(left.sum())
        done += n

    wall_s = time.perf_counter() - start
    results = []
    for v, d in zip(violations, departed):
        lo, hi = wilson_interval(v, replications)
        results.append(SimResult(
            dvp_hat=v / replications,
            ci_low=lo,
            ci_high=hi,
            mean_departures=d / replications,
            replications=replications,
            wall_s=wall_s,
            searched_draws=searched,
        ))
    return results

"""Command-line front end: single solves and evaluations, plus parameter
sweeps emitting plot-ready CSV, one ScenarioConfig per sweep cell, which
the cell's rows carry.

Exit codes: 0 ok, 2 usage or malformed input, 3 infeasible or cap exceeded,
4 one or more sweep cells failed.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable

from . import semistatic
from .dvp import exact_dvp_chain
from .mdp import BASELINE_KINDS, PolicyTable, value_iteration
from .model import (
    CapExceededError,
    ScenarioConfig,
    Schedule,
    _read_number,
    check_scenario_field,
    pe_text,
)
from .sim import check_counts, simulate_policies


# What `solve` can solve: each method's solve(config, relaxed), which gives a
# SemiStaticResult, whose criterion names its score, or the mdp PolicyTable;
# relaxed(config) gives the relaxed schedule the wtb-* methods start from.
# Solvers are looked up when called, so that wrapping them in their modules
# reaches this table too. A baseline (mdp.BASELINE_KINDS) has nothing to
# solve: a sweep evaluates its name as the policy.
METHODS = {
    "wtb-r": lambda c, relaxed: semistatic.round_nearest(c, relaxed(c)),
    "wtb-w": lambda c, relaxed: semistatic.neighbor_search(c, relaxed(c), "wtb"),
    "wtb-d": lambda c, relaxed: semistatic.neighbor_search(c, relaxed(c), "dvpub"),
    "e-wtb": lambda c, relaxed: semistatic.e_wtb(c),
    "e-dvpub": lambda c, relaxed: semistatic.e_dvpub(c),
    "opt": lambda c, relaxed: semistatic.opt(c),
    "fifty": lambda c, relaxed: semistatic.fifty_fifty(c),
    "mdp": lambda c, relaxed: value_iteration(c),
}

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_CELL_FAILURES = 4


def _error(message, code: int) -> int:
    """Print message to stderr as an error and return the exit code."""
    print(f"error: {message}", file=sys.stderr)
    return code


def fmt_prob(v: float) -> str:
    """10 significant digits; %g switches to scientific below 1e-4."""
    return f"{v:.10g}"


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--N", type=int, required=True, help="slots per frame")
    parser.add_argument("--pe", type=float, required=True, help="packet error rate")
    parser.add_argument("--w", type=int, required=True, help="deadline in frames")
    parser.add_argument("--y", type=int, required=True, help="batch size in packets")
    parser.add_argument("--x1", type=int, required=True, help="initial backlog, queue 1")
    parser.add_argument("--x2", type=int, required=True, help="initial backlog, queue 2")


def _config_from(args) -> ScenarioConfig:
    return ScenarioConfig(N=args.N, p_e=args.pe, w=args.w, y=args.y, x1=args.x1, x2=args.x2)


def cmd_solve(args) -> int:
    # options that only one method reads
    for given, flag, only in (
        (args.full_domain, "--full-domain", "opt"), (args.out, "--out", "mdp")
    ):
        if given and args.method != only:
            return _error(f"{flag} applies to --method {only}", EXIT_USAGE)
    try:
        config = _config_from(args)
    except ValueError as exc:
        return _error(exc, EXIT_USAGE)

    out = None
    if args.out:
        # opened before the solve, so that an unwritable path costs no solve;
        # appending leaves a file that is already there as it was until the
        # table replaces it
        created = not os.path.exists(args.out)
        try:
            out = open(args.out, "a", encoding="utf-8")
        except OSError as exc:
            return _error(exc, EXIT_USAGE)
    try:
        if args.full_domain:
            result = semistatic.opt(config, full_domain=True)
        else:
            result = METHODS[args.method](config, semistatic.solve_relaxed)
    except (CapExceededError, ValueError) as exc:
        if out is not None:
            out.close()
            if created:
                os.remove(args.out)
        return _error(exc, EXIT_INFEASIBLE)
    if isinstance(result, PolicyTable):
        text = result.to_text()
        if out is None:
            sys.stdout.write(text)
            return EXIT_OK
        try:
            with out:
                out.truncate(0)
                out.write(text)
        except OSError as exc:
            return _error(exc, EXIT_USAGE)
        return EXIT_OK
    print("n1=" + ",".join(str(v) for v in result.schedule.n1))
    print(f"{result.criterion}={fmt_prob(result.score)}")
    return EXIT_OK


def _policy_source(args, config: ScenarioConfig):
    sources = [s for s in (args.schedule, args.policy_file, args.policy) if s]
    if len(sources) != 1:
        raise ValueError("give exactly one of --schedule, --policy-file, --policy")
    if args.schedule:
        try:
            n1 = tuple(int(v) for v in args.schedule.split(","))
        except ValueError as exc:
            raise ValueError(f"bad schedule {args.schedule!r}: {exc}") from exc
        return Schedule(n1=n1, N=config.N)
    if args.policy_file:
        with open(args.policy_file, encoding="utf-8") as fh:
            return PolicyTable.from_text(fh.read())
    if args.policy not in BASELINE_KINDS:
        raise ValueError(f"--policy must be one of {', '.join(BASELINE_KINDS)}")
    return args.policy


def cmd_eval(args) -> int:
    try:
        config = _config_from(args)
        policy = _policy_source(args, config)
        if args.evaluator == "exact":
            result = exact_dvp_chain(config, policy)
            print(f"dvp={fmt_prob(result.dvp)}")
            print(f"method={result.method}")
        else:
            [sim] = simulate_policies(config, [policy], args.reps, args.seed)
            print(f"dvp={fmt_prob(sim.dvp_hat)}")
            print(f"ci_low={fmt_prob(sim.ci_low)}")
            print(f"ci_high={fmt_prob(sim.ci_high)}")
            print(f"reps={sim.replications}")
    except CapExceededError as exc:
        return _error(exc, EXIT_INFEASIBLE)
    except (ValueError, OSError) as exc:
        return _error(exc, EXIT_USAGE)
    return EXIT_OK


@dataclass
class SweepSpec:
    """Cross product of scenario values, the policies to run on each, and
    the evaluator settings."""

    x1: list[int]
    x2: list[int]
    w: list[int]
    N: list[int]
    pe: list[float]
    y: list[int]
    policies: list[str]
    evaluator: str = "exact"
    reps: int = 1_000_000
    seed: int = 0


SCALAR_KEYS = ("evaluator", "reps", "seed")


def parse_sweep_file(text: str) -> SweepSpec:
    """Flat key = value syntax, commas separate list entries, # comments.
    An unknown key, an unknown policy or evaluator, or a value that is not
    of its key's type, that no scenario allows, that repeats within its
    list, or that sim.check_counts refuses, raises ValueError naming its
    line."""
    required = ("x1", "x2", "w", "N", "pe", "y", "policies")
    values: dict[str, list[str]] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value")
        key, _, rhs = line.partition("=")
        key = key.strip()
        if key not in required + SCALAR_KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        items = [v.strip() for v in rhs.split(",") if v.strip()]
        if not items:
            raise ValueError(f"line {lineno}: no values for {key!r}")
        if key in values:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        if key in SCALAR_KEYS and len(items) > 1:
            raise ValueError(f"line {lineno}: {key} takes one value")
        values[key] = items
        lines[key] = lineno

    missing = set(required) - set(values)
    if missing:
        raise ValueError(f"missing keys: {', '.join(sorted(missing))}")

    def parsed(key: str, kind=int, field: str | None = None) -> list:
        """The key's values as kind, each checked as ScenarioConfig checks
        its field, if one is named, and against the values before it."""
        out = []
        for item in values[key]:
            try:
                value = _read_number(key, item, kind)
                if field is not None:
                    check_scenario_field(field, value)
            except ValueError as exc:
                raise ValueError(f"line {lines[key]}: {exc}") from None
            if value in out:
                raise ValueError(f"line {lines[key]}: {key} repeats {item!r}")
            out.append(value)
        return out

    policies = parsed("policies", str)
    for p in policies:
        if p not in METHODS and p not in BASELINE_KINDS:
            raise ValueError(f"line {lines['policies']}: unknown policy {p!r}")
    evaluator = values.get("evaluator", ["exact"])[0]
    if evaluator not in ("exact", "monte-carlo"):
        raise ValueError(
            f"line {lines['evaluator']}: evaluator must be exact or monte-carlo, got {evaluator!r}"
        )
    reps = parsed("reps")[0] if "reps" in values else 1_000_000
    seed = parsed("seed")[0] if "seed" in values else 0
    # each count alone, so that a refusal names its own line
    for key, counts in (("reps", (reps, 0)), ("seed", (1, seed))):
        try:
            check_counts(*counts)
        except ValueError as exc:
            raise ValueError(f"line {lines[key]}: {exc}") from None
    return SweepSpec(
        x1=parsed("x1", field="x1"),
        x2=parsed("x2", field="x2"),
        w=parsed("w", field="w"),
        N=parsed("N", field="N"),
        pe=parsed("pe", float, field="p_e"),
        y=parsed("y", field="y"),
        policies=policies,
        evaluator=evaluator,
        reps=reps,
        seed=seed,
    )


def _cell_policy(config: ScenarioConfig, policy_name: str, relaxed: Callable):
    """The schedule, table or baseline name that one sweep cell evaluates;
    a baseline name, fifty among them, is its own policy."""
    if policy_name in BASELINE_KINDS:
        return policy_name
    policy = METHODS[policy_name](config, relaxed)
    return policy if isinstance(policy, PolicyTable) else policy.schedule


def _simulate_rows(config: ScenarioConfig, jobs: list, spec: SweepSpec) -> None:
    """Fill in the Monte Carlo rows of config's cell, given as (row, policy)
    pairs, from one joint run over its policies. Each row's ms gains an
    equal share of the run, and a run that raises ValueError or
    CapExceededError gives every row its error."""
    start = time.perf_counter()
    try:
        sims = simulate_policies(config, [policy for _, policy in jobs], spec.reps, spec.seed)
        error = ""
    except (ValueError, CapExceededError) as exc:
        sims, error = [None] * len(jobs), str(exc)
    share = (time.perf_counter() - start) * 1e3 / len(jobs)
    for (row, _), sim in zip(jobs, sims):
        row.ms += share
        if sim is None:
            row.error = error
        else:
            row.dvp, row.ci_low, row.ci_high = sim.dvp_hat, sim.ci_low, sim.ci_high


SWEEP_HEADER = "x1,x2,w,N,pe,y,policy,dvp,ci_low,ci_high,ms"


@dataclass
class SweepRow:
    """One policy evaluated on one sweep cell, whose scenario is config;
    failed cells carry an error message and an empty dvp."""

    config: ScenarioConfig
    policy: str
    dvp: float | None = None
    ci_low: float | None = None
    ci_high: float | None = None
    ms: float = 0.0
    error: str = ""

    def to_csv(self) -> str:
        c = self.config
        cells = [
            str(c.x1), str(c.x2), str(c.w), str(c.N), pe_text(c.p_e), str(c.y), self.policy,
            "" if self.dvp is None else fmt_prob(self.dvp),
            "" if self.ci_low is None else fmt_prob(self.ci_low),
            "" if self.ci_high is None else fmt_prob(self.ci_high),
            f"{self.ms:.1f}",
        ]
        if self.error:
            cells.append(self.error.replace(",", ";").replace("\n", " "))
        return ",".join(cells)


def run_sweep(spec: SweepSpec, out) -> int:
    """Write the CSV of every policy on every cell of spec, cells in sorted
    order. Each cell's ScenarioConfig is built before the header, so a value
    it refuses raises ValueError before anything is written."""
    cells = sorted(itertools.product(spec.x1, spec.x2, spec.w, spec.N, spec.pe, spec.y))
    configs = [ScenarioConfig(N, pe, w, y, x1, x2) for x1, x2, w, N, pe, y in cells]
    out.write(SWEEP_HEADER + "\n")
    failures = 0
    for config in configs:
        # one relaxed solve, shared by the cell's wtb-* rows
        relaxed = functools.cache(semistatic.solve_relaxed)
        # each distinct policy's exact DVP, one chain each; a schedule keys by
        # value, a table by identity, and a baseline's chain is read off the
        # one that mdp keeps per kernel key for every deadline
        chains = {}
        rows = []
        jobs = []  # Monte Carlo rows, simulated together once all are solved
        for policy_name in sorted(spec.policies):
            start = time.perf_counter()
            row = SweepRow(config, policy_name)
            try:
                policy = _cell_policy(config, policy_name, relaxed)
                if spec.evaluator != "exact":
                    jobs.append((row, policy))
                else:
                    if policy not in chains:
                        chains[policy] = exact_dvp_chain(config, policy).dvp
                    row.dvp = chains[policy]
            except (ValueError, CapExceededError) as exc:
                row.error = str(exc)
            row.ms = (time.perf_counter() - start) * 1e3
            rows.append(row)
        if jobs:
            _simulate_rows(config, jobs, spec)
        failures += sum(1 for row in rows if row.error)
        out.writelines(row.to_csv() + "\n" for row in rows)
    return EXIT_CELL_FAILURES if failures else EXIT_OK


def cmd_sweep(args) -> int:
    try:
        with open(args.sweep_file, encoding="utf-8") as fh:
            spec = parse_sweep_file(fh.read())
    except (ValueError, OSError) as exc:
        return _error(exc, EXIT_USAGE)
    if not args.out:
        return run_sweep(spec, sys.stdout)
    try:
        fh = open(args.out, "w", encoding="utf-8")
    except OSError as exc:
        return _error(exc, EXIT_USAGE)
    with fh:
        return run_sweep(spec, fh)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dvpsched",
        description="Deadline-violation analysis and slot scheduling for a "
        "two-hop lossy wireless path.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="compute a schedule or policy table")
    _add_config_args(p_solve)
    p_solve.add_argument(
        "--method",
        required=True,
        choices=list(METHODS),
    )
    p_solve.add_argument("--out", help="write the mdp policy table here")
    p_solve.add_argument(
        "--full-domain",
        action="store_true",
        help="let opt search {0..N}^w instead of {1..N-1}^w",
    )
    p_solve.set_defaults(func=cmd_solve)

    p_eval = sub.add_parser("eval", help="evaluate the DVP of a policy")
    _add_config_args(p_eval)
    p_eval.add_argument("--schedule", help="inline per-frame n1 values, e.g. 1,2,1")
    p_eval.add_argument("--policy-file", help="policy table written by solve --method mdp")
    p_eval.add_argument("--policy", help=f"baseline name: {', '.join(BASELINE_KINDS)}")
    p_eval.add_argument("--evaluator", choices=("exact", "monte-carlo"), default="exact")
    p_eval.add_argument("--reps", type=int, default=1_000_000)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep to CSV")
    p_sweep.add_argument("sweep_file")
    p_sweep.add_argument("--out", help="write CSV here instead of stdout")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

"""Command-line front end: single solves and evaluations, plus parameter
sweeps emitting plot-ready CSV.

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
from typing import Callable, NamedTuple

from . import semistatic
from .dvp import exact_dvp_chain
from .mdp import BASELINE_KINDS, PolicyTable, value_iteration
from .model import (
    CapExceededError,
    PolicyLookupError,
    ScenarioConfig,
    Schedule,
    check_scenario_field,
    pe_text,
)
from .sim import check_counts, simulate_policies


class Sources(NamedTuple):
    """What a method's solve draws on: `relaxed(config)` gives the relaxed
    schedule the wtb-* methods start from, and `full_domain` widens opt's
    search."""

    relaxed: Callable
    full_domain: bool = False


class Method(NamedTuple):
    """How `solve` and `sweep` obtain one method's policy, and for a
    semi-static method the criterion its score is.

    `solve(config, sources)` returns a SemiStaticResult for a semi-static
    method (its score is the `score` criterion), else a PolicyTable or a
    baseline name. Solvers are looked up when called, so that wrapping them
    in their modules reaches this table too."""

    solve: Callable
    score: str = ""


METHODS = {
    "wtb-r": Method(lambda c, src: semistatic.round_nearest(c, src.relaxed(c)), "wtb"),
    "wtb-w": Method(lambda c, src: semistatic.neighbor_search(c, src.relaxed(c), "wtb"), "wtb"),
    "wtb-d": Method(
        lambda c, src: semistatic.neighbor_search(c, src.relaxed(c), "dvpub"), "dvpub"
    ),
    "e-wtb": Method(lambda c, src: semistatic.e_wtb(c), "wtb"),
    "e-dvpub": Method(lambda c, src: semistatic.e_dvpub(c), "dvpub"),
    "opt": Method(lambda c, src: semistatic.opt(c, full_domain=src.full_domain), "dvp"),
    "fifty": Method(lambda c, src: semistatic.fifty_fifty(c), "dvp"),
    "mdp": Method(lambda c, src: value_iteration(c)),
    "mw": Method(lambda c, src: "mw"),
    "wfq": Method(lambda c, src: "wfq"),
    "bp": Method(lambda c, src: "bp"),
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

    method = METHODS[args.method]
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
        result = method.solve(config, Sources(semistatic.solve_relaxed, args.full_domain))
    except (CapExceededError, ValueError) as exc:
        if out is not None:
            out.close()
            if created:
                os.remove(args.out)
        return _error(exc, EXIT_INFEASIBLE)
    if not method.score:
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
    print(f"{method.score}={fmt_prob(result.score)}")
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
    except (ValueError, OSError) as exc:
        return _error(exc, EXIT_USAGE)

    try:
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
    except (ValueError, PolicyLookupError) as exc:
        # a policy file missing a state that the run reaches is malformed
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
    A value that is not of its key's type, or that no scenario allows,
    raises ValueError naming its line."""
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
        items = [v.strip() for v in rhs.split(",") if v.strip()]
        if not items:
            raise ValueError(f"line {lineno}: no values for {key!r}")
        if key in values:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        if key in SCALAR_KEYS and len(items) > 1:
            raise ValueError(f"line {lineno}: {key} takes one value")
        values[key] = items
        lines[key] = lineno

    required = {"x1", "x2", "w", "N", "pe", "y", "policies"}
    unknown = set(values) - required - set(SCALAR_KEYS)
    if unknown:
        raise ValueError(f"unknown keys: {', '.join(sorted(unknown))}")
    missing = required - set(values)
    if missing:
        raise ValueError(f"missing keys: {', '.join(sorted(missing))}")

    def parsed(key: str, kind=int, field: str | None = None) -> list:
        """The key's values as kind, each checked as ScenarioConfig checks
        its field, if one is named."""
        out = []
        for item in values[key]:
            try:
                value = kind(item)
            except ValueError:
                noun = "an integer" if kind is int else "a number"
                raise ValueError(f"line {lines[key]}: {key} must be {noun}, got {item!r}") from None
            if field is not None:
                try:
                    check_scenario_field(field, value)
                except ValueError as exc:
                    raise ValueError(f"line {lines[key]}: {exc}") from None
            out.append(value)
        return out

    policies = values["policies"]
    for p in policies:
        if p not in METHODS:
            raise ValueError(f"unknown policy {p!r}")
    evaluator = values.get("evaluator", ["exact"])[0]
    if evaluator not in ("exact", "monte-carlo"):
        raise ValueError(f"evaluator must be exact or monte-carlo, got {evaluator!r}")
    reps = parsed("reps")[0] if "reps" in values else 1_000_000
    seed = parsed("seed")[0] if "seed" in values else 0
    check_counts(reps, seed)
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


def _cell_policy(config: ScenarioConfig, policy_name: str, sources: Sources):
    """The schedule, table or baseline name that one sweep cell evaluates."""
    if policy_name == "fifty":
        # the cell evaluates the schedule itself; fifty_fifty would score it too
        return semistatic.even_split(config)
    method = METHODS[policy_name]
    policy = method.solve(config, sources)
    return policy.schedule if method.score else policy


def _simulate_rows(config: ScenarioConfig, jobs: list, spec: SweepSpec) -> None:
    """Fill in one scenario's Monte Carlo rows, given as (row, policy)
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
    """One evaluated (config, policy) cell; failed cells carry an error
    message and an empty dvp."""

    x1: int
    x2: int
    w: int
    N: int
    pe: float
    y: int
    policy: str
    dvp: float | None
    ci_low: float | None
    ci_high: float | None
    ms: float
    error: str = ""

    def to_csv(self) -> str:
        cells = [
            str(self.x1), str(self.x2), str(self.w), str(self.N),
            pe_text(self.pe), str(self.y), self.policy,
            "" if self.dvp is None else fmt_prob(self.dvp),
            "" if self.ci_low is None else fmt_prob(self.ci_low),
            "" if self.ci_high is None else fmt_prob(self.ci_high),
            f"{self.ms:.1f}",
        ]
        if self.error:
            cells.append(self.error.replace(",", ";").replace("\n", " "))
        return ",".join(cells)

    @classmethod
    def from_csv(cls, line: str) -> "SweepRow":
        parts = line.split(",")
        if len(parts) not in (11, 12):
            raise ValueError(f"expected 11 or 12 fields, got {len(parts)}")
        return cls(
            x1=int(parts[0]), x2=int(parts[1]), w=int(parts[2]), N=int(parts[3]),
            pe=float(parts[4]), y=int(parts[5]), policy=parts[6],
            dvp=float(parts[7]) if parts[7] else None,
            ci_low=float(parts[8]) if parts[8] else None,
            ci_high=float(parts[9]) if parts[9] else None,
            ms=float(parts[10]),
            error=parts[11] if len(parts) == 12 else "",
        )


def run_sweep(spec: SweepSpec, out) -> int:
    cells = sorted(
        itertools.product(spec.x1, spec.x2, spec.w, spec.N, spec.pe, spec.y)
    )
    out.write(SWEEP_HEADER + "\n")
    failures = 0
    # one relaxed solve per config, shared by its wtb-* rows
    sources = Sources(functools.cache(semistatic.solve_relaxed))
    for x1, x2, w, N, pe, y in cells:
        rows = []
        jobs = []  # Monte Carlo rows, simulated together once all are solved
        for policy_name in sorted(spec.policies):
            start = time.perf_counter()
            row = SweepRow(
                x1=x1, x2=x2, w=w, N=N, pe=pe, y=y, policy=policy_name,
                dvp=None, ci_low=None, ci_high=None, ms=0.0,
            )
            try:
                config = ScenarioConfig(N=N, p_e=pe, w=w, y=y, x1=x1, x2=x2)
                policy = _cell_policy(config, policy_name, sources)
                if spec.evaluator == "exact":
                    row.dvp = exact_dvp_chain(config, policy).dvp
                else:
                    jobs.append((row, policy))
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
        # the semi-static methods and the MDP table; a baseline has nothing to solve
        choices=[name for name, method in METHODS.items() if method.score or name == "mdp"],
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

"""Sweep benchmark for dvpsched.

    python3 bench/run.py --workload semistatic --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ./src. One timed
operation is one `dvpsched.cli.run_sweep` call over a single scenario with
all of the workload's policies. A run repeats whole rounds over the
workload's scenario grid, in an order shuffled by --seed, and starts a
round only while it should end within --seconds (the first always runs).
Every cell (one CSV row) is checked against the benchmark's own DVP
reference. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of one traced round with --trace 1.
See bench/README.md.
"""
from __future__ import annotations

import os

# One BLAS thread: the sandbox has two cores, and a fixed summation order
# keeps value iteration's argmax ties, and so every table, identical.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import io
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

from compare import load_benchmark
from reference import Reference, baseline_action, schedule_action, wilson
from layers import Tracer

REL_TOL = 1e-9  # cell DVP against the reference
CANCELLATION_ABS = 1e-13  # item 2(b) misses measure at most 3.6e-14
DEPARTURES_TOL = 1e-9  # MDP table against a baseline, in packets
MC_Z = 5.0
SETUP_SAMPLES = 5  # at each of the start, the middle and the end of a run
OPT_PROBE_CAP = 625  # largest opt search a non-semistatic workload adds
REF_WORKERS = 2  # the machine's cores; nothing else runs while they work


class Scenario(NamedTuple):
    N: int
    pe: float
    w: int
    y: int
    x1: int
    x2: int


SEMISTATIC_POLICIES = ("wtb-r", "wtb-w", "wtb-d", "e-dvpub", "opt", "fifty")
DYNAMIC_POLICIES = ("mdp", "mw", "wfq", "bp", "fifty")
S = Scenario(6, 0.4, 6, 1, 3, 3)
M = Scenario(10, 0.4, 10, 5, 5, 5)
L = Scenario(16, 0.4, 12, 10, 10, 10)


# Low-loss block: x1 = x2 = y = 1, N and w in 4..6, pe in {0.02, 0.05,
# 0.1}, kept where the bound at the even split is below 1e-7 (where the
# relaxed solver stops after one gradient) and opt searches at most 4096
# schedules.
LOW_LOSS = [
    Scenario(N, pe, w, 1, 1, 1)
    for N, w, pe in [
        (4, 5, 0.02), (4, 5, 0.05), (4, 6, 0.02), (4, 6, 0.05),
        (5, 4, 0.02), (5, 5, 0.02), (5, 5, 0.05),
        (5, 6, 0.02), (5, 6, 0.05), (5, 6, 0.1),
        (6, 4, 0.02), (6, 4, 0.05),
        (6, 5, 0.02), (6, 5, 0.05), (6, 5, 0.1),
    ]
]


def _semistatic_grid() -> list[Scenario]:
    # sweeps/semistatic-deadlines.sweep, then the low-loss block
    return [
        Scenario(4, 0.2, w, 1, x1, x2)
        for x1 in (1, 2, 3) for x2 in (1, 2, 3) for w in (2, 3, 4, 5, 6)
    ] + LOW_LOSS


def _dynamic_grid() -> list[Scenario]:
    # sweeps/dynamic-deadlines.sweep, a low-loss copy of it, then M and L
    grid = [
        Scenario(6, pe, w, 1, x1, x2)
        for pe in (0.4, 0.05) for x1 in (1, 3) for x2 in (1, 3) for w in (3, 4, 5, 6)
    ]
    return grid + [M, L]


# The cells of `dynamic` that exact_dvp_chain's cancellation (ROADMAP item
# 2(b)) fails today: 8 at pe=0.4, 58 of the 80 low-loss cells, all of M and L.
DYNAMIC_KNOWN = {
    Scenario(6, 0.4, 5, 1, 1, 1): ("mdp",),
    Scenario(6, 0.4, 6, 1, 1, 1): ("mdp", "mw", "wfq", "bp"),
    Scenario(6, 0.4, 6, 1, 1, 3): ("mdp", "mw", "wfq"),
    Scenario(6, 0.05, 3, 1, 1, 1): ("mdp", "wfq"),
    Scenario(6, 0.05, 4, 1, 1, 1): DYNAMIC_POLICIES,
    Scenario(6, 0.05, 5, 1, 1, 1): DYNAMIC_POLICIES,
    Scenario(6, 0.05, 6, 1, 1, 1): DYNAMIC_POLICIES,
    Scenario(6, 0.05, 3, 1, 1, 3): ("mdp",),
    Scenario(6, 0.05, 4, 1, 1, 3): ("mdp", "mw", "wfq", "fifty"),
    Scenario(6, 0.05, 5, 1, 1, 3): DYNAMIC_POLICIES,
    Scenario(6, 0.05, 6, 1, 1, 3): DYNAMIC_POLICIES,
    Scenario(6, 0.05, 3, 1, 3, 1): ("mdp",),
    Scenario(6, 0.05, 4, 1, 3, 1): ("mdp", "mw", "wfq"),
    Scenario(6, 0.05, 5, 1, 3, 1): DYNAMIC_POLICIES,
    Scenario(6, 0.05, 6, 1, 3, 1): DYNAMIC_POLICIES,
    Scenario(6, 0.05, 4, 1, 3, 3): ("mdp", "wfq"),
    Scenario(6, 0.05, 5, 1, 3, 3): DYNAMIC_POLICIES,
    Scenario(6, 0.05, 6, 1, 3, 3): DYNAMIC_POLICIES,
    M: DYNAMIC_POLICIES,
    L: DYNAMIC_POLICIES,
}


class Workload(NamedTuple):
    """The scenarios of one round, the policies swept on each, the
    evaluator with its replications per cell (unused when exact), and the
    cells, by scenario, that may fail only as item 2(b) does."""

    scenarios: list[Scenario]
    policies: tuple[str, ...]
    evaluator: str
    reps: int
    known: dict[Scenario, tuple[str, ...]]


WORKLOADS = {
    "semistatic": Workload(
        _semistatic_grid(), SEMISTATIC_POLICIES, "exact", 1,
        {sc: SEMISTATIC_POLICIES for sc in LOW_LOSS},
    ),
    "dynamic": Workload(_dynamic_grid(), DYNAMIC_POLICIES, "exact", 1, DYNAMIC_KNOWN),
    # S, an S-size cell and an M-size cell whose DVPs lie in 1e-4..1e-1
    "montecarlo": Workload(
        [S, Scenario(6, 0.3, 4, 1, 2, 2), Scenario(10, 0.5, 8, 5, 5, 5)],
        DYNAMIC_POLICIES,
        "monte-carlo",
        1_000_000,
        {},
    ),
}



def with_units(values: dict, section: str) -> dict:
    """Attach each metric's unit from BENCHMARK.json's `section`, whose
    names must be exactly those of `values`."""
    units = {m["name"]: m["unit"] for m in load_benchmark()[section]}
    if set(units) != set(values):
        sys.exit(f"bench: {section} metrics differ from BENCHMARK.json's")
    return {n: {"value": v, "unit": units[n]} for n, v in values.items()}


def import_program():
    """Import dvpsched from ./src, and only from there."""
    src = Path.cwd() / "src"
    if not (src / "dvpsched" / "__init__.py").is_file():
        sys.exit("bench: no src/dvpsched here; run from the repository root")
    sys.path.insert(0, str(src))
    import dvpsched
    from dvpsched import cli

    if Path(dvpsched.__file__).resolve().parent != (src / "dvpsched").resolve():
        sys.exit(f"bench: imported dvpsched from {dvpsched.__file__}, not ./src")
    return dvpsched, cli


def measure_setup(samples: list[float], count: int) -> None:
    """Append `count` samples of the wall time from launching a fresh
    interpreter until it has imported the sweep path and says so."""
    code = "import sys; sys.path.insert(0, 'src'); import dvpsched.cli; print('ready', flush=True)"
    for _ in range(count):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.wait()
        if line.strip() != b"ready" or proc.returncode != 0:
            sys.exit("bench: a fresh interpreter could not import dvpsched")
        samples.append(elapsed)


class CellRef(NamedTuple):
    dvp: float
    departures: float


def _scenario_references(task: tuple[str, tuple]) -> dict[str, tuple[float, float]]:
    """Re-solve one scenario's schedules and tables with the program's
    solvers and evaluate every policy with the benchmark's reference.
    Runs in a reference worker, which has imported the program."""
    import dvpsched as pkg

    workload = WORKLOADS[task[0]]
    sc = Scenario(*task[1])
    semistatic = pkg.semistatic
    config = pkg.ScenarioConfig(N=sc.N, p_e=sc.pe, w=sc.w, y=sc.y, x1=sc.x1, x2=sc.x2)
    actions = {}
    for policy in workload.policies:
        if policy in ("mw", "wfq", "bp", "fifty"):
            actions[policy] = baseline_action(policy, sc.N)
        elif policy == "mdp":
            actions[policy] = pkg.mdp.value_iteration(config).action
    if "wtb-w" in workload.policies:
        relaxed = semistatic.solve_relaxed(config)
        results = {
            "wtb-r": semistatic.round_nearest(config, relaxed),
            "wtb-w": semistatic.neighbor_search(config, relaxed, "wtb"),
            "wtb-d": semistatic.neighbor_search(config, relaxed, "dvpub"),
            "e-dvpub": semistatic.e_dvpub(config),
            "opt": semistatic.opt(config),
        }
        for policy, result in results.items():
            actions[policy] = schedule_action(result.schedule.n1)
    elif (sc.N - 1) ** sc.w <= OPT_PROBE_CAP:
        # wtbw_over_opt on a workload that does not sweep the two
        actions["wtb-w"] = schedule_action(semistatic.wtb_w(config).schedule.n1)
        actions["opt"] = schedule_action(semistatic.opt(config).schedule.n1)
    ref = Reference(*sc)
    return {p: ref.evaluate(a) for p, a in actions.items()}


def reference_worker(name: str, index: str) -> int:
    """Entry point of one reference worker: print, as one JSON line, the
    references of every REF_WORKERS-th scenario of a workload, starting at
    `index`."""
    import_program()
    scenarios = WORKLOADS[name].scenarios[int(index)::REF_WORKERS]
    print(json.dumps([_scenario_references((name, tuple(sc))) for sc in scenarios]))
    return 0


def solve_references(name: str) -> dict[Scenario, dict[str, CellRef]]:
    """References for every scenario of a workload, computed before the
    timed part in REF_WORKERS child interpreters, so that the benchmark
    process's own peak memory is that of the sweep. Every child has ended
    when this returns or raises."""
    scenarios = WORKLOADS[name].scenarios
    procs = []
    try:
        for index in range(REF_WORKERS):
            procs.append(subprocess.Popen(
                [sys.executable, __file__, "--reference-worker", name, str(index)],
                stdout=subprocess.PIPE,
            ))
        outputs = [proc.communicate()[0] for proc in procs]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    if any(proc.returncode for proc in procs):
        sys.exit("bench: a reference worker failed")
    results = [None] * len(scenarios)
    for index, out in enumerate(outputs):
        results[index::REF_WORKERS] = json.loads(out.splitlines()[-1])
    return {
        sc: {p: CellRef(*v) for p, v in res.items()} for sc, res in zip(scenarios, results)
    }


def wtbw_over_opt(refs) -> float:
    logs = [
        math.log(r["wtb-w"].dvp / r["opt"].dvp) for r in refs.values() if "opt" in r
    ]
    return math.exp(math.fsum(logs) / len(logs))


def sweep_spec(cli, sc: Scenario, workload: Workload, seed: int, policies=None):
    return cli.SweepSpec(
        x1=[sc.x1], x2=[sc.x2], w=[sc.w], N=[sc.N], pe=[sc.pe], y=[sc.y],
        policies=list(policies or workload.policies),
        evaluator=workload.evaluator,
        reps=workload.reps,
        seed=seed,
    )


def parse_rows(text: str, sc: Scenario) -> dict[str, list[str]]:
    """CSV rows of one scenario by policy; rows for another scenario or
    with a malformed key are dropped, which fails their cells."""
    rows = {}
    for line in text.splitlines()[1:]:
        f = line.split(",")
        if len(f) < 11:
            continue
        try:
            key = (int(f[3]), float(f[4]), int(f[2]), int(f[5]), int(f[0]), int(f[1]))
        except ValueError:
            continue
        if key == tuple(sc):
            rows[f[6]] = f
    return rows


class Checker:
    """Applies the cell checks and tallies failures. A failure counts as
    expected when the cell is one of the workload's known cells and the
    miss is the chain evaluator's cancellation (ROADMAP item 2(b)): a DVP,
    or a gap to opt's DVP, wrong by at most CANCELLATION_ABS in absolute
    terms. Any other failure makes the run incorrect. A known cell that
    passes is reported, not failed: fixing item 2(b) makes them pass."""

    def __init__(self, workload: Workload, refs):
        self.workload = workload
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.expected: set[tuple[Scenario, str]] = set()
        self.passing_known: set[tuple[Scenario, str]] = set()

    def check(self, sc: Scenario, rows: dict[str, list[str]], raised: str) -> None:
        refs = self.refs[sc]
        verdicts = {}
        for policy in self.workload.policies:
            verdicts[policy] = self._check_cell(sc, policy, rows.get(policy), refs, raised)
        if "opt" in self.workload.policies:
            best = refs["opt"].dvp
            for policy in self.workload.policies:
                gap = best - refs[policy].dvp
                if gap > REL_TOL * best:
                    verdicts[policy] = verdicts[policy] or (
                        "beats-opt", gap <= CANCELLATION_ABS
                    )
        if self.workload.evaluator == "exact" and "mdp" in self.workload.policies:
            best = refs["mdp"].departures
            for policy in self.workload.policies:
                if refs[policy].departures > best + DEPARTURES_TOL:
                    verdicts["mdp"] = verdicts["mdp"] or (f"departures<{policy}", False)
        known = self.workload.known.get(sc, ())
        for policy, verdict in verdicts.items():
            self.attempted += 1
            if verdict is None:
                if policy in known:
                    self.passing_known.add((sc, policy))
                continue
            self.failed += 1
            reason, cancellation = verdict
            if cancellation and policy in known:
                self.expected.add((sc, policy))
            else:
                self.unexpected.append(f"{tuple(sc)} {policy}: {reason}")

    def _check_cell(self, sc, policy, row, refs, raised):
        """None if the cell passes, else (reason, whether the miss is
        cancellation-sized)."""
        if raised:
            return f"raised {raised}", False
        if row is None:
            return "row missing", False
        if len(row) != 11:
            return f"error column: {','.join(row[11:])}", False
        try:
            dvp = float(row[7])
        except ValueError:
            return f"dvp {row[7]!r}", False
        ref = refs[policy].dvp
        err = abs(dvp - ref)
        if not 0.0 <= dvp <= 1.0:
            return f"dvp {dvp!r} outside [0, 1], reference {ref!r}", err <= CANCELLATION_ABS
        if self.workload.evaluator == "exact":
            if err > REL_TOL * ref:
                return f"dvp {dvp!r} against reference {ref!r}", err <= CANCELLATION_ABS
            return None
        reps = self.workload.reps
        lo, hi = wilson(round(dvp * reps), reps, MC_Z)
        if not lo <= ref <= hi:
            return f"reference {ref!r} outside z={MC_Z:g} interval [{lo!r}, {hi!r}]", False
        return None


def run_round(cli, order, specs, checker: Checker, times: list[float]) -> dict:
    """One timed run_sweep call per scenario; checks run after each call,
    outside the timed part. Returns the CSV text per scenario."""
    texts = {}
    for sc in order:
        out = io.StringIO()
        raised = ""
        start = time.perf_counter()
        try:
            cli.run_sweep(specs[sc], out)
        except Exception as exc:  # a crash fails the scenario's cells, not the run
            raised = f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - start)
        texts[sc] = out.getvalue()
        checker.check(sc, parse_rows(texts[sc], sc), raised)
    return texts


def strip_ms(text: str) -> list[list[str]]:
    """Rows without their timing column, for bit-identity comparisons."""
    return [line.split(",")[:10] + line.split(",")[11:] for line in text.splitlines()]


def per_layer(tracer: Tracer, workload: Workload, untraced_s: float, traced_s: float) -> dict:
    calls, total = tracer.calls, tracer.total
    ms = lambda name: 1e3 * total.get(name, 0.0)
    simulate_s = total.get("sim.simulate", 0.0)
    values = {
        "cli.self_ms": tracer.module_self_ms("cli"),
        "semistatic.solve_relaxed.calls": calls.get("semistatic.solve_relaxed", 0),
        "semistatic.solve_relaxed.ms": ms("semistatic.solve_relaxed"),
        "semistatic.neighbor_search.ms": ms("semistatic.neighbor_search"),
        "semistatic.exhaustive.calls": calls.get("semistatic.exhaustive", 0),
        "semistatic.exhaustive.ms": ms("semistatic.exhaustive"),
        "dvp.wtb.calls": calls.get("dvp.wtb", 0),
        "dvp.wtb_min_s.calls": calls.get("dvp.wtb_min_s", 0),
        "dvp.wtb_min_s.ms": ms("dvp.wtb_min_s"),
        "dvp.wtb_gradient.calls": calls.get("dvp.wtb_gradient", 0),
        "dvp.dvpub.calls": calls.get("dvp.dvpub", 0),
        "dvp.exact_dvp_chain.calls": calls.get("dvp.exact_dvp_chain", 0),
        "dvp.exact_dvp_chain.ms": ms("dvp.exact_dvp_chain"),
        "mdp.kernel.builds": calls.get("mdp.kernel", 0),
        "mdp.kernel.ms": ms("mdp.kernel"),
        "mdp.kernel.mb": tracer.kernel_bytes / 2**20,
        "mdp.transition_probs.calls": calls.get("mdp.transition_probs", 0),
        "model.binomial_pmf.calls": calls.get("model.binomial_pmf", 0),
        "mdp.value_iteration.calls": calls.get("mdp.value_iteration", 0),
        "mdp.value_iteration.ms": ms("mdp.value_iteration"),
        "sim.simulate.ms": 1e3 * simulate_s,
        "sim.reps_per_s": (
            calls.get("sim.simulate", 0) * workload.reps / simulate_s if simulate_s else 0.0
        ),
        "trace.overhead_pct": 100.0 * (traced_s / untraced_s - 1.0),
    }
    return with_units(values, "per_layer")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be in 0..2^63-1")
    workload = WORKLOADS[args.workload]

    pkg, cli = import_program()
    # Set-up samples are spread over the run, so that their median does not
    # rest on a few seconds of the machine's state. The first launch may
    # still be writing bytecode caches and is left out.
    setup: list[float] = []
    if not args.trace:
        measure_setup([], 1)
        measure_setup(setup, SETUP_SAMPLES)
    refs = solve_references(args.workload)
    if not args.trace:
        measure_setup(setup, SETUP_SAMPLES)
    checker = Checker(workload, refs)
    order = list(workload.scenarios)
    random.Random(args.seed).shuffle(order)
    specs = {sc: sweep_spec(cli, sc, workload, args.seed) for sc in order}
    problems = []
    times: list[float] = []

    if args.trace:
        # The traced round must give the untraced round's rows: this is
        # where rows are compared between rounds, since an untraced run
        # of run_seconds makes one round.
        start = time.perf_counter()
        first = run_round(cli, order, specs, checker, [])
        untraced_s = time.perf_counter() - start
        tracer = Tracer(pkg, [cli, pkg.semistatic, pkg.dvp, pkg.mdp, pkg.model, pkg.sim])
        tracer.install()
        try:
            start = time.perf_counter()
            again = run_round(cli, order, specs, checker, [])
            traced_s = time.perf_counter() - start
        finally:
            tracer.uninstall()
        for sc, text in again.items():
            if strip_ms(text) != strip_ms(first[sc]):
                problems.append(f"{tuple(sc)}: rows differ between rounds")
        metrics = per_layer(tracer, workload, untraced_s, traced_s)
    else:
        start = time.perf_counter()
        first = run_round(cli, order, specs, checker, times)
        rounds = 1
        while (time.perf_counter() - start) * (rounds + 1) / rounds <= args.seconds:
            run_round(cli, order, specs, checker, times)
            rounds += 1
        measure_setup(setup, SETUP_SAMPLES)
        completed = checker.attempted - len(checker.unexpected)
        metrics = with_units({
            "setup_s": statistics.median(setup),
            "cells_per_s": completed / math.fsum(times),
            "scenario_ms.geomean": 1e3 * math.exp(math.fsum(map(math.log, times)) / len(times)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "wtbw_over_opt": wtbw_over_opt(refs),
        }, "end_to_end")

    if workload.evaluator == "monte-carlo":
        sc, policy = order[0], workload.policies[0]
        out = io.StringIO()
        try:
            cli.run_sweep(sweep_spec(cli, sc, workload, args.seed, [policy]), out)
        except Exception as exc:
            out.write(f"\nraised {type(exc).__name__}: {exc}")
        repeated = strip_ms(out.getvalue())[1:]
        if repeated != [r for r in strip_ms(first[sc]) if r[6] == policy]:
            problems.append(f"{tuple(sc)} {policy}: repeated cell not bit-identical")

    for line in sorted(checker.unexpected) + problems:
        print(f"bench: FAIL {line}", file=sys.stderr)
    for sc, policy in sorted(checker.expected):
        print(f"bench: known failure (item 2(b)) {tuple(sc)} {policy}", file=sys.stderr)
    for sc, policy in sorted(checker.passing_known):
        print(f"bench: known failure now passes {tuple(sc)} {policy}", file=sys.stderr)
    result = {
        "correct": not checker.unexpected and not problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--reference-worker"]:
        sys.exit(reference_worker(*sys.argv[2:]))
    sys.exit(main())

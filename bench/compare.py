"""Collect sets of benchmark runs and compare them.

    python3 bench/compare.py collect bench/runs/a --seeds 1-10
    python3 bench/compare.py collect bench/runs/t --seeds 1 --trace 1
    python3 bench/compare.py report bench/runs/a [bench/runs/b]

`collect`, run from the root of a checkout, runs bench/run.py once per
(seed, workload) with the run length from BENCHMARK.json, and appends one
JSON record per run to <set>/runs.jsonl. `report` reads the checkout's
BENCHMARK.json for each metric's direction and bound. For one set it prints, per workload and
metric, the median, the quartiles and the spread (interquartile distance
over the median) against the bound, whether the failed share is the same in
every run, and whether every count repeats exactly. Given a second set
(the change) it also prints, per workload and metric:

  - whether the second median is worse than the first by more than the
    bound (a regression);
  - the share of runs, paired by seed (or in run order when the seeds
    differ), that the second set wins, ties counting for neither;
  - a gain when that share is at least 0.9 and the medians differ by more
    than the first set's interquartile distance; "unresolved" when the
    first set's spread exceeds the bound and not every second run beats
    every first run.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path


def load_benchmark() -> dict:
    """BENCHMARK.json of the checkout this script belongs to."""
    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    return json.loads(path.read_text(encoding="utf-8"))


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def collect(args) -> int:
    bench = load_benchmark()
    out = Path(args.set)
    out.mkdir(parents=True, exist_ok=True)
    status = 0
    for seed in parse_seeds(args.seeds):
        for workload in (w["name"] for w in bench["workloads"]):
            cmd = [
                *bench["command"], "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
            ]
            cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            result = json.loads(lines[-1])
            record = {"workload": workload, "seed": seed, "trace": args.trace, "result": result}
            with open(out / "runs.jsonl", "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record) + "\n")
            print(
                f"{workload} seed {seed}: correct={result['correct']} "
                f"failed {result['failed']}/{result['attempted']}"
            )
    return status


def load_set(path: str) -> dict:
    """{(workload, trace): [record, ...]} in file order."""
    runs = defaultdict(list)
    for line in (Path(path) / "runs.jsonl").read_text(encoding="utf-8").splitlines():
        if line.strip():
            rec = json.loads(line)
            runs[(rec["workload"], rec["trace"])].append(rec)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse b is than a, as a share of a (negative if better)."""
    if a == 0:
        return 0.0 if b == a else float("inf")
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def values_of(records, name) -> list[float]:
    return [r["result"]["metrics"][name]["value"] for r in records]


def report_one(label: str, records, metrics) -> None:
    shares = {(r["result"]["failed"], r["result"]["attempted"]) for r in records}
    fractions = {f / a for f, a in shares}
    correct = all(r["result"]["correct"] for r in records)
    print(
        f"  {label}: {len(records)} runs, correct in all: {correct}, "
        f"failed/attempted: {sorted(shares)} "
        f"({'same share' if len(fractions) == 1 else 'SHARE DIFFERS'})"
    )
    for m in metrics:
        vals = values_of(records, m["name"])
        q1, med, q3 = quartiles(vals)
        spread = (q3 - q1) / med if med else 0.0
        line = f"    {m['name']:32s} median {med:.6g} {m['unit']}  q1 {q1:.6g}  q3 {q3:.6g}"
        if "bound" in m:
            verdict = "ok" if spread <= m["bound"] / 3 else (
                "within bound" if spread <= m["bound"] else "OVER BOUND")
            line += f"  spread {spread:.3f} (bound {m['bound']}: {verdict})"
        elif m["name"].endswith((".calls", ".builds")):
            line += "  repeats exactly" if len(set(vals)) == 1 else "  DIFFERS"
        print(line)


def report_pair(records_a, records_b, metrics) -> None:
    seeds_b = {r["seed"]: r for r in records_b}
    if {r["seed"] for r in records_a} == set(seeds_b):
        paired = [(r, seeds_b[r["seed"]]) for r in records_a]
    else:  # different seeds: pair in the order the runs were made
        paired = list(zip(records_a, records_b))
    for m in metrics:
        name, better = m["name"], m["better"]
        a, b = values_of(records_a, name), values_of(records_b, name)
        q1a, med_a, q3a = quartiles(a)
        _, med_b, _ = quartiles(b)
        pairs = [
            (ra["result"]["metrics"][name]["value"], rb["result"]["metrics"][name]["value"])
            for ra, rb in paired
        ]
        wins = sum(worse_by(x, y, better) < 0 for x, y in pairs)
        share = wins / len(pairs) if pairs else 0.0
        worse = worse_by(med_a, med_b, better)
        spread_a = (q3a - q1a) / med_a if med_a else 0.0
        all_better = all(worse_by(x, y, better) < 0 for x in a for y in b)
        line = f"    {name:32s} {med_a:.6g} -> {med_b:.6g} {m['unit']} ({100 * worse:+.1f}% worse)"
        line += f"  wins {wins}/{len(pairs)}"
        if "bound" in m:
            if spread_a > m["bound"] and not all_better:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "REGRESSION"
            elif worse < 0 and share >= 0.9 and abs(med_b - med_a) > q3a - q1a:
                verdict = "gain"
            else:
                verdict = "within bound"
            line += f"  bound {m['bound']}: {verdict}"
        print(line)


def report(args) -> int:
    bench = load_benchmark()
    sets = [load_set(p) for p in args.sets]
    for trace, metrics in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
        for wl in (w["name"] for w in bench["workloads"]):
            groups = [s.get((wl, trace), []) for s in sets]
            if not any(groups):
                continue
            print(f"{wl} ({'traced' if trace else 'end to end'})")
            for label, records in zip(args.sets, groups):
                if records:
                    report_one(label, records, metrics)
            if len(groups) == 2 and all(groups):
                print(f"  {args.sets[0]} -> {args.sets[1]}")
                report_pair(groups[0], groups[1], metrics)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("collect", help="run the benchmark into a set")
    p.add_argument("set", help="directory that receives runs.jsonl")
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.set_defaults(func=collect)
    p = sub.add_parser("report", help="summarise one set, or compare two")
    p.add_argument("sets", nargs="+", help="one or two set directories")
    p.set_defaults(func=report)
    args = parser.parse_args(argv)
    if args.cmd == "report" and len(args.sets) > 2:
        parser.error("report takes one or two sets")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

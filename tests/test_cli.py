"""Command-line interface: output contracts, file formats, exit codes."""
import argparse
import dataclasses
import functools
import io
import itertools
import re
import weakref
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest

from dvpsched import (
    PolicyTable,
    ScenarioConfig,
    Schedule,
    TransitionKernel,
    exact_dvp_chain,
    simulate_policies,
    value_iteration,
)
from dvpsched import cli, mdp, semistatic, sim
from dvpsched.cli import SWEEP_HEADER, SweepRow, fmt_prob, main, parse_sweep_file, run_sweep
from dvpsched.mdp import BASELINE_KINDS, kernel_key

SWEEPS = Path(__file__).resolve().parent.parent / "sweeps"


def csv_row(line: str) -> SweepRow:
    """Parse one sweep CSV line back into the SweepRow that wrote it."""
    parts = line.split(",")
    assert len(parts) in (11, 12), line
    number = lambda text: float(text) if text else None
    config = ScenarioConfig(
        N=int(parts[3]), p_e=float(parts[4]), w=int(parts[2]), y=int(parts[5]),
        x1=int(parts[0]), x2=int(parts[1]),
    )
    return SweepRow(
        config, parts[6], dvp=number(parts[7]), ci_low=number(parts[8]),
        ci_high=number(parts[9]), ms=float(parts[10]),
        error=parts[11] if len(parts) == 12 else "",
    )


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# solve --N 4 --pe 0.2 --w 4 --y 1 --x1 1 --x2 1, recorded once per method
SOLVE_GOLDEN = {
    "wtb-r": ("n1=3,2,1,1", "wtb=0.005360313105"),
    "wtb-w": ("n1=3,2,1,1", "wtb=0.005360313105"),
    "e-wtb": ("n1=3,2,1,1", "wtb=0.005360313105"),
    "wtb-d": ("n1=3,3,1,1", "dvpub=0.002011648"),
    "e-dvpub": ("n1=3,3,1,1", "dvpub=0.002011648"),
    "opt": ("n1=3,3,1,1", "dvp=0.001618712363"),
    "fifty": ("n1=2,2,2,2", "dvp=0.006224427254"),
}


# solve at S = --N 6 --pe 0.4 --w 6 --y 1 --x1 3 --x2 3, recorded with the
# full scans that opt and e-dvpub made before branch-and-bound and
# vectorisation
S_ARGS = ("--N", "6", "--pe", "0.4", "--w", "6", "--y", "1", "--x1", "3", "--x2", "3")
S_GOLDEN = {
    ("opt",): ("n1=5,5,2,1,1,1", "dvp=0.007484261722"),
    ("e-dvpub",): ("n1=5,5,2,1,1,1", "dvpub=0.00773503112"),
    # re-recorded for opt's tie margin: 4,5,6,0,0,0 went first before it,
    # and the reference gives both schedules 0.005474184279369405
    ("opt", "--full-domain"): ("n1=6,6,3,0,0,0", "dvp=0.005474184279"),
}
# solve at M = --N 10 --pe 0.4 --w 10 --y 5 --x1 5 --x2 5, recorded with the
# cold exponent search the relaxed solver ran before it started warm
M_ARGS = ("--N", "10", "--pe", "0.4", "--w", "10", "--y", "5", "--x1", "5", "--x2", "5")
M_GOLDEN = {
    "wtb-r": ("n1=9,9,9,7,5,1,1,1,1,1", "wtb=1.965229811e-06"),
    "wtb-w": ("n1=9,9,9,7,5,1,1,1,1,1", "wtb=1.965229811e-06"),
    "wtb-d": ("n1=9,9,9,7,6,1,1,1,1,1", "dvpub=3.117399634e-07"),
}
# solve --method e-dvpub past the 1e6 schedules its full scan was capped
# at: M, L and (N=12, pe=0.2, w=8, y=1, x1=0, x2=0), recorded with its
# dynamic programme. At L, n1=15,15,15,4,10,6,10,6,1,1,1,1 has the same
# dvpub to the last bit; the schedule here comes first in product order
L_ARGS = ("--N", "16", "--pe", "0.4", "--w", "12", "--y", "10", "--x1", "10", "--x2", "10")
W8_ARGS = ("--N", "12", "--pe", "0.2", "--w", "8", "--y", "1", "--x1", "0", "--x2", "0")
EDVPUB_GOLDEN = {
    "M": (M_ARGS, ("n1=9,9,9,9,4,1,1,1,1,1", "dvpub=3.117399634e-07")),
    "L": (L_ARGS, ("n1=15,15,15,15,15,4,1,1,1,1,1,1", "dvpub=8.811922198e-12")),
    "w8": (W8_ARGS, ("n1=11,11,11,11,1,1,1,1", "dvpub=3.096225032e-33")),
}
GOLDEN = Path(__file__).resolve().parent / "golden"


# small enough for e-wtb to score all 3^6 schedules quickly (5^6 at S)
T = ScenarioConfig(N=4, p_e=0.2, w=6, y=1, x1=3, x2=3)


@pytest.mark.parametrize(
    "name, direct",
    [
        ("wtb-r", lambda c: semistatic.round_nearest(c, semistatic.solve_relaxed(c))),
        ("wtb-w", lambda c: semistatic.neighbor_search(c, semistatic.solve_relaxed(c), "wtb")),
        ("wtb-d", lambda c: semistatic.neighbor_search(c, semistatic.solve_relaxed(c), "dvpub")),
        ("e-wtb", semistatic.e_wtb),
        ("e-dvpub", semistatic.e_dvpub),
        ("opt", semistatic.opt),
        ("fifty", semistatic.fifty_fifty),
    ],
)
def test_registry_calls_the_searches(name, direct):
    got = cli.METHODS[name](T, semistatic.solve_relaxed)
    want = direct(T)
    assert (got.schedule, got.criterion, got.score) == (want.schedule, want.criterion, want.score)


SOLVABLE = ["wtb-r", "wtb-w", "wtb-d", "e-wtb", "e-dvpub", "opt", "fifty", "mdp"]


def test_registry_covers_every_semi_static_method():
    # the registry holds what solve can solve, so no baseline (mw, wfq, bp)
    assert set(cli.METHODS) == set(SOLVABLE)


def test_solve_method_choices_in_registry_order():
    parser = cli.build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    [method] = [a for a in sub.choices["solve"]._actions if a.dest == "method"]
    assert method.choices == SOLVABLE


class TestSolve:
    @pytest.mark.parametrize("method", sorted(S_GOLDEN))
    def test_exhaustive_golden_at_s(self, capsys, method):
        code, out, err = run_cli(capsys, "solve", *S_ARGS, "--method", *method)
        assert (code, err) == (0, "")
        assert tuple(out.splitlines()) == S_GOLDEN[method]

    @pytest.mark.parametrize("instance", sorted(EDVPUB_GOLDEN))
    def test_e_dvpub_golden_past_the_old_cap(self, capsys, instance):
        args, golden = EDVPUB_GOLDEN[instance]
        code, out, err = run_cli(capsys, "solve", *args, "--method", "e-dvpub")
        assert (code, err) == (0, "")
        assert tuple(out.splitlines()) == golden

    @pytest.mark.parametrize("method", sorted(M_GOLDEN))
    def test_relaxed_golden_at_m(self, capsys, method):
        code, out, err = run_cli(capsys, "solve", *M_ARGS, "--method", method)
        assert (code, err) == (0, "")
        assert tuple(out.splitlines()) == M_GOLDEN[method]

    @pytest.mark.parametrize("method", ["wtb-w", "e-dvpub", "fifty", "mdp"])
    def test_full_domain_refused_for_other_methods(self, capsys, method):
        code, out, err = run_cli(
            capsys,
            "solve", "--N", "4", "--pe", "0.2", "--w", "3", "--y", "1",
            "--x1", "1", "--x2", "1", "--method", method, "--full-domain",
        )
        assert (code, out) == (2, "")
        assert err == "error: --full-domain applies to --method opt\n"

    @pytest.mark.parametrize("method", ["wtb-w", "e-dvpub", "opt", "fifty"])
    def test_out_refused_for_other_methods(self, capsys, tmp_path, method):
        path = tmp_path / "table.txt"
        code, out, err = run_cli(
            capsys,
            "solve", "--N", "6", "--pe", "0.4", "--w", "6", "--y", "1",
            "--x1", "3", "--x2", "3", "--method", method, "--out", str(path),
        )
        assert (code, out) == (2, "")
        assert err == "error: --out applies to --method mdp\n"
        assert not path.exists()

    @pytest.mark.parametrize("method", sorted(SOLVE_GOLDEN))
    def test_semistatic_golden(self, capsys, method):
        code, out, err = run_cli(
            capsys,
            "solve", "--N", "4", "--pe", "0.2", "--w", "4", "--y", "1",
            "--x1", "1", "--x2", "1", "--method", method,
        )
        assert (code, err) == (0, "")
        assert tuple(out.splitlines()) == SOLVE_GOLDEN[method]

    def test_semistatic_prints_schedule_and_score(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "solve", "--N", "4", "--pe", "0.2", "--w", "5", "--y", "1",
            "--x1", "1", "--x2", "1", "--method", "wtb-w",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("n1=")
        assert lines[1].startswith("wtb=")
        n1 = [int(v) for v in lines[0].removeprefix("n1=").split(",")]
        assert len(n1) == 5 and all(1 <= v <= 3 for v in n1)

    def test_fifty_odd_frame(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "solve", "--N", "5", "--pe", "0.2", "--w", "3", "--y", "1",
            "--x1", "0", "--x2", "0", "--method", "fifty",
        )
        assert code == 0
        assert out.splitlines()[0] == "n1=3,3,3"

    def test_mdp_writes_policy_file(self, capsys, tmp_path):
        out_path = tmp_path / "policy.txt"
        code, _, _ = run_cli(
            capsys,
            "solve", "--N", "2", "--pe", "0.5", "--w", "2", "--y", "1",
            "--x1", "0", "--x2", "0", "--method", "mdp", "--out", str(out_path),
        )
        assert code == 0
        table = PolicyTable.from_text(out_path.read_text())
        assert table.config == ScenarioConfig(N=2, p_e=0.5, w=2, y=1, x1=0, x2=0)

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys,
            "solve", "--N", "2", "--pe", "0.5", "--w", "2", "--y", "1",
            "--x1", "0", "--x2", "0", "--method", "mdp", "--out", str(tmp_path / "nodir" / "f"),
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Traceback" not in err

    def test_unwritable_out_is_reported_before_the_solve(self, capsys, tmp_path, monkeypatch):
        def solve(*args):
            raise AssertionError("value_iteration ran before --out was checked")

        monkeypatch.setattr(cli, "value_iteration", solve)
        code, out, err = run_cli(
            capsys,
            "solve", "--N", "20", "--pe", "0.4", "--w", "5", "--y", "20",
            "--x1", "20", "--x2", "20", "--method", "mdp", "--out", str(tmp_path / "nodir" / "f"),
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "No such file or directory" in err

    def test_refused_solve_leaves_no_out_file(self, capsys, tmp_path):
        args = ("solve", "--N", "4", "--pe", "0.4", "--w", "3", "--y", "900",
                "--x1", "900", "--x2", "900", "--method", "mdp", "--out")
        path = tmp_path / "table.txt"
        code, out, err = run_cli(capsys, *args, str(path))
        assert (code, out) == (3, "")
        assert err.startswith("error: transition operator needs ")
        assert not path.exists()
        # a file that was there is left as it was
        path.write_text("kept\n")
        assert run_cli(capsys, *args, str(path))[0] == 3
        assert path.read_text() == "kept\n"

    def test_out_replaces_an_existing_file(self, capsys, tmp_path):
        args = ("solve", "--N", "2", "--pe", "0.5", "--w", "2", "--y", "1",
                "--x1", "0", "--x2", "0", "--method", "mdp")
        path = tmp_path / "table.txt"
        path.write_text("an older and much longer file\n" * 50)
        assert run_cli(capsys, *args, "--out", str(path))[0] == 0
        assert path.read_text() == run_cli(capsys, *args)[1]

    def test_invalid_config_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "solve", "--N", "0", "--pe", "0.2", "--w", "2", "--y", "1",
            "--x1", "0", "--x2", "0", "--method", "fifty",
        )
        assert code == 2
        assert "error" in err

    def test_infeasible_domain_exits_three(self, capsys):
        code, _, err = run_cli(
            capsys,
            "solve", "--N", "1", "--pe", "0.2", "--w", "2", "--y", "1",
            "--x1", "0", "--x2", "0", "--method", "wtb-w",
        )
        assert code == 3
        assert "N=1" in err

    def test_cap_exceeded_exits_three(self, capsys):
        code, out, err = run_cli(capsys, "solve", *W8_ARGS, "--method", "e-wtb")
        assert (code, out) == (3, "")
        assert err == "error: exhaustive search over 214358881 schedules exceeds cap 1000000\n"

    # 1 681 states: past the dense kernel's old cap of 5e7 entries
    BIG = ("--N", "20", "--pe", "0.4", "--w", "5", "--y", "20", "--x1", "20", "--x2", "20")

    def test_mdp_past_the_old_kernel_cap_runs(self, capsys):
        code, out, err = run_cli(capsys, "solve", *self.BIG, "--method", "mdp")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[0] == "# policy-table N=20 pe=0.4 w=5 y=20 x1=20 x2=20"
        assert len(lines) == 1 + 5 * 1681

    def test_fifty_past_the_old_kernel_cap_runs(self, capsys):
        # link 2 gets 50 slots for 60 packets: the deadline is always missed
        code, out, err = run_cli(capsys, "solve", *self.BIG, "--method", "fifty")
        assert (code, err) == (0, "")
        assert out == "n1=10,10,10,10,10\ndvp=1\n"

    def test_full_domain_flag_widens_opt(self, capsys):
        args = ["solve", "--N", "2", "--pe", "0.7", "--w", "2", "--y", "1",
                "--x1", "0", "--x2", "0", "--method", "opt"]
        code, narrow, _ = run_cli(capsys, *args)
        assert code == 0
        code, wide, _ = run_cli(capsys, *args, "--full-domain")
        assert code == 0
        score = lambda out: float(out.splitlines()[1].split("=")[1])
        assert score(wide) <= score(narrow) + 1e-15

    def test_unknown_method_is_usage_error(self, capsys):
        # mw, wfq and bp are baselines, with nothing to solve
        for method in ("magic", "mw", "wfq", "bp"):
            with pytest.raises(SystemExit) as exc:
                main(["solve", "--N", "2", "--pe", "0.2", "--w", "2", "--y", "1",
                      "--x1", "0", "--x2", "0", "--method", method])
            assert exc.value.code == 2
            assert capsys.readouterr().out == ""


class TestEval:
    def test_exact_inline_schedule(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "eval", "--N", "2", "--pe", "0.5", "--w", "2", "--y", "1",
            "--x1", "0", "--x2", "0", "--schedule", "1,1",
        )
        assert code == 0
        assert out.splitlines()[0] == "dvp=0.75"

    def test_monte_carlo_prints_interval(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "eval", "--N", "2", "--pe", "0.5", "--w", "2", "--y", "1",
            "--x1", "0", "--x2", "0", "--schedule", "1,1",
            "--evaluator", "monte-carlo", "--reps", "20000", "--seed", "3",
        )
        assert code == 0
        fields = dict(line.split("=", 1) for line in out.splitlines())
        assert float(fields["ci_low"]) <= 0.75 <= float(fields["ci_high"])
        assert fields["reps"] == "20000"

    def test_baseline_by_name(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "eval", "--N", "4", "--pe", "0.4", "--w", "3", "--y", "1",
            "--x1", "1", "--x2", "1", "--policy", "mw",
        )
        assert code == 0
        cfg = ScenarioConfig(N=4, p_e=0.4, w=3, y=1, x1=1, x2=1)
        want = exact_dvp_chain(cfg, "mw").dvp
        assert float(out.splitlines()[0].removeprefix("dvp=")) == pytest.approx(want, rel=1e-9)

    def test_policy_file_round_trip(self, capsys, tmp_path):
        path = tmp_path / "table.txt"
        run_cli(
            capsys,
            "solve", "--N", "3", "--pe", "0.4", "--w", "3", "--y", "1",
            "--x1", "1", "--x2", "1", "--method", "mdp", "--out", str(path),
        )
        code, out, _ = run_cli(
            capsys,
            "eval", "--N", "3", "--pe", "0.4", "--w", "3", "--y", "1",
            "--x1", "1", "--x2", "1", "--policy-file", str(path),
        )
        assert code == 0
        cfg = ScenarioConfig(N=3, p_e=0.4, w=3, y=1, x1=1, x2=1)
        want = exact_dvp_chain(cfg, PolicyTable.from_text(path.read_text())).dvp
        assert float(out.splitlines()[0].removeprefix("dvp=")) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("pe", [0.1234567890123, 0.1 + 0.2])
    def test_policy_table_reads_back_at_a_long_pe(self, capsys, tmp_path, pe):
        # 12 significant digits would name another scenario than pe
        scenario = ["--N", "3", "--pe", repr(pe), "--w", "3", "--y", "1", "--x1", "1", "--x2", "1"]
        path = tmp_path / "table.txt"
        code, _, err = run_cli(capsys, "solve", *scenario, "--method", "mdp", "--out", str(path))
        assert (code, err) == (0, "")
        code, out, err = run_cli(capsys, "eval", *scenario, "--policy-file", str(path))
        assert (code, err) == (0, "")
        cfg = ScenarioConfig(N=3, p_e=pe, w=3, y=1, x1=1, x2=1)
        want = exact_dvp_chain(cfg, value_iteration(cfg)).dvp
        assert out.splitlines()[0] == f"dvp={fmt_prob(want)}"

    def test_malformed_policy_file_reports_line(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# policy-table N=2 pe=0.5 w=1 y=1 x1=0 x2=0\n0 0 oops\n")
        code, _, err = run_cli(
            capsys,
            "eval", "--N", "2", "--pe", "0.5", "--w", "1", "--y", "1",
            "--x1", "0", "--x2", "0", "--policy-file", str(path),
        )
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize("n", ["abc", "0"])
    def test_malformed_policy_file_header_reports_line(self, capsys, tmp_path, n):
        path = tmp_path / "bad.txt"
        path.write_text(f"# policy-table N={n} pe=0.5 w=1 y=1 x1=0 x2=0\n")
        code, _, err = run_cli(
            capsys,
            "eval", "--N", "2", "--pe", "0.5", "--w", "1", "--y", "1",
            "--x1", "0", "--x2", "0", "--policy-file", str(path),
        )
        assert code == 2
        assert "line 1: " in err

    def test_policy_file_header_with_unknown_field_exits_two(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# policy-table N=2 pe=0.5 w=1 y=1 x1=0 x2=0 bogus=7\n0 0 0 1 0.5\n")
        code, out, err = run_cli(
            capsys,
            "eval", "--N", "2", "--pe", "0.5", "--w", "1", "--y", "1",
            "--x1", "0", "--x2", "0", "--policy-file", str(path),
        )
        assert (code, out) == (2, "")
        assert err == "error: line 1: unknown field 'bogus'\n"

    @pytest.mark.parametrize("state", ["9 9", "-1 0", "1 1"])
    def test_policy_file_state_outside_domain_reports_line(self, capsys, tmp_path, state):
        path = tmp_path / "bad.txt"
        path.write_text(f"# policy-table N=2 pe=0.5 w=1 y=1 x1=0 x2=0\n0 {state} 1 0.5\n")
        code, _, err = run_cli(
            capsys,
            "eval", "--N", "2", "--pe", "0.5", "--w", "1", "--y", "1",
            "--x1", "0", "--x2", "0", "--policy-file", str(path),
        )
        assert code == 2
        assert "line 2: state" in err and "outside the backlog triangle" in err

    @pytest.mark.parametrize("evaluator", ["exact", "monte-carlo"])
    def test_partial_policy_file_names_missing_state(self, capsys, tmp_path, evaluator):
        config = ("--N", "2", "--pe", "0.5", "--w", "2", "--y", "1", "--x1", "0", "--x2", "0")
        path = tmp_path / "table.txt"
        run_cli(capsys, "solve", *config, "--method", "mdp", "--out", str(path))
        # drop every epoch-1 row with q1 == 1 (reachable when frame 0 fails)
        kept = [ln for ln in path.read_text().splitlines() if not ln.startswith("1 1")]
        path.write_text("\n".join(kept) + "\n")
        code, out, err = run_cli(
            capsys, "eval", *config, "--policy-file", str(path),
            "--evaluator", evaluator, "--reps", "1000",
        )
        assert code == 2
        assert out == ""
        assert err == "error: no action stored for epoch=1 state=(1,0)\n"

    def test_monte_carlo_move_table_over_budget_exits_three(self, capsys, monkeypatch):
        monkeypatch.setattr(sim, "MOVES_BYTE_CAP", 1000)
        code, out, err = run_cli(
            capsys,
            "eval", "--N", "3", "--pe", "0.4", "--w", "3", "--y", "1", "--x1", "1",
            "--x2", "1", "--policy", "mw", "--evaluator", "monte-carlo", "--reps", "1000",
        )
        assert (code, out) == (3, "")
        assert err.startswith("error: Monte Carlo move table needs ")
        assert err.endswith(", cap is 1000\n")

    def test_exact_refuses_oversized_instance(self, capsys):
        code, _, err = run_cli(
            capsys,
            "eval", "--N", "4", "--pe", "0.4", "--w", "3", "--y", "900",
            "--x1", "900", "--x2", "900", "--policy", "mw",
        )
        assert code == 3
        assert err == (
            "error: transition operator needs 1168092600 bytes "
            "(5 actions over a 1801 x 2701 backlog grid), cap is 400000000\n"
        )

    def test_requires_exactly_one_source(self, capsys):
        code, _, err = run_cli(
            capsys,
            "eval", "--N", "2", "--pe", "0.5", "--w", "2", "--y", "1",
            "--x1", "0", "--x2", "0",
        )
        assert code == 2
        assert "exactly one" in err


SWEEP_TEXT = """
# deadline sweep at the captioned frame size and loss rate
x1 = 1, 2
x2 = 1
w = 2, 3
N = 4
pe = 0.2
y = 1
policies = wtb-w, fifty, mw
evaluator = exact
"""


class TestSweepParsing:
    def test_parses_lists_and_defaults(self):
        spec = parse_sweep_file(SWEEP_TEXT)
        assert spec.x1 == [1, 2] and spec.w == [2, 3]
        assert spec.evaluator == "exact"
        assert spec.policies == ["wtb-w", "fifty", "mw"]

    def test_missing_policies_rejected(self):
        with pytest.raises(ValueError, match="policies"):
            parse_sweep_file("x1=1\nx2=1\nw=2\nN=4\npe=0.2\ny=1\n")

    def test_unknown_key_rejected(self):
        # SWEEP_TEXT's last line is line 10, then a blank line
        with pytest.raises(ValueError, match="^line 12: unknown key 'foo'$"):
            parse_sweep_file(SWEEP_TEXT + "\nfoo = 1\n")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="^line 9: unknown policy 'rr'$"):
            parse_sweep_file(SWEEP_TEXT.replace("mw", "rr"))

    def test_unknown_evaluator_rejected(self):
        message = "line 10: evaluator must be exact or monte-carlo, got 'mc'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_sweep_file(SWEEP_TEXT.replace("evaluator = exact", "evaluator = mc"))

    @pytest.mark.parametrize(
        "line", ["evaluator = monte-carlo, exact", "reps = 1000, 5", "seed = 3, 4"]
    )
    def test_scalar_key_takes_one_value(self, capsys, tmp_path, line):
        # the scalar takes the place of SWEEP_TEXT's evaluator line, line 10
        text = SWEEP_TEXT.replace("evaluator = exact", line)
        key = line.split(" ")[0]
        with pytest.raises(ValueError, match=f"^line 10: {key} takes one value$"):
            parse_sweep_file(text)
        sweep = tmp_path / "sweep.txt"
        sweep.write_text(text)
        code, out, err = run_cli(capsys, "sweep", str(sweep))
        assert (code, out) == (2, "")
        assert f"{key} takes one value" in err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("seed = -1", "seed must fit in 64 bits"),
            (f"seed = {2**64}", "seed must fit in 64 bits"),
            ("reps = 0", "replications must be >= 1, got 0"),
        ],
    )
    def test_malformed_monte_carlo_settings_rejected(self, capsys, tmp_path, line, message):
        # sim.check_counts' own messages at the value's line (line 11), once
        # for the sweep, not once per cell
        self.check_count_refused(capsys, tmp_path, line, f"line 11: {message}")

    @pytest.mark.parametrize(
        "lines, message",
        [
            ("reps = 0\nseed = -1", "line 11: replications must be >= 1, got 0"),
            ("seed = -1\nreps = 0", "line 12: replications must be >= 1, got 0"),
            ("reps = 5\nseed = -1", "line 12: seed must fit in 64 bits"),
        ],
    )
    def test_each_count_refused_at_its_own_line(self, capsys, tmp_path, lines, message):
        # reps is checked before seed, wherever each stands
        self.check_count_refused(capsys, tmp_path, lines, message)

    @staticmethod
    def check_count_refused(capsys, tmp_path, lines, message):
        text = SWEEP_TEXT.replace("evaluator = exact", "evaluator = monte-carlo\n" + lines)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_sweep_file(text)
        sweep = tmp_path / "sweep.txt"
        sweep.write_text(text)
        code, out, err = run_cli(capsys, "sweep", str(sweep))
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"


    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("N = 4", "N = 0", "line 6: N must be >= 1, got 0"),
            ("pe = 0.2", "pe = 1.5", "line 7: p_e must be in [0, 1], got 1.5"),
            ("pe = 0.2", "pe = 0.2, -0.1", "line 7: p_e must be in [0, 1], got -0.1"),
            ("x2 = 1", "x2 = -1", "line 4: x2 must be >= 0, got -1"),
            ("x1 = 1, 2", "x1 = 1, -2", "line 3: x1 must be >= 0, got -2"),
            ("w = 2, 3", "w = 2, 0", "line 5: w must be >= 1, got 0"),
            ("y = 1", "y = 0", "line 8: y must be >= 1, got 0"),
        ],
    )
    def test_scenario_values_checked_when_parsed(self, capsys, tmp_path, old, new, message):
        # ScenarioConfig's own rules, once for the sweep, not once per cell
        text = SWEEP_TEXT.replace(old, new)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_sweep_file(text)
        sweep = tmp_path / "sweep.txt"
        sweep.write_text(text)
        code, out, err = run_cli(capsys, "sweep", str(sweep))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("x1 = 1, 2", "x1 = 1, a", "line 3: x1 must be an integer, got 'a'"),
            ("x2 = 1", "x2 = 1.0", "line 4: x2 must be an integer, got '1.0'"),
            ("w = 2, 3", "w = 2, 3.5", "line 5: w must be an integer, got '3.5'"),
            ("N = 4", "N = four", "line 6: N must be an integer, got 'four'"),
            ("y = 1", "y = 1e3", "line 8: y must be an integer, got '1e3'"),
            ("pe = 0.2", "pe = 0.2, low", "line 7: pe must be a number, got 'low'"),
            ("evaluator = exact", "evaluator = monte-carlo\nreps = 1.5",
             "line 11: reps must be an integer, got '1.5'"),
            ("evaluator = exact", "evaluator = monte-carlo\nseed = x",
             "line 11: seed must be an integer, got 'x'"),
        ],
    )
    def test_conversion_errors_name_line_and_key(self, capsys, tmp_path, old, new, message):
        text = SWEEP_TEXT.replace(old, new)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_sweep_file(text)
        sweep = tmp_path / "sweep.txt"
        sweep.write_text(text)
        code, out, err = run_cli(capsys, "sweep", str(sweep))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("pe = 0.2", "pe = 0.1, 0.2, 0.10", "line 7: pe repeats '0.10'"),
            ("w = 2, 3", "w = 2, 3, 2", "line 5: w repeats '2'"),
            ("policies = wtb-w, fifty, mw", "policies = mw, fifty, mw",
             "line 9: policies repeats 'mw'"),
        ],
    )
    def test_repeated_value_refused(self, capsys, tmp_path, old, new, message):
        # values compare after conversion, so 0.1 and 0.10 are one value
        text = SWEEP_TEXT.replace(old, new)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_sweep_file(text)
        sweep, out_csv = tmp_path / "sweep.txt", tmp_path / "rows.csv"
        sweep.write_text(text)
        code, out, err = run_cli(capsys, "sweep", str(sweep), "--out", str(out_csv))
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not out_csv.exists()

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "sweep", str(SWEEPS / "semistatic-deadlines.sweep"),
            "--out", str(tmp_path / "nodir" / "f"),
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Traceback" not in err


class TestSweepRun:
    def test_semistatic_sweep_file_golden(self):
        # sweeps/semistatic-deadlines.sweep, recorded before opt used
        # branch-and-bound and e-dvpub a vectorised pass; ms column dropped
        spec = parse_sweep_file((SWEEPS / "semistatic-deadlines.sweep").read_text())
        buf = io.StringIO()
        assert run_sweep(spec, buf) == 0
        got = [line.rsplit(",", 1)[0] for line in buf.getvalue().splitlines()]
        assert got == (GOLDEN / "semistatic-deadlines.csv").read_text().splitlines()

    def test_dynamic_sweep_file_golden(self):
        # sweeps/dynamic-deadlines.sweep, recorded before the test-only
        # oracles left the production modules; ms column dropped
        spec = parse_sweep_file((SWEEPS / "dynamic-deadlines.sweep").read_text())
        buf = io.StringIO()
        assert run_sweep(spec, buf) == 0
        got = [line.rsplit(",", 1)[0] for line in buf.getvalue().splitlines()]
        assert got == (GOLDEN / "dynamic-deadlines.csv").read_text().splitlines()

    def test_dynamic_sweep_back_at_a_shorter_deadline_golden(self):
        # sweeps/dynamic-shorter-deadline.sweep, recorded while each deadline
        # solved its own table; ms column dropped
        spec = parse_sweep_file((SWEEPS / "dynamic-shorter-deadline.sweep").read_text())
        buf = io.StringIO()
        assert run_sweep(spec, buf) == 0
        got = [line.rsplit(",", 1)[0] for line in buf.getvalue().splitlines()]
        assert got == (GOLDEN / "dynamic-shorter-deadline.csv").read_text().splitlines()

    def test_every_baseline_row_is_its_own_policy(self):
        spec = parse_sweep_file(
            f"x1=1\nx2=2\nw=3\nN=5\npe=0.3\ny=1\npolicies={', '.join(BASELINE_KINDS)}\n"
        )
        buf = io.StringIO()
        assert run_sweep(spec, buf) == 0
        rows = {r.policy: r.dvp for r in map(csv_row, buf.getvalue().splitlines()[1:])}
        cfg = ScenarioConfig(N=5, p_e=0.3, w=3, y=1, x1=1, x2=2)
        assert rows == {
            name: float(fmt_prob(exact_dvp_chain(cfg, name).dvp)) for name in BASELINE_KINDS
        }

    def test_header_rows_and_sorting(self):
        spec = parse_sweep_file(SWEEP_TEXT)
        buf = io.StringIO()
        assert run_sweep(spec, buf) == 0
        lines = buf.getvalue().splitlines()
        assert lines[0] == SWEEP_HEADER
        rows = [ln.split(",") for ln in lines[1:]]
        assert len(rows) == 4 * 3
        keys = [(int(r[0]), int(r[1]), int(r[2]), int(r[3]), float(r[4]), int(r[5]), r[6]) for r in rows]
        assert keys == sorted(keys)
        for r in rows:
            assert len(r) == 11
            dvp = float(r[7])
            assert 0.0 <= dvp <= 1.0
            assert r[8] == "" and r[9] == ""  # exact rows leave the CI blank

    def test_exact_values_match_library(self):
        spec = parse_sweep_file(SWEEP_TEXT)
        buf = io.StringIO()
        run_sweep(spec, buf)
        rows = [ln.split(",") for ln in buf.getvalue().splitlines()[1:]]
        fifty_rows = {
            (int(r[0]), int(r[2])): float(r[7]) for r in rows if r[6] == "fifty"
        }
        for (x1, w), got in fifty_rows.items():
            cfg = ScenarioConfig(N=4, p_e=0.2, w=w, y=1, x1=x1, x2=1)
            assert got == pytest.approx(exact_dvp_chain(cfg, "fifty").dvp, rel=1e-9)

    def test_deterministic_modulo_timing(self):
        spec = parse_sweep_file(SWEEP_TEXT.replace("exact", "monte-carlo") + "reps = 5000\nseed = 9\n")
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            run_sweep(spec, buf)
            outs.append(
                ["," .join(ln.split(",")[:10]) for ln in buf.getvalue().splitlines()]
            )
        assert outs[0] == outs[1]

    def test_csv_round_trip(self):
        spec = parse_sweep_file(SWEEP_TEXT)
        buf = io.StringIO()
        run_sweep(spec, buf)
        for line in buf.getvalue().splitlines()[1:]:
            row = csv_row(line)
            assert row.to_csv() == line
            assert row.error == "" and row.dvp is not None

    def test_rows_of_a_cell_carry_its_config(self, monkeypatch):
        made = []

        class Recorded(SweepRow):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(cli, "SweepRow", Recorded)
        buf = io.StringIO()
        assert run_sweep(parse_sweep_file(SWEEP_TEXT), buf) == 0
        assert [row.to_csv() for row in made] == buf.getvalue().splitlines()[1:]
        # four cells in sorted order, three policies each, one config per cell
        cells = [ScenarioConfig(4, 0.2, w, 1, x1, 1) for x1 in (1, 2) for w in (2, 3)]
        assert [row.config for row in made] == [c for c in cells for _ in range(3)]
        assert all(row.config is made[i - i % 3].config for i, row in enumerate(made))

    def test_one_relaxed_solve_per_cell(self, monkeypatch):
        solved = []
        solve_relaxed = semistatic.solve_relaxed

        def counted(config):
            solved.append(config)
            return solve_relaxed(config)

        monkeypatch.setattr(semistatic, "solve_relaxed", counted)
        spec = parse_sweep_file(
            "x1=1, 2\nx2=1\nw=3\nN=4\npe=0.2\ny=1\npolicies=wtb-r, wtb-w, wtb-d\n"
        )
        buf = io.StringIO()
        assert run_sweep(spec, buf) == 0
        assert [c.x1 for c in solved] == [1, 2]
        assert len(buf.getvalue().splitlines()) == 1 + 6

    @pytest.mark.parametrize("name", ["semistatic-deadlines", "dynamic-deadlines"])
    def test_one_chain_per_distinct_schedule(self, monkeypatch, name):
        # a scenario's rows that share a policy share one chain; only
        # schedules repeat, since each table is new and a baseline one row
        calls = []

        def key(policy):
            return policy.to_text() if isinstance(policy, PolicyTable) else policy

        def counted(config, policy):
            calls.append((config, key(policy)))
            return exact_dvp_chain(config, policy)

        monkeypatch.setattr(cli, "exact_dvp_chain", counted)
        spec = parse_sweep_file((SWEEPS / f"{name}.sweep").read_text())
        buf = io.StringIO()
        assert run_sweep(spec, buf) == 0
        got = [line.rsplit(",", 1)[0] for line in buf.getvalue().splitlines()]
        assert got == (GOLDEN / f"{name}.csv").read_text().splitlines()
        want = []
        for x1, x2, w, N, pe, y in sorted(
            itertools.product(spec.x1, spec.x2, spec.w, spec.N, spec.pe, spec.y)
        ):
            config = ScenarioConfig(N, pe, w, y, x1, x2)
            relaxed = functools.cache(semistatic.solve_relaxed)
            for policy_name in sorted(spec.policies):
                policy = key(cli._cell_policy(config, policy_name, relaxed))
                if not isinstance(policy, Schedule) or (config, policy) not in want:
                    want.append((config, policy))
        assert calls == want
        schedules = sum(isinstance(policy, Schedule) for _, policy in calls)
        if name == "dynamic-deadlines":
            # a table and four baseline names per cell: one call per row
            assert schedules == 0 and len(calls) == len(got) - 1
        else:
            # 64 distinct schedules among the 135 schedule rows, and the 45
            # fifty rows, each of which evaluates the baseline name
            assert (schedules, len(calls), len(got) - 1) == (64, 109, 180)

    def test_hand_built_spec_refused_before_any_output(self):
        # parse_sweep_file refuses N = 0; a spec built by hand reaches run_sweep
        spec = cli.SweepSpec(x1=[1], x2=[1], w=[2], N=[0], pe=[0.2], y=[1], policies=["mw"])
        buf = io.StringIO()
        with pytest.raises(ValueError, match="^N must be >= 1, got 0$"):
            run_sweep(spec, buf)
        assert buf.getvalue() == ""

    def test_pe_close_to_another_reads_back(self):
        # both print as 0.123457 at 6 significant digits
        spec = parse_sweep_file(
            "x1=0\nx2=0\nw=1\nN=2\npe=0.1234567,0.1234568\ny=1\npolicies=fifty\n"
        )
        buf = io.StringIO()
        run_sweep(spec, buf)
        lines = buf.getvalue().splitlines()[1:]
        assert [line.split(",")[4] for line in lines] == ["0.1234567", "0.1234568"]
        assert [csv_row(line).config.p_e for line in lines] == [0.1234567, 0.1234568]
        row = csv_row(lines[0])
        # 12 significant digits would read back as 0.3
        row.config = dataclasses.replace(row.config, p_e=0.1 + 0.2)
        assert csv_row(row.to_csv()).config.p_e == 0.1 + 0.2

    def test_monte_carlo_rows_have_intervals(self):
        spec = parse_sweep_file(
            "x1=0\nx2=0\nw=2\nN=2\npe=0.5\ny=1\npolicies=fifty\n"
            "evaluator=monte-carlo\nreps=20000\nseed=4\n"
        )
        buf = io.StringIO()
        run_sweep(spec, buf)
        row = buf.getvalue().splitlines()[1].split(",")
        assert float(row[8]) <= float(row[7]) <= float(row[9])

    def test_dynamic_sweep_file_monte_carlo_golden(self):
        # sweeps/dynamic-deadlines.sweep under Monte Carlo, recorded while
        # each cell drew its own stream; ms column dropped
        text = (SWEEPS / "dynamic-deadlines.sweep").read_text().replace(
            "evaluator = exact", "evaluator = monte-carlo\nreps = 20000\nseed = 5"
        )
        buf = io.StringIO()
        assert run_sweep(parse_sweep_file(text), buf) == 0
        got = [line.rsplit(",", 1)[0] for line in buf.getvalue().splitlines()]
        assert got == (GOLDEN / "dynamic-deadlines-mc.csv").read_text().splitlines()

    def test_semistatic_sweep_file_monte_carlo_golden(self):
        # sweeps/semistatic-deadlines.sweep under Monte Carlo, recorded
        # while each frame's draws were counted per policy; ms column
        # dropped. Its schedules take the per-epoch path of the sampler.
        text = (SWEEPS / "semistatic-deadlines.sweep").read_text().replace(
            "evaluator = exact", "evaluator = monte-carlo\nreps = 20000\nseed = 5"
        )
        buf = io.StringIO()
        assert run_sweep(parse_sweep_file(text), buf) == 0
        got = [line.rsplit(",", 1)[0] for line in buf.getvalue().splitlines()]
        assert got == (GOLDEN / "semistatic-deadlines-mc.csv").read_text().splitlines()

    def test_monte_carlo_cell_over_cap_leaves_the_others_alone(self):
        # opt's search of 11^6 schedules exceeds its cap; mw still runs
        spec = parse_sweep_file(
            "x1=1\nx2=1\nw=6\nN=12\npe=0.2\ny=1\npolicies=opt, mw\n"
            "evaluator=monte-carlo\nreps=3000\nseed=8\n"
        )
        buf = io.StringIO()
        assert run_sweep(spec, buf) == 4
        rows = {r.policy: r for r in map(csv_row, buf.getvalue().splitlines()[1:])}
        assert sorted(rows) == ["mw", "opt"]
        assert rows["opt"].error.startswith("exhaustive search over 1771561 schedules")
        assert rows["opt"].dvp is None
        cfg = ScenarioConfig(N=12, p_e=0.2, w=6, y=1, x1=1, x2=1)
        [solo] = simulate_policies(cfg, ["mw"], 3000, 8)
        assert rows["mw"].error == ""
        assert [fmt_prob(v) for v in (rows["mw"].dvp, rows["mw"].ci_low, rows["mw"].ci_high)] == [
            fmt_prob(v) for v in (solo.dvp_hat, solo.ci_low, solo.ci_high)
        ]

    def test_one_policy_under_two_names_gives_identical_rows(self):
        # at N = 2 every schedule is n1 = 1, 1, 1: opt's and fifty's rows
        # share each chunk's draws in the joint run, and mw's row sits between
        spec = parse_sweep_file(
            "x1=1\nx2=2\nw=3\nN=2\npe=0.4\ny=1\npolicies=opt, mw, fifty\n"
            "evaluator=monte-carlo\nreps=4000\nseed=2\n"
        )
        buf = io.StringIO()
        assert run_sweep(spec, buf) == 0
        rows = [ln.split(",") for ln in buf.getvalue().splitlines()[1:]]
        assert [r[6] for r in rows] == ["fifty", "mw", "opt"]
        assert rows[0][7:10] == rows[2][7:10]

    def test_joint_run_error_fills_every_monte_carlo_row(self, monkeypatch):
        def fails(config, policies, replications, seed):
            raise ValueError("no run")

        monkeypatch.setattr(cli, "simulate_policies", fails)
        spec = parse_sweep_file(
            "x1=1\nx2=1\nw=3\nN=3\npe=0.4\ny=1\npolicies=mw, fifty\n"
            "evaluator=monte-carlo\nreps=1000\nseed=2\n"
        )
        buf = io.StringIO()
        assert run_sweep(spec, buf) == 4
        rows = [csv_row(ln) for ln in buf.getvalue().splitlines()[1:]]
        assert [(r.policy, r.dvp, r.error) for r in rows] == [
            ("fifty", None, "no run"), ("mw", None, "no run")
        ]

    def test_move_table_over_budget_fills_every_monte_carlo_row(self, monkeypatch):
        monkeypatch.setattr(sim, "MOVES_BYTE_CAP", 1000)
        spec = parse_sweep_file(
            "x1=1\nx2=1\nw=3\nN=3\npe=0.4\ny=1\npolicies=mw, fifty, wtb-w\n"
            "evaluator=monte-carlo\nreps=1000\nseed=2\n"
        )
        buf = io.StringIO()
        assert run_sweep(spec, buf) == 4
        rows = [csv_row(ln) for ln in buf.getvalue().splitlines()[1:]]
        assert [r.policy for r in rows] == ["fifty", "mw", "wtb-w"]
        for row in rows:
            assert row.dvp is None and row.ci_low is None
            assert row.error.startswith("Monte Carlo move table needs ")
            assert row.error.endswith(" cap is 1000")

    def test_failing_cell_flagged_and_exit_four(self):
        spec = parse_sweep_file(
            "x1=0\nx2=0\nw=8\nN=12\npe=0.2\ny=1\npolicies=opt, fifty\n"
        )
        buf = io.StringIO()
        assert run_sweep(spec, buf) == 4
        lines = buf.getvalue().splitlines()
        bad = [ln for ln in lines[1:] if ln.split(",")[7] == ""]
        good = [ln for ln in lines[1:] if ln.split(",")[7] != ""]
        assert len(bad) == 1 and len(good) == 1
        assert len(bad[0].split(",")) == 12  # trailing error column

    @staticmethod
    def count_builds(monkeypatch) -> list[ScenarioConfig]:
        """The config of every kernel built from here on, from an empty cache."""
        built = []
        init = TransitionKernel.__init__

        def counted(kernel, config):
            built.append(config)
            init(kernel, config)

        monkeypatch.setattr(mdp, "_kept", OrderedDict())
        monkeypatch.setattr(TransitionKernel, "__init__", counted)
        return built

    def test_exact_sweep_shares_one_kernel_per_backlog_pair(self, monkeypatch):
        built = self.count_builds(monkeypatch)
        spec = parse_sweep_file((SWEEPS / "dynamic-deadlines.sweep").read_text())
        buf = io.StringIO()
        assert run_sweep(spec, buf) == 0
        # a kernel per cell and per table made 96: 16 configs x (5 + 1)
        assert [(c.x1, c.x2) for c in built] == [(1, 1), (1, 3), (3, 1), (3, 3)]
        again = io.StringIO()
        assert run_sweep(spec, again) == 0
        assert len(built) == 4  # the second run builds none
        without_ms = lambda out: [ln.rsplit(",", 1)[0] for ln in out.getvalue().splitlines()]
        assert without_ms(again) == without_ms(buf)
        monkeypatch.undo()
        rows = [csv_row(ln) for ln in buf.getvalue().splitlines()[1:]]
        assert len(rows) == 80
        for row in rows:
            policy = value_iteration(row.config) if row.policy == "mdp" else row.policy
            # as a call outside the sweep evaluates it
            assert fmt_prob(row.dvp) == fmt_prob(exact_dvp_chain(row.config, policy).dvp)

    def test_two_loss_rates_build_one_kernel_per_key(self, monkeypatch):
        # sorted cells alternate p_e, so the one-kernel cache this replaced
        # built 32 kernels over these 8 keys
        text = (SWEEPS / "dynamic-deadlines.sweep").read_text()
        spec = parse_sweep_file(text.replace("pe = 0.4", "pe = 0.4, 0.05"))
        built = self.count_builds(monkeypatch)
        buf = io.StringIO()
        assert run_sweep(spec, buf) == 0
        assert len(built) == len(set(map(kernel_key, built))) == 8
        lines = [ln.rsplit(",", 1)[0] for ln in buf.getvalue().splitlines()]
        assert len(lines) == 1 + 160
        got = [ln for ln in lines if ln.split(",")[4] != "0.05"]
        assert got == (GOLDEN / "dynamic-deadlines.csv").read_text().splitlines()

    @staticmethod
    def count_steps(monkeypatch) -> dict[str, int]:
        """Calls of TransitionKernel.backward and .forward from here on,
        from an empty cache, as in a fresh process."""
        counts = {"backward": 0, "forward": 0}

        def counted(name):
            method = getattr(TransitionKernel, name)

            def wrapper(kernel, *args):
                counts[name] += 1
                return method(kernel, *args)

            return wrapper

        monkeypatch.setattr(mdp, "_kept", OrderedDict())
        for name in counts:
            monkeypatch.setattr(TransitionKernel, name, counted(name))
        return counts

    @pytest.mark.parametrize(
        "name, first, again",
        [
            # one kernel per backlog pair at w = 3..6: its table grows by 3, 1,
            # 1 and 1 frames (3 + 4 + 5 + 6 backward steps per pair when each
            # deadline was solved anew), and so does each baseline's chain:
            # mw, wfq and bp by two backward passes, 3 x 2 x 6 steps per
            # pair, and fifty, which plays one action, by 6 forward steps.
            # The table's own chain runs in full per cell, two backward
            # passes of 3 + 4 + 5 + 6 steps, on every run: 24 + 4 x (36 +
            # 36) backward steps, then 4 x 36
            (
                "dynamic-deadlines",
                {"backward": 312, "forward": 24},
                {"backward": 144, "forward": 0},
            ),
            # three kernels, each table and baseline chain grown by 3 frames
            # twice (6 backward steps per table, 3 x 2 x 6 per kernel for mw,
            # wfq and bp, 6 forward steps for fifty); the kernel of (x1, y) =
            # (1, 2) comes back as (2, 1) at w = 3 after w = 6 and is read,
            # not run (36 backward steps when each deadline was solved anew).
            # The table's chains take two passes of 4 x (3 + 6) backward
            # steps on every run: 3 x (6 + 36) + 72, then 72
            (
                "dynamic-shorter-deadline",
                {"backward": 198, "forward": 18},
                {"backward": 72, "forward": 0},
            ),
        ],
    )
    def test_kernels_keep_tables_and_baseline_chains(self, monkeypatch, name, first, again):
        counts = self.count_steps(monkeypatch)
        spec = parse_sweep_file((SWEEPS / f"{name}.sweep").read_text())
        golden = (GOLDEN / f"{name}.csv").read_text().splitlines()
        for want in (first, again):  # the second run reads what the first kept
            buf = io.StringIO()
            assert run_sweep(spec, buf) == 0
            assert [ln.rsplit(",", 1)[0] for ln in buf.getvalue().splitlines()] == golden
            assert counts == want
            counts.update(backward=0, forward=0)

    def test_monte_carlo_sweep_keeps_its_kernels_within_the_byte_cap(self, monkeypatch):
        spec = parse_sweep_file(
            "x1=1\nx2=1, 2\nw=3\nN=3\npe=0.4\ny=1\npolicies=mdp, mw, fifty\n"
            "evaluator=monte-carlo\nreps=2000\nseed=4\n"
        )
        one, two = (
            mdp._kernel_nbytes(kernel_key(ScenarioConfig(3, 0.4, 3, 1, 1, x2))) for x2 in (1, 2)
        )
        default_cap = mdp.KERNEL_BYTE_CAP
        kernels, alive_at_build, runs = [], [], []
        init = TransitionKernel.__init__

        def tracked(kernel, config):
            # everything kept and the new kernel fit in the cap at every build
            held = sum(nbytes for nbytes, _ in mdp._kept.values())
            assert held + mdp._kernel_nbytes(kernel_key(config)) <= mdp.KERNEL_BYTE_CAP
            alive_at_build.append(sum(ref() is not None for ref in kernels))
            init(kernel, config)
            kernels.append(weakref.ref(kernel))

        simulate_policies = cli.simulate_policies

        def counted(config, policies, replications, seed):
            runs.append(len(policies))
            return simulate_policies(config, policies, replications, seed)

        monkeypatch.setattr(TransitionKernel, "__init__", tracked)
        monkeypatch.setattr(cli, "simulate_policies", counted)

        def sweep(cap):
            monkeypatch.setattr(mdp, "KERNEL_BYTE_CAP", cap)
            monkeypatch.setattr(mdp, "_kept", OrderedDict())
            for log in (kernels, alive_at_build, runs):
                log.clear()
            buf = io.StringIO()
            assert run_sweep(spec, buf) == 0
            assert runs == [3, 3]  # one joint run per scenario
            return [ln.rsplit(",", 1)[0] for ln in buf.getvalue().splitlines()]

        # room for either kernel, not both: none is built while another is
        # alive, and the last one built stays
        rows = sweep(one + two - 1)
        assert len(rows) == 1 + 6
        assert alive_at_build == [0, 0]
        assert [ref() is not None for ref in kernels] == [False, True]
        # under the default cap both stay
        assert sweep(default_cap) == rows
        assert alive_at_build == [0, 1]
        assert [ref() is not None for ref in kernels] == [True, True]

    def test_sweep_over_kernel_cap_writes_one_error_row_per_cell(self):
        # past the dense kernel's old cap: only opt, at its own cap, fails
        spec = parse_sweep_file(
            "x1=20\nx2=20\nw=5\nN=20\npe=0.4\ny=20\n"
            "policies=mdp, bp, mw, wfq, fifty, opt, wtb-w\n"
        )
        buf = io.StringIO()
        assert run_sweep(spec, buf) == 4
        rows = [csv_row(ln) for ln in buf.getvalue().splitlines()[1:]]
        assert {r.policy: r.error for r in rows} == {
            "bp": "",
            "fifty": "",
            "mdp": "",
            "mw": "",
            "opt": "exhaustive search over 2476099 schedules exceeds cap 1000000",
            "wfq": "",
            "wtb-w": "",
        }
        assert all((r.dvp is None) == (r.policy == "opt") for r in rows)

    def test_cli_sweep_file_to_csv(self, capsys, tmp_path):
        sweep = tmp_path / "sweep.txt"
        sweep.write_text("x1=1\nx2=1\nw=3\nN=4\npe=0.2\ny=1\npolicies=fifty\n")
        out_csv = tmp_path / "rows.csv"
        code, _, _ = run_cli(capsys, "sweep", str(sweep), "--out", str(out_csv))
        assert code == 0
        assert out_csv.read_text().splitlines()[0] == SWEEP_HEADER

    def test_bad_sweep_file_usage_error(self, capsys, tmp_path):
        sweep = tmp_path / "bad.txt"
        sweep.write_text("policies=\n")
        code, _, err = run_cli(capsys, "sweep", str(sweep))
        assert code == 2
        assert "error" in err


def sweep_configs(name: str) -> list[ScenarioConfig]:
    spec = parse_sweep_file((SWEEPS / f"{name}.sweep").read_text())
    return [
        ScenarioConfig(N, pe, w, y, x1, x2)
        for x1, x2, w, N, pe, y in itertools.product(
            spec.x1, spec.x2, spec.w, spec.N, spec.pe, spec.y
        )
    ]


def random_configs(count: int, seed: int) -> list[ScenarioConfig]:
    rng = np.random.default_rng(seed)
    return [
        ScenarioConfig(
            N=int(rng.integers(1, 9)),
            p_e=0.0 if rng.random() < 0.2 else float(rng.uniform(0.0, 0.9)),
            w=int(rng.integers(1, 7)),
            y=int(rng.integers(1, 5)),
            x1=int(rng.integers(0, 5)),
            x2=int(rng.integers(0, 5)),
        )
        for _ in range(count)
    ]


@pytest.mark.parametrize(
    "configs",
    [
        sweep_configs("semistatic-deadlines"),
        sweep_configs("dynamic-deadlines"),
        random_configs(60, seed=30),
    ],
    ids=["semistatic-deadlines", "dynamic-deadlines", "random"],
)
def test_fifty_baseline_is_the_even_split(configs):
    # a sweep's fifty row evaluates the baseline name, not the schedule
    # semistatic.even_split: both must give the same chain and the same stream
    for cfg in configs:
        split = semistatic.even_split(cfg)
        named, scheduled = exact_dvp_chain(cfg, "fifty"), exact_dvp_chain(cfg, split)
        assert (named, named.mass_residual, named.states) == (
            scheduled, scheduled.mass_residual, scheduled.states
        ), cfg
        for seed in (0, 5):
            named_sim, split_sim = simulate_policies(cfg, ["fifty", split], 5000, seed)
            assert named_sim == split_sim, cfg

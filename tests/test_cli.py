"""End-to-end tests of the command-line interface."""

import csv
import gc
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import convexmix
from convexmix import audit, bounds, cli, mixture, oracle, signals, verify
from convexmix.mixture import NumericError
from convexmix.signals import read_trajectory


def run_cli(*argv):
    return cli.main(list(argv))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def read_strict_json(path):
    """The file parsed as strict JSON, which has no NaN or Infinity token."""
    with open(path) as fh:
        return json.load(fh, parse_constant=_refuse_constant)


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.fixture()
def no_work(monkeypatch):
    """Every layer call that starts a command's work fails the test."""
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the command line was checked")

    for module, name in ((signals, "generate"), (signals, "read_trajectory"),
                         (mixture, "run"), (audit, "search_violations"),
                         (cli, "run_verification")):
        monkeypatch.setattr(module, name, no_work)


class TestRunCommand:
    def test_first_benchmark(self, workdir):
        code = run_cli("run", "--case", "1", "--n", "200")
        assert code == 0
        summary = read_json("summary.json")
        assert summary["n"] == 200
        assert summary["beta_o"] == 1.0
        assert summary["l_best"] == 0.0
        assert summary["theorem_valid"] is True
        assert summary["out_of_range_steps"] == 0
        frame = read_trajectory("trajectory.csv")
        assert len(frame) == 200

    def test_two_step_losses(self, workdir):
        """First prediction sits at 0 against target 1/2, second step
        contributes nothing because the experts bracket the target evenly."""
        assert run_cli("run", "--case", "1", "--n", "2") == 0
        frame = read_trajectory("trajectory.csv")
        assert frame.cum_loss[0] == 0.25
        assert frame.cum_loss[1] == 0.25

    def test_last_row_matches_summary(self, workdir):
        assert run_cli("run", "--case", "2", "--n", "150") == 0
        summary = read_json("summary.json")
        frame = read_trajectory("trajectory.csv")
        assert frame.cum_loss[-1] == summary["l_alg"]
        assert frame.regret[-1] == summary["regret"]
        assert frame.norm_regret[-1] == summary["norm_regret"]
        assert frame.bound_norm[-1] == summary["bound_normalized"]
        assert frame.best_beta_prefix[-1] == summary["beta_o"]
        assert frame.best_loss_prefix[-1] == summary["l_best"]

    def test_summary_reproduces_bound_arithmetic(self, workdir):
        assert run_cli("run", "--case", "1", "--n", "300") == 0
        s = read_json("summary.json")
        constants = bounds.constants_from_mu(0.08, 0.5, 0.08)
        rb = bounds.regret_and_bound(s["l_alg"], s["l_best"], constants, s["n"])
        assert s["regret"] == pytest.approx(rb.regret, abs=1e-12)
        assert s["bound_total"] == pytest.approx(rb.bound_total, rel=1e-12)
        assert s["norm_regret"] == pytest.approx(rb.regret / s["n"], abs=1e-12)

    def test_bound_dominates_regret_on_first_benchmark(self, workdir):
        assert run_cli("run", "--case", "1", "--n", "2000") == 0
        frame = read_trajectory("trajectory.csv")
        assert np.all(frame.bound_norm >= frame.norm_regret)

    @pytest.mark.parametrize("n, holds", [(2000, True), (100_000, False)])
    def test_bound_holds_reads_every_prefix(self, workdir, n, holds):
        """The first benchmark's regret passes its guarantee between n = 2000
        and 1e5 (353.56 against 152.38 at the end, first at step 37,131) with
        every step in range."""
        assert run_cli("run", "--case", "1", "--n", str(n)) == 0
        s = read_json("summary.json")
        frame = read_trajectory("trajectory.csv")
        assert s["theorem_valid"] is True
        assert s["bound_holds"] is holds
        assert s["bound_holds"] == bool(np.all(frame.regret <= s["bound_total"]))
        crossed = np.flatnonzero(frame.regret > s["bound_total"])
        assert s["first_bound_cross_t"] == (0 if holds else 37_131)
        assert s["first_bound_cross_t"] == (int(frame.t[crossed[0]]) if len(crossed) else 0)

    def test_eps_flag_derives_rate(self, workdir):
        assert run_cli("run", "--case", "1", "--n", "50", "--eps", "0.0016232528462103366") == 0
        s = read_json("summary.json")
        c = bounds.constants_from_eps(0.0016232528462103366, 0.5, 0.08)
        assert c.mu == pytest.approx(0.08, rel=1e-12)
        assert s["bound_total"] == pytest.approx(152.37936659592276, rel=1e-9)

    def test_csv_input_with_clipping(self, workdir):
        path = workdir / "seq.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("y", "yhat1", "yhat2"))
            writer.writerows([(0.1, 0.2, -0.3), (1.5, 0.0, 0.0), (0.3, -0.2, 0.1)])
        code = run_cli("run", "--input", str(path), "--mu", "0.1", "--out", "t.csv",
                       "--summary", "s.json")
        assert code == 0
        s = read_json("s.json")
        assert s["n"] == 3
        assert s["clip_count"] == 1
        frame = read_trajectory("t.csv")
        assert frame.y[1] == 1.0  # clipped to the default cap

    def test_spec_file_source(self, workdir):
        spec = workdir / "spec.json"
        spec.write_text(json.dumps({"kind": "alternating", "n": 40, "amplitude": 0.5}))
        assert run_cli("run", "--spec", str(spec), "--mu", "0.2") == 0
        assert read_json("summary.json")["n"] == 40

    @pytest.mark.parametrize("fields, message", [
        ({"kind": "constant", "n": 10.5}, "sequence field n must be an integer, got 10.5"),
        ({"kind": "square_wave", "n": 10, "period": "4"},
         "sequence field period must be an integer, got '4'"),
        ({"kind": "constant", "n": True}, "sequence field n must be an integer, got True"),
        ({"kind": "constant", "n": None}, "sequence field n must be an integer, got None"),
        ({"kind": "piecewise_switch", "n": 10, "switch_at": 5.0},
         "sequence field switch_at must be an integer, got 5.0"),
        ({"kind": "constant", "n": 10, "y_bound": "0.5"},
         "sequence field y_bound must be a real number, got '0.5'"),
        ({"kind": "constant", "n": 10, "amplitude": False},
         "sequence field amplitude must be a real number, got False"),
        ({"kind": "custom_file", "path": ["seq.csv"]},
         "sequence field path must be a string, got ['seq.csv']"),
    ], ids=["n float", "period str", "n bool", "n null", "switch_at float", "y_bound str",
            "amplitude bool", "path list"])
    def test_spec_field_types_are_input_errors(self, workdir, capsys, fields, message):
        """A spec field of the wrong JSON type exits 2 with a message, not a traceback."""
        (workdir / "spec.json").write_text(json.dumps(fields))
        assert run_cli("run", "--spec", "spec.json", "--mu", "0.1") == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(p.name for p in workdir.iterdir()) == ["spec.json"]

    def test_monitor_mode_reports_out_of_range(self, workdir):
        """With a floor of 0.3 the first benchmark drifts above 0.7 and the
        monitor run flags it instead of projecting."""
        assert run_cli("run", "--case", "1", "--n", "5000", "--mode", "monitor",
                       "--lambda-plus", "0.3") == 0
        s = read_json("summary.json")
        assert s["out_of_range_steps"] > 0
        assert s["projected_steps"] == 0
        assert s["theorem_valid"] is False

    def test_project_mode_pins_weight(self, workdir):
        assert run_cli("run", "--case", "1", "--n", "5000", "--mode", "project",
                       "--lambda-plus", "0.3") == 0
        s = read_json("summary.json")
        assert s["projected_steps"] > 0
        assert s["final_lambda"] == 0.7
        assert s["theorem_valid"] is True


class TestRunOutputs:
    @pytest.mark.parametrize("flags", [
        ("--summary", "nodir/s.json"),
        ("--out", "nodir/t.csv"),
        ("--summary", "outdir"),
        ("--out", "outdir"),
        ("--out", "keep.json", "--summary", "keep.json"),
        ("--out", "./keep.json", "--summary", "keep.json"),
    ], ids=["summary in missing dir", "out in missing dir", "summary is dir", "out is dir",
            "same path", "same file"])
    def test_unwritable_output_leaves_no_partial_output(self, workdir, capsys, flags):
        """Both output paths are checked before either file is created or truncated."""
        (workdir / "outdir").mkdir()
        (workdir / "keep.json").write_text("keep\n")
        assert run_cli("run", "--case", "1", "--n", "10", *flags) == 2
        assert sorted(p.name for p in workdir.iterdir()) == ["keep.json", "outdir"]
        assert (workdir / "keep.json").read_text() == "keep\n"
        assert list((workdir / "outdir").iterdir()) == []
        assert capsys.readouterr().err.startswith("error: ")


class TestWindow:
    def test_window_matches_slice_recomputation(self, workdir):
        lo, hi = 101, 220
        assert run_cli("run", "--case", "2", "--n", "300",
                       "--window", f"{lo}:{hi}") == 0
        s = read_json("summary.json")
        assert s["window"] == f"{lo}:{hi}"
        frame = read_trajectory("trajectory.csv")
        samples = np.stack((frame.y, frame.yhat1, frame.yhat2), axis=1)[lo - 1: hi]
        beta, best_loss = map(float, oracle.best_betas(*oracle.stats_from(samples)[1:]))
        w_loss = float(frame.cum_loss[hi - 1] - frame.cum_loss[lo - 2])
        constants = bounds.constants_from_mu(0.04, 0.54, 0.08)
        rb = bounds.regret_and_bound(
            w_loss, best_loss, constants, hi - lo + 1,
            lambda_init=float(frame.lam[lo - 1]),
        )
        # the summary derives slice statistics by subtracting streaming
        # prefixes; cancellation caps agreement with a from-scratch pass
        assert s["window_beta"] == pytest.approx(beta, abs=1e-9)
        assert s["window_best_loss"] == pytest.approx(best_loss, abs=1e-9)
        assert s["window_regret"] == pytest.approx(rb.regret, abs=1e-9)
        assert s["window_bound_total"] == pytest.approx(rb.bound_total, rel=1e-12)

    @pytest.mark.parametrize("mode", ["project", "monitor"])
    @pytest.mark.parametrize("case", ["1", "2"])
    def test_full_range_window_matches_global_figures(self, workdir, case, mode):
        """A window over the whole run is priced by the whole run's own prefix
        columns through the same ``best_betas``, so every figure is equal."""
        assert run_cli("run", "--case", case, "--n", "80", "--mode", mode,
                       "--window", "1:80") == 0
        s = read_json("summary.json")
        assert s["window_beta"] == s["beta_o"]
        assert s["window_best_loss"] == s["l_best"]
        assert s["window_regret"] == s["regret"]
        assert s["window_bound_total"] == s["bound_total"]

    def test_window_absent_without_flag(self, workdir):
        assert run_cli("run", "--case", "1", "--n", "10") == 0
        assert "window" not in read_json("summary.json")

    @pytest.mark.parametrize("window", ["5", "9:5", "0:4", "3:99", "a:b"])
    def test_bad_windows_are_usage_errors(self, workdir, window):
        assert run_cli("run", "--case", "1", "--n", "10", "--window", window) == 2


BAD_JSON = "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
# a three-row input sequence
SEQ_TEXT = "y,yhat1,yhat2\n0.1,0.2,-0.3\n0.5,0,0\n0.3,-0.2,0.1\n"


def _trajectory_text(**row4) -> str:
    """A 5-row trajectory file; each NAME=CELL of ``row4`` replaces a cell of file row 4."""
    lines = [",".join(signals.TRAJECTORY_COLUMNS)]
    for t in range(1, 6):
        cells = dict(zip(signals.TRAJECTORY_COLUMNS,
                         [str(t), "0.5", "0.5", "-0.5", "0.5", "0", "0", "1", str(t), "1", "0",
                          "0", "0.1", repr(152 / t), "1", "0"]))
        if t == 3:
            cells.update(row4)
        lines.append(",".join(cells.values()))
    return "\n".join(lines) + "\n"


CAP_RANGE = "magnitude cap must lie within [1e-150, 1e150]"
NOT_NORMAL = "outside the normal floats"
AT_SUPREMUM = "rounds the learning rate up to its supremum"
# every usage error: (files written first, command, its exact standard error)
USAGE_ERRORS = {
    "window-no-colon": ({}, "run --case 1 --n 10 --window 5",
                        "window must look like A:B with integers, got '5'"),
    "window-not-integers": ({}, "run --case 1 --n 10 --window a:b",
                            "window must look like A:B with integers, got 'a:b'"),
    "window-reversed": ({}, "run --case 1 --n 10 --window 9:5",
                        "window 9:5 is out of range for a length-10 sequence"),
    "window-zero": ({}, "run --case 1 --n 10 --window 0:4",
                    "window 0:4 is out of range for a length-10 sequence"),
    "window-past-end": ({}, "run --case 1 --n 10 --window 3:99",
                        "window 3:99 is out of range for a length-10 sequence"),
    "missing-rate": ({"seq.csv": "y,yhat1,yhat2\n0.1,0.1,0.1\n"}, "run --input seq.csv",
                     "provide --mu or --eps for this sequence source"),
    # caps whose constants would leave the normal floats (each divided by zero)
    "run-cap-tiny": ({}, "run --case 1 --n 10 --ybound 1e-300",
                     f"{CAP_RANGE}, got 1e-300"),
    "verify-cap-tiny": ({}, "verify --trials 1 --n 5 --ybound 1e-200",
                        f"{CAP_RANGE}, got 1e-200"),
    "verify-cap-huge": ({}, "verify --trials 1 --n 5 --ybound 1e160",
                        f"{CAP_RANGE}, got 1e+160"),
    "lemma-audit-cap-huge": ({}, "lemma-audit --eps 0.1 --ybound 1e300",
                             f"{CAP_RANGE}, got 1e+300"),
    "lemma-audit-triple-cap-huge": ({}, "lemma-audit --a 0.05 --b 0.1 --mu 1 --ybound 1e200 "
                                        "--budget 100", f"{CAP_RANGE}, got 1e+200"),
    # a slack whose b or a is not a normal float, or whose rate rounds up to
    # the supremum, is refused by name rather than failing an identity later
    "verify-slack-b-zero": ({}, "verify --trials 1 --n 5 --eps 1e-300 --ybound 1e150",
                            "slack parameter 1e-300 gives b = 0.0 "
                            f"at magnitude cap 1e+150, {NOT_NORMAL}"),
    "run-slack-subnormal": ({}, "run --case 1 --n 10 --eps 1e-320",
                            "slack parameter 1e-320 gives b = 4e-320 "
                            f"at magnitude cap 0.5, {NOT_NORMAL}"),
    "run-mu-subnormal": ({}, "run --case 1 --n 10 --mu 1e-320",
                         "learning rate 1e-320: slack parameter 2.03e-322 gives b = 8.1e-322 "
                         f"at magnitude cap 0.5, {NOT_NORMAL}"),
    "sweep-mu-subnormal": ({}, "sweep --case 1 --n 10 --mu-list 0.05,1e-320",
                           "learning rate 1e-320: slack parameter 2.03e-322 gives b = 8.1e-322 "
                           f"at magnitude cap 0.5, {NOT_NORMAL}"),
    "verify-slack-subnormal": ({}, "verify --trials 1 --n 5 --eps 1e-320",
                               "slack parameter 1e-320 gives b = 1e-320 "
                               f"at magnitude cap 1.0, {NOT_NORMAL}"),
    "verify-mu-subnormal": ({}, "verify --trials 1 --n 5 --mu 1e-320",
                            "learning rate 1e-320: slack parameter 8.1e-322 gives b = 8.1e-322 "
                            f"at magnitude cap 1.0, {NOT_NORMAL}"),
    "lemma-audit-slack-subnormal": ({}, "lemma-audit --eps 1e-320 --budget 10",
                                    "slack parameter 1e-320 gives b = 1e-320 "
                                    f"at magnitude cap 1.0, {NOT_NORMAL}"),
    "run-slack-at-supremum": ({}, "run --case 1 --n 10 --eps 1e16",
                              f"slack parameter 1e+16 {AT_SUPREMUM} 24.721878862793574 "
                              "for this cap and floor"),
    "verify-slack-at-supremum": ({}, "verify --trials 1 --n 5 --eps 1e16",
                                 f"slack parameter 1e+16 {AT_SUPREMUM} 6.180469715698393 "
                                 "for this cap and floor"),
    "lemma-audit-slack-at-supremum": ({}, "lemma-audit --eps 1e16 --budget 10",
                                      f"slack parameter 1e+16 {AT_SUPREMUM} 6.180469715698393 "
                                      "for this cap and floor"),
    "verify-trials-zero": ({}, "verify --trials 0 --n 5", "trials must be at least 1, got 0"),
    "verify-n-zero": ({}, "verify --trials 1 --n 0", "n must be at least 1, got 0"),
    "run-n-zero": ({}, "run --case 1 --n 0", "n must be at least 1, got 0"),
    "run-n-negative": ({}, "run --case 1 --n -3", "n must be at least 1, got -3"),
    "spec-invalid-json": ({"sp.json": "{bad"}, "run --spec sp.json --mu 0.1",
                          f"sequence spec sp.json: invalid JSON ({BAD_JSON})"),
    "spec-not-an-object": ({"sp.json": "[1]"}, "run --spec sp.json --mu 0.1",
                           "sequence spec sp.json: expected an object with a 'kind'"),
    "spec-unknown-key": ({"sp.json": '{"kind": "constant", "nn": 3}'},
                         "run --spec sp.json --mu 0.1", "sequence spec has unknown keys: ['nn']"),
    # a spec field the kind never reads is refused, not ignored; the first is named
    "spec-unread-fields": ({"sp.json": '{"kind": "case1", "n": 50, "amplitude": 0.3, '
                                       '"period": 7, "path": "nope.csv"}'},
                           "run --spec sp.json", "sequence field amplitude is not read by kind case1"),
    "spec-period-on-constant": ({"sp.json": '{"kind": "constant", "n": 5, "period": 7}'},
                                "run --spec sp.json --mu 0.1",
                                "sequence field period is not read by kind constant"),
    "spec-switch-on-square-wave": ({"sp.json": '{"kind": "square_wave", "n": 5, "switch_at": 2}'},
                                   "run --spec sp.json --mu 0.1",
                                   "sequence field switch_at is not read by kind square_wave"),
    "spec-path-on-alternating": ({"sp.json": '{"kind": "alternating", "n": 5, "path": "x.csv"}'},
                                 "run --spec sp.json --mu 0.1",
                                 "sequence field path is not read by kind alternating"),
    "spec-amplitude-on-file": ({"seq.csv": "y,yhat1,yhat2\n0.1,0.1,0.1\n",
                                "sp.json": '{"kind": "custom_file", "path": "seq.csv", '
                                           '"amplitude": 0.5}'},
                               "run --spec sp.json --mu 0.1",
                               "sequence field amplitude is not read by kind custom_file"),
    "input-n-beyond-rows": ({"in.csv": "y,yhat1,yhat2\n0.1,0.1,0.1\n0,0,0\n0.2,0.2,0.2\n"},
                            "run --input in.csv --n 1000 --mu 0.1",
                            "in.csv: n = 1000 exceeds the file's 3 data rows"),
    "audit-eps-and-triple": ({}, "lemma-audit --eps 0.1 --a 1",
                             "choose --eps or an explicit --a/--b/--mu triple, not both"),
    "audit-partial-triple": ({}, "lemma-audit --a 1",
                             "provide --eps or the full --a/--b/--mu triple"),
    # numpy's own refusal of a negative seed names no flag
    "audit-seed-negative": ({}, "lemma-audit --eps 0.1 --seed -1 --budget 5000",
                            "seed must be nonnegative, got -1"),
    "verify-seed-negative": ({}, "verify --seed -1", "seed must be nonnegative, got -1"),
    "sweep-bad-mu-list": ({}, "sweep --case 1 --n 10 --mu-list 0.1,zap",
                          "--mu-list must be comma-separated numbers, got '0.1,zap'"),
    "sweep-empty-mu-list": ({}, "sweep --case 1 --n 10 --mu-list ,", "--mu-list is empty"),
    "outputs-collide": ({}, "run --case 1 --n 10 --out same.csv --summary same.csv",
                        "output paths must differ, got same.csv, same.csv"),
    "output-dir-missing": ({}, "run --case 1 --n 10 --out nodir/x.csv",
                           "cannot write nodir/x.csv: it is a directory or its directory is missing"),
    "plot-onto-input": ({"t.csv": "x"}, "plot --input t.csv --out t.csv",
                        "plot output t.csv is the input file"),
    # an output never replaces a file the command reads
    "run-onto-input": ({"in.csv": SEQ_TEXT}, "run --input in.csv --mu 0.1 --out in.csv",
                       "run output in.csv is the input file"),
    "run-summary-onto-spec": ({"s.json": '{"kind": "constant", "n": 5}'},
                              "run --spec s.json --mu 0.1 --summary s.json",
                              "run output s.json is the input file"),
    "run-onto-spec-file": ({"in.csv": SEQ_TEXT,
                            "s.json": '{"kind": "custom_file", "path": "./in.csv"}'},
                           "run --spec s.json --mu 0.1 --out in.csv",
                           "run output in.csv is the input file"),
    "sweep-onto-input": ({"in.csv": SEQ_TEXT},
                         "sweep --input in.csv --mu-list 0.1 --out in.csv",
                         "sweep output in.csv is the input file"),
    "sweep-rate-file-onto-spec": ({"sweep_mu0.1.json": '{"kind": "constant", "n": 5}'},
                                  "sweep --spec sweep_mu0.1.json --mu-list 0.1",
                                  "sweep output sweep_mu0.1.json is the input file"),
    "plot-nan-regret": ({"t.csv": _trajectory_text(norm_regret="nan")},
                        "plot --input t.csv --out p.svg",
                        "t.csv: row 4: column norm_regret is nan; plot needs a finite value"),
    "plot-inf-bound": ({"t.csv": _trajectory_text(bound_norm="-inf")},
                       "plot --input t.csv --logx --out p.svg",
                       "t.csv: row 4: column bound_norm is -inf; plot needs a finite value"),
    "plot-logx-zero-step": ({"t.csv": _trajectory_text(t="0", norm_regret="inf")},
                            "plot --input t.csv --logx --out p.svg",
                            "t.csv: row 4: column t is 0; plot needs a positive step for --logx"),
    "plot-logx-negative-step": ({"t.csv": _trajectory_text(t="-3")},
                                "plot --input t.csv --logx --out p.svg",
                                "t.csv: row 4: column t is -3; plot needs a positive step for --logx"),
}


# how flags combine, which argparse alone checks: (command, the end of its message)
ARGPARSE_REFUSALS = {
    "no-source": ("run --mu 0.1", "one of the arguments --case --input --spec is required"),
    "two-sources": ("run --case 1 --input x.csv --mu 0.1",
                    "argument --input: not allowed with argument --case"),
    "sweep-no-source": ("sweep --mu-list 0.1", "one of the arguments --case --input --spec is required"),
    "mu-and-eps": ("run --case 1 --mu 0.1 --eps 0.1", "argument --eps: not allowed with argument --mu"),
    "verify-mu-and-eps": ("verify --mu 0.5 --eps 0.1", "argument --eps: not allowed with argument --mu"),
    "sweep-no-mu-list": ("sweep --case 1 --n 10", "the following arguments are required: --mu-list"),
}


class TestUsageErrors:
    @pytest.mark.parametrize("files, command, message", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
    def test_exact_message(self, workdir, capsys, files, command, message):
        """Each usage error prints its one line, exits 2, writes nothing and
        leaves the files it was given as they were."""
        for name, text in files.items():
            (workdir / name).write_text(text)
        assert run_cli(*command.split()) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(p.name for p in workdir.iterdir()) == sorted(files)
        assert {name: (workdir / name).read_text() for name in files} == files

    @pytest.mark.parametrize("command, message", ARGPARSE_REFUSALS.values(), ids=ARGPARSE_REFUSALS)
    def test_argparse_refusal(self, workdir, no_work, capsys, command, message):
        """argparse refuses the combination before any work: exit 2, nothing written,
        its message on the last line of standard error (the usage above wraps by COLUMNS)."""
        assert run_cli(*command.split()) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1].endswith(f": error: {message}")
        assert not any(workdir.iterdir())

    @pytest.mark.parametrize("command, groups", [
        ("run", ["(--case {1,2} | --input INPUT | --spec SPEC)", "[--mu MU | --eps EPS]"]),
        ("verify", ["[--mu MU | --eps EPS]"]),
    ], ids=["run", "verify"])
    def test_help_shows_flag_groups(self, capsys, command, groups):
        """The usage line states which flags exclude each other and which one is required."""
        assert run_cli(command, "--help") == 0
        usage = " ".join(capsys.readouterr().out.split())
        assert all(group in usage for group in groups), usage

    def test_no_source(self, workdir):
        assert run_cli("run", "--mu", "0.1") == 2

    def test_two_sources(self, workdir):
        assert run_cli("run", "--case", "1", "--input", "x.csv", "--mu", "0.1") == 2

    def test_mu_and_eps(self, workdir):
        assert run_cli("run", "--case", "1", "--mu", "0.1", "--eps", "0.1") == 2

    def test_input_needs_rate(self, workdir):
        path = workdir / "seq.csv"
        path.write_text("y,yhat1,yhat2\n0.1,0.1,0.1\n")
        assert run_cli("run", "--input", str(path)) == 2

    def test_missing_file(self, workdir):
        assert run_cli("run", "--input", "no_such.csv", "--mu", "0.1") == 2

    def test_no_command_prints_usage(self, workdir, capsys):
        assert run_cli() == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag(self, workdir):
        assert run_cli("run", "--case", "1", "--frobnicate") == 2

    def test_case_outside_its_choices(self, workdir, no_work, capsys):
        """argparse's ``choices`` is the one check of --case."""
        assert run_cli("run", "--case", "3") == 2
        assert "argument --case: invalid choice: 3" in capsys.readouterr().err
        assert not any(workdir.iterdir())

    @pytest.mark.parametrize("config, command", [
        ({"case": 1, "n": 10}, "run --case 1"),
        ({"case": 1, "n": 10}, "sweep --case 1 --mu-list 0.1"),
        ({"trials": 1, "n": 5}, "verify"),
    ], ids=["run", "sweep", "verify"])
    def test_config_flag_is_refused(self, workdir, no_work, capsys, config, command):
        """Every setting is its own flag: a config file is an unknown argument, refused
        by argparse before any work, even when it holds only valid settings."""
        (workdir / "c.json").write_text(json.dumps(config))
        assert run_cli(*command.split(), "--config", "c.json") == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith("unrecognized arguments: --config c.json\n")
        assert sorted(p.name for p in workdir.iterdir()) == ["c.json"]

    def test_numeric_failure_exit_code(self, workdir, monkeypatch):
        def boom(*args, **kwargs):
            raise NumericError("step 3: synthetic blowup")

        monkeypatch.setattr(cli.mixture, "run", boom)
        code = run_cli("run", "--case", "1", "--n", "10")
        assert code == 3

    @pytest.mark.parametrize("target, argv", [
        ((audit, "search_violations"),
         ("lemma-audit", "--eps", "0.1", "--budget", "10000000000000", "--out", "w.json")),
        ((cli, "run_verification"),
         ("verify", "--trials", "1", "--n", "100000000000", "--out", "v.json")),
        ((cli.mixture, "run"), ("run", "--case", "1", "--n", "10")),
    ], ids=["lemma-audit", "verify", "run"])
    def test_out_of_memory_is_an_input_error(self, workdir, monkeypatch, capsys, target, argv):
        """An allocation too large for the machine exits 2, not 1 ("witnesses found")."""
        def boom(*args, **kwargs):
            raise MemoryError("Unable to allocate 373. TiB for an array")

        monkeypatch.setattr(*target, boom)
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == "error: Unable to allocate 373. TiB for an array\n"
        assert not any(workdir.iterdir())


class TestVerifyCommand:
    def test_small_run_passes(self, workdir, capsys):
        code = run_cli("verify", "--trials", "2", "--n", "60", "--seed", "0",
                       "--out", "report.json")
        assert code == 0
        report = read_json("report.json")
        assert report["all_pass"] is True
        assert set(report["suites"]) == {
            "constant_identities", "per_step_margin", "telescoping",
            "form_equivalence", "oracle_agreement",
        }
        assert all(not s["failures"] for s in report["suites"].values())
        out = capsys.readouterr().out
        assert out.count(": ") >= 5 and "FAILURES" not in out

    @pytest.mark.parametrize("flags, checked", [((), 11), (("--override-a", "5"), 10)])
    def test_identity_count_is_the_checks_run(self, workdir, flags, checked):
        """Eight identity comparisons, the two root checks and the eps
        roundtrip; a = 5 makes 1 - 4*a*s negative, and the refused roots
        count as one failed check."""
        run_cli("verify", "--trials", "1", "--n", "5", *flags, "--out", "r.json")
        assert read_json("r.json")["suites"]["constant_identities"]["checked"] == checked

    def test_telescoping_suite_can_fail(self, workdir, monkeypatch):
        """A divergence from the start weight, 1/2, off by 1e-6 fails all
        three weights of every trial, each failure naming its seed and
        weight; the margins do not use it.  (A shift of every divergence
        would cancel in the drop.)"""
        c = bounds.constants_from_eps(0.1, 1.0, 0.08)
        args = (c, 4, 50, 3)
        margins = verify._margin_and_telescope_suites(*args)[0]
        exact = bounds.kl
        monkeypatch.setattr(bounds, "kl", lambda beta, lam: exact(beta, lam) + 1e-6 * (lam == 0.5))
        got_margins, tele = verify._margin_and_telescope_suites(*args)
        assert got_margins == margins and tele["checked"] == 12
        assert [(f["seed"], f["beta"]) for f in tele["failures"]] == [
            (seed, beta) for seed in range(3, 7) for beta in (0.0, 0.5, 1.0)]

    def test_equivalence_draws_are_the_scalar_stream(self, monkeypatch):
        """The suite draws a trial's ten (lam, mu, y, yhat1, yhat2) in one
        generator call; they are the values of three ``rng.uniform`` calls
        per draw, bit for bit.  A second form that disagrees everywhere
        fails every draw, each failure naming its seed, lam and mu."""
        c = bounds.constants_from_eps(0.1, 0.7, 0.08)
        cap2 = c.y_bound * c.y_bound
        seen = []

        def disagree(mu, lam, y, y1, y2):
            seen.append((mu, lam, y, y1, y2))
            return -1.0

        monkeypatch.setattr(mixture, "multiplicative_lambda", disagree)
        suite = verify._equivalence_suite(c, 2, 3)
        want_failures, want_args = [], []
        for trial_seed in (50_003, 50_004):
            rng = np.random.default_rng(trial_seed)
            for _ in range(10):
                lam = float(rng.uniform(0.01, 0.99))
                mu = float(rng.uniform(0.01, 2.0)) / cap2
                ys = rng.uniform(-c.y_bound, c.y_bound, 3).tolist()
                want_failures.append((trial_seed, lam, mu))
                want_args.append((mu, lam, *ys))
        assert suite["checked"] == 20
        assert [(f["seed"], f["lam"], f["mu"]) for f in suite["failures"]] == want_failures
        assert seen == want_args

    def test_degenerate_sizes(self, workdir):
        assert run_cli("verify", "--trials", "1", "--n", "1", "--seed", "0",
                       "--out", "r.json") == 0

    @pytest.mark.parametrize("ybound", ["10", "100"])
    def test_large_caps_pass(self, workdir, ybound):
        """The equivalence suite draws its rates in units of 1/Y^2, so no
        update saturates the weight at a large cap."""
        assert run_cli("verify", "--ybound", ybound, "--out", "r.json") == 0
        assert read_json("r.json")["all_pass"] is True

    @pytest.mark.parametrize("cells", [300, 7 * 300, 33 * 300, 10**6])
    def test_block_width_changes_no_byte(self, workdir, monkeypatch, cells):
        """Trials advance in blocks of one mixture.run call each; one trial
        per block, 7 (narrow), 33 (stacked, partial last block) or all 40
        at once write the same report."""
        argv = ("verify", "--trials", "40", "--n", "300", "--seed", "5", "--override-a", "0.2")
        assert run_cli(*argv, "--out", "default.json") == 1
        monkeypatch.setattr(verify, "_BLOCK_CELLS", cells)
        assert run_cli(*argv, "--out", "blocked.json") == 1
        assert (workdir / "blocked.json").read_bytes() == (workdir / "default.json").read_bytes()

    def test_tampered_constant_fails(self, workdir, capsys):
        c = bounds.constants_from_eps(0.1, 1.0, 0.08)
        code = run_cli("verify", "--trials", "1", "--n", "20", "--seed", "0",
                       "--override-a", repr(2 * c.a), "--out", "r.json")
        assert code == 1
        report = read_json("r.json")
        assert report["all_pass"] is False
        assert report["suites"]["constant_identities"]["failures"]
        assert "FAILURES" in capsys.readouterr().out

    def test_nan_constant_fails(self, workdir):
        c = bounds.constants_from_eps(0.1, 1.0, 0.08)
        code = run_cli("verify", "--trials", "2", "--n", "20", "--override-a", "nan",
                       "--out", "r.json")
        assert code == 1
        report = read_strict_json("r.json")
        suites = report["suites"]
        assert f"a: nan != {c.a!r}" in suites["constant_identities"]["failures"]
        # a NaN margin is a failure, not a pass
        assert suites["per_step_margin"]["failures"]
        assert report["constants"]["a"] == "NaN"
        assert suites["per_step_margin"]["failures"][0]["worst_margin"] == "NaN"

    def test_infinite_constant_is_written_as_strings(self, workdir):
        assert run_cli("verify", "--trials", "2", "--n", "20", "--override-a", "inf",
                       "--out", "r.json") == 1
        report = read_strict_json("r.json")
        assert report["constants"]["a"] == "Infinity"
        assert report["suites"]["per_step_margin"]["failures"][0]["worst_margin"] == "-Infinity"

    @pytest.mark.parametrize("shift_beta, shift_loss", [(0.05, 0.0), (0.0, 0.05)],
                             ids=["weight", "loss"])
    def test_oracle_suite_checks_best_betas(self, workdir, monkeypatch, shift_beta, shift_loss):
        """The oracle suite checks ``best_betas``, the pricer of every run
        summary: a weight off by more than the grid step, or a loss above
        the grid's, fails every trial."""
        exact = oracle.best_betas

        def skewed(s_dd, s_rd, s_rr):
            beta = exact(s_dd, s_rd, s_rr)[0] + shift_beta
            return beta, oracle.quadratic_loss(s_dd, s_rd, s_rr, beta + shift_loss)

        monkeypatch.setattr(oracle, "best_betas", skewed)
        assert run_cli("verify", "--trials", "3", "--n", "50", "--out", "r.json") == 1
        suites = read_json("r.json")["suites"]
        assert len(suites["oracle_agreement"]["failures"]) == 3
        assert all(not s["failures"] for name, s in suites.items() if name != "oracle_agreement")

    @pytest.mark.parametrize("eps", ["10000", "1e15"])
    def test_large_slack_roundtrips_at_the_precision_of_mu(self, workdir, eps):
        """eps = mu/(4c - 2mu) magnifies mu's rounding by 2*eps + 1; the
        roundtrip allows for that and reports no failure."""
        assert run_cli("verify", "--trials", "1", "--n", "5", "--eps", eps, "--out", "r.json") == 0
        assert read_json("r.json")["suites"]["constant_identities"]["failures"] == []

    def test_skewed_inverse_fails_the_roundtrip(self, workdir, monkeypatch):
        """An eps_from_mu off by 1e-9 relative at eps = 0.1 is still caught."""
        exact = bounds.eps_from_mu
        monkeypatch.setattr(bounds, "eps_from_mu", lambda *args: exact(*args) * (1.0 + 1e-9))
        assert run_cli("verify", "--trials", "1", "--n", "5", "--eps", "0.1", "--out", "r.json") == 1
        failures = read_json("r.json")["suites"]["constant_identities"]["failures"]
        assert len(failures) == 1 and failures[0].startswith("eps roundtrip ")

    def test_mu_flag(self, workdir):
        assert run_cli("verify", "--mu", "0.5", "--trials", "1", "--n", "30",
                       "--seed", "1", "--out", "r.json") == 0
        report = read_json("r.json")
        assert report["constants"]["mu"] == 0.5

    def test_mu_and_eps_conflict(self, workdir):
        assert run_cli("verify", "--mu", "0.5", "--eps", "0.1") == 2

    @pytest.mark.parametrize("flags", [
        ("--trials", "0", "--n", "5"),
        ("--trials", "1", "--n", "0"),
    ])
    def test_zero_is_not_the_default(self, workdir, flags):
        assert run_cli("verify", *flags, "--out", "r.json") == 2
        assert not (workdir / "r.json").exists()

    def test_tolerance_is_not_read_from_the_environment(self, workdir, monkeypatch):
        """The margin tolerance is a constant: ``CONVEXMIX_TOL`` in the
        environment moves neither verify's report nor lemma-audit's payload."""
        monkeypatch.setenv("CONVEXMIX_TOL", "1e-3")
        assert run_cli("verify", "--trials", "1", "--n", "20", "--out", "r.json") == 0
        assert run_cli("lemma-audit", "--eps", "0.1", "--budget", "10", "--out", "w.json") == 0
        assert read_json("r.json")["tolerance"] == read_json("w.json")["tolerance"] == 1e-9


class TestLemmaAuditCommand:
    def test_derived_constants_pass(self, workdir, capsys):
        code = run_cli("lemma-audit", "--eps", "0.1", "--budget", "500",
                       "--out", "w.json")
        assert code == 0
        payload = read_json("w.json")
        assert payload["violation_count"] == 0
        assert payload["violations"] == []
        mid = payload["constructions"]["midpoint"]
        assert mid["progress"] == pytest.approx(0.1204930492688809, abs=1e-9)
        assert mid["progress"] > 0
        assert mid["margin"] == pytest.approx(0.08692246687866127, abs=1e-9)
        assert mid["violated"] is False
        assert payload["constructions"]["floor"]["violated"] is False
        out = capsys.readouterr().out
        assert "0 violations" in out

    def test_prints_only_the_necessary_bound(self, workdir, capsys):
        """The one closed-form bound printed is the rate bound the floor construction forces."""
        assert run_cli("lemma-audit", "--eps", "0.1", "--budget", "500", "--out", "w.json") == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "closed-form bounds: mu >= 0.795795956389 (necessary)"
        assert "b >=" not in out
        assert list(read_json("w.json")["lemma_bounds"]) == ["mu_min"]

    def test_bad_triple_reports_witnesses(self, workdir, capsys):
        code = run_cli("lemma-audit", "--a", "0.0586", "--b", "0.005", "--mu", "1.03",
                       "--budget", "2000", "--seed", "0", "--out", "w.json")
        assert code == 1
        payload = read_json("w.json")
        assert payload["violation_count"] > 0
        margins = [v["margin"] for v in payload["violations"]]
        assert margins == sorted(margins)
        assert margins[0] == pytest.approx(-0.3418285434612441, rel=1e-12)
        assert payload["violations_truncated"] is (payload["violation_count"] > 1000)
        assert "worst: margin=" in capsys.readouterr().out

    def test_partial_triple_rejected(self, workdir):
        assert run_cli("lemma-audit", "--a", "0.05") == 2

    def test_eps_with_triple_rejected(self, workdir):
        assert run_cli("lemma-audit", "--eps", "0.1", "--a", "0.05", "--b", "0.1",
                       "--mu", "1.0") == 2

    def test_no_parameters_rejected(self, workdir):
        assert run_cli("lemma-audit") == 2

    def test_zero_budget_rejected(self, workdir, capsys):
        assert run_cli("lemma-audit", "--eps", "0.1", "--budget", "0", "--out", "w.json") == 2
        assert not (workdir / "w.json").exists()
        assert "budget must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, label", [
        (("--a", "0.01", "--b", "1", "--mu", "1e6"), "floor"),
        # the midpoint update saturates at a smaller rate than the floor one
        (("--a", "0.01", "--b", "1", "--mu", "300"), "midpoint"),
    ], ids=["floor", "midpoint"])
    def test_numeric_failure_names_the_construction(self, workdir, capsys, argv, label):
        assert run_cli("lemma-audit", *argv, "--out", "w.json") == 3
        assert capsys.readouterr().err == (
            f"numeric failure: construction {label}: an updated weight saturated; mu too extreme\n")
        assert not (workdir / "w.json").exists()

    @pytest.mark.parametrize("argv, code, message", [
        (("--a", "0.1", "--b", "-1", "--mu", "0.1"), 2,
         "error: a, b, mu must be positive, got a=0.1, b=-1.0, mu=0.1"),
        # an infinite constant makes NaN margins, which no count would see
        (("--a", "0.05", "--b", "inf", "--mu", "1", "--budget", "100"), 2,
         "error: a, b, mu must be finite, got a=0.05, b=inf, mu=1.0"),
        (("--a", "inf", "--b", "1", "--mu", "1", "--budget", "100"), 2,
         "error: a, b, mu must be finite, got a=inf, b=1.0, mu=1.0"),
        (("--a", "0.05", "--b", "1", "--mu", "inf", "--budget", "100"), 2,
         "error: a, b, mu must be finite, got a=0.05, b=1.0, mu=inf"),
        (("--eps", "0.1", "--budget", "0"), 2, "error: budget must be at least 1, got 0"),
        (("--a", "0.1", "--b", "0.1", "--mu", "0.1", "--ybound", "-1"), 2,
         "error: magnitude cap must be finite and positive, got -1.0"),
        (("--eps", "0.1", "--seed", "-1", "--budget", "5000"), 2,
         "error: seed must be nonnegative, got -1"),
        (("--a", "0.01", "--b", "1", "--mu", "1e6"), 3,
         "numeric failure: construction floor: an updated weight saturated; mu too extreme"),
        # both constructions hold at this rate; a grid instance saturates
        (("--a", "0.01", "--b", "1", "--mu", "100"), 3,
         "numeric failure: an updated weight saturated; mu too extreme"),
    ], ids=["negative-b", "infinite-b", "infinite-a", "infinite-mu", "zero-budget", "negative-cap", "negative-seed",
            "construction-saturates", "search-saturates"])
    def test_refusal_prints_nothing(self, workdir, capsys, argv, code, message):
        """Every check and the search run before the first line is printed."""
        assert run_cli("lemma-audit", *argv, "--out", "w.json") == code
        assert capsys.readouterr() == ("", message + "\n")
        assert not any(workdir.iterdir())

    def test_unit_budget(self, workdir):
        assert run_cli("lemma-audit", "--eps", "0.1", "--budget", "1",
                       "--out", "w.json") == 0
        assert read_json("w.json")["budget"] == 1

    @pytest.mark.parametrize("floor", [0.3, 0.49])
    def test_search_stays_in_the_band(self, workdir, floor):
        """Above a floor of 1/4 the grid's weights 0.25 and 0.75 leave [floor, 1 - floor],
        where the requirement is claimed: derived constants show no witness, and a
        violated triple's listed witnesses all lie inside the band."""
        band = ("--lambda-plus", str(floor), "--budget", "20000")
        assert run_cli("lemma-audit", "--eps", "0.1", *band, "--out", "clean.json") == 0
        assert read_json("clean.json")["violation_count"] == 0
        assert run_cli("lemma-audit", "--a", "0.0586", "--b", "0.005", "--mu", "1.03", *band,
                       "--out", "wit.json") == 1
        listed = read_json("wit.json")["violations"]
        assert listed and all(floor <= w["lambda_t"] <= 1.0 - floor for w in listed)


class TestPlotCommand:
    def test_renders_two_series(self, workdir):
        assert run_cli("run", "--case", "1", "--n", "60") == 0
        assert run_cli("plot", "--input", "trajectory.csv", "--out", "p.svg") == 0
        svg = (workdir / "p.svg").read_text()
        assert svg.startswith("<svg")
        assert svg.count("<polyline") == 2
        assert "normalized regret" in svg
        assert "ln(2)/(a n)" in svg

    def test_byte_identical_rerun(self, workdir):
        assert run_cli("run", "--case", "1", "--n", "60") == 0
        assert run_cli("plot", "--input", "trajectory.csv", "--out", "a.svg") == 0
        assert run_cli("plot", "--input", "trajectory.csv", "--out", "b.svg") == 0
        assert (workdir / "a.svg").read_bytes() == (workdir / "b.svg").read_bytes()

    def test_default_output_next_to_input(self, workdir):
        assert run_cli("run", "--case", "1", "--n", "10", "--out", "traj.csv") == 0
        assert run_cli("plot", "--input", "traj.csv") == 0
        assert (workdir / "traj.svg").exists()

    def test_single_point_uses_markers(self, workdir):
        assert run_cli("run", "--case", "1", "--n", "1") == 0
        assert run_cli("plot", "--input", "trajectory.csv", "--out", "p.svg") == 0
        svg = (workdir / "p.svg").read_text()
        assert svg.count("<circle") == 2
        assert "<polyline" not in svg

    def test_logx_changes_axis_label(self, workdir):
        assert run_cli("run", "--case", "1", "--n", "60") == 0
        assert run_cli("plot", "--input", "trajectory.csv", "--logx",
                       "--out", "p.svg") == 0
        assert "t (log scale)" in (workdir / "p.svg").read_text()

    @pytest.mark.parametrize("out", [None, "t.svg", "./t.svg"])
    def test_refuses_to_overwrite_its_input(self, workdir, capsys, out):
        """An output that resolves to the input file exits 2 and leaves the input as it was."""
        assert run_cli("run", "--case", "1", "--n", "10", "--out", "t.svg") == 0
        before = (workdir / "t.svg").read_bytes()
        flags = () if out is None else ("--out", out)
        assert run_cli("plot", "--input", "t.svg", *flags) == 2
        assert "is the input file" in capsys.readouterr().err
        assert (workdir / "t.svg").read_bytes() == before
        assert run_cli("plot", "--input", "t.svg", "--out", "p.svg") == 0

    def test_first_bad_row_is_named(self, workdir, capsys):
        """Row 3's bound_norm is named before row 4's norm_regret, an earlier column."""
        lines = _trajectory_text(norm_regret="nan").splitlines()
        cells = lines[2].split(",")
        cells[13] = "inf"
        lines[2] = ",".join(cells)
        (workdir / "t.csv").write_text("\n".join(lines) + "\n")
        assert run_cli("plot", "--input", "t.csv") == 2
        assert capsys.readouterr().err == (
            "error: t.csv: row 3: column bound_norm is inf; plot needs a finite value\n")

    def test_undrawn_columns_are_not_parsed(self, workdir, capsys):
        """A bad cell in a column plot does not draw stops nothing; one it draws
        exits 2 naming its row and column, and so does a short row anywhere."""
        (workdir / "t.csv").write_text(_trajectory_text(rho="x", in_range="yes"))
        assert run_cli("plot", "--input", "t.csv", "--out", "a.svg") == 0
        (workdir / "u.csv").write_text(_trajectory_text())
        assert run_cli("plot", "--input", "u.csv", "--out", "b.svg") == 0
        assert (workdir / "a.svg").read_bytes() == (workdir / "b.svg").read_bytes()
        capsys.readouterr()
        (workdir / "t.csv").write_text(_trajectory_text(norm_regret="7_5e-2"))
        assert run_cli("plot", "--input", "t.csv", "--out", "a.svg") == 2
        (workdir / "t.csv").write_text(_trajectory_text(projected="0,9"))
        assert run_cli("plot", "--input", "t.csv", "--out", "a.svg") == 2
        assert capsys.readouterr().err == (
            "error: t.csv: row 4: non-numeric value '7_5e-2' in column norm_regret\n"
            "error: t.csv: row 4: expected 16 columns, found 17\n")

    def test_linear_axis_draws_nonpositive_steps(self, workdir):
        (workdir / "t.csv").write_text(_trajectory_text(t="-3"))
        assert run_cli("plot", "--input", "t.csv") == 0
        assert "nan" not in (workdir / "t.svg").read_text()

    def test_rejects_plain_input_csv(self, workdir):
        (workdir / "seq.csv").write_text("y,yhat1,yhat2\n0.1,0.1,0.1\n")
        assert run_cli("plot", "--input", "seq.csv") == 2


class TestSweepCommand:
    def test_table_sorted_and_consistent(self, workdir):
        code = run_cli("sweep", "--case", "1", "--n", "300",
                       "--mu-list", "0.08,0.04", "--out", "sweep.csv")
        assert code == 0
        with open("sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["mu"]) for r in rows] == [0.04, 0.08]
        for r in rows:
            # every cell of the row equals the JSON file named for its rate
            per_mu = read_json(f"sweep_mu{float(r['mu']):g}.json")
            # the columns after mu and eps are the summary's keys, in order
            columns = [key for key in per_mu if key not in ("final_lambda", "clip_count")]
            assert list(r)[2:] == columns
            for key in columns:
                assert float(r[key]) == per_mu[key], (r["mu"], key)
            assert int(r["n"]) == 300
        # smaller rate -> larger guarantee under the fixed-start convention
        assert float(rows[0]["bound_total"]) == pytest.approx(
            2 * float(rows[1]["bound_total"]), rel=1e-12
        )

    def test_matches_individual_run(self, workdir):
        assert run_cli("sweep", "--case", "2", "--n", "200",
                       "--mu-list", "0.04", "--out", "s.csv") == 0
        assert run_cli("run", "--case", "2", "--n", "200", "--mu", "0.04",
                       "--summary", "single.json") == 0
        swept = read_json("s_mu0.04.json")
        single = read_json("single.json")
        assert swept == single

    def test_requires_mu_list(self, workdir):
        assert run_cli("sweep", "--case", "1", "--n", "10") == 2

    def test_rejects_malformed_mu_list(self, workdir):
        assert run_cli("sweep", "--case", "1", "--n", "10",
                       "--mu-list", "0.1,zap") == 2

    def test_bad_rate_leaves_no_partial_output(self, workdir):
        """A rate outside the admissible range fails before anything is written."""
        assert run_cli("sweep", "--case", "1", "--n", "100",
                       "--mu-list", "0.08,30") == 2
        assert sorted(p.name for p in workdir.iterdir()) == []

    def test_unopenable_table_leaves_no_partial_output(self, workdir, capsys):
        """A table path that cannot be opened fails before any per-rate file is written."""
        (workdir / "outdir").mkdir()
        assert run_cli("sweep", "--case", "1", "--n", "20",
                       "--mu-list", "0.1", "--out", "outdir/") == 2
        assert sorted(p.name for p in (workdir / "outdir").iterdir()) == []
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("mu_list", ["0.08,0.08000001", "0.1,0.1"])
    def test_rates_sharing_a_file_are_refused(self, workdir, capsys, mu_list):
        """Two rates that print alike would name one per-rate file; nothing is written."""
        assert run_cli("sweep", "--case", "1", "--n", "50", "--mu-list", mu_list) == 2
        name = f"sweep_mu{float(mu_list.split(',')[0]):g}.json"
        assert capsys.readouterr().err == (
            f"error: output paths must differ, got sweep.csv, {name}, {name}\n")
        assert not any(workdir.iterdir())


class TestOutputsCheckedFirst:
    """An output that cannot be written exits 2 before any work, and nothing is written."""

    @pytest.mark.parametrize("command, message", [
        ("verify --out d", "cannot write d: it is a directory or its directory is missing"),
        ("lemma-audit --eps 0.1 --budget 2000000 --out nodir/w.json",
         "cannot write nodir/w.json: it is a directory or its directory is missing"),
        ("plot --input t.csv --out nodir/t.svg",
         "cannot write nodir/t.svg: it is a directory or its directory is missing"),
    ], ids=["verify-directory", "lemma-audit-no-dir", "plot-no-dir"])
    def test_refused_before_work(self, workdir, no_work, capsys, command, message):
        (workdir / "d").mkdir()
        assert run_cli(*command.split()) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert sorted(p.name for p in workdir.iterdir()) == ["d"]
        assert not any((workdir / "d").iterdir())

    @pytest.mark.parametrize("argv, paths", [
        (("run", "--case", "1", "--n", "50", "--out", ""), "'', 'summary.json'"),
        (("run", "--case", "1", "--n", "50", "--out", "t.csv", "--summary", ""), "'t.csv', ''"),
        (("plot", "--input", "t.csv", "--out", ""), "''"),
        (("verify", "--trials", "2", "--n", "10", "--out", ""), "''"),
        (("lemma-audit", "--eps", "0.1", "--budget", "100", "--out", ""), "''"),
        (("sweep", "--case", "1", "--n", "50", "--mu-list", "0.1", "--out", ""), "''"),
    ], ids=["run-out", "run-summary", "plot", "verify", "lemma-audit", "sweep"])
    def test_empty_path_refused_before_work(self, workdir, no_work, capsys, argv, paths):
        """An empty path names no file; refused with the others, it leaves nothing written."""
        assert run_cli(*argv) == 2
        assert capsys.readouterr() == ("", f"error: output paths must not be empty, got {paths}\n")
        assert not any(workdir.iterdir())


# every command that derives constants, at a small size
DERIVING = {
    "run": "run --case 1 --n 100",
    "verify": "verify --trials 2 --n 20",
    "lemma-audit": "lemma-audit --eps 0.1",
    "sweep": "sweep --case 2 --n 100 --mu-list 0.02,0.04",
}


@pytest.mark.parametrize("floor", ["0.495", "0.498", "0.49999"])
@pytest.mark.parametrize("command", DERIVING.values(), ids=DERIVING)
def test_floor_near_one_half_is_valid(workdir, command, floor):
    """Every floor in (0, 1/2) is valid.  Near 1/2, z ~ 2*(1/2 - floor)^2 is tiny, and no
    identity or root check may compare through sqrt(z^2), which scales rounding by 1/(2z)."""
    assert run_cli(*command.split(), "--lambda-plus", floor) == 0


RUN = ("run", "--case", "1", "--n", "50")
PLOT = ("plot", "--input", "trajectory.csv")
VERIFY = ("verify", "--trials", "1", "--n", "20", "--seed", "0", "--out", "r.json")
LEMMA = ("lemma-audit", "--eps", "0.1", "--budget", "100", "--out", "w.json")


def _child_env():
    """The environment of a child interpreter that imports this process's package.

    The child runs in workdir, where a relative PYTHONPATH inherited from
    the caller (such as PYTHONPATH=src) no longer resolves; it is pointed
    at the directory holding the package this process imported.
    """
    package_root = str(Path(convexmix.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))


# runs the package as ``python -m convexmix`` does, with its arguments, and
# prints as its last line the freeze count before the run, then whether
# objects are frozen and the collector enabled at interpreter exit
_ENTRY_GC = (
    "import atexit, gc, runpy, sys\n"
    "before = gc.get_freeze_count()\n"
    "atexit.register(lambda: print(before, gc.get_freeze_count() > 0, gc.isenabled()))\n"
    "sys.argv[0] = 'convexmix'\n"
    "runpy.run_module('convexmix', run_name='__main__')\n"
)


class TestModuleEntryPoint:
    def test_python_dash_m(self, workdir):
        proc = subprocess.run(
            [sys.executable, "-m", "convexmix", "run", "--case", "1", "--n", "5"],
            cwd=workdir, capture_output=True, text=True, env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert (workdir / "summary.json").exists()

    def test_process_entry_freezes_the_import_heap(self, workdir):
        """``python -m convexmix`` runs ``__main__.entry``, which freezes the
        heap its imports left; the collector stays on, and at exit the frozen
        objects are still frozen."""
        proc = subprocess.run([sys.executable, "-c", _ENTRY_GC, "--help"], cwd=workdir,
                              capture_output=True, text=True, env=_child_env())
        assert proc.returncode == 0, proc.stderr
        before, frozen, enabled = proc.stdout.splitlines()[-1].split()
        assert (before, frozen, enabled) == ("0", "True", "True")

    @pytest.mark.parametrize("argv", [RUN, VERIFY], ids=["run", "verify"])
    def test_in_process_main_leaves_the_collector_alone(self, workdir, argv):
        state = gc.get_freeze_count(), gc.isenabled()
        assert run_cli(*argv) == 0
        assert (gc.get_freeze_count(), gc.isenabled()) == state

    def test_console_script_runs_the_entry(self):
        """Both process entries take one path; read as text, since tomllib is 3.11+."""
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        scripts = text.split("[project.scripts]\n", 1)[1].split("\n\n", 1)[0]
        assert scripts.splitlines() == ['convexmix = "convexmix.__main__:entry"']


def _tracer_counters():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "trace_child.py"
    spec = importlib.util.spec_from_file_location("trace_child", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.COUNTERS


# each function the benchmark tracer wraps, and a command that reaches it
TRACED = [
    (signals, "generate", RUN),
    (mixture, "run", RUN),
    (cli, "summarize", RUN),
    (signals, "write_trajectory", RUN),
    (signals, "read_trajectory", PLOT),
    (cli, "render_regret_svg", PLOT),
    (mixture, "run", VERIFY),
    (cli, "run_verification", VERIFY),
    (oracle, "stats_from", VERIFY),
    (oracle, "grid_best_beta", VERIFY),
    (bounds, "per_step_margins", VERIFY),
    (audit, "search_violations", LEMMA),
]


class TestTracedLayers:
    """``perfbench/trace_child.py`` replaces module attributes and reads named
    arguments (``traj``, ``frame``, ...) and result attributes (``.projected``,
    ``.in_range``, ...).  A function the CLI stops reaching through its module
    attribute, or a renamed argument, would read as a silent 0 there."""

    COUNTERS = _tracer_counters()

    def test_every_counter_is_covered(self):
        assert {(m, name) for m, name, _ in TRACED} == set(self.COUNTERS)

    @pytest.mark.parametrize("module, name, argv", TRACED,
                             ids=[f"{m.__name__.rsplit('.', 1)[-1]}.{n}-{a[0]}" for m, n, a in TRACED])
    def test_reached_through_module_attribute(self, workdir, monkeypatch, module, name, argv):
        if argv is PLOT:
            assert run_cli(*RUN) == 0
        fn = getattr(module, name)
        sig = inspect.signature(fn)
        counter = self.COUNTERS[(module, name)]
        counts = []

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts.append(counter(sig.bind(*args, **kwargs).arguments, result))
            return result

        monkeypatch.setattr(module, name, counted)
        assert run_cli(*argv) == 0
        assert counts
        assert all(isinstance(v, int) for c in counts for v in c.values())


# the modules cli imports on demand, and which of them each command loads
SWEEP = ("sweep", "--case", "1", "--n", "50", "--mu-list", "0.05,0.1")
LOADED = [
    (("--help",), set()),
    (VERIFY, set()),
    (LEMMA, {"audit"}),
    (RUN, {"signals"}),
    (PLOT, {"signals"}),
    (SWEEP, {"signals"}),
]
# runs cli.main on its arguments in a fresh interpreter, then prints the
# package's loaded modules as its last line
_LIST_MODULES = (
    "import sys\n"
    "from convexmix import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "print(' '.join(m for m in sorted(sys.modules) if m.startswith('convexmix.')))\n"
    "sys.exit(code)\n"
)


@pytest.mark.parametrize("argv, loaded", LOADED, ids=[a[0] for a, _ in LOADED])
def test_each_command_loads_only_the_modules_it_runs(workdir, argv, loaded):
    """``--help`` and ``verify`` start without ``signals`` and ``audit``,
    ``lemma-audit`` without ``signals``, and the sequence commands without
    ``audit``."""
    if argv is PLOT:
        assert run_cli(*RUN) == 0
    proc = subprocess.run([sys.executable, "-c", _LIST_MODULES, *argv], cwd=workdir,
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    modules = set(proc.stdout.splitlines()[-1].split())
    assert {"convexmix.cli", "convexmix.report", "convexmix.verify"} <= modules
    assert {m for m in ("signals", "audit") if f"convexmix.{m}" in modules} == loaded


def test_cli_binds_the_traced_functions_and_no_lazy_module():
    assert not {"signals", "audit"} & set(vars(cli))
    assert {"summarize", "render_regret_svg", "run_verification"} <= set(vars(cli))

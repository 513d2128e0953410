"""Command-line front end: scenarios, output formats, exit codes."""

import json
import os
import re
import stat
import subprocess
import sys
from argparse import Namespace
from collections import Counter
from itertools import cycle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mrilqr
from mrilqr import cli, controllability, design, discretize, numkernel, preview, preview_plan, riccati, simulate
from mrilqr.errors import DareDivergenceError, NumericalError

SOUZA_BASE = 2.0 * np.pi / np.sqrt(23.0)


def count_calls(monkeypatch, *names, log=None):
    """Count calls to library functions through every module namespace binding them;
    with a ``log`` list, also append each call's (name, positional arguments)."""
    counts = Counter()
    modules = (mrilqr, cli, controllability, discretize, numkernel, preview, riccati, simulate)
    for name in names:
        fn = next(getattr(mod, name) for mod in modules if hasattr(mod, name))

        def counted(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            if log is not None:
                log.append((_name, args))
            return _fn(*args, **kwargs)

        for mod in modules:
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counted)
    return counts


def strict_json(text: str):
    """``json.loads`` that rejects the NaN, Infinity and -Infinity tokens JSON does not define."""

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=reject)


class TestScenarioLoading:
    def test_bundled_names(self):
        assert cli.bundled_scenario_names() == ["insulin", "rotation", "souza"]

    def test_bundled_matrices_match_reference_data(self):
        souza = cli.load_scenario("souza")
        assert np.array_equal(souza.A, [[0.0, 1.0], [-6.0, 1.0]])
        assert np.array_equal(souza.B, [[0.0], [1.0]])
        assert np.array_equal(souza.Btilde, [[1.0], [1.0]])
        assert np.array_equal(souza.Q, [[1.0, 0.0], [0.0, 0.0]])

        rot = cli.load_scenario("rotation")
        assert np.array_equal(rot.A, [[0.0, -1.0], [1.0, 0.0]])
        assert np.array_equal(rot.B, [[0.0], [1.0]])

        ins = cli.load_scenario("insulin")
        assert np.array_equal(np.diag(ins.A),
                              [-0.0167, -0.01, -0.0083, -0.0143, -0.0091, -0.008])
        assert np.array_equal(ins.B.ravel(), [15.0, -75.0, 60.0, 0.0, 0.0, 0.0])
        assert np.array_equal(ins.Btilde.ravel(),
                              [0.0, 0.0, 0.0, 1.5909, -9.1667, 7.5758])
        ct = np.array([[-1.0, -1.0, -1.0, 1.0, 1.0, 1.0]])
        assert np.array_equal(ins.Q, ct.T @ ct)
        assert ins.T == 20.0
        assert ins.disturbance_scale == 60.0

    def test_ctilde_builds_rank_one_q(self, tmp_path):
        doc = {
            "name": "toy", "A": [[-1.0]], "B": [[1.0]],
            "Ctilde": [[2.0]], "Rc": [[1.0]], "Ri": [[1.0]], "T": 1.0,
        }
        p = tmp_path / "toy.json"
        p.write_text(json.dumps(doc))
        sc = cli.load_scenario(str(p))
        assert sc.Q[0, 0] == 4.0
        assert np.array_equal(sc.output_row, [[2.0]])

    def test_missing_field_is_diagnosed(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"name": "bad", "A": [[1.0]]}))
        with pytest.raises(ValueError, match="'B'"):
            cli.load_scenario(str(p))

    def test_bad_json_reports_line(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{\n  \"A\": [[1,\n}")
        with pytest.raises(ValueError, match="line"):
            cli.load_scenario(str(p))

    def test_unknown_name_lists_options(self):
        with pytest.raises(ValueError, match="bundled"):
            cli.load_scenario("nope")

    ABSENT = "<absent>"
    SOUZA = {"A": [[0.0, 1.0], [-6.0, 1.0]], "B": [[0.0], [1.0]], "Btilde": [[1.0], [1.0]],
             "Q": [[1.0, 0.0], [0.0, 0.0]], "Rc": [[1.0]], "Ri": [[1.0]], "T": 1.0}

    MALFORMED = [
        ("[1, 2]", "top-level JSON value must be an object"),
        ('{"A": [[0.0]],', "invalid JSON at line 1"),
        ({"A": ABSENT}, "missing required field 'A'"),
        ({"A": [[0.0, 1.0], [-6.0]]}, "field 'A': "),
        ({"Q": ABSENT}, "provide either 'Q' or a 'Ctilde' row"),
        ({"Q": ABSENT, "Ctilde": [[1, 0, 0]]}, r"field 'Ctilde' must be one row of 2 entries, got shape \(1, 3\)"),
        ({"Ctilde": [[1, 0], [0, 1]]}, r"field 'Ctilde' must be one row of 2 entries, got shape \(2, 2\)"),
        ({"output_row": [[1, 0], [0, 1]]}, r"field 'output_row' must be one row of 2 entries, got shape \(2, 2\)"),
        ({"output_row": [[1, 2, 3]]}, r"field 'output_row' must be one row of 2 entries, got shape \(1, 3\)"),
        ({"mode": "bogus"}, "field 'mode' must be one of "),
        ({"mode": 3}, "field 'mode' must be a string, got 3"),
        ({"T": ABSENT}, "missing required field 'T'$"),
        ({"T": 0}, "field 'T' must be a positive sampling period"),
        ({"T": -1.0}, "field 'T' must be a positive sampling period"),
        ({"T": float("inf")}, "field 'T' must be a positive sampling period, got inf"),
        ({"T": None}, "field 'T' must be a number, got null"),
        ({"T": [1.0]}, r"field 'T' must be a number, got \[1.0\]"),
        ({"T": True}, "field 'T' must be a number, got true"),
        ({"N": -1}, "field 'N' must be >= 0"),
        ({"N": 1.5}, "field 'N' must be an integer, got 1.5"),
        ({"N": "2"}, "field 'N' must be an integer, got \"2\""),
        ({"substeps": 2.7}, "field 'substeps' must be an integer, got 2.7"),
        ({"horizon_steps": 12.9}, "field 'horizon_steps' must be an integer, got 12.9"),
        ({"horizon_steps": False}, "field 'horizon_steps' must be an integer, got false"),
        ({"horizon_steps": 0}, "field 'horizon_steps' must be >= 1, got 0"),
        ({"substeps": 0}, "field 'substeps' must be >= 1, got 0"),
        ({"substeps": -3}, "field 'substeps' must be >= 1, got -3"),
        ({"name": [1, 2]}, r"field 'name' must be a string, got \[1, 2\]"),
        ({"name": None}, "field 'name' must be a string, got null"),
        ({"epsilon": "0.1"}, "field 'epsilon' must be a number"),
        ({"disturbance_scale": None}, "field 'disturbance_scale' must be a number, got null"),
        ({"disturbance_scale": 10 ** 400}, "field 'disturbance_scale' must be a number, got 1000"),
        ({"saturate_nonnegative": "false"},
         "field 'saturate_nonnegative' must be true or false, got \"false\""),
        ({"saturate_nonnegative": 0}, "field 'saturate_nonnegative' must be true or false, got 0"),
    ]

    @pytest.mark.parametrize("text, message", MALFORMED,
                             ids=[json.dumps(text)[:32] for text, _ in MALFORMED])
    def test_malformed_scenario_file_is_an_input_error(self, text, message, tmp_path, capsys):
        if isinstance(text, dict):
            text = json.dumps({k: v for k, v in {**self.SOUZA, **text}.items() if v != self.ABSENT})
        p = tmp_path / "bad.json"
        p.write_text(text)
        assert cli.main(["discretize", "--scenario", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {p}: ")
        assert re.search(message, err), err
        assert "Traceback" not in err

    def test_integral_and_null_fields_load(self, tmp_path):
        p = tmp_path / "ok.json"
        p.write_text(json.dumps({**self.SOUZA, "T": 1, "N": 2.0, "epsilon": None,
                                 "horizon_steps": None, "saturate_nonnegative": True}))
        sc = cli.load_scenario(str(p))
        assert (type(sc.T), sc.T) == (float, 1.0)
        assert (type(sc.N), sc.N) == (int, 2)
        assert sc.epsilon is None and sc.horizon_steps is None
        assert sc.saturate_nonnegative is True
        assert sc.name == str(p)

    def test_given_flags_override_scenario_fields(self, tmp_path, monkeypatch):
        full, bare = tmp_path / "full.json", tmp_path / "bare.json"
        full.write_text(json.dumps({**self.SOUZA, "T": 2.0, "N": 1, "mode": "regular", "epsilon": 0.1,
                                    "saturate_nonnegative": True, "horizon_steps": 7, "substeps": 5}))
        bare.write_text(json.dumps(self.SOUZA))
        seen = []
        monkeypatch.setattr(cli, "cmd_simulate", lambda scenario, args, sink: seen.append(vars(args)))
        flags = ["--T", "3", "--N", "2", "--mode", "mri", "--eps", "0.2", "--steps", "9",
                 "--substeps", "6", "--saturate"]
        for argv in ([str(full)], [str(bare)], [str(bare), *flags]):
            assert cli.main(["simulate", "--scenario", *argv]) == 0
        names = ["T", "N", "mode", "eps", "saturate", "steps", "substeps"]
        assert [[args[k] for k in names] for args in seen] == [
            [2.0, 1, "regular", 0.1, True, 7, 5],
            [1.0, 0, "mri", None, False, None, 32],
            [3.0, 2, "mri", 0.2, True, 9, 6],
        ]


class TestExitCodes:
    def test_a_directory_named_like_a_bundled_scenario_does_not_hide_it(self, tmp_path, monkeypatch, capsys):
        bundled = tmp_path / "bundled.csv"
        assert cli.main(["lqr", "--scenario", "souza", "--T", "1", "--out", str(bundled)]) == 0
        work = tmp_path / "work"
        (work / "souza").mkdir(parents=True)
        monkeypatch.chdir(work)
        assert cli.main(["lqr", "--scenario", "souza", "--T", "1", "--out", "got.csv"]) == 0
        assert (work / "got.csv").read_bytes() == bundled.read_bytes()
        assert cli.main(["lqr", "--scenario", "x.json", "--T", "1"]) == 1
        assert "input error" in capsys.readouterr().err

    def test_success(self, tmp_path):
        assert cli.main(["discretize", "--scenario", "souza",
                         "--out", str(tmp_path / "o.csv")]) == 0

    def test_input_error_missing_scenario(self, capsys):
        assert cli.main(["discretize", "--scenario", "missing.json"]) == 1
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["1:1:inf", "1:inf:2", "nan:1:2"])
    def test_sweep_rejects_a_grid_entry_that_is_not_finite(self, grid, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert cli.main(["sweep", "--scenario", "souza", "--T-grid", grid, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"input error: --T-grid takes finite numbers, got {grid!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("grid, count", [("0:1e-310:1e300", "inf"), ("1:1e-300:2", "1e+300")])
    def test_sweep_rejects_a_grid_with_more_periods_than_numpy_can_index(self, grid, count, tmp_path, capsys):
        # the count is checked before any array is built; the first grid's
        # (stop - start) / step overflows
        out = tmp_path / "s.csv"
        assert cli.main(["sweep", "--scenario", "souza", "--T-grid", grid, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"input error: --T-grid gives {count} periods, more than numpy can index, got {grid!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--T-grid", "1:1e-17:2"], "--T-grid gives 1e+17 periods, more than fit in memory, got '1:1e-17:2'"),
        (["controllability", "--T-max", "1e300"],
         "T_max = 1e+300 spans 7.6328e+299 multiples of its base periods, more than numpy can index"),
        (["controllability", "--T-max", "1e9"],
         "T_max = 1000000000.0 spans 7.6328e+08 multiples of its base periods, more than fit in memory"),
    ], ids=["T-grid", "T-max-index", "T-max-memory"])
    def test_a_list_too_long_to_build_is_an_input_error(self, argv, message, tmp_path):
        # in a child process under a 1 GB address-space limit and a time
        # limit: the grid and the candidate list are counted before they are
        # built, and a failed allocation is an input error, not a traceback
        out = tmp_path / "o.csv"
        run = subprocess.run(
            ["bash", "-c", 'ulimit -v 1000000 && exec timeout 60 "$@"', "bash", sys.executable, "-m", "mrilqr.cli",
             argv[0], "--scenario", "souza", *argv[1:], "--out", str(out)],
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}, capture_output=True, text=True)
        assert (run.returncode, run.stderr) == (1, f"input error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["preview", "--N"], ["sweep", "--T-grid", "1:1:1", "--N"], ["simulate", "--steps"],
                                      ["simulate", "--substeps"]],
                             ids=" ".join)
    def test_a_failed_allocation_is_an_input_error(self, argv, tmp_path, capsys):
        # 2^47 steps of a 2-state plant ask numpy for 2 PiB, and 2^47 substeps
        # for a 1 PiB grid, past the 47-bit user address space, so the
        # allocation fails at once
        out = tmp_path / "o.csv"
        assert cli.main([argv[0], "--scenario", "souza", *argv[1:], str(2**47), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("weights, T", [({"Rc": [[1e300]]}, 1e10)], ids=["T-Rc"])
    @pytest.mark.parametrize("argv", [["discretize"], *(["lqr", "--mode", mode] for mode in discretize.MODES)],
                             ids=" ".join)
    def test_an_overflowing_input_weight_is_a_numerical_failure(self, weights, T, argv, tmp_path, capsys):
        # T Rc passes the double range in R_d: the cost builder raises for
        # every command and mode, without a RuntimeWarning, and the stored
        # weight is the finite one the scenario gives
        scenario = tmp_path / "big.json"
        scenario.write_text(json.dumps({"A": [[-1.0]], "B": [[1.0]], "Q": [[1.0]], "Rc": [[1.0]], "Ri": [[1.0]],
                                        "T": T, **weights}))
        key, value = next(iter(weights.items()))
        assert getattr(cli.load_scenario(str(scenario)).weights(), key).tolist() == value
        out = tmp_path / "o.csv"
        assert cli.main([argv[0], "--scenario", str(scenario), *argv[1:], "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"numerical failure: the equivalent cost overflowed at T = {T!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["discretize"], *(["lqr", "--mode", mode] for mode in discretize.MODES),
                                      ["preview", "--N", "2"], ["sweep", "--T-grid", "1:1:2", "--N", "0,2"]],
                             ids=" ".join)
    def test_a_representable_input_weight_is_not_an_overflow(self, argv, tmp_path, capsys):
        # Ri = 1e308 is a double, and so is R_d: every command succeeds without
        # a RuntimeWarning, and the impulse gain is the tiny one it implies
        scenario = tmp_path / "big.json"
        scenario.write_text(json.dumps({"A": [[-1.0]], "B": [[1.0]], "Btilde": [[1.0]], "Q": [[1.0]],
                                        "Rc": [[1.0]], "Ri": [[1e308]], "T": 1.0}))
        out = tmp_path / "o.csv"
        assert cli.main([argv[0], "--scenario", str(scenario), *argv[1:], "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        if argv[-1] == "mri":
            fields = {tuple(f[:4]): f[4] for f in (line.split(",") for line in out.read_text().splitlines())}
            assert fields[("scalar", "converged", "", "")] == "true"
            assert -1e-308 < float(fields[("matrix", "K_i", "0", "0")]) < 0.0

    @pytest.mark.parametrize("argv, message", [
        (["controllability", "--T-max", "inf"], "T_max must be finite, got inf"),
        (["lqr", "--T", "inf"], "sampling period must be finite, got inf"),
        (["discretize", "--T", "inf"], "sampling period must be finite, got inf"),
    ], ids=["controllability", "lqr", "discretize"])
    def test_an_infinite_period_is_an_input_error(self, argv, message, tmp_path, capsys):
        # an infinite period or T_max is an input fault, not an overflow
        # of the model or an endless list of candidate periods
        out = tmp_path / "o.csv"
        assert cli.main([argv[0], "--scenario", "souza", *argv[1:], "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"input error: {message}\n"
        assert not out.exists()

    def test_a_disturbance_past_the_run_is_an_input_error(self, tmp_path, capsys):
        # the disturbance step N = 5 matches no sample index of a 3-step run
        out = tmp_path / "t.csv"
        assert cli.main(["simulate", "--scenario", "insulin", "--N", "5", "--steps", "3", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "input error: disturbance impulse_step must be <= steps = 3, got 5\n"
        assert not out.exists()

    @pytest.mark.parametrize("horizons", [",", "", ",,"])
    def test_sweep_rejects_a_horizon_list_without_entries(self, horizons, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert cli.main(["sweep", "--scenario", "souza", "--T-grid", "1:1:2", "--N", horizons,
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"input error: --N takes comma-separated integers >= 0, got the entry {horizons!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["sweep", "--scenario", "souza", "--T-grid", "1:1:1", "--N", "0", "--format", "json"],
        ["discretize", "--scenario", "souza", "--format", "csv"],
    ], ids=["json", "csv"])
    def test_a_format_without_an_output_file_is_an_input_error(self, argv, capsys):
        # the console has one format: a requested one is never silently dropped
        assert cli.main(argv) == 1
        assert capsys.readouterr() == ("", "input error: --format applies to --out files; the console has one format\n")

    def test_usage_error_exits_one(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["discretize"])
        assert err.value.code == 1

    def test_numerical_failure_exits_two(self, capsys):
        code = cli.main(["lqr", "--scenario", "souza",
                         "--T", f"{SOUZA_BASE!s}", "--mode", "regular"])
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["discretize", "--T", "800"],
        ["discretize", "--T", "1500"],
        ["lqr", "--T", "1500"],
        ["preview", "--T", "1500"],
        ["controllability", "--T-max", "1500"],
        *(["lqr", "--T", T] for T in ("55", "100", "150", "300", "500", "700")),
        ["sweep", "--T-grid", "700:100:800", "--mode", "all"],
    ], ids=" ".join)
    def test_overflow_on_unstable_plant_exits_two_without_output(self, argv, tmp_path, capsys):
        # e^(AT) of souza (Re(lambda) = 1/2) passes the double range near T = 1420,
        # its Gram integral near T = 710; from T = 40 on, Q_d and S R^-1 S' can
        # cancel to roundoff in Qhat, or the doubling meet a singular system
        out = tmp_path / "o.csv"
        assert cli.main([argv[0], "--scenario", "souza", *argv[1:], "--out", str(out)]) == 2
        assert "numerical failure" in capsys.readouterr().err
        assert not out.exists()

    def test_an_overflowing_gram_span_is_a_numerical_failure(self, tmp_path, capsys):
        # ||A||_F T of the cost's Gram integral is not finite: no doubling count
        scenario = tmp_path / "stiff.json"
        scenario.write_text(json.dumps({"A": [[-1e300, 0.0], [0.0, -1.0]], "B": [[1.0], [1.0]],
                                        "Q": [[1.0, 0.0], [0.0, 1.0]], "Rc": [[1.0]], "Ri": [[1.0]], "T": 1.0}))
        out = tmp_path / "o.csv"
        assert cli.main(["simulate", "--scenario", str(scenario), "--mode", "open_loop", "--steps", "2",
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == "numerical failure: ||A|| T overflowed in the Gram integral\n"
        assert not out.exists()

    @pytest.mark.parametrize("T, mode", [("600", "impulsive"), ("700", "impulsive"), ("300", "regular")])
    def test_long_period_overflow_is_a_numerical_failure(self, T, mode, tmp_path, capsys):
        # the impulse-only Qhat's norm overflows at T = 600 and 700, the
        # hold-only iterate's residual at T = 300; RuntimeWarnings are errors here
        out = tmp_path / "o.csv"
        assert cli.main(["lqr", "--scenario", "souza", "--T", T, "--mode", mode,
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("numerical failure: overflow: ")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        # no cell of either grid converges, so no preview cost is computed
        ["--T-grid", "1.3101347027385728:0.05:1.3101347027385728", "--mode", "regular", "--N", "0,-1"],
        ["--T-grid", "700:1:701", "--mode", "impulsive", "--N", "0,-1"],
        ["--T-grid", "1:1:2", "--N", "0,x"],
        ["--T-grid", "1:1:2", "--N", "3,1.5"],
    ], ids=lambda argv: argv[-1])
    def test_sweep_rejects_a_horizon_that_is_not_an_integer_at_least_zero(self, argv, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert cli.main(["sweep", "--scenario", "souza", *argv, "--out", str(out)]) == 1
        bad = argv[-1].split(",")[1]
        assert capsys.readouterr().err == (
            f"input error: --N takes comma-separated integers >= 0, got the entry {bad!r}\n")
        assert not out.exists()

    def test_a_non_stabilizing_design_is_unconverged_and_not_previewed(self, tmp_path, capsys):
        # an unstable mode a = 1e-3 that the cost (Q = 0) does not see: the
        # residual test passes on P near 0, whose closed loop is unstable, so
        # lqr reports converged = false, and preview and simulate --N > 0
        # refuse to preview the design
        scenario = tmp_path / "hidden.json"
        scenario.write_text(json.dumps({"A": [[1e-3]], "B": [[1.0]], "Btilde": [[1.0]], "Q": [[0.0]],
                                        "Rc": [[1.0]], "Ri": [[1.0]], "T": 1.0}))
        out = tmp_path / "o.csv"
        assert cli.main(["lqr", "--scenario", str(scenario), "--out", str(out)]) == 0
        fields = {tuple(f[:4]): f[4] for f in (line.split(",") for line in out.read_text().splitlines())}
        assert fields[("scalar", "converged", "", "")] == "false"
        assert float(fields[("scalar", "closed_loop_spectral_radius", "", "")]) > 1.0
        for argv in (["preview", "--N", "2"], ["simulate", "--N", "2"]):
            assert cli.main([*argv, "--scenario", str(scenario), "--out", str(tmp_path / "p.csv")]) == 2, argv
            assert capsys.readouterr().err == "numerical failure: no preview on a design that did not converge\n"
            assert not (tmp_path / "p.csv").exists()

    def test_singular_preview_solve_keeps_the_sweep(self, tmp_path):
        grid = ["sweep", "--scenario", "souza", "--T-grid", "20:5:60", "--mode", "all"]
        both, plain = tmp_path / "both.csv", tmp_path / "plain.csv"
        assert cli.main([*grid, "--N", "0,3", "--out", str(both)]) == 0
        assert cli.main([*grid, "--N", "0", "--out", str(plain)]) == 0
        header, *rows = both.read_text().splitlines()
        assert header == plain.read_text().splitlines()[0]
        assert len(rows) == 54
        assert rows[::2] == plain.read_text().splitlines()[1:]
        # the hold-only designs at T = 50 and T = 55 are unconverged: their
        # N = 3 rows carry the feedback cost, not converged
        cells = {tuple(r.split(",")[:3]): r.split(",")[3:] for r in rows}
        for T in ("50", "55"):
            cost, _, iterations = cells[(T, "regular", "0")]
            assert cells[(T, "regular", "3")] == [cost, "false", iterations]
        # an unconverged design's preview cost can fall far below zero (down to
        # -1.8e57 here): such a cell reports its feedback cost for every N
        assert all(not float(cost) < 0.0 for cost, _, _ in cells.values())
        for (T, mode, N), (cost, converged, iterations) in cells.items():
            if N == "3" and converged == "false":
                zero_cost, _, zero_iterations = cells[(T, mode, "0")]
                assert (cost, iterations) == (zero_cost, zero_iterations)
        # T = 50 meets a singular I + B R^-1 B' P in the closed loop; T = 55's
        # R + B'PB factors, and its preview cost is the far negative kind
        sc = cli.load_scenario("souza")
        d50, d55 = (design(sc.plant(), sc.weights(), T, "regular") for T in (50.0, 55.0))
        assert not d50.solution.converged and not d55.solution.converged
        with pytest.raises(NumericalError, match=r"^singular I \+ B R\^\{-1\} B' P: "):
            preview.closed_loop_G(d50.model.A_d, d50.B_sel, d50.S_sel, d50.R_sel, d50.solution.P)
        G = preview.closed_loop_G(d55.model.A_d, d55.B_sel, d55.S_sel, d55.R_sel, d55.solution.P)
        assert preview.gamma_and_cost(d55.solution.P, G, d55.B_sel, d55.R_sel, sc.Btilde[:, 0], 3)[1] < -1e40

    @pytest.mark.parametrize("call, message", [
        (lambda sc: cli._parse_grid("1:2"), "--T-grid expects start:step:stop, got '1:2'"),
        (lambda sc: cli._parse_grid("1:0:2"), "--T-grid needs step > 0 and stop >= start"),
        (lambda sc: cli._parse_grid("2:1:1"), "--T-grid needs step > 0 and stop >= start"),
        # an lqr run on a scenario whose mode is open_loop
        (lambda sc: cli.cmd_lqr(sc, Namespace(T=1.0, mode="open_loop"), cli._Sink()),
         "the lqr command needs a feedback mode"),
        (lambda sc: cli.cmd_simulate(sc, Namespace(T=1.0, N=2, mode="regular", saturate=False), cli._Sink()),
         r"preview \(N > 0\) is only available in mri mode"),
    ], ids=["grid-parts", "grid-step", "grid-order", "lqr-open-loop", "simulate-preview-regular"])
    def test_invalid_command_arguments(self, call, message):
        with pytest.raises(ValueError, match=message):
            call(cli.load_scenario("souza"))

    def test_sweep_reports_failed_cells_and_keeps_the_others(self, tmp_path):
        # at T = 40 and 55 the mri cells' Q_d and S R^-1 S' cancel to roundoff
        # in Qhat; those cells read nan, the others as their solo designs
        out = tmp_path / "s.csv"
        assert cli.main(["sweep", "--scenario", "souza", "--T-grid", "20:5:60",
                         "--mode", "all", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 27
        sc = cli.load_scenario("souza")
        b = sc.Btilde[:, 0]
        failed = []
        for T, mode, N, cost, converged, iterations in rows:
            try:
                sol = riccati.design(sc.plant(), sc.weights(), float(T), mode).solution
                solo = (b @ sol.P @ b, sol.converged, sol.iterations)
            except DareDivergenceError as exc:
                solo = (b @ exc.last_iterate @ b, False, exc.iterations)
            except NumericalError:
                failed.append((T, mode))
                assert (cost, converged, iterations) == ("nan", "false", "0")
                continue
            assert (cost, converged, iterations) == (format(solo[0], ".17g"),
                                                     str(solo[1]).lower(), str(solo[2]))
        assert failed == [("40", "mri"), ("55", "mri")]

    def test_uncontrollable_scenario_is_input_error(self, tmp_path, capsys):
        doc = {
            "name": "uncontrollable", "A": [[1.0, 0.0], [0.0, 2.0]],
            "B": [[0.0], [0.0]], "Q": [[1.0, 0.0], [0.0, 1.0]],
            "Rc": [[1.0]], "Ri": [[1.0]], "T": 1.0,
        }
        p = tmp_path / "u.json"
        p.write_text(json.dumps(doc))
        assert cli.main(["controllability", "--scenario", str(p)]) == 1


class TestParserCache:
    COMMANDS = [
        ["discretize", "--scenario", "souza", "--T", "0.7"],
        ["controllability", "--scenario", "rotation", "--T-max", "7"],
        ["lqr", "--scenario", "insulin", "--mode", "impulsive", "--format", "json"],
        ["lqr", "--scenario", "souza"],
        ["lqr", "--scenario", "souza", "--mode", "bogus"],
        ["preview", "--scenario", "souza", "--N", "2"],
        ["sweep", "--scenario", "souza", "--T-grid", "0.5:0.25:1.5", "--mode", "all", "--N", "0,2"],
        ["sweep", "--scenario", "souza", "--T-grid", "1:1:1"],
        ["simulate", "--scenario", "insulin", "--N", "1", "--steps", "40", "--format", "json"],
        ["simulate", "--scenario", "souza", "--mode", "open_loop", "--substeps", "4"],
    ]

    @staticmethod
    def run(argv, out, capsys):
        """Exit status, output file bytes and console text of one in-process
        call, writing to ``out`` or, when it is None, to the console."""
        try:
            status = cli.main(argv if out is None else [*argv, "--out", str(out)])
        except SystemExit as exc:
            status = f"SystemExit({exc.code})"
        text = capsys.readouterr()
        return status, out and out.exists() and out.read_bytes(), text.out, text.err

    def test_back_to_back_calls_match_fresh_ones(self, tmp_path, capsys):
        calls = [(argv, out) for i, argv in enumerate(self.COMMANDS) for out in (f"{i}.out", None)]

        def fresh(argv, out):
            cli._build_parser.cache_clear()
            return self.run(argv, out and tmp_path / f"fresh-{out}", capsys)

        expected = [fresh(argv, out) for argv, out in calls]
        got = [self.run(argv, out and tmp_path / f"cached-{out}", capsys) for argv, out in calls]
        assert [status for status, *_ in got[::2]] == [0, 0, 0, 0, "SystemExit(1)", 0, 0, 0, 0, 0]
        assert got == expected

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_main_runs_the_command_bound_at_call_time(self, tmp_path, monkeypatch):
        cli._build_parser()
        seen = []

        def fake_sweep(scenario, args, sink):
            seen.append((scenario.name, args.T_grid, args.N))
            sink.scalar("patched", True)

        monkeypatch.setattr(cli, "cmd_sweep", fake_sweep)
        out = tmp_path / "s.csv"
        assert cli.main(["sweep", "--scenario", "souza", "--T-grid", "1:1:2", "--out", str(out)]) == 0
        assert seen == [("souza", "1:1:2", "0")]
        assert out.read_text() == "section,name,row,col,value\nscalar,patched,,,true\n"


class TestOutputs:
    def test_discretize_csv_round_trips_scenario_inputs(self, tmp_path):
        out = tmp_path / "d.csv"
        assert cli.main(["discretize", "--scenario", "souza", "--out", str(out)]) == 0
        entries = {}
        for line in out.read_text().splitlines()[1:]:
            if not line or "," not in line:
                continue
            kind, name, i, j, value = line.split(",")
            if kind == "matrix":
                entries[(name, int(i), int(j))] = float(value)
        sc = cli.load_scenario("souza")
        for (name, M) in [("A", sc.A), ("B", sc.B), ("Btilde", sc.Btilde)]:
            for i in range(M.shape[0]):
                for j in range(M.shape[1]):
                    assert entries[(name, i, j)] == M[i, j]

    def test_discretize_closed_forms_at_base_period(self, tmp_path):
        out = tmp_path / "d.json"
        assert cli.main(["discretize", "--scenario", "souza",
                         "--T", str(SOUZA_BASE), "--format", "json",
                         "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        c = np.exp(np.pi / np.sqrt(23.0))
        assert np.allclose(doc["A_d"], -c * np.eye(2), rtol=1e-10, atol=1e-12)
        assert np.allclose(doc["B_d"], [[(1 + c) / 6.0], [0.0]], rtol=1e-10, atol=1e-12)
        assert np.allclose(doc["B_i"], [[0.0], [-c]], rtol=1e-10, atol=1e-12)

    def test_discretize_rotation_hold_channel_dies(self, tmp_path):
        out = tmp_path / "r.json"
        assert cli.main(["discretize", "--scenario", "rotation",
                         "--T", str(2 * np.pi), "--format", "json",
                         "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert np.abs(doc["B_d"]).max() < 1e-10
        assert np.allclose(doc["B_i"], [[0.0], [1.0]], atol=1e-12)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert cli.main(["sweep", "--scenario", "souza",
                             "--T-grid", "0.5:0.5:2.0", "--mode", "all",
                             "--N", "0,1", "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_schema_and_preview_column(self, tmp_path):
        out = tmp_path / "s.csv"
        assert cli.main(["sweep", "--scenario", "souza", "--T-grid", "1.0:1.0:2.0",
                         "--mode", "mri", "--N", "0,2", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "T,mode,N,cost,converged,iterations"
        rows = [line.split(",") for line in lines[1:] if line]
        assert len(rows) == 4
        costs = {(r[0], r[2]): float(r[3]) for r in rows}
        assert costs[("1", "2")] < costs[("1", "0")]
        assert all(r[4] == "true" for r in rows)

    def test_sweep_emits_warning_rows_at_pathological_period(self, tmp_path):
        out = tmp_path / "w.csv"
        grid = f"{SOUZA_BASE}:1.0:{SOUZA_BASE}"
        assert cli.main(["sweep", "--scenario", "souza", "--T-grid", grid,
                         "--mode", "regular", "--N", "0,1,3", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:] if line]
        # the diverged solve is shared by every horizon of the cell
        assert [r[2] for r in rows] == ["0", "1", "3"]
        assert all(r[4] == "false" for r in rows)
        assert float(rows[0][3]) > 0.0

    def test_sweep_cell_matches_preview_plan(self, tmp_path):
        out = tmp_path / "s.csv"
        assert cli.main(["sweep", "--scenario", "souza", "--T-grid", "1.3:1.0:1.3",
                         "--mode", "mri", "--N", "0,2", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:] if line]
        sc = cli.load_scenario("souza")
        plan = preview_plan(design(sc.plant(), sc.weights(), 1.3, "mri"), sc.Btilde[:, 0], 2)
        assert rows[1][2] == "2"
        assert rows[1][3] == format(plan.Jstar, ".17g")

    def test_lqr_json_output(self, tmp_path):
        out = tmp_path / "l.json"
        assert cli.main(["lqr", "--scenario", "insulin", "--format", "json",
                         "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["converged"] is True
        assert np.asarray(doc["K_c"]).shape == (1, 6)
        assert np.asarray(doc["K_i"]).shape == (1, 6)
        assert doc["residual"] <= 1e-9 * (1 + np.linalg.norm(doc["P"]))

    def test_preview_output_has_feedforward(self, tmp_path):
        out = tmp_path / "p.json"
        assert cli.main(["preview", "--scenario", "souza", "--N", "3",
                         "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert np.asarray(doc["feedforward"]).shape == (3, 2)
        assert doc["Jstar"] >= 0.0

    def test_controllability_report(self, tmp_path):
        out = tmp_path / "c.csv"
        assert cli.main(["controllability", "--scenario", "souza", "--T-max", "5",
                         "--out", str(out)]) == 0
        text = out.read_text()
        lines = text.splitlines()
        header = next(l for l in lines if l.startswith("period,"))
        rows = [l.split(",") for l in lines[lines.index(header) + 1:] if l and "," in l]
        periods = [float(r[0]) for r in rows]
        assert np.allclose(periods, [SOUZA_BASE, 2 * SOUZA_BASE, 3 * SOUZA_BASE])
        for r in rows:
            assert r[4] == "true"   # hold-only pathological
            assert r[6] == "false"  # mixed stays controllable

    def test_every_candidate_has_a_kernel_margin(self, tmp_path, near_resonant_plant):
        scenario = tmp_path / "near.json"
        scenario.write_text(json.dumps({"name": "near", "A": near_resonant_plant.A.tolist(),
                                        "B": near_resonant_plant.B.tolist(), "Q": np.eye(5).tolist(),
                                        "Rc": [[1.0]], "Ri": [[1.0]], "T": 1.0}))
        out = tmp_path / "c.csv"
        assert cli.main(["controllability", "--scenario", str(scenario), "--T-max", "7", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        header = lines.index(next(l for l in lines if l.startswith("period,")))
        rows = [l.split(",") for l in lines[header + 1:]]
        assert len(rows) == 6 and all(r[7] for r in rows)
        # 2 pi / 3 and 4 pi / 3 come from the pair 5e-8 + i, -2i alone
        assert [float(r[7]) for r in rows if float(r[1]) == pytest.approx(2.0 * np.pi / 3.0)] == \
            pytest.approx([0.647, 0.647], abs=1e-3)
        # there both single channels stay controllable; at the multiples of pi / 2 both lose it
        assert [r[4:6] for r in rows] == [["true", "true"], ["false", "false"], ["true", "true"],
                                          ["false", "false"], ["true", "true"], ["true", "true"]]

    def test_souza_report_up_to_a_thousand(self, tmp_path, capsys):
        # e^{AT} reaches e^{500} there; the kernel test reads only blocks scaled
        # to unit size and forms no power of e^{AT}
        out = tmp_path / "c.csv"
        assert cli.main(["controllability", "--scenario", "souza", "--T-max", "1000", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        _, header, rows = read_cli_csv(out)
        flags = [[r[header.index(name)] for name in ("pathological_regular", "pathological_impulsive",
                                                    "pathological_mri")] for r in rows]
        assert len(rows) == 763 and flags == [["true", "true", "false"]] * 763
        assert min(float(r[header.index("mri_margin")]) for r in rows) > 0.4

    def test_a_period_without_resonance_is_not_sampled(self, tmp_path, capsys):
        # e^{AT} of souza overflows at T = 2000, but 2000 is no multiple of
        # 2 pi / sqrt(23): no eigenvalue resonates there, so the scenario
        # period needs no kernel test and no sample, and is controllable
        scenario = tmp_path / "long.json"
        scenario.write_text(json.dumps({**json.loads(cli._scenario_text("souza")[1]), "T": 2000}))
        out, bundled = tmp_path / "c.csv", tmp_path / "bundled.csv"
        assert cli.main(["controllability", "--scenario", str(scenario), "--T-max", "10", "--out", str(out)]) == 0
        assert cli.main(["controllability", "--scenario", "souza", "--T-max", "10", "--out", str(bundled)]) == 0
        assert capsys.readouterr().err == ""
        scalars, header, rows = read_cli_csv(out)
        assert (scalars["scenario_T"], scalars["scenario_T_mri_controllable"]) == ("2000", "true")
        assert (header, rows) == read_cli_csv(bundled)[1:] and len(rows) == 7

    def test_simulate_traj_csv(self, tmp_path):
        out = tmp_path / "t.csv"
        assert cli.main(["simulate", "--scenario", "insulin", "--steps", "10",
                         "--substeps", "4", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        header = next(l for l in lines if l.startswith("t,"))
        cols = header.split(",")
        assert cols == ["t", "x1", "x2", "x3", "x4", "x5", "x6", "y",
                        "uc1", "ui1", "J_running", "impulse"]
        rows = [l.split(",") for l in lines[lines.index(header) + 1:] if l]
        # disturbance at step 0 flags an impulse row at t = 0
        assert any(r[0] == "0" and r[-1] == "1" for r in rows)
        J = [float(r[-2]) for r in rows]
        assert all(b >= a - 1e-12 for a, b in zip(J[:-1], J[1:]))

    def test_simulate_open_loop(self, tmp_path):
        out = tmp_path / "ol.csv"
        assert cli.main(["simulate", "--scenario", "insulin", "--mode", "open_loop",
                         "--steps", "10", "--substeps", "4", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        header = next(l for l in lines if l.startswith("t,"))
        rows = [l.split(",") for l in lines[lines.index(header) + 1:] if l]
        uc = {float(r[8]) for r in rows}
        ui = {float(r[9]) for r in rows}
        assert uc == {0.0} and ui == {0.0}


def read_cli_csv(path):
    """(scalars, header, rows) of a CLI CSV holding scalars and one table."""
    lines = path.read_text().splitlines()
    blank = lines.index("")
    scalars = {f[1]: f[4] for f in (line.split(",") for line in lines[1:blank]) if f[0] == "scalar"}
    return scalars, lines[blank + 1].split(","), [line.split(",") for line in lines[blank + 2:]]


def bits(values) -> bytes:
    return np.ascontiguousarray(values, dtype=float).tobytes()


class TestWriter:
    FLOATS = [-0.0, 0.0, 1e-300, 5e-324, -1.5, 0.1, 2.0 / 3.0, 1.7976931348623157e308,
              np.inf, -np.inf, np.nan, np.float64(-2.5e-17), np.float32(0.1)]
    INTS = [0, -7, 2**70, np.int64(-3), np.int32(12)]

    @staticmethod
    def per_cell(rows, digits):
        return [",".join(cli._cell(v, digits) for v in row) for row in rows]

    @staticmethod
    def columns(rows):
        return [list(c) for c in zip(*rows)]

    def test_cell_text(self):
        for v in self.FLOATS:
            for digits in (cli.CONSOLE_DIGITS, cli.FILE_DIGITS):
                assert cli._cell(v, digits) == format(float(v), f".{digits}g")
        for v in self.INTS:
            assert cli._cell(v, 17) == str(int(v))
        assert [cli._cell(v, 17) for v in (True, np.bool_(False), None, "mri")] == \
            ["true", "false", "", "mri"]

    @pytest.mark.parametrize("digits", [cli.CONSOLE_DIGITS, cli.FILE_DIGITS])
    @pytest.mark.parametrize("as_arrays", [False, True])
    def test_numeric_columns_render_through_one_row_format(self, digits, as_arrays):
        rows = [[f, i, -f] for f, i in zip(self.FLOATS, cycle([i for i in self.INTS if abs(i) < 2**63] if as_arrays else self.INTS))]
        columns = self.columns(rows)
        if as_arrays:
            # an array's kind comes from its dtype, a list's from its cells
            columns = [np.array(columns[0]), np.array(columns[1], dtype=np.int64), np.array(columns[2])]
        assert [cli._column(c)[1] for c in columns] == ["float", "int", "float"]
        assert cli._table_lines(["a", "b", "c"], columns, digits)[1:] == self.per_cell(rows, digits)

    @pytest.mark.parametrize("column", [
        [1.0, 2], [np.int64(1), 2.5], [True, 1.5], [np.bool_(False), 0], ["a", 1.0], [None, 1.0],
        [True, None]])
    def test_mixed_columns_render_cell_by_cell(self, column):
        rows = [[v, 0.5, 3] for v in column]
        assert cli._column(column)[1] is None
        sink = cli._Sink()
        sink.table("t", ["a", "b", "c"], self.columns(rows))
        assert sink.to_csv() == "a,b,c\n" + "".join(
            line + "\n" for line in self.per_cell(rows, cli.FILE_DIGITS))

    @pytest.mark.parametrize("column, kind", [
        ([True, False], "bool"), ([np.bool_(False), True], "bool"), (np.array([False, True]), "bool"),
        (["a", "b,c"], "str"), ([None, None], "none")])
    def test_bool_string_and_none_columns_render_through_one_row_format(self, column, kind):
        rows = [[v, 0.5, 3] for v in column]
        assert cli._column(column)[1] == kind
        assert cli._table_lines(["a", "b", "c"], [column, [0.5, 0.5], [3, 3]], cli.FILE_DIGITS)[1:] == \
            self.per_cell(rows, cli.FILE_DIGITS)

    @pytest.mark.parametrize("columns", [[[1.0, 2.0], [3.0]], [np.zeros(2), np.zeros(3)], [[1.0], [2.0], [3.0]],
                                         [[1.0]]], ids=["lists", "arrays", "extra-column", "missing-column"])
    def test_columns_of_unequal_length_or_count_are_rejected(self, columns):
        # zip would cut the table to its shortest column
        sink = cli._Sink()
        with pytest.raises(ValueError, match="table 't' needs 2 columns of one length"):
            sink.table("t", ["a", "b"], columns)
        assert sink.tables == {}

    def test_every_writer_uses_one_type_rule(self, capsys):
        numeric = [[f, i] for f, i in zip(self.FLOATS, cycle(self.INTS))]
        mixed = [[-0.0, 1e-300, 3, True, "mri", None], [2.5, np.float64(7.0), np.int64(4),
                                                         np.bool_(False), "regular", None]]
        sink = cli._Sink()
        sink.scalar("flag", np.bool_(True))
        sink.scalar("count", np.int64(5))
        sink.table("numeric", ["f", "i"], self.columns(numeric))
        sink.table("mixed", list("abcdef"), self.columns(mixed))

        csv = sink.to_csv().split("\n\n")
        assert csv[1].splitlines()[1:] == self.per_cell(numeric, cli.FILE_DIGITS)
        assert csv[2].splitlines()[1:] == self.per_cell(mixed, cli.FILE_DIGITS)

        sink.to_console()
        console = capsys.readouterr().out.splitlines()
        assert console[:2] == ["flag = true", "count = 5"]
        start = console.index("[numeric]") + 2
        assert console[start:start + len(numeric)] == self.per_cell(numeric, cli.CONSOLE_DIGITS)
        assert console[-2:] == self.per_cell(mixed, cli.CONSOLE_DIGITS)

        doc = strict_json(sink.to_json())
        assert doc["flag"] is True and doc["count"] == 5
        assert [type(r["i"]) for r in doc["numeric"]] == [int] * len(numeric)
        assert doc["mixed"][0] == {"a": -0.0, "b": 1e-300, "c": 3, "d": True, "e": "mri", "f": None}
        assert doc["mixed"][1] == {"a": 2.5, "b": 7.0, "c": 4, "d": False, "e": "regular", "f": None}

    RUN_COLUMNS = {
        "signed-zero-runs": np.array([-0.0] * 3 + [0.0] * 3 + [-0.0] * 2 + [0.0]),
        "nan-runs": np.array([np.nan] * 4 + [1.5] * 3 + [np.nan] * 2),
        "inf-runs": np.array([np.inf] * 3 + [-np.inf] * 3 + [np.inf, np.inf]),
        "float32-runs": np.array([0.1] * 5 + [2.0 / 3.0] * 5, dtype=np.float32),
        "int-runs": np.array([5] * 6 + [-2] * 4 + [0] * 2, dtype=np.int64),
        "uint64-runs": np.array([2**64 - 1] * 3 + [0] * 3, dtype=np.uint64),
        "one-float": np.array([0.1]),
        "one-int": np.array([7]),
        "empty-float": np.array([], dtype=float),
        "empty-int": np.array([], dtype=np.int64),
        "half-runs": np.array([0.25, 0.25, 1e-300, 1e-300]),
        "over-half-runs": np.array([0.25, 0.25, 1e-300, -1e-300]),
        "no-runs": np.array(FLOATS[:-1], dtype=float),
    }

    @pytest.mark.parametrize("digits", [cli.CONSOLE_DIGITS, cli.FILE_DIGITS])
    @pytest.mark.parametrize("name", list(RUN_COLUMNS))
    def test_runs_of_array_cells_render_as_per_cell(self, name, digits):
        column = self.RUN_COLUMNS[name]
        # beside a column without runs and a list column
        columns = [column, np.arange(column.size) / 3.0, [0.5] * column.size]
        rows = list(zip(*(list(c) for c in columns)))
        assert cli._table_lines(["a", "b", "c"], columns, digits)[1:] == self.per_cell(rows, digits)

    @pytest.mark.parametrize("name, starts", [
        ("signed-zero-runs", [0, 3, 6, 8]), ("nan-runs", [0, 1, 2, 3, 4, 7, 8]), ("inf-runs", [0, 3, 6]),
        ("int-runs", [0, 6, 10]), ("one-int", [0]), ("empty-float", []), ("half-runs", [0, 2]),
        ("over-half-runs", [0, 2, 3])])
    def test_runs_join_equal_values_of_one_sign_and_never_a_nan(self, name, starts):
        assert cli._run_starts(self.RUN_COLUMNS[name]).tolist() == starts

    @settings(max_examples=150)
    @given(st.lists(st.sampled_from([-0.0, 0.0, np.nan, np.inf, -np.inf, 1e-300, -1.5, 0.1, 2.0 / 3.0]),
                    max_size=40), st.integers(1, 4))
    def test_float_arrays_with_runs_render_as_per_cell(self, values, stretch):
        column = np.repeat(np.array(values, dtype=float), stretch)
        for digits in (cli.CONSOLE_DIGITS, cli.FILE_DIGITS):
            assert cli._table_lines(["a"], [column], digits)[1:] == self.per_cell([[v] for v in column], digits)

    OUT_ARGV = ["simulate", "--scenario", "souza", "--steps", "3", "--out"]

    @pytest.mark.parametrize("old", [b"x" * 100_000, b"y" * 10, b""], ids=["longer", "shorter", "empty"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_out_over_an_existing_file_leaves_exactly_the_new_bytes(self, tmp_path, old, fmt):
        fresh, over = tmp_path / "fresh", tmp_path / "over"
        assert cli.main([*self.OUT_ARGV, str(fresh), "--format", fmt]) == 0
        over.write_bytes(old)
        inode = over.stat().st_ino
        assert cli.main([*self.OUT_ARGV, str(over), "--format", fmt]) == 0
        assert over.read_bytes() == fresh.read_bytes()
        assert over.stat().st_ino == inode

    def test_out_to_a_device_or_fifo_writes_and_cuts_nothing(self, tmp_path):
        # neither can be truncated: ftruncate would fail with EINVAL
        assert cli.main([*self.OUT_ARGV, os.devnull]) == 0
        fresh, fifo = tmp_path / "fresh", tmp_path / "fifo"
        assert cli.main([*self.OUT_ARGV, str(fresh)]) == 0
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert cli.main([*self.OUT_ARGV, str(fifo)]) == 0
            assert os.read(reader, 1 << 16) == fresh.read_bytes()
        finally:
            os.close(reader)

    def test_out_on_a_directory_is_an_input_error(self, tmp_path, capsys):
        assert cli.main([*self.OUT_ARGV, str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("input error: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("umask", [0o022, 0o027, 0o077])
    def test_a_new_file_gets_its_mode_from_the_umask(self, tmp_path, umask):
        out = tmp_path / "new.csv"
        previous = os.umask(umask)
        try:
            assert cli.main([*self.OUT_ARGV, str(out)]) == 0
        finally:
            os.umask(previous)
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask

    def test_non_finite_floats_are_null_in_json_and_kept_in_csv(self):
        sink = cli._Sink()
        sink.scalar("J", float("nan"))
        sink.matrix("M", [[np.inf, 1.0], [-np.inf, np.nan]])
        sink.table("t", ["cost", "n"], [np.array([np.nan, 2.5]), np.array([1, 2])])
        assert strict_json(sink.to_json()) == {"J": None, "M": [[None, 1.0], [None, None]],
                                               "t": [{"cost": None, "n": 1}, {"cost": 2.5, "n": 2}]}
        assert sink.to_csv().splitlines() == [
            "section,name,row,col,value", "scalar,J,,,nan", "matrix,M,0,0,inf", "matrix,M,0,1,1",
            "matrix,M,1,0,-inf", "matrix,M,1,1,nan", "", "cost,n", "nan,1", "2.5,2"]


def near_powers_of_ten():
    """Every power of ten in the double range and the doubles up to 3 ulps on either side, both signs."""
    p = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near, up, down = [p], p, p
    for _ in range(3):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
        near += [up, down]
    near = np.concatenate(near)
    return np.concatenate([near, -near])


def switch_values(digits):
    """Doubles next to 1e-4 and 10**digits, where %g switches between its
    fixed and exponent forms, and at 1 - 10**-j times them."""
    values = []
    for edge in (1e-4, float(10 ** digits)):
        values += [edge * (1.0 + sign * 10.0 ** -j) for sign in (-1, 1) for j in range(1, 20)]
        up = down = np.array([edge])
        for _ in range(40):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
            values += [up[0], down[0]]
    return np.array(values)


def round_up_values(digits):
    """Runs of nines that round up to the next power of ten at ``digits`` digits (and some that do not)."""
    return np.array([float("9" * width + f"e{k}") for width in (digits - 1, digits, digits + 1, digits + 2, 17)
                     for k in range(-300, 300, 7)])


def exact_ties(digits, rng, count=400):
    """Odd M / 2**j whose decimal expansion, M * 5**j / 10**j, has digits + 1
    digits ending in 5: each lies exactly halfway between two texts of
    ``digits`` digits, and % breaks the tie to the even one."""
    ties = []
    for _ in range(count):
        j = int(rng.integers(1, 40))
        low, high = -(-10 ** digits // 5 ** j), min(10 ** (digits + 1) // 5 ** j, 2 ** 53)
        if low >= high:
            continue
        M = int(rng.integers(low, high)) | 1
        if M * 5 ** j < 10 ** (digits + 1):
            ties.append(M / 2 ** j)
    ties = np.array(ties)
    assert ties.size > count // 4
    return np.concatenate([ties, -ties])


class TestGTexts:
    """``_g_texts`` is ``"%.{digits}g" % v`` for every cell, the cells % formats itself included."""

    @staticmethod
    def assert_percent(values, digits):
        texts = cli._g_texts(values, digits)
        want = ["%.*g" % (digits, v) for v in np.asarray(values).tolist()]
        assert len(texts) == len(want)
        wrong = [(v, got, expected) for v, got, expected in zip(np.asarray(values).tolist(), texts, want)
                 if got != expected]
        assert not wrong, wrong[:5]

    @pytest.mark.parametrize("digits", [cli.CONSOLE_DIGITS, cli.FILE_DIGITS])
    def test_random_bit_patterns(self, digits):
        rng = np.random.default_rng(20261021)
        bits = rng.integers(-2**63, 2**63, 60_000, dtype=np.int64)
        subnormal = rng.integers(1, 2**52, 200, dtype=np.int64)
        special = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
                            1.7976931348623157e308, 1e-280, 1e280, np.nextafter(1e-280, 0.0),
                            np.nextafter(1e280, np.inf)])
        values = np.concatenate([bits.view(np.float64), subnormal.view(np.float64), -subnormal.view(np.float64),
                                 special])
        assert np.isnan(values).sum() >= 2 and (values == 0.0).sum() >= 2 and np.isinf(values).sum() >= 2
        self.assert_percent(values, digits)

    @pytest.mark.parametrize("digits", [cli.CONSOLE_DIGITS, cli.FILE_DIGITS])
    @pytest.mark.parametrize("values", [lambda digits: near_powers_of_ten(), switch_values, round_up_values],
                             ids=["near-powers-of-ten", "form-switch", "round-up"])
    def test_edges_of_the_decimal_exponent(self, values, digits):
        self.assert_percent(values(digits), digits)

    @pytest.mark.parametrize("digits", [cli.CONSOLE_DIGITS, cli.FILE_DIGITS])
    def test_exact_ties_are_broken_to_even(self, digits):
        ties = exact_ties(digits, np.random.default_rng(digits))
        mantissas = [("%.*e" % (digits, v)).split("e")[0] for v in ties.tolist()]  # all their digits
        assert all(m.endswith("5") for m in mantissas)
        # ties that round up and ties that round down, so rounding half up or half down shows
        assert {int(m[-2]) % 2 for m in mantissas} == {0, 1}
        self.assert_percent(ties, digits)

    @pytest.mark.parametrize("digits", [cli.CONSOLE_DIGITS, cli.FILE_DIGITS])
    def test_float32_and_empty_arrays(self, digits):
        rng = np.random.default_rng(7)
        values = (rng.standard_normal(2000) * 10.0 ** rng.integers(-30, 31, 2000)).astype(np.float32)
        self.assert_percent(values, digits)
        assert cli._g_texts(np.array([], dtype=float), digits) == []
        assert cli._g_texts(np.array([], dtype=np.float32), digits) == []


class TestEveryTable:
    """The fast writers against their plain forms on every command's output."""

    COMMANDS = [
        # nan costs and unconverged cells
        ["sweep", "--scenario", "souza", "--T-grid", "20:5:60", "--mode", "all", "--N", "0,3"],
        ["sweep", "--scenario", "rotation", "--T-grid", "0.5:0.5:7", "--mode", "all", "--N", "0,1"],
        ["controllability", "--scenario", "souza", "--T-max", "20"],
        ["controllability", "--scenario", "rotation", "--T-max", "13"],
        # a real spectrum has no candidate periods: an empty table
        ["controllability", "--scenario", "{real}"],
        ["simulate", "--scenario", "insulin", "--N", "2", "--eps", "0.1"],
        # no output row: a y column of None
        ["simulate", "--scenario", "souza", "--mode", "open_loop", "--steps", "4"],
        ["discretize", "--scenario", "insulin"],
        ["lqr", "--scenario", "souza", "--mode", "mri"],
        ["preview", "--scenario", "insulin", "--N", "3"],
    ]

    @pytest.fixture(scope="class")
    def sinks(self, tmp_path_factory):
        sinks = []
        emit = cli._Sink.emit

        def captured(sink, out_path, fmt):
            sinks.append(sink)
            return emit(sink, out_path, fmt)

        tmp = tmp_path_factory.mktemp("tables")
        real = tmp / "real.json"
        real.write_text(json.dumps({"name": "real", "A": [[-1.0, 0.0], [0.0, -2.0]], "B": [[1.0], [1.0]],
                                    "Q": [[1.0, 0.0], [0.0, 1.0]], "Rc": [[1.0]], "Ri": [[1.0]], "T": 1.0}))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli._Sink, "emit", captured)
            for argv in self.COMMANDS:
                argv = [a.format(real=real) for a in argv]
                assert cli.main(argv + ["--out", str(tmp / "o.csv")]) == 0, argv
        return dict(zip((argv[0] + " " + argv[2].strip("{}") for argv in self.COMMANDS), sinks))

    @pytest.mark.parametrize("digits", [cli.CONSOLE_DIGITS, cli.FILE_DIGITS])
    def test_row_format_matches_cell_by_cell(self, sinks, digits):
        tables = [table for sink in sinks.values() for table in sink.tables.values()]
        header, columns = sinks["controllability souza"].tables["candidates"]
        # None margins, in a column of their own and mixed with floats
        tables.append((header, [*columns[:-1], [None] * len(columns[-1])]))
        tables.append((header, [*columns[:-1], [None if i % 2 else v for i, v in enumerate(columns[-1])]]))
        assert np.isnan(sinks["sweep souza"].tables["sweep"][1][3]).any()
        for header, columns in tables:
            rows = list(zip(*map(list, columns)))
            assert cli._table_lines(header, columns, digits)[1:] == TestWriter.per_cell(rows, digits)
        for name in ("sweep souza", "sweep rotation", "controllability souza", "controllability rotation"):
            for header, columns in sinks[name].tables.values():
                assert None not in [cli._column(c)[1] for c in columns], name
        # the trajectory arrays reach the writer as they are
        for name in ("simulate insulin", "simulate souza"):
            header, columns = sinks[name].tables["trajectory"]
            assert [isinstance(c, np.ndarray) for c in columns] == [h != "y" or name == "simulate insulin"
                                                                    for h in header], name

    def test_json_matches_the_indenting_encoder(self, sinks):
        texts = {name: sink.to_json() for name, sink in sinks.items()}
        for name, sink in sinks.items():
            assert texts[name] == json.dumps(sink.json_doc(), indent=2, sort_keys=True) + "\n", name
        # a failed cell's nan cost is null, which JSON can hold
        assert "NaN" not in texts["sweep souza"] and '"cost": null' in texts["sweep souza"]
        assert "null" in texts["simulate souza"]
        assert '"candidates": []' in texts["controllability real"]


    def test_every_json_file_is_strict_json(self, sinks):
        for name, sink in sinks.items():
            strict_json(sink.to_json())


class TestSimulateTable:
    @pytest.mark.parametrize("eps", [None, 0.1])
    def test_csv_is_the_trajectory_bit_for_bit(self, tmp_path, eps):
        out = tmp_path / "t.csv"
        extra = [] if eps is None else ["--eps", str(eps)]
        assert cli.main(["simulate", "--scenario", "insulin", "--N", "2", *extra,
                         "--out", str(out)]) == 0
        scalars, header, rows = read_cli_csv(out)
        col = {h: [r[j] for r in rows] for j, h in enumerate(header)}

        sc = cli.load_scenario("insulin")
        T, N, steps = float(scalars["T"]), int(scalars["N"]), int(scalars["steps"])
        direction = sc.disturbance_column() * sc.disturbance_scale
        des = design(sc.plant(), sc.weights(), T, "mri")
        policy = simulate.InputPolicy(K=des.solution.K, mode="mri",
                                      feedforward=preview_plan(des, direction, N).feedforward)
        traj = simulate.simulate_closed_loop(
            sc.plant(), sc.weights(), T, policy,
            disturbance=simulate.DisturbanceSpec(impulse_step=N, direction=direction),
            steps=steps, substeps=sc.substeps, epsilon=eps)

        def parsed(name):
            return bits([float(v) for v in col[name]])

        assert parsed("t") == bits(traj.dense_times)
        for i in range(sc.A.shape[0]):
            assert parsed(f"x{i + 1}") == bits(traj.dense_states[:, i])
        assert parsed("J_running") == bits(traj.dense_running_cost)
        assert col["impulse"] == [str(f) for f in traj.dense_impulse_flags]
        # a row at a duplicated time stamp carries the input of the interval starting there
        ks = [min(int(np.floor(t / T + 1e-9)), steps - 1) for t in traj.dense_times]
        assert parsed("uc1") == bits(traj.u_c[ks, 0])
        assert parsed("ui1") == bits(traj.u_i[ks, 0])
        out_row = sc.output_row[0]
        assert parsed("y") == bits([out_row @ x for x in traj.dense_states])
        assert float(scalars["J_cont"]) == traj.J_cont

        assert scalars["peak_y"] == max(col["y"], key=float)


class TestDesignReuse:
    def test_sweep_designs_once_per_period_and_mode(self, tmp_path, monkeypatch):
        # one _solve_grid call is the whole pipeline: the period grid is
        # sampled in one stacked call, its costs come from one stacked Gram
        # integral, and the cells of all three modes are one stacked solve,
        # one group of stacks per input width, with a single doubling
        log = []
        counts = count_calls(monkeypatch, "solve_dare", "sample_plant", "_sample_stack",
                             "cost_matrices", log=log)
        calls = []

        def recorded(module, name, record):
            fn = getattr(module, name)

            def wrapper(*args):
                result = fn(*args)
                calls.append((name, record(*args, result)))
                return result

            monkeypatch.setattr(module, name, wrapper)

        recorded(riccati, "_solve_grid", lambda plant, weights, periods, modes, result:
                 (list(periods), list(modes), [(qs, len(B)) for qs, (_, B, *_), _ in result[1]]))
        recorded(discretize, "_cost_stack", lambda plant, weights, periods, result: list(periods))
        recorded(riccati, "_solve_stack", lambda groups, result: [len(A_d) for A_d, *_ in groups])
        recorded(riccati, "_doubling", lambda *args: len(args[0]))
        periods = [0.5, 1.0, 1.5, 2.0]
        assert cli.main(["sweep", "--scenario", "souza", "--T-grid", "0.5:0.5:2.0",
                         "--mode", "all", "--N", "0,1,3", "--out", str(tmp_path / "s.csv")]) == 0
        assert counts == {"_sample_stack": 1}
        assert [list(args[1]) for name, args in log if name == "_sample_stack"] == [periods]
        assert calls == [("_cost_stack", periods), ("_doubling", 3 * len(periods)),
                         ("_solve_stack", [2 * len(periods), len(periods)]),
                         ("_solve_grid", (periods, list(discretize.MODES),
                                          [([0, 1], 2 * len(periods)), ([2], len(periods))]))]

    def test_simulate_with_preview_solves_once(self, tmp_path, monkeypatch):
        # one stacked solve of one problem
        log = []
        counts = count_calls(monkeypatch, "_solve_stack", log=log)
        assert cli.main(["simulate", "--scenario", "insulin", "--N", "2",
                         "--out", str(tmp_path / "t.csv")]) == 0
        assert counts == {"_solve_stack": 1}
        assert [len(args[0]) for _, args in log] == [1]

    def test_controllability_samples_once_per_candidate(self, tmp_path, monkeypatch):
        log = []
        counts = count_calls(monkeypatch, "sample_plant", "_sample_stack", "kalman_controllable",
                             log=log)
        souza = cli.load_scenario("souza")
        candidates = controllability.candidate_pathological_periods(souza.A, 5.0)
        assert candidates
        assert cli.main(["controllability", "--scenario", "souza", "--T-max", "5",
                         "--out", str(tmp_path / "c.csv")]) == 0
        # one stacked sampling call over the candidates, each resonant; the
        # scenario period T = 1 is not, so it needs no sample; the continuous
        # pair is checked once, the sampled pairs on the stack
        assert not controllability.resonant_eigenvalues(souza.A, souza.T)
        assert counts == {"_sample_stack": 1, "kalman_controllable": 1}
        assert [list(args[1]) for name, args in log if name == "_sample_stack"] == \
            [[c.period for c in candidates]]


    def test_single_period_verdicts_run_through_period_reports(self, monkeypatch):
        plant = cli.load_scenario("souza").plant()
        counts = count_calls(monkeypatch, "period_reports", "kalman_controllable", "_sample_stack")
        assert controllability.reduced_hautus_mri(plant, SOUZA_BASE).controllable
        assert counts == {"period_reports": 1, "kalman_controllable": 1, "_sample_stack": 1}
        assert controllability.is_pathological(plant, SOUZA_BASE, "regular")
        assert counts == {"period_reports": 2, "kalman_controllable": 2, "_sample_stack": 2}

    def test_simulate_takes_every_segment_gram_form_from_one_call(self, monkeypatch):
        sc = cli.load_scenario("insulin")
        plant, weights = sc.plant(), sc.weights()
        # the hold cut adds segment lengths to the substep grid's
        _, lengths, hold = simulate._interval_segments(sc.T, sc.substeps, 0.1 * sc.T)
        assert np.unique(lengths).size > 1
        counts = count_calls(monkeypatch, "constant_input_gram")
        _, H, cost = simulate._interval_maps(plant, weights, lengths, hold, sc.T)
        assert counts == {"constant_input_gram": 1}
        # each form has the bits of its own length's call, and the whole
        # interval's cost the bits of cost_matrices at T
        for d, H_j in zip(lengths.tolist(), H):
            assert np.array_equal(H_j, discretize.constant_input_gram(plant, weights.Q, d))
        expected = discretize.cost_matrices(plant, weights, sc.T)
        for name, M in zip(("Q_d", "S_d", "R_d"), cost):
            assert bits(M) == bits(getattr(expected, name)), name

    def test_gram_integral_and_policy_polish_square_through_one_kernel(self, monkeypatch):
        # the cost's Gram integral is one kernel call on its stack of periods,
        # and each round of the polish one call on a stack of one, capped at
        # the doubling's 64
        sc = cli.load_scenario("insulin")
        des = design(sc.plant(), sc.weights(), sc.T, "mri")
        log = []
        counts = count_calls(monkeypatch, "_squaring_sum", "expm_gram_integral", log=log)
        discretize.cost_matrices(sc.plant(), sc.weights(), sc.T)
        assert counts == {"expm_gram_integral": 1, "_squaring_sum": 1}
        P = des.solution.P * (1.0 + 1e-6)
        problem = (des.model.A_d, des.B_sel, des.cost.Q_d, des.S_sel, des.R_sel)
        K, residual, A_cl, failed = riccati._evaluate(*(X[None] for X in (P, *problem)))
        assert not failed
        assert riccati._policy_polish(P, K[0], residual[0], A_cl[0], *problem)[2] < residual[0]
        rounds = [args for name, args in log[2:]]
        assert counts == {"expm_gram_integral": 1, "_squaring_sum": 1 + len(rounds)} and rounds
        assert all(len(F) == 1 and list(doublings) == [riccati._MAX_DOUBLINGS] for F, E, doublings in rounds)


# n = 3, m = 2: regular and impulsive gains are 2 wide, mri gains 4 wide
TWO_INPUT_SCENARIO = {
    "name": "two-input", "A": [[0.1, 1.0, 0.0], [0.0, -0.2, 1.0], [0.3, 0.0, -0.5]],
    "B": [[1.0, 0.0], [0.0, 0.5], [0.2, 1.0]], "Btilde": [[1.0], [0.0], [0.5]],
    "Q": np.eye(3).tolist(), "Rc": [[1.0, 0.0], [0.0, 2.0]], "Ri": [[0.5, 0.0], [0.0, 1.0]], "T": 1.0,
}


class TestSweepStacks:
    """``sweep`` reads its rows from the stacks of one solve, one group of
    stacks per input width."""

    @staticmethod
    def scenario(spec, tmp_path) -> str:
        if spec != "two-input":
            return spec
        path = tmp_path / "two-input.json"
        path.write_text(json.dumps(TWO_INPUT_SCENARIO))
        return str(path)

    @pytest.mark.parametrize("spec, grid, horizons", [
        ("insulin", "1:0.5:60", "0,2"), ("souza", "0.2:0.05:5", "0,3"), ("two-input", "0.25:0.25:6", "0,1,3")])
    def test_all_modes_give_the_rows_of_each_mode_alone(self, spec, grid, horizons, tmp_path):
        # regular and impulsive share a stack in --mode all and stand alone
        # in a single-mode sweep; each row keeps its bytes
        def rows(mode):
            out = tmp_path / f"{mode}.csv"
            assert cli.main(["sweep", "--scenario", self.scenario(spec, tmp_path), "--T-grid", grid,
                             "--mode", mode, "--N", horizons, "--out", str(out)]) == 0
            header, *lines = out.read_text().splitlines()
            return header, lines

        header, every = rows("all")
        per_mode = [rows(mode) for mode in discretize.MODES]
        assert all(h == header for h, _ in per_mode)
        width = len(horizons.split(","))
        periods = len(per_mode[0][1]) // width
        assert len(every) == 3 * periods * width
        assert every == [line for i in range(periods) for _, lines in per_mode
                         for line in lines[i * width:(i + 1) * width]]

    def test_two_input_rows_are_the_solo_designs_and_previews(self, tmp_path):
        out = tmp_path / "s.csv"
        assert cli.main(["sweep", "--scenario", self.scenario("two-input", tmp_path), "--T-grid", "0.5:0.5:4",
                         "--mode", "all", "--N", "0,2", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 8 * 3 * 2
        sc = cli.load_scenario(self.scenario("two-input", tmp_path))
        b = sc.Btilde[:, 0]
        for T, mode, N, cost, converged, iterations in rows:
            d = design(sc.plant(), sc.weights(), float(T), mode)
            assert d.solution.K.shape == ((4 if mode == "mri" else 2), 3)
            J = b @ d.solution.P @ b if N == "0" else preview_plan(d, b, int(N)).Jstar
            assert (cost, converged, iterations) == (format(J, ".17g"), "true", str(d.solution.iterations))

    def test_post_solve_stages_run_once_per_input_width(self, tmp_path, monkeypatch):
        # the cross-term elimination and the evaluation of the iterates run on
        # one stack per input width (no iterate of this grid is polished)
        sizes = {"_eliminate_cross_term": [], "_evaluate": []}
        for name, seen in sizes.items():
            monkeypatch.setattr(riccati, name, lambda *args, _fn=getattr(riccati, name), _seen=seen:
                                _seen.append(len(args[0])) or _fn(*args))
        assert cli.main(["sweep", "--scenario", "souza", "--T-grid", "0.5:0.5:2.0", "--mode", "all",
                         "--N", "0,3", "--out", str(tmp_path / "s.csv")]) == 0
        assert sizes == {"_eliminate_cross_term": [8, 4], "_evaluate": [8, 4]}


class TestTrajectoryBytes:
    """Real trajectories, in the CSV file and on the console, read as % writes their cells."""

    RUNS = {
        "insulin --N 2": ["--scenario", "insulin", "--N", "2"],
        "insulin --eps 0.1": ["--scenario", "insulin", "--eps", "0.1"],
        "insulin open loop": ["--scenario", "insulin", "--mode", "open_loop"],
        # no output row: a y column of None
        "souza": ["--scenario", "souza"],
        # m = 2 in closed loop, with preview
        "two-input --N 2": ["--scenario", "{two-input}", "--mode", "mri", "--N", "2"],
    }

    @pytest.mark.parametrize("name", list(RUNS))
    def test_csv_and_console_tables_are_the_cells_as_percent_writes_them(self, name, tmp_path, capsys, monkeypatch):
        spec = TestSweepStacks.scenario("two-input", tmp_path)
        argv = ["simulate", *(a.replace("{two-input}", spec) for a in self.RUNS[name])]
        sinks = []
        emit = cli._Sink.emit
        monkeypatch.setattr(cli._Sink, "emit",
                            lambda sink, out_path, fmt: sinks.append(sink) or emit(sink, out_path, fmt))
        calls = count_calls(monkeypatch, "_g_texts")
        out = tmp_path / "t.csv"
        assert cli.main(argv + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert cli.main(argv) == 0
        console = capsys.readouterr().out.splitlines()

        header, columns = sinks[0].tables["trajectory"]
        rows = list(zip(*map(list, columns)))
        csv = out.read_text().splitlines()
        start = csv.index(",".join(header)) + 1
        assert csv[start:] == TestWriter.per_cell(rows, cli.FILE_DIGITS)
        start = console.index("[trajectory]") + 2
        assert console[start - 1] == ",".join(header)
        assert console[start:] == TestWriter.per_cell(rows, cli.CONSOLE_DIGITS)
        # one kernel call per float array column without long runs, in each of the two runs
        kernel_columns = [c for c in columns if isinstance(c, np.ndarray) and c.dtype == float
                          and 2 * cli._run_starts(c).size > c.size]
        assert kernel_columns and calls["_g_texts"] == 2 * len(kernel_columns)

        if name.startswith("two-input"):
            assert header[5:9] == ["uc1", "uc2", "ui1", "ui2"]
            J_cont, J_disc = sinks[0].scalars["J_cont"], sinks[0].scalars["J_disc"]
            assert abs(J_cont - J_disc) <= 1e-6 * J_disc  # the tolerance of acceptance test C6


class TestDisturbanceColumns:
    def test_commands_on_one_disturbance_reject_extra_columns(self, tmp_path, capsys):
        doc = {
            "name": "two_columns", "A": [[0.0, 1.0], [-6.0, 1.0]], "B": [[0.0], [1.0]],
            "Btilde": [[1.0, 0.0], [1.0, 1.0]], "Q": [[1.0, 0.0], [0.0, 0.0]],
            "Rc": [[1.0]], "Ri": [[1.0]], "T": 1.0,
        }
        p = tmp_path / "two.json"
        p.write_text(json.dumps(doc))
        for argv in (["lqr"], ["preview", "--N", "2"], ["sweep", "--T-grid", "1:1:1"],
                     ["simulate", "--steps", "5"]):
            assert cli.main(argv + ["--scenario", str(p)]) == 1, argv
            assert "single disturbance column" in capsys.readouterr().err
        for argv in (["discretize"], ["controllability"]):
            assert cli.main(argv + ["--scenario", str(p), "--out", str(tmp_path / "o.csv")]) == 0

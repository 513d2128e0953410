"""Command-line front end: scenarios, output formats, exit codes."""

import io
import json
from collections import Counter
from itertools import cycle

import numpy as np
import pytest

import mrilqr
from mrilqr import cli, controllability, design, discretize, preview, preview_plan, riccati, simulate

SOUZA_BASE = 2.0 * np.pi / np.sqrt(23.0)


def count_calls(monkeypatch, *names):
    """Count calls to library functions through every module namespace binding them."""
    counts = Counter()
    modules = (mrilqr, cli, controllability, discretize, preview, riccati, simulate)
    for name in names:
        fn = getattr(mrilqr, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for mod in modules:
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counted)
    return counts


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


class TestExitCodes:
    def test_success(self, tmp_path):
        assert cli.main(["discretize", "--scenario", "souza",
                         "--out", str(tmp_path / "o.csv")]) == 0

    def test_input_error_missing_scenario(self, capsys):
        assert cli.main(["discretize", "--scenario", "missing.json"]) == 1
        assert "input error" in capsys.readouterr().err

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
    ], ids=" ".join)
    def test_overflow_on_unstable_plant_exits_two_without_output(self, argv, tmp_path, capsys):
        # e^(AT) of souza (Re(lambda) = 1/2) passes the double range near T = 1420,
        # its Gram integral near T = 710
        out = tmp_path / "o.csv"
        assert cli.main([argv[0], "--scenario", "souza", *argv[1:], "--out", str(out)]) == 2
        assert "numerical failure" in capsys.readouterr().err
        assert not out.exists()

    def test_uncontrollable_scenario_is_input_error(self, tmp_path, capsys):
        doc = {
            "name": "uncontrollable", "A": [[1.0, 0.0], [0.0, 2.0]],
            "B": [[0.0], [0.0]], "Q": [[1.0, 0.0], [0.0, 1.0]],
            "Rc": [[1.0]], "Ri": [[1.0]], "T": 1.0,
        }
        p = tmp_path / "u.json"
        p.write_text(json.dumps(doc))
        assert cli.main(["controllability", "--scenario", str(p)]) == 1


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

    def test_cell_text(self):
        for v in self.FLOATS:
            for digits in (cli.CONSOLE_DIGITS, cli.FILE_DIGITS):
                assert cli._cell(v, digits) == format(float(v), f".{digits}g")
        for v in self.INTS:
            assert cli._cell(v, 17) == str(int(v))
        assert [cli._cell(v, 17) for v in (True, np.bool_(False), None, "mri")] == \
            ["true", "false", "", "mri"]

    @pytest.mark.parametrize("digits", [cli.CONSOLE_DIGITS, cli.FILE_DIGITS])
    def test_numeric_table_renders_through_one_row_format(self, digits):
        rows = [[f, i, -f] for f, i in zip(self.FLOATS, cycle(self.INTS))]
        fmt = cli._row_format(rows, 3, digits)
        assert fmt == f"%.{digits}g,%d,%.{digits}g"
        assert [fmt % tuple(row) for row in rows] == self.per_cell(rows, digits)

    @pytest.mark.parametrize("column", [
        [1.0, 2], [np.int64(1), 2.5], [True, 1.5], [np.bool_(False), 0], [True, False],
        ["a", 1.0], ["a", "b"], [None, 1.0], [None, None]])
    def test_mixed_or_non_numeric_columns_render_cell_by_cell(self, column):
        rows = [[v, 0.5, 3] for v in column]
        assert cli._row_format(rows, 3, cli.FILE_DIGITS) is None
        sink = cli._Sink()
        sink.table("t", ["a", "b", "c"], rows)
        assert sink.to_csv() == "a,b,c\n" + "".join(
            line + "\n" for line in self.per_cell(rows, cli.FILE_DIGITS))

    def test_ragged_rows_render_cell_by_cell(self):
        rows = [[1.0, 2.0], [3.0]]
        assert cli._row_format(rows, 2, cli.FILE_DIGITS) is None
        sink = cli._Sink()
        sink.table("t", ["a", "b"], rows)
        assert sink.to_csv() == "a,b\n1,2\n3\n"

    def test_every_writer_uses_one_type_rule(self):
        numeric = [[f, i] for f, i in zip(self.FLOATS, cycle(self.INTS))]
        mixed = [[-0.0, 1e-300, 3, True, "mri", None], [2.5, np.float64(7.0), np.int64(4),
                                                         np.bool_(False), "regular", None]]
        sink = cli._Sink()
        sink.scalar("flag", np.bool_(True))
        sink.scalar("count", np.int64(5))
        sink.table("numeric", ["f", "i"], numeric)
        sink.table("mixed", list("abcdef"), mixed)

        csv = sink.to_csv().split("\n\n")
        assert csv[1].splitlines()[1:] == self.per_cell(numeric, cli.FILE_DIGITS)
        assert csv[2].splitlines()[1:] == self.per_cell(mixed, cli.FILE_DIGITS)

        out = io.StringIO()
        sink.to_console(out)
        console = out.getvalue().splitlines()
        assert console[:2] == ["flag = true", "count = 5"]
        start = console.index("[numeric]") + 2
        assert console[start:start + len(numeric)] == self.per_cell(numeric, cli.CONSOLE_DIGITS)
        assert console[-2:] == self.per_cell(mixed, cli.CONSOLE_DIGITS)

        doc = json.loads(sink.to_json())
        assert doc["flag"] is True and doc["count"] == 5
        assert [type(r["i"]) for r in doc["numeric"]] == [int] * len(numeric)
        assert doc["mixed"][0] == {"a": -0.0, "b": 1e-300, "c": 3, "d": True, "e": "mri", "f": None}
        assert doc["mixed"][1] == {"a": 2.5, "b": 7.0, "c": 4, "d": False, "e": "regular", "f": None}


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
            steps=steps, substeps=sc.substeps,
            impulse_mode="exact" if eps is None else "approx", epsilon=eps)

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
        counts = count_calls(monkeypatch, "solve_dare", "sample_plant", "cost_matrices")
        periods = 4
        assert cli.main(["sweep", "--scenario", "souza", "--T-grid", "0.5:0.5:2.0",
                         "--mode", "all", "--N", "0,1,3", "--out", str(tmp_path / "s.csv")]) == 0
        assert counts == {"solve_dare": 3 * periods, "sample_plant": periods,
                          "cost_matrices": periods}

    def test_simulate_with_preview_solves_once(self, tmp_path, monkeypatch):
        counts = count_calls(monkeypatch, "solve_dare")
        assert cli.main(["simulate", "--scenario", "insulin", "--N", "2",
                         "--out", str(tmp_path / "t.csv")]) == 0
        assert counts["solve_dare"] == 1

    def test_controllability_samples_once_per_candidate(self, tmp_path, monkeypatch):
        counts = count_calls(monkeypatch, "sample_plant", "kalman_controllable")
        souza = cli.load_scenario("souza")
        candidates = len(controllability.candidate_pathological_periods(souza.A, 5.0))
        assert candidates > 0
        assert cli.main(["controllability", "--scenario", "souza", "--T-max", "5",
                         "--out", str(tmp_path / "c.csv")]) == 0
        # one sampled model per candidate and one at the scenario period; the
        # continuous pair is checked once, each candidate's hold and impulse pairs once
        assert counts == {"sample_plant": candidates + 1,
                          "kalman_controllable": 1 + 2 * candidates}


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

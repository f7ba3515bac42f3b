import csv
import hashlib
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from knotopt import (Curve, KnotVector, ObjectiveKind, emit_plot_data,
                     error_concave,
                     error_general, harness, hessian_phi, load_catalog,
                     run_catalog, run_experiment, solve)
from knotopt.cli import main

HEADER = "name,type,v1,v2,s,d1,d2,concave,a,b\n"
OK_ROW = "ok,Logistic,0,1,1,-1,0,Y,0,2\n"
# the Weibull formula takes (x - 1) ** 1.5, undefined below x = 1
BADW_ROW = "badw,Weibull,0,1,1.5,1,-1,N,0,2\n"


class TestRunCatalog:
    def test_row_structure(self):
        rows = run_catalog(curves=["logistic1a", "arctan1b"], knot_counts=(4,))
        assert [row.curve_name for row in rows] == ["logistic1a", "arctan1b"]
        for row in rows:
            assert row.status == "ok"
            assert row.measure == "auto"
            assert row.spg_error <= row.orig_error
            assert 0.0 <= row.reduction_pct <= 100.0
            assert row.final_knots.shape == (6,)
            assert np.all(np.diff(row.final_knots) >= 0.0)

    def test_reference_baseline_spot_check(self):
        rows = run_catalog(curves=["logistic3a"], knot_counts=(8,))
        assert rows[0].orig_error == pytest.approx(5.594112e-08, rel=1e-3)

    def test_logistic1a_optimised_error_bound(self):
        # reference experiments reach 2.93e-08 here; stay comfortably below
        # the reference baseline-improvement bound
        rows = run_catalog(curves=["logistic1a"], knot_counts=(4,))
        assert rows[0].spg_error <= 6.2e-08

    def test_unknown_curve_fails_before_writing(self, tmp_path):
        out = tmp_path / "results.csv"
        with pytest.raises(KeyError):
            run_catalog(curves=["nope"], out_path=out)
        assert not out.exists()

    def test_deterministic_output(self, tmp_path):
        texts = []
        for i in range(2):
            out = tmp_path / f"run{i}.csv"
            run_catalog(curves=["logistic1a", "weibull2a"], knot_counts=(4,),
                        out_path=out)
            texts.append(out.read_bytes())
        assert hashlib.sha256(texts[0]).hexdigest() \
            == hashlib.sha256(texts[1]).hexdigest()

    def test_cell_result_does_not_depend_on_the_run(self, catalog_by_name,
                                                    capsys):
        # a cell's solve draws no random numbers, so logistic1b n=8 comes
        # out the same in a larger run, alone, from the CLI and from the
        # library
        in_run = run_catalog(curves=["logistic1a", "logistic1b"],
                             knot_counts=(4, 8))[3]
        alone = run_catalog(curves=["logistic1b"], knot_counts=(8,))[0]
        assert main(["solve", "--curves", "logistic1b", "--knots", "8"]) == 0
        cli = json.loads(capsys.readouterr().out)
        entry = catalog_by_name["logistic1b"]
        report = solve(entry.curve, ObjectiveKind.INTERIOR_SQUARED, 8,
                       a=entry.a, b=entry.b)

        assert (in_run.curve_name, in_run.n_knots) == ("logistic1b", 8)
        expected = (in_run.spg_error, in_run.iterations, in_run.termination,
                    in_run.final_knots.tolist())
        assert (alone.spg_error, alone.iterations, alone.termination,
                alone.final_knots.tolist()) == expected
        assert (cli["spg_error"], cli["iterations"], cli["termination"],
                cli["knots"]) == expected
        assert (report.final_error, report.iterations,
                report.termination.value,
                report.final_knots.full().tolist()) == expected

    def test_concave_measure_reports_area_gap(self, catalog_by_name):
        # the area measure improves only a little at its optimum: equal
        # spacing is already close to optimal for this gently curved row
        entry = catalog_by_name["logistic1a"]
        row = run_experiment(entry, 4, "concave")
        start = KnotVector.equally_spaced(entry.a, entry.b, 4)
        assert row.orig_error == pytest.approx(error_concave(entry.curve, start),
                                               rel=1e-12)
        assert row.spg_error <= row.orig_error
        assert 0.0 < row.reduction_pct <= 100.0

    def test_general_measure_reports_squared_gaps(self, catalog_by_name):
        entry = catalog_by_name["logistic1b"]
        row = run_experiment(entry, 4, "general")
        start = KnotVector.equally_spaced(entry.a, entry.b, 4)
        assert row.orig_error == pytest.approx(error_general(entry.curve, start),
                                               rel=1e-12)
        assert row.spg_error <= row.orig_error

    def test_reduction_needs_a_positive_baseline(self, catalog_by_name, capsys):
        # logistic1b is not concave on its interval: its equally spaced area
        # gap at n = 4 is -6.07e-18, of which no reduction is a share
        row = run_experiment(catalog_by_name["logistic1b"], 4, "concave")
        assert row.status == "ok" and row.orig_error < 0.0
        assert math.isnan(row.reduction_pct)
        assert main(["solve", "--curves", "logistic1b", "--measure", "concave"]) == 0
        assert json.loads(capsys.readouterr().out)["reduction_pct"] is None
        # arctan2b's baseline is positive but its optimised area gap is
        # negative, so the difference is no share of an error either
        row = run_experiment(catalog_by_name["arctan2b"], 4, "concave")
        assert row.status == "ok" and row.orig_error > 0.0 > row.spg_error
        assert math.isnan(row.reduction_pct)
        assert main(["solve", "--curves", "arctan2b", "--knots", "4",
                     "--measure", "concave"]) == 0
        assert json.loads(capsys.readouterr().out)["reduction_pct"] is None
        # a concave-flagged row keeps its share of the baseline
        row = run_experiment(catalog_by_name["logistic1a"], 4, "concave")
        assert row.orig_error > 0.0
        assert row.reduction_pct == (row.orig_error - row.spg_error) / row.orig_error * 100.0

    def test_json_output(self, tmp_path):
        out = tmp_path / "rows.json"
        run_catalog(curves=["logistic1a"], knot_counts=(4,), out_path=out,
                    fmt="json")
        [record] = json.loads(out.read_text())
        assert list(record) == [
            "curve_name", "a", "b", "n_knots", "measure", "orig_error",
            "spg_error", "reduction_pct", "iterations", "termination",
            "status", "final_knots"]
        assert record["curve_name"] == "logistic1a"
        assert type(record["n_knots"]) is int and record["n_knots"] == 4
        assert type(record["iterations"]) is int
        assert record["a"] == "0" and record["final_knots"].startswith("0;")

    def test_invalid_measure(self):
        with pytest.raises(ValueError):
            run_catalog(curves=["logistic1a"], measure="bogus")

    def test_invalid_format_fails_before_any_work(self, tmp_path, monkeypatch):
        calls = []

        def counting_run_experiment(*args):
            calls.append(args)
            return run_experiment(*args)

        monkeypatch.setattr(harness, "run_experiment", counting_run_experiment)
        out = tmp_path / "rows.xml"
        with pytest.raises(ValueError, match="format must be csv or json"):
            run_catalog(curves=["logistic1a"], knot_counts=(4,), out_path=out,
                        fmt="xml")
        assert len(calls) == 0
        assert not out.exists()

    def test_missing_output_directory_fails_before_any_work(self, tmp_path,
                                                            monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "run_experiment",
                            lambda *args: calls.append(args))
        out = tmp_path / "missing" / "rows.csv"
        with pytest.raises(FileNotFoundError) as exc:
            run_catalog(curves=["logistic1a"], knot_counts=(4,), out_path=out)
        assert exc.value.filename == str(out)
        assert len(calls) == 0

    def test_undefined_curve_fails_only_its_row(self, tmp_path):
        # the Weibull formula takes (x - 1) ** 1.5, undefined below x = 1
        catalog = tmp_path / "catalog.csv"
        catalog.write_text("name,type,v1,v2,s,d1,d2,concave,a,b\n"
                           "badw,Weibull,0,1,1.5,1,-1,N,0,2\n"
                           "logistic1a,Logistic,0.0,1.0,1.0,-1.0,0.0,Y,0.0,2.0\n")
        out = tmp_path / "rows.csv"
        code = main(["run", "--catalog", str(catalog), "--knots", "4",
                     "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 3    # the error is one line
        with open(out, newline="") as fh:
            bad, good = csv.DictReader(fh)
        assert bad["status"].startswith("error: Weibull formula undefined at x=")
        assert bad["status"].endswith(" of 360 points)")
        assert bad["termination"] == "Failed"
        assert bad["orig_error"] == bad["spg_error"] == "NAN"
        assert good["status"] == "ok"
        assert float(good["spg_error"]) < float(good["orig_error"])


class TestEmitPlotData:
    def read_rows(self, path):
        with open(path, newline="") as fh:
            return list(csv.DictReader(fh))

    def test_row_counts_and_interpolation(self, catalog_by_name, tmp_path):
        entry = catalog_by_name["logistic1a"]
        knots = KnotVector.equally_spaced(entry.a, entry.b, 4)
        out = tmp_path / "plot.csv"
        emit_plot_data(entry.curve, knots, out)
        rows = self.read_rows(out)
        samples = [row for row in rows if row["kind"] == "sample"]
        knot_rows = [row for row in rows if row["kind"] == "knot"]
        assert len(samples) == 500
        assert len(knot_rows) == 6
        for row in knot_rows:
            assert abs(float(row["f"]) - float(row["fhat"])) < 1e-10

    def test_single_secant_when_no_interior_knots(self, catalog_by_name, tmp_path):
        entry = catalog_by_name["logistic1a"]
        knots = KnotVector(entry.a, entry.b, np.empty(0))
        out = tmp_path / "plot.csv"
        emit_plot_data(entry.curve, knots, out)
        rows = self.read_rows(out)
        fa = entry.curve.value(entry.a)
        fb = entry.curve.value(entry.b)
        slope = (fb - fa) / (entry.b - entry.a)
        for row in rows[:100:7]:
            x = float(row["x"])
            assert float(row["fhat"]) == pytest.approx(fa + slope * (x - entry.a),
                                                       abs=1e-10)


class TestCli:
    def test_run_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        code = main(["run", "--curves", "logistic1a", "--knots", "4",
                     "--out", str(out)])
        assert code == 0
        assert out.read_text().splitlines()[0] == (
            "curve_name,a,b,n_knots,measure,orig_error,spg_error,"
            "reduction_pct,iterations,termination,status,final_knots")
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["curve_name"] == "logistic1a"
        assert rows[0]["termination"] in ("Stationary", "NoImprovement", "MaxIter")

    @pytest.mark.parametrize("command", ["run", "solve", "plot-data"])
    @pytest.mark.parametrize("flag", [["--bb", "bb1"], ["--backtrack", "halving"],
                                      ["--seed", "42"]], ids=["bb", "backtrack", "seed"])
    def test_no_solver_flag_is_accepted(self, flag, command, tmp_path, capsys):
        argv = [command, "--curves", "logistic1a", "--out", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exc:
            main(argv + flag)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_run_unknown_curve_exits_with_error(self, tmp_path):
        out = tmp_path / "table.csv"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--curves", "missing", "--out", str(out)])
        assert str(exc.value) == "error: curves not in catalog: missing"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["solve", "--knots", "4"], ["check", "--knots", "0.5"],
        ["plot-data", "--knots", "4"],
    ], ids=["solve", "check", "plot-data"])
    def test_unknown_curve_error_is_the_same_for_every_command(self, argv,
                                                               tmp_path):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--curves", "nope", "--out", str(out)])
        assert str(exc.value) == "error: curves not in catalog: nope"
        assert not out.exists()

    def test_solve_prints_json(self, capsys):
        code = main(["solve", "--curves", "logistic1a", "--knots", "4"])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert list(record) == [
            "curve", "a", "b", "n_knots", "measure", "orig_error", "spg_error",
            "reduction_pct", "iterations", "termination", "status", "knots"]
        assert record["curve"] == "logistic1a"
        assert (record["a"], record["b"]) == (0.0, 2.0)
        assert type(record["n_knots"]) is int and record["n_knots"] == 4
        assert type(record["iterations"]) is int
        assert record["spg_error"] <= record["orig_error"]
        assert len(record["knots"]) == 6

    def test_bom_catalog_loads(self, tmp_path, capsys):
        # Excel's "CSV UTF-8" starts the file with a byte-order mark
        catalog = tmp_path / "catalog.csv"
        catalog.write_bytes(b"\xef\xbb\xbf" + (HEADER + OK_ROW).encode())
        assert [entry.name for entry in load_catalog(catalog)] == ["ok"]
        assert main(["run", "--catalog", str(catalog), "--knots", "4"]) == 0
        [row] = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert (row["curve_name"], row["status"]) == ("ok", "ok")

    @pytest.mark.parametrize("text", ["", HEADER], ids=["empty", "header-only"])
    def test_catalog_without_rows_exits_with_error(self, text, tmp_path):
        catalog = tmp_path / "catalog.csv"
        catalog.write_text(text)
        with pytest.raises(ValueError, match="no curve rows"):
            load_catalog(catalog)
        out = tmp_path / "rows.csv"
        for argv in (["run", "--out", str(out)], ["solve", "--curves", "ok"]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--catalog", str(catalog)])
            assert str(exc.value) == f"error: {catalog}: no curve rows"
        assert not out.exists()

    def test_curve_names_are_stripped(self, capsys):
        argv = ["run", "--knots", "4", "--curves"]
        assert main(argv + ["logistic1a,weibull2a"]) == 0
        plain = capsys.readouterr().out
        assert main(argv + [" logistic1a, weibull2a "]) == 0
        assert capsys.readouterr().out == plain
        assert len(plain.splitlines()) == 3

    @pytest.mark.parametrize("argv", [
        ["run", "--curves", ""], ["run", "--curves", "logistic1a,"],
        ["run", "--curves", "logistic1a, ,weibull2a"], ["solve", "--curves", ""],
    ], ids=["run-empty", "run-trailing-comma", "run-blank", "solve-empty"])
    def test_empty_curve_name_exits_with_error(self, argv, tmp_path,
                                               monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "run_experiment",
                            lambda *args: calls.append(args))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        assert str(exc.value).startswith("error: empty curve name in ")
        assert len(calls) == 0
        assert not out.exists()

    def test_solve_failed_row_is_valid_json(self, tmp_path, capsys):
        catalog = tmp_path / "catalog.csv"
        catalog.write_text("name,type,v1,v2,s,d1,d2,concave,a,b\n"
                           "badw,Weibull,0,1,1.5,1,-1,N,0,2\n")
        code = main(["solve", "--catalog", str(catalog), "--curves", "badw"])
        assert code == 0

        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        record = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert record["status"].startswith("error: ")
        assert record["orig_error"] is None and record["spg_error"] is None

    def test_check_accepts_auto(self, capsys):
        code = main(["check", "--curves", "logistic1a", "--measure", "auto",
                     "--knots", "0.4,0.8,1.2,1.6"])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["stationarity_residual"] > 0.0
        assert record["hessian"] is None

    def test_check_prints_hessian_only_for_area_kind(self, catalog_by_name, capsys):
        entry = catalog_by_name["logistic1a"]
        kv = KnotVector.equally_spaced(entry.a, entry.b, 3)
        positions = ",".join(repr(float(x)) for x in kv.interior)
        for kind in ObjectiveKind:
            assert main(["check", "--curves", "logistic1a", "--measure", kind.value,
                         "--knots", positions]) == 0
            record = json.loads(capsys.readouterr().out)
            if kind is ObjectiveKind.CONCAVE_AREA:
                assert record["hessian"] == hessian_phi(entry.curve, kv).tolist()
            else:
                assert record["hessian"] is None

    def test_check_reports_multipliers(self, capsys):
        code = main(["check", "--curves", "logistic1a",
                     "--knots", "0.4,0.8,1.2,1.6"])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["lambda"] == [0.0] * 5
        assert record["stationarity_residual"] > 0.0

    def test_check_certifies_newtons_knots(self, catalog_by_name, capsys):
        entry = catalog_by_name["logistic1a"]
        knots = solve(entry.curve, ObjectiveKind.CONCAVE_AREA, 4,
                      a=entry.a, b=entry.b).final_knots
        positions = ",".join(repr(float(x)) for x in knots.interior)
        assert main(["check", "--curves", "logistic1a", "--measure", "concave",
                     "--knots", positions]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["stationarity_residual"] < 1e-12
        assert record["prop1"]["holds"] is True
        assert len(record["prop1"]["margins"]) == 3

    def test_check_evaluates_each_derivative_once_at_a_kkt_point(
            self, catalog_by_name, capsys, monkeypatch):
        # the certificate reads the report and matrix that check prints, so
        # kkt_check makes the value call and one deriv1 call, hessian_phi
        # the other deriv1 call and the deriv2 call
        entry = catalog_by_name["logistic1a"]
        knots = solve(entry.curve, ObjectiveKind.CONCAVE_AREA, 4,
                      a=entry.a, b=entry.b).final_knots
        positions = ",".join(repr(float(x)) for x in knots.interior)
        calls = dict.fromkeys(["value", "deriv1", "deriv2"], 0)
        for name in calls:
            def counted(self, x, name=name, method=getattr(Curve, name)):
                calls[name] += 1
                return method(self, x)
            monkeypatch.setattr(Curve, name, counted)
        assert main(["check", "--curves", "logistic1a", "--measure", "concave",
                     "--knots", positions]) == 0
        assert json.loads(capsys.readouterr().out)["prop1"]["holds"] is True
        assert calls == {"value": 1, "deriv1": 2, "deriv2": 1}

    def test_knot_list_may_start_with_a_minus_sign(self, tmp_path, capsys):
        # argparse alone takes "-1,0,1" for a flag and says --knots lacks
        # its argument; it resolves --kno and --k to --knots
        printed = []
        for knots in (["--knots", "-1,0,1"], ["--knots=-1,0,1"], ["--kno", "-1,0,1"]):
            assert main(["check", "--curves", "logistic1b", *knots]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1] == printed[2]
        assert len(json.loads(printed[0])["lambda"]) == 4     # three knots
        written = []
        for knots in (["--knots", "-1,0,1"], ["--knots=-1,0,1"], ["--k", "-1,0,1"]):
            out = tmp_path / f"plot{len(written)}.csv"
            assert main(["plot-data", "--curves", "logistic1b", *knots,
                         "--out", str(out)]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1] == written[2]

    def test_plot_data_with_a_knot_count(self, catalog_by_name, tmp_path, capsys):
        entry = catalog_by_name["logistic1a"]
        out = tmp_path / "plot.csv"
        assert main(["plot-data", "--curves", "logistic1a", "--knots", "4",
                     "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            knot_rows = [row["x"] for row in csv.DictReader(fh)
                         if row["kind"] == "knot"]
        report = solve(entry.curve, ObjectiveKind.INTERIOR_SQUARED, 4,
                       a=entry.a, b=entry.b)
        assert knot_rows == [f"{x:.12g}" for x in report.final_knots.full()]

    def test_plot_data_with_positions(self, tmp_path):
        out = tmp_path / "plot.csv"
        code = main(["plot-data", "--curves", "logistic1a",
                     "--knots", "0.5,1.0,1.5", "--out", str(out)])
        assert code == 0
        assert out.exists()

    @pytest.mark.parametrize("positions", ["0.5,2.5", "-0.1", "nan,0.5",
                                           "0.5,x"])
    def test_check_positions_outside_interval_exit_with_error(self, positions):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--curves", "logistic1a", "--knots", positions])
        assert str(exc.value).startswith("error: ")

    def test_plot_data_failed_solve_exits_with_error(self, tmp_path):
        out = tmp_path / "plot.csv"
        with pytest.raises(SystemExit) as exc:
            main(["plot-data", "--curves", "logistic1a", "--knots", "0",
                  "--out", str(out)])
        assert str(exc.value).startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("counts", ["4,x", "0", "-2", "2.5"])
    def test_bad_knot_counts_exit_with_error(self, counts, tmp_path, capsys):
        out = tmp_path / "table.csv"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--curves", "logistic1a", "--knots", counts,
                  "--out", str(out)])
        assert exc.value.code == 2
        assert "error: argument --knots" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, line, reason", [
        (HEADER + OK_ROW + "foo,Foo,0,1,1,1,0,Y,0,1\n", 3,
         "'Foo' is not a valid CurveFamily"),
        (HEADER + OK_ROW + "foo,Logistic,0,x,1,1,0,Y,0,1\n", 3,
         "could not convert string to float: 'x'"),
        (HEADER + OK_ROW + "foo,Logistic,0,1,1,1,0,Y,1,1\n", 3,
         "needs a < b"),
        (HEADER + OK_ROW + "foo,Logistic,0,1,1,1,0,Y,0\n", 3,
         "9 fields for 10 columns"),
        (HEADER.replace("type,", "") + OK_ROW.replace("Logistic,", ""), 2,
         "no column 'type'"),
        (None, None, "No such file"),
        (HEADER + OK_ROW + "foo,Logistic,0,1,1,1,0,Y,0,inf\n", 3,
         "needs finite a and b"),
        (HEADER + OK_ROW + "foo,Logistic,0,1,1,1,0,maybe,0,1\n", 3,
         "concave must be Y or N, got 'maybe'"),
        (HEADER + OK_ROW + "infv2,Logistic,0,inf,1,-1,0,Y,0,2\n", 3,
         "parameter v2 must be finite, got inf"),
        (HEADER + OK_ROW + "nans,Logistic,0,1,nan,-1,0,Y,0,2\n", 3,
         "parameter s must be finite, got nan"),
    ], ids=["family", "number", "interval", "short-row", "column", "missing-file",
            "infinite-bound", "concave-flag", "infinite-parameter", "nan-shape"])
    def test_bad_catalog_exits_with_error(self, text, line, reason, tmp_path):
        catalog = tmp_path / "catalog.csv"
        if text is not None:
            catalog.write_text(text)
            with pytest.raises(ValueError) as exc:
                load_catalog(catalog)
            message = str(exc.value)
            row = text.splitlines()[line - 1]
            assert message.startswith(f"{catalog}, line {line}: {row!r}: ")
            assert message.endswith(reason)
        for argv in (["run"], ["solve", "--curves", "ok"]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--catalog", str(catalog)])
            assert str(exc.value).startswith("error: ")
            assert str(catalog) in str(exc.value) and reason in str(exc.value)

    @pytest.mark.parametrize("argv, out", [
        (["check", "--curves", "badw", "--knots", "1.5"], None),
        (["plot-data", "--curves", "badw", "--knots", "1.5"], "plot.csv"),
        (["solve", "--curves", "ok", "--knots", "2"], "missing/out.json"),
        (["check", "--curves", "ok", "--knots", "0.5"], "missing/out.json"),
        (["plot-data", "--curves", "ok", "--knots", "0.5"], "missing/plot.csv"),
        (["solve", "--curves", "ok", "--knots", "2"], "taken"),
        (["run", "--curves", "ok", "--knots", "4"], "missing/rows.csv"),
    ], ids=["check-undefined", "plot-data-undefined", "solve-no-dir",
            "check-no-dir", "plot-data-no-dir", "solve-out-is-a-directory",
            "run-no-dir"])
    def test_uncaught_errors_exit_with_error(self, argv, out, tmp_path):
        catalog = tmp_path / "catalog.csv"
        catalog.write_text(HEADER + OK_ROW + BADW_ROW)
        (tmp_path / "taken").mkdir()
        if out is not None:
            argv = argv + ["--out", str(tmp_path / out)]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--catalog", str(catalog)])
        assert str(exc.value).startswith("error: ")
        assert not list(tmp_path.rglob("*.tmp"))
        if out is not None and (out == "taken" or out.startswith("missing/")):
            assert f"'{tmp_path / out}'" in str(exc.value)
            assert ".tmp" not in str(exc.value)
        if out is not None and out != "taken":
            assert not (tmp_path / out).exists()

    @pytest.mark.parametrize("measure, panels", [("general", 1024), ("auto", 512)])
    def test_gap_kernel_failure_exits_with_error(self, measure, panels):
        # arctan2b's f'' is zero at x = -1, where a 2e-7 wide segment defeats
        # the kernel's bisection
        argv = ["check", "--curves", "arctan2b",
                "--knots=-1.0000001,-0.9999999,0.5", "--measure", measure]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert str(exc.value) == (
            f"error: bisection would need over {panels} live panels")

    def test_unreadable_csv_exits_with_error(self, tmp_path):
        catalog = tmp_path / "catalog.csv"
        for body, reason, where in [
            # a field over the csv module's limit makes its reader raise
            (f'"{"x" * 200_000}",Logistic,0,1,1,-1,0,Y,0,2\n'.encode(),
             "field larger than field limit", ", line 2: "),
            # the text layer decodes ahead of the reader, so no line is named
            (b"ok,Logistic,0,1,1,-1,0,Y,0,2\nbad\xff,Logistic,0,1,1,-1,0,Y,0,2\n",
             "'utf-8' codec can't decode byte 0xff", ": "),
        ]:
            catalog.write_bytes(HEADER.encode() + body)
            with pytest.raises(ValueError, match=reason):
                load_catalog(catalog)
            with pytest.raises(SystemExit) as exc:
                main(["run", "--catalog", str(catalog)])
            assert str(exc.value).startswith(f"error: {catalog}{where}")
            assert reason in str(exc.value)

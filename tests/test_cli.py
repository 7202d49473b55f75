import contextlib
import io
import json
import logging
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import prodsurf
from prodsurf.cli import main

PI4 = repr(math.pi / 4)


def run(args):
    return main(args)


class TestCatalogCommand:
    def test_text_listing(self, capsys):
        assert run(["catalog"]) == 0
        out = capsys.readouterr().out
        for sid in ["slice", "vertical_geodesic_cylinder", "circle_cylinder",
                    "cor32_flat_minimal", "perturbed_control"]:
            assert sid in out

    def test_json_listing(self, capsys):
        assert run(["catalog", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert isinstance(doc, list) and len(doc) >= 5
        assert all(e["expected"] for e in doc)

    def test_single_entry(self, capsys):
        assert run(["catalog", "--id", "cor32_flat_minimal"]) == 0
        out = capsys.readouterr().out
        assert "theta" in out and "kappa" in out
        assert "slice" not in out

    def test_unknown_entry(self, capsys):
        assert run(["catalog", "--id", "moebius"]) == 2


class TestVerifyCommand:
    def test_circle_cylinder_passes(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(["verify", "--surface", "circle_cylinder",
                    "--param", "kappa=1", "--param", f"r={PI4}",
                    "--grid", "9x9", "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["surface"]["id"] == "circle_cylinder"
        assert set(doc) == {"surface", "grid", "results", "verdicts", "version"}
        assert doc["verdicts"] == []
        assert all(r["passed"] for r in doc["results"])
        assert all(r["max_abs"] <= r["tolerance"] for r in doc["results"])

    def test_perturbed_control_fails(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(["verify", "--surface", "perturbed_control",
                    "--param", "kappa=1", "--param", f"r={PI4}",
                    "--grid", "9x9", "--output", str(out)])
        assert code == 1
        by_id = {r["identity_id"]: r for r in json.loads(out.read_text())["results"]}
        assert not by_id["pmc"]["passed"]
        assert not by_id["codazzi_pmc"]["passed"]
        assert by_id["ambient_codazzi"]["passed"]
        assert by_id["gauss_equation"]["passed"]

    def test_nearly_singular_operator_keeps_metric_change(self, tmp_path):
        # det S is about -2.5e-5 here, so the changed metric <S., S.> has
        # det about 6e-8, whose square the Brioschi formula divides by
        out = tmp_path / "report.json"
        code = run(["verify", "--surface", "circle_cylinder", "--param", "kappa=-1",
                    "--param", "r=3", "--grid", "9x9", "--output", str(out)])
        assert code == 0
        by_id = {r["identity_id"]: r for r in json.loads(out.read_text())["results"]}
        assert by_id["metric_change"]["passed"]

    def test_degenerate_metric_names_plain_floats(self, capsys):
        # the kappa=1, r=0.5 cylinder scaled by 1/1000: det g falls below 1e-6
        assert run(["verify", "--surface", "circle_cylinder", "--param", "kappa=1e6",
                    "--param", "r=5e-4", "--grid", "9x9"]) == 3
        err = capsys.readouterr().err
        assert "det g = 2.2984884706593017e-07 at (0.12566370614359174, -0.96)" in err
        assert "np.float64(" not in err

    def test_minimal_surface_switches_suite(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(["verify", "--surface", "slice", "--param", "kappa=-1",
                    "--grid", "7x7", "--output", str(out)])
        assert code == 0
        ids = [r["identity_id"] for r in json.loads(out.read_text())["results"]]
        assert "codazzi_angle" in ids
        assert "codazzi_pmc" not in ids
        assert "curvature_formula" not in ids

    def test_csv_format(self, tmp_path):
        out = tmp_path / "report.csv"
        code = run(["verify", "--surface", "slice", "--param", "kappa=1",
                    "--grid", "7x7", "--format", "csv", "--output", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "identity_id,max_abs,mean_abs,argmax_u,argmax_v,tolerance,passed"
        assert len(lines) > 5

    def test_tolerance_override_forces_failure(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(["verify", "--surface", "slice", "--param", "kappa=1",
                    "--grid", "7x7", "--tol", "pmc=1e-40", "--output", str(out)])
        assert code == 1

    def test_deterministic_reports(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run(["verify", "--surface", "circle_cylinder",
                        "--param", "kappa=-1", "--param", "r=0.3",
                        "--grid", "7x7", "--output", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_successive_calls_match_fresh_processes(self, capsys):
        """The one parser starts every repeatable flag empty on each call."""
        calls = [
            ["verify", "--surface", "circle_cylinder", "--param", "kappa=1",
             "--param", f"r={PI4}", "--param", "warp=0.2", "--grid", "7x7",
             "--format", "csv", "--tol", "pmc=1e-40"],
            ["verify", "--surface", "circle_cylinder", "--param", "kappa=-1",
             "--param", "r=0.5", "--grid", "7x7", "--format", "csv"],
        ]
        in_process = []
        for argv in calls:
            code = run(argv)
            in_process.append((code, capsys.readouterr().out))
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(prodsurf.__file__)))
        fresh = [subprocess.run([sys.executable, "-m", "prodsurf.cli", *argv],
                                capture_output=True, text=True, env=env, check=False)
                 for argv in calls]
        assert in_process == [(p.returncode, p.stdout) for p in fresh]
        assert [code for code, _ in in_process] == [1, 0]

    @pytest.mark.parametrize("args", [
        ["verify", "--surface", "nope", "--param", "kappa=1"],
        ["verify", "--surface", "slice", "--param", "kappa=1", "--grid", "3x3"],
        ["verify", "--surface", "slice", "--param", "kappa=1", "--margin", "0.7"],
        ["verify", "--surface", "slice", "--param", "kappa"],
        ["verify", "--surface", "slice", "--param", "kappa=1", "--tol", "bogus=1"],
        ["verify", "--surface", "circle_cylinder", "--param", "kappa=1",
         "--param", "r=9"],
    ])
    def test_bad_arguments(self, args, capsys):
        assert run(args) == 2

    @pytest.mark.parametrize("surface_args,expected_code", [
        (["--surface", "vertical_geodesic_cylinder", "--param", "kappa=1"], 0),
        (["--surface", "vertical_geodesic_cylinder", "--param", "kappa=-1"], 0),
        (["--surface", "cor32_flat_minimal", "--param", "kappa=1",
          "--param", "theta=0.5"], 0),
        (["--surface", "circle_cylinder", "--param", "kappa=1", "--param", "r=0.6",
          "--param", "pad=2"], 0),
        (["--surface", "circle_cylinder", "--param", "kappa=1", "--param", f"r={PI4}",
          "--param", "warp=0.3"], 0),
        (["--surface", "perturbed_control", "--param", "kappa=-1",
          "--param", "r=0.4"], 1),
    ])
    def test_whole_catalog_exit_codes(self, surface_args, expected_code, tmp_path):
        out = tmp_path / "r.json"
        code = run(["verify", *surface_args, "--grid", "7x7", "--output", str(out)])
        assert code == expected_code

    @pytest.mark.parametrize("flag,item", [
        ("--param", "kappa=nan"),
        ("--param", "kappa=inf"),
        ("--param", "r=-inf"),
        ("--tol", "pmc=nan"),
        ("--tol", "pmc=inf"),
    ])
    def test_non_finite_values_rejected(self, flag, item, capsys):
        args = ["verify", "--surface", "circle_cylinder", "--param", "kappa=1",
                "--param", f"r={PI4}", "--grid", "5x5", flag, item]
        assert run(args) == 2
        err = capsys.readouterr().err
        assert flag in err and item in err and "finite" in err

    def test_numerical_failure_exits_three(self, monkeypatch, capsys):
        from prodsurf import identities
        from prodsurf.geometry import DegenerateMetricError

        def boom(*args, **kwargs):
            raise DegenerateMetricError("det g = 0")

        monkeypatch.setattr(identities, "run_suite", boom)
        assert run(["verify", "--surface", "slice", "--param", "kappa=1",
                    "--grid", "7x7"]) == 3

    def test_constraint_violation_exits_three(self, capsys):
        """ConstraintError is a ValueError, yet it is a numerical error, not a usage one."""
        assert run(["verify", "--surface", "circle_cylinder", "--param", "kappa=-1",
                    "--param", "r=40", "--grid", "5x5"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("numerical error: chart point off the model by ")

    def test_each_call_logs_to_its_own_stderr(self, monkeypatch):
        monkeypatch.setattr(logging.getLogger(), "handlers", [])  # as in a fresh process
        argv = ["verify", "--surface", "slice", "--param", "kappa=1", "--grid", "5x5",
                "--output", os.devnull]
        errs = []
        for _ in range(2):
            with contextlib.redirect_stderr(io.StringIO()) as err:
                assert run(argv) == 0
            errs.append(err.getvalue())
        assert errs[0] == errs[1]
        assert errs[0].startswith("WARNING prodsurf: simons_reduced skipped on slice")

    def test_verbose_logs_each_rows_point_counts(self, monkeypatch):
        """--verbose adds one INFO line per report row; without it stderr holds
        only the skip warnings, and stdout is the same either way."""
        monkeypatch.setattr(logging.getLogger(), "handlers", [])  # as in a fresh process
        argv = ["verify", "--surface", "slice", "--param", "kappa=1", "--grid", "5x5"]
        runs = []
        for flags in ([], ["--verbose"]):
            with contextlib.redirect_stdout(io.StringIO()) as out, \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                run(flags + argv)
            runs.append((out.getvalue(), err.getvalue().splitlines()))
        (quiet_out, quiet), (verbose_out, verbose) = runs
        assert quiet_out == verbose_out
        assert quiet and all(line.startswith("WARNING prodsurf: ") for line in quiet)
        assert [line for line in verbose if not line.startswith("INFO ")] == quiet
        info = [line for line in verbose if line.startswith("INFO ")]
        rows = json.loads(verbose_out)["results"]
        assert len(info) == len(rows) > 0
        for line, row in zip(info, rows):
            head, _, counts = line.partition(": evaluated ")
            assert head == f"INFO prodsurf: {row['identity_id']} on slice"
            evaluated, skipped = (int(x) for x in counts.split(" points, skipped "))
            assert evaluated + skipped == 25 and evaluated > 0
            assert (skipped > 0) == any(w.startswith("skipped at") for w in row["warnings"])


class TestFieldCommand:
    def test_curvature_of_flat_minimal_surface(self, tmp_path):
        out = tmp_path / "field.csv"
        code = run(["field", "--surface", "cor32_flat_minimal",
                    "--param", "kappa=1", "--param", f"theta={math.pi / 4!r}",
                    "--quantity", "K", "--grid", "7x7", "--output", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "u,v,value"
        assert len(lines) == 50
        assert all(abs(float(line.split(",")[2])) < 1e-9 for line in lines[1:])

    def test_vertical_angle_on_slice_all_zero(self, tmp_path):
        out = tmp_path / "field.csv"
        assert run(["field", "--surface", "slice", "--param", "kappa=1",
                    "--quantity", "normT", "--grid", "5x5",
                    "--output", str(out)]) == 0
        values = [float(l.split(",")[2]) for l in out.read_text().splitlines()[1:]]
        assert all(abs(v) < 1e-12 for v in values)

    def test_operator_determinant(self, tmp_path):
        out = tmp_path / "field.csv"
        assert run(["field", "--surface", "circle_cylinder",
                    "--param", "kappa=1", "--param", f"r={PI4}",
                    "--quantity", "detS", "--grid", "5x5",
                    "--output", str(out)]) == 0
        values = [float(l.split(",")[2]) for l in out.read_text().splitlines()[1:]]
        assert all(abs(v + 1.0) < 1e-10 for v in values)

    def test_seventeen_digit_format(self, tmp_path):
        out = tmp_path / "field.csv"
        assert run(["field", "--surface", "circle_cylinder",
                    "--param", "kappa=1", "--param", "r=0.6",
                    "--quantity", "detS", "--grid", "5x5",
                    "--output", str(out)]) == 0
        line = out.read_text().splitlines()[1]
        mantissa = line.split(",")[2].lstrip("-").replace(".", "").split("e")[0]
        assert len(mantissa.rstrip("0")) >= 10  # full-precision decimals survive

    def test_operator_norm_needs_tilde_on_minimal(self, tmp_path, capsys):
        args = ["field", "--surface", "cor32_flat_minimal",
                "--param", "kappa=1", "--param", f"theta={math.pi / 3!r}",
                "--quantity", "normS", "--grid", "5x5",
                "--output", str(tmp_path / "f.csv")]
        assert run(args) == 2
        assert run(args + ["--tilde"]) == 0
        values = [float(l.split(",")[2])
                  for l in (tmp_path / "f.csv").read_text().splitlines()[1:]]
        expected = math.sin(math.pi / 3) ** 2 / math.sqrt(2.0)
        assert all(abs(v - expected) < 1e-10 for v in values)

    def test_residual_of_a_verify_row(self, tmp_path):
        args = ["--surface", "perturbed_control", "--param", "kappa=1",
                "--param", f"r={PI4}", "--grid", "5x5"]
        out = tmp_path / "f.csv"
        assert run(["field", "--quantity", "residual:codazzi_pmc", "--output", str(out)]
                   + args) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "u,v,value" and len(lines) == 26
        values = [float(line.split(",")[2]) for line in lines[1:]]
        report = tmp_path / "r.json"
        assert run(["verify", "--output", str(report)] + args) == 1
        row = {r["identity_id"]: r for r in json.loads(report.read_text())["results"]}
        assert max(values) == row["codazzi_pmc"]["max_abs"] > 1e-4

    def test_residual_leaves_out_skipped_points(self, tmp_path, monkeypatch):
        from prodsurf import codazzi

        def half_skipped(gp, s):
            return np.ma.masked_array(np.zeros(len(gp.u)), np.arange(len(gp.u)) % 2 == 1)

        monkeypatch.setattr(codazzi, "simons_log_residual", half_skipped)
        out = tmp_path / "f.csv"
        assert run(["field", "--surface", "circle_cylinder", "--param", "kappa=1",
                    "--param", f"r={PI4}", "--quantity", "residual:simons_log",
                    "--grid", "5x5", "--output", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 13

    @pytest.mark.parametrize("quantity", ["residual:simons_log", "detS"])
    def test_rows_match_per_row_formatting(self, quantity, tmp_path, monkeypatch):
        """Each kept row is "%.17g,%.17g,%.17g" of its point and value, NaN and -0.0
        included, on a grid with nu != nv."""
        from types import SimpleNamespace

        from prodsurf import catalog, codazzi
        from prodsurf.geometry import grid_points

        values = np.tile([0.1, -0.0, np.nan, 1e300, -2.5e-310], 7)
        skip = np.arange(35) % 3 == 1
        monkeypatch.setattr(codazzi, "simons_log_residual",
                            lambda gp, s: np.ma.masked_array(values, skip))
        monkeypatch.setattr(codazzi, "det_jet", lambda s: SimpleNamespace(value=values))
        out = tmp_path / "f.csv"
        assert run(["field", "--surface", "circle_cylinder", "--param", "kappa=1",
                    "--param", f"r={PI4}", "--quantity", quantity, "--grid", "5x7",
                    "--output", str(out)]) == 0
        pts = grid_points(catalog.instantiate("circle_cylinder", {"kappa": 1.0, "r": math.pi / 4}),
                          5, 7)
        if quantity == "detS":
            rows = zip(pts, values)
        else:
            rows = ((p, abs(x)) for p, x, s in zip(pts, values, skip) if not s)
        want = ["u,v,value"] + ["%.17g,%.17g,%.17g" % (u, v, x) for (u, v), x in rows]
        assert out.read_text() == "\n".join(want) + "\n"
        assert (",-0\n" if quantity == "detS" else ",nan\n") in out.read_text()

    @pytest.mark.parametrize("identity_id", ["simons_log", "codazzi_pmc", "nope"])
    def test_residual_not_available_exits_two(self, identity_id, capsys):
        # all points skipped on the slice, the other minimality class, unknown
        assert run(["field", "--surface", "slice", "--param", "kappa=1",
                    "--quantity", f"residual:{identity_id}", "--grid", "5x5"]) == 2
        assert repr(identity_id) in capsys.readouterr().err

    def test_unknown_quantity_exits_two(self, capsys):
        assert run(["field", "--surface", "slice", "--param", "kappa=1",
                    "--quantity", "bogus", "--grid", "5x5"]) == 2

    def test_mu_integrand_rejected_on_minimal(self, tmp_path):
        assert run(["field", "--surface", "cor32_flat_minimal",
                    "--param", "kappa=1", "--param", f"theta={math.pi / 3!r}",
                    "--quantity", "mu_integrand", "--grid", "5x5",
                    "--output", str(tmp_path / "f.csv")]) == 2


class TestHypothesisCommand:
    @pytest.mark.parametrize("flag", ["--eps", "--c"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_thresholds_rejected(self, flag, value, capsys):
        # -inf made normT_above_eps hold vacuously, and a non-finite margin is not JSON
        code = run(["hypothesis", "--theorem", "cor", "--surface", "vertical_geodesic_cylinder",
                    "--param", "kappa=-1", "--grid", "9x9", f"{flag}={value}"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert flag in err and "finite" in err

    def test_flatness_checker_consistent(self, tmp_path):
        out = tmp_path / "verdict.json"
        code = run(["hypothesis", "--theorem", "3.1", "--surface", "circle_cylinder",
                    "--param", "kappa=-1", "--param", "r=0.3",
                    "--eps", "1.0", "--grid", "9x9", "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        verdict = doc["verdicts"][0]
        assert verdict["applicable"] is True
        assert verdict["status"] == "consistent"

    def test_angle_checker_consistent(self, tmp_path):
        out = tmp_path / "verdict.json"
        code = run(["hypothesis", "--theorem", "cor", "--surface", "cor32_flat_minimal",
                    "--param", "kappa=1", "--param", "theta=1.0471975511965976",
                    "--eps", "0.5", "--grid", "9x9", "--output", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["verdicts"][0]["status"] == "consistent"

    def test_minimal_surface_rejected_by_flatness_checker(self, capsys):
        assert run(["hypothesis", "--theorem", "3.1", "--surface", "slice",
                    "--param", "kappa=1", "--grid", "7x7"]) == 2

    def test_unknown_theorem_rejected(self, capsys):
        assert run(["hypothesis", "--theorem", "7.7", "--surface", "slice",
                    "--param", "kappa=1"]) == 2

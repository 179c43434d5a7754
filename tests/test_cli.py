"""End-to-end CLI contract: exit codes, formats, determinism."""

import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys

import pytest

import gamma_envelope
from gamma_envelope import analysis, bounds, cli, proofaudit, refcore


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSubcommands:
    def test_audit_markdown(self, capsys):
        code, out, _ = run(["audit", "--grid", "500", "--format", "markdown"], capsys)
        assert code == 0
        assert "| q1_strictly_decreasing |" in out
        assert "| pass |" in out

    def test_audit_markdown_table(self, capsys):
        code, out, _ = run(
            ["audit", "--grid", "200", "--format", "markdown"], capsys
        )
        assert code == 0
        claims = proofaudit.audit_proof(grid_n=200)
        assert out.count("\n") == len(claims) + 2
        assert out.startswith(
            "| claim | kind | expected | measured | verdict | witness |\n"
            "|---|---|---|---|---|---|\n"
        )
        assert "| q1_strictly_decreasing |" in out

    def test_bounds_triple(self, capsys):
        code, out, _ = run(
            ["bounds", "--family", "qi_guo", "--x", "0.5"], capsys
        )
        assert code == 0
        header, row = out.strip().split("\n")
        cells = dict(zip(header.split(","), row.split(",")))
        assert float(cells["lower"]) == pytest.approx(0.857131, abs=1e-6)
        assert float(cells["upper"]) == pytest.approx(0.900109, abs=1e-6)
        assert float(cells["true_gamma"]) == pytest.approx(0.886227, abs=1e-6)

    def test_bounds_true_gamma_at_half_within_an_ulp(self, capsys):
        # Gamma(3/2) = sqrt(pi)/2; ln Gamma(1.5) is summed with no shift
        code, out, _ = run(
            ["bounds", "--family", "qi_guo", "--x", "0.5", "--format", "json"],
            capsys,
        )
        assert code == 0
        true_gamma = json.loads(out)[0]["true_gamma"]
        exact = 0.886226925452758014
        assert abs(true_gamma - exact) <= math.ulp(exact)

    def test_lemma2_five_rows(self, capsys):
        code, out, _ = run(["lemma2", "--grid", "500"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 6  # header + h1, h3, h4, h5, h2
        assert sum("certified" in ln for ln in lines) == 4
        assert sum("consistent" in ln for ln in lines) == 1

    def test_lemma2_json_payload(self, capsys):
        code, out, _ = run(
            ["lemma2", "--grid", "500", "--format", "json"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc["certificates"]) == {"h1", "h3", "h4", "h5"}
        assert doc["h2_grid_check"]["verdict"] == "consistent"
        assert doc["h2_grid_check"]["value_at_0"] == pytest.approx(
            1.0, abs=1e-12
        )

    def test_compare(self, capsys):
        code, out, _ = run(["compare", "--grid", "500"], capsys)
        assert code == 0
        assert "flagged" in out

    def test_monotone(self, capsys):
        code, out, _ = run(
            ["monotone", "--function", "ratio_R", "--grid", "2000"], capsys
        )
        assert code == 0
        assert "consistent" in out

    def test_monotone_wrong_direction_exits_1(self, capsys):
        code, out, _ = run(
            [
                "monotone", "--function", "ratio_R",
                "--direction", "decreasing", "--grid", "500",
            ],
            capsys,
        )
        assert code == 1
        assert "violated" in out

    def test_conjecture_cm(self, capsys):
        code, out, _ = run(
            ["conjecture", "cm", "--interval", "0.1", "10", "--step", "0.05"],
            capsys,
        )
        assert code == 0
        assert "cm_h" in out

    def test_conjecture_ratio_global(self, capsys):
        code, out, _ = run(
            ["conjecture", "ratio-global", "--grid", "500"], capsys
        )
        assert code == 0
        assert out == ("probe,interval,violations,verdict\n"
                       'ratio_global_increasing,"(0,50)",0,consistent\n')

    @pytest.mark.parametrize("which, a, rows", [
        ("ratio-global", "0", 1), ("tau", "1", 4),
    ])
    def test_conjecture_up_to_1e300(self, which, a, rows, capsys):
        # past x ~ 1.34e154 x(x-1) overflows; the ratios must not drop to 0
        code, out, _ = run(["conjecture", which, "--interval", a, "1e300"],
                           capsys)
        assert code == 0
        lines = out.splitlines()[1:]
        assert len(lines) == rows
        assert all(line.endswith(",0,consistent") for line in lines)

    def test_rows_as_json(self, capsys):
        # one object per row, keyed by the header, keys sorted
        code, out, _ = run(
            ["monotone", "--grid", "500", "--format", "json"], capsys
        )
        assert code == 0
        (row,) = json.loads(out)
        assert list(row) == sorted(row)
        assert {k: row[k] for k in ("function", "a", "b", "direction",
                                    "grid_n", "violations", "verdict")} == {
            "function": "ratio_R", "a": 0.0, "b": 1.0,
            "direction": "increasing", "grid_n": 500, "violations": 0,
            "verdict": "consistent",
        }
        assert row["min_abs_diff"] > 0.0

    def test_audit_json_rows_carry_every_field(self, capsys):
        # one object per claim with all of its fields, the interval too
        code, out, _ = run(["audit", "--grid", "200", "--format", "json"],
                           capsys)
        assert code == 0
        claims = proofaudit.audit_proof(grid_n=200)
        assert json.loads(out) == json.loads(json.dumps(
            [dataclasses.asdict(c) for c in claims]))

    def test_conjecture_tau(self, capsys):
        code, out, _ = run(
            ["conjecture", "tau", "--grid", "500"], capsys
        )
        assert code == 0
        assert out.count("consistent") == 4

    def test_openproblem_lambda(self, capsys):
        code, out, _ = run(
            ["openproblem-lambda", "--grid", "1000"], capsys
        )
        assert code == 0
        assert "lambda_inc_max_estimate" in out
        assert "open question" in out

    def test_polygamma_check(self, capsys):
        code, out, _ = run(["polygamma-check", "--grid", "200"], capsys)
        assert code == 0
        assert out.count("pass") == 3


class TestExitCodes:
    def test_usage_error_unknown_command(self, capsys):
        assert cli.main(["frobnicate"]) == 2

    def test_usage_error_missing_x(self, capsys):
        code, _, err = run(["bounds", "--family", "ivady"], capsys)
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("argv", [
        ["bounds", "--x", "0.5"],
        ["compare"],
        ["audit"],
        ["lemma2"],
        ["openproblem-lambda"],
        ["polygamma-check"],
    ])
    def test_interval_rejected_where_unused(self, argv, capsys):
        code, _, err = run(argv + ["--interval", "0.2", "0.8"], capsys)
        assert code == 2
        assert "--interval" in err

    @pytest.mark.parametrize("grid", ["0", "1"])
    @pytest.mark.parametrize("argv", [
        ["bounds", "--x", "0.5"],
        ["compare"],
        ["audit"],
        ["lemma2"],
        ["monotone"],
        ["conjecture", "cm"],
        ["conjecture", "ratio-global"],
        ["conjecture", "tau"],
        ["openproblem-lambda"],
        ["polygamma-check"],
    ])
    def test_grid_below_two_rejected(self, argv, grid, capsys):
        code, out, err = run(argv + ["--grid", grid], capsys)
        assert code == 2
        assert out == ""
        assert "--grid" in err

    @pytest.mark.parametrize("command, floor", [
        ("compare", 500), ("lemma2", 100), ("openproblem-lambda", 1000),
    ])
    def test_grid_floor_in_help(self, command, floor, capsys):
        code, out, _ = run([command, "--help"], capsys)
        assert code == 0
        assert "a smaller N is raised to %d" % floor in " ".join(out.split())

    def test_bounds_accepts_grid(self, capsys):
        code, _, _ = run(["bounds", "--x", "0.5", "--grid", "200"], capsys)
        assert code == 0

    @pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
    def test_non_finite_x_exits_2(self, x, capsys):
        code, out, err = run(
            ["bounds", "--family", "qi_guo_extended", "--x=" + x], capsys
        )
        assert code == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("family, x", [
        ("batir_12", "1e306"),  # past lnGamma(x+1)'s own overflow
        ("qi_guo_zhang", "5e-309"),
        ("alzer_batir", "1e-320"),
    ])
    def test_log_bounds_beyond_double_range_exit_2(self, family, x, capsys):
        # an infinite log side is no bound, not a violation
        code, out, err = run(["bounds", "--family", family, "--x", x], capsys)
        assert code == 2
        assert out == ""
        assert "outside double range" in err

    @pytest.mark.parametrize("family, x", [
        ("qi_guo_extended", "200.5"),  # 200 is an equality point
        ("alzer_power", "200"),
        ("alzer_batir", "200"),
        ("batir_12", "200"),
        ("batir_14", "200"),
        ("batir_15", "200"),
        ("unitball", "200"),
    ])
    def test_bounds_beyond_gamma_range(self, family, x, capsys):
        # Gamma(200) overflows a double; the verdict is taken in logs and
        # true_gamma saturates to inf, like the bound columns
        code, out, _ = run(["bounds", "--family", family, "--x", x], capsys)
        assert code == 0
        header, row = out.strip().split("\n")
        assert dict(zip(header.split(","), row.split(",")))[
            "true_gamma"
        ] == "inf"

    @pytest.mark.parametrize("family, x, code", [
        # ln Gamma(x+1) keeps its digits near x = 0, so the true margins
        # (+4.3e-16 and +6.8e-18 in log) resolve
        ("qi_guo", "1e-7", 0),
        ("batir_14", "1e-8", 0),
        # the margin is below one ulp of ln Gamma(1001): it needs an
        # unresolved verdict, not a kernel
        ("batir_12", "1000", 1),
    ])
    def test_bounds_exit_codes_at_the_resolution_limit(self, family, x, code,
                                                       capsys):
        assert run(["bounds", "--family", family, "--x", x],
                   capsys)[0] == code

    def test_extended_bounds_at_huge_x(self, capsys):
        # an integer, so an equality point; summing its 1e300 logs would
        # never end
        code, out, _ = run(
            ["bounds", "--family", "qi_guo_extended", "--x", "1e300"], capsys
        )
        assert code == 0
        assert out.splitlines()[1].startswith("qi_guo_extended,1.0000")

    def test_negative_cm_order_exits_2(self, capsys):
        code, out, err = run(
            ["conjecture", "cm", "--max-order", "-1"], capsys
        )
        assert code == 2
        assert out == ""
        assert "max_order" in err

    @pytest.mark.parametrize("tol", ["0", "nan", "inf"])
    def test_lambda_tol_must_be_positive_and_finite(self, tol, capsys):
        code, out, err = run(
            ["openproblem-lambda", "--lambda-tol", tol], capsys
        )
        assert code == 2
        assert out == ""
        assert "lambda_tol" in err

    def test_out_of_memory_exits_2(self, capsys, monkeypatch):
        # a small --step asks cm_probe for a grid that does not fit in
        # memory; the probe is replaced, so nothing large is allocated
        def no_memory(*args):
            raise MemoryError("Unable to allocate 372. GiB")

        monkeypatch.setattr(analysis, "cm_probe", no_memory)
        code, out, err = run(["conjecture", "cm", "--step", "1e-9"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: Unable to allocate 372. GiB\n"

    def test_unknown_function_exits_2(self, capsys):
        code, _, err = run(["monotone", "--function", "nope"], capsys)
        assert code == 2

    def test_tau_ratio_beyond_double_range_exits_2(self, capsys):
        # at 5e-324 the denominator rounds to -0.0
        code, out, err = run(
            ["monotone", "--function", "tau_ratio:2", "--interval", "5e-324",
             "1e-321", "--grid", "3"], capsys
        )
        assert code == 2
        assert out == ""
        assert "not a finite double" in err

    # Each misuse of the analysis commands, and the one stderr line it
    # exits 2 with; a non-finite interval is named before any grid point
    # is evaluated.
    MISUSES = [
        ("monotone --function nope", "\"unknown function id 'nope'\""),
        ("monotone --function tau_ratio:-1",
         "tau_ratio requires tau > 0, got -1.0"),
        ("monotone --function tau_ratio:abc",
         "could not convert string to float: 'abc'"),
        ("monotone --function lambda_ratio:0",
         "lambda_ratio requires lam > 0, got 0.0"),
        ("monotone --interval 1 0", "need a < b"),
        ("conjecture ratio-global --interval 1 0", "need a < b"),
        ("monotone --function ratio_R --interval -1 1",
         "ratio_R requires x > 0, got -0.999998"),
        ("monotone --function lambda_ratio:2 --interval 0 2",
         "lambda_ratio requires 0 < x < 1, got 1.00010000980098"),
        ("monotone --function tau_ratio:2 --interval -1 1",
         "tau_ratio requires x > 0, got -0.999998"),
        ("monotone --function F_unitball",
         "F_unitball requires x > 1/2, got 1e-06"),
        ("monotone --function F_unitball --interval 0 1",
         "F_unitball requires x > 1/2, got 1e-06"),
        ("monotone --function h_cm --interval -1 1",
         "h_cm requires x > 0, got -0.999998"),
        ("monotone --function q --interval 0 2", "q requires 0 <= x <= 1"),
        ("monotone --function q1 --interval -1 1", "q1 requires 0 <= x <= 1"),
        ("monotone --function q1_prime --interval 0 2",
         "q1_prime requires 0 <= x <= 1"),
        ("monotone --function f_over_g_prime --interval 0 2",
         "f_over_g_prime requires 0 < x < 1"),
        ("monotone --function tau_ratio:2 --interval 5e-324 1e-321 --grid 3",
         "tau_ratio(2.0, 5e-324) is not a finite double"),
        ("monotone --function ratio_R --interval 1e305 1e307",
         "ratio_R(2.564452306930693e+305) is not a finite double"),
        ("conjecture tau --interval -1 1",
         "tau_ratio requires x > 0, got -0.999998"),
        ("conjecture cm --step 0", "step must be positive"),
        ("conjecture cm --interval 0 1", "a must be positive"),
        ("conjecture cm --max-order 9", "max_order must be in 0..8, got 9"),
        ("monotone --function h_cm --interval 0 inf",
         "interval (0.0, inf) is not finite"),
        ("conjecture ratio-global --interval 0 nan",
         "interval (0.0, nan) is not finite"),
        ("conjecture cm --interval 0.1 inf",
         "interval (0.1, inf) is not finite"),
    ]

    @pytest.mark.parametrize("argv, message", MISUSES,
                             ids=[m[0] for m in MISUSES])
    def test_analysis_misuse_exits_2(self, argv, message, capsys):
        code, out, err = run(argv.split(), capsys)
        assert (code, out, err) == (2, "", "error: %s\n" % message)

    # Misuses of bounds, audit and openproblem-lambda, and a report written
    # into a missing directory: each exits 2 with one stderr line and no
    # report.  A domain error names the family, not a Python function.
    USAGE_MISUSES = [
        ("bounds --family ivady", "--x is required for the bounds command"),
        ("bounds --x -1", "qi_guo requires 0 < x < 1, got -1.0"),
        ("bounds --family qi_guo_extended --x -1",
         "qi_guo_extended requires x > 0, got -1.0"),
        ("bounds --family unitball --x 0.25",
         "unitball requires x > 1/2, got 0.25"),
        ("bounds --family alzer_power --x 1",
         "alzer_power is valid on (0,1) and (1,inf), got 1.0"),
        ("bounds --x nan", "qi_guo requires finite x, got nan"),
        ("bounds --family batir_12 --x 1e306",
         "batir_12(1e+306): log bounds (inf, inf) are outside double range"),
        ("audit --grid 99", "grid_n must be >= 100, got 99"),
        ("openproblem-lambda --lambda-tol -1",
         "lambda_tol must be positive and finite"),
        ("bounds --x 0.5 --out missing/r.csv",
         "[Errno 2] No such file or directory: 'missing/r.csv'"),
        ("audit --grid 200 --format json --out missing/r.json",
         "[Errno 2] No such file or directory: 'missing/r.json'"),
    ]

    @pytest.mark.parametrize("argv, message", USAGE_MISUSES,
                             ids=[m[0] for m in USAGE_MISUSES])
    def test_usage_misuse_exits_2(self, argv, message, capsys, tmp_path,
                                  monkeypatch):
        monkeypatch.chdir(tmp_path)  # where no directory "missing" exists
        code, out, err = run(argv.split(), capsys)
        assert (code, out, err) == (2, "", "error: %s\n" % message)
        assert list(tmp_path.iterdir()) == []

    def test_wrong_constant_injection_exits_1(self, capsys, monkeypatch):
        # deliberately corrupt the Euler-Mascheroni literal: the audited
        # limit at 1- is computed from digamma, so the anchor check fails
        monkeypatch.setattr(refcore, "EULER_GAMMA", 0.6)
        code, out, _ = run(["audit", "--grid", "500"], capsys)
        assert code == 1
        assert "fail" in out


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["csv", "json", "markdown"])
    def test_audit_byte_identical(self, fmt, tmp_path, capsys):
        paths = [tmp_path / ("r%d.%s" % (i, fmt)) for i in (1, 2)]
        for p in paths:
            assert cli.main(
                ["audit", "--grid", "500", "--format", fmt, "--out", str(p)]
            ) == 0
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1]

    def test_lambda_search_byte_identical(self, tmp_path):
        paths = [tmp_path / ("l%d.csv" % i) for i in (1, 2)]
        for p in paths:
            assert cli.main(
                ["openproblem-lambda", "--grid", "1000", "--out", str(p)]
            ) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_csv_shape(self, tmp_path):
        p = tmp_path / "audit.csv"
        assert cli.main(["audit", "--grid", "500", "--out", str(p)]) == 0
        raw = p.read_bytes()
        assert b"\r" not in raw  # LF line endings only
        text = raw.decode()
        header = text.split("\n", 1)[0]
        assert header == "name,kind,expected,measured,verdict,witness"

    # every sub-command's default report, and the ratio probe up to 1e300
    CSV_REPORTS = [
        "bounds --x 0.5", "compare", "audit", "lemma2", "monotone",
        "conjecture cm", "conjecture ratio-global", "conjecture tau",
        "openproblem-lambda", "polygamma-check",
        "conjecture ratio-global --interval 0 1e300",
    ]

    @pytest.mark.parametrize("argv", CSV_REPORTS)
    def test_csv_rows_have_the_header_width(self, argv, capsys):
        code, out, _ = run(argv.split(), capsys)
        assert code == 0
        header, *rows = csv.reader(io.StringIO(out))
        assert rows
        assert [len(row) for row in rows] == [len(header)] * len(rows)

    def test_csv_cell_round_trips(self):
        # RFC 4180: the cell is quoted and its quote doubled
        cell = 'a, "b"\nc'
        text = cli._render(["x", "y"], [[cell, 0.5]], "csv")
        assert text == 'x,y\n"a, ""b""\nc",0.5\n'
        assert list(csv.reader(io.StringIO(text))) == [["x", "y"],
                                                       [cell, "0.5"]]


# Runs CLI argvs in a fresh interpreter and prints their exit codes and
# the package modules loaded afterwards.  With "no-numpy", any import of
# numpy raises ImportError.
_FRESH_CHILD = r"""
import contextlib, io, json, sys
if sys.argv[1] == "no-numpy":
    sys.modules["numpy"] = None
import gamma_envelope
import gamma_envelope.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[2])]
print(json.dumps({"codes": codes, "modules": sorted(
    m for m in sys.modules if m.partition(".")[0] == "gamma_envelope")}))
"""


def _fresh_process(argvs, numpy=True):
    src = os.path.dirname(os.path.dirname(gamma_envelope.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_CHILD,
         "numpy" if numpy else "no-numpy", json.dumps(argvs)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout)
    return result["codes"], set(result["modules"])


class TestImportFootprint:
    def test_bounds_runs_without_numpy(self):
        argvs = [["bounds", "--family", f, "--x", "0.75"]
                 for f in sorted(bounds.FAMILIES)]
        codes, modules = _fresh_process(argvs, numpy=False)
        assert codes == [0] * len(argvs)
        assert modules == {"gamma_envelope", "gamma_envelope.refcore",
                           "gamma_envelope.bounds", "gamma_envelope.cli"}

    @pytest.mark.parametrize("argv, unloaded", [
        (["audit", "--grid", "200"], {"analysis"}),
        (["lemma2", "--grid", "100"], {"analysis"}),
        (["polygamma-check", "--grid", "20"],
         {"analysis", "proofaudit", "polycert"}),
    ])
    def test_sweeps_load_only_their_modules(self, argv, unloaded):
        codes, modules = _fresh_process([argv])
        assert codes == [0]
        assert not modules & {"gamma_envelope." + m for m in unloaded}

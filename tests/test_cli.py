"""End-to-end CLI contract: exit codes, formats, determinism."""

import json
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
                       "ratio_global_increasing,(0,50),0,consistent\n")

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

"""Tests of the benchmark itself, at smoke sizes.

Run from the repository root:  python -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert SPEC["paths"] == ["perfbench"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_every_declared_metric_is_emitted(workload, trace):
    out = _bench(workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert result["correct"] is True
    assert result["attempted"] >= 1
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "error_rate" in out.stdout


def test_no_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench("point-queries", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""


AUDIT_CSV = (
    "name,kind,expected,measured,verdict,witness\n"
    "q1_unique_zero,unique_zero,exactly one sign change, bisection "
    "converges,1,pass,0.1686\n"
    "lemma_h2_positive,sign,> 0 on the interval,5e-13,pass,\n"
)


def test_injected_failing_row_raises_error_rate():
    ok = wl.check_cli_output(["audit"], AUDIT_CSV, 0)
    assert (ok.rows, ok.failed, ok.consistent) == (2, [], True)
    injected = AUDIT_CSV.replace("5e-13,pass,", "-1e-3,fail,0.5")
    bad = wl.check_cli_output(["audit"], injected, 1)
    assert (bad.rows, bad.failed, bad.consistent) == (
        2, ["lemma_h2_positive"], True)
    before, after = run.Tally(), run.Tally()
    before.add(ok.rows, ok.failed)
    after.add(bad.rows, bad.failed)
    assert after.failed / after.attempted > before.failed / before.attempted


def test_exit_code_must_agree_with_rows():
    injected = AUDIT_CSV.replace("5e-13,pass,", "-1e-3,fail,0.5")
    for text, rc in ((injected, 0), (AUDIT_CSV, 1), (AUDIT_CSV, 2),
                     (AUDIT_CSV, "signal 9")):
        out = wl.check_cli_output(["audit"], text, rc)
        assert out.failed == ["q1_unique_zero", "lemma_h2_positive"]
        assert not out.consistent
    crashed = wl.check_cli_output(["audit"], "", "timeout")
    assert crashed.rows == 1 and not crashed.consistent


def test_comma_cells_and_command_specific_rows():
    cm = "probe,interval,violations,verdict\ncm_h,(0.1,50),3,violated\n"
    assert wl.check_cli_output(["conjecture", "cm"], cm, 1).failed == ["cm_h"]
    bounds = ("family,x,lower,true_gamma,upper,convention,equality_point,"
              "one_sided\nunitball,2,-inf,2.0,1.5,gamma_of_x_plus_1,False,True\n")
    assert wl.check_cli_output(["bounds"], bounds, 1).failed == ["unitball"]
    lam = ("lambda,classification\n1,increasing\n"
           "lambda_inc_max_estimate,1.3\nlambda_dec_min_estimate,1.2\n")
    out = wl.check_cli_output(["openproblem-lambda"], lam, 1)
    assert out.failed == ["lambda_bracket"] and out.consistent


def test_float_resolution_rule():
    mpmath = pytest.importorskip("mpmath")
    x = 810.0
    ref = float(mpmath.loggamma(x + 1.0))
    conv = "gamma_of_x_plus_1"
    assert wl.check_containment(x, ref - 1, ref + 1, conv, False, False) == \
        "contained"
    assert wl.check_containment(x, ref - 1, ref, conv, False, False) == \
        "unresolved"
    assert wl.check_containment(x, ref - 1, ref - 1e-6, conv, False, False) \
        == "violated"
    # one-sided pairs are judged on the upper side only
    assert wl.check_containment(x, float("-inf"), ref + 1, conv, False,
                                True) == "contained"
    assert wl.check_kernel_value(ref * (1 + 1e-15), ref)[0]
    assert not wl.check_kernel_value(ref * (1 + 1e-9), ref)[0]
    # batir_12's upper log-bound at x = 810 lands 1 ulp below the reference
    sys.path.insert(0, str(ROOT / "src"))
    from gamma_envelope import bounds
    bp = bounds.evaluate_family("batir_12", x)
    assert wl.check_containment(x, bp.log_lower, bp.log_upper, conv, False,
                                False) == "unresolved"


def test_queries_follow_the_seed_and_the_domains():
    a = wl.generate_queries(5)
    assert a == wl.generate_queries(5)
    assert a != wl.generate_queries(6)
    assert len(a) == 12 * wl.FAMILY_QUERIES + 10 * wl.KERNEL_QUERIES
    for kind, param, x in a:
        domains = ([wl.FAMILY_DOMAINS[param]] if kind == "family"
                   else wl.KERNEL_DOMAINS)
        assert any(lo <= x <= hi and inside(x) for lo, hi, _, inside in
                   (wl.DOMAINS[d] for d in domains))
    # stratified: every tenth of the log range holds a tenth of the draws
    xs = [x for kind, param, x in a if param == "qi_guo_extended"]
    edges = [1e-3 * 10 ** (0.6 * i) for i in range(11)]
    counts = [sum(lo <= x < hi for x in xs) for lo, hi in
              zip(edges, edges[1:])]
    assert counts == [wl.FAMILY_QUERIES // 10] * 10


def test_tracer_sees_from_imports_and_registries():
    # In a child process, so the patched package does not leak into the
    # interpreter running the tests.
    code = (
        "import traced\n"
        "from gamma_envelope import analysis\n"
        "t = traced.Tracer()\n"
        "assert traced.install(t) == []\n"
        "analysis._FUNCTIONS['ratio_R'](0.5)\n"
        "analysis.check_monotone('q', 0.1, 0.9, 'decreasing', grid_n=10)\n"
        "tot = t.totals()\n"
        "assert tot['proofaudit.ratio_R'][0] == 1, tot\n"
        "assert tot['proofaudit.proof_function'][0] == 10, tot\n"
        "assert tot['refcore.polygamma.k1'][0] == 10, tot\n"
        "assert tot['polycert.Polynomial.__call__'][0] == 10, tot\n"
        "assert tot['refcore.ln_gamma'][0] == 11, tot\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr


def test_parse_importtime():
    stderr = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       431 |      18348 |   gamma_envelope\n"
        "import time:      1741 |     147054 |     numpy\n"
        "import time:      4834 |     194969 | gamma_envelope.cli\n"
    )
    numpy_s, own_s = run.parse_importtime(stderr)
    assert numpy_s == pytest.approx(0.147054)
    assert own_s == pytest.approx(0.194969 - 0.147054)

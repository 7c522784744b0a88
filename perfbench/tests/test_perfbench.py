"""Tests of the benchmark itself: each correctness check rejects a planted
wrong output, and every workload completes at its smallest size.

Run from the repository root:  python3 -m pytest perfbench/tests -q
(kept out of the library's ``testpaths``).
"""

import cmath
import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from cstrans import cli, kernel_op  # noqa: E402
from cstrans.circle import CirclePoint  # noqa: E402
from cstrans.self_maps import PolynomialMap  # noqa: E402


def _run_op(op):
    out = op.run()
    assert op.check(out) is not None  # the true output passes
    return out


def test_lower_bound_above_exact_mobius_norm_is_rejected(tmp_path):
    measure = [{"angle": 2.0, "re": 1.0, "im": 0.0}]
    a = [0.5, 0.0]
    op = workloads._lemma2_op(cli, tmp_path, 0, measure, a, 4)
    doc = json.loads(_run_op(op))
    exact = checks.mobius_point_norm(0.5, cmath.exp(2.0j))
    assert exact < checks.ceiling(0.5)  # so only the exact-norm check can catch it
    planted = copy.deepcopy(doc)
    planted["reports"][0]["lower"] = exact * 1.001
    with pytest.raises(CheckFailed, match="exact norm"):
        checks.check_verify_lemma2(planted, measure, complex(*a))


def test_scan_ratio_above_its_ceiling_is_rejected(tmp_path):
    op = workloads._scan_op(cli, tmp_path, 0, [0.5], 2)
    doc = json.loads(_run_op(op))
    planted = copy.deepcopy(doc)
    planted["reports"][0]["rows"][0]["ratio"] = checks.ceiling(0.5) * 1.001
    with pytest.raises(CheckFailed, match="scan ratio"):
        checks.check_scan(planted, [0.5])


@pytest.mark.parametrize("m", [3, 4])
def test_kernel_value_off_the_power_map_closed_form_is_rejected(m):
    phi_obj = {"kind": "polynomial", "coeffs": [[0.0, 0.0]] * 3 + [[1.0, 0.0]]}
    zeta = CirclePoint(0.9)
    vals = kernel_op.monomial_radial_limits(PolynomialMap((0, 0, 0, 1)), 10, zeta)
    workloads.check_limits(phi_obj, zeta.value, 10, vals)
    planted = np.array(vals)
    planted[m] += 1e-6  # m = 3 should be zeta, m = 4 should be 0
    with pytest.raises(CheckFailed, match="closed form"):
        workloads.check_limits(phi_obj, zeta.value, 10, planted)


def test_norm_estimate_witness_that_pairs_below_lower_is_rejected(tmp_path):
    measure = [{"angle": 0.3, "re": 1.0, "im": 0.5}, {"angle": 2.5, "re": -0.5, "im": 0.0}]
    op = workloads._norm_estimate_op(cli, tmp_path, 0, measure, 4)
    doc = json.loads(_run_op(op))
    planted = copy.deepcopy(doc)
    planted["reports"][0]["witnesses"]["h"]["coeffs"] = [[0.5, 0.0]]
    with pytest.raises(CheckFailed, match="witness pairs"):
        checks.check_norm_estimate(planted, measure)


def test_tail_is_the_eleventh_largest_or_the_maximum():
    assert run.tail(list(range(50))) == 39
    assert run.tail(list(range(30))) == 29


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_workload_completes_at_its_smallest_size(name, tmp_path):
    wl = workloads.build(name, 7, tmp_path, smoke=True)
    for op in wl.warmup:
        op.check(op.run())
    res = run.check_pass(*run.run_pass(wl.ops))
    assert res.correct
    expected_failures = sum(op.expect_error is not None for op in wl.ops)
    assert res.failed == expected_failures
    assert expected_failures == (len(workloads.KEPT_FAILING_BLASCHKE) if name == "kernel" else 0)
    assert res.shares and all(0.0 < s <= 1.0 + checks.REL_TOL for s in res.shares)


def test_without_the_program_source_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kernel", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

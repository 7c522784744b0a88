"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <n> ...: PASS` line (run pytest with -s
to see them); a failed assertion marks the criterion failed.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import bound_bourdon_cima, monomial_pushforward, pairing, sample_unit_ball
from cstrans.circle import CirclePoint, DiskPoint
from cstrans.disk_algebra import make_poly
from cstrans.kernel_op import p_lambda_closed_form, p_phi_at_stable, p_phi_radial_limit
from cstrans.measures import (
    atomic_measure,
    measure_from_obj,
    point_mass,
    tv_norm,
)
from cstrans.norm_engine import (
    bound_cima_matheson,
    composition_knorm_lower,
    knorm_bracket,
    knorm_lower,
    sharpness_scan,
    verify_eq1,
)
from cstrans.fixtures import standard_fixtures
from cstrans.self_maps import MobiusSelfMap, PolynomialMap, self_map_from_obj

SEED = 20240001


class _Clock:
    def __init__(self, label, budget_s):
        self.label = label
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            print(f"\nACCEPTANCE {self.label}: PASS ({elapsed:.2f}s, budget {self.budget:.0f}s)")
            assert elapsed < self.budget, f"{self.label} exceeded its runtime budget"
        else:
            print(f"\nACCEPTANCE {self.label}: FAIL ({elapsed:.2f}s)")
        return False


def test_criterion_1_residue_formula_oracle():
    with _Clock("1 residue-formula oracle", 5):
        rng = np.random.default_rng(SEED)
        for _ in range(200):
            a = rng.uniform(0, 0.9) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            d = int(rng.integers(0, 17))
            h = make_poly(rng.uniform(-1, 1, d + 1) + 1j * rng.uniform(-1, 1, d + 1))
            zeta = CirclePoint(rng.uniform(0, 2 * np.pi))
            r = rng.uniform(0.05, 0.99)
            closed = p_lambda_closed_form(a, h, zeta, r)
            quad = p_phi_at_stable(MobiusSelfMap(DiskPoint(a)), h, zeta, r)
            assert abs(quad - closed) <= 1e-10 * max(1.0, abs(closed))


def test_criterion_2_bound_identity_and_termwise_triangle():
    with _Clock("2 bound identity + term bounds", 5):
        for x in np.linspace(0.0, 0.95, 100):
            lhs = x / (1 - x) + (1 - x**2) / (1 - x) ** 2
            assert abs(lhs - bound_cima_matheson(x)) <= 1e-12
        rng = np.random.default_rng(SEED + 1)
        for k in range(100):
            h = sample_unit_ball(int(rng.integers(0, 17)), SEED + k)
            a = rng.uniform(0, 0.9) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            zeta = CirclePoint(rng.uniform(0, 2 * np.pi)).value
            r = rng.uniform(0.1, 1.0)
            am = abs(a)
            first = -a * h.coeffs[0] / (zeta - a)
            denom = 1.0 - zeta * np.conjugate(a)
            second = h(r * (a - zeta) / denom) * (1 - am**2) / abs(denom) ** 2
            assert abs(first) <= am / (1 - am) + 1e-10
            assert abs(second) <= (1 - am**2) / (1 - am) ** 2 + 1e-10


def test_criterion_3_mobius_composition_bound():
    with _Clock("3 Möbius composition bound", 60):
        mu = point_mass(0.0)
        bracket = knorm_bracket(mu)
        assert bracket.upper - bracket.lower <= 1e-6  # norm pinned to 1
        for a in (0.0, 0.25, 0.5, 0.75):
            phi = MobiusSelfMap(DiskPoint(a))
            lower, _ = composition_knorm_lower(mu, phi)
            ceiling = bound_cima_matheson(a)
            if a == 0.5:
                assert ceiling == 4.0
            assert lower <= ceiling + 1e-8


def test_criterion_4_factorization_pipeline():
    with _Clock("4 factorization pipeline", 60):
        from cstrans.self_maps import factorization_residual, schwarz_factorize

        doc = standard_fixtures()
        mu = measure_from_obj(doc["measures"][0])
        for obj in doc["self_maps"]:
            phi = self_map_from_obj(obj)
            base, psi = schwarz_factorize(phi)
            assert abs(psi.at_zero()) <= 1e-14
            assert factorization_residual(phi, base, psi) <= 1e-12
            report = verify_eq1(mu, phi)
            assert report.passed, f"pipeline failed for {obj}"


def test_criterion_5_squaring_map_exact_case():
    with _Clock("5 squaring-map exact case", 30):
        mu = point_mass(0.0)
        z2 = PolynomialMap((0.0, 0.0, 1.0))
        pushed = monomial_pushforward(mu, 2)
        rng = np.random.default_rng(SEED + 2)
        for k in range(50):
            h = sample_unit_ball(int(rng.integers(0, 13)), SEED + 1000 + k)
            via_kernel = np.conjugate(p_phi_radial_limit(z2, h, CirclePoint(0.0)))
            via_pushforward = pairing(pushed, h)
            assert abs(via_kernel - via_pushforward) <= 1e-8
        bracket = knorm_bracket(pushed)
        assert bracket.upper == pytest.approx(1.0, abs=1e-15)
        assert bracket.lower >= 1.0 - 1e-3


def test_criterion_6_duality_sandwich():
    with _Clock("6 duality sandwich", 60):
        doc = standard_fixtures()
        fixtures = [measure_from_obj(m) for m in doc["measures"]]
        for mu in fixtures:
            lower, _ = knorm_lower(mu)
            assert lower <= tv_norm(mu) + 1e-9
        pinned = [
            (point_mass(0.0), 1.0),
            (point_mass(math.pi / 2), 1.0),
            (atomic_measure([(0.0, 1.0), (math.pi, 1.0)]), 2.0),
            (atomic_measure([(0.0, 1.0), (math.pi, -1.0)]), 2.0),
        ]
        for mu, target in pinned:
            lower, _ = knorm_lower(mu)
            assert lower == pytest.approx(target, abs=1e-3)
            assert lower <= tv_norm(mu) + 1e-9


def test_criterion_7_bound_dominance():
    with _Clock("7 bound dominance", 1):
        for x in np.linspace(0.0, 0.99, 100):
            assert bound_bourdon_cima(x) > bound_cima_matheson(x)
        assert bound_cima_matheson(0.0) == 1.0
        assert bound_cima_matheson(0.5) == 4.0
        # double(0.9) is not exactly 0.9, so "exactly 28" holds at ulp scale
        assert abs(bound_cima_matheson(0.9) - 28.0) <= 1e-13


def test_criterion_8_sharpness_scan_honesty():
    with _Clock("8 sharpness scan honesty", 300):
        a_values = [round(0.1 * k, 1) for k in range(10)]
        rows = sharpness_scan(a_values, degree_cap=6)
        for row in rows:
            assert row.ratio <= row.bound + 1e-8
        assert rows[0].a == 0.0
        assert rows[0].ratio >= 1.0 - 1e-6


def test_criterion_9_cli_determinism(tmp_path):
    with _Clock("9 CLI determinism", 300):
        outputs = []
        for name in ("first.json", "second.json"):
            out = tmp_path / name
            proc = subprocess.run(
                [
                    sys.executable, "-m", "cstrans", "verify-bound",
                    "--fixtures", "standard", "--out", str(out),
                ],
                capture_output=True,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["pass"] is True

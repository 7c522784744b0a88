import math

import numpy as np
import pytest

from cstrans.circle import DiskPoint, circle_angles, disk_grid, mobius_eval
from cstrans.self_maps import (
    BlaschkeMap,
    ComposedMap,
    MobiusSelfMap,
    PolynomialMap,
    factorization_residual,
    schwarz_factorize,
    self_map_eval,
    self_map_from_obj,
    self_map_to_obj,
)

FIXTURE_MAPS = [
    MobiusSelfMap(DiskPoint(0.0)),
    MobiusSelfMap(DiskPoint(0.5)),
    MobiusSelfMap(DiskPoint(0.3 - 0.4j)),
    PolynomialMap((0.0, 1.0)),
    PolynomialMap((0.0, 0.5)),
    PolynomialMap((0.25, 0.0, 0.5)),
    PolynomialMap((0.0, 0.0, 1.0)),
    BlaschkeMap((DiskPoint(0.3),), 1.0),
    BlaschkeMap((DiskPoint(0.3), DiskPoint(-0.4j)), 1j),
]


class TestEval:
    def test_examples(self):
        assert self_map_eval(PolynomialMap((0.0, 0.5)), 1.0) == pytest.approx(0.5)
        assert self_map_eval(MobiusSelfMap(DiskPoint(0.5)), 0.0) == pytest.approx(0.5)
        b = BlaschkeMap((DiskPoint(0.3),), 1.0)
        assert self_map_eval(b, 0.3) == pytest.approx(0.0)

    def test_rejects_outside_disk(self):
        with pytest.raises(ValueError):
            self_map_eval(PolynomialMap((0.0, 1.0)), 1.5)
        # The closed-disk check allows 1e-12 of rounding, for every kind.
        for phi in FIXTURE_MAPS + [ComposedMap(DiskPoint(0.2), PolynomialMap((0.0, 0.5)))]:
            for z in (1.0 + 2e-12, np.array([0.0, 1j * (1.0 + 2e-12)])):
                with pytest.raises(ValueError, match="closed unit disk"):
                    self_map_eval(phi, z)
            self_map_eval(phi, 1.0 + 5e-13)

    def test_polynomial_construction_rejects_non_self_maps(self):
        with pytest.raises(ValueError):
            PolynomialMap((0.0, 1.2))
        with pytest.raises(ValueError):
            PolynomialMap((0.9, 0.9))

    def test_sup_bound_certifies_boundary_modulus(self):
        t = np.exp(1j * circle_angles(4096))
        for phi in FIXTURE_MAPS:
            observed = float(np.max(np.abs(self_map_eval(phi, t))))
            assert observed <= phi.sup_bound + 1e-12

    def test_composed_sup_bound_contracts(self):
        inner = PolynomialMap((0.0, 0.5))
        composed = ComposedMap(DiskPoint(0.25), inner)
        assert composed.sup_bound == pytest.approx((0.25 + 0.5) / (1 + 0.125))


class TestFactorization:
    def test_mobius_factorizes_to_identity(self):
        phi = MobiusSelfMap(DiskPoint(0.5))
        base, psi = schwarz_factorize(phi)
        assert base.value == pytest.approx(0.5)
        pts = disk_grid()
        assert np.max(np.abs(self_map_eval(psi, pts) - pts)) <= 1e-12

    def test_identity_has_zero_base_point(self):
        # psi = lambda_0 o id = -z; applying lambda_0 again restores the identity
        base, psi = schwarz_factorize(PolynomialMap((0.0, 1.0)))
        assert base.value == 0.0
        pts = disk_grid()
        assert np.max(np.abs(self_map_eval(psi, pts) + pts)) <= 1e-14

    def test_polynomial_example(self):
        phi = PolynomialMap((0.25, 0.0, 0.5))
        base, psi = schwarz_factorize(phi)
        assert base.value == pytest.approx(0.25)
        assert abs(psi.at_zero()) <= 1e-14
        assert factorization_residual(phi, base, psi) <= 1e-12

    def test_reconstruction_and_schwarz_bound_across_fixtures(self):
        pts = disk_grid()
        for phi in FIXTURE_MAPS:
            base, psi = schwarz_factorize(phi)
            assert abs(psi.at_zero()) <= 1e-14
            assert factorization_residual(phi, base, psi, pts) <= 1e-12
            # psi fixes 0, so |psi(z)| <= |z| on the disk
            vals = self_map_eval(psi, pts)
            assert np.max(np.abs(vals) - np.abs(pts)) <= 1e-10

    def test_reconstruction_oracle_direct(self):
        # independent check: evaluate lambda_a(psi(z)) without the helper
        phi = PolynomialMap((0.25, 0.0, 0.5))
        base, psi = schwarz_factorize(phi)
        for z in (0.0, 0.5j, -0.7, 0.3 + 0.6j):
            assert abs(mobius_eval(base, self_map_eval(psi, z)) - self_map_eval(phi, z)) <= 1e-13

    def test_degenerate_base_point_rejected(self):
        phi = PolynomialMap((1.0 - 5e-16,))
        with pytest.raises(ValueError):
            schwarz_factorize(phi)


class TestJson:
    def test_roundtrip_every_kind(self):
        for phi in FIXTURE_MAPS + [schwarz_factorize(PolynomialMap((0.25, 0.0, 0.5)))[1]]:
            again = self_map_from_obj(self_map_to_obj(phi))
            pts = disk_grid(radial=4, angular=8)
            assert np.max(np.abs(self_map_eval(again, pts) - self_map_eval(phi, pts))) == 0.0

    def test_bad_literals(self):
        with pytest.raises(ValueError, match="kind"):
            self_map_from_obj({"coeffs": [[0, 0]]})
        with pytest.raises(ValueError, match="self_map"):
            self_map_from_obj({"kind": "mobius"})
        with pytest.raises(ValueError, match="unknown kind"):
            self_map_from_obj({"kind": "entire"})
        with pytest.raises(ValueError, match="inner"):
            self_map_from_obj({"kind": "composed", "outer_a": [0.5, 0], "inner": {"kind": "x"}})

    def test_blaschke_rotation_validation(self):
        with pytest.raises(ValueError):
            BlaschkeMap((DiskPoint(0.1),), 2.0)
        with pytest.raises(ValueError):
            BlaschkeMap((), 1.0)

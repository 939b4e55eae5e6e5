"""Extremiser solver, closed forms, truncation estimates."""

import math

import mpmath as mp
import numpy as np
import pytest

from blscales.datum import BLDatum
from blscales.gaussians import (
    ExtremiserResult,
    GaussianTuple,
    SingularMatrixError,
    c0_constants,
    compute_M,
    gaussian_bl_value,
    scale_gaussian,
    solve_extremiser,
    truncation_deficit,
    young_constant,
)

from conftest import ROOT3_OVER_2, young_maps


def test_young_value_closed_form(young_datum, young_extremiser):
    res = young_extremiser
    assert res.status == "converged"
    assert res.bl_value == pytest.approx(ROOT3_OVER_2, rel=1e-12)
    # isotropic initialization is already stationary for this datum
    assert res.iterations == 0


def test_young_constant_formula_dimensions():
    p = (2 / 3, 2 / 3, 2 / 3)
    assert young_constant(p, d=1) == pytest.approx(ROOT3_OVER_2, rel=1e-14)
    assert young_constant(p, d=3) == pytest.approx((3 / 4) ** 1.5, rel=1e-14)
    # d-fold product structure
    assert young_constant(p, d=2) == pytest.approx(young_constant(p, d=1) ** 2, rel=1e-13)


def test_young_constant_matches_solver_on_skew_exponents():
    # independent route: the gaussian fixed point on the convolution datum
    for p in [(0.5, 0.75, 0.75), (0.9, 0.55, 0.55), (0.8, 0.8, 0.4)]:
        d = BLDatum(n=2, maps=young_maps(), exponents=list(p))
        res = solve_extremiser(d)
        assert res.converged
        assert res.bl_value == pytest.approx(young_constant(p, d=1), rel=1e-9)


def test_young_constant_degenerate_exponent():
    # p_j = 1 contributes factor 1
    assert young_constant((1.0, 1.0, 0.0), d=1) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        young_constant((0.5, 0.5, 0.5), d=1)  # sum is not 2


def test_lw_plane_unit_constant(lw_datum):
    res = solve_extremiser(lw_datum)
    assert res.converged
    assert abs(res.bl_value - 1.0) <= 1e-10


def test_near_vertex_value():
    d = BLDatum(n=2, maps=young_maps(), exponents=[0.999, 0.999, 0.002])
    res = solve_extremiser(d)
    assert res.converged
    assert abs(res.bl_value - 1.0) <= 1e-3
    assert res.bl_value == pytest.approx(young_constant((0.999, 0.999, 0.002)), rel=1e-9)


def test_stationarity_identity(young_datum, young_extremiser):
    g = young_extremiser.gaussians
    M = compute_M(young_datum, g)
    Minv = np.linalg.inv(M)
    for L, A in zip(young_datum.maps, g.blocks):
        assert np.allclose(np.linalg.inv(A), L @ Minv @ L.T, atol=1e-10)
    assert np.linalg.det(M) == pytest.approx(1.0, rel=1e-10)


def test_scale_invariance(young_datum, young_extremiser):
    base = young_extremiser.bl_value
    for rho in (0.25, 0.9, 3.7):
        g = scale_gaussian(young_extremiser.gaussians, rho)
        assert gaussian_bl_value(young_datum, g) == pytest.approx(base, rel=1e-12)
        # masses are preserved by the scaling
        assert np.allclose(g.masses(), young_extremiser.gaussians.masses(), rtol=1e-12)


def excursion_datum():
    vecs = np.array(
        [
            [-0.9554, -0.2703, 0.1189],
            [0.4694, -0.6903, 0.5505],
            [0.1597, 0.8853, 0.4367],
            [0.1867, -0.2711, -0.9443],
            [-0.6312, 0.0385, -0.7747],
        ]
    )
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    p = [0.7916, 0.6967, 0.5663, 0.1155, 0.83]
    s = sum(p)
    p = [x * 3.0 / s for x in p]
    return BLDatum(n=3, maps=[v.reshape(1, 3) for v in vecs], exponents=p)


def test_excursion_does_not_abort():
    # residual rises for dozens of sweeps on this datum before contracting;
    # the solver must ride it out rather than declare divergence
    res = solve_extremiser(excursion_datum())
    assert res.converged
    assert res.residual <= 1e-10


def test_fixed_point_sweep_counts(young_datum):
    # the undamped sweep's exact counts: a change to the iteration shows here
    # before it shows in any value
    cases = [(young_datum, 0), (excursion_datum(), 165)]
    for e, sweeps in [(1e-1, 103), (1e-2, 999)]:
        p = [1.0 - e, 0.5 * (1.0 + e), 0.5 * (1.0 + e)]
        cases.append((BLDatum(n=2, maps=young_maps(), exponents=p), sweeps))
    for d, sweeps in cases:
        res = solve_extremiser(d)
        assert res.status == "converged"
        assert res.iterations == sweeps
        if d.maps[0].shape == (1, 2):
            assert res.bl_value == pytest.approx(young_constant(d.exponents), rel=1e-12)


def test_infinite_datum_diverges_or_stalls():
    # duplicated line with combined weight above 1: constant is infinite
    vecs = [np.array([1.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    d = BLDatum(n=2, maps=[v.reshape(1, 2) for v in vecs], exponents=[0.7, 0.7, 0.6])
    res = solve_extremiser(d, max_iter=3000)
    assert not res.converged
    assert res.status in ("diverged", "max-iter")


def test_singular_M_raises():
    d = BLDatum(n=2, maps=young_maps(), exponents=[2 / 3] * 3)
    g = GaussianTuple(blocks=[np.array([[1e-320]])] * 3, amplitudes=[1.0] * 3)
    with pytest.raises(SingularMatrixError):
        compute_M(d, g)
        gaussian_bl_value(d, g)


def test_truncation_closed_form_identity_datum():
    # single identity map in the plane: the pullback is exp(-pi |x|^2) and the
    # tail mass outside radius r is exactly exp(-pi r^2)
    d = BLDatum(n=2, maps=[np.eye(2)], exponents=[1.0])
    g = GaussianTuple(blocks=[np.eye(2)], amplitudes=[1.0])
    for delta in (0.31, 0.2, 0.1):
        deficit, bound = truncation_deficit(d, g, delta, eta=0.25)
        r = delta * math.log(1 / delta)
        assert deficit == pytest.approx(math.exp(-math.pi * r * r), rel=1e-12)
        assert bound == pytest.approx(delta**0.5, rel=1e-12)


@pytest.mark.parametrize("n", [1, 3, 6])
def test_truncation_tail_matches_mpmath(n):
    # one map on R^n with block c I: the tail outside radius r is
    # Q(n/2, pi c r^2); c spreads the whitened radius over about [0.003, 5]
    for c in np.geomspace(0.01, 200.0, 30):
        d = BLDatum(n=n, maps=[np.eye(n)], exponents=[1.0])
        g = GaussianTuple(blocks=[c * np.eye(n)], amplitudes=[1.0])
        for delta in (0.35, 0.2, 0.1, 0.02):
            deficit, _ = truncation_deficit(d, g, delta, eta=0.25)
            r = delta * math.log(1 / delta)
            with mp.workdps(40):
                x = mp.pi * c * mp.mpf(r) ** 2
                exact = mp.gammainc(mp.mpf(n) / 2, x, mp.inf, regularized=True)
            assert deficit == pytest.approx(float(exact), rel=1e-12)


def test_truncation_deficit_shrinks_with_scale(young_datum, young_extremiser):
    prev = 1.0
    for delta in (0.2, 0.1, 0.05, 0.02):
        g = scale_gaussian(young_extremiser.gaussians, delta)
        deficit, bound = truncation_deficit(young_datum, g, delta, eta=0.2667)
        assert 0.0 <= deficit <= bound
        assert deficit < prev
        prev = deficit


def test_truncation_domain_checks(young_datum, young_extremiser):
    g = young_extremiser.gaussians
    with pytest.raises(ValueError):
        truncation_deficit(young_datum, g, 0.5, eta=0.25)  # above 1/e
    with pytest.raises(ValueError):
        truncation_deficit(young_datum, g, 0.1, eta=0.0)


def test_c0_constants_young(young_datum, young_extremiser):
    c0bar, c0 = c0_constants([(young_datum, young_extremiser)])
    # M has eigenvalues 3^{-1/2} and 3^{1/2} after det-normalization
    assert c0bar == pytest.approx(3**0.25, rel=1e-10)
    assert c0 == pytest.approx(3**0.25, rel=1e-10)


def test_c0_requires_convergence(young_datum, young_extremiser):
    broke = ExtremiserResult(
        gaussians=young_extremiser.gaussians,
        bl_value=0.0,
        iterations=0,
        residual=1.0,
        converged=False,
        status="diverged",
    )
    with pytest.raises(ValueError):
        c0_constants([(young_datum, broke)])


def test_result_json_plain_types(young_extremiser):
    obj = young_extremiser.to_json()
    assert isinstance(obj["converged"], bool)
    assert isinstance(obj["bl_value"], float)
    assert isinstance(obj["iterations"], int)


def test_validate_gaussian_tuple():
    asym = GaussianTuple(blocks=[np.array([[1.0, 0.5], [0.4, 1.0]])], amplitudes=[1.0])
    assert any("symmetric" in msg for msg in asym.validate())
    neg = GaussianTuple(blocks=[-np.eye(2)], amplitudes=[1.0])
    assert any("positive definite" in msg for msg in neg.validate())
    good = GaussianTuple(blocks=[np.eye(2)], amplitudes=[1.0])
    assert good.validate() == []

"""Quadrature evaluation of the functional, convolution and the ball
inequality check."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blscales import mc
from blscales.datum import BLDatum
from blscales.functional import (
    BallCheckReport,
    Box,
    CallableFunction,
    DegenerateLocalizationError,
    DomainTooSmallError,
    GaussianFunction,
    IndicatorFunction,
    InputTuple,
    QuadratureSpec,
    SampledFunction,
    UnboundedDomainError,
    ZeroMassError,
    auto_domain,
    ball_inequality_check,
    bl_functional,
    convolve_inputs,
    integrate_function,
    localized_max,
    masses,
    pullback,
)
from blscales.gaussians import gaussian_bl_value
from blscales.nonlinear import registry

ROOT3_OVER_2 = 0.8660254037844386


def indicator_tuple(lo, hi, heights=(1.0, 1.0, 1.0)):
    return InputTuple([IndicatorFunction(Box([lo], [hi]), h) for h in heights])


# ---------------------------------------------------------------------------
# direct quadrature


def test_indicator_young_unit_box(young_datum):
    # exact value: area of {0 <= y <= x <= 1} over unit denominators
    inputs = indicator_tuple(0.0, 1.0)
    val, err = bl_functional(young_datum, inputs, QuadratureSpec(resolution=1024))
    assert abs(val - 0.5) <= 2e-3
    # midpoint rule refines towards the exact value
    coarse, _ = bl_functional(young_datum, inputs, QuadratureSpec(resolution=128))
    assert abs(val - 0.5) < abs(coarse - 0.5)


def test_indicator_young_centered_box(young_datum):
    # square minus two corner triangles: 1 - 2 * (1/2 * (1/2)^2) = 3/4
    inputs = indicator_tuple(-0.5, 0.5)
    val, _ = bl_functional(young_datum, inputs, QuadratureSpec(resolution=1024))
    assert abs(val - 0.75) <= 2e-3


def test_indicator_young_monte_carlo(young_datum):
    inputs = indicator_tuple(0.0, 1.0)
    q = QuadratureSpec(method="monte-carlo", resolution=200000, seed=5)
    val, err = bl_functional(young_datum, inputs, q)
    assert err < 0.01
    assert abs(val - 0.5) <= 4.0 * err


def test_gaussian_inputs_match_gaussian_value(young_datum, young_extremiser):
    iso = InputTuple([GaussianFunction(np.eye(1)) for _ in range(3)])
    val, _ = bl_functional(young_datum, iso, QuadratureSpec(resolution=512))
    assert val == pytest.approx(ROOT3_OVER_2, abs=1e-6)
    # extremiser blocks attain the same value for this datum (all its
    # gaussian inputs are extremal), still matching the closed form
    ext = InputTuple([GaussianFunction(A) for A in young_extremiser.gaussians.blocks])
    val2, _ = bl_functional(young_datum, ext, QuadratureSpec(resolution=512))
    ref = gaussian_bl_value(young_datum, young_extremiser.gaussians)
    assert val2 == pytest.approx(ref, abs=1e-6)


def test_grid_and_monte_carlo_agree(young_datum):
    gauss = InputTuple(
        [GaussianFunction([[a]]) for a in (0.7, 1.3, 2.1)]
    )
    grid_val, _ = bl_functional(young_datum, gauss, QuadratureSpec(resolution=512))
    mc_val, mc_err = bl_functional(
        young_datum, gauss, QuadratureSpec(method="monte-carlo", resolution=400000, seed=11)
    )
    assert mc_err > 0
    assert abs(grid_val - mc_val) <= 4.0 * mc_err


def test_loomis_whitney_indicators(lw_datum):
    # coordinate projections of the unit square; value 1 for the unit box
    inputs = InputTuple(
        [IndicatorFunction(Box([0.0], [1.0])), IndicatorFunction(Box([0.0], [1.0]))]
    )
    val, err = bl_functional(lw_datum, inputs, QuadratureSpec(resolution=256))
    assert val == pytest.approx(1.0, abs=1e-10)


def test_integrate_function_exact_and_estimated():
    # integrate_function always estimates; masses takes a closed form when
    # the input has one and estimates on stream stream_base + 1 + j otherwise
    f = GaussianFunction([[2.0]])
    q = QuadratureSpec(resolution=256)
    val, err = integrate_function(f, q)
    assert val == pytest.approx(f.exact_mass, rel=1e-9)
    assert masses([f], q) == [(f.exact_mass, 0.0)]
    mc_q = QuadratureSpec(method="monte-carlo", resolution=5000, seed=3)
    bare = CallableFunction(f, f.box)
    given = CallableFunction(f, f.box, mass=0.5)
    assert masses([given, bare], mc_q, stream_base=10) == [
        (0.5, 0.0),
        integrate_function(bare, mc_q, stream=12),
    ]


@pytest.mark.parametrize(
    "block, amplitude",
    [
        # det 1, but the symmetric part has eigenvalues -1.5 and 3.5
        ([[1.0, 5.0], [0.0, 1.0]], None),
        ([[float("nan")]], None),
        # det 1 as well, and negative definite
        (-np.eye(2), None),
        ([[1.0]], -1.0),
        ([[1.0]], float("inf")),
        ([[1.0]], float("nan")),
    ],
    ids=["asymmetric", "nan-block", "negative-definite", "negative-amplitude", "inf-amplitude", "nan-amplitude"],
)
def test_gaussian_function_rejects_what_is_not_a_gaussian(block, amplitude):
    with pytest.raises(ValueError, match="gaussian"):
        GaussianFunction(block, amplitude)


def test_gaussian_function_allows_amplitude_zero():
    f = GaussianFunction([[2.0, 0.5], [0.5, 1.0]], 0.0)
    assert f.exact_mass == 0.0
    assert f(np.zeros((1, 2)))[0] == 0.0


# ---------------------------------------------------------------------------
# domains


def test_auto_domain_is_constraint_box(young_datum):
    dom = auto_domain(young_datum, [Box([0.0], [1.0])] * 3)
    assert dom is not None
    assert np.allclose(dom.lo, [0.0, 0.0], atol=1e-9)
    assert np.allclose(dom.hi, [1.0, 1.0], atol=1e-9)


def test_auto_domain_empty_polytope(young_datum):
    # third constraint x - y in [5, 6] cannot meet the unit square
    boxes = [Box([0.0], [1.0]), Box([0.0], [1.0]), Box([5.0], [6.0])]
    assert auto_domain(young_datum, boxes) is None
    inputs = InputTuple(
        [IndicatorFunction(b) for b in boxes]
    )
    val, err = bl_functional(young_datum, inputs, QuadratureSpec(resolution=64))
    assert val == 0.0


def _linprog_domain(datum, boxes):
    """The bounding box of {x : L_j x in box_j} by 2n linear programs."""
    from scipy.optimize import linprog

    A = np.vstack(datum.maps)
    A_ub = np.vstack([A, -A])
    b_ub = np.concatenate([b.hi for b in boxes] + [-np.asarray(b.lo) for b in boxes])
    lo, hi = np.empty(datum.n), np.empty(datum.n)
    for i in range(datum.n):
        c = np.eye(datum.n)[i]
        low = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=(None, None), method="highs")
        high = linprog(-c, A_ub=A_ub, b_ub=b_ub, bounds=(None, None), method="highs")
        if low.status == 2 or high.status == 2:
            return None
        if low.status != 0 or high.status != 0:
            raise UnboundedDomainError("unbounded")
        lo[i], hi[i] = low.fun, -high.fun
    return None if np.any(hi <= lo) else Box(lo, hi)


def _domain_outcome(fn, datum, boxes):
    try:
        return fn(datum, boxes)
    except UnboundedDomainError:
        return "unbounded"


def _assert_same_domain(datum, boxes):
    ours = _domain_outcome(auto_domain, datum, boxes)
    ref = _domain_outcome(_linprog_domain, datum, boxes)
    if isinstance(ref, Box):
        assert isinstance(ours, Box)
        np.testing.assert_allclose(ours.lo, ref.lo, rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(ours.hi, ref.hi, rtol=0.0, atol=1e-9)
    else:
        assert ours == ref
    return ours


def test_auto_domain_matches_linprog():
    rng = np.random.default_rng(20)
    kinds = {"box": 0, "empty": 0, "unbounded": 0}
    for trial in range(160):
        n = int(rng.integers(1, 6))
        maps = []
        for _ in range(int(rng.integers(2, 5))):
            rows = int(rng.integers(1, n + 1))
            if trial % 2:
                maps.append(rng.standard_normal((rows, n)))
            else:
                maps.append(rng.integers(-2, 3, (rows, n)).astype(float))
        # boxes around the images of one point, a third of them shifted off it
        x0 = rng.standard_normal(n)
        boxes = []
        for L in maps:
            c = L @ x0 + rng.standard_normal(L.shape[0]) * (rng.uniform() < 0.3)
            w = rng.uniform(0.1, 2.0, L.shape[0])
            boxes.append(Box(c - w, c + w))
        out = _assert_same_domain(BLDatum(n=n, maps=maps, exponents=[1.0] * len(maps)), boxes)
        kinds["empty" if out is None else "unbounded" if out == "unbounded" else "box"] += 1
    assert min(kinds.values()) >= 5, kinds


def test_auto_domain_edge_cases(monkeypatch):
    from blscales import functional

    line = [np.array([[1.0, 0.0]]), np.array([[2.0, 0.0]])]
    datum = BLDatum(n=2, maps=line, exponents=[1.0, 1.0])
    # rank 1 and empty: x in [0, 1] and 2x in [3, 4]; emptiness comes first
    assert _assert_same_domain(datum, [Box([0.0], [1.0]), Box([3.0], [4.0])]) is None
    # rank 1 and nonempty: a strip
    assert _assert_same_domain(datum, [Box([0.0], [1.0]), Box([1.0], [4.0])]) == "unbounded"
    # an all-zero map constrains nothing when its box holds 0, and empties P otherwise
    zero = BLDatum(n=2, maps=[[[1.0, 0.0]], [[0.0, 1.0]], [[0.0, 0.0]]], exponents=[1.0] * 3)
    unit = Box([0.0], [1.0])
    assert _assert_same_domain(zero, [unit, unit, Box([-1.0], [1.0])]) == Box([0, 0], [1, 1])
    assert _assert_same_domain(zero, [unit, unit, Box([0.5], [1.0])]) is None
    # C(12, 6) 2^6 = 59136 candidates are above the cap: linear programs decide
    rng = np.random.default_rng(5)
    maps = [rng.standard_normal((3, 6)) for _ in range(4)]
    assert math.comb(12, 6) * 2**6 > functional.VERTEX_CANDIDATES
    x0 = rng.standard_normal(6)
    boxes = [Box(L @ x0 - 1.0, L @ x0 + 1.0) for L in maps]

    def no_enumeration(*args):
        raise AssertionError("vertex enumeration above the cap")

    monkeypatch.setattr(functional, "_vertices", no_enumeration)
    assert isinstance(_assert_same_domain(BLDatum(n=6, maps=maps, exponents=[0.5] * 4), boxes), Box)


def test_auto_domain_linear_program_fallback(monkeypatch, young_datum):
    from blscales import functional

    unit = Box([0.0], [1.0])
    rng = np.random.default_rng(4)
    generic = BLDatum(n=4, maps=[rng.standard_normal((2, 4)) for _ in range(3)], exponents=[2 / 3] * 3)
    cases = [
        (young_datum, [Box([-1.0], [2.0]), Box([-0.5], [0.7]), Box([0.1], [3.0])]),
        (generic, [Box([0.0, 0.0], [1.0, 1.0])] * 3),
    ]
    by_vertices = [auto_domain(d, boxes) for d, boxes in cases]
    # with no vertex candidates allowed, every domain comes from linear programs
    monkeypatch.setattr(functional, "VERTEX_CANDIDATES", 0)
    for (d, boxes), ref in zip(cases, by_vertices):
        dom = auto_domain(d, boxes)
        np.testing.assert_allclose(dom.lo, ref.lo, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(dom.hi, ref.hi, rtol=0.0, atol=1e-12)
    # empty: x - y in [5, 6] misses the unit square; flat: x - y = 1 meets it at a point
    assert auto_domain(young_datum, [unit, Box([5.0], [6.0]), unit]) is None
    assert auto_domain(young_datum, [unit, Box([1.0], [1.0]), unit]) is None
    shared = BLDatum(n=2, maps=[[[1.0, 0.0]], [[2.0, 0.0]]], exponents=[1.0, 1.0])
    with pytest.raises(UnboundedDomainError):
        auto_domain(shared, [unit, unit])


def test_unbounded_domain_raises():
    # both maps kill e2, so the polytope is a full strip
    datum = BLDatum(
        n=2,
        maps=[np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]])],
        exponents=[1.0, 1.0],
    )
    inputs = indicator_tuple(0.0, 1.0, heights=(1.0, 1.0))
    with pytest.raises(UnboundedDomainError):
        bl_functional(datum, inputs, QuadratureSpec(resolution=64))


def _exact_gaussian_bl(datum, inputs):
    """BL of gaussians c_j exp(-pi A_j (y - a_j)^2) under linear maps:
    prod c_j^{p_j} det(M)^{-1/2} exp(-pi (sum p_j a_j A_j a_j - b M^-1 b)),
    M = sum p_j L_j^T A_j L_j and b = sum p_j L_j^T A_j a_j, over the
    closed-form masses."""
    M = np.zeros((datum.n, datum.n))
    b = np.zeros(datum.n)
    expo = 0.0
    log_ratio = 0.0
    for L, p, f in zip(datum.maps, datum.exponents, inputs.functions):
        M += p * L.T @ f.A @ L
        b += p * L.T @ f.A @ f.center
        expo += p * f.center @ f.A @ f.center
        log_ratio += p * (math.log(f.amplitude) - math.log(f.exact_mass))
    expo -= b @ np.linalg.solve(M, b)
    return math.exp(log_ratio - math.pi * expo) / math.sqrt(np.linalg.det(M))


def test_bl_functional_error_bars_are_calibrated(young_datum):
    # z = (estimate - exact) / stderr over seeds is close to standard normal;
    # the denominators are exact, so the spread is the numerator's alone
    for k in range(3):
        rng = np.random.default_rng(k)
        inputs = InputTuple(
            [
                GaussianFunction([[a]], c, [m])
                for a, c, m in zip(
                    rng.uniform(0.5, 2.0, 3), rng.uniform(0.5, 2.0, 3), rng.uniform(-0.5, 0.5, 3)
                )
            ]
        )
        exact = _exact_gaussian_bl(young_datum, inputs)
        z = []
        for seed in range(150):
            q = QuadratureSpec(method="monte-carlo", resolution=20000, seed=seed)
            value, err = bl_functional(young_datum, inputs, q)
            z.append((value - exact) / err)
        z = np.array(z)
        assert 0.8 <= z.std(ddof=1) <= 1.25
        assert np.sum(np.abs(z) > 3.0) <= 3
        assert abs(z.mean()) <= 0.35


def test_zero_mass_raises(young_datum):
    inputs = indicator_tuple(0.0, 1.0, heights=(1.0, 0.0, 1.0))
    with pytest.raises(ZeroMassError):
        bl_functional(young_datum, inputs, QuadratureSpec(resolution=64))


def test_explicit_small_domain_raises(young_datum):
    gauss = InputTuple([GaussianFunction(np.eye(1)) for _ in range(3)])
    tiny = Box([-0.05, -0.05], [0.05, 0.05])
    with pytest.raises(DomainTooSmallError):
        bl_functional(young_datum, gauss, QuadratureSpec(resolution=64, domain=tiny))


def test_compact_support_edge_mass_allowed(young_datum):
    # the indicator mass genuinely touches the auto-domain boundary; the
    # undersized-domain guard must not fire because that domain is exact
    inputs = indicator_tuple(0.0, 1.0)
    val, _ = bl_functional(young_datum, inputs, QuadratureSpec(resolution=64))
    assert val == pytest.approx(0.5, abs=2e-2)
    # the same box passed explicitly loses the exactness certificate
    explicit = Box([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(DomainTooSmallError):
        bl_functional(young_datum, inputs, QuadratureSpec(resolution=64, domain=explicit))


# ---------------------------------------------------------------------------
# convolution


def test_convolution_mass_identity():
    f = indicator_tuple(0.0, 1.0, heights=(2.0, 1.0, 1.5))
    g = indicator_tuple(-0.5, 0.5, heights=(3.0, 1.0, 0.25))
    conv = convolve_inputs(f, g, QuadratureSpec(resolution=128))
    for cj, fj, gj in zip(conv.functions, f.functions, g.functions):
        assert isinstance(cj, SampledFunction)
        assert cj.native_mass() == pytest.approx(
            fj.exact_mass * gj.exact_mass, rel=1e-12
        )


def test_gaussian_convolution_closed_form():
    f = InputTuple([GaussianFunction(np.eye(1))])
    conv = convolve_inputs(f, f, QuadratureSpec(resolution=512)).functions[0]
    for x in (0.0, 0.3, -0.7, 1.1):
        # exp(-pi x^2) * exp(-pi x^2) = exp(-pi x^2 / 2) / sqrt(2)
        exact = math.exp(-math.pi * x * x / 2.0) / math.sqrt(2.0)
        got = float(conv(np.array([[x]]))[0])
        assert got == pytest.approx(exact, abs=3e-3)


@pytest.mark.parametrize(
    "sa, sb",
    [((40,), (257,)), ((1,), (9,)), ((20, 30), (11, 5)), ((1, 30), (11, 1)), ((1, 1), (1, 1)),
     ((4, 5, 6), (3, 1, 7))],
)
def test_fft_convolve_matches_scipy_signal(sa, sb):
    from scipy.signal import fftconvolve

    from blscales.functional import _fft_convolve

    gen = np.random.default_rng(len(sa) + sa[0])
    a = gen.random(sa)
    b = gen.random(sb)
    assert np.array_equal(_fft_convolve(a, b), fftconvolve(a, b))


def test_convolution_length_mismatch():
    f = indicator_tuple(0.0, 1.0)
    g = InputTuple(f.functions[:2])
    with pytest.raises(ValueError):
        convolve_inputs(f, g, QuadratureSpec(resolution=32))


# ---------------------------------------------------------------------------
# ball inequality


def test_ball_check_gaussian_pair(young_datum):
    f = InputTuple([GaussianFunction([[a]]) for a in (1.0, 0.8, 1.7)])
    g = InputTuple([GaussianFunction([[a]]) for a in (1.2, 2.0, 0.6)])
    x_grid = np.array([[0.0, 0.0], [0.4, -0.3], [-0.6, 0.2]])
    rep = ball_inequality_check(
        young_datum, f, g, x_grid, QuadratureSpec(resolution=256)
    )
    assert isinstance(rep, BallCheckReport)
    assert rep.skipped_x == 0
    assert len(rep.h_values) == 3
    assert rep.slack >= -3.0 * rep.stderr
    assert rep.verdict in ("pass", "inconclusive")
    j = rep.to_json()
    assert j["lhs"] == rep.lhs and j["verdict"] == rep.verdict


def test_ball_check_extremiser_equality(young_datum, young_extremiser):
    # f = g = extremiser: the inequality is saturated, so the slack must
    # vanish up to quadrature noise and the verdict cannot honestly be "pass"
    blocks = young_extremiser.gaussians.blocks
    f = InputTuple([GaussianFunction(A) for A in blocks])
    g = InputTuple([GaussianFunction(A) for A in blocks])
    x_grid = np.array([[0.0, 0.0], [0.3, -0.2]])
    rep = ball_inequality_check(
        young_datum, f, g, x_grid, QuadratureSpec(resolution=256), near_extremiser=True
    )
    assert abs(rep.slack) <= 3.0 * rep.stderr + 1e-4
    assert rep.slack >= -3.0 * rep.stderr
    cons = rep.extremiser_consequences
    assert set(cons) == {"conv_dominates", "localization_dominates"}
    for c in cons.values():
        assert c["slack"] >= -3.0 * c["stderr"]


def test_ball_check_degenerate_grid(young_datum):
    f = indicator_tuple(0.0, 1.0)
    g = indicator_tuple(0.0, 1.0)
    # every L_j x sits ~50 units from the supports, so each h^x vanishes
    x_grid = np.array([[50.0, 25.0]])
    with pytest.raises(DegenerateLocalizationError):
        ball_inequality_check(young_datum, f, g, x_grid, QuadratureSpec(resolution=64))


def test_localized_max_contract():
    # one input, f = g = 1 on [0, 1]: h^x = f g(c - .) lives on [c - 1, c]
    # intersected with [0, 1], and vanishes for c = 5
    f = indicator_tuple(0.0, 1.0, heights=(1.0,))
    centres = [[np.array([c])] for c in (0.5, 5.0, 1.0, 1.5, 0.8, 0.2)]
    values = {0: (1.0, 0.1), 2: (2.0, 0.2), 3: (2.0, 0.3), 4: None, 5: (0.5, 0.0)}
    seen = []

    def ratio(ix, h):
        seen.append(ix)
        c = centres[ix][0][0]
        assert h.functions[0].box == Box([max(c - 1.0, 0.0)], [min(c, 1.0)])
        if values[ix] is None:
            raise ZeroMassError("empty")
        return values[ix]

    results, best = localized_max(f, f, centres, ratio)
    # the vanished h^x never reaches `ratio`, a ZeroMassError gives None, and
    # of the tied largest values the first wins
    assert seen == [0, 2, 3, 4, 5]
    assert results == [(1.0, 0.1), None, (2.0, 0.2), (2.0, 0.3), None, (0.5, 0.0)]
    assert best == 2

    with pytest.raises(DegenerateLocalizationError):
        localized_max(f, f, [centres[1], centres[4]], lambda ix, h: ratio(ix + 3, h))


def test_ball_check_rejects_wrong_x_dimension(young_datum):
    f = indicator_tuple(0.0, 1.0)
    with pytest.raises(ValueError):
        ball_inequality_check(
            young_datum, f, f, np.zeros((1, 3)), QuadratureSpec(resolution=64)
        )


def _ball_check_pair(kind, f_scales=(1.0, 1.0, 1.0), g_scales=(1.0, 1.0, 1.0)):
    if kind == "gaussian":
        f = [GaussianFunction([[a]], math.sqrt(a) * c) for a, c in zip((1.0, 0.8, 1.7), f_scales)]
        g = [GaussianFunction([[a]], math.sqrt(a) * c) for a, c in zip((1.2, 2.0, 0.6), g_scales)]
        return InputTuple(f), InputTuple(g)
    return indicator_tuple(-0.5, 0.5, f_scales), indicator_tuple(-0.4, 0.6, g_scales)


@pytest.mark.parametrize("kind", ["gaussian", "indicator"])
@pytest.mark.parametrize(
    "q",
    [QuadratureSpec(resolution=128), QuadratureSpec(method="monte-carlo", resolution=20000)],
    ids=["tensor-grid-128", "monte-carlo-2e4"],
)
def test_ball_check_is_invariant_under_input_scaling(young_datum, kind, q):
    # every factor of BL(f) BL(g) <= max_x BL(h^x) BL(f*g) is unchanged when
    # an input is multiplied by a positive constant
    x_grid = np.array([[0.0, 0.0], [0.2, -0.1], [-0.3, 0.1]])
    base = ball_inequality_check(young_datum, *_ball_check_pair(kind), x_grid, q)
    scaled = ball_inequality_check(
        young_datum,
        *_ball_check_pair(kind, (2.0, 0.5, 3.7), (0.3, 5.0, 1.9)),
        x_grid,
        q,
    )
    for name in ("bl_f", "bl_g", "bl_conv", "bl_h_max", "lhs", "rhs"):
        assert getattr(scaled, name) == pytest.approx(getattr(base, name), rel=1e-12), name
    assert scaled.verdict == base.verdict


@pytest.mark.parametrize(
    "q",
    [QuadratureSpec(resolution=64), QuadratureSpec(method="monte-carlo", resolution=20000)],
    ids=["tensor-grid-64", "monte-carlo-2e4"],
)
def test_ball_check_with_vanishing_functional(young_datum, q):
    # x1 and x2 in [0, 1] with x1 - x2 in [5, 6] is empty, so BL(f) = 0 and
    # the left side is 0 with no error
    f = InputTuple([IndicatorFunction(Box([lo], [lo + 1.0])) for lo in (0.0, 5.0, 0.0)])
    g = indicator_tuple(-10.0, 10.0)
    rep = ball_inequality_check(young_datum, f, g, np.zeros((1, 2)), q)
    assert rep.bl_f == 0.0 and rep.bl_g > 0.0
    assert rep.lhs == 0.0
    assert math.isfinite(rep.stderr)
    assert rep.slack >= 0.0


def test_ball_check_estimates_each_integral_once(young_datum, monkeypatch):
    # BL(f), BL(g), BL(f*g) and each BL(h^x): one numerator each, since every
    # mass (gaussian, sampled convolution, gaussian product) has a closed form
    calls = []
    inner = mc.monte_carlo

    def counting(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(mc, "monte_carlo", counting)
    x_grid = np.array([[0.0, 0.0], [0.2, -0.1], [-0.3, 0.1]])
    f, g = _ball_check_pair("gaussian")
    ball_inequality_check(
        young_datum, f, g, x_grid, QuadratureSpec(method="monte-carlo", resolution=20000)
    )
    assert len(calls) == 3 + len(x_grid) == 6


def test_sampled_function_rejects_negative_values():
    with pytest.raises(ValueError, match="nonnegative"):
        SampledFunction([np.arange(3.0)], np.array([1.0, -1e-12, 2.0]))


def test_sampled_mass_is_the_interpolant_integral():
    # ten unit cells on [0, 1]: the interpolant is 1 between the first and the
    # last node and 0 on the half-cell margins, so the mass is 0.9 (the cell
    # sum is 1.0) under either method
    cells = SampledFunction([(np.arange(10) + 0.5) / 10], np.ones(10))
    assert cells.native_mass() == pytest.approx(1.0, rel=1e-15)
    for q in (QuadratureSpec(), QuadratureSpec(method="monte-carlo", resolution=1000)):
        assert masses([cells], q) == [(pytest.approx(0.9, rel=1e-15), 0.0)]
    est, err = integrate_function(
        cells, QuadratureSpec(method="monte-carlo", resolution=200_000, seed=1)
    )
    assert abs(est - 0.9) <= 4.0 * err
    # the trapezoid rule in each axis on an uneven 2-D grid
    rng = np.random.default_rng(7)
    axes = [0.3 + (np.arange(13) + 0.5) * 0.2, -1.0 + (np.arange(7) + 0.5) * 0.05]
    vals = rng.uniform(0.0, 2.0, (13, 7))
    grid = SampledFunction(axes, vals)
    inner = np.trapezoid(vals, axes[1], axis=1)
    assert grid.exact_mass == pytest.approx(np.trapezoid(inner, axes[0]), rel=1e-13)
    # an axis of one node spans no length
    flat = SampledFunction([np.array([0.5]), axes[1]], vals[:1])
    assert flat.exact_mass == 0.0
    for q in (QuadratureSpec(), QuadratureSpec(method="monte-carlo", resolution=1000)):
        with pytest.raises(ZeroMassError):
            masses([flat], q)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_sampled_function_matches_regular_grid_interpolator(dim):
    from scipy.interpolate import RegularGridInterpolator

    rng = np.random.default_rng(dim)
    counts = (400, 13, 7)[:dim]
    starts = rng.uniform(-3.0, 3.0, dim)
    steps = rng.uniform(0.01, 0.3, dim)
    axes = [s + (np.arange(k) + 0.5) * h for s, h, k in zip(starts, steps, counts)]
    vals = rng.uniform(0.0, 2.0, counts) * (rng.uniform(size=counts) < 0.9)
    f = SampledFunction(axes, vals)
    lo = np.array([a[0] for a in axes])
    hi = np.array([a[-1] for a in axes])
    margin = 0.5 * f.steps
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    pts = np.vstack(
        [
            rng.uniform(lo - 2.0 * margin, hi + 2.0 * margin, (4000, dim)),
            nodes,
            np.nextafter(nodes, -np.inf),
            np.nextafter(nodes, np.inf),
            [lo, hi, lo - 0.5 * margin, hi + 0.5 * margin, lo - 3.0, hi + 3.0],
        ]
    )
    ours = f(pts)
    ref = np.maximum(
        RegularGridInterpolator(axes, vals, bounds_error=False, fill_value=0.0)(pts), 0.0
    )
    inside = np.all((pts >= lo) & (pts <= hi), axis=1)
    assert np.all(ours[~inside] == 0.0) and inside.sum() > 2000
    if dim == 2:
        # scipy's compiled 2-D path multiplies the weights in another order
        assert np.all(np.abs(ours - ref) <= 4.0 * np.spacing(ref))
    else:
        assert ours.tobytes() == ref.tobytes()


def test_estimate_agrees_across_estimators_on_a_ball():
    from blscales.functional import estimate

    A = np.array([[2.0, 0.3], [0.3, 1.0]])
    g = GaussianFunction(A, center=[0.1, -0.05])
    ball = (np.array([0.0, 0.1]), 0.6)
    grid = estimate(g, QuadratureSpec(resolution=512), 0, ball=ball)
    # tensor-grid ignores a proposal
    assert estimate(g, QuadratureSpec(resolution=512), 0, ball=ball, proposal=(g.center, A)) == grid
    mc_q = QuadratureSpec(method="monte-carlo", resolution=200000, seed=4)
    uniform = estimate(g, mc_q, 7, ball=ball)
    importance = estimate(g, mc_q, 7, ball=ball, proposal=(g.center, A))
    assert 0.0 < grid.value < g.exact_mass
    assert grid.stderr < 1e-4
    for est in (uniform, importance):
        assert abs(est.value - grid.value) <= 4.0 * est.stderr + grid.stderr


# ---------------------------------------------------------------------------
# the log-space pullback


def _random_input(rng, kind: str, dim: int):
    """An input on R^dim of the given kind; all but a gaussian of positive
    amplitude vanish on part of the region the test's points reach."""
    lo = rng.uniform(-2.0, 0.0, dim)
    hi = lo + rng.uniform(1.0, 3.0, dim)
    if kind == "gaussian":
        B = rng.normal(size=(dim, dim))
        amplitude = 0.0 if rng.random() < 0.2 else rng.uniform(0.2, 3.0)
        return GaussianFunction(B @ B.T / dim + 0.2 * np.eye(dim), amplitude, rng.normal(size=dim))
    if kind == "indicator":
        return IndicatorFunction(Box(lo, hi), rng.uniform(0.2, 3.0))
    if kind == "sampled":
        axes = [np.linspace(a, b, 5) for a, b in zip(lo, hi)]
        values = rng.uniform(0.0, 2.0, (5,) * dim)
        values[rng.random(values.shape) < 0.3] = 0.0
        return SampledFunction(axes, values)
    shift = rng.normal(size=dim)
    return CallableFunction(
        lambda pts: np.maximum(1.0 - np.sum((pts - shift) ** 2, axis=1) / 4.0, 0.0) ** 2,
        Box(shift - 2.0, shift + 2.0),
    )


@settings(max_examples=30, deadline=None)
@given(
    kinds=st.lists(
        st.sampled_from(["gaussian", "indicator", "sampled", "callable"]), min_size=3, max_size=3
    ),
    exponents=st.lists(
        st.sampled_from([0.0, 0.25, 0.5, 2.0 / 3.0, 1.0]), min_size=3, max_size=3
    ),
    heisenberg=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_pullback_is_the_product_of_powers(kinds, exponents, heisenberg, seed):
    rng = np.random.default_rng(seed)
    if heisenberg:
        maps = registry("young-heisenberg").submersions
        n, dims = 6, [3, 3, 3]
    else:
        n = 3
        dims = [int(d) for d in rng.integers(1, 3, size=3)]
        maps = [rng.normal(size=(d, n)) for d in dims]
    funcs = [_random_input(rng, kind, d) for kind, d in zip(kinds, dims)]
    pts = rng.uniform(-1.0, 1.0, (500, n))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = pullback(maps, exponents, funcs)(pts)
    expected = np.ones(len(pts))
    for B, p, f in zip(maps, exponents, funcs):
        if p != 0.0:
            image = B(pts) if callable(B) else pts @ B.T
            expected *= f(image) ** p
    zero = expected == 0.0
    assert np.all(got[zero] == 0.0)
    np.testing.assert_allclose(got[~zero], expected[~zero], rtol=1e-12, atol=0.0)

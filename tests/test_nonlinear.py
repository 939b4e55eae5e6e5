"""Localized nonlinear constants: registry data, constancy certification,
base case, recursive step, and the perturbation comparison."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blscales import nonlinear
from blscales.datum import BLDatum
from blscales.functional import (
    Box,
    CallableFunction,
    DegenerateLocalizationError,
    GaussianFunction,
    IndicatorFunction,
    InputTuple,
    QuadratureSpec,
    ZeroMassError,
)
from blscales.gaussians import scale_gaussian, solve_extremiser, truncation_deficit
from blscales.nonlinear import (
    LinearizationError,
    LocalizedProblem,
    NonlinearDatum,
    Submersion,
    ThresholdError,
    UncertifiedInputError,
    ball_sampler,
    base_case_check,
    image_sampler,
    is_kappa_constant,
    lie_group_young,
    localization_radius,
    localized_ratio,
    perturbation_check,
    recursive_step_check,
    registry,
    validate_submersion,
)

ROOT3_OVER_2 = 0.8660254037844386


def scaled_extremiser_inputs(nd, delta, tol=1e-10):
    ext = solve_extremiser(nd.linearize(), tol=tol)
    assert ext.converged
    g = scale_gaussian(ext.gaussians, delta)
    return InputTuple(
        [GaussianFunction(A, c) for A, c in zip(g.blocks, g.amplitudes)]
    )


# ---------------------------------------------------------------------------
# registry and submersion validation


def _registry_examples() -> list:
    """A tag for each registry pattern but `linear`: <d> filled with 1 and 2,
    <gamma> with 0.3."""
    tags = []
    for pattern in nonlinear.REGISTRY_TAGS:
        if pattern == "linear":
            continue
        if "<d>" in pattern:
            tags += [pattern.replace("<d>", "1"), pattern.replace("<d>", "2")]
        else:
            tags.append(pattern.replace("<gamma>", "0.3"))
    return tags


@pytest.mark.parametrize("tag", _registry_examples())
def test_registry_data_validate(tag):
    nd = registry(tag)
    assert nd.validate() == []
    assert nd.m == 3
    assert nd.sigma == pytest.approx(2.0)


def test_registry_linear_needs_datum(young_datum):
    with pytest.raises(ValueError):
        registry("linear")
    nd = registry("linear", datum=young_datum)
    assert nd.validate() == []
    lin = nd.linearize()
    for A, B in zip(lin.maps, young_datum.maps):
        assert np.array_equal(A, B)


def test_registry_rejects_bad_tags():
    with pytest.raises(ValueError, match="available"):
        registry("young-solvable")
    with pytest.raises(ValueError):
        registry("young-euclidean-0")
    with pytest.raises(ValueError):
        registry("perturbed-quadratic:-1")


def test_heisenberg_jacobian_matches_central_differences():
    nd = registry("young-heisenberg")
    s = nd.submersions[1]
    rng = np.random.default_rng(17)
    h = 1e-6
    for _ in range(5):
        w = rng.uniform(-0.4, 0.4, 6)
        J = s.jacobian(w)
        for i in range(6):
            e = np.zeros(6)
            e[i] = h
            fd = (s(w + e) - s(w - e))[0] / (2.0 * h)
            assert np.allclose(fd, J[:, i], atol=1e-7)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_young_euclidean_is_the_linear_young_datum(d):
    I, Z = np.eye(d), np.zeros((d, d))
    maps = [np.hstack([Z, I]), np.hstack([I, -I]), np.hstack([I, Z])]
    nd = registry(f"young-euclidean-{d}")
    rng = np.random.default_rng(d)
    pts = rng.normal(size=(1000, 2 * d)) * np.logspace(-3, 1, 1000)[:, None]
    for s, L in zip(nd.submersions, maps):
        assert s.c2_bound == 0.0
        assert s(pts).tobytes() == (pts @ L.T).tobytes()
        assert all(s.jacobian(w).tobytes() == L.tobytes() for w in pts)


@settings(max_examples=30, deadline=None)
@given(d=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
def test_step2_group_jacobian_and_derived_c2(d, seed):
    # a random central bracket: the first g coordinates bracket into the last
    # d - g, which bracket with nothing, so the group has step 2
    rng = np.random.default_rng(seed)
    g = int(rng.integers(1, d))
    C = np.zeros((d, d, d))
    for k in range(g, d):
        for a in range(g):
            for b in range(a + 1, g):
                if rng.random() < 0.7:
                    C[k, a, b] = rng.normal()
                    C[k, b, a] = -C[k, a, b]
    s = nonlinear._step2_group(C)[1]
    K = math.sqrt(sum(np.linalg.norm(Ck, 2) ** 2 for Ck in C))
    assert s.c2_bound == pytest.approx(K / 4.0, rel=1e-12)
    h = 1e-6
    for w in rng.uniform(-1.0, 1.0, (3, 2 * d)):
        J = s.jacobian(w)
        for i in range(2 * d):
            e = np.zeros(2 * d)
            e[i] = h
            fd = (s(w + e) - s(w - e))[0] / (2.0 * h)
            assert np.allclose(fd, J[:, i], atol=1e-7)
    # the Taylor remainder never exceeds (K/4) |step|^2
    centres = rng.uniform(-1.0, 1.0, (500, 2 * d))
    steps = rng.normal(size=(500, 2 * d)) * rng.uniform(0.01, 1.0, (500, 1))
    lin = np.array([s.jacobian(c) @ v for c, v in zip(centres, steps)])
    rem = np.linalg.norm(s(centres + steps) - s(centres) - lin, axis=1)
    assert np.all(rem <= K / 4.0 * np.sum(steps**2, axis=1) * (1.0 + 1e-9) + 1e-12)
    C[-1, 0, 0] = 1.0
    with pytest.raises(ValueError, match="antisymmetric"):
        nonlinear._step2_group(C)


def test_affine_group_jacobian_matches_central_differences():
    nd = registry("young-affine-2d")
    s = nd.submersions[1]
    rng = np.random.default_rng(23)
    h = 1e-6
    for _ in range(5):
        w = rng.uniform(-0.3, 0.3, 4)
        J = s.jacobian(w)
        for i in range(4):
            e = np.zeros(4)
            e[i] = h
            fd = (s(w + e) - s(w - e))[0] / (2.0 * h)
            assert np.allclose(fd, J[:, i], atol=1e-6)


def test_heisenberg_c2_bound_is_sharp():
    s = registry("young-heisenberg").submersions[1]
    # the remainder is exactly the bracket term; the direction below attains
    # |rem| = |w|^2 / 4
    w = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0]) / math.sqrt(2.0)
    for t in (0.5, 0.1, 0.02):
        c = np.zeros(6)
        rem = (s(c + t * w) - s(c[None, :]))[0] - (s.jacobian(c) @ (t * w))
        ratio = np.abs(rem).max() / t**2
        assert ratio == pytest.approx(0.25, rel=1e-9)
    # random pairs never exceed the declared bound
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(2000):
        c = rng.uniform(-0.5, 0.5, 6)
        d = rng.uniform(-0.3, 0.3, 6)
        rem = (s(c + d) - s(c[None, :]))[0] - (s.jacobian(c) @ d)
        worst = max(worst, float(np.abs(rem).max()) / float(d @ d))
    assert 0.2 <= worst <= 0.25 * (1.0 + 1e-12)


def test_validate_submersion_flags_wrong_jacobian():
    s = Submersion(
        map=lambda pts: np.sin(np.atleast_2d(pts)[:, :1]),
        jacobian=lambda x: np.array([[2.0]]),
        base_point=np.zeros(1),
        c2_bound=0.5,
    )
    msgs = validate_submersion(s)
    assert any("finite difference" in m for m in msgs)


def test_validate_submersion_reads_c2_in_the_euclidean_norm():
    # the remainder (h1^2, h1^2) has max-norm <= |h|^2 but euclidean norm up
    # to sqrt(2) |h|^2, which is the norm the kappa certificate relies on
    def make(c2):
        return Submersion(
            map=lambda pts: np.atleast_2d(pts) + np.atleast_2d(pts)[:, :1] ** 2,
            jacobian=lambda x: np.array([[1.0 + 2.0 * x[0], 0.0], [2.0 * x[0], 1.0]]),
            base_point=np.zeros(2),
            c2_bound=c2,
        )

    assert any("quadratic remainder" in m for m in validate_submersion(make(1.0)))
    assert validate_submersion(make(math.sqrt(2.0))) == []


@pytest.mark.parametrize("tag", ["linear", *_registry_examples()])
def test_affine_is_the_value_and_the_jacobian(tag, young_datum):
    nd = registry(tag, datum=young_datum if tag == "linear" else None)
    rng = np.random.default_rng(31)
    for s in nd.submersions:
        for c in rng.uniform(-0.4, 0.4, (5, nd.n)):
            b, J = s.affine(c)
            assert b.tobytes() == s(c[None, :])[0].tobytes()
            assert J.tobytes() == np.atleast_2d(s.jacobian(c)).tobytes()
            assert J.shape == (b.shape[0], nd.n)


def _vector_remainder(c2: float) -> Submersion:
    # B(w) = w + w1^2 (1, 1, 1): the remainder h1^2 (1, 1, 1) has max norm
    # h1^2 but euclidean norm sqrt(3) h1^2
    return Submersion(
        map=lambda pts: pts + pts[:, :1] ** 2 * np.ones(3),
        jacobian=lambda w: np.eye(3) + np.outer(np.ones(3), [2.0 * w[0], 0.0, 0.0]),
        base_point=np.zeros(3),
        c2_bound=c2,
    )


def test_sampled_c2_is_read_in_the_euclidean_norm():
    c2 = nonlinear._estimate_c2(_vector_remainder(0.0), 0.6)
    assert math.sqrt(3.0) <= c2 <= 1.5 * math.sqrt(3.0)
    assert validate_submersion(_vector_remainder(c2)) == []
    # the same scan in the max norm, c2 / sqrt(3), is too small
    assert any(
        "quadratic remainder" in m
        for m in validate_submersion(_vector_remainder(c2 / math.sqrt(3.0)))
    )


def test_estimate_c2_scans_each_chunk_in_one_batch():
    s = _vector_remainder(0.0)
    calls = []
    plain = s.map
    s.map = lambda pts: calls.append(len(pts)) or plain(pts)
    nonlinear._estimate_c2(s, 0.6)
    chunks = sum(1 for _ in nonlinear.mc.iter_chunks(4096))
    assert len(calls) <= 2 * chunks
    assert sum(calls) == 2 * 4096


def test_validate_submersion_flags_nonsurjective():
    s = Submersion(
        map=lambda pts: 0.0 * np.atleast_2d(pts)[:, :1],
        jacobian=lambda x: np.zeros((1, 2)),
        base_point=np.zeros(2),
        c2_bound=0.0,
    )
    msgs = validate_submersion(s)
    assert any("surjective" in m for m in msgs)


# ---------------------------------------------------------------------------
# kappa-constancy


def test_kappa_constancy_gaussian_band():
    fn = GaussianFunction(np.eye(1))
    R, mu = 2.0, 0.05
    # sup of fn(x)/fn(y) over |x| <= R, |x - y| <= mu
    analytic = math.exp(math.pi * (2.0 * R * mu + mu * mu))
    rep = is_kappa_constant(fn, ball_sampler(np.zeros(1), R), mu, analytic, samples=20000)
    assert rep.ok
    assert rep.worst_ratio <= analytic * (1.0 + 1e-9)
    rejected = is_kappa_constant(
        fn, ball_sampler(np.zeros(1), R), mu, 1.5, samples=20000
    )
    assert not rejected.ok
    assert rejected.worst_ratio > 1.5
    # witness pair reproduces the reported ratio exactly
    wx, wy = rejected.witness_x, rejected.witness_y
    again = float(fn(wx[None, :])[0] / fn(wy[None, :])[0])
    assert again == pytest.approx(rejected.worst_ratio, rel=1e-12)
    assert np.linalg.norm(wx - wy) <= mu * (1.0 + 1e-12)


def test_kappa_constancy_ignores_subnormal_noise():
    # a sharply scaled gaussian underflows to subnormals over much of the
    # region; quotients there are quantization noise and must not refute a
    # level the true function satisfies
    nd = registry("perturbed-quadratic:0.0")
    f = scaled_extremiser_inputs(nd, 0.001)
    fn = f.functions[1]
    a = float(fn.A[0, 0])
    R = math.sqrt(2.0) * 2.0 * localization_radius(0.001)
    mu = 3e-6
    analytic = math.exp(math.pi * a * (2.0 * R * mu + mu * mu))
    sampler = ball_sampler(np.zeros(1), R)
    rep = is_kappa_constant(fn, sampler, mu, analytic, samples=20000)
    assert rep.ok
    assert rep.worst_ratio <= analytic * (1.0 + 1e-9)


def test_kappa_constancy_exact_zero_is_violation():
    from blscales.functional import Box, IndicatorFunction

    fn = IndicatorFunction(Box([0.0], [1.0]))
    rep = is_kappa_constant(
        fn, ball_sampler(np.array([1.0]), 0.1), mu=0.05, kappa=100.0, samples=5000
    )
    assert not rep.ok
    assert math.isinf(rep.worst_ratio)
    assert float(fn(rep.witness_x[None, :])[0]) > 0.0
    assert float(fn(rep.witness_y[None, :])[0]) == 0.0


def test_kappa_certificate_is_the_closed_form_bound():
    # on a ball about the gaussian's centre the bound is the exact supremum
    # exp(pi (2 R mu + mu^2)), inflated by the rounding margin only
    fn = GaussianFunction(np.eye(1))
    R, mu = 2.0, 0.05
    analytic = math.exp(math.pi * (2.0 * R * mu + mu * mu))
    region = ball_sampler(np.zeros(1), R)
    rep = is_kappa_constant(fn, region, mu, analytic * (1.0 + 2e-12))
    assert (rep.ok, rep.status, rep.samples) == (True, "certified", 0)
    assert rep.witness_x is None and rep.witness_y is None
    assert rep.worst_ratio == pytest.approx(analytic * (1.0 + 1e-12), rel=1e-14)
    # at the level itself the margin withholds the certificate
    at_level = is_kappa_constant(fn, region, mu, analytic, samples=2000)
    assert (at_level.ok, at_level.status, at_level.samples) == (True, "sampled", 2000)
    refuted = is_kappa_constant(fn, region, mu, 1.5, samples=2000)
    assert (refuted.ok, refuted.status) == (False, "refuted")
    # a plain callable region carries no geometry, so it is sampled
    plain = is_kappa_constant(fn, lambda gen, k: region(gen, k), mu, 10.0, samples=2000)
    assert plain.status == "sampled"


def _random_region(rng, kind):
    """A region of each kind the certificate encloses: a ball, or a ball
    pushed through a linear map, the Heisenberg quotient map or a
    perturbed-quadratic map."""
    if kind == "ball":
        d = int(rng.integers(1, 4))
        return ball_sampler(rng.normal(size=d), rng.uniform(0.01, 1.0)), d
    if kind == "linear":
        d = int(rng.integers(1, 4))
        n = d + int(rng.integers(0, 2))
        datum = BLDatum(n=n, maps=[rng.normal(size=(d, n))], exponents=[1.0])
        s = registry("linear", datum=datum).submersions[0]
    elif kind == "heisenberg":
        d, s = 3, registry("young-heisenberg").submersions[1]
    else:
        gamma = rng.uniform(0.0, 2.0)
        d, s = 1, registry(f"perturbed-quadratic:{gamma}").submersions[int(rng.integers(0, 3))]
    return image_sampler(s, rng.normal(scale=0.5, size=s.n), rng.uniform(0.01, 1.0)), d


@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(["ball", "linear", "heisenberg", "perturbed"]),
    seed=st.integers(0, 2**32 - 1),
    mu=st.floats(1e-4, 0.1),
)
def test_kappa_certificate_bounds_the_sampled_ratio(kind, seed, mu):
    rng = np.random.default_rng(seed)
    region, d = _random_region(rng, kind)
    B = rng.normal(size=(d, d))
    fn = GaussianFunction(B @ B.T + 0.1 * np.eye(d), center=rng.normal(size=d))
    rep = is_kappa_constant(fn, region, mu, math.inf)
    assert (rep.status, rep.samples) == ("certified", 0)
    # the same region as a plain callable: same points, sampled pairs
    sampled = is_kappa_constant(fn, lambda gen, k: region(gen, k), mu, math.inf, samples=4096)
    assert sampled.status == "sampled"
    assert sampled.worst_ratio <= rep.worst_ratio


def test_scaled_extremiser_below_the_certificate_is_refuted_by_sampling():
    # the base case that the heis-induction schedule reaches (delta_0 0.05,
    # alpha 1.5, k* = 2): at delta = 0.00118 the scaled extremiser is not
    # 2.92-constant at scale mu = 5e-5; the closed form cannot certify it and
    # the sampled check finds a witness
    nd = registry("young-heisenberg")
    f = scaled_extremiser_inputs(nd, 0.00118)
    lp = LocalizedProblem(center=np.zeros(6), delta=0.00118, mu=5e-5, kappa=2.92)
    with pytest.raises(UncertifiedInputError, match="input 0") as exc:
        localized_ratio(nd, lp, f, QuadratureSpec(method="monte-carlo", resolution=1000))
    wx, wy = exc.value.witness
    fn = f.functions[0]
    assert float(fn(wx[None, :])[0] / fn(wy[None, :])[0]) > 2.92
    assert np.linalg.norm(wx - wy) <= lp.mu * (1.0 + 1e-12)


def test_localized_ratio_matches_sharp_constant():
    nd = registry("young-euclidean-1")
    lp = LocalizedProblem(center=(0.0, 0.0), delta=0.05, mu=1e-4, kappa=1.5)
    f = scaled_extremiser_inputs(nd, 0.05)
    ratio, err = localized_ratio(nd, lp, f, QuadratureSpec(resolution=512))
    assert abs(ratio - ROOT3_OVER_2) <= 2e-3
    assert ratio <= ROOT3_OVER_2 + 1e-9


def test_localized_ratio_rejects_uncertified_inputs():
    nd = registry("young-euclidean-1")
    # at step mu = 0.01 the delta-scale gaussian swings far beyond kappa = 1.5
    lp = LocalizedProblem(center=(0.0, 0.0), delta=0.05, mu=0.01, kappa=1.5)
    f = scaled_extremiser_inputs(nd, 0.05)
    with pytest.raises(UncertifiedInputError) as exc:
        localized_ratio(nd, lp, f, QuadratureSpec(resolution=64))
    wx, wy = exc.value.witness
    assert wx is not None and wy is not None


def test_localized_problem_validation():
    with pytest.raises(ValueError):
        LocalizedProblem(center=(0.0,), delta=1.5, mu=1e-4, kappa=1.5)
    with pytest.raises(ValueError):
        LocalizedProblem(center=(0.0,), delta=0.1, mu=0.0, kappa=1.5)
    with pytest.raises(ValueError):
        LocalizedProblem(center=(0.0,), delta=0.1, mu=1e-4, kappa=0.5)
    lp = LocalizedProblem(center=(0.0,), delta=0.1, mu=1e-4, kappa=1.5)
    assert lp.radius == pytest.approx(0.1 * math.log(10.0), rel=1e-15)
    assert lp.regime(1.5, 0.4) == "recursive"
    assert lp.regime(1.5, 0.4) == "recursive"
    base = LocalizedProblem(center=(0.0,), delta=0.1, mu=0.5, kappa=1.5)
    assert base.regime(1.5, 0.4) == "base"
    with pytest.raises(ValueError):
        localization_radius(1.0)


def _young_plane_ratio(inputs, q):
    nd = registry("young-euclidean-1")
    lp = LocalizedProblem(center=(0.0, 0.0), delta=0.2, mu=1e-4, kappa=1.5)
    return localized_ratio(nd, lp, inputs, q, certify=False)


def test_localized_ratio_importance_sampled_matches_grid():
    nd = registry("young-euclidean-1")
    f = scaled_extremiser_inputs(nd, 0.2)
    grid, _ = _young_plane_ratio(f, QuadratureSpec(resolution=1024))
    ratio, err = _young_plane_ratio(
        f, QuadratureSpec(method="monte-carlo", resolution=200_000, seed=1)
    )
    assert grid == pytest.approx(0.8636604, abs=1e-6)
    assert abs(ratio - grid) <= 4.0 * err
    # uniform sampling of the ball gives 3.4e-3 here
    assert err <= 3e-4
    # the ball misses at most the truncation deficit of the mass
    lin = nd.linearize()
    g = scale_gaussian(solve_extremiser(lin).gaussians, 0.2)
    deficit, _ = truncation_deficit(lin, g, 0.2, eta=0.4 / 1.5)
    assert ROOT3_OVER_2 * (1.0 - deficit) <= ratio <= ROOT3_OVER_2


def test_localized_ratio_importance_sampled_heisenberg():
    row = lie_group_young(
        "young-heisenberg",
        deltas=[0.05],
        q=QuadratureSpec(method="monte-carlo", resolution=200_000, seed=1),
    )["rows"][0]
    # uniform sampling of the ball gives a standard error of 0.029 here
    assert abs(row.ratio - 0.75**1.5) <= 1e-4
    assert row.stderr <= 1e-4


def test_localized_ratio_callable_inputs_sample_the_ball_uniformly():
    nd = registry("young-euclidean-1")
    f = scaled_extremiser_inputs(nd, 0.2)
    wrapped = InputTuple(
        [CallableFunction(fj, fj.box, mass=fj.exact_mass) for fj in f.functions]
    )
    ratio, err = _young_plane_ratio(
        wrapped, QuadratureSpec(method="monte-carlo", resolution=200_000, seed=1)
    )
    assert (ratio, err) == (0.8614612265381897, 0.003393603629245855)


def test_localized_ratio_heisenberg_anchor():
    # the importance-sampled integral of heis-induction: a change of the
    # monte-carlo kernel that keeps the samples may move it by rounding only
    nd = registry("young-heisenberg")
    f = scaled_extremiser_inputs(nd, 0.05)
    lp = LocalizedProblem(center=np.zeros(6), delta=0.05, mu=5e-5, kappa=1.5)
    q = QuadratureSpec(method="monte-carlo", resolution=50_000, seed=3)
    ratio, err = localized_ratio(nd, lp, f, q, certify=False)
    assert ratio == pytest.approx(0.6495164715135379, rel=1e-12)
    assert err == pytest.approx(2.5519128568971822e-05, rel=1e-12)


# ---------------------------------------------------------------------------
# base case


def test_base_case_passes_in_base_regime():
    nd = registry("perturbed-quadratic:0.5")
    lp = LocalizedProblem(center=(0.0, 0.0), delta=0.01, mu=1.5e-3, kappa=1.05)
    f = scaled_extremiser_inputs(nd, 1.0)
    rep = base_case_check(
        nd, lp, f, QuadratureSpec(resolution=128), alpha=1.5, beta_prime=0.4
    )
    assert rep.verdict == "pass"
    assert rep.threshold == pytest.approx(0.01**1.9, rel=1e-12)
    assert rep.linearization_dev <= rep.dev_bound <= lp.mu
    assert rep.linearization_dev == rep.dev_bound
    assert rep.bl_linear == pytest.approx(ROOT3_OVER_2, rel=1e-9)
    assert rep.bound == pytest.approx(1.05**2 * ROOT3_OVER_2, rel=1e-9)
    assert 0.0 < rep.ratio < rep.bound
    j = rep.to_json()
    assert j["verdict"] == "pass" and "extremiser" not in j


def test_base_case_threshold_guard():
    nd = registry("perturbed-quadratic:0.5")
    lp = LocalizedProblem(center=(0.0, 0.0), delta=0.01, mu=1e-6, kappa=1.05)
    f = scaled_extremiser_inputs(nd, 1.0)
    with pytest.raises(ThresholdError, match="recursive regime"):
        base_case_check(
            nd, lp, f, QuadratureSpec(resolution=64), alpha=1.5, beta_prime=0.4
        )


def test_base_case_linearization_guard():
    nd = registry("perturbed-quadratic:0.5")
    # mu sits above the regime threshold but below c2 r^2
    lp = LocalizedProblem(center=(0.0, 0.0), delta=0.01, mu=3e-4, kappa=1.05)
    f = scaled_extremiser_inputs(nd, 1.0)
    with pytest.raises(LinearizationError, match="deviation"):
        base_case_check(
            nd, lp, f, QuadratureSpec(resolution=64), alpha=1.5, beta_prime=0.4
        )


# ---------------------------------------------------------------------------
# recursive step


def test_recursive_step_linear_equality(young_datum):
    # for a linear datum with gaussian extremiser inputs the two sides of the
    # recursion describe the same scale-invariant quantity
    nd = registry("linear", datum=young_datum)
    lp = LocalizedProblem(center=(0.0, 0.0), delta=0.05, mu=1e-6, kappa=2.0)
    f = scaled_extremiser_inputs(nd, 0.05)
    x_grid = np.array([[0.0, 0.0], [0.05, -0.04]])
    rep = recursive_step_check(
        nd, lp, f, x_grid, QuadratureSpec(resolution=512),
        alpha=1.5, beta=0.3, beta_prime=0.4,
    )
    assert rep.equality_gap <= 1e-5
    assert rep.verdict == "pass"
    assert rep.slack > 0.2
    # both grid points localize the same scale-invariant ratio, so the argmax
    # is decided at quadrature-noise level; only the values are meaningful
    assert rep.max_ratio == pytest.approx(rep.lhs, abs=1e-5)
    assert rep.delta_fine == pytest.approx(0.05**1.5, rel=1e-12)
    assert rep.kappa_fine == pytest.approx(2.0 * math.exp(0.05**0.3), rel=1e-12)
    assert all(c["ok"] for c in rep.certifications)
    assert {c["kind"] for c in rep.certifications} == {"kernel", "product"}
    j = rep.to_json()
    assert len(j["entries"]) == 2
    assert j["equality_gap"] == rep.equality_gap


def test_recursive_step_regime_guard(young_datum):
    nd = registry("linear", datum=young_datum)
    lp = LocalizedProblem(center=(0.0, 0.0), delta=0.05, mu=0.01, kappa=2.0)
    f = scaled_extremiser_inputs(nd, 0.05)
    with pytest.raises(ThresholdError, match="base regime"):
        recursive_step_check(
            nd, lp, f, np.zeros((1, 2)), QuadratureSpec(resolution=64),
            alpha=1.5, beta=0.3, beta_prime=0.4,
        )


def test_recursive_step_rejects_far_x(young_datum):
    nd = registry("linear", datum=young_datum)
    lp = LocalizedProblem(center=(0.0, 0.0), delta=0.05, mu=1e-6, kappa=2.0)
    f = scaled_extremiser_inputs(nd, 0.05)
    with pytest.raises(ValueError, match="doubled"):
        recursive_step_check(
            nd, lp, f, np.array([[1.0, 0.0]]), QuadratureSpec(resolution=64),
            alpha=1.5, beta=0.3, beta_prime=0.4,
        )


def test_recursive_step_records_the_left_side_certifications(young_datum):
    nd = registry("linear", datum=young_datum)
    lp = LocalizedProblem(center=(0.0, 0.0), delta=0.05, mu=1e-6, kappa=2.0)
    f = scaled_extremiser_inputs(nd, 0.05)
    x_grid = np.array([[0.0, 0.0], [0.05, -0.04]])
    rep = recursive_step_check(
        nd, lp, f, x_grid, QuadratureSpec(resolution=64), alpha=1.5, beta=0.3, beta_prime=0.4
    )
    assert rep.admissible is True
    assert rep.verdict == "pass"
    assert [c["input"] for c in rep.lhs_certifications] == [0, 1, 2]
    for c in rep.lhs_certifications:
        assert (c["x_index"], c["kind"], c["level"]) == (None, "input", 2.0)
        assert (c["ok"], c["status"], c["samples"]) == (True, "certified", 0)
        assert 1.0 <= c["worst_ratio"] <= 2.0
    assert set(rep.lhs_certifications[0]) == set(rep.certifications[0])


def test_recursive_step_raises_on_uncertified_left_side(young_datum):
    # the witness is the one `localized_ratio` finds on the same streams
    nd = registry("linear", datum=young_datum)
    lp = LocalizedProblem(center=(0.0, 0.0), delta=0.05, mu=0.01, kappa=1.5)
    f = scaled_extremiser_inputs(nd, 0.05)
    q = QuadratureSpec(resolution=64)
    with pytest.raises(UncertifiedInputError) as direct:
        localized_ratio(nd, lp, f, q)
    with pytest.raises(UncertifiedInputError) as step:
        recursive_step_check(
            nd, lp, f, np.zeros((1, 2)), q, alpha=1.5, beta=0.3, beta_prime=0.01
        )
    assert str(step.value) == str(direct.value)
    for a, b in zip(step.value.witness, direct.value.witness):
        assert np.array_equal(a, b)


def test_recursive_step_raises_when_every_localized_tuple_vanishes(young_datum):
    # inputs on [5, 6] miss every localizing gaussian near 0, so each h^x has
    # a vanished factor and there is no right side to compare with lhs = 0
    nd = registry("linear", datum=young_datum)
    lp = LocalizedProblem(center=(0.0, 0.0), delta=0.05, mu=1e-6, kappa=2.0)
    f = InputTuple([IndicatorFunction(Box([5.0], [6.0]))] * 3)
    q = QuadratureSpec(resolution=64)
    assert localized_ratio(nd, lp, f, q) == (0.0, 0.0)
    with pytest.raises(DegenerateLocalizationError):
        recursive_step_check(
            nd, lp, f, np.zeros((1, 2)), q, alpha=1.5, beta=0.3, beta_prime=0.4
        )


def test_recursive_step_absorbs_only_zero_mass(young_datum, monkeypatch):
    nd = registry("linear", datum=young_datum)
    lp = LocalizedProblem(center=(0.0, 0.0), delta=0.05, mu=1e-6, kappa=2.0)
    f = scaled_extremiser_inputs(nd, 0.05)
    x_grid = np.array([[0.0, 0.0], [0.05, -0.04]])
    q = QuadratureSpec(resolution=64)
    original = nonlinear.localized_ratio

    def failing(error):
        def ratio(nd, lp, f, q, certify=True, _stream_base=0):
            if _stream_base == 1100:  # the fine-scale ratio at x_grid[1]
                raise error
            return original(nd, lp, f, q, certify=certify, _stream_base=_stream_base)

        return ratio

    monkeypatch.setattr(nonlinear, "localized_ratio", failing(ZeroMassError("empty")))
    rep = recursive_step_check(nd, lp, f, x_grid, q, alpha=1.5, beta=0.3, beta_prime=0.4)
    assert rep.entries[1].ratio is None and rep.entries[1].stderr is None
    assert rep.max_ratio == rep.entries[0].ratio

    monkeypatch.setattr(nonlinear, "localized_ratio", failing(ValueError("not a mass")))
    with pytest.raises(ValueError, match="not a mass"):
        recursive_step_check(nd, lp, f, x_grid, q, alpha=1.5, beta=0.3, beta_prime=0.4)


def test_localized_ratio_zero_mass_error(young_datum):
    nd = registry("linear", datum=young_datum)
    lp = LocalizedProblem(center=(0.0, 0.0), delta=0.05, mu=1e-6, kappa=2.0)
    f = InputTuple([IndicatorFunction(Box([-1.0], [1.0]), height=0.0)] * 3)
    with pytest.raises(ZeroMassError):
        localized_ratio(nd, lp, f, QuadratureSpec(resolution=16), certify=False)


# ---------------------------------------------------------------------------
# perturbation comparison


def test_perturbation_heisenberg_budget():
    nd = registry("young-heisenberg")
    u = np.zeros(6)
    q = QuadratureSpec(method="monte-carlo", resolution=400000, seed=0)
    prev = 0.0
    for delta in (0.1, 0.05, 0.025):
        rloc = localization_radius(delta)
        y = np.zeros(6)
        y[0] = 0.5 * rloc
        y[4] = -0.25 * rloc
        rep = perturbation_check(
            nd, u, y, delta, q, alpha=1.5, beta_prime=0.4
        )
        assert rep.verdict == "pass"
        assert rep.gamma == pytest.approx(0.45)
        assert rep.slack >= 0.0
        assert rep.l1_bound == pytest.approx(delta**0.45, rel=1e-12)
        assert 0.0 < rep.l1_diff <= rep.l1_bound
        # the log factor dominates at these scales, so the distance grows
        # even as delta shrinks
        assert rep.l1_diff > prev
        prev = rep.l1_diff


def test_perturbation_rejects_bad_arguments():
    nd = registry("young-heisenberg")
    u = np.zeros(6)
    q = QuadratureSpec(method="monte-carlo", resolution=1000)
    far = np.zeros(6)
    far[0] = 2.0 * localization_radius(0.05)
    with pytest.raises(ValueError, match="U_delta"):
        perturbation_check(nd, u, far, 0.05, q, alpha=1.5, beta_prime=0.4)
    y = np.zeros(6)
    y[0] = 0.5 * localization_radius(0.05)
    with pytest.raises(ValueError, match="gamma"):
        perturbation_check(
            nd, u, y, 0.05, q, alpha=1.5, beta_prime=0.4, gamma=0.3
        )
    with pytest.raises(ValueError, match="gamma"):
        perturbation_check(
            nd, u, y, 0.05, q, alpha=1.5, beta_prime=0.4, gamma=0.6
        )
    with pytest.raises(ValueError, match="delta"):
        perturbation_check(nd, u, y, 0.5, q, alpha=1.5, beta_prime=0.4)


def test_perturbation_linear_is_exact(young_datum):
    # linear maps make the two integrands identical
    nd = registry("linear", datum=young_datum)
    y = np.zeros(2)
    y[0] = 0.3 * localization_radius(0.05)
    rep = perturbation_check(
        nd, np.zeros(2), y, 0.05,
        QuadratureSpec(method="monte-carlo", resolution=50000),
        alpha=1.5, beta_prime=0.4,
    )
    assert rep.l1_diff <= 1e-12
    assert rep.lhs == pytest.approx(rep.rhs, rel=1e-12)
    assert rep.verdict == "pass"


# ---------------------------------------------------------------------------
# group Young study


def test_lie_group_young_rows_and_workers():
    deltas = [0.1, 0.05]
    kwargs = dict(
        deltas=deltas,
        q=QuadratureSpec(method="monte-carlo", resolution=50000, seed=3),
        mu=1e-5,
        kappa=1.5,
    )
    seq = lie_group_young("young-euclidean-1", workers=1, **kwargs)
    par = lie_group_young("young-euclidean-1", workers=2, **kwargs)
    assert seq["bound"] == pytest.approx(ROOT3_OVER_2, rel=1e-12)
    assert seq["fiber_dim"] == 1
    for a, b in zip(seq["rows"], par["rows"]):
        assert a.delta == b.delta
        assert a.ratio == b.ratio
        assert a.stderr == b.stderr
    for row in seq["rows"]:
        assert row.slack >= -3.0 * row.stderr
    fine = seq["rows"][-1]
    coarse = seq["rows"][0]
    assert fine.delta < coarse.delta
    assert fine.ratio >= coarse.ratio - 3.0 * math.hypot(fine.stderr, coarse.stderr)


@pytest.mark.parametrize(
    "q",
    [QuadratureSpec(resolution=128), QuadratureSpec(method="monte-carlo", resolution=20000)],
    ids=["tensor-grid", "monte-carlo"],
)
def test_perturbation_linear_submersions_are_exact(q):
    # both integrands are the same pullback of the same recentred gaussians
    nd = registry("young-euclidean-1")
    y = np.array([0.5, -0.25]) * localization_radius(0.05)
    rep = perturbation_check(nd, np.zeros(2), y, 0.05, q, alpha=1.5, beta_prime=0.4)
    assert rep.l1_diff == 0.0
    assert rep.lhs == rep.rhs
    assert rep.verdict == "pass"

"""One-file gate for the headline guarantees.

Per-module files carry the edge cases; this suite restates what the toolkit
promises end to end, with the promised tolerances and the full sample sizes.
Reference numbers are closed forms or independent recomputations made inside
the tests, never values copied back from library output.  The monte-carlo
studies pin their seeds, so the whole file is deterministic.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from blscales.cli import main
from blscales.datum import BLDatum, finiteness_check, save_datum
from blscales.functional import (
    GaussianFunction,
    InputTuple,
    QuadratureSpec,
    ball_inequality_check,
    bl_functional,
)
from blscales.gaussians import (
    gaussian_bl_value,
    scale_gaussian,
    solve_extremiser,
    truncation_deficit,
    young_constant,
)
from blscales.nonlinear import (
    LocalizedProblem,
    ThresholdError,
    base_case_check,
    lie_group_young,
    localization_radius,
    recursive_step_check,
    registry,
)
from blscales.scheduler import (
    ScheduleParams,
    accumulated_factor,
    kappa_evolution,
    schedule,
    validate_params,
)

from conftest import ROOT3_OVER_2, young_maps
from test_datum import brute_force_rank_one, random_rank_one
from test_scheduler import mp_accumulated, mp_kappas, mp_schedule, random_valid_params


def scaled_extremiser_inputs(nd, delta):
    ext = solve_extremiser(nd.linearize())
    assert ext.converged
    g = scale_gaussian(ext.gaussians, delta)
    return InputTuple(
        [GaussianFunction(A, c) for A, c in zip(g.blocks, g.amplitudes)]
    )


# ---------------------------------------------------------------------------
# sharp constants


def test_convolution_triple_constant_three_routes(young_datum, young_extremiser):
    # fixed point, closed-form product formula, and direct quadrature agree
    assert young_extremiser.converged
    value = young_extremiser.bl_value
    assert abs(value - ROOT3_OVER_2) <= 1e-8 * ROOT3_OVER_2

    # the product formula carries one factor ((1-p)^{1-p} p^{-p})^{1/2} per
    # fibre dimension, so d = 1 matches the plane datum and d = 3 its cube
    assert young_constant((2 / 3,) * 3, d=1) == pytest.approx(value, rel=1e-12)
    assert young_constant((2 / 3,) * 3, d=3) == pytest.approx(value**3, rel=1e-12)

    ext = InputTuple([GaussianFunction(A) for A in young_extremiser.gaussians.blocks])
    quad, _ = bl_functional(young_datum, ext, QuadratureSpec(resolution=512))
    assert abs(quad - value) <= 1e-4 * value


def test_unit_constant_and_vertex_limit(lw_datum):
    res = solve_extremiser(lw_datum)
    assert res.converged
    assert abs(res.bl_value - 1.0) <= 1e-10

    # interior exponents approaching the (1, 1, 0) vertex: value drifts to 1
    vertex = BLDatum(n=2, maps=young_maps(), exponents=[0.999, 0.999, 0.002])
    near = solve_extremiser(vertex)
    assert near.converged
    assert abs(near.bl_value - 1.0) <= 1e-3
    assert near.bl_value == pytest.approx(
        young_constant((0.999, 0.999, 0.002)), rel=1e-9
    )


# ---------------------------------------------------------------------------
# finiteness and stationarity


def test_finiteness_agrees_with_subset_enumeration(young_datum):
    rng = np.random.default_rng(2024)
    checked = 0
    infinite_seen = 0
    while checked < 50:
        n = int(rng.integers(2, 5))
        out = random_rank_one(rng, n, degenerate=True)
        if out is None:
            continue
        datum, vecs, p = out
        rep = finiteness_check(datum, mode="rank-one-exact")
        assert rep.subspace_ok == (brute_force_rank_one(vecs, p, n) >= -1e-9)
        infinite_seen += not rep.subspace_ok
        checked += 1
    assert infinite_seen >= 5

    # a shared kernel direction always forces an infinite constant
    rng = np.random.default_rng(5)
    hit = 0
    while hit < 10:
        n = int(rng.integers(2, 5))
        m = n + int(rng.integers(1, 3))
        vecs = rng.standard_normal((m, n))
        vecs[:, -1] = 0.0
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        p = n * rng.dirichlet(np.ones(m))
        if np.any(p >= 1.0):
            continue
        d = BLDatum(n=n, maps=[v.reshape(1, n) for v in vecs], exponents=list(p))
        assert not finiteness_check(d, mode="rank-one-exact").subspace_ok
        hit += 1

    rep = finiteness_check(young_datum, mode="rank-one-exact")
    assert rep.certified and rep.simple


def _conditioned_rank_one_corpus(count, seed):
    # rows kept away from each other and exponents interior, so membership is
    # decided by the filters rather than by whether the solver happens to cope
    rng = np.random.default_rng(seed)
    corpus = []
    tries = 0
    while len(corpus) < count:
        tries += 1
        assert tries < 30000, "corpus filters rejected too many draws"
        n = int(rng.integers(2, 4))
        m = n + int(rng.integers(1, 4))
        vecs = rng.standard_normal((m, n))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        coherence = np.abs(vecs @ vecs.T) - np.eye(m)
        if coherence.max() > 0.8:
            continue
        p = n * rng.dirichlet(np.ones(m))
        if p.min() <= 0.1 or p.max() >= 0.9:
            continue
        d = BLDatum(
            n=n,
            maps=[v.reshape(1, n) for v in vecs],
            exponents=[float(x) for x in p],
        )
        rep = finiteness_check(d, mode="rank-one-exact")
        if not (rep.certified and rep.simple and rep.slack >= 0.1):
            continue
        corpus.append(d)
    return corpus


def test_randomized_corpus_stationarity_and_scaling():
    for d in _conditioned_rank_one_corpus(100, seed=42):
        res = solve_extremiser(d)
        assert res.converged
        assert res.residual <= 1e-10
        for rho in (1.7, 0.3):
            scaled = scale_gaussian(res.gaussians, rho)
            assert gaussian_bl_value(d, scaled) == pytest.approx(
                res.bl_value, rel=1e-12
            )


# ---------------------------------------------------------------------------
# convolution inequality fixture


def test_convolution_inequality_fixture(young_datum, young_extremiser):
    rng = np.random.default_rng(7)
    q = QuadratureSpec(method="monte-carlo", resolution=1_000_000, seed=2)
    x_grid = np.array([[0.0, 0.0], [0.4, -0.3], [-0.6, 0.2]])

    def random_tuple():
        return InputTuple(
            [
                GaussianFunction(
                    [[float(rng.uniform(0.4, 3.0))]],
                    center=[float(rng.uniform(-0.4, 0.4))],
                )
                for _ in range(3)
            ]
        )

    for _ in range(19):
        rep = ball_inequality_check(young_datum, random_tuple(), random_tuple(), x_grid, q)
        assert rep.skipped_x == 0
        assert rep.verdict != "fail"  # lhs <= rhs within three combined sigmas

    # both sides extremal: equality up to monte-carlo noise, and the two
    # one-sided consequences hold on the same run
    ext = InputTuple([GaussianFunction(A) for A in young_extremiser.gaussians.blocks])
    rep = ball_inequality_check(
        young_datum, ext, ext, x_grid, q, near_extremiser=True
    )
    assert rep.verdict != "fail"
    assert abs(rep.lhs - rep.rhs) <= 3.0 * rep.stderr
    cons = rep.extremiser_consequences
    assert cons["conv_dominates"]["verdict"] != "fail"
    assert cons["localization_dominates"]["verdict"] != "fail"


# ---------------------------------------------------------------------------
# truncation tail


def test_truncation_tail_bound(young_datum, young_extremiser):
    # blocks sqrt(3)/2 on all three factors give M the eigenvalues 3^{+-1/2};
    # after whitening, the tail of the scale-delta product outside the ball of
    # radius delta log(1/delta) is the plane gaussian tail at log(1/delta)/3^{1/4}
    eta = 0.4 / 1.5
    for delta in (0.2, 0.1, 0.05, 0.02):
        g = scale_gaussian(young_extremiser.gaussians, delta)
        deficit, bound = truncation_deficit(young_datum, g, delta, eta=eta)
        r = math.log(1.0 / delta) / 3**0.25
        assert deficit == pytest.approx(math.exp(-math.pi * r * r), rel=1e-10)
        assert bound == pytest.approx(delta ** (2 * eta), rel=1e-12)
        assert deficit <= bound


# ---------------------------------------------------------------------------
# group convolution ratios


def test_group_ratio_approaches_product_bound():
    target = (3.0 / 4.0) ** 1.5
    table = lie_group_young(
        "young-heisenberg",
        deltas=[0.2, 0.1, 0.05],
        q=QuadratureSpec(method="monte-carlo", resolution=10_000_000, seed=1),
        mu=1e-5,
        kappa=1.5,
    )
    assert table["fiber_dim"] == 3
    assert table["bound"] == pytest.approx(target, rel=1e-12)
    rows = table["rows"]
    for coarse, fine in zip(rows, rows[1:]):
        cushion = 3.0 * math.hypot(coarse.stderr, fine.stderr)
        assert abs(fine.ratio - target) <= abs(coarse.ratio - target) + cushion
    assert abs(rows[-1].ratio - target) <= 1e-4
    for row in rows:
        assert row.slack >= -3.0 * row.stderr

    # flat control: same machinery, commutative group, known limit
    control = lie_group_young(
        "young-euclidean-1",
        deltas=[0.05],
        q=QuadratureSpec(method="monte-carlo", resolution=1_000_000, seed=1),
        mu=1e-5,
        kappa=1.5,
    )
    assert abs(control["rows"][0].ratio - ROOT3_OVER_2) <= 5e-3


# ---------------------------------------------------------------------------
# recursion and base case


def test_recursion_linear_equality_and_group_case(young_datum):
    nd = registry("linear", datum=young_datum)
    lp = LocalizedProblem(center=(0.0, 0.0), delta=0.05, mu=1e-6, kappa=2.0)
    f = scaled_extremiser_inputs(nd, 0.05)
    rep = recursive_step_check(
        nd, lp, f, np.array([[0.0, 0.0], [0.05, -0.04]]),
        QuadratureSpec(resolution=512),
        alpha=1.5, beta=0.3, beta_prime=0.4,
    )
    assert rep.verdict == "pass"
    assert rep.equality_gap <= 1e-3
    assert all(c["ok"] for c in rep.certifications)

    hb = registry("young-heisenberg")
    lp6 = LocalizedProblem(center=np.zeros(6), delta=0.05, mu=5e-5, kappa=1.5)
    f6 = scaled_extremiser_inputs(hb, 0.05)
    r = localization_radius(0.05)
    x_grid = np.zeros((3, 6))
    x_grid[1, 0] = 0.5 * r
    x_grid[2, 4] = -0.5 * r
    rep6 = recursive_step_check(
        hb, lp6, f6, x_grid,
        QuadratureSpec(method="monte-carlo", resolution=2_000_000, seed=4),
        alpha=1.5, beta=0.3, beta_prime=0.4,
    )
    assert rep6.verdict == "pass"
    assert rep6.lhs <= rep6.rhs + 3.0 * math.hypot(rep6.lhs_err, rep6.rhs_err)
    assert all(c["ok"] for c in rep6.certifications)


def test_base_case_within_threshold():
    nd = registry("perturbed-quadratic:0.5")
    f = scaled_extremiser_inputs(nd, 1.0)
    lp = LocalizedProblem(center=(0.0, 0.0), delta=0.01, mu=1.5e-3, kappa=1.05)
    rep = base_case_check(
        nd, lp, f, QuadratureSpec(resolution=128), alpha=1.5, beta_prime=0.4
    )
    assert rep.verdict == "pass"
    assert rep.ratio <= rep.bound

    # below the threshold the problem belongs to the recursion, not the base
    thin = LocalizedProblem(center=(0.0, 0.0), delta=0.01, mu=1e-6, kappa=1.05)
    with pytest.raises(ThresholdError):
        base_case_check(
            nd, thin, f, QuadratureSpec(resolution=64), alpha=1.5, beta_prime=0.4
        )


# ---------------------------------------------------------------------------
# schedule bookkeeping


def test_schedule_matches_fifty_digit_reference():
    rng = np.random.default_rng(321)
    agree = 0
    while agree < 1000:
        p = random_valid_params(rng)
        if validate_params(p):
            continue
        deltas, k_star = schedule(p)
        ref_deltas, ref_k = mp_schedule(p)
        assert k_star == ref_k
        for d, md in zip(deltas, ref_deltas):
            assert abs(d - float(md)) <= 1e-12 * float(md)
        prod, log_bound = accumulated_factor(p, k_star)
        ref = float(mp_accumulated(p, k_star))
        assert abs(prod - ref) <= 1e-12 * ref
        for kv, rv in zip(kappa_evolution(p, k_star, 1.0), mp_kappas(p, k_star, 1.0)):
            assert abs(kv - float(rv)) <= 1e-12 * float(rv)
        assert math.log(prod) <= log_bound + 1e-12
        agree += 1

    base = dict(beta_prime=0.4, delta0=0.1, mu=1e-10)
    for kw in (
        dict(alpha=1.0, beta=0.3),
        dict(alpha=1.5, beta=0.0),
        dict(alpha=1.7, beta=0.35),
        dict(alpha=1.5, beta=0.45),
    ):
        assert validate_params(ScheduleParams(**base, **kw)), kw


# ---------------------------------------------------------------------------
# replayability


def test_cli_outputs_are_replayable(tmp_path):
    datum_path = tmp_path / "young.json"
    save_datum(
        BLDatum(
            n=2,
            maps=young_maps(),
            exponents=[2 / 3] * 3,
            exact_exponents=[Fraction(2, 3)] * 3,
        ),
        str(datum_path),
    )
    fixtures = [
        ["constant", "--input", str(datum_path), "--seed", "3"],
        ["extremiser", "--input", str(datum_path)],
        ["finiteness", "--input", str(datum_path), "--mode", "rank-one-exact"],
        ["functional", "--input", str(datum_path), "--inputs", "gaussian-iso",
         "--method", "monte-carlo", "--resolution", "60000", "--seed", "11"],
        ["ball-check", "--input", str(datum_path), "--inputs", "indicator",
         "--resolution", "256"],
        ["nonlinear", "--group", "young-euclidean-1", "--resolution", "256"],
        ["young-lie", "--group", "young-euclidean-1", "--deltas", "0.1,0.05",
         "--method", "monte-carlo", "--resolution", "50000", "--seed", "3",
         "--mu", "1e-5"],
        ["schedule", "--seed", "0"],
    ]
    for k, argv in enumerate(fixtures):
        first = tmp_path / f"first{k}.out"
        second = tmp_path / f"second{k}.out"
        assert main(argv + ["--output", str(first)]) == 0, argv
        assert main(argv + ["--output", str(second)]) == 0, argv
        assert first.read_bytes() == second.read_bytes(), argv

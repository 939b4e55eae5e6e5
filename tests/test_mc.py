"""Determinism contracts for the chunked generators."""

import warnings

import numpy as np
import pytest

from blscales import mc
from blscales.functional import Box
from blscales.mc import (
    BLOCK,
    CHUNK,
    MAX_GRID_POINTS,
    ROUNDING,
    ball_volume,
    chunk_generator,
    gaussian_importance,
    grid_estimate,
    grid_integral,
    grid_points,
    iter_chunks,
    monte_carlo,
    sample_sums,
    uniform_ball,
    uniform_box,
    verdict,
)


def test_same_key_same_numbers():
    a = chunk_generator(seed=3, stream=5, chunk_index=2).random(100)
    b = chunk_generator(seed=3, stream=5, chunk_index=2).random(100)
    assert np.array_equal(a, b)


def test_chunks_are_disjoint_streams():
    a = chunk_generator(seed=3, stream=5, chunk_index=0).random(1000)
    b = chunk_generator(seed=3, stream=5, chunk_index=1).random(1000)
    c = chunk_generator(seed=3, stream=6, chunk_index=0).random(1000)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_chunk_order_independent_assembly():
    # assembling chunk results out of order must give the same totals
    total = 3 * CHUNK + 17
    sizes = list(iter_chunks(total))
    assert sum(n for _, n in sizes) == total
    fwd = [chunk_generator(9, 1, i).random(n).sum() for i, n in sizes]
    rev = [chunk_generator(9, 1, i).random(n).sum() for i, n in reversed(sizes)]
    assert np.allclose(sorted(fwd), sorted(rev), rtol=0, atol=0)


def test_iter_chunks_covers_exactly():
    assert list(iter_chunks(10)) == [(0, 10)]
    pairs = list(iter_chunks(2 * CHUNK))
    assert pairs == [(0, CHUNK), (1, CHUNK)]


def test_uniform_box_bounds():
    gen = chunk_generator(0, 0, 0)
    lo = np.array([-1.0, 2.0])
    hi = np.array([0.5, 3.0])
    pts = uniform_box(gen, 5000, lo, hi)
    assert pts.shape == (5000, 2)
    assert np.all(pts >= lo) and np.all(pts <= hi)
    # mean of each coordinate near the box midpoint
    assert np.allclose(pts.mean(axis=0), (lo + hi) / 2, atol=0.02)


def test_uniform_ball_radius_law():
    gen = chunk_generator(1, 2, 0)
    center = np.array([1.0, -1.0, 0.5])
    pts = uniform_ball(gen, 20000, center, 2.0)
    r = np.linalg.norm(pts - center, axis=1)
    assert r.max() <= 2.0 + 1e-12
    # E|x| = d/(d+1) * R for the uniform ball
    assert abs(r.mean() - 2.0 * 3 / 4) < 0.02


def test_ball_volume_known_values():
    assert np.isclose(ball_volume(1, 1.0), 2.0)
    assert np.isclose(ball_volume(2, 1.0), np.pi)
    assert np.isclose(ball_volume(3, 2.0), 4 / 3 * np.pi * 8)


def test_verdict_three_sigma_band():
    assert verdict(0.31, 0.1) == "pass"
    assert verdict(-0.31, 0.1) == "fail"
    assert verdict(0.75, 0.25) == "pass"  # the band edge belongs to the verdict
    assert verdict(-0.75, 0.25) == "fail"
    assert verdict(0.29, 0.1) == "inconclusive"
    assert verdict(-0.29, 0.1) == "inconclusive"
    # an exact estimate decides on the sign of the slack alone
    assert verdict(0.0, 0.0) == "pass"
    assert verdict(-1e-300, 0.0) == "fail"


def test_grid_walk_refuses_oversized_grid():
    side = np.zeros(1 << 9)
    assert len(side) ** 3 == MAX_GRID_POINTS
    idx, _, pts = next(grid_points([side] * 3))
    assert idx[0] == 0 and pts.shape[1] == 3
    with pytest.raises(ValueError, match="monte-carlo"):
        next(grid_points([side] * 3 + [np.zeros(2)]))


def test_grid_estimate_error_is_half_resolution_difference():
    box = Box([0.0, -1.0], [1.0, 2.0])

    def fn(pts):
        return np.exp(-pts[:, 0] * pts[:, 1])

    est = grid_estimate(fn, box, 40)
    fine, _ = grid_integral(fn, box, 40)
    coarse, _ = grid_integral(fn, box, 20)
    assert est.value == fine
    assert est.stderr == abs(fine - coarse)
    assert est.count == 40**2 + 20**2
    # a linear integrand is integrated exactly by the midpoint rule
    lin, frac = grid_integral(lambda pts: pts[:, 0] + pts[:, 1], box, 8)
    assert lin == pytest.approx(0.5 * 3 + 0.5 * 3, rel=1e-12)
    assert 0.0 < frac < 1.0


def test_monte_carlo_sums_across_chunks():
    lo = np.array([-1.0, 0.0])
    hi = np.array([1.0, 0.5])

    def draw(gen, size):
        return uniform_box(gen, size, lo, hi)

    def f(pts):
        return np.exp(-np.sum(pts * pts, axis=1))

    samples = 2 * CHUNK + 5
    total, _, _, count = sample_sums(f, draw, samples, 4, 9)
    assert count == samples
    est = monte_carlo(f, draw, 1.0, samples, 4, 9)
    assert est.count == samples
    assert est.value == pytest.approx(total / samples, rel=1e-15)
    assert 0.0 < est.stderr < 0.01


def test_monte_carlo_stderr_floor_on_constant_integrand():
    lo = np.zeros(2)
    hi = np.array([2.0, 1.0])
    est = monte_carlo(
        lambda p: np.ones(len(p)), lambda gen, size: uniform_box(gen, size, lo, hi),
        2.0, 5000, 0, 1,
    )
    assert est.value == pytest.approx(2.0, rel=1e-15)
    assert isinstance(est.stderr, float)
    assert est.stderr > 0.0
    assert est.stderr == ROUNDING * est.value
    assert verdict(est.value - 2.0, est.stderr) == "inconclusive"


def test_sample_sums_do_not_depend_on_the_block(monkeypatch):
    # 70,001 samples: one full chunk and a short one, neither a whole number
    # of blocks
    lo = np.array([-1.0, 0.0])
    hi = np.array([1.0, 0.5])
    rows = []

    def draw(gen, size):
        return uniform_box(gen, size, lo, hi)

    def f(pts):
        rows.append(len(pts))
        return np.exp(-np.sum(pts * pts, axis=1))

    def outside(pts):
        return pts[:, 0] > 0.9

    samples = 70_001
    blocked = sample_sums(f, draw, samples, 5, 3, outside)
    assert max(rows) == BLOCK < CHUNK
    assert sum(rows) == samples
    monkeypatch.setattr(mc, "BLOCK", CHUNK)
    rows.clear()
    assert sample_sums(f, draw, samples, 5, 3, outside) == blocked
    assert rows == [CHUNK, samples - CHUNK]


def test_gaussian_importance_of_a_vanishing_integrand_is_zero():
    # a plain callable enters the weight through its log: zeros give -inf
    # exponents, exact zero weights and no warning
    precision = np.eye(2)

    def half(pts):
        # the proposal's density on a half plane: weights 1 there, 0 elsewhere
        return np.where(pts[:, 0] > 0.0, np.exp(-np.pi * np.sum(pts * pts, axis=1)), 0.0)

    def nothing(pts):
        return np.zeros(len(pts))

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        est = gaussian_importance(half, np.zeros(2), precision, 20000, 1, 2)
        zero = gaussian_importance(nothing, np.zeros(2), precision, 5000, 1, 2)
    assert (zero.value, zero.stderr) == (0.0, 0.0)
    assert abs(est.value - 0.5) <= 4.0 * est.stderr
    assert est.stderr == pytest.approx(0.5 / np.sqrt(20000), rel=0.01)


def test_gaussian_importance_integrates_gaussians():
    precision = np.array([[2.0, 0.5], [0.5, 1.0]])
    mean = np.array([0.3, -0.2])
    mass = 1.0 / np.sqrt(np.linalg.det(precision))

    def proposal_shaped(pts):
        dx = pts - mean
        return 3.0 * np.exp(-np.pi * np.einsum("ni,ij,nj->n", dx, precision, dx))

    est = gaussian_importance(proposal_shaped, mean, precision, 20000, 2, 5)
    assert est.count == 20000
    assert est.value == pytest.approx(3.0 * mass, rel=1e-12)
    assert 0.0 < est.stderr <= 1e-12

    # another gaussian: unbiased within its error, and replayable
    wide = np.eye(2)

    def other(pts):
        return np.exp(-np.pi * np.einsum("ni,ij,nj->n", pts, wide, pts))

    est = gaussian_importance(other, mean, precision, 2 * CHUNK + 7, 2, 5)
    assert abs(est.value - 1.0) <= 4.0 * est.stderr
    assert est.stderr < 0.01
    assert gaussian_importance(other, mean, precision, 2 * CHUNK + 7, 2, 5) == est


def test_monte_carlo_constant_integrand_has_only_the_floor():
    # E[x^2] - E[x]^2 left a spurious 2.4e-11 here; the chunk merge leaves none
    lo = np.zeros(2)
    hi = np.ones(2)
    est = monte_carlo(
        lambda p: np.full(len(p), 0.7), lambda gen, size: uniform_box(gen, size, lo, hi),
        1.0, 100000, 0, 1,
    )
    assert est.value == pytest.approx(0.7, rel=1e-15)
    assert est.stderr == ROUNDING * est.value


def test_monte_carlo_stderr_matches_two_pass_variance():
    # a large offset over a small spread: the case where E[x^2] - E[x]^2 cancels
    lo = np.array([-1.0, 0.0])
    hi = np.array([1.0, 0.5])

    def draw(gen, size):
        return uniform_box(gen, size, lo, hi)

    def f(pts):
        return 1e4 + np.exp(-np.sum(pts * pts, axis=1))

    samples = 3 * CHUNK + 11
    est = monte_carlo(f, draw, 2.5, samples, 6, 2)
    vals = np.concatenate(
        [f(draw(chunk_generator(6, 2, index), size)) for index, size in iter_chunks(samples)]
    )
    assert est.stderr == pytest.approx(2.5 * np.sqrt(np.var(vals) / samples), rel=1e-12)

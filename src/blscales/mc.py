"""Deterministic counter-based Monte Carlo sampling and the estimator layer.

Every stochastic estimate in the package draws from a Philox stream keyed by
(seed, stream id) and partitioned into fixed-size chunks.  Chunk c of a stream
is generated from an independently jumped generator state, so an estimate is a
pure function of (seed, stream, sample count): it does not depend on
evaluation order, chunking of the outer loop, or worker count.

Every integral in the package is estimated here: `grid_points` is the one
walk over a tensor grid, `sample_sums` the one monte-carlo accumulator,
`monte_carlo` and `gaussian_importance` the uniform and the importance-sampled
estimates, and `verdict` the one rule that turns a slack and its error into
pass / fail.  The accumulator evaluates an integrand on row blocks of BLOCK
points of each drawn chunk, so that its temporaries stay cache-sized; the
draws, and so the estimates, do not depend on BLOCK.  The importance weight
is formed in log space from the integrand's `log` (`log_integrand`), one
`exp` per sample.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

CHUNK = 1 << 16

# rows of a drawn chunk that an integrand is evaluated on at a time
BLOCK = 1 << 13

# largest tensor grid a walk accepts: half a minute at the ~4e6 points/s of a
# 2-core Xeon
MAX_GRID_POINTS = 1 << 27

_MASK64 = (1 << 64) - 1

# relative floor on a monte-carlo standard error: the float rounding of a mean
ROUNDING = 16.0 * np.finfo(float).eps


def chunk_generator(seed: int, stream: int, chunk_index: int) -> np.random.Generator:
    """Generator positioned at the start of chunk `chunk_index` of a stream."""
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    bitgen = np.random.Philox(key=key)
    if chunk_index:
        bitgen = bitgen.jumped(chunk_index)
    return np.random.Generator(bitgen)


def iter_chunks(total: int) -> Iterator[tuple[int, int]]:
    """Yield (chunk_index, size) pairs covering `total` samples."""
    index = 0
    remaining = int(total)
    while remaining > 0:
        size = min(CHUNK, remaining)
        yield index, size
        index += 1
        remaining -= size


def uniform_box(gen: np.random.Generator, size: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    u = gen.random((size, lo.shape[0]))
    return lo + u * (hi - lo)


def uniform_ball(gen: np.random.Generator, size: int, center: np.ndarray, radius: float) -> np.ndarray:
    """Uniform samples from the closed euclidean ball."""
    dim = center.shape[0]
    z = gen.standard_normal((size, dim))
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    # a zero draw has probability 0; guard anyway
    norms[norms == 0.0] = 1.0
    r = gen.random((size, 1)) ** (1.0 / dim)
    return center + radius * r * (z / norms)


def ball_volume(dim: int, radius: float) -> float:
    log_unit = 0.5 * dim * math.log(math.pi) - math.lgamma(0.5 * dim + 1.0)
    return math.exp(log_unit + dim * math.log(radius))


def log_integrand(fn) -> Callable:
    """x -> log fn(x), -inf where fn vanishes: fn's own `log` where it has
    one, otherwise the log of its values."""
    log = getattr(fn, "log", None)
    if log is not None:
        return log

    def log_values(pts):
        with np.errstate(divide="ignore"):
            return np.log(fn(pts))

    return log_values


# ---------------------------------------------------------------------------
# estimators


@dataclass(frozen=True)
class Estimate:
    """An integral estimate.

    Under monte-carlo `stderr` is the standard error of the mean; under
    tensor-grid it is the half-resolution difference |fine - coarse|, not a
    standard error.  `count` is the number of integrand evaluations and
    `boundary` the share of the value carried by the outer layer of the
    region: the outermost grid cells, or the sample points that an `outside`
    mask marks (0 without a mask).
    """

    value: float
    stderr: float
    count: int
    boundary: float = 0.0


def grid_points(axes) -> Iterator[tuple]:
    """Chunks (flat indices, per-axis indices, points) of the tensor grid
    over `axes`, in C order.

    A grid of more than MAX_GRID_POINTS points raises ValueError before the
    first chunk, since its walk could not finish in reasonable time.
    """
    shape = tuple(len(a) for a in axes)
    npts = math.prod(shape)
    if npts > MAX_GRID_POINTS:
        raise ValueError(
            f"tensor grid of {npts:.3g} points exceeds the limit of "
            f"{MAX_GRID_POINTS:.3g}; lower --resolution or use --method monte-carlo"
        )
    chunk = max(CHUNK // max(len(axes), 1), 1)
    for start in range(0, npts, chunk):
        idx = np.arange(start, min(start + chunk, npts))
        coords = np.unravel_index(idx, shape)
        yield idx, coords, np.column_stack([a[c] for a, c in zip(axes, coords)])


def grid_integral(fn, box, resolution: int) -> tuple:
    """Midpoint rule for fn over a `functional.Box` at `resolution` points per
    axis.

    Returns (integral, boundary): the share of the sum carried by the
    outermost layer of cells, used to detect an undersized domain.
    """
    total = 0.0
    boundary = 0.0
    for idx, coords, pts in grid_points(box.midpoint_axes(resolution)):
        vals = fn(pts)
        total += float(vals.sum())
        edge = np.zeros(len(idx), dtype=bool)
        for c in coords:
            edge |= (c == 0) | (c == resolution - 1)
        boundary += float(vals[edge].sum())
    frac = boundary / total if total > 0 else 0.0
    return total * (box.volume() / resolution**box.dim), frac


def grid_estimate(fn, box, resolution: int) -> Estimate:
    """Midpoint rule at `resolution`, with the half-resolution rule as the
    error term."""
    coarse_resolution = max(resolution // 2, 2)
    fine, frac = grid_integral(fn, box, resolution)
    coarse, _ = grid_integral(fn, box, coarse_resolution)
    count = resolution**box.dim + coarse_resolution**box.dim
    return Estimate(fine, abs(fine - coarse), count, frac)


def sample_sums(fn, draw, samples: int, seed: int, stream: int, outside=None) -> tuple:
    """Sum of fn and its centred sum of squares over `samples` points of
    stream (seed, stream).

    Chunk c draws its points as draw(chunk_generator(seed, stream, c), size)
    and fn returns one value per point; fn and `outside` see the chunk in row
    blocks of at most BLOCK points, and the chunk's sums run over the joined
    block values, so the result does not depend on BLOCK.  Each chunk's mean
    and centred sum of squares are merged into the running ones by Chan,
    Golub and LeVeque's pairwise update, so the spread is never the
    difference of two large sums.
    With `outside` (a point mask) the sum over the masked points is returned
    too.  Returns (total, m2, boundary, count), `total` the plain sum.
    """
    total = 0.0
    mean = 0.0
    m2 = 0.0
    boundary = 0.0
    count = 0
    for index, size in iter_chunks(samples):
        pts = draw(chunk_generator(seed, stream, index), size)
        vals = _by_blocks(fn, pts)
        chunk_total = float(vals.sum())
        total += chunk_total
        chunk_mean = chunk_total / size
        dev = vals - chunk_mean
        delta = chunk_mean - mean
        merged = count + size
        mean = mean + delta * (size / merged)
        m2 = m2 + float((dev * dev).sum()) + delta * delta * (count * size / merged)
        count = merged
        if outside is not None:
            boundary += float(vals[_by_blocks(outside, pts)].sum())
    return total, m2, boundary, count


def _by_blocks(fn, pts: np.ndarray) -> np.ndarray:
    """fn evaluated on row blocks of BLOCK points of `pts`, joined."""
    return np.concatenate([fn(pts[i : i + BLOCK]) for i in range(0, len(pts), BLOCK)])


def monte_carlo(
    fn, draw, volume: float, samples: int, seed: int, stream: int, outside=None
) -> Estimate:
    """Mean-value estimate: volume times the mean of fn over the points
    draw(gen, size).  With uniform points of a region of that volume it
    estimates the integral of fn over the region.

    The standard error is volume sqrt(m2) / count, m2 the merged centred
    sum of squares of `sample_sums`.  It is floored at the float rounding of
    the value, 16 eps |value|: an integrand that is constant on its samples
    has no sampling error, but a verdict on it must not become an exact
    float comparison.
    """
    total, m2, boundary, count = sample_sums(fn, draw, samples, seed, stream, outside)
    mean = total / count
    frac = float(boundary / total) if total > 0 else 0.0
    value = float(volume * mean)
    stderr = max(volume * math.sqrt(m2) / count, ROUNDING * abs(value))
    return Estimate(value, stderr, count, frac)


def gaussian_importance(
    fn, mean: np.ndarray, precision: np.ndarray, samples: int, seed: int, stream: int
) -> Estimate:
    """Importance-sampled estimate of the integral of fn over R^d.

    Points x = m + (2 pi M)^{-1/2} z, z standard normal, are drawn through the
    Cholesky factor of the precision M; their density is
    phi(x) = sqrt(det M) exp(-pi <M(x - m), x - m>) = sqrt(det M) exp(-|z|^2 / 2),
    and the estimate is the mean of the weights
    fn(x) / phi(x) = exp(log fn(x) + |z|^2 / 2 - log sqrt(det M)), with
    log fn from `log_integrand`.  It is unbiased wherever phi > 0, so fn may
    carry an indicator of the region of integration.  Raises
    numpy.linalg.LinAlgError unless M is positive definite.
    """
    chol = np.linalg.cholesky(precision)
    # rows: x = m + z @ root, so that cov(x) = root^T root = (2 pi M)^{-1}
    root = np.linalg.inv(chol) / math.sqrt(2.0 * math.pi)
    log_root_det = float(np.sum(np.log(np.diag(chol))))
    dim = root.shape[0]
    log_fn = log_integrand(fn)

    def weight(z):
        log_phi = log_root_det - 0.5 * np.einsum("ni,ni->n", z, z)
        return np.exp(log_fn(mean + z @ root) - log_phi)

    return monte_carlo(
        weight, lambda gen, size: gen.standard_normal((size, dim)), 1.0, samples, seed, stream
    )


def verdict(slack: float, sigma: float) -> str:
    """Three-sigma rule: "pass" when the slack is at least three errors above
    zero, "fail" when at least three below, "inconclusive" in between."""
    if slack >= 3.0 * sigma:
        return "pass"
    if slack <= -3.0 * sigma:
        return "fail"
    return "inconclusive"

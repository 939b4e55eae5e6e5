"""Direct evaluation of the Brascamp-Lieb functional on concrete inputs.

Inputs are nonnegative functions with box supports (gaussians carry a nominal
box far out in their tails).  The functional

    BL(L, p; f) = int prod_j (f_j o L_j)^{p_j} / prod_j (int f_j)^{p_j}

is evaluated by tensor-grid midpoint quadrature or by deterministic Monte
Carlo.  `estimate` (which estimator), `pullback` (which integrand), `masses`
and `quotient` (how a ratio and its error are formed) are the one integral
and ratio path; `nonlinear` forms its localized ratios through them as well.
The module also provides the convolution of input tuples, a numerical
check of the convolution inequality

    BL(f) BL(g) <= sup_x BL(h^x) BL(f*g),   h_j^x(z) = f_j(z) g_j(L_j x - z).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import mc
from .datum import BLDatum, DatumError, Report, validate_datum
from .gaussians import block_defect

BOUNDARY_MASS_LIMIT = 0.01

# half-width of a gaussian's nominal support box, in standard deviations
RADIUS_SIGMAS = 10.0

# most cells per axis of the grids `convolve_inputs` samples its factors on;
# below it the quadrature resolution sets the count
CONVOLUTION_CELLS = 4096

# most vertex candidates C(R, n) 2^n, for R stacked map rows in R^n, that
# `auto_domain` enumerates; above it the domain comes from linear programs
VERTEX_CANDIDATES = 50_000

# feasibility tolerance of a vertex candidate, relative to |A| |x| + |bound|
VERTEX_RTOL = 1e-9


class ZeroMassError(ValueError):
    pass


class DomainTooSmallError(ValueError):
    pass


class UnboundedDomainError(ValueError):
    pass


class DegenerateLocalizationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# geometry


@dataclass(frozen=True)
class Box:
    lo: tuple
    hi: tuple

    def __post_init__(self):
        object.__setattr__(self, "lo", tuple(float(x) for x in np.atleast_1d(self.lo)))
        object.__setattr__(self, "hi", tuple(float(x) for x in np.atleast_1d(self.hi)))
        if len(self.lo) != len(self.hi):
            raise ValueError("box corner dimensions differ")
        if any(h < l for l, h in zip(self.lo, self.hi)):
            raise ValueError("box has negative extent")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def widths(self) -> np.ndarray:
        return np.asarray(self.hi) - np.asarray(self.lo)

    def volume(self) -> float:
        return float(np.prod(self.widths))

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return np.all((pts >= lo) & (pts <= hi), axis=1)

    def intersect(self, other: "Box") -> Optional["Box"]:
        lo = np.maximum(self.lo, other.lo)
        hi = np.minimum(self.hi, other.hi)
        if np.any(hi <= lo):
            return None
        return Box(lo, hi)

    def reflect_translate(self, point: np.ndarray) -> "Box":
        """Support of z -> (anything supported on this box)(point - z)."""
        point = np.asarray(point, dtype=float)
        return Box(point - np.asarray(self.hi), point - np.asarray(self.lo))

    def midpoint_axes(self, resolution: int) -> tuple:
        axes = []
        for l, h in zip(self.lo, self.hi):
            step = (h - l) / resolution
            axes.append(l + (np.arange(resolution) + 0.5) * step)
        return tuple(axes)


@dataclass(frozen=True)
class QuadratureSpec:
    method: str = "tensor-grid"
    resolution: int = 256
    seed: int = 0
    domain: Optional[Box] = None

    def __post_init__(self):
        if self.method not in ("tensor-grid", "monte-carlo"):
            raise ValueError(f"unknown quadrature method: {self.method!r}")
        if self.method == "tensor-grid" and self.resolution < 2:
            raise ValueError("tensor-grid needs resolution >= 2")
        if self.method == "monte-carlo" and self.resolution < 1000:
            raise ValueError("monte-carlo needs at least 1000 samples")


# ---------------------------------------------------------------------------
# input functions


class GaussianFunction:
    """c exp(-pi <A (x - center), x - center>) with a nominal support box.
    Its `log` is the closed form; the other inputs have none, and
    `mc.log_integrand` takes the log of their values."""

    compact_support = False

    def __init__(self, A, amplitude=None, center=None):
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        d = self.A.shape[0]
        self.center = (
            np.zeros(d) if center is None else np.asarray(center, dtype=float).reshape(d)
        )
        bad = block_defect(self.A)
        if bad:
            raise ValueError(f"gaussian block {bad}")
        det = float(np.linalg.det(self.A))
        self.amplitude = float(math.sqrt(det) if amplitude is None else amplitude)
        if not (0.0 <= self.amplitude < math.inf):
            raise ValueError(f"gaussian amplitude {self.amplitude} is not finite and nonnegative")
        cov_diag = np.diag(np.linalg.inv(self.A)) / (2.0 * math.pi)
        radii = RADIUS_SIGMAS * np.sqrt(cov_diag)
        self.box = Box(self.center - radii, self.center + radii)

    def _quadratic(self, pts: np.ndarray) -> np.ndarray:
        """pi <A (x - center), x - center>."""
        pts = np.atleast_2d(pts)
        dx = pts - self.center
        if dx.shape[1] >= 2:
            q = np.einsum("ni,ni->n", dx @ self.A, dx)
        else:
            # three-operand form: faster for one dimension
            q = np.einsum("ni,ij,nj->n", dx, self.A, dx)
        return math.pi * q

    def log(self, pts: np.ndarray) -> np.ndarray:
        """log c - pi <A (x - center), x - center>, -inf for c = 0."""
        log_c = math.log(self.amplitude) if self.amplitude > 0.0 else -math.inf
        return log_c - self._quadratic(pts)

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return self.amplitude * np.exp(-self._quadratic(pts))

    @property
    def exact_mass(self) -> float:
        return self.amplitude / math.sqrt(float(np.linalg.det(self.A)))

    def reflected_at(self, point: np.ndarray) -> "GaussianFunction":
        """The function z -> self(point - z); gaussian again by symmetry of A."""
        point = np.asarray(point, dtype=float)
        return GaussianFunction(self.A, self.amplitude, point - self.center)

    def product(self, other: "GaussianFunction") -> "GaussianFunction":
        """Pointwise product: precisions add, centres combine by precision."""
        A3 = self.A + other.A
        rhs = self.A @ self.center + other.A @ other.center
        m = np.linalg.solve(A3, rhs)
        expo = (
            self.center @ self.A @ self.center
            + other.center @ other.A @ other.center
            - m @ A3 @ m
        )
        amp = self.amplitude * other.amplitude * math.exp(-math.pi * expo)
        return GaussianFunction(A3, amp, m)


class IndicatorFunction:
    """height on a box, zero outside."""

    compact_support = True

    def __init__(self, box: Box, height: float = 1.0):
        self.box = box
        self.height = float(height)

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return self.height * self.box.contains(pts).astype(float)

    @property
    def exact_mass(self) -> float:
        return self.height * self.box.volume()


class SampledFunction:
    """Nonnegative values on a uniform midpoint grid; evaluates by multilinear
    interpolation between the nodes (zero outside the span of the nodes, so
    also on the half-cell margin of the box)."""

    compact_support = True

    def __init__(self, axes: Sequence[np.ndarray], values: np.ndarray):
        self.axes = tuple(np.asarray(a, dtype=float) for a in axes)
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != tuple(len(a) for a in self.axes):
            raise ValueError("values shape does not match axes")
        if np.any(self.values < 0.0):
            raise ValueError("sampled values must be nonnegative")
        self.steps = np.array(
            [a[1] - a[0] if len(a) > 1 else 1.0 for a in self.axes]
        )
        lo = [a[0] - 0.5 * s for a, s in zip(self.axes, self.steps)]
        hi = [a[-1] + 0.5 * s for a, s in zip(self.axes, self.steps)]
        self.box = Box(lo, hi)

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        """Multilinear interpolation with the cells, weights and corner order
        of scipy's RegularGridInterpolator (method "linear")."""
        pts = np.atleast_2d(pts)
        outside = np.zeros(pts.shape[0], dtype=bool)
        sides = []
        for a, h, x in zip(self.axes, self.steps, pts.T):
            outside |= (x < a[0]) | (x > a[-1])
            if len(a) == 1:
                # index -1 wraps to the one node, as in scipy
                i = np.full(x.shape, -1)
                y = np.zeros(x.shape)
            else:
                # the cell from the uniform spacing, then one step to the
                # largest node <= x (searchsorted on the stored axis), kept
                # inside the grid so that x == a[-1] takes the last cell (and
                # nan some cell: fmin and fmax drop it)
                i = np.fmax(np.fmin(np.floor((x - a[0]) / h), len(a) - 2), 0).astype(np.intp)
                i -= (x < a[i]) & (i > 0)
                i += (x >= a[i + 1]) & (i < len(a) - 2)
                y = (x - a[i]) / (a[i + 1] - a[i])
            sides.append(((i, 1.0 - y), (i + 1, y)))
        # summed from 0.0 as in scipy, which turns a -0.0 result into 0.0
        value = 0.0
        for corner in itertools.product(*sides):
            index, weights = zip(*corner)
            weight = weights[0]
            for w in weights[1:]:
                weight = weight * w
            value = value + self.values[index] * weight
        value[outside] = 0.0
        return np.maximum(value, 0.0)

    @property
    def exact_mass(self) -> float:
        """Integral of the interpolant: the trapezoid rule on the nodes, whose
        weight on each axis is half the distance between the two neighbours
        of a node (an axis of one node spans no length and gives 0)."""
        mass = self.values
        for a in self.axes:
            gaps = np.diff(a)
            weights = 0.5 * (np.append(gaps, 0.0) + np.insert(gaps, 0, 0.0))
            mass = np.tensordot(weights, mass, axes=(0, 0))
        return float(mass)

    def native_mass(self) -> float:
        """Cell sum of the grid, sum(values) prod(steps): the mass that
        `convolve_inputs` preserves exactly."""
        return float(self.values.sum() * np.prod(self.steps))


class CallableFunction:
    def __init__(
        self,
        fn: Callable,
        box: Box,
        mass: Optional[float] = None,
        compact_support: bool = False,
    ):
        self.fn = fn
        self.box = box
        self._mass = mass
        self.compact_support = compact_support

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return self.fn(np.atleast_2d(pts))

    @property
    def exact_mass(self):
        return self._mass


def product_input(a, b):
    """Pointwise product of two inputs, or None when the supports are disjoint.

    Gaussian pairs collapse to a gaussian in closed form.
    """
    if isinstance(a, GaussianFunction) and isinstance(b, GaussianFunction):
        return a.product(b)
    box = a.box.intersect(b.box)
    if box is None:
        return None
    compact = a.compact_support or b.compact_support
    return CallableFunction(lambda pts: a(pts) * b(pts), box, compact_support=compact)


def reflected_input(g, c):
    """The input z -> g(c - z); a gaussian stays a gaussian."""
    if isinstance(g, GaussianFunction):
        return g.reflected_at(c)
    return CallableFunction(lambda pts: g(c - np.atleast_2d(pts)), g.box.reflect_translate(c))


@dataclass
class InputTuple:
    functions: list

    def __post_init__(self):
        self.functions = list(self.functions)

    @property
    def boxes(self) -> list:
        return [f.box for f in self.functions]

    def validate(self, datum: BLDatum) -> list:
        out = []
        if len(self.functions) != datum.m:
            out.append(f"{len(self.functions)} inputs for {datum.m} maps")
            return out
        for j, (f, nj) in enumerate(zip(self.functions, datum.codims)):
            if f.box.dim != nj:
                out.append(f"input {j} has dimension {f.box.dim}, map expects {nj}")
        return out


# ---------------------------------------------------------------------------
# the integral and ratio path: which estimator, which integrand, which quotient


class Integrand:
    """A nonnegative integrand given by its log: `log(pts)` is log F, -inf
    where F vanishes, and calling it gives F = exp(log F), one exp a point."""

    def __init__(self, log: Callable):
        self.log = log

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return np.exp(self.log(pts))


def _in_ball(fn, center: np.ndarray, radius_sq: float) -> Integrand:
    """fn on the closed ball of squared radius `radius_sq`, zero outside;
    fn sees only the points inside, a block wholly inside without a copy."""
    log = mc.log_integrand(fn)

    def masked(pts):
        dx = pts - center
        inside = np.einsum("ni,ni->n", dx, dx) <= radius_sq
        if inside.all():
            return log(pts)
        out = np.full(pts.shape[0], -np.inf)
        if inside.any():
            out[inside] = log(pts[inside])
        return out

    return Integrand(masked)


def estimate(
    fn, q: QuadratureSpec, stream: int, box=None, ball=None, proposal=None, outside=None
) -> mc.Estimate:
    """Integral of fn over a box, or over a ball given as (centre, radius),
    under the quadrature spec.

    Tensor-grid takes the midpoint rule over the box, or over the ball's
    bounding box with fn masked to the ball.  Monte-carlo samples the region
    uniformly on stream `stream`, except that a ball integral with a gaussian
    proposal (mean, precision) is importance-sampled from it with the ball
    indicator kept; tensor-grid ignores the proposal.  Under monte-carlo the
    boundary share is the part on the points that `outside` marks.
    """
    if ball is not None:
        center = np.asarray(ball[0], dtype=float)
        radius = float(ball[1])
        masked = _in_ball(fn, center, radius * radius)
        if q.method == "tensor-grid":
            return mc.grid_estimate(masked, Box(center - radius, center + radius), q.resolution)
        if proposal is not None:
            return mc.gaussian_importance(masked, *proposal, q.resolution, q.seed, stream)
        volume = mc.ball_volume(center.shape[0], radius)

        def draw(gen, size):
            return mc.uniform_ball(gen, size, center, radius)

    else:
        if q.method == "tensor-grid":
            return mc.grid_estimate(fn, box, q.resolution)
        lo = np.asarray(box.lo)
        hi = np.asarray(box.hi)
        volume = box.volume()

        def draw(gen, size):
            return mc.uniform_box(gen, size, lo, hi)

    return mc.monte_carlo(fn, draw, volume, q.resolution, q.seed, stream, outside)


def pullback(maps, exponents, funcs) -> Integrand:
    """The integrand x -> prod_j f_j(B_j x)^{p_j}, formed in log space as
    exp(sum_j p_j log f_j(B_j x)) (`mc.log_integrand`), factors with
    p_j = 0 skipped; a vanishing factor gives exactly 0.  A map B_j is a
    callable on rows of points (a submersion) or a matrix, applied to a row x
    as B_j x."""
    factors = [
        (B if callable(B) else (lambda pts, L=np.asarray(B): pts @ L.T), p, mc.log_integrand(f))
        for B, p, f in zip(maps, exponents, funcs)
        if p != 0.0
    ]

    def log(pts):
        out = np.zeros(pts.shape[0])
        for B, p, log_f in factors:
            out += p * log_f(B(pts))
        return out

    return Integrand(log)


def integrate_function(fn, q: QuadratureSpec, stream: int = 0):
    """Estimate of the integral of a single input over its support box under
    the quadrature spec.  Returns (value, err)."""
    est = estimate(fn, q, stream, box=fn.box)
    return est.value, est.stderr


def masses(funcs, q: QuadratureSpec, stream_base: int = 0) -> list:
    """(mass, error) of each input: its closed-form `exact_mass` with error 0
    when it has one (gaussian, indicator, sampled, callable given a mass),
    otherwise the estimate of `integrate_function` on stream
    stream_base + 1 + j for input j.  Raises ZeroMassError when a mass is not
    positive."""
    out = []
    for j, f in enumerate(funcs):
        mass = f.exact_mass
        if mass is None:
            mass, err = integrate_function(f, q, stream=stream_base + 1 + j)
        else:
            mass, err = float(mass), 0.0
        if not mass > 0.0:
            raise ZeroMassError(f"input {j} has zero mass")
        out.append((mass, err))
    return out


def quotient(num: float, num_err: float, masses, exponents) -> tuple:
    """(num / prod_j mass_j^{p_j}, error) for `masses` as returned by
    `masses`.  The relative errors of the numerator and of each denominator
    factor add in quadrature; a numerator that is not positive keeps its
    absolute error, divided by the denominator."""
    log_den = math.fsum(p * math.log(m) for p, (m, _) in zip(exponents, masses))
    value = num * math.exp(-log_den)
    if not num > 0.0:
        return value, num_err * math.exp(-log_den)
    rel = (num_err / num) ** 2
    for p, (m, e) in zip(exponents, masses):
        rel += (p * e / m) ** 2
    return value, value * math.sqrt(rel)


def _vertices(A: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The vertices of {x : lo <= A x <= hi} for A of full column rank k.

    Each candidate is B^-1 b for an invertible k-row submatrix B of A, with b
    taking lo or hi on each row; the vertices are the candidates that satisfy
    every constraint up to a rounding tolerance relative to the magnitudes
    that enter A x and the bounds.
    """
    k = A.shape[1]
    subsets = np.array(list(itertools.combinations(range(A.shape[0]), k)))
    subsets = subsets[np.linalg.matrix_rank(A[subsets]) == k]
    sides = np.array(list(itertools.product((False, True), repeat=k))).T
    b = np.where(sides, hi[subsets][:, :, None], lo[subsets][:, :, None])
    x = np.linalg.solve(A[subsets], b).transpose(0, 2, 1).reshape(-1, k)
    Ax = x @ A.T
    tol = VERTEX_RTOL * (np.abs(x) @ np.abs(A).T + np.maximum(np.abs(lo), np.abs(hi)))
    return x[np.all((Ax >= lo - tol) & (Ax <= hi + tol), axis=1)]


def _lp_domain(A: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """(lower corner, upper corner) of {x : lo <= A x <= hi} by 2n linear
    programs, or None when it is empty."""
    from scipy.optimize import linprog

    A_ub = np.vstack([A, -A])
    b_ub = np.concatenate([hi, -lo])
    n = A.shape[1]
    low = np.empty(n)
    high = np.empty(n)
    for i in range(n):
        c = np.zeros(n)
        c[i] = 1.0
        lp_lo = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=(None, None), method="highs")
        lp_hi = linprog(-c, A_ub=A_ub, b_ub=b_ub, bounds=(None, None), method="highs")
        if lp_lo.status == 2 or lp_hi.status == 2:
            return None
        if lp_lo.status != 0 or lp_hi.status != 0:
            raise UnboundedDomainError(
                "integration domain is unbounded; pass an explicit domain"
            )
        low[i] = lp_lo.fun
        high[i] = -lp_hi.fun
    return low, high


def auto_domain(datum: BLDatum, boxes: Sequence[Box]) -> Optional[Box]:
    """Bounding box of P = {x : L_j x in box_j for all j}.

    The box spans the vertices of P (`_vertices`), or comes from linear
    programs when the stacked maps A give more than VERTEX_CANDIDATES vertex
    candidates.  Returns None when P is empty or flat (the integrand vanishes
    identically).  Emptiness is decided first: when A has rank r < n it is
    decided on the row space of A, where P is a bounded polytope in r
    variables, and a nonempty P raises UnboundedDomainError, because the maps
    share a kernel direction.
    """
    A = np.vstack(datum.maps)
    lo = np.concatenate([box.lo for box in boxes])
    hi = np.concatenate([box.hi for box in boxes])
    _, s, vt = np.linalg.svd(A, full_matrices=False)
    rank = int(np.sum(s > s.max(initial=0.0) * max(A.shape) * np.finfo(float).eps))
    if math.comb(A.shape[0], rank) * 2**rank > VERTEX_CANDIDATES:
        corners = _lp_domain(A, lo, hi)
        if corners is None:
            return None
        low, high = corners
    elif rank < datum.n:
        if rank == 0:
            empty = np.any(lo > 0.0) or np.any(hi < 0.0)
        else:
            empty = len(_vertices(A @ vt[:rank].T, lo, hi)) == 0
        if empty:
            return None
        raise UnboundedDomainError("integration domain is unbounded; pass an explicit domain")
    else:
        x = _vertices(A, lo, hi)
        if len(x) == 0:
            return None
        low, high = x.min(axis=0), x.max(axis=0)
    if np.any(high <= low):
        return None
    return Box(low, high)


def bl_functional(
    datum: BLDatum, inputs: InputTuple, q: QuadratureSpec, _stream_base: int = 0
) -> tuple:
    """Value of the functional and an error estimate.

    The numerator is estimated under the quadrature spec; the denominators
    are the inputs' `masses`, exact wherever an input has a closed form.
    Under tensor-grid the error estimate is a half-resolution difference;
    under monte-carlo it is a propagated standard error.
    """
    bad = validate_datum(datum)
    if bad:
        raise DatumError("; ".join(bad))
    bad = inputs.validate(datum)
    if bad:
        raise ValueError("; ".join(bad))

    dens = masses(inputs.functions, q, _stream_base)

    domain = q.domain
    domain_is_exact = False
    if domain is None:
        domain = auto_domain(datum, inputs.boxes)
        if domain is None:
            return 0.0, 0.0
        # auto domain contains the whole support of compactly supported tuples,
        # so mass on the outer cells is genuine rather than a truncation artifact
        domain_is_exact = all(f.compact_support for f in inputs.functions)

    # under monte-carlo the boundary layer is the outer 2% of each axis
    lo = np.asarray(domain.lo)
    hi = np.asarray(domain.hi)
    shell_lo = lo + 0.02 * (hi - lo)
    shell_hi = hi - 0.02 * (hi - lo)
    est = estimate(
        pullback(datum.maps, datum.exponents, inputs.functions),
        q,
        _stream_base,
        box=domain,
        outside=lambda pts: ~np.all((pts >= shell_lo) & (pts <= shell_hi), axis=1),
    )
    if est.boundary > BOUNDARY_MASS_LIMIT and not domain_is_exact:
        raise DomainTooSmallError(
            f"outermost cells carry {est.boundary:.1%} of the numerator mass; enlarge the domain"
        )
    return quotient(est.value, est.stderr, dens, datum.exponents)


# ---------------------------------------------------------------------------
# convolution


def _sample_on_grid(fn, h: np.ndarray) -> SampledFunction:
    box = fn.box
    lo = np.asarray(box.lo)
    widths = box.widths
    cells = np.maximum(np.ceil(widths / h - 1e-9).astype(int), 1)
    axes = [lo[i] + (np.arange(cells[i]) + 0.5) * h[i] for i in range(box.dim)]
    vals = np.empty(int(np.prod(cells)))
    for idx, _, pts in mc.grid_points(axes):
        vals[idx] = fn(pts)
    return SampledFunction(axes, vals.reshape(tuple(cells)))


def _fft_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two real arrays by real FFTs padded to fast
    lengths.  Axes of length 1 in either array are broadcast, not transformed."""
    from scipy.fft import irfftn, next_fast_len, rfftn

    axes = [i for i in range(a.ndim) if a.shape[i] > 1 and b.shape[i] > 1]
    if not axes:
        return a * b
    shape = [m + n - 1 for m, n in zip(a.shape, b.shape)]
    fshape = [next_fast_len(shape[i], True) for i in axes]
    out = irfftn(rfftn(a, fshape, axes=axes) * rfftn(b, fshape, axes=axes), fshape, axes=axes)
    return out[tuple(slice(n) for n in shape)]


def convolve_inputs(f: InputTuple, g: InputTuple, q: QuadratureSpec) -> InputTuple:
    """Componentwise convolutions f_j * g_j as sampled functions.

    Both factors are resampled onto grids with a common spacing per axis, the
    wider box split into min(q.resolution, CONVOLUTION_CELLS) cells, and the
    discrete convolution preserves the identity
    int(f_j * g_j) = int(f_j) int(g_j) exactly at the sampled level.
    """
    if len(f.functions) != len(g.functions):
        raise ValueError("input tuples have different lengths")
    out = []
    for fj, gj in zip(f.functions, g.functions):
        if fj.box.dim != gj.box.dim:
            raise ValueError("convolution factors have different dimensions")
        h = np.maximum(fj.box.widths, gj.box.widths) / min(q.resolution, CONVOLUTION_CELLS)
        sf = _sample_on_grid(fj, h)
        sg = _sample_on_grid(gj, h)
        conv = _fft_convolve(sf.values, sg.values)
        conv = np.maximum(conv, 0.0) * np.prod(h)
        axes = []
        for i in range(fj.box.dim):
            start = sf.axes[i][0] + sg.axes[i][0]
            axes.append(start + np.arange(conv.shape[i]) * h[i])
        out.append(SampledFunction(axes, conv))
    return InputTuple(out)


# ---------------------------------------------------------------------------
# localization


def localized_max(f: InputTuple, g: InputTuple, centres, ratio: Callable) -> tuple:
    """The largest localized ratio over a finite set of points x.

    Point ix gives one centre c_j per input (`centres[ix][j]`) and the
    localized tuple h^x_j(z) = f_j(z) g_j(c_j - z), whose (value, error) is
    `ratio(ix, h)`.  A point whose h^x has a vanished factor (disjoint
    supports), or whose ratio raises ZeroMassError, gets None.  Returns the
    per-point results and the index of the first largest value; raises
    DegenerateLocalizationError when every point gets None.
    """
    results = []
    for ix, cs in enumerate(centres):
        hs = [
            product_input(fj, reflected_input(gj, c))
            for fj, gj, c in zip(f.functions, g.functions, cs)
        ]
        try:
            results.append(None if None in hs else ratio(ix, InputTuple(hs)))
        except ZeroMassError:
            results.append(None)
    found = [ix for ix, r in enumerate(results) if r is not None]
    if not found:
        raise DegenerateLocalizationError("every localized tuple h^x vanished; widen the x grid")
    return results, max(found, key=lambda ix: results[ix][0])


# ---------------------------------------------------------------------------
# convolution inequality check


@dataclass
class BallCheckReport(Report):
    bl_f: float
    bl_g: float
    bl_conv: float
    bl_h_max: float
    argmax_x: np.ndarray
    lhs: float
    rhs: float
    slack: float
    stderr: float
    verdict: str
    h_values: list
    skipped_x: int
    extremiser_consequences: Optional[dict]


def ball_inequality_check(
    datum: BLDatum,
    f: InputTuple,
    g: InputTuple,
    x_grid: np.ndarray,
    q: QuadratureSpec,
    near_extremiser: bool = False,
) -> BallCheckReport:
    """Check BL(f) BL(g) <= max_x BL(h^x) BL(f*g) over a finite grid of x.

    The inputs are used as given: f*g and every h^x_j are linear in each f_j
    and g_j, and BL is unchanged when an input is multiplied by a positive
    constant, so every factor of the inequality is scale invariant.  The grid
    maximum underestimates the supremum, so a negative slack beyond three
    combined standard errors is reported as "fail" while a small one is
    "inconclusive".  With near_extremiser set, the consequences
    BL(f) <= BL(f*g) and BL(f) <= max_x BL(h^x) are reported as well.
    """
    x_grid = np.atleast_2d(np.asarray(x_grid, dtype=float))
    if x_grid.shape[1] != datum.n:
        raise ValueError(f"x grid points must lie in R^{datum.n}")

    bl_f, err_f = bl_functional(datum, f, q, _stream_base=3000)
    bl_g, err_g = bl_functional(datum, g, q, _stream_base=4000)
    conv = convolve_inputs(f, g, q)
    bl_conv, err_conv = bl_functional(datum, conv, q, _stream_base=5000)

    centres = [[L @ x for L in datum.maps] for x in x_grid]
    results, best = localized_max(
        f, g, centres, lambda ix, h: bl_functional(datum, h, q, _stream_base=6000 + 100 * ix)
    )
    bl_h_max, err_h_max = results[best]
    h_values = [None if r is None else r[0] for r in results]

    lhs = bl_f * bl_g
    rhs = bl_h_max * bl_conv
    err_lhs = lhs * math.hypot(
        err_f / bl_f if bl_f > 0 else 0.0,
        err_g / bl_g if bl_g > 0 else 0.0,
    )
    err_rhs = rhs * math.hypot(
        err_h_max / bl_h_max if bl_h_max > 0 else 0.0,
        err_conv / bl_conv if bl_conv > 0 else 0.0,
    )
    slack = rhs - lhs
    sigma = math.hypot(err_lhs, err_rhs)
    verdict = mc.verdict(slack, sigma)

    consequences = None
    if near_extremiser:
        s1 = bl_conv - bl_f
        sg1 = math.hypot(err_conv, err_f)
        s2 = bl_h_max - bl_f
        sg2 = math.hypot(err_h_max, err_f)
        consequences = {
            "conv_dominates": {
                "slack": s1,
                "stderr": sg1,
                "verdict": mc.verdict(s1, sg1),
            },
            "localization_dominates": {
                "slack": s2,
                "stderr": sg2,
                "verdict": mc.verdict(s2, sg2),
            },
        }

    return BallCheckReport(
        bl_f=bl_f,
        bl_g=bl_g,
        bl_conv=bl_conv,
        bl_h_max=bl_h_max,
        argmax_x=x_grid[best],
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        stderr=sigma,
        verdict=verdict,
        h_values=h_values,
        skipped_x=h_values.count(None),
        extremiser_consequences=consequences,
    )

"""Localized nonlinear Brascamp-Lieb constants and the induction machinery.

A nonlinear datum replaces the linear maps by C^2 submersions B_j.  The
localized constant at base point u and scale delta is the best bound

    int_{U_delta(u)} prod_j (f_j o B_j)^{p_j}  <=  C prod_j (int f_j)^{p_j}

over inputs that are kappa-constant at step mu on B_j(2 U_delta(u)), where
U_delta(u) is the ball of radius delta log(1/delta).  Below the threshold
delta^(alpha+beta') <= mu the constant is controlled by the linearized datum
(base case); above it, by localization to scale delta^alpha against truncated
gaussian near-extremisers (recursive step).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import mc
from .datum import BLDatum, Report, validate_datum
from .functional import (
    GaussianFunction,
    InputTuple,
    QuadratureSpec,
    estimate,
    localized_max,
    masses,
    pullback,
    quotient,
)
from .gaussians import scale_gaussian, solve_extremiser, young_constant

FD_SLACK = 1e-8


class ThresholdError(ValueError):
    pass


class LinearizationError(ValueError):
    pass


class UncertifiedInputError(ValueError):
    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


# ---------------------------------------------------------------------------
# submersions


@dataclass
class Submersion:
    """A C^2 map R^n -> R^{n_j} with surjective differential.

    `map` is vectorized over rows of an (N, n) array; `jacobian` takes a single
    point.  `affine(c)` is the linearization at c, the pair (B(c), dB(c)) with
    the differential as an (n_j, n) array; every linearization in this module
    goes through it.  `c2_bound` bounds the Taylor remainder in the euclidean
    norm: |B(y) - B(x) - dB(x)(y - x)| <= c2_bound |y - x|^2 on the working
    region.  The closed-form kappa certificate (`is_kappa_constant`) and the
    base case's linearization deviation, bounded a priori by c2 r^2, trust it,
    so either is only as good as c2_bound: the registry's maps have exact ones
    (a step-2 group's is derived from its bracket), except `young-affine-2d`,
    whose c2_bound is `_estimate_c2`'s sampled maximum of the euclidean
    remainder times 1.5.
    """

    map: Callable
    jacobian: Callable
    base_point: np.ndarray
    c2_bound: float

    def __post_init__(self):
        self.base_point = np.asarray(self.base_point, dtype=float).ravel()
        self.c2_bound = float(self.c2_bound)

    @property
    def n(self) -> int:
        return self.base_point.shape[0]

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return np.atleast_2d(self.map(np.atleast_2d(pts)))

    def affine(self, c: np.ndarray) -> tuple:
        """(B(c), dB(c)): the value and the differential at the point c."""
        c = np.asarray(c, dtype=float)
        return self(c[None, :])[0], np.atleast_2d(self.jacobian(c))


def _remainder_norms(s: Submersion, c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Euclidean norms |B(x) - B(c) - dB(c)(x - c)| of the Taylor remainders at
    the rows of x, about the paired rows of c or about one centre c shared by
    every row: one map call for the points and one for the centres."""
    if c.ndim == 1:
        b, J = s.affine(c)
        return np.linalg.norm(s(x) - b - (x - c) @ J.T, axis=1)
    J = np.stack([np.atleast_2d(s.jacobian(ck)) for ck in c])
    return np.linalg.norm(s(x) - s(c) - (J @ (x - c)[:, :, None])[:, :, 0], axis=1)


def validate_submersion(s: Submersion) -> list:
    """Spot-check the jacobian and the quadratic remainder bound on 64 points
    of the ball of radius 0.5 about the base point.  Forward differences obey
    |fd - dB e| <= c2 h (up to rounding) on the first 16, and the euclidean
    norms of sampled remainders must respect c2_bound."""
    out = []
    gen = mc.chunk_generator(0, 11, 0)
    pts = mc.uniform_ball(gen, 64, s.base_point, 0.5)
    h = 1e-5
    b0, J0 = s.affine(s.base_point)
    nj = b0.shape[0]
    if J0.shape != (nj, s.n):
        out.append(f"jacobian shape {J0.shape} does not match map ({nj}, {s.n})")
        return out
    sv = np.linalg.svd(J0, compute_uv=False)
    if sv.size == 0 or sv.min() <= 1e-10 * max(sv.max(), 1.0):
        out.append("differential at the base point is not surjective")
    for k in range(16):
        x = pts[k]
        J = np.atleast_2d(s.jacobian(x))
        for i in range(s.n):
            e = np.zeros(s.n)
            e[i] = h
            fd = (s(x + e) - s(x))[0] / h
            bound = 10.0 * s.c2_bound * h + FD_SLACK
            err = np.abs(fd - J[:, i]).max()
            if err > bound:
                out.append(
                    f"finite difference mismatch at sample {k} axis {i}: "
                    f"{err:.3e} > {bound:.3e}"
                )
                break
    norms2 = np.sum((pts - s.base_point) ** 2, axis=1)
    rem = _remainder_norms(s, s.base_point, pts)
    excess = rem - s.c2_bound * norms2 * (1.0 + FD_SLACK) - 1e-12
    if np.any(excess > 0):
        k = int(np.argmax(excess))
        out.append(
            f"quadratic remainder exceeds c2_bound at sample {k}: "
            f"excess {excess[k]:.3e}"
        )
    return out


@dataclass
class NonlinearDatum:
    submersions: list
    exponents: list
    name: str = ""

    def __post_init__(self):
        self.submersions = list(self.submersions)
        self.exponents = [float(p) for p in self.exponents]

    @property
    def m(self) -> int:
        return len(self.submersions)

    @property
    def n(self) -> int:
        return self.submersions[0].n

    @property
    def sigma(self) -> float:
        return math.fsum(self.exponents)

    def base_point(self) -> np.ndarray:
        return self.submersions[0].base_point

    def linearize(self, u: Optional[np.ndarray] = None) -> BLDatum:
        u = self.base_point() if u is None else np.asarray(u, dtype=float)
        maps = [np.atleast_2d(s.jacobian(u)) for s in self.submersions]
        return BLDatum(n=self.n, maps=maps, exponents=list(self.exponents))

    def validate(self) -> list:
        out = []
        for j, s in enumerate(self.submersions):
            if s.base_point.shape[0] != self.n:
                out.append(f"submersion {j} lives on a different domain")
            out.extend(f"submersion {j}: {v}" for v in validate_submersion(s))
        out.extend(validate_datum(self.linearize()))
        return out


# ---------------------------------------------------------------------------
# localized problems


def localization_radius(delta: float) -> float:
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    return delta * math.log(1.0 / delta)


@dataclass(frozen=True)
class LocalizedProblem:
    """The constant C(u, delta, mu, kappa): center, scale, and the constancy
    class of admissible inputs."""

    center: tuple
    delta: float
    mu: float
    kappa: float

    def __post_init__(self):
        object.__setattr__(
            self, "center", tuple(float(x) for x in np.atleast_1d(self.center))
        )
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")
        if not (self.mu > 0.0):
            raise ValueError("mu must be positive")
        if not (self.kappa >= 1.0):
            raise ValueError("kappa must be at least 1")

    @property
    def u(self) -> np.ndarray:
        return np.asarray(self.center)

    @property
    def radius(self) -> float:
        return localization_radius(self.delta)

    def regime(self, alpha: float, beta_prime: float) -> str:
        return "base" if self.delta ** (alpha + beta_prime) <= self.mu else "recursive"


# ---------------------------------------------------------------------------
# kappa-constancy


KAPPA_ROUNDING = 1e-12  # relative margin on closed-form constancy bounds


@dataclass
class KappaReport:
    ok: bool
    kappa: float
    mu: float
    worst_ratio: float
    witness_x: Optional[np.ndarray]
    witness_y: Optional[np.ndarray]
    samples: int
    # certified (closed-form bound <= kappa), refuted (a sampled witness
    # exceeds kappa) or sampled (no sampled pair exceeds kappa)
    status: str


@dataclass
class Region:
    """The ball B(center, radius), pushed through `submersion` unless that is
    None.  Called as draw(gen, k), it maps k uniform points of the ball."""

    submersion: Optional[Submersion]
    center: np.ndarray
    radius: float

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)

    def __call__(self, gen, k):
        pts = mc.uniform_ball(gen, k, self.center, self.radius)
        return pts if self.submersion is None else self.submersion(pts)

    def enclosure(self) -> tuple:
        """A ball (centre, radius) containing the region; through a submersion
        s, |s(y) - s(c)| <= |ds(c)|_2 r + c2_bound r^2 by the Taylor bound."""
        s, c, r = self.submersion, self.center, self.radius
        if s is None:
            return c, r
        b, J = s.affine(c)
        return b, float(np.linalg.norm(J, 2)) * r + s.c2_bound * r * r


def ball_sampler(center: np.ndarray, radius: float) -> Region:
    return Region(None, center, radius)


def image_sampler(submersion: Submersion, center: np.ndarray, radius: float) -> Region:
    return Region(submersion, center, radius)


def _gaussian_ratio_bound(fn, region, mu: float) -> Optional[float]:
    """Closed-form bound on fn(z)/fn(z + h) over z in the region, |h| <= mu,
    for a gaussian fn = c exp(-pi <A(z-a), z-a>):

        log fn(z) - log fn(z + h) <= pi (2 mu |A(z-a)| + mu^2 |A|_2),

    with |A(z-a)| <= |A(e-a)| + |A|_2 rho over the region's enclosing ball
    B(e, rho).  The bound is inflated by KAPPA_ROUNDING, so that float
    rounding cannot certify a level that exact arithmetic would not.  None
    unless fn is a GaussianFunction and the region a Region."""
    if not (isinstance(fn, GaussianFunction) and isinstance(region, Region)):
        return None
    centre, rho = region.enclosure()
    norm_a = float(np.linalg.norm(fn.A, 2))
    reach = float(np.linalg.norm(fn.A @ (centre - fn.center))) + norm_a * rho
    log_ratio = math.pi * (2.0 * mu * reach + mu * mu * norm_a)
    with np.errstate(over="ignore"):
        return float(np.exp(log_ratio)) * (1.0 + KAPPA_ROUNDING)


def is_kappa_constant(
    fn,
    sample_region: Callable,
    mu: float,
    kappa: float,
    samples: int = 10000,
    seed: int = 0,
    stream: int = 7,
) -> KappaReport:
    """Check that fn(x) <= kappa fn(y) whenever |x - y| <= mu, x in the
    region.  `sample_region(gen, k)` draws region points; the comparison point
    y ranges over the full mu-ball around x and may leave the region.

    A gaussian fn on a `Region` is first bounded in closed form
    (`_gaussian_ratio_bound`); a bound <= kappa certifies constancy with no
    sample drawn.  Otherwise point pairs are sampled, which can refute
    constancy with a witness pair but not prove it; the report keeps the worst
    ratio and its witness.  Pairs where either value underflows into the
    subnormal range are skipped: their quotients are float quantization noise,
    not evidence against constancy.  Exact zeros still count, so fn(x) > 0
    against fn(y) == 0 reports an infinite ratio.
    """
    bound = _gaussian_ratio_bound(fn, sample_region, mu)
    if bound is not None and bound <= kappa:
        return KappaReport(
            ok=True,
            kappa=kappa,
            mu=mu,
            worst_ratio=bound,
            witness_x=None,
            witness_y=None,
            samples=0,
            status="certified",
        )
    worst = 0.0
    wx = wy = None
    count = 0
    tiny = np.finfo(float).tiny
    for index, size in mc.iter_chunks(samples):
        gen = mc.chunk_generator(seed, stream, index)
        x = sample_region(gen, size)
        d = x.shape[1]
        y = mc.uniform_ball(gen, size, np.zeros(d), mu) + x
        fx = np.asarray(fn(x), dtype=float)
        fy = np.asarray(fn(y), dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(fy > 0.0, fx / fy, np.where(fx > 0.0, np.inf, 0.0))
        unresolved = ((fx > 0.0) & (fx < tiny)) | ((fy > 0.0) & (fy < tiny))
        ratio[unresolved] = 0.0
        k = int(np.argmax(ratio))
        if ratio[k] > worst:
            worst = float(ratio[k])
            wx = x[k].copy()
            wy = y[k].copy()
        count += size
    ok = bool(worst <= kappa)
    return KappaReport(
        ok=ok,
        kappa=kappa,
        mu=mu,
        worst_ratio=worst,
        witness_x=wx,
        witness_y=wy,
        samples=count,
        status="sampled" if ok else "refuted",
    )


# ---------------------------------------------------------------------------
# localized ratio


def _linearized_gaussian(nd: NonlinearDatum, funcs: Sequence, center: np.ndarray):
    """Mean and precision (m, M) of the gaussian prod_j f_j(B_j(c) + J_j(x - c))^{p_j}
    for gaussian inputs f_j with blocks A_j, the integrand with each B_j
    replaced by its linearization at the centre c, J_j = dB_j(c): with
    e_j = B_j(c) - J_j c - center_j, M = sum_j p_j J_j^T A_j J_j and
    m = -M^{-1} sum_j p_j J_j^T A_j e_j.  Returns None unless every input is
    a gaussian and M is positive definite."""
    if not all(isinstance(fj, GaussianFunction) for fj in funcs):
        return None
    M = np.zeros((nd.n, nd.n))
    b = np.zeros(nd.n)
    for p, s, fj in zip(nd.exponents, nd.submersions, funcs):
        if p == 0.0:
            continue
        Bc, J = s.affine(center)
        e = Bc - J @ center - fj.center
        JtA = J.T @ fj.A
        M += p * JtA @ J
        b += p * JtA @ e
    if not np.all(np.linalg.eigvalsh(M) > 0.0):
        return None
    return -np.linalg.solve(M, b), M


def certify_inputs(
    nd: NonlinearDatum, lp: LocalizedProblem, f: InputTuple, q: QuadratureSpec
) -> list:
    """`is_kappa_constant` reports of each input f_j at level kappa and scale
    mu over B_j(U_{2 r}(u)), on stream 50 + j.  The first input that fails
    raises UncertifiedInputError with its witness pair."""
    reports = []
    for j, (s, fj) in enumerate(zip(nd.submersions, f.functions)):
        rep = is_kappa_constant(
            fj,
            image_sampler(s, lp.u, 2.0 * lp.radius),
            lp.mu,
            lp.kappa,
            seed=q.seed,
            stream=50 + j,
        )
        if not rep.ok:
            raise UncertifiedInputError(
                f"input {j} is not {lp.kappa}-constant at scale {lp.mu}: "
                f"worst sampled ratio {rep.worst_ratio:.6g}",
                witness=(rep.witness_x, rep.witness_y),
            )
        reports.append(rep)
    return reports


def _certification(rep: KappaReport, x_index: Optional[int], j: int, kind: str) -> dict:
    """The artifact entry of one constancy certification."""
    return {
        "x_index": x_index,
        "input": j,
        "kind": kind,
        "level": rep.kappa,
        "ok": rep.ok,
        "worst_ratio": rep.worst_ratio,
        "status": rep.status,
        "samples": rep.samples,
    }


def localized_ratio(
    nd: NonlinearDatum,
    lp: LocalizedProblem,
    f: InputTuple,
    q: QuadratureSpec,
    certify: bool = True,
    _stream_base: int = 0,
) -> tuple:
    """The ratio int_{U_delta(u)} prod (f_j o B_j)^{p_j} / prod (int f_j)^{p_j}.

    Inputs must belong to the (mu, kappa)-constancy class; with certify set
    `certify_inputs` checks the membership (in closed form for gaussian
    inputs) and a failure raises UncertifiedInputError with a witness pair.
    The denominators are the inputs' `masses`, and the numerator follows the
    quadrature spec.  Under monte-carlo, gaussian inputs are importance-sampled
    from the gaussian of the datum linearized at the centre, which carries
    nearly all of the integrand.
    """
    if len(f.functions) != nd.m:
        raise ValueError(f"{len(f.functions)} inputs for {nd.m} submersions")
    if certify:
        certify_inputs(nd, lp, f, q)
    num = estimate(
        pullback(nd.submersions, nd.exponents, f.functions),
        q,
        _stream_base,
        ball=(lp.u, lp.radius),
        proposal=_linearized_gaussian(nd, f.functions, lp.u),
    )
    dens = masses(f.functions, q, _stream_base)
    return quotient(num.value, num.stderr, dens, nd.exponents)


# ---------------------------------------------------------------------------
# base case


@dataclass
class BaseCaseReport(Report):
    ratio: float
    stderr: float
    bl_linear: float
    kappa_sigma: float
    bound: float
    slack: float
    verdict: str
    linearization_dev: float
    dev_bound: float
    threshold: float


def base_case_check(
    nd: NonlinearDatum,
    lp: LocalizedProblem,
    f: InputTuple,
    q: QuadratureSpec,
    alpha: float,
    beta_prime: float,
) -> BaseCaseReport:
    """Verify C(u, delta, mu, kappa) <= kappa^sigma BL(dB(u), p) in the base
    regime delta^(alpha+beta') <= mu.

    Inside U_delta(u) every B_j stays within its linearization by
    c2 (delta log(1/delta))^2; the check requires that deviation (bounded a
    priori by c2 r^2, and reported as `linearization_dev`) to be below mu,
    since that is what lets a kappa-constant input trade B_j for the affine
    map at cost kappa^{p_j}.
    """
    threshold = lp.delta ** (alpha + beta_prime)
    if lp.regime(alpha, beta_prime) != "base":
        raise ThresholdError(
            f"delta^(alpha+beta') = {threshold:.3e} exceeds mu = {lp.mu:.3e}; "
            "this problem is in the recursive regime"
        )
    r = lp.radius
    dev_bound = max(s.c2_bound for s in nd.submersions) * r * r
    if dev_bound > lp.mu:
        raise LinearizationError(
            f"linearization deviation {dev_bound:.3e} exceeds mu = "
            f"{lp.mu:.3e}; shrink the neighbourhood or increase mu"
        )

    ratio, err = localized_ratio(nd, lp, f, q, certify=True)
    ext = solve_extremiser(nd.linearize(lp.u))
    kappa_sigma = lp.kappa**nd.sigma
    bound = kappa_sigma * ext.bl_value
    slack = bound - ratio
    return BaseCaseReport(
        ratio=ratio,
        stderr=err,
        bl_linear=ext.bl_value,
        kappa_sigma=kappa_sigma,
        bound=bound,
        slack=slack,
        verdict=mc.verdict(slack, err),
        linearization_dev=dev_bound,
        dev_bound=dev_bound,
        threshold=threshold,
    )


# ---------------------------------------------------------------------------
# recursive step


@dataclass
class RecursiveEntry:
    x: np.ndarray
    ratio: Optional[float]
    stderr: Optional[float]


@dataclass
class RecursiveReport(Report):
    lhs: float
    lhs_err: float
    max_ratio: float
    argmax_x: np.ndarray
    rhs: float
    rhs_err: float
    slack: float
    verdict: str
    equality_gap: float
    entries: list
    certifications: list
    delta_fine: float
    kappa_fine: float
    lhs_certifications: list
    admissible: bool


def recursive_step_check(
    nd: NonlinearDatum,
    lp: LocalizedProblem,
    f: InputTuple,
    x_grid: np.ndarray,
    q: QuadratureSpec,
    alpha: float,
    beta: float,
    beta_prime: float,
) -> RecursiveReport:
    """Verify the recursive inequality

        C(u, delta, mu, kappa) <= (1 + delta^beta)
            max_x C(x, delta^alpha, mu, kappa exp(delta^beta))

    empirically: the left side on the supplied inputs, the right side on the
    localized tuples h_j^x(w) = f_j(w) g_j(L^u_j x - w) built from the scaled
    gaussian extremiser of the linearized datum at u.  The maximum runs over
    the supplied x grid (a finite subgrid of 2 U_delta(u)), so the reported
    right side is a lower estimate of the true maximum.

    The left side's inputs are certified first (`certify_inputs`, recorded in
    `lhs_certifications` with kind "input" and no x index); a failure raises
    UncertifiedInputError.  Kernel and product constancy levels,
    exp(delta^beta) and kappa exp(delta^beta), are checked by
    `is_kappa_constant`; each certification records its status (certified,
    refuted or sampled), worst ratio and sample count, and a failed one does
    not abort the comparison.  The step is `admissible` when every
    certification is ok; a step that is not reports "inconclusive", since the
    inequality is only claimed for admissible inputs.  A point x whose h^x
    vanishes (see `functional.localized_max`) gets a None/None entry and no
    certifications; DegenerateLocalizationError is raised when every point
    does.
    """
    threshold = lp.delta ** (alpha + beta_prime)
    if lp.regime(alpha, beta_prime) == "base":
        raise ThresholdError(
            f"delta^(alpha+beta') = {threshold:.3e} does not exceed mu = "
            f"{lp.mu:.3e}; this problem is in the base regime"
        )
    x_grid = np.atleast_2d(np.asarray(x_grid, dtype=float))
    if x_grid.shape[1] != nd.n:
        raise ValueError(f"x grid points must lie in R^{nd.n}")
    outer = 2.0 * lp.radius
    for x in x_grid:
        if np.linalg.norm(x - lp.u) > outer * (1.0 + 1e-9):
            raise ValueError("x grid leaves the doubled localization ball")

    lhs_certifications = [
        _certification(rep, None, j, "input")
        for j, rep in enumerate(certify_inputs(nd, lp, f, q))
    ]
    lhs, lhs_err = localized_ratio(nd, lp, f, q, certify=False, _stream_base=0)

    delta_fine = lp.delta**alpha
    radius_fine = localization_radius(delta_fine)
    bump = math.exp(lp.delta**beta)
    kappa_fine = lp.kappa * bump
    ext = solve_extremiser(nd.linearize(lp.u))
    g_scaled = scale_gaussian(ext.gaussians, delta_fine)

    affines = [s.affine(lp.u) for s in nd.submersions]
    centres = [[b + (x - lp.u) @ J.T for b, J in affines] for x in x_grid]
    g = InputTuple([GaussianFunction(A, c) for A, c in zip(g_scaled.blocks, g_scaled.amplitudes)])
    certifications = []

    def ratio(ix, h):
        x = x_grid[ix]
        for j, (s, gj, c, hj) in enumerate(
            zip(nd.submersions, g.functions, centres[ix], h.functions)
        ):
            region = image_sampler(s, x, 2.0 * radius_fine)
            for kind, fn, level, stream in (
                ("kernel", gj.reflected_at(c), bump, 500),
                ("product", hj, kappa_fine, 900),
            ):
                rep = is_kappa_constant(
                    fn,
                    region,
                    lp.mu,
                    level,
                    samples=4096,
                    seed=q.seed,
                    stream=stream + 10 * ix + j,
                )
                certifications.append(_certification(rep, ix, j, kind))
        lp_fine = LocalizedProblem(
            center=tuple(x), delta=delta_fine, mu=lp.mu, kappa=kappa_fine
        )
        return localized_ratio(nd, lp_fine, h, q, certify=False, _stream_base=1000 + 100 * ix)

    results, best = localized_max(f, g, centres, ratio)
    max_ratio, max_err = results[best]
    # a vanished h^x has no ratio: its entry is None/None, as in the ball check
    entries = [RecursiveEntry(x, *(r or (None, None))) for x, r in zip(x_grid, results)]

    rhs = (1.0 + lp.delta**beta) * max_ratio
    rhs_err = (1.0 + lp.delta**beta) * max_err
    slack = rhs - lhs
    sigma = math.hypot(lhs_err, rhs_err)
    gap = abs(lhs - max_ratio)
    admissible = all(c["ok"] for c in lhs_certifications + certifications)
    return RecursiveReport(
        lhs=lhs,
        lhs_err=lhs_err,
        max_ratio=max_ratio,
        argmax_x=x_grid[best],
        rhs=rhs,
        rhs_err=rhs_err,
        slack=slack,
        verdict=mc.verdict(slack, sigma) if admissible else "inconclusive",
        equality_gap=gap,
        entries=entries,
        certifications=certifications,
        delta_fine=delta_fine,
        kappa_fine=kappa_fine,
        lhs_certifications=lhs_certifications,
        admissible=admissible,
    )


# ---------------------------------------------------------------------------
# perturbation of the localizing gaussian


@dataclass
class PerturbationReport(Report):
    lhs: float
    rhs: float
    allowed: float
    slack: float
    verdict: str
    l1_diff: float
    l1_bound: float
    gamma: float


def perturbation_check(
    nd: NonlinearDatum,
    u: np.ndarray,
    y: np.ndarray,
    delta: float,
    q: QuadratureSpec,
    alpha: float,
    beta_prime: float,
    gamma: Optional[float] = None,
) -> PerturbationReport:
    """Compare the recentred linearization against the affine comparison maps:

        int_{U_{delta^alpha}(y)} prod g_j(dB_j(u)(x - y))^{p_j} dx
            <= (1 + delta^beta') int_{U_{delta^alpha}(y)} prod g_j(L^{u,y}_j x)^{p_j} dx

    where L^{u,y}_j x = B_j(u) + dB_j(u)(x - u) - B_j(y) and g is the
    extremiser of the linearized datum at u scaled to delta^alpha.  Also
    reports the L^1 distance between the two integrands against delta^gamma
    for beta' < gamma < 2 - alpha.
    """
    u = np.asarray(u, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (0.0 < delta < 1.0 / math.e):
        raise ValueError("delta must lie in (0, 1/e)")
    if np.linalg.norm(y - u) > localization_radius(delta) * (1.0 + 1e-9):
        raise ValueError("y must lie in U_delta(u)")
    if gamma is None:
        gamma = 0.5 * (beta_prime + (2.0 - alpha))
    if not (beta_prime < gamma < 2.0 - alpha):
        raise ValueError("gamma must lie strictly between beta' and 2 - alpha")

    ext = solve_extremiser(nd.linearize(u))
    delta_fine = delta**alpha
    g = scale_gaussian(ext.gaussians, delta_fine)
    affines = [s.affine(u) for s in nd.submersions]
    jac = [J for _, J in affines]

    def recentred(shifts):
        # x -> prod_j g_j(dB_j(u) x - shift_j)^{p_j}
        funcs = [
            GaussianFunction(A, c, center=z)
            for A, c, z in zip(g.blocks, g.amplitudes, shifts)
        ]
        return pullback(jac, nd.exponents, funcs)

    # dB_j(u) y is formed as the pullback forms dB_j(u) x, so that for linear
    # B_j and u = 0 the two integrands agree to the last bit
    lhs_integrand = recentred([(y[None, :] @ J.T)[0] for J in jac])
    rhs_integrand = recentred(
        [
            s(y[None, :])[0] - b + (u[None, :] @ J.T)[0]
            for s, (b, J) in zip(nd.submersions, affines)
        ]
    )
    # three estimates on one stream: each draws the same points
    ball = (y, localization_radius(delta_fine))
    lhs, rhs, l1 = (
        estimate(fn, q, 31, ball=ball).value
        for fn in (
            lhs_integrand,
            rhs_integrand,
            lambda pts: np.abs(lhs_integrand(pts) - rhs_integrand(pts)),
        )
    )

    allowed = (1.0 + delta**beta_prime) * rhs
    slack = allowed - lhs
    l1_bound = delta**gamma
    verdict = "pass" if slack >= 0 and l1 <= l1_bound else "fail"
    return PerturbationReport(
        lhs=lhs,
        rhs=rhs,
        allowed=allowed,
        slack=slack,
        verdict=verdict,
        l1_diff=l1,
        l1_bound=l1_bound,
        gamma=gamma,
    )


# ---------------------------------------------------------------------------
# registry of example submersions


def _linear_submersions(datum: BLDatum) -> list:
    return [
        Submersion(
            lambda pts, L=L: np.atleast_2d(pts) @ L.T, lambda x, L=L: L, np.zeros(L.shape[1]), 0.0
        )
        for L in (L.copy() for L in datum.maps)
    ]


def _young_group(d: int, quotient: Callable, jacobian: Callable, c2: float) -> list:
    """The Young datum (y, y^{-1} x, x) of a d-dimensional Lie group in
    exponential coordinates w = (x, y) on R^d x R^d: the two projections, and
    the quotient map with its jacobian and c2 bound."""
    if d < 1:
        raise ValueError("dimension must be positive")
    left = np.hstack([np.zeros((d, d)), np.eye(d)])
    right = np.hstack([np.eye(d), np.zeros((d, d))])
    zero = np.zeros(2 * d)
    return [
        Submersion(lambda pts: pts[:, d:], lambda w: left, zero, 0.0),
        Submersion(quotient, jacobian, zero, c2),
        Submersion(lambda pts: pts[:, :d], lambda w: right, zero, 0.0),
    ]


def _step2_group(C: np.ndarray) -> list:
    """The Young datum of the step-2 nilpotent group with bracket
    [a, b]_k = a^T C_k b.  BCH stops at step 2, so y^{-1} x = x - y - [y, x]/2
    exactly and its jacobian is linear in w.  The Taylor remainder at step h
    is -[h_y, h_x]/2, and |[a, b]| <= K |a| |b| with K = sqrt(sum_k |C_k|_2^2),
    so c2 = K/4 since |h_x| |h_y| <= |h|^2 / 2."""
    C = np.asarray(C, dtype=float)
    if not np.array_equal(C, -np.swapaxes(C, 1, 2)):
        raise ValueError("a bracket tensor must be antisymmetric")
    d = C.shape[0]
    # the bracket through C's nonzero entries above the diagonal, each
    # c (a_i b_j - a_j b_i): a dense einsum costs ten times more
    pairs = [(k, i, j, float(C[k, i, j])) for k, i, j in zip(*np.nonzero(np.triu(C, 1)))]

    def quotient(pts):
        x, y = pts[:, :d], pts[:, d:]
        out = x - y
        for k, i, j, c in pairs:
            out[:, k] -= 0.5 * c * (y[:, i] * x[:, j] - y[:, j] * x[:, i])
        return out

    def jacobian(w):
        x, y = w[:d], w[d:]
        J = np.hstack([np.eye(d), -np.eye(d)])
        for k, i, j, c in pairs:
            J[k, i] += 0.5 * c * y[j]
            J[k, j] -= 0.5 * c * y[i]
            J[k, d + i] -= 0.5 * c * x[j]
            J[k, d + j] += 0.5 * c * x[i]
        return J

    K = math.sqrt(sum(np.linalg.norm(Ck, 2) ** 2 for Ck in C))
    return _young_group(d, quotient, jacobian, K / 4.0)


# [e1, e2] = e3: the 3-dimensional Heisenberg algebra
_HEISENBERG_BRACKET = np.zeros((3, 3, 3))
_HEISENBERG_BRACKET[2, 0, 1], _HEISENBERG_BRACKET[2, 1, 0] = 1.0, -1.0


def _expm1_ratio(a: np.ndarray) -> np.ndarray:
    """(e^a - 1)/a, stable near zero."""
    a = np.asarray(a, dtype=float)
    out = np.ones_like(a)
    small = np.abs(a) < 1e-6
    out[small] = 1.0 + a[small] / 2.0 + a[small] ** 2 / 6.0
    big = ~small
    out[big] = np.expm1(a[big]) / a[big]
    return out


def _expm1_ratio_prime(a: np.ndarray) -> np.ndarray:
    """d/da of (e^a - 1)/a."""
    a = np.asarray(a, dtype=float)
    out = np.full_like(a, 0.5)
    small = np.abs(a) < 1e-6
    out[small] = 0.5 + a[small] / 3.0 + a[small] ** 2 / 8.0
    big = ~small
    out[big] = (np.exp(a[big]) * (a[big] - 1.0) + 1.0) / a[big] ** 2
    return out


def _affine_group() -> list:
    """The Young datum of the two-dimensional ax+b group in exponential
    coordinates w = (x1, x2, y1, y2): the group element for (a, b) is
    s -> e^a s + b E(a), E(a) = (e^a - 1)/a.  The quotient's c2 is
    `_estimate_c2`'s sampled figure, not a bound."""

    def b2(pts):
        x1 = pts[:, 0]
        x2 = pts[:, 1]
        y1 = pts[:, 2]
        y2 = pts[:, 3]
        z1 = x1 - y1
        num = x2 * _expm1_ratio(x1) - y2 * _expm1_ratio(y1)
        z2 = np.exp(-y1) * num / _expm1_ratio(z1)
        return np.column_stack([z1, z2])

    def j2(w):
        x1, x2, y1, y2 = (float(v) for v in w)
        a = np.array([x1, y1, x1 - y1])
        (Ex, Ey, D), (Epx, Epy, Epd) = _expm1_ratio(a).tolist(), _expm1_ratio_prime(a).tolist()
        N = x2 * Ex - y2 * Ey
        ey = math.exp(-y1)
        J = np.zeros((2, 4))
        J[0, 0] = 1.0
        J[0, 2] = -1.0
        J[1, 0] = ey * (x2 * Epx * D - N * Epd) / D**2
        J[1, 1] = ey * Ex / D
        J[1, 2] = ey * (-N / D - y2 * Epy / D + N * Epd / D**2)
        J[1, 3] = -ey * Ey / D
        return J

    return _young_group(2, b2, j2, _estimate_c2(Submersion(b2, j2, np.zeros(4), 0.0), 0.6))


def _estimate_c2(s: Submersion, radius: float) -> float:
    """Sampled bound on the euclidean Taylor remainder of s about points of
    the ball of the given radius around its base point, with a safety factor
    of 1.5: one batched remainder scan per chunk of the 4096 sampled pairs."""
    worst = 0.0
    for index, size in mc.iter_chunks(4096):
        gen = mc.chunk_generator(0, 13, index)
        centers = mc.uniform_ball(gen, size, s.base_point, radius)
        offsets = mc.uniform_ball(gen, size, np.zeros(s.n), 0.5 * radius)
        pts = centers + offsets
        d2 = np.sum((pts - centers) ** 2, axis=1)
        keep = d2 > 1e-12
        ratios = _remainder_norms(s, centers, pts)[keep] / d2[keep]
        worst = max(worst, float(np.max(ratios, initial=0.0)))
    return 1.5 * worst


def _perturbed_quadratic(gamma: float) -> list:
    """Rank-one Young maps on R^2 with quadratic perturbations of size gamma."""
    if not (0.0 <= gamma):
        raise ValueError("gamma must be nonnegative")

    def b1(pts):
        return (pts[:, 1] + gamma * pts[:, 0] ** 2)[:, None]

    def j1(w):
        return np.array([[2.0 * gamma * w[0], 1.0]])

    def b2(pts):
        return (pts[:, 0] - pts[:, 1] + gamma * pts[:, 0] * pts[:, 1])[:, None]

    def j2(w):
        return np.array([[1.0 + gamma * w[1], -1.0 + gamma * w[0]]])

    def b3(pts):
        return (pts[:, 0] + gamma * pts[:, 1] ** 2)[:, None]

    def j3(w):
        return np.array([[1.0, 2.0 * gamma * w[1]]])

    zero = np.zeros(2)
    return [
        Submersion(map=b1, jacobian=j1, base_point=zero, c2_bound=gamma),
        Submersion(map=b2, jacobian=j2, base_point=zero, c2_bound=gamma),
        Submersion(map=b3, jacobian=j3, base_point=zero, c2_bound=gamma),
    ]


# Young-type tags, by the pattern that REGISTRY_TAGS shows: the builder of the
# submersions from the tag's parameter, the text in place of <...>
_YOUNG_TYPE = {
    "young-euclidean-<d>": lambda d: _step2_group(np.zeros((int(d),) * 3)),
    "young-heisenberg": lambda _: _step2_group(_HEISENBERG_BRACKET),
    "young-affine-2d": lambda _: _affine_group(),
    "perturbed-quadratic:<gamma>": lambda gamma: _perturbed_quadratic(float(gamma)),
}

REGISTRY_TAGS = ("linear", *_YOUNG_TYPE)


def registry(tag: str, datum: Optional[BLDatum] = None) -> NonlinearDatum:
    """Build a named nonlinear datum.  Young-type tags take exponents
    (2/3, 2/3, 2/3); tag 'linear' takes the maps and exponents of `datum`."""
    if tag == "linear":
        if datum is None:
            raise ValueError("tag 'linear' needs an explicit datum")
        subs, p = _linear_submersions(datum), datum.exponents
    else:
        for pattern, build in _YOUNG_TYPE.items():
            prefix, param, _ = pattern.partition("<")
            if tag == pattern or (param and tag.startswith(prefix)):
                subs, p = build(tag[len(prefix):]), [2.0 / 3.0] * 3
                break
        else:
            raise ValueError(
                f"unknown registry tag {tag!r}; available: {', '.join(REGISTRY_TAGS)}"
            )
    return NonlinearDatum(submersions=subs, exponents=list(p), name=tag)


# ---------------------------------------------------------------------------
# group Young convergence study


@dataclass
class YoungRow:
    delta: float
    ratio: float
    stderr: float
    bound: float
    slack: float


def lie_group_young(
    group: str,
    deltas: Sequence[float],
    q: Optional[QuadratureSpec] = None,
    mu: float = 1e-4,
    kappa: float = 1.5,
    workers: int = 1,
) -> dict:
    """Localized convolution-inequality ratios on a group at shrinking scales.

    For each delta the inputs are the gaussian extremisers of the linearized
    datum at the identity, scaled to delta; the ratio should increase towards
    the sharp constant of the linearized problem as delta -> 0.  Returns a
    dict with the rows (delta, ratio, stderr, bound, slack) and metadata.
    Rows for different scales are independent, so they may be evaluated by a
    small thread pool without changing any result.
    """
    nd = registry(group)
    if q is None:
        q = QuadratureSpec(method="monte-carlo", resolution=200000)
    ext = solve_extremiser(nd.linearize())
    d = nd.submersions[0](np.zeros((1, nd.n))).shape[1]
    bound = young_constant(nd.exponents, d)
    order = sorted(deltas, reverse=True)

    def one(delta: float) -> YoungRow:
        g = scale_gaussian(ext.gaussians, delta)
        funcs = [GaussianFunction(A, c) for A, c in zip(g.blocks, g.amplitudes)]
        lp = LocalizedProblem(
            center=tuple(np.zeros(nd.n)), delta=delta, mu=mu, kappa=kappa
        )
        ratio, err = localized_ratio(nd, lp, InputTuple(funcs), q, certify=True)
        return YoungRow(
            delta=delta, ratio=ratio, stderr=err, bound=bound, slack=bound - ratio
        )

    if workers > 1 and len(order) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(one, order))
    else:
        rows = [one(delta) for delta in order]
    return {
        "group": group,
        "exponents": list(nd.exponents),
        "fiber_dim": d,
        "bound": bound,
        "bl_linearized": ext.bl_value,
        "rows": rows,
        "seed": q.seed,
        "method": q.method,
        "resolution": q.resolution,
    }

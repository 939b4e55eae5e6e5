"""Gaussian inputs, the closed-form value of the functional, and extremisers.

For centred gaussian inputs g_j(x) = c_j exp(-pi <A_j x, x>) the functional
has the closed form

    prod_j det(A_j)^{p_j/2} / det(M)^{1/2},   M = sum_j p_j L_j^T A_j L_j,

independent of the amplitudes once each input is L^1-normalized
(c_j = det(A_j)^{1/2}).  Extremisers satisfy the fixed point
A_j = (L_j M^{-1} L_j^T)^{-1}, which the solver iterates directly with an
isotropic renormalization keeping det M = 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .datum import BLDatum, DatumError, Report, validate_datum

SYM_RTOL = 1e-12
EIG_FLOOR = 1e-12
EIG_CEIL = 1e12


class SingularMatrixError(ValueError):
    """M is singular; carries a null direction as evidence."""

    def __init__(self, message: str, direction: Optional[np.ndarray] = None):
        super().__init__(message)
        self.direction = direction


def block_defect(A: np.ndarray) -> Optional[str]:
    """Why A is not the block of a gaussian exp(-pi <A x, x>), or None: it must
    be square, finite, symmetric within SYM_RTOL and positive definite."""
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        return f"is not square: {A.shape}"
    if not np.isfinite(A).all():
        return "is not finite"
    if np.abs(A - A.T).max() > SYM_RTOL * max(np.abs(A).max(), 1.0):
        return "is not symmetric"
    w = np.linalg.eigvalsh(0.5 * (A + A.T))
    if w[0] <= 0:
        return f"is not positive definite (min eig {w[0]:.3e})"
    return None


@dataclass
class GaussianTuple:
    """Centred gaussian inputs: blocks A_j (SPD) and amplitudes c_j."""

    blocks: list
    amplitudes: list

    def __post_init__(self):
        self.blocks = [np.atleast_2d(np.asarray(A, dtype=float)) for A in self.blocks]
        self.amplitudes = [float(c) for c in self.amplitudes]

    def validate(self) -> list:
        out = [f"block {j} {bad}" for j, bad in enumerate(map(block_defect, self.blocks)) if bad]
        for j, c in enumerate(self.amplitudes):
            if not (c > 0 and math.isfinite(c)):
                out.append(f"amplitude {j} = {c} not positive finite")
        return out

    def masses(self) -> list:
        """L^1 masses c_j det(A_j)^{-1/2}."""
        return [
            c / math.sqrt(np.linalg.det(A))
            for c, A in zip(self.amplitudes, self.blocks)
        ]


def scale_gaussian(g: GaussianTuple, rho: float) -> GaussianTuple:
    """Rescale x -> x/rho with mass preserved: A -> A/rho^2, c -> c rho^{-n_j}."""
    if not (rho > 0):
        raise ValueError("scale must be positive")
    blocks = [A / rho**2 for A in g.blocks]
    amps = [c * rho ** (-A.shape[0]) for c, A in zip(g.amplitudes, g.blocks)]
    return GaussianTuple(blocks=blocks, amplitudes=amps)


def compute_M(datum: BLDatum, g: GaussianTuple) -> np.ndarray:
    return _M(datum, g.blocks)


def _M(datum: BLDatum, blocks: list) -> np.ndarray:
    M = np.zeros((datum.n, datum.n))
    for p, L, A in zip(datum.exponents, datum.maps, blocks):
        M += p * (L.T @ A @ L)
    return 0.5 * (M + M.T)


def _check_M(M: np.ndarray):
    w, v = np.linalg.eigh(M)
    if w[0] <= SYM_RTOL * max(abs(w[-1]), 1.0):
        raise SingularMatrixError(
            f"M is singular or indefinite (min eig {w[0]:.3e}); "
            "the datum concentrates no decay along the reported direction",
            direction=v[:, 0],
        )
    return w


def gaussian_bl_value(datum: BLDatum, g: GaussianTuple) -> float:
    """Ratio of the functional at centred gaussian inputs, in closed form.

    Amplitudes cancel between numerator and the normalizing masses, so the
    value depends only on the blocks.
    """
    bad = g.validate()
    if bad:
        raise ValueError("; ".join(bad))
    M = compute_M(datum, g)
    _check_M(M)
    logdet_M = np.linalg.slogdet(M)[1]
    acc = -0.5 * logdet_M
    for p, A in zip(datum.exponents, g.blocks):
        acc += 0.5 * p * np.linalg.slogdet(A)[1]
    return float(math.exp(acc))


@dataclass
class ExtremiserResult(Report):
    gaussians: GaussianTuple
    bl_value: float
    iterations: int
    residual: float
    converged: bool
    status: str

    def to_json(self) -> dict:
        out = super().to_json()
        out.update(out.pop("gaussians"))  # blocks and amplitudes at the top
        return out


def _normalize(datum: BLDatum, blocks: list) -> tuple:
    """Scale the blocks jointly so that det M = 1; returns them with M^{-1}."""
    M = _M(datum, blocks)
    w = _check_M(M)
    t = math.exp(-math.fsum(np.log(w)) / datum.n)
    return [t * A for A in blocks], np.linalg.inv(t * M)


def _targets(datum: BLDatum, blocks: list, Minv: np.ndarray) -> tuple:
    """S_j = L_j M^{-1} L_j^T and the residual max_j |A_j^{-1} - S_j|_2."""
    S = [L @ Minv @ L.T for L in datum.maps]
    res = 0.0
    for A, Sj in zip(blocks, S):
        res = max(res, float(np.linalg.norm(np.linalg.inv(A) - Sj, 2)))
    return S, res


def solve_extremiser(
    datum: BLDatum, tol: float = 1e-10, max_iter: int = 10000
) -> ExtremiserResult:
    """Fixed-point iteration for the gaussian extremiser of a datum.

    Each sweep replaces A_j by S_j^{-1}, S_j = L_j M^{-1} L_j^T, and rescales
    all blocks so det M = 1.  The residual max_j |A_j^{-1} - S_j| is invariant
    under joint isotropic scaling, so the normalization does not disturb the
    stopping test.

    Divergence (eigenvalues of a block leaving [1e-12, 1e12]) is reported via
    status; for a datum violating the subspace criterion this is the expected
    outcome and is evidence of an infinite constant.  The residual need not
    fall monotonically: well-posed data can take long excursions before the
    contraction sets in, so no stagnation cutoff is applied.
    """
    bad = validate_datum(datum)
    if bad:
        raise DatumError("; ".join(bad))
    blocks, Minv = _normalize(datum, [np.eye(nj) for nj in datum.codims])
    S, res = _targets(datum, blocks, Minv)
    status = "max-iter"
    iterations = 0
    converged = res <= tol
    if converged:
        status = "converged"

    while not converged and iterations < max_iter:
        iterations += 1
        targets = [0.5 * (T + T.T) for T in map(np.linalg.inv, S)]
        try:
            blocks, Minv = _normalize(datum, targets)
        except SingularMatrixError:
            # the iterate left the positive cone: expected for data with an
            # infinite constant; keep the last healthy iterate in the report
            status = "diverged"
            break

        spectra = [np.linalg.eigvalsh(A) for A in blocks]
        explode = any(w[0] < EIG_FLOOR or w[-1] > EIG_CEIL for w in spectra)
        S, res = _targets(datum, blocks, Minv)
        if res <= tol:
            converged = True
            status = "converged"
            break
        if explode:
            status = "diverged"
            break

    # unit L^1 masses: c_j = det(A_j)^{1/2}
    g = GaussianTuple(blocks, [float(np.sqrt(np.linalg.det(A))) for A in blocks])
    value = gaussian_bl_value(datum, g)
    return ExtremiserResult(
        gaussians=g,
        bl_value=value,
        iterations=iterations,
        residual=res,
        converged=converged,
        status=status,
    )


def young_constant(p: Sequence[float], d: int = 1) -> float:
    """Sharp constant prod_j ((1-p_j)^{1-p_j} / p_j^{p_j})^{d/2} for convolution
    exponents with sum p_j = 2."""
    p = [float(x) for x in p]
    if abs(math.fsum(p) - 2.0) > 1e-12:
        raise ValueError(f"exponents must sum to 2, got {math.fsum(p)!r}")
    if any(x < 0.0 or x > 1.0 for x in p):
        raise ValueError("exponents must lie in [0, 1]")

    def log_c(r: float) -> float:
        if r <= 0.0 or r >= 1.0:
            return 0.0
        return (1.0 - r) * math.log1p(-r) - r * math.log(r)

    return math.exp(0.5 * d * math.fsum(log_c(r) for r in p))


def truncation_deficit(
    datum: BLDatum, g: GaussianTuple, delta: float, eta: float
) -> tuple:
    """Upper estimate of the mass of prod_j (g_j o L_j)^{p_j} outside the ball
    of radius delta * log(1/delta), relative to its total mass.

    The product equals exp(-pi <M x, x>) up to amplitude; after whitening, the
    complement of the ball lies inside {|z| >= r sqrt(lambda_min(M))}, whose
    gaussian mass is the regularized upper incomplete gamma function
    Q(n/2, pi r^2 lambda_min(M)).  Returns (deficit, bound)
    with bound = delta^{2 eta}.
    """
    if not (0.0 < delta < 1.0 / math.e):
        raise ValueError("delta must lie in (0, 1/e)")
    if not (0.0 < eta):
        raise ValueError("eta must be positive")
    from scipy.special import gammaincc

    M = compute_M(datum, g)
    w = _check_M(M)
    n = datum.n
    radius = delta * math.log(1.0 / delta)
    r_white = radius * math.sqrt(w[0])
    deficit = gammaincc(0.5 * n, math.pi * r_white * r_white)
    bound = delta ** (2.0 * eta)
    return float(deficit), float(bound)


def c0_constants(pairs: Sequence[tuple]) -> tuple:
    """Largest operator norms of M_u^{-1/2} and M_u^{1/2} over a family of
    solved extremiser problems.  Input: (datum, ExtremiserResult) pairs."""
    if not pairs:
        raise ValueError("no solved problems supplied")
    c0bar = 0.0
    c0 = 0.0
    for datum, result in pairs:
        if not result.converged:
            raise ValueError("c0 constants require converged extremisers")
        w = np.linalg.eigvalsh(compute_M(datum, result.gaussians))
        if w[0] <= 0:
            raise SingularMatrixError("M not positive definite in c0_constants")
        c0bar = max(c0bar, 1.0 / math.sqrt(w[0]))
        c0 = max(c0, math.sqrt(w[-1]))
    return float(c0bar), float(c0)

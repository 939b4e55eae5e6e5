"""Scale schedules for the induction argument.

Scales follow delta_k = delta_0^(alpha^k); the recursion stops at the first
k with delta_k^(alpha + beta') <= mu, after which the base case applies.
Each recursive step costs a factor (1 + delta_k^beta) and lets the constancy
level grow by exp(delta_k^beta), so the total loss is controlled by the
series sum_k delta_0^(alpha^k beta).  A loss factor too large for a float is
inf, as a float product that overflows is.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

# domain bound for delta0 (radii r log(1/r) must be increasing in r)
DELTA0_DOMAIN_CAP = 1.0 / math.e - 1e-6

_GRID = 1e-6
_SERIES_FLOOR = 1e-30
_SERIES_MAX_TERMS = 100000


@dataclass(frozen=True)
class ScheduleParams:
    alpha: float
    beta: float
    beta_prime: float
    delta0: float
    mu: float
    epsilon: float = 0.01
    sigma: float = 2.0


def validate_params(params: ScheduleParams) -> list:
    """Exponent constraints: alpha > 1, beta > 0, alpha + beta < 2, and
    beta < beta' < 2 - alpha.  Boundary values are rejected."""
    v = []
    if not params.alpha > 1.0:
        v.append(f"alpha = {params.alpha} must exceed 1")
    if not params.beta > 0.0:
        v.append(f"beta = {params.beta} must be positive")
    if not params.alpha + params.beta < 2.0:
        v.append(f"alpha + beta = {params.alpha + params.beta} must be below 2")
    if not (params.beta < params.beta_prime < 2.0 - params.alpha):
        v.append(
            f"beta_prime = {params.beta_prime} must lie strictly between "
            f"beta = {params.beta} and 2 - alpha = {2.0 - params.alpha}"
        )
    if not (0.0 < params.delta0 < 1.0 / math.e):
        v.append(f"delta0 = {params.delta0} must lie in (0, 1/e)")
    if not (0.0 < params.mu < 1.0):
        v.append(f"mu = {params.mu} must lie in (0, 1)")
    if not params.epsilon > 0.0:
        v.append(f"epsilon = {params.epsilon} must be positive")
    if not params.sigma > 0.0:
        v.append(f"sigma = {params.sigma} must be positive")
    return v


def _require_valid(params: ScheduleParams):
    v = validate_params(params)
    if v:
        raise ValueError("; ".join(v))


def schedule(params: ScheduleParams) -> tuple:
    """Scales delta_0 .. delta_{k*} and the stopping index k*.

    delta_k = delta0^(alpha^k), evaluated in log space; k* is the smallest k
    with delta_k^(alpha + beta') <= mu.
    """
    _require_valid(params)
    log_d0 = math.log(params.delta0)
    log_mu = math.log(params.mu)
    thresh = params.alpha + params.beta_prime
    deltas = []
    power = 1.0
    for k in range(_SERIES_MAX_TERMS):
        log_dk = power * log_d0
        deltas.append(math.exp(log_dk))
        if thresh * log_dk <= log_mu:
            return deltas, k
        power *= params.alpha
    raise ValueError(
        f"schedule did not reach the base-case threshold in {_SERIES_MAX_TERMS} steps"
    )


def step_losses(delta0: float, alpha: float, beta: float) -> Iterator[float]:
    """The per-step losses t_k = delta0^(alpha^k beta), k = 0, 1, ..., evaluated
    in log space."""
    log_d0 = math.log(delta0)
    power = 1.0
    while True:
        yield math.exp(beta * power * log_d0)
        power *= alpha


def _exp(x: float) -> float:
    """math.exp, with inf in place of an overflow."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def running_products(params: ScheduleParams, k_star: int) -> list:
    """The products of the per-step losses (1 + delta_i^beta) exp(sigma delta_i^beta)
    over i < k, for k = 0 .. k*, by direct multiplication in one pass."""
    _require_valid(params)
    if k_star < 0:
        raise ValueError("k_star must be nonnegative")
    out = [1.0]
    for t in islice(step_losses(params.delta0, params.alpha, params.beta), k_star):
        out.append(out[-1] * ((1.0 + t) * _exp(params.sigma * t)))
    return out


def accumulated_factor(params: ScheduleParams, k_star: int) -> tuple:
    """Product of per-step losses over the recursive scales k < k*.

    Returns (product, log_bound) where product = prod (1 + delta_k^beta)
    exp(sigma delta_k^beta), the last of `running_products`, and log_bound is
    the full series majorant (1 + sigma) sum_{k>=0} delta0^(alpha^k beta), so
    that log(product) <= log_bound always.
    """
    product = running_products(params, k_star)[-1]
    log_bound = (1.0 + params.sigma) * _series_sum(params.delta0, params.alpha, params.beta)
    return product, log_bound


def _series_terms(delta0: float, alpha: float, beta: float) -> Iterator[float]:
    """The terms t_k of the full series up to the first below _SERIES_FLOOR;
    ValueError when _SERIES_MAX_TERMS terms do not get there, since a partial
    sum would pass for the full one."""
    for t in islice(step_losses(delta0, alpha, beta), _SERIES_MAX_TERMS):
        yield t
        if t < _SERIES_FLOOR:
            return
    raise ValueError(
        f"the loss series sum_k delta0^(alpha^k beta) has not fallen below "
        f"{_SERIES_FLOOR:g} in {_SERIES_MAX_TERMS} terms"
    )


def _series_sum(delta0: float, alpha: float, beta: float) -> float:
    total = 0.0
    for t in _series_terms(delta0, alpha, beta):
        total += t
    return total


def kappa_evolution(params: ScheduleParams, k_star: int, kappa0: float) -> list:
    """Constancy levels kappa_0 .. kappa_{k*}: each recursive step multiplies
    by exp(delta_k^beta)."""
    _require_valid(params)
    if not kappa0 >= 1.0:
        raise ValueError("kappa0 must be at least 1")
    if k_star < 0:
        raise ValueError("k_star must be nonnegative")
    out = [kappa0]
    for t in islice(step_losses(params.delta0, params.alpha, params.beta), k_star):
        out.append(out[-1] * math.exp(t))
    return out


def total_loss_factor(delta0: float, alpha: float, beta: float, sigma: float) -> float:
    """Full-series loss prod_{k>=0} (1 + t_k) exp(sigma t_k), t_k = delta0^(alpha^k beta)."""
    acc = 0.0
    for t in _series_terms(delta0, alpha, beta):
        acc += math.log1p(t) + sigma * t
    return _exp(acc)


def choose_delta0(epsilon: float, sigma: float, alpha: float, beta: float) -> float:
    """Largest starting scale (on a 1e-6 grid, at most DELTA0_DOMAIN_CAP)
    whose full-series loss stays within 1 + epsilon.  Falls below the grid
    only when even one grid step is too lossy."""
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    if not (1.0 < alpha and 0.0 < beta):
        raise ValueError("alpha must exceed 1 and beta must be positive")
    target = 1.0 + epsilon
    cap = DELTA0_DOMAIN_CAP
    if total_loss_factor(cap, alpha, beta, sigma) <= target:
        return cap
    lo, hi = 0.0, cap
    # loss factor is monotone increasing in delta0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid <= 0.0:
            break
        if total_loss_factor(mid, alpha, beta, sigma) <= target:
            lo = mid
        else:
            hi = mid
    g = math.floor(lo / _GRID) * _GRID
    while g + _GRID <= cap and total_loss_factor(g + _GRID, alpha, beta, sigma) <= target:
        g += _GRID
    if g <= 0.0:
        return lo
    return g


def final_bound(epsilon: float, sigma: float) -> float:
    """(1 + epsilon)^(sigma + 3), inf if that overflows; requires epsilon > 0."""
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    try:
        return (1.0 + epsilon) ** (sigma + 3.0)
    except OverflowError:
        return math.inf

"""Scale schedule bookkeeping against an extended-precision reimplementation."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blscales.scheduler import (
    DELTA0_DOMAIN_CAP,
    ScheduleParams,
    accumulated_factor,
    choose_delta0,
    final_bound,
    kappa_evolution,
    running_products,
    schedule,
    total_loss_factor,
    validate_params,
)

mp.mp.dps = 50


def mp_schedule(p):
    a = mp.mpf(repr(p.alpha))
    d0 = mp.mpf(repr(p.delta0))
    mu = mp.mpf(repr(p.mu))
    deltas = []
    k = 0
    while True:
        dk = d0 ** (a**k)
        deltas.append(dk)
        if dk ** (mp.mpf(repr(p.alpha)) + mp.mpf(repr(p.beta_prime))) <= mu:
            return deltas, k
        k += 1
        if k > 10000:
            raise RuntimeError("schedule does not terminate")


def mp_accumulated(p, k_star):
    a = mp.mpf(repr(p.alpha))
    b = mp.mpf(repr(p.beta))
    d0 = mp.mpf(repr(p.delta0))
    sig = mp.mpf(repr(p.sigma))
    acc = mp.mpf(1)
    for k in range(k_star):
        t = (d0 ** (a**k)) ** b
        acc *= (1 + t) * mp.e ** (sig * t)
    return acc


def mp_kappas(p, k_star, kappa0):
    a = mp.mpf(repr(p.alpha))
    b = mp.mpf(repr(p.beta))
    d0 = mp.mpf(repr(p.delta0))
    out = [mp.mpf(repr(kappa0))]
    for k in range(k_star):
        t = (d0 ** (a**k)) ** b
        out.append(out[-1] * mp.e**t)
    return out


def random_valid_params(rng):
    # alpha >= 1.1 keeps k* modest, so float log-space evaluation stays
    # within 1e-12 of the 50-digit reference
    alpha = float(rng.uniform(1.1, 1.9))
    beta = float(rng.uniform(0.01, min(1.98 - alpha, 2 - alpha - 0.02)))
    lo, hi = beta, 2 - alpha
    beta_prime = float(rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo)))
    delta0 = float(rng.uniform(1e-4, DELTA0_DOMAIN_CAP))
    mu = float(10 ** rng.uniform(-14, -4))
    sigma = float(rng.uniform(0.5, 4.0))
    return ScheduleParams(
        alpha=alpha,
        beta=beta,
        beta_prime=beta_prime,
        delta0=delta0,
        mu=mu,
        sigma=sigma,
    )


def test_thousand_draws_match_extended_precision():
    rng = np.random.default_rng(123)
    agree = 0
    while agree < 1000:
        p = random_valid_params(rng)
        if validate_params(p):
            continue
        deltas, k_star = schedule(p)
        mp_deltas, mp_k = mp_schedule(p)
        assert k_star == mp_k
        for d, md in zip(deltas, mp_deltas):
            assert abs(d - float(md)) <= 1e-12 * float(md)
        prod, log_bound = accumulated_factor(p, k_star)
        ref = mp_accumulated(p, k_star)
        assert abs(prod - float(ref)) <= 1e-12 * float(ref)
        kappas = kappa_evolution(p, k_star, 1.0)
        refk = mp_kappas(p, k_star, 1.0)
        for kv, rv in zip(kappas, refk):
            assert abs(kv - float(rv)) <= 1e-12 * float(rv)
        # the product bound must hold with the accumulated sigma-losses
        assert math.log(prod) <= log_bound + 1e-12
        agree += 1


def test_canonical_example():
    p = ScheduleParams(alpha=1.5, beta=0.3, beta_prime=0.4, delta0=0.1, mu=1e-10)
    deltas, k_star = schedule(p)
    assert k_star == 5
    assert deltas[0] == pytest.approx(0.1)
    assert deltas[-1] == pytest.approx(0.1 ** (1.5**5), rel=1e-12)
    prod, log_bound = accumulated_factor(p, k_star)
    assert prod == pytest.approx(30.380983402349749, rel=1e-12)
    assert math.log(prod) <= log_bound


def test_boundary_violations_rejected():
    base = dict(beta_prime=0.4, delta0=0.1, mu=1e-10)
    cases = [
        dict(alpha=1.0, beta=0.3),       # alpha must exceed 1
        dict(alpha=1.5, beta=0.0),       # beta must be positive
        dict(alpha=1.7, beta=0.35),      # alpha + beta must stay below 2
        dict(alpha=1.5, beta=0.45),      # needs beta < beta_prime < 2 - alpha
    ]
    for kw in cases:
        msgs = validate_params(ScheduleParams(**base, **kw))
        assert msgs, kw
    ok = validate_params(
        ScheduleParams(alpha=1.5, beta=0.3, beta_prime=0.4, delta0=0.1, mu=1e-10)
    )
    assert ok == []


def test_delta0_domain_rejected():
    p = ScheduleParams(alpha=1.5, beta=0.3, beta_prime=0.4, delta0=0.4, mu=1e-10)
    assert any("1/e" in m for m in validate_params(p))


@settings(max_examples=200, deadline=None)
@given(
    alpha=st.floats(1.01, 1.9),
    frac=st.floats(0.05, 0.95),
    gap=st.floats(0.1, 0.9),
    logd0=st.floats(-4, -0.5),
    logmu=st.floats(-14, -4),
)
def test_schedule_properties(alpha, frac, gap, logd0, logmu):
    beta = frac * (2 - alpha) * 0.9
    beta_prime = beta + gap * (2 - alpha - beta) * 0.9
    delta0 = min(10.0**logd0, DELTA0_DOMAIN_CAP)
    p = ScheduleParams(
        alpha=alpha, beta=beta, beta_prime=beta_prime, delta0=delta0, mu=10.0**logmu
    )
    if validate_params(p):
        return
    deltas, k_star = schedule(p)
    # strictly decreasing scales, terminating exactly at the threshold
    assert all(a > b for a, b in zip(deltas, deltas[1:]))
    # threshold checks up to float rounding of the log-space comparison
    assert deltas[k_star] ** (p.alpha + p.beta_prime) <= p.mu * (1 + 1e-12)
    for d in deltas[:k_star]:
        assert d ** (p.alpha + p.beta_prime) > p.mu * (1 - 1e-12)
    prod, log_bound = accumulated_factor(p, k_star)
    assert prod >= 1.0
    assert math.log(prod) <= log_bound + 1e-12
    kappas = kappa_evolution(p, k_star, 1.0)
    assert len(kappas) == k_star + 1
    assert all(b >= a for a, b in zip(kappas, kappas[1:]))


def test_total_loss_dominates_truncated_product():
    p = ScheduleParams(alpha=1.5, beta=0.3, beta_prime=0.4, delta0=0.05, mu=1e-8)
    _, k_star = schedule(p)
    prod, _ = accumulated_factor(p, k_star)
    assert prod <= total_loss_factor(p.delta0, p.alpha, p.beta, p.sigma) + 1e-12


def test_choose_delta0_postcondition():
    for eps in (0.5, 0.1, 0.01):
        d0 = choose_delta0(eps, 2.0, 1.5, 0.3)
        assert 0 < d0 < 1 / math.e
        assert total_loss_factor(d0, 1.5, 0.3, 2.0) <= 1 + eps
    # generous budget keeps the cap
    d0 = choose_delta0(50.0, 1.0, 1.5, 0.9)
    assert d0 == DELTA0_DOMAIN_CAP


def test_final_bound():
    assert final_bound(0.01, 2.0) == pytest.approx(1.01**5, rel=1e-15)
    assert final_bound(0.3, 1.0) == pytest.approx(1.3**4, rel=1e-15)
    with pytest.raises(ValueError):
        final_bound(0.0, 2.0)
    with pytest.raises(ValueError):
        final_bound(0.1, -1.0)


# alpha this close to 1 needs millions of steps, beyond _SERIES_MAX_TERMS
SLOW = dict(alpha=1.0000001, beta=0.3, beta_prime=0.4, delta0=0.1)


def test_schedule_beyond_the_step_limit_raises_value_error():
    with pytest.raises(ValueError, match="threshold"):
        schedule(ScheduleParams(**SLOW, mu=1e-300))


def test_unfinished_series_raise_value_error():
    # the series needs about 1.1e7 terms; a partial sum would pass for the full one
    with pytest.raises(ValueError, match="series"):
        total_loss_factor(1e-33, 1.0000001, 0.3, 2.0)
    with pytest.raises(ValueError, match="series"):
        choose_delta0(1e-3, 2.0, 1.0000001, 0.3)
    with pytest.raises(ValueError, match="series"):
        accumulated_factor(ScheduleParams(**SLOW, mu=0.5), 1)


def test_overflowing_factors_are_inf():
    assert final_bound(1e300, 2.0) == math.inf
    p = ScheduleParams(alpha=1.5, beta=0.3, beta_prime=0.4, delta0=0.1, mu=1e-10, sigma=1e10)
    _, k_star = schedule(p)
    prod, log_bound = accumulated_factor(p, k_star)
    assert prod == math.inf and math.isfinite(log_bound)
    assert total_loss_factor(0.1, 1.5, 0.3, 1e10) == math.inf


def test_running_products_match_accumulated_factor_bitwise():
    p = ScheduleParams(alpha=1.05, beta=0.1, beta_prime=0.5, delta0=0.2, mu=1e-10, sigma=3.5)
    _, k_star = schedule(p)
    running = running_products(p, k_star)
    assert len(running) == k_star + 1 and running[0] == 1.0
    assert running == [accumulated_factor(p, k)[0] for k in range(k_star + 1)]

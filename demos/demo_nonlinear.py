"""Localized constants for nonlinear data: base case and recursive step.

The localized ratio is evaluated on certified kappa-constant inputs over a
ball of radius delta log(1/delta).  Below the mu-threshold the base case
bounds the ratio by linearization; above it, one recursion step trades scale
delta for delta^alpha at a (1 + delta^beta) loss.
Run:  python3 demos/demo_nonlinear.py
"""

import numpy as np

from blscales.datum import BLDatum
from blscales.functional import GaussianFunction, InputTuple, QuadratureSpec
from blscales.gaussians import scale_gaussian, solve_extremiser
from blscales.nonlinear import (
    LocalizedProblem,
    base_case_check,
    recursive_step_check,
    registry,
)


def scaled_inputs(nd, delta):
    # gaussian extremiser of the linearized datum, dilated to scale delta
    ext = solve_extremiser(nd.linearize())
    g = scale_gaussian(ext.gaussians, delta)
    return InputTuple(
        [GaussianFunction(A, c) for A, c in zip(g.blocks, g.amplitudes)]
    )


# --- base regime: perturbed quadratic map, delta^(alpha+beta') <= mu --------

nd = registry("perturbed-quadratic:0.5")
lp = LocalizedProblem(center=(0.0, 0.0), delta=0.01, mu=1.5e-3, kappa=1.05)
f = scaled_inputs(nd, 1.0)
rep = base_case_check(nd, lp, f, QuadratureSpec(resolution=128),
                      alpha=1.5, beta_prime=0.4)
print("base case, perturbed quadratic (gamma = 0.5)")
print(f"  threshold delta^(a+b') = {rep.threshold:.3e}  mu = {lp.mu:.3e}")
print(f"  linearization deviation <= c2 r^2 = {rep.dev_bound:.3e}")
print(f"  ratio {rep.ratio:.6f}  <=  bound {rep.bound:.6f}  -> {rep.verdict}")
print()

# --- recursive regime: linear datum, both sides describe the same quantity --

young = BLDatum(
    n=2,
    maps=[np.array([[1.0, 0.0]]), np.array([[1.0, -1.0]]), np.array([[0.0, 1.0]])],
    exponents=[2 / 3] * 3,
)
ndl = registry("linear", datum=young)
lp = LocalizedProblem(center=(0.0, 0.0), delta=0.05, mu=1e-6, kappa=2.0)
f = scaled_inputs(ndl, 0.05)
rep = recursive_step_check(
    ndl, lp, f, np.array([[0.0, 0.0], [0.05, -0.04]]),
    QuadratureSpec(resolution=512), alpha=1.5, beta=0.3, beta_prime=0.4,
)
print("recursive step, linear datum at delta = 0.05")
print(f"  lhs {rep.lhs:.9f}   rhs {rep.rhs:.9f}   slack {rep.slack:+.6f}")
print(f"  equality gap {rep.equality_gap:.3e} (translation invariance makes")
print("  the localized maximum coincide with the left side)")
print(f"  fine scale delta^alpha = {rep.delta_fine:.6f}"
      f"   kappa after one step = {rep.kappa_fine:.6f}")
ok = sum(c["ok"] for c in rep.certifications)
print(f"  certifications {ok}/{len(rep.certifications)} ok"
      f" (kernel level {rep.kappa_fine / lp.kappa:.6f},"
      f" product level {rep.kappa_fine:.6f})")
print(f"  verdict: {rep.verdict}")

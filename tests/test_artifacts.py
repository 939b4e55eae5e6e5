"""The JSON artifact of a check report is its fields."""

import dataclasses
import json

import numpy as np
import pytest

from blscales.cli import _np_default, main
from blscales.datum import BLDatum, finiteness_check, save_datum
from blscales.functional import (
    GaussianFunction,
    InputTuple,
    QuadratureSpec,
    ball_inequality_check,
)
from blscales.gaussians import ExtremiserResult, scale_gaussian, solve_extremiser
from blscales.nonlinear import (
    LocalizedProblem,
    base_case_check,
    localization_radius,
    perturbation_check,
    recursive_step_check,
    registry,
)


def scaled_extremiser_inputs(nd, delta):
    g = scale_gaussian(solve_extremiser(nd.linearize()).gaussians, delta)
    return InputTuple([GaussianFunction(A, c) for A, c in zip(g.blocks, g.amplitudes)])


def finiteness_report(young):
    return finiteness_check(young, mode="rank-one-exact")


def extremiser_result(young):
    return solve_extremiser(young)


def ball_check_report(young):
    f = InputTuple([GaussianFunction(np.eye(1))] * 3)
    q = QuadratureSpec(resolution=32)
    return ball_inequality_check(young, f, f, np.zeros((1, 2)), q, near_extremiser=True)


def base_case_report(young):
    nd = registry("perturbed-quadratic:0.5")
    lp = LocalizedProblem(center=(0.0, 0.0), delta=0.01, mu=1.5e-3, kappa=1.05)
    f = scaled_extremiser_inputs(nd, 1.0)
    return base_case_check(nd, lp, f, QuadratureSpec(resolution=32), alpha=1.5, beta_prime=0.4)


def recursive_report(young):
    nd = registry("linear", datum=young)
    lp = LocalizedProblem(center=(0.0, 0.0), delta=0.05, mu=1e-6, kappa=2.0)
    f = scaled_extremiser_inputs(nd, 0.05)
    x_grid = np.array([[0.0, 0.0], [0.05, -0.04]])
    return recursive_step_check(
        nd, lp, f, x_grid, QuadratureSpec(resolution=32), alpha=1.5, beta=0.3, beta_prime=0.4
    )


def perturbation_report(young):
    nd = registry("young-euclidean-1")
    y = np.array([0.5, -0.25]) * localization_radius(0.05)
    q = QuadratureSpec(method="monte-carlo", resolution=4000)
    return perturbation_check(nd, np.zeros(2), y, 0.05, q, alpha=1.5, beta_prime=0.4)


@pytest.mark.parametrize(
    "build",
    [
        finiteness_report,
        extremiser_result,
        ball_check_report,
        base_case_report,
        recursive_report,
        perturbation_report,
    ],
)
def test_artifact_is_the_report_fields(young_datum, build):
    rep = build(young_datum)
    out = rep.to_json()
    fields = {f.name for f in dataclasses.fields(rep)}
    if isinstance(rep, ExtremiserResult):
        fields = (fields - {"gaussians"}) | {"blocks", "amplitudes"}
    assert set(out) == fields
    json.dumps(out, default=_np_default, allow_nan=False)


def test_extremiser_artifact_lifts_blocks_and_amplitudes(young_datum):
    res = solve_extremiser(young_datum)
    out = json.loads(json.dumps(res.to_json(), default=_np_default))
    assert out["blocks"] == [A.tolist() for A in res.gaussians.blocks]
    assert out["amplitudes"] == res.gaussians.amplitudes


def test_one_dimensional_finiteness_writes_null_slack(tmp_path):
    # on R^1 there is no proper nonzero subspace to check, so the slack is inf
    datum = BLDatum(n=1, maps=[np.array([[1.0]])], exponents=[1.0])
    rep = finiteness_check(datum, mode="rank-one-exact")
    assert rep.subspaces_checked == 0
    assert rep.slack == float("inf")
    path = tmp_path / "line.json"
    save_datum(datum, str(path))
    out = tmp_path / "f.json"
    argv = ["finiteness", "--input", str(path), "--mode", "rank-one-exact"]
    assert main(argv + ["--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["slack"] is None
    assert doc["subspace_ok"] is True

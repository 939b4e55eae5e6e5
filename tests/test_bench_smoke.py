"""One traced op of each workload of the benchmark harness that runs in-process.

The harness in `bench/` observes the library from outside: its tracer reads
arguments and results of the functions it wraps (for example the `.values`
of what `convolve_inputs` returns), so a library change can break a traced
benchmark run while every untraced call still works.  The harness is
imported as it is, not changed."""

from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer
    import workloads

    return workloads, tracer


@pytest.mark.parametrize(
    "name, counter",
    [
        ("conv-ineq", "functional.convolve_inputs.cells"),
        ("heis-induction", "nonlinear.localized_ratio.calls"),
    ],
)
def test_traced_op_passes_its_check(harness, tmp_path, name, counter):
    workloads, tracer = harness
    wl = workloads.WORKLOADS[name](1, tmp_path)
    *args, q = wl.prepare(0)
    op_args = (*args, replace(q, resolution=2000))
    tr = tracer.Tracer()
    out = wl.run_traced(op_args, tr, 0)
    assert wl.check(out) is None
    # tracing leaves the result unchanged
    assert wl.canonical(out) == wl.canonical(wl.run(op_args))
    metrics = tr.summary(1, [], [])
    assert metrics[counter]["value"] > 0
    assert metrics["mc.estimates"]["value"] > 0
    if name == "heis-induction":
        # every constancy level is certified in closed form: no pair is sampled
        assert metrics["nonlinear.is_kappa_constant.samples"]["value"] == 0
        assert {c["status"] for c in out.certifications} == {"certified"}


@pytest.mark.parametrize("i, kind", [(0, "young"), (4, "lattice4"), (1, "lattice6")])
def test_traced_solve_certify_op_passes_its_check(harness, tmp_path, i, kind):
    workloads, tracer = harness
    wl = workloads.WORKLOADS["solve-certify"](1, tmp_path)
    op_args = wl.prepare(i)
    assert op_args[0] == kind
    tr = tracer.Tracer()
    out = wl.run_traced(op_args, tr, 0)
    assert wl.check(out) is None
    assert wl.canonical(out) == wl.canonical(wl.run(op_args))
    assert tr.summary(1, [], [])["datum.subspaces_checked"]["value"] > 0

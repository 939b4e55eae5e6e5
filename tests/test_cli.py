"""Command line exit statuses, output formats, and determinism."""

import json
import os
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from blscales import cli
from blscales.cli import main
from blscales.datum import BLDatum, save_datum
from blscales.scheduler import ScheduleParams
from conftest import young_maps

ROOT3_OVER_2 = 0.8660254037844386


@pytest.fixture()
def young_file(tmp_path):
    datum = BLDatum(
        n=2,
        maps=young_maps(),
        exponents=[2 / 3] * 3,
        exact_exponents=[Fraction(2, 3)] * 3,
    )
    path = tmp_path / "young.json"
    save_datum(datum, str(path))
    return str(path)


@pytest.fixture()
def infinite_file(tmp_path):
    # two copies of the same line cannot be simple
    datum = BLDatum(
        n=2,
        maps=[np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])],
        exponents=[0.7, 0.7, 0.6],
    )
    path = tmp_path / "infinite.json"
    save_datum(datum, str(path))
    return str(path)


def run(argv):
    return main(argv)


def no_tmp_residue(tmp_path):
    return not any(p.name.endswith(".tmp") for p in tmp_path.iterdir())


# ---------------------------------------------------------------------------
# solver commands


def test_constant_young(young_file, tmp_path):
    out = tmp_path / "c.json"
    assert run(["constant", "--input", young_file, "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["converged"] is True
    assert abs(doc["bl_value"] - ROOT3_OVER_2) < 1e-12
    assert no_tmp_residue(tmp_path)


def test_constant_stdout(young_file, capsys):
    assert run(["constant", "--input", young_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "converged"


def test_constant_infinite_exits_one(infinite_file, tmp_path):
    out = tmp_path / "c.json"
    assert run(["constant", "--input", infinite_file, "--output", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["converged"] is False


def test_extremiser_blocks(young_file, tmp_path):
    out = tmp_path / "e.json"
    assert run(["extremiser", "--input", young_file, "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["converged"] is True
    assert len(doc["blocks"]) == 3
    assert all(len(b) == 1 and len(b[0]) == 1 for b in doc["blocks"])


def test_constant_is_extremiser_without_gaussians(tmp_path):
    # near the edge of the Young polytope: 999 sweeps
    path = tmp_path / "edge.json"
    save_datum(BLDatum(n=2, maps=young_maps(), exponents=[0.99, 0.506, 0.504]), str(path))
    docs = []
    for cmd in ("constant", "extremiser"):
        out = tmp_path / f"{cmd}.json"
        assert run([cmd, "--input", str(path), "--output", str(out)]) == 0
        docs.append(json.loads(out.read_text()))
    constant, extremiser = docs
    assert extremiser["iterations"] == 999
    del extremiser["blocks"], extremiser["amplitudes"]
    assert constant == extremiser


# ---------------------------------------------------------------------------
# finiteness


def test_finiteness_young(young_file, tmp_path):
    out = tmp_path / "f.json"
    assert (
        run(
            [
                "finiteness", "--input", young_file,
                "--mode", "rank-one-exact", "--output", str(out),
            ]
        )
        == 0
    )
    doc = json.loads(out.read_text())
    assert doc["scaling_ok"] is True
    assert doc["subspace_ok"] is True
    assert doc["mode"] == "rank-one-exact"


def test_finiteness_ignores_seed(young_file, tmp_path):
    # every subcommand accepts --seed; finiteness samples nothing
    plain, seeded = tmp_path / "f.json", tmp_path / "f7.json"
    assert run(["finiteness", "--input", young_file, "--output", str(plain)]) == 0
    argv = ["finiteness", "--input", young_file, "--seed", "7", "--output", str(seeded)]
    assert run(argv) == 0
    assert seeded.read_bytes() == plain.read_bytes()


def test_finiteness_infinite_verdict_with_witness(infinite_file, tmp_path):
    # determining "infinite" is a successful run: verdict and witness go in
    # the artifact, the exit status stays 0
    out = tmp_path / "f.json"
    assert (
        run(
            [
                "finiteness", "--input", infinite_file,
                "--mode", "rank-one-exact", "--output", str(out),
            ]
        )
        == 0
    )
    doc = json.loads(out.read_text())
    assert doc["subspace_ok"] is False
    assert doc["violating_subspace"] is not None


@pytest.mark.parametrize("datum_file", ["young_file", "infinite_file"])
def test_finiteness_randomized_is_an_alias_of_exact_lattice(request, tmp_path, datum_file):
    docs = {}
    for mode in ("randomized", "exact-lattice"):
        out = tmp_path / f"{mode}.json"
        argv = ["finiteness", "--input", request.getfixturevalue(datum_file), "--mode", mode]
        assert run(argv + ["--output", str(out)]) == 0
        docs[mode] = json.loads(out.read_text())
    assert docs["randomized"].pop("mode") == "randomized"
    assert docs["exact-lattice"].pop("mode") == "exact-lattice"
    assert docs["randomized"] == docs["exact-lattice"]
    assert docs["randomized"]["checked_family"] == "exact-lattice"
    assert "seed" not in docs["randomized"]


# ---------------------------------------------------------------------------
# functional and ball check


def test_functional_indicator(young_file, tmp_path):
    out = tmp_path / "v.json"
    code = run(
        [
            "functional", "--input", young_file, "--inputs", "indicator",
            "--resolution", "512", "--output", str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert abs(doc["value"] - 0.5) < 5e-3


def test_functional_gaussian_iso(young_file, tmp_path):
    out = tmp_path / "v.json"
    assert (
        run(
            [
                "functional", "--input", young_file, "--inputs", "gaussian-iso",
                "--resolution", "256", "--output", str(out),
            ]
        )
        == 0
    )
    doc = json.loads(out.read_text())
    assert abs(doc["value"] - ROOT3_OVER_2) < 1e-4


def test_functional_monte_carlo_deterministic(young_file, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    argv = [
        "functional", "--input", young_file, "--inputs", "gaussian-iso",
        "--method", "monte-carlo", "--resolution", "50000", "--seed", "9",
    ]
    assert run(argv + ["--output", str(out1)]) == 0
    assert run(argv + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert abs(doc["value"] - ROOT3_OVER_2) <= 4.0 * doc["stderr"]


def test_ball_check_indicator(young_file, tmp_path):
    out = tmp_path / "b.json"
    code = run(
        [
            "ball-check", "--input", young_file, "--inputs", "indicator",
            "--resolution", "256", "--output", str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"] in ("pass", "inconclusive")
    assert doc["rhs"] >= doc["lhs"] - 3.0 * doc["stderr"]
    assert doc["extremiser_consequences"] is not None


def test_ball_check_extremiser_inputs_solve_once(young_file, tmp_path, monkeypatch):
    calls = []
    solve = cli.solve_extremiser

    def counting(*a, **kw):
        calls.append(1)
        return solve(*a, **kw)

    monkeypatch.setattr(cli, "solve_extremiser", counting)
    argv = [
        "ball-check", "--input", young_file, "--inputs", "extremiser",
        "--method", "monte-carlo", "--resolution", "2000",
    ]
    assert run(argv + ["--output", str(tmp_path / "b.json")]) == 0
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# nonlinear checks


def test_nonlinear_recursive_defaults(tmp_path):
    out = tmp_path / "r.json"
    code = run(
        [
            "nonlinear", "--group", "young-euclidean-1",
            "--resolution", "256", "--output", str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["mode"] == "recursive"
    assert doc["verdict"] == "pass"
    assert doc["equality_gap"] < 1e-3
    assert all(c["ok"] for c in doc["certifications"])


def test_nonlinear_base_mode(tmp_path):
    out = tmp_path / "b.json"
    code = run(
        [
            "nonlinear", "--group", "perturbed-quadratic:0.0", "--mode", "base",
            "--delta0", "0.001", "--mu", "3e-6", "--kappa", "1.5",
            "--resolution", "256", "--output", str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "pass"
    assert doc["ratio"] < doc["bound"]


@pytest.mark.parametrize(
    "extra", [[], ["--method", "monte-carlo", "--resolution", "4000", "--seed", "2"]]
)
def test_nonlinear_records_method_and_resolution(tmp_path, extra):
    out = tmp_path / "r.json"
    argv = ["nonlinear", "--group", "young-euclidean-1", "--resolution", "64", *extra]
    assert run(argv + ["--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    args = cli.build_parser().parse_args(argv)
    assert (doc["method"], doc["resolution"]) == (args.method, args.resolution)


def test_nonlinear_refuses_unfinishable_grid(tmp_path, capsys):
    # the default tensor grid in n = 6 holds 256^6 points: refused up front
    out = tmp_path / "r.json"
    start = time.perf_counter()
    code = run(["nonlinear", "--group", "young-heisenberg", "--output", str(out)])
    assert code == 2
    assert time.perf_counter() - start < 1.0
    assert "monte-carlo" in capsys.readouterr().err
    assert not out.exists()


def test_nonlinear_wrong_regime_exits_one(tmp_path):
    # recursive mode below the threshold is a check error, not a usage error
    code = run(
        [
            "nonlinear", "--group", "young-euclidean-1", "--mode", "recursive",
            "--delta0", "0.001", "--mu", "3e-6",
            "--resolution", "64", "--output", str(tmp_path / "x.json"),
        ]
    )
    assert code == 1


def test_nonlinear_refuted_certifications_are_not_a_pass(tmp_path):
    # at delta0 0.0112 the fine-scale kernels are far from exp(delta^beta)-
    # constant at scale mu: the comparison's slack is positive, but a step
    # whose inputs are not admissible proves nothing
    out = tmp_path / "r.json"
    code = run(
        [
            "nonlinear", "--group", "young-heisenberg", "--delta0", "0.0112",
            "--mu", "5e-5", "--method", "monte-carlo", "--resolution", "20000",
            "--seed", "1", "--output", str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["slack"] > 0.0
    assert {c["status"] for c in doc["certifications"]} == {"refuted"}
    assert doc["verdict"] == "inconclusive"
    assert doc["admissible"] is False
    # the left side's inputs are certified, and recorded
    assert [c["input"] for c in doc["lhs_certifications"]] == [0, 1, 2]
    assert {c["status"] for c in doc["lhs_certifications"]} == {"certified"}
    assert all(c["kind"] == "input" and c["x_index"] is None for c in doc["lhs_certifications"])
    assert all(c["level"] == doc["kappa"] for c in doc["lhs_certifications"])


def test_nonlinear_linear_tag_needs_input(tmp_path):
    assert (
        run(
            [
                "nonlinear", "--group", "linear",
                "--output", str(tmp_path / "x.json"),
            ]
        )
        == 2
    )


# ---------------------------------------------------------------------------
# young-lie table


def test_young_lie_deterministic_and_thread_invariant(tmp_path, monkeypatch):
    argv = [
        "young-lie", "--group", "young-euclidean-1", "--deltas", "0.1,0.05",
        "--method", "monte-carlo", "--resolution", "50000", "--seed", "3",
        "--mu", "1e-5",
    ]
    out1 = tmp_path / "t1.csv"
    out2 = tmp_path / "t2.csv"
    monkeypatch.setenv("BL_SCALES_THREADS", "1")
    assert run(argv + ["--output", str(out1)]) == 0
    monkeypatch.setenv("BL_SCALES_THREADS", "4")
    assert run(argv + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[5] == "delta,ratio,stderr,bound,slack"
    assert len(lines) == 8
    assert no_tmp_residue(tmp_path)


@pytest.mark.parametrize("value", ["four", "0", "-2", ""])
def test_young_lie_bad_thread_count_exits_two(tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv("BL_SCALES_THREADS", value)
    out = tmp_path / "t.csv"
    argv = ["young-lie", "--group", "young-euclidean-1", "--deltas", "0.1", "--output", str(out)]
    assert run(argv) == 2
    assert "BL_SCALES_THREADS" in capsys.readouterr().err
    assert not out.exists()


def test_young_lie_empty_deltas_exits_two(tmp_path):
    assert (
        run(
            [
                "young-lie", "--group", "young-euclidean-1", "--deltas", ",",
                "--output", str(tmp_path / "t.csv"),
            ]
        )
        == 2
    )


# ---------------------------------------------------------------------------
# schedule


def test_schedule_defaults(tmp_path):
    out = tmp_path / "s.csv"
    assert run(["schedule", "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert "# k_star = 5" in lines
    assert "# accumulated_factor = 30.380983402349749" in lines
    assert lines[5] == "k,delta_k,kappa_k,running_product"
    # k rows: k = 0 .. k_star
    assert len(lines) == 12


@pytest.mark.parametrize(
    "extra",
    [
        [],
        ["--alpha", "1.2", "--beta", "0.5", "--beta-prime", "0.6", "--delta0", "0.3", "--mu", "1e-6"],
        ["--alpha", "1.05", "--beta", "0.1", "--beta-prime", "0.5", "--delta0", "0.2", "--sigma", "3.5"],
    ],
)
def test_schedule_running_product_ends_at_accumulated_factor(tmp_path, extra):
    out = tmp_path / "s.csv"
    assert run(["schedule", *extra, "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    header = next(line for line in lines if line.startswith("# accumulated_factor = "))
    assert lines[-1].rsplit(",", 1)[1] == header.split(" = ", 1)[1]


def test_schedule_rejects_bad_exponents(tmp_path, capsys):
    code = run(["schedule", "--alpha", "1.0", "--output", str(tmp_path / "s.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "alpha" in err
    assert not (tmp_path / "s.csv").exists()


def test_schedule_beyond_the_step_limit_exits_two(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert run(["schedule", "--alpha", "1.0000001", "--mu", "1e-300", "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize(
    "extra, field",
    [(["--epsilon", "1e300"], "final_bound"), (["--sigma", "1e10"], "accumulated_factor")],
)
def test_schedule_writes_inf_for_an_overflowing_factor(tmp_path, extra, field):
    out = tmp_path / "s.csv"
    assert run(["schedule", *extra, "--output", str(out)]) == 0
    assert f"# {field} = inf" in out.read_text().splitlines()


def test_schedule_takes_the_running_products_in_one_pass(tmp_path, monkeypatch):
    calls = []
    plain = cli.accumulated_factor
    monkeypatch.setattr(
        cli, "accumulated_factor", lambda *a: calls.append(a) or plain(*a)
    )
    out = tmp_path / "s.csv"
    argv = ["--alpha", "1.2", "--beta", "0.5", "--beta-prime", "0.6", "--delta0", "0.3"]
    assert run(["schedule", *argv, "--output", str(out)]) == 0
    assert len(calls) <= 1
    # each row's product is the one a call over its first min(k + 1, k*) steps gives
    params = ScheduleParams(alpha=1.2, beta=0.5, beta_prime=0.6, delta0=0.3, mu=1e-10)
    rows = [line.split(",") for line in out.read_text().splitlines()[6:]]
    k_star = len(rows) - 1
    for k, row in enumerate(rows):
        assert row[3] == cli._fmt(plain(params, min(k + 1, k_star))[0])


# ---------------------------------------------------------------------------
# error handling


def test_malformed_datum_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert run(["constant", "--input", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [{"num": 2}, {"num": 2, "den": 0}])
def test_bad_exponent_fraction_exits_two(tmp_path, capsys, bad):
    path = tmp_path / "frac.json"
    exponents = [{"num": 2, "den": 3}, bad, {"num": 2, "den": 3}]
    path.write_text(json.dumps({"n": 2, "maps": [m.tolist() for m in young_maps()], "exponents": exponents}))
    assert run(["constant", "--input", str(path)]) == 2
    assert "exponent 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [
        ("maps", 5),
        ("exponents", 0.5),
        ("exponents", [None, 1]),
        ("n", 2.5),
        ("maps", [[["1", "0"]], [[1, -1]], [[0, 1]]]),
        ("maps", [[[True, False]], [[1, -1]], [[0, 1]]]),
        ("maps", [[[1, True]], [[1, -1]], [[0, 1]]]),
    ],
)
def test_wrongly_typed_datum_field_exits_two(tmp_path, capsys, field, value):
    obj = {"n": 2, "maps": [m.tolist() for m in young_maps()], "exponents": [2 / 3] * 3}
    obj[field] = value
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(obj))
    assert run(["constant", "--input", str(path), "--output", str(tmp_path / "c.json")]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "c.json").exists()


@pytest.mark.parametrize("mode", ["rank-one-exact", "exact-lattice", "randomized"])
@pytest.mark.parametrize("budget", ["0", "-3"])
def test_finiteness_budget_below_one_exits_two(young_file, tmp_path, capsys, mode, budget):
    out = tmp_path / "f.json"
    argv = ["finiteness", "--input", young_file, "--mode", mode, "--budget", budget, "--output", str(out)]
    assert run(argv) == 2
    assert "budget" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_group_exits_two(tmp_path, capsys):
    assert (
        run(
            [
                "nonlinear", "--group", "young-borel",
                "--output", str(tmp_path / "x.json"),
            ]
        )
        == 2
    )
    assert "available" in capsys.readouterr().err


def test_missing_file_exits_two(tmp_path):
    assert run(["constant", "--input", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize(
    "argv, env",
    [
        (["constant", "--input", "nope.json"], {}),
        (["finiteness", "--input", "YOUNG", "--budget", "0"], {}),
        (["nonlinear", "--group", "young-borel"], {}),
        (["young-lie", "--group", "young-euclidean-1", "--deltas", ","], {}),
        (["young-lie", "--group", "young-euclidean-1", "--deltas", "0.1"], {"BL_SCALES_THREADS": "four"}),
        (["schedule", "--alpha", "1.0"], {}),
        (["schedule", "--alpha", "1.0000001", "--mu", "1e-300"], {}),
    ],
    ids=["missing-file", "budget-0", "unknown-group", "empty-deltas", "bad-threads", "alpha-1", "step-limit"],
)
def test_every_input_error_is_reported_as_error(young_file, tmp_path, monkeypatch, capsys, argv, env):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    monkeypatch.chdir(tmp_path)
    argv = [young_file if a == "YOUNG" else a for a in argv]
    out = tmp_path / "out"
    assert run(argv + ["--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


# ---------------------------------------------------------------------------
# the README's examples


def readme_cli_lines() -> list:
    """The commands of the README's fenced block under `## CLI`, with the
    backslash continuation lines joined."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    return block.replace("\\\n", " ").splitlines()


@pytest.mark.parametrize("line", readme_cli_lines(), ids=lambda line: line.split()[1])
def test_readme_cli_example_exits_zero(young_file, tmp_path, line):
    argv = shlex.split(line, comments=True)
    assert argv[0] == "blscales"
    argv = [young_file if a == "datum.json" else a for a in argv[1:]]
    assert run(argv + ["--output", str(tmp_path / "out")]) == 0


# ---------------------------------------------------------------------------
# imports


def test_cli_import_skips_signal_and_integrate():
    import blscales

    src = str(Path(blscales.__file__).resolve().parents[1])
    probe = (
        "import sys, blscales.cli; "
        "print(sorted(m for m in ('scipy.signal', 'scipy.integrate') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == "[]"


def test_cli_import_skips_fft_interpolate_optimize_and_special():
    import blscales

    src = str(Path(blscales.__file__).resolve().parents[1])
    lazy = ("scipy.fft", "scipy.interpolate", "scipy.optimize", "scipy.special")
    probe = f"import sys, blscales.cli; print(sorted(m for m in {lazy!r} if m in sys.modules))"
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        ["functional", "--inputs", "gaussian-iso", "--method", "monte-carlo",
         "--resolution", "20000"],
        ["ball-check", "--inputs", "indicator", "--resolution", "256"],
    ],
    ids=["functional-monte-carlo", "ball-check-indicator"],
)
def test_cli_main_skips_optimize_and_interpolate(young_file, tmp_path, argv):
    import blscales

    src = str(Path(blscales.__file__).resolve().parents[1])
    argv = argv + ["--input", young_file, "--output", str(tmp_path / "out.json")]
    unused = ("scipy.optimize", "scipy.interpolate")
    probe = (
        f"import sys; from blscales.cli import main; code = main({argv!r}); "
        f"print(code, sorted(m for m in {unused!r} if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == "0 []"

"""Command line front end.

Exit status: 0 on success (including inconclusive checks, which are flagged in
the output), 1 when a numerical check fails, 2 on usage or input errors.  An
input error's stderr line begins with `error:`, a check error's with
`check error:`.
All outputs are deterministic functions of the flags; files are written
atomically.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import mc
from .datum import BLDatum, finiteness_check, load_datum
from .functional import (
    Box,
    GaussianFunction,
    IndicatorFunction,
    InputTuple,
    QuadratureSpec,
    ball_inequality_check,
    bl_functional,
)
from .gaussians import SingularMatrixError, scale_gaussian, solve_extremiser
from .nonlinear import (
    LocalizedProblem,
    ThresholdError,
    UncertifiedInputError,
    base_case_check,
    lie_group_young,
    localization_radius,
    recursive_step_check,
    registry,
)
from .scheduler import (
    ScheduleParams,
    accumulated_factor,
    final_bound,
    kappa_evolution,
    running_products,
    schedule,
)


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _write_text(path, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _np_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _write_json(path, obj):
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True, default=_np_default) + "\n")


def _threads() -> int:
    raw = os.environ.get("BL_SCALES_THREADS", "1")
    if not (raw.strip().isdecimal() and int(raw) > 0):
        raise ValueError(f"BL_SCALES_THREADS must be a positive integer, got {raw!r}")
    return int(raw)


def _quad(args) -> QuadratureSpec:
    return QuadratureSpec(method=args.method, resolution=args.resolution, seed=args.seed)


def _write_report(args, out: dict, *flags, **extra):
    """Write a report's JSON with the flags that produced it, each under its
    own name, and the `extra` keys."""
    out.update({flag: getattr(args, flag) for flag in flags}, **extra)
    _write_json(args.output, out)


def _write_table(path, header: dict, columns: str, rows):
    """CSV with a `# key = value` header, a column line and `_fmt` rows."""
    lines = [f"# {key} = {value}" for key, value in header.items()]
    lines.append(columns)
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    _write_text(path, "\n".join(lines) + "\n")


QUAD_FLAGS = ("seed", "method", "resolution")


def cmd_solve(args) -> int:
    res = solve_extremiser(load_datum(args.input), tol=args.tol, max_iter=args.max_iter)
    out = res.to_json()
    if args.command == "constant":
        del out["blocks"], out["amplitudes"]
    _write_report(args, out, "tol")
    return 0 if res.converged else 1


def cmd_finiteness(args) -> int:
    datum = load_datum(args.input)
    # `randomized` stays a name for exact-lattice, so that existing calls still run
    mode = "exact-lattice" if args.mode == "randomized" else args.mode
    report = finiteness_check(datum, mode=mode, budget=args.budget)
    _write_report(args, report.to_json(), "mode", "budget")
    # an infinite verdict is a successful determination, not a check failure;
    # the verdict lives in the artifact, the status only reports usage errors
    return 0


def _gaussian_inputs(g) -> InputTuple:
    return InputTuple([GaussianFunction(A, c) for A, c in zip(g.blocks, g.amplitudes)])


def _build_inputs(datum: BLDatum, kind: str, ext=None, corner: float = 0.0) -> InputTuple:
    """The inputs of a `--inputs` kind: the extremiser's gaussians (`ext`, or
    solved here), isotropic gaussians, or indicators of unit cubes with lower
    corner `corner` in every coordinate."""
    if kind == "extremiser":
        return _gaussian_inputs((ext or solve_extremiser(datum)).gaussians)
    if kind == "gaussian-iso":
        return InputTuple([GaussianFunction(np.eye(nj)) for nj in datum.codims])
    if kind == "indicator":
        return InputTuple(
            [IndicatorFunction(Box([corner] * nj, [corner + 1.0] * nj)) for nj in datum.codims]
        )
    raise ValueError(f"unknown input kind {kind!r}")


def cmd_functional(args) -> int:
    datum = load_datum(args.input)
    value, err = bl_functional(datum, _build_inputs(datum, args.inputs), _quad(args))
    _write_report(args, {"value": value, "stderr": err}, "inputs", *QUAD_FLAGS)
    return 0


def cmd_ball_check(args) -> int:
    datum = load_datum(args.input)
    res = solve_extremiser(datum)
    f = _build_inputs(datum, args.inputs, ext=res, corner=-0.5)
    x_grid = np.zeros((1, datum.n))
    report = ball_inequality_check(
        datum, f, _gaussian_inputs(res.gaussians), x_grid, _quad(args),
        near_extremiser=res.converged,
    )
    _write_report(args, report.to_json(), *QUAD_FLAGS)
    return 1 if report.verdict == "fail" else 0


def cmd_nonlinear(args) -> int:
    datum = load_datum(args.input) if args.input else None
    nd = registry(args.group, datum=datum)
    u = nd.base_point()
    lp = LocalizedProblem(center=tuple(u), delta=args.delta0, mu=args.mu, kappa=args.kappa)
    q = _quad(args)
    ext = solve_extremiser(nd.linearize(u))
    f = _gaussian_inputs(scale_gaussian(ext.gaussians, args.delta0))
    if args.mode == "base":
        report = base_case_check(nd, lp, f, q, args.alpha, args.beta_prime)
    else:
        r = localization_radius(args.delta0)
        x_grid = np.vstack([u, u + r * np.eye(nd.n)[0]])
        report = recursive_step_check(
            nd, lp, f, x_grid, q, args.alpha, args.beta, args.beta_prime
        )
    flags = ("group", "mode", "mu", "kappa", *QUAD_FLAGS)
    _write_report(args, report.to_json(), *flags, delta=args.delta0)
    return 1 if report.verdict == "fail" else 0


def cmd_young_lie(args) -> int:
    deltas = [float(tok) for tok in args.deltas.split(",") if tok.strip()]
    if not deltas:
        raise ValueError("no scales supplied")
    table = lie_group_young(
        args.group, deltas, q=_quad(args), mu=args.mu, kappa=args.kappa, workers=_threads()
    )
    header = {flag: getattr(args, flag) for flag in ("group", *QUAD_FLAGS)}
    header["bound"] = _fmt(table["bound"])
    rows = [(r.delta, r.ratio, r.stderr, r.bound, r.slack) for r in table["rows"]]
    _write_table(args.output, header, "delta,ratio,stderr,bound,slack", rows)
    bad = any(mc.verdict(row.slack, row.stderr) == "fail" for row in table["rows"])
    return 1 if bad else 0


def cmd_schedule(args) -> int:
    params = ScheduleParams(
        alpha=args.alpha, beta=args.beta, beta_prime=args.beta_prime, delta0=args.delta0,
        mu=args.mu, epsilon=args.epsilon, sigma=args.sigma,
    )
    deltas, k_star = schedule(params)
    product, log_bound = accumulated_factor(params, k_star)
    kappas = kappa_evolution(params, k_star, args.kappa0)
    # row k carries the product through step min(k + 1, k*)
    running = running_products(params, k_star)
    running = running[1:] + running[-1:]
    header = {
        "seed": args.seed,
        "k_star": k_star,
        "accumulated_factor": _fmt(product),
        "log_bound": _fmt(log_bound),
        "final_bound": _fmt(final_bound(params.epsilon, params.sigma)),
    }
    rows = zip(range(k_star + 1), deltas, kappas, running)
    _write_table(args.output, header, "k,delta_k,kappa_k,running_product", rows)
    return 0


def _add_common(p, datum=False, inputs=None, quad=False, solver=False):
    if datum:
        p.add_argument("--input", required=True)
    if inputs:
        p.add_argument(
            "--inputs", choices=["gaussian-iso", "extremiser", "indicator"], default=inputs
        )
    p.add_argument("--output", default=None, help="output path (default stdout)")
    p.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed of the monte-carlo streams; constant, extremiser and finiteness "
        "sample nothing and ignore it, and schedule only echoes it in its header",
    )
    if quad:
        p.add_argument(
            "--method", choices=["tensor-grid", "monte-carlo"], default="tensor-grid"
        )
        p.add_argument("--resolution", type=int, default=256)
    if solver:
        p.add_argument("--tol", type=float, default=1e-10)
        p.add_argument("--max-iter", type=int, default=10000)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="blscales",
        description="Brascamp-Lieb constants, extremisers, and scale schedules",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constant", help="gaussian constant of a datum")
    _add_common(p, datum=True, solver=True)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("extremiser", help="gaussian extremiser blocks")
    _add_common(p, datum=True, solver=True)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("finiteness", help="finiteness and simplicity report")
    # --input ahead of --mode, as the usage line has always shown it
    p.add_argument("--input", required=True)
    p.add_argument(
        "--mode",
        choices=["rank-one-exact", "exact-lattice", "randomized"],
        default="exact-lattice",
    )
    p.add_argument("--budget", type=int, default=512)
    _add_common(p)
    p.set_defaults(fn=cmd_finiteness)

    p = sub.add_parser("functional", help="evaluate the functional on inputs")
    _add_common(p, datum=True, inputs="gaussian-iso", quad=True)
    p.set_defaults(fn=cmd_functional)

    p = sub.add_parser("ball-check", help="convolution inequality check")
    _add_common(p, datum=True, inputs="indicator", quad=True)
    p.set_defaults(fn=cmd_ball_check)

    p = sub.add_parser("nonlinear", help="base or recursive step check")
    p.add_argument("--group", required=True)
    p.add_argument("--input", default=None, help="datum file for the linear tag")
    p.add_argument("--mode", choices=["base", "recursive"], default="recursive")
    p.add_argument("--alpha", type=float, default=1.5)
    p.add_argument("--beta", type=float, default=0.3)
    p.add_argument("--beta-prime", type=float, default=0.4)
    p.add_argument("--delta0", type=float, default=0.05)
    p.add_argument("--mu", type=float, default=5e-5)
    p.add_argument("--kappa", type=float, default=1.5)
    _add_common(p, quad=True)
    p.set_defaults(fn=cmd_nonlinear)

    p = sub.add_parser("young-lie", help="group convolution ratios at scales")
    p.add_argument("--group", required=True)
    p.add_argument("--deltas", default="0.2,0.1,0.05")
    p.add_argument("--mu", type=float, default=1e-4)
    p.add_argument("--kappa", type=float, default=1.5)
    _add_common(p, quad=True)
    p.set_defaults(fn=cmd_young_lie)

    p = sub.add_parser("schedule", help="scale schedule bookkeeping")
    p.add_argument("--alpha", type=float, default=1.5)
    p.add_argument("--beta", type=float, default=0.3)
    p.add_argument("--beta-prime", type=float, default=0.4)
    p.add_argument("--delta0", type=float, default=0.1)
    p.add_argument("--mu", type=float, default=1e-10)
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument("--sigma", type=float, default=2.0)
    p.add_argument("--kappa0", type=float, default=1.01)
    _add_common(p)
    p.set_defaults(fn=cmd_schedule)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ThresholdError, UncertifiedInputError, SingularMatrixError) as exc:
        print(f"check error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

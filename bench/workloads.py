"""The four benchmark workloads.

Each workload draws its inputs from the run seed, runs one op at a time in a
closed loop with one client, and checks every output.  The library is driven
only through public functions of blscales.functional, nonlinear, gaussians,
datum and mc, and through blscales.cli.main in a fresh interpreter.

Continuous inputs come from a randomly shifted R_d low-discrepancy sequence
(`r_sequence`): every coordinate is still uniform on its stated range and the
shift comes from the seed, but any prefix of the ops covers the input ranges
evenly.  Monte-carlo ops each get their own sampling seed.  A run times
whole rounds of a workload's op mix (`cycle`).  Together these keep the
run-to-run spread of medians small without narrowing the inputs.

Why each workload, and what it leaves out:

conv-ineq       The acceptance-fixture shape of `ball_inequality_check` on
                the plane Young datum; `functional` (pullback monte-carlo,
                `convolve_inputs`, `SampledFunction` interpolation) and `mc`
                do the work and `nonlinear` does none.  5 x 10^4 samples per
                op instead of the fixture's 10^6, so that a 20 s run holds
                about ninety ops; stderr^2 x seconds depends on the sample
                count only through the fixed per-op costs.  The fixture's
                3-point x grid is centred on a point near the maximiser of
                BL(h^x) (see `_consistent_point`).  Centred at 0 it misses
                that maximum for shifted inputs and reports `fail` for a true
                inequality: 1 of 300 ops at 10^5 samples, 1 of 4 at 10^6.
heis-induction  The paper's recursive step, `recursive_step_check` on
                `young-heisenberg` (n = 6), uniform-ball monte-carlo; the work
                is `nonlinear` (`localized_ratio`, kappa certification) and
                `mc`.  5 x 10^4 samples per op instead of 10^6, for the
                same reason.  At that count an op's verdict is nearly always
                `inconclusive` and cannot fail short of gross breakage, so
                the gate also requires every constancy certification and
                checks the run's mean estimates against reference values
                (`HeisInduction.reference`).  The README's `nonlinear
                --group young-heisenberg` call is left out: its tensor-grid
                default walks 256^6 ~ 2.8e14 points and cannot finish.
solve-certify   `finiteness_check` then `solve_extremiser`, no sampling;
                `gaussians` and `datum` do the work.  Young exponents near the
                (1, 1/2, 1/2) edge give the slow fixed-point solves: eps is
                log-uniform in [8e-3, 1.6e-2] and a solve takes about 10/eps
                iterations (at eps = 1e-3, 9,437 of the 10^4 allowed).
                Generic 2-dim-target data on R^6 exhaust the lattice budget
                of 192 subspaces; a budget of 512 takes about 3 s an op and
                leaves too few of them in a run to set the tail.  One op in
                eight is on R^4, two are on R^6.
cli-cold        `blscales.cli.main(argv)` in a fresh interpreter, rotating
                through the eight subcommands at the replay-fixture sizes;
                the only workload that runs `cli` and `scheduler`, and the
                one where import time dominates.
"""
from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.special import ndtri

# the traced functions are called through their modules, so that the spans
# installed there see the benchmark's own calls too
from blscales import datum, functional, gaussians, nonlinear
from blscales.datum import BLDatum, save_datum
from blscales.functional import GaussianFunction, InputTuple, QuadratureSpec
from blscales.gaussians import scale_gaussian, young_constant
from blscales.nonlinear import LocalizedProblem, localization_radius, registry

BENCH = Path(__file__).resolve().parent
CLI_CHILD = BENCH / "cli_child.py"

POOL = 1024  # input draws prepared per run; ops cycle through them
ROOT3_OVER_2 = math.sqrt(3.0) / 2.0
YOUNG_MAPS = [np.array([[1.0, 0.0]]), np.array([[1.0, -1.0]]), np.array([[0.0, 1.0]])]
SOLVER_TOL = 1e-10


def r_sequence(seed: int, dim: int, count: int) -> np.ndarray:
    """`count` points of the R_d sequence in [0, 1)^dim, shifted by the seed."""
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    alpha = np.array([(1.0 / phi ** (k + 1)) % 1.0 for k in range(dim)])
    shift = np.random.default_rng(seed).random(dim)
    return (shift + np.arange(1, count + 1)[:, None] * alpha) % 1.0


def mc_specs(seed: int, samples: int) -> list:
    """One monte-carlo spec per pooled op, each with its own seed, so that a
    run's median averages over sampling streams as well as inputs."""
    seeds = np.random.default_rng([seed, 1]).integers(0, 2**31, size=POOL)
    return [QuadratureSpec(method="monte-carlo", resolution=samples, seed=int(s)) for s in seeds]


def young_datum() -> BLDatum:
    return BLDatum(
        n=2,
        maps=YOUNG_MAPS,
        exponents=[2.0 / 3.0] * 3,
        exact_exponents=[Fraction(2, 3)] * 3,
    )


def plane_constant_error() -> str | None:
    """The plane Young constant must be sqrt(3)/2 within 1e-8."""
    res = gaussians.solve_extremiser(young_datum())
    if not (res.converged and abs(res.bl_value - ROOT3_OVER_2) <= 1e-8 * ROOT3_OVER_2):
        return f"plane Young constant {res.bl_value!r} is not sqrt(3)/2"
    return None


def _json_bytes(obj) -> bytes:
    def default(o):
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, (np.floating, np.integer, np.bool_)):
            return o.item()
        raise TypeError(type(o).__name__)

    return json.dumps(obj, sort_keys=True, default=default).encode()


class Workload:
    name = ""
    op_limit = 30.0  # seconds; a slower op counts as failed
    rss_of_children = False
    cycle = 1  # ops in one round of the op mix; runs time whole rounds

    def setup_errors(self) -> list:
        return []

    def warmup(self):
        """One cheap op before timing: lazy imports and caches fill."""
        raise NotImplementedError

    def prepare(self, i: int):
        """Inputs of op i, built before its timer starts."""
        raise NotImplementedError

    def run(self, op_args):
        raise NotImplementedError

    def run_traced(self, op_args, tracer, op: int):
        return tracer.record(op, lambda: self.run(op_args))

    def check(self, out) -> str | None:
        """None when the output is correct, else the reason."""
        raise NotImplementedError

    def stderr(self, out) -> float | None:
        return None

    def review(self, outs: list) -> tuple:
        """Checks over the outputs of a run's correct timed ops: (a list
        with None or the reason for each check, details for the info line)."""
        return [], {}

    def canonical(self, out) -> bytes:
        raise NotImplementedError


class ConvIneq(Workload):
    name = "conv-ineq"
    samples = 50_000
    x_offsets = np.array([[0.0, 0.0], [0.4, -0.3], [-0.6, 0.2]])
    mass_weight = 0.05

    def __init__(self, seed: int, workdir: Path):
        self.datum = young_datum()
        self.specs = mc_specs(seed, self.samples)
        u = r_sequence(seed, 12, POOL)
        self.widths = 0.4 + 2.6 * u[:, :6]
        self.centres = -0.4 + 0.8 * u[:, 6:]

    def setup_errors(self) -> list:
        err = plane_constant_error()
        return [err] if err else []

    def warmup(self):
        f, g, x_grid, q = self.prepare(0)
        functional.ball_inequality_check(self.datum, f, g, x_grid, replace(q, resolution=2000))

    def prepare(self, i: int):
        k = i % POOL
        w, c = self.widths[k], self.centres[k]
        f = InputTuple([GaussianFunction([[w[j]]], center=[c[j]]) for j in range(3)])
        g = InputTuple([GaussianFunction([[w[3 + j]]], center=[c[3 + j]]) for j in range(3)])
        return f, g, self._consistent_point(f, g) + self.x_offsets, self.specs[k]

    def _consistent_point(self, f: InputTuple, g: InputTuple) -> np.ndarray:
        # h^x_j = f_j g_j(L_j x - .) is a gaussian of precision s_j = a_j + b_j
        # centred at m_j(x) = alpha_j + beta_j L_j x, with mass proportional to
        # exp(-pi w_j (L_j x - e_j)^2).  BL(h^x) is largest where the centres
        # are consistent, min_y sum p_j s_j (L_j y - m_j(x))^2 = 0; masses that
        # underflow make it uncomputable, so minimise that misfit plus
        # mass_weight times the mass exponent, over (x, y) by least squares.
        rows, rhs = [], []
        zero = np.zeros(2)
        for p, L, fj, gj in zip(self.datum.exponents, self.datum.maps, f.functions, g.functions):
            a, b = fj.A[0, 0], gj.A[0, 0]
            c, d = fj.center[0], gj.center[0]
            k = math.sqrt(p * (a + b))
            rows.append(k * np.concatenate([(b / (a + b)) * L[0], -L[0]]))
            rhs.append(k * (b * d - a * c) / (a + b))
            k = math.sqrt(self.mass_weight * a * b / (a + b))
            rows.append(k * np.concatenate([L[0], zero]))
            rhs.append(k * (c + d))
        return np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)[0][:2]

    def run(self, op_args):
        return functional.ball_inequality_check(self.datum, *op_args)

    def check(self, rep):
        if rep.verdict == "fail":
            return f"ball inequality failed: lhs {rep.lhs!r} rhs {rep.rhs!r} stderr {rep.stderr!r}"
        if rep.skipped_x:
            return f"{rep.skipped_x} x points skipped"
        return None

    def stderr(self, rep):
        return rep.stderr

    def review(self, reps):
        return [], {"verdicts": dict(Counter(r.verdict for r in reps))}

    def canonical(self, rep) -> bytes:
        return _json_bytes(rep.to_json())


class HeisInduction(Workload):
    name = "heis-induction"
    samples = 50_000
    delta = 0.05
    # In every op the left side and the x = 0 entry of the right side estimate
    # the same two integrals; only the sampling seed changes.  Each estimate
    # is unbiased (closed-form denominators), so over a run their means must
    # match these reference values, (mean, standard error) of 160 estimates
    # at 10^6 samples each, within `sigmas` combined standard errors.  A single op's estimate is ~11% (left) and ~40% (centre) off,
    # too coarse for its verdict to fail; a run's mean of ~90 is ~1% and ~4%.
    reference = {"lhs": (0.651026, 0.001160), "centre": (0.644190, 0.004229)}
    sigmas = 5.0

    def __init__(self, seed: int, workdir: Path):
        self.nd = registry("young-heisenberg")
        ext = gaussians.solve_extremiser(self.nd.linearize())
        g = scale_gaussian(ext.gaussians, self.delta)
        self.f = InputTuple([GaussianFunction(A, c) for A, c in zip(g.blocks, g.amplitudes)])
        self.lp = LocalizedProblem(center=np.zeros(6), delta=self.delta, mu=5e-5, kappa=1.5)
        self.specs = mc_specs(seed, self.samples)
        # x grid: the centre and two seeded points of 2 U_delta(0) at radius
        # r_delta, halfway out; a random radius as well widens the op-to-op
        # spread of stderr^2 by about 40%, and with it the run-to-run one of var_s
        u = r_sequence(seed, 12, POOL)
        radius = localization_radius(self.delta)
        points = []
        for block in (u[:, :6], u[:, 6:]):
            z = ndtri(block)
            points.append(radius * z / np.linalg.norm(z, axis=1, keepdims=True))
        self.grids = np.stack([np.zeros((POOL, 6)), *points], axis=1)

    def warmup(self):
        x_grid, q = self.prepare(0)
        self.run((x_grid, replace(q, resolution=2000)))

    def prepare(self, i: int):
        return self.grids[i % POOL], self.specs[i % POOL]

    def run(self, op_args):
        x_grid, q = op_args
        return nonlinear.recursive_step_check(
            self.nd, self.lp, self.f, x_grid, q, alpha=1.5, beta=0.3, beta_prime=0.4
        )

    def check(self, rep):
        if rep.verdict == "fail":
            return f"recursive step failed: lhs {rep.lhs!r} rhs {rep.rhs!r}"
        failed = [c for c in rep.certifications if not c["ok"]]
        if failed:
            return f"{len(failed)} of {len(rep.certifications)} constancy certifications failed"
        return None

    def stderr(self, rep):
        return math.hypot(rep.lhs_err, rep.rhs_err)

    def review(self, reps):
        details = {"verdicts": dict(Counter(r.verdict for r in reps))}
        values = {"lhs": [r.lhs for r in reps], "centre": [r.entries[0].ratio for r in reps]}
        errors = []
        for key, vals in values.items():
            if len(vals) < 2:
                errors.append(f"{key}: {len(vals)} correct ops, too few for a mean")
                continue
            ref, ref_err = self.reference[key]
            mean = statistics.fmean(vals)
            z = (mean - ref) / math.hypot(statistics.stdev(vals) / math.sqrt(len(vals)), ref_err)
            details[f"{key}_mean"], details[f"{key}_z"] = mean, z
            bad = abs(z) > self.sigmas
            errors.append(f"{key}: run mean {mean!r} is {z:+.1f} sigma from {ref!r}" if bad else None)
        return errors, details

    def canonical(self, rep) -> bytes:
        return _json_bytes(rep.to_json())


class SolveCertify(Workload):
    name = "solve-certify"
    # five Young ops, one R^4 and two R^6 ops per cycle.  The R^6 ops, whose
    # time is nearly all finiteness_check, are the slowest, and a run holds
    # about twenty, so the tail (the 11th slowest op) lies among them; the
    # median lies among the Young ops, whose time is nearly all the solver
    pattern = ("young", "lattice6", "young", "young", "lattice4", "young", "lattice6", "young")
    cycle = len(pattern)
    budget = 192
    eps_range = (8e-3, 1.6e-2)
    min_sigma = 0.02

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.u = r_sequence(seed, 2, POOL)

    def setup_errors(self) -> list:
        err = plane_constant_error()
        return [err] if err else []

    def warmup(self):
        self.run(self.prepare(self.pattern.index("lattice4")))  # cheap whatever the seed

    def prepare(self, i: int):
        cycle, slot = divmod(i, len(self.pattern))
        kind = self.pattern[slot]
        if kind == "young":
            # exponents (1 - eps, (1 + eps)/2 + t, (1 + eps)/2 - t), eps
            # log-uniform; the k-th Young op takes the k-th sequence point
            k = cycle * self.pattern.count("young") + self.pattern[:slot].count("young")
            u0, u1 = self.u[k % POOL]
            lo, hi = (math.log(e) for e in self.eps_range)
            eps = math.exp(lo + u0 * (hi - lo))
            t = (u1 - 0.5) * eps
            p = [1.0 - eps, 0.5 * (1.0 + eps) + t, 0.5 * (1.0 + eps) - t]
            return kind, BLDatum(n=2, maps=YOUNG_MAPS, exponents=p), "rank-one-exact"
        # generic maps R^n -> R^2 with orthonormal rows and interior exponents
        # summing to n/2
        n, m = (4, 3) if kind == "lattice4" else (6, 4)
        rng = np.random.default_rng([self.seed, i % POOL])
        w = rng.random(m)
        p = (0.5 * n / m) * (1.0 + 0.3 * (w - w.mean()))
        while True:
            maps = [np.linalg.qr(rng.standard_normal((n, 2)))[0].T for _ in range(m)]
            if self._conditioning(maps) >= self.min_sigma:
                break
        return kind, BLDatum(n=n, maps=maps, exponents=[float(x) for x in p]), "exact-lattice"

    @staticmethod
    def _conditioning(maps) -> float:
        """Smallest singular value of a map restricted to a kernel, or to the
        intersection of two kernels, of the others.

        Near 0 the datum is close to one whose constant is infinite, and the
        fixed point then needs more than its 10^4-iteration default (about one
        generic draw in 300 does); such draws are redrawn.
        """
        def kernel(a):
            return np.linalg.svd(a)[2][a.shape[0]:].T

        m, n = len(maps), maps[0].shape[1]
        subspaces = [({i}, kernel(maps[i])) for i in range(m)]
        if n > 4:
            subspaces += [
                ({i, k}, kernel(np.vstack([maps[i], maps[k]])))
                for i in range(m)
                for k in range(i + 1, m)
            ]
        return min(
            np.linalg.svd(maps[j] @ basis, compute_uv=False).min()
            for owners, basis in subspaces
            for j in range(m)
            if j not in owners
        )

    def run(self, op_args):
        kind, data, mode = op_args
        rep = datum.finiteness_check(data, mode=mode, budget=self.budget)
        res = gaussians.solve_extremiser(data, tol=SOLVER_TOL)
        return kind, data, rep, res

    def check(self, out):
        kind, data, rep, res = out
        if not (rep.scaling_ok and rep.subspace_ok):
            return f"{kind}: finiteness refuted for a datum with a finite constant"
        if kind == "young" and not rep.certified:
            return "young: rank-one-exact did not certify"
        if not res.converged:
            return f"{kind}: solver status {res.status} after {res.iterations} iterations"
        if res.residual > SOLVER_TOL:
            return f"{kind}: residual {res.residual!r} above tol"
        if kind == "young":
            ref = young_constant(data.exponents)
            if abs(res.bl_value - ref) > 1e-9 * ref:
                return f"young: bl_value {res.bl_value!r} against closed form {ref!r}"
        return None

    def stderr(self, out):
        # no sampling: the error bar of a converged solve is its tolerance
        return SOLVER_TOL

    def canonical(self, out) -> bytes:
        _kind, _datum, rep, res = out
        return _json_bytes([rep.to_json(), res.to_json()])


class CliCold(Workload):
    name = "cli-cold"
    rss_of_children = True
    cycle = 8  # the eight subcommands

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        data_file = str(workdir / "young.json")
        save_datum(young_datum(), data_file)
        s = str(seed)
        self.fixtures = [
            ["constant", "--input", data_file, "--seed", s],
            ["extremiser", "--input", data_file],
            ["finiteness", "--input", data_file, "--mode", "rank-one-exact"],
            ["functional", "--input", data_file, "--inputs", "gaussian-iso",
             "--method", "monte-carlo", "--resolution", "60000", "--seed", s],
            ["ball-check", "--input", data_file, "--inputs", "indicator", "--resolution", "256"],
            ["nonlinear", "--group", "young-euclidean-1", "--resolution", "256"],
            ["young-lie", "--group", "young-euclidean-1", "--deltas", "0.1,0.05",
             "--method", "monte-carlo", "--resolution", "50000", "--seed", s, "--mu", "1e-5"],
            ["schedule", "--seed", s],
        ]
        self.output = workdir / "op.out"
        self.trace_file = workdir / "op.trace.json"

    def warmup(self):
        # every op is a cold interpreter; `import blscales` above has already
        # pulled the package and scipy into the file cache
        pass

    def prepare(self, i: int):
        return self.fixtures[i % len(self.fixtures)]

    def _call(self, argv, trace: Path | None):
        if self.output.exists():
            self.output.unlink()
        cmd = [sys.executable, str(CLI_CHILD), "--t0", repr(time.monotonic())]
        if trace is not None:
            cmd += ["--trace", str(trace)]
        cmd += ["--", *argv, "--output", str(self.output)]
        proc = subprocess.run(
            cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=self.op_limit
        )
        text = self.output.read_bytes() if self.output.exists() else b""
        return argv[0], proc.returncode, text, proc.stderr.decode(errors="replace")

    def run(self, argv):
        return self._call(argv, None)

    def run_traced(self, argv, tracer, op: int):
        out = self._call(argv, self.trace_file)
        with open(self.trace_file, encoding="utf-8") as fh:
            rec = json.load(fh)
        os.unlink(self.trace_file)
        tracer.merge(rec["spans"], op, rec["phases"])
        return out

    def check(self, out):
        command, rc, text, err = out
        if rc != 0:
            return f"{command}: exit status {rc}: {err.strip()[-300:]}"
        if not text:
            return f"{command}: no output"
        if command == "constant":
            value = json.loads(text)["bl_value"]
            if abs(value - ROOT3_OVER_2) > 1e-8 * ROOT3_OVER_2:
                return f"constant: {value!r} is not sqrt(3)/2"
        return None

    def stderr(self, out):
        # the monte-carlo calls; a young-lie table carries one estimate per
        # scale, and its variances add
        command, _rc, text, _err = out
        if command == "functional" and text:
            return json.loads(text)["stderr"]
        if command == "young-lie" and text:
            table = [ln for ln in text.decode().splitlines() if not ln.startswith("#")]
            return math.sqrt(sum(float(ln.split(",")[2]) ** 2 for ln in table[1:]))
        return None

    def canonical(self, out) -> bytes:
        return out[2]


WORKLOADS = {w.name: w for w in (ConvIneq, HeisInduction, SolveCertify, CliCold)}

"""Brascamp-Lieb data: validation, scaling condition, finiteness certification.

A datum is a finite collection of surjective linear maps L_j: R^n -> R^{n_j}
together with exponents p_j in [0, 1].  The associated constant is finite
exactly when the scaling condition sum_j p_j n_j = n holds and every subspace
V of R^n satisfies dim V <= sum_j p_j dim(L_j V).  The checks here certify
that criterion over structured families of subspaces.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

SVD_RTOL = 1e-10
SCALING_TOL = 1e-12


class DatumError(ValueError):
    pass


def _rank(a: np.ndarray, rtol: float = SVD_RTOL) -> int:
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rtol * s[0]))


def _rank_at_scale(a: np.ndarray, scale: float, rtol: float = SVD_RTOL) -> int:
    """Rank with singular values measured against an external scale.

    A tolerance relative to the product's own top singular value cannot tell a
    genuinely zero product from one that is zero up to rounding, so callers
    that form products pass the factors' combined scale instead.
    """
    if a.size == 0 or scale <= 0.0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.sum(s > rtol * scale))


def _orth(a: np.ndarray, rtol: float = SVD_RTOL) -> np.ndarray:
    """Orthonormal basis (columns) for the column span of `a`."""
    if a.size == 0:
        return np.zeros((a.shape[0], 0))
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((a.shape[0], 0))
    r = int(np.sum(s > rtol * s[0]))
    return u[:, :r]


def _null(a: np.ndarray, rtol: float = SVD_RTOL) -> np.ndarray:
    """Orthonormal basis (columns) for the kernel of `a`."""
    n = a.shape[1]
    if a.size == 0:
        return np.eye(n)
    u, s, vt = np.linalg.svd(a)
    r = int(np.sum(s > rtol * s[0])) if s.size and s[0] > 0 else 0
    return vt[r:].T.copy()


def _perp(basis: np.ndarray) -> np.ndarray:
    """Orthogonal complement of a subspace given by basis columns."""
    return _null(basis.T) if basis.shape[1] else np.eye(basis.shape[0])


def _span_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _orth(np.hstack([a, b]))


def _span_intersect(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # V cap W = (V_perp + W_perp)_perp
    return _perp(_span_sum(_perp(a), _perp(b)))


def _same_subspace(a: np.ndarray, b: np.ndarray, tol: float = 1e-8) -> bool:
    if a.shape[1] != b.shape[1]:
        return False
    pa = a @ a.T
    pb = b @ b.T
    return bool(np.linalg.norm(pa - pb) <= tol)


@dataclass
class BLDatum:
    """Datum (L, p): maps stored as (n_j, n) row-major arrays.

    `exact_exponents` optionally carries the p_j as Fractions; when present the
    scaling condition is decided exactly instead of within a float tolerance.
    """

    n: int
    maps: list
    exponents: list
    exact_exponents: Optional[list] = None

    def __post_init__(self):
        self.n = int(self.n)
        self.maps = [np.atleast_2d(np.asarray(L, dtype=float)) for L in self.maps]
        self.exponents = [float(p) for p in self.exponents]
        if self.exact_exponents is not None:
            self.exact_exponents = [Fraction(q) for q in self.exact_exponents]

    @property
    def m(self) -> int:
        return len(self.maps)

    @property
    def codims(self) -> list:
        return [L.shape[0] for L in self.maps]


def validate_datum(datum: BLDatum) -> list:
    """Return a list of violation strings; empty means the datum is admissible."""
    violations = []
    if datum.m < 1:
        violations.append("datum has no maps")
        return violations
    if len(datum.exponents) != datum.m:
        violations.append(
            f"{datum.m} maps but {len(datum.exponents)} exponents"
        )
    if datum.exact_exponents is not None and len(datum.exact_exponents) != datum.m:
        violations.append("exact_exponents length does not match maps")
    for j, L in enumerate(datum.maps):
        if L.ndim != 2 or L.shape[1] != datum.n:
            violations.append(f"map {j} has shape {L.shape}, expected (*, {datum.n})")
            continue
        nj = L.shape[0]
        if nj < 1 or nj > datum.n:
            violations.append(f"map {j} has target dimension {nj} outside [1, {datum.n}]")
            continue
        if not np.all(np.isfinite(L)):
            violations.append(f"map {j} has non-finite entries")
            continue
        if _rank(L) < nj:
            violations.append(f"map {j} is not surjective (rank {_rank(L)} < {nj})")
    for j, p in enumerate(datum.exponents):
        if not (0.0 <= p <= 1.0) or not math.isfinite(p):
            violations.append(f"exponent {j} = {p} outside [0, 1]")
    if datum.exact_exponents is not None:
        for j, (p, q) in enumerate(zip(datum.exponents, datum.exact_exponents)):
            if abs(p - float(q)) > 1e-12:
                violations.append(f"exponent {j} float/exact mismatch: {p} vs {q}")
    return violations


def scaling_condition(datum: BLDatum, tol: float = SCALING_TOL):
    """Check sum_j p_j n_j = n.  Returns (ok, residual).

    With exact exponents the decision is exact and the residual is the exact
    rational defect converted to float.
    """
    if datum.exact_exponents is not None:
        defect = sum(q * nj for q, nj in zip(datum.exact_exponents, datum.codims)) - datum.n
        return defect == 0, float(defect)
    residual = math.fsum(p * nj for p, nj in zip(datum.exponents, datum.codims)) - datum.n
    return abs(residual) <= tol, residual


def kernel_basis_condition(datum: BLDatum) -> bool:
    """True iff the kernels of the maps form a direct-sum decomposition of R^n."""
    kernels = [_null(L) for L in datum.maps]
    total = sum(k.shape[1] for k in kernels)
    if total != datum.n:
        return False
    stacked = np.hstack(kernels) if kernels else np.zeros((datum.n, 0))
    return _rank(stacked) == datum.n


def criterion_slack(datum: BLDatum, basis: np.ndarray) -> float:
    """sum_j p_j dim(L_j V) - dim V for the subspace V spanned by basis columns."""
    k = basis.shape[1]
    if k == 0:
        return 0.0
    basis_scale = float(np.linalg.norm(basis, 2))
    total = math.fsum(
        p * _rank_at_scale(L @ basis, float(np.linalg.norm(L, 2)) * basis_scale)
        for p, L in zip(datum.exponents, datum.maps)
    )
    return total - k


class Report:
    """Base of the check reports, whose JSON artifact is their fields.

    Numpy arrays and scalars are left in place for the JSON writer's
    `default` hook to convert.
    """

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class FinitenessReport(Report):
    scaling_ok: bool
    scaling_residual: float
    subspace_ok: bool
    violating_subspace: Optional[np.ndarray]
    simple: bool
    checked_family: str
    slack: float
    certified: bool
    subspaces_checked: int

    def to_json(self) -> dict:
        out = super().to_json()
        # slack is inf when no proper subspace was checked, and inf is not JSON
        if math.isinf(self.slack):
            out["slack"] = None
        return out


def _dedup(subspaces: list) -> list:
    out = []
    for b in subspaces:
        if not any(_same_subspace(b, c) for c in out):
            out.append(b)
    return out


def _base_family(datum: BLDatum) -> list:
    """Kernels and the common kernel; always part of the checked family."""
    fam = [_null(L) for L in datum.maps]
    common = fam[0]
    for k in fam[1:]:
        common = _span_intersect(common, k)
    fam.append(common)
    return fam


def _rank_one_family(datum: BLDatum) -> list:
    """Spans of subsets of the dual vectors, together with their complements.

    For rank-one data the subspace criterion can only fail at a subset span or
    at the orthogonal complement of one, so this family decides finiteness
    exactly.
    """
    vs = [L[0] for L in datum.maps]
    spans = []
    for size in range(1, len(vs) + 1):
        for subset in itertools.combinations(range(len(vs)), size):
            b = _orth(np.column_stack([vs[i] for i in subset]))
            spans.append(b)
    spans = _dedup(spans)
    fam = list(spans)
    fam.extend(_perp(b) for b in spans)
    return fam


def _lattice_family(datum: BLDatum, budget: int) -> tuple:
    """Closure of the kernels under pairwise sum and intersection, capped.

    Returns (family, certified): certified is False when the closure had not
    stabilized before the budget was exhausted.
    """
    fam = _dedup([_null(L) for L in datum.maps])
    while True:
        added = False
        for a, b in itertools.combinations(list(fam), 2):
            for cand in (_span_sum(a, b), _span_intersect(a, b)):
                if 0 < cand.shape[1] and not any(_same_subspace(cand, c) for c in fam):
                    fam.append(cand)
                    added = True
                    if len(fam) >= budget:
                        return fam, False
        if not added:
            return fam, True


def _randomized_family(datum: BLDatum, budget: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    fam = []
    n = datum.n
    count = 0
    while count < budget:
        k = int(rng.integers(1, n)) if n > 1 else 1
        b = _orth(rng.standard_normal((n, k)))
        if b.shape[1] == k:
            fam.append(b)
            count += 1
    return fam


def finiteness_check(
    datum: BLDatum,
    mode: str = "rank-one-exact",
    budget: int = 512,
    seed: int = 0,
) -> FinitenessReport:
    """Certify (or probe) finiteness of the constant for a datum.

    Modes:
      rank-one-exact  all n_j = 1; decides finiteness exactly.
      exact-lattice   closure of the kernels under sum/intersection, up to
                      `budget` subspaces; exact when the closure stabilizes.
      randomized      `budget` random subspaces; can only refute, never certify.

    The kernels of the maps and their common intersection are checked in every
    mode.
    """
    bad = validate_datum(datum)
    if bad:
        raise DatumError("; ".join(bad))
    scaling_ok, residual = scaling_condition(datum)

    if mode == "rank-one-exact":
        if any(nj != 1 for nj in datum.codims):
            raise DatumError("rank-one-exact mode requires all n_j = 1")
        fam = _base_family(datum) + _rank_one_family(datum)
        certified = True
    elif mode == "exact-lattice":
        lat, certified = _lattice_family(datum, budget)
        fam = _base_family(datum) + lat
    elif mode == "randomized":
        fam = _base_family(datum) + _randomized_family(datum, budget, seed)
        certified = False
    else:
        raise DatumError(f"unknown finiteness mode: {mode!r}")

    fam = _dedup(fam)
    subspace_ok = True
    witness = None
    slack = math.inf
    checked = 0
    for basis in fam:
        k = basis.shape[1]
        if k == 0 or k >= datum.n:
            continue
        checked += 1
        s = criterion_slack(datum, basis)
        if s < -1e-9:
            subspace_ok = False
            if witness is None:
                witness = basis
        slack = min(slack, s)
    # treat a tiny negative slack from rank rounding as zero
    if math.isfinite(slack) and abs(slack) < 1e-9:
        slack = 0.0

    simple = (
        scaling_ok
        and subspace_ok
        and slack > 0.0
        and all(nj < datum.n for nj in datum.codims)
    )
    tag = mode if certified or mode == "randomized" else mode + ":budget-exhausted"
    return FinitenessReport(
        scaling_ok=scaling_ok,
        scaling_residual=residual,
        subspace_ok=subspace_ok,
        violating_subspace=witness,
        simple=simple,
        checked_family=tag,
        slack=slack,
        certified=certified,
        subspaces_checked=checked,
    )


# ---------------------------------------------------------------------------
# JSON interchange


def datum_to_json(datum: BLDatum) -> dict:
    exps: list = []
    for j, p in enumerate(datum.exponents):
        if datum.exact_exponents is not None:
            q = datum.exact_exponents[j]
            exps.append({"num": q.numerator, "den": q.denominator})
        else:
            exps.append(p)
    return {
        "n": datum.n,
        "maps": [[list(map(float, row)) for row in L] for L in datum.maps],
        "exponents": exps,
    }


def datum_from_json(obj: dict) -> BLDatum:
    try:
        n = int(obj["n"])
        maps = obj["maps"]
        raw = obj["exponents"]
    except (KeyError, TypeError) as exc:
        raise DatumError(f"datum object missing field: {exc}") from exc
    exps = []
    exact: Optional[list] = []
    for i, entry in enumerate(raw):
        if isinstance(entry, dict):
            try:
                q = Fraction(int(entry["num"]), int(entry["den"]))
            except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
                raise DatumError(
                    f"exponent {i} is not a fraction num/den: {entry!r}"
                ) from exc
            exps.append(float(q))
            if exact is not None:
                exact.append(q)
        else:
            exps.append(float(entry))
            exact = None
    datum = BLDatum(n=n, maps=maps, exponents=exps, exact_exponents=exact)
    bad = validate_datum(datum)
    if bad:
        raise DatumError("; ".join(bad))
    return datum


def load_datum(path: str) -> BLDatum:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DatumError(
                f"malformed JSON in {path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from exc
    return datum_from_json(obj)


def save_datum(datum: BLDatum, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(datum_to_json(datum), fh, indent=2, sort_keys=True)
        fh.write("\n")

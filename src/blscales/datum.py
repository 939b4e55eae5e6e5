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
SAME_TOL = 1e-8  # projector distance below which two subspaces are the same


class DatumError(ValueError):
    pass


def _count(s: np.ndarray, scale: Optional[float] = None) -> int:
    """The rank rule: how many singular values s exceed SVD_RTOL * scale (default s[0])."""
    scale = s[0] if scale is None else scale
    return int(np.sum(s > SVD_RTOL * scale)) if scale > 0.0 else 0


def _rank(a: np.ndarray, scale: Optional[float] = None) -> int:
    """Numerical rank of `a`.

    A tolerance relative to a product's own top singular value cannot tell a
    genuinely zero product from one that is zero up to rounding, so callers
    that form products pass the factors' combined scale instead.
    """
    return _count(np.linalg.svd(a, compute_uv=False), scale) if a.size else 0


def _orth(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) for the column span of `a`."""
    if a.size == 0:
        return np.zeros((a.shape[0], 0))
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u[:, : _count(s)]


def _null(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) for the kernel of `a`."""
    if a.size == 0:
        return np.eye(a.shape[1])
    _, s, vt = np.linalg.svd(a)
    return vt[_count(s) :].T.copy()


def _sum_and_intersection(a: np.ndarray, b: np.ndarray) -> tuple:
    """Bases of V + W and of V cap W, for orthonormal bases a of V and b of W.

    One SVD of [a, -b] gives both: its leading left singular vectors span the
    sum, and its kernel holds the pairs (x, y) with a x = b y, whose x-parts
    map onto the intersection.
    """
    u, s, vt = np.linalg.svd(np.hstack([a, -b]))
    r = _count(s)
    return u[:, :r], _orth(a @ vt[r:, : a.shape[1]].T)


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
        rank = _rank(L)
        if rank < nj:
            violations.append(f"map {j} is not surjective (rank {rank} < {nj})")
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
    return _slack(datum, basis, [float(np.linalg.norm(L, 2)) for L in datum.maps])


def _slack(datum: BLDatum, basis: np.ndarray, map_norms: list) -> float:
    """`criterion_slack` given the maps' spectral norms, which set each rank's scale."""
    k = basis.shape[1]
    if k == 0:
        return 0.0
    basis_scale = float(np.linalg.norm(basis, 2))
    total = math.fsum(
        p * _rank(L @ basis, norm * basis_scale)
        for p, L, norm in zip(datum.exponents, datum.maps, map_norms)
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


class _Family:
    """Distinct subspaces in insertion order: `bases` is the input less repeats.

    Two subspaces are the same when their projectors are within SAME_TOL in
    Frobenius norm (projectors of different rank are at least 1 apart); a
    candidate is compared with every stored projector in one expression.
    """

    def __init__(self, subspaces: list):
        self.bases, self._proj = [], np.empty((0, subspaces[0].shape[0] ** 2))
        for b in subspaces:
            self.add(b)

    def add(self, b: np.ndarray) -> bool:
        """Append b unless the family already holds it; True when appended."""
        p = (b @ b.T).ravel()
        if np.any(np.linalg.norm(self._proj - p, axis=1) <= SAME_TOL):
            return False
        self._proj = np.vstack([self._proj, p])
        self.bases.append(b)
        return True


def _base_family(datum: BLDatum) -> list:
    """Kernels and the common kernel; always part of the checked family."""
    return [_null(L) for L in datum.maps] + [_null(np.vstack(datum.maps))]


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
    spans = _Family(spans).bases
    return spans + [_null(b.T) for b in spans]


def _lattice_family(datum: BLDatum, budget: int) -> tuple:
    """Closure of the kernels under pairwise sum and intersection, capped.

    A pass combines the pairs of the family as it stood at its start that no
    earlier pass combined (a pair combined again gives only members already
    present), skipping a pair with a 0-dimensional side, and appends the new
    members in the order found.  The closure ends after a pass that adds none.

    Returns (family, certified): certified is False when the closure had not
    stabilized before the budget was exhausted.
    """
    fam = _Family([_null(L) for L in datum.maps])
    done = 0
    while len(fam.bases) > done:
        size = len(fam.bases)
        for i in range(size):
            for j in range(max(i + 1, done), size):
                a, b = fam.bases[i], fam.bases[j]
                if not (a.shape[1] and b.shape[1]):
                    continue
                for cand in _sum_and_intersection(a, b):
                    if cand.shape[1] and fam.add(cand) and len(fam.bases) >= budget:
                        return fam.bases, False
        done = size
    return fam.bases, True


def finiteness_check(
    datum: BLDatum,
    mode: str = "rank-one-exact",
    budget: int = 512,
) -> FinitenessReport:
    """Certify finiteness of the constant for a datum.

    Modes:
      rank-one-exact  all n_j = 1; decides finiteness exactly.
      exact-lattice   closure of the kernels under sum/intersection, up to
                      `budget` subspaces; exact when the closure stabilizes.

    The kernels of the maps and their common kernel are checked in both modes.
    The family is checked in order, less repeats (`_Family`), and the witness
    is its first violating subspace.  An unknown mode or a budget below 1
    raises DatumError.  Random subspaces would add nothing: a generic V of
    dimension k has dim L_j V = min(k, n_j) >= k n_j / n, so under the
    scaling condition it never violates.
    """
    bad = validate_datum(datum)
    if budget < 1:
        bad.append(f"budget must be at least 1, got {budget}")
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
    else:
        raise DatumError(f"unknown finiteness mode: {mode!r}")

    proper = [b for b in _Family(fam).bases if 0 < b.shape[1] < datum.n]
    map_norms = [float(np.linalg.norm(L, 2)) for L in datum.maps]
    slacks = [_slack(datum, b, map_norms) for b in proper]
    violating = [b for b, s in zip(proper, slacks) if s < -1e-9]
    subspace_ok = not violating
    slack = min(slacks, default=math.inf)
    # treat a tiny negative slack from rank rounding as zero
    if abs(slack) < 1e-9:
        slack = 0.0

    simple = (
        scaling_ok
        and subspace_ok
        and slack > 0.0
        and all(nj < datum.n for nj in datum.codims)
    )
    tag = mode if certified else mode + ":budget-exhausted"
    return FinitenessReport(
        scaling_ok=scaling_ok,
        scaling_residual=residual,
        subspace_ok=subspace_ok,
        violating_subspace=violating[0] if violating else None,
        simple=simple,
        checked_family=tag,
        slack=slack,
        certified=certified,
        subspaces_checked=len(proper),
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


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _all_numbers(x) -> bool:
    """A JSON number (not a bool), or nested lists whose every entry is one."""
    return all(map(_all_numbers, x)) if isinstance(x, list) else _is_number(x)


def datum_from_json(obj: dict) -> BLDatum:
    """The datum of a JSON object; DatumError for a missing or wrongly typed field."""
    try:
        n, maps, raw = obj["n"], obj["maps"], obj["exponents"]
    except (KeyError, TypeError) as exc:
        raise DatumError(f"datum object missing field: {exc}") from exc
    if not _is_int(n):
        raise DatumError(f"n must be an integer, got {n!r}")
    if not isinstance(raw, list):
        raise DatumError(f"exponents must be a list, got {raw!r}")
    # np.asarray would read "1" and true as 1.0
    if not _all_numbers(maps):
        raise DatumError(f"maps must be a list of numeric matrices, got {maps!r}")
    try:
        maps = [np.asarray(L, dtype=float) for L in maps]
    except (TypeError, ValueError) as exc:
        raise DatumError(f"maps must be a list of numeric matrices: {exc}") from exc
    exps = []
    exact: Optional[list] = []
    for i, entry in enumerate(raw):
        if isinstance(entry, dict):
            num, den = entry.get("num"), entry.get("den")
            if not (_is_int(num) and _is_int(den) and den != 0):
                raise DatumError(f"exponent {i} is not a fraction num/den: {entry!r}")
            q = Fraction(num, den)
            exps.append(float(q))
            if exact is not None:
                exact.append(q)
        elif _is_number(entry):
            exps.append(float(entry))
            exact = None
        else:
            raise DatumError(f"exponent {i} is not a number or a fraction num/den: {entry!r}")
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

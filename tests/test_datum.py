"""Datum validation, finiteness certification, JSON round trips.

The finiteness oracle here is written from scratch on purpose: for rank-one
data the subspace criterion attains its minimum on orthocomplements of spans
of subsets of the dual vectors, so exhaustive subset enumeration with plain
projector arithmetic decides the verdict independently of the library's SVD
machinery.
"""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from blscales.datum import (
    BLDatum,
    _lattice_family,
    DatumError,
    criterion_slack,
    datum_from_json,
    datum_to_json,
    finiteness_check,
    kernel_basis_condition,
    load_datum,
    save_datum,
    scaling_condition,
    validate_datum,
)

from conftest import young_maps


# ---------------------------------------------------------------------------
# independent oracle


def _orthonormal(cols: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(cols)
    keep = np.abs(np.diag(r)) > 1e-10
    return q[:, keep]


def brute_force_rank_one(vectors, exponents, n):
    """Minimum criterion slack over perps (and spans) of all subset spans."""
    m = len(vectors)
    best = math.inf
    candidates = []
    for r in range(1, m + 1):
        for S in itertools.combinations(range(m), r):
            cols = np.stack([vectors[j] for j in S], axis=1)
            B = _orthonormal(cols)
            if 0 < B.shape[1] < n:
                candidates.append(B)
            # orthocomplement
            P = np.eye(n) - B @ B.T
            C = _orthonormal(P)
            if 0 < C.shape[1] < n:
                candidates.append(C)
    for B in candidates:
        k = B.shape[1]
        s = 0.0
        for v, p in zip(vectors, exponents):
            if np.linalg.norm(B.T @ v) > 1e-8 * np.linalg.norm(v):
                s += p
        best = min(best, s - k)
    return best


def random_rank_one(rng, n, degenerate=False):
    m = n + int(rng.integers(1, 4))
    vecs = []
    for j in range(m):
        if degenerate and j >= 2 and rng.random() < 0.5:
            # force degenerate geometry: repeat a line or sit inside an
            # earlier 2d span so that violating subspaces actually occur
            if rng.random() < 0.5 or len(vecs) < 2:
                v = vecs[int(rng.integers(0, len(vecs)))] * float(rng.uniform(0.5, 2.0))
            else:
                a, b = rng.integers(0, len(vecs), size=2)
                v = vecs[a] + vecs[b] * float(rng.uniform(-1.5, 1.5))
                if np.linalg.norm(v) < 1e-9:
                    v = vecs[a]
        else:
            v = rng.standard_normal(n)
        vecs.append(v / np.linalg.norm(v))
    w = rng.dirichlet(np.ones(m))
    p = n * w
    if np.any(p >= 1.0):
        return None
    datum = BLDatum(n=n, maps=[v.reshape(1, n) for v in vecs], exponents=list(p))
    return datum, vecs, list(p)


def test_rank_one_verdicts_match_brute_force():
    rng = np.random.default_rng(2024)
    checked = 0
    infinite_seen = 0
    while checked < 50:
        n = int(rng.integers(2, 5))
        out = random_rank_one(rng, n, degenerate=True)
        if out is None:
            continue
        datum, vecs, p = out
        rep = finiteness_check(datum, mode="rank-one-exact")
        oracle_slack = brute_force_rank_one(vecs, p, n)
        oracle_finite = oracle_slack >= -1e-9
        assert rep.subspace_ok == oracle_finite, (vecs, p)
        if rep.subspace_ok:
            assert abs(rep.slack - oracle_slack) <= 1e-6
        else:
            infinite_seen += 1
        checked += 1
    # the degenerate generator must actually exercise the infinite branch
    assert infinite_seen >= 5


def test_common_kernel_always_infinite():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        # vectors supported on the first n-1 coordinates: e_n kills them all
        m = n + int(rng.integers(1, 3))
        vecs = rng.standard_normal((m, n))
        vecs[:, -1] = 0.0
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        p = n * rng.dirichlet(np.ones(m))
        if np.any(p >= 1.0):
            continue
        d = BLDatum(n=n, maps=[v.reshape(1, n) for v in vecs], exponents=list(p))
        for mode in ("rank-one-exact", "exact-lattice"):
            rep = finiteness_check(d, mode=mode)
            assert not rep.subspace_ok
            assert rep.violating_subspace is not None
            assert criterion_slack(d, rep.violating_subspace) < -1e-9


def test_young_interior_simple(young_datum):
    rep = finiteness_check(young_datum, mode="rank-one-exact")
    assert rep.scaling_ok and rep.subspace_ok and rep.certified
    assert rep.simple
    assert rep.slack == pytest.approx(1 / 3, abs=1e-12)


def test_young_vertex_not_simple():
    d = BLDatum(n=2, maps=young_maps(), exponents=[1.0, 1.0, 0.0])
    rep = finiteness_check(d, mode="rank-one-exact")
    assert rep.scaling_ok and rep.subspace_ok
    assert not rep.simple  # slack 0 at the kernel of the third map
    assert rep.slack == pytest.approx(0.0, abs=1e-12)


def test_lw_plane_simple_false_nj_equals_n():
    # p interior requires n_j < n; identity-map data are never simple
    d = BLDatum(n=2, maps=[np.eye(2)], exponents=[1.0])
    rep = finiteness_check(d, mode="exact-lattice")
    assert rep.scaling_ok and rep.subspace_ok
    assert not rep.simple


def test_scaling_condition_exact_fractions():
    d = BLDatum(
        n=2,
        maps=young_maps(),
        exponents=[2 / 3, 2 / 3, 2 / 3],
        exact_exponents=[Fraction(2, 3)] * 3,
    )
    ok, residual = scaling_condition(d)
    assert ok and residual == 0

    bad = BLDatum(
        n=2,
        maps=young_maps(),
        exponents=[2 / 3, 2 / 3, 0.6667],
        exact_exponents=[Fraction(2, 3), Fraction(2, 3), Fraction(6667, 10000)],
    )
    ok, residual = scaling_condition(bad)
    assert not ok
    assert residual == pytest.approx(float(Fraction(1, 30000)), rel=1e-12)


def test_kernel_basis_condition():
    # kernels of the three Young maps: span{e2}, span{(1,1)}, span{e1}
    d = BLDatum(n=2, maps=young_maps(), exponents=[2 / 3] * 3)
    assert not kernel_basis_condition(d)  # dims sum to 3 != 2
    d2 = BLDatum(
        n=2,
        maps=[np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])],
        exponents=[1.0, 1.0],
    )
    assert kernel_basis_condition(d2)


def test_validate_datum_reports():
    assert validate_datum(BLDatum(n=2, maps=young_maps(), exponents=[2 / 3] * 3)) == []
    bad = BLDatum(n=2, maps=[np.array([[0.0, 0.0]])], exponents=[1.0])
    msgs = validate_datum(bad)
    assert any("surjective" in m for m in msgs)
    bad_p = BLDatum(n=2, maps=young_maps(), exponents=[2 / 3, 2 / 3, 1.5])
    assert any("exponent" in m.lower() for m in validate_datum(bad_p))


def test_exponent_mismatch_detected():
    d = BLDatum(
        n=2,
        maps=young_maps(),
        exponents=[2 / 3, 2 / 3, 0.5],
        exact_exponents=[Fraction(2, 3)] * 3,
    )
    assert any("exact" in m for m in validate_datum(d))


def test_json_round_trip(tmp_path):
    d = BLDatum(
        n=2,
        maps=young_maps(),
        exponents=[2 / 3] * 3,
        exact_exponents=[Fraction(2, 3)] * 3,
    )
    path = tmp_path / "young.json"
    save_datum(d, str(path))
    back = load_datum(str(path))
    assert back.n == 2 and back.m == 3
    assert back.exact_exponents == [Fraction(2, 3)] * 3
    for A, B in zip(d.maps, back.maps):
        assert np.array_equal(A, B)

    # float-only payload drops the exact ladder
    obj = datum_to_json(BLDatum(n=2, maps=young_maps(), exponents=[2 / 3] * 3))
    assert all(isinstance(e, float) for e in obj["exponents"])
    again = datum_from_json(obj)
    assert again.exact_exponents is None


def test_load_datum_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ nope")
    with pytest.raises(DatumError) as err:
        load_datum(str(path))
    assert "line" in str(err.value)


def test_load_datum_wrong_shape(tmp_path):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"n": 2, "maps": [[[1.0, 0.0]]]}))
    with pytest.raises(DatumError):
        load_datum(str(path))


def test_datum_from_json_rejects_a_bool_n():
    obj = {"n": 1, "maps": [[[1.0]]], "exponents": [1.0]}
    assert datum_from_json(obj).n == 1
    with pytest.raises(DatumError, match="n must be an integer"):
        datum_from_json({**obj, "n": True})


def test_exact_modes_find_planted_violation():
    # two copies of the same line with combined exponent above 1; the
    # violating subspace is their common kernel
    vecs = [
        np.array([1.0, 0.0]),
        np.array([1.0, 0.0]),
        np.array([0.0, 1.0]),
    ]
    d = BLDatum(n=2, maps=[v.reshape(1, 2) for v in vecs], exponents=[0.7, 0.7, 0.6])
    for mode in ("rank-one-exact", "exact-lattice"):
        rep = finiteness_check(d, mode=mode)
        assert not rep.subspace_ok


def test_exact_lattice_budget_marks_uncertified():
    rng = np.random.default_rng(11)
    maps = [rng.standard_normal((2, 4)) for _ in range(4)]
    d = BLDatum(n=4, maps=maps, exponents=[0.5] * 4)
    rep = finiteness_check(d, mode="exact-lattice", budget=2)
    assert not rep.certified
    assert "budget-exhausted" in rep.checked_family


def test_lattice_verdicts_match_brute_force_where_certified():
    # the rank-one oracle also decides data that exact-lattice certifies
    rng = np.random.default_rng(2024)
    checked = certified = infinite = 0
    while checked < 60:
        out = random_rank_one(rng, int(rng.integers(2, 5)), degenerate=True)
        if out is None:
            continue
        datum, vecs, p = out
        checked += 1
        rep = finiteness_check(datum, mode="exact-lattice", budget=32)
        if not rep.certified:
            continue
        certified += 1
        oracle_finite = brute_force_rank_one(vecs, p, datum.n) >= -1e-9
        assert rep.subspace_ok == oracle_finite, (vecs, p)
        infinite += not oracle_finite
    # both verdicts must actually be exercised
    assert certified >= 40 and infinite >= 10


def test_generic_six_dimensional_lattice_exhausts_its_budget():
    rng = np.random.default_rng(11)
    maps = [np.linalg.qr(rng.standard_normal((6, 2)))[0].T for _ in range(4)]
    rep = finiteness_check(BLDatum(n=6, maps=maps, exponents=[0.75] * 4), mode="exact-lattice", budget=192)
    assert rep.checked_family == "exact-lattice:budget-exhausted"
    assert not rep.certified
    assert rep.subspaces_checked == 191
    assert rep.slack == 0.5
    assert rep.scaling_ok and rep.subspace_ok and rep.simple


def test_finiteness_check_takes_each_map_norm_once(monkeypatch):
    rng = np.random.default_rng(11)
    maps = [np.linalg.qr(rng.standard_normal((6, 2)))[0].T for _ in range(4)]
    datum = BLDatum(n=6, maps=maps, exponents=[0.75] * 4)
    norm = np.linalg.norm
    calls = [0] * datum.m

    def counting_norm(x, ord=None, **kwargs):
        for j, L in enumerate(datum.maps):
            calls[j] += x is L and ord == 2
        return norm(x, ord, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    rep = finiteness_check(datum, mode="exact-lattice", budget=192)
    assert rep.subspaces_checked == 191
    assert calls == [1] * datum.m


def test_unknown_or_retired_finiteness_mode_raises(young_datum):
    for mode in ("randomized", "lattice"):
        with pytest.raises(DatumError, match="unknown finiteness mode"):
            finiteness_check(young_datum, mode=mode)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
def test_generic_subspaces_never_violate_under_scaling(n, seed):
    # why finiteness samples no random subspaces: a generic V of dimension k
    # has dim L_j V = min(k, n_j) >= k n_j / n, so sum_j p_j dim(L_j V) >= k
    rng = np.random.default_rng(seed)
    while True:
        dims = rng.integers(1, n + 1, size=int(rng.integers(2, 6)))
        w = rng.uniform(0.1, 1.0, dims.size)
        p = n * w / (w @ dims)
        if p.max() <= 1.0:
            break
    datum = BLDatum(n=n, maps=[rng.standard_normal((d, n)) for d in dims], exponents=list(p))
    assert scaling_condition(datum)[0] and not validate_datum(datum)
    for k in range(1, n):
        basis = np.linalg.qr(rng.standard_normal((n, k)))[0]
        assert criterion_slack(datum, basis) >= -1e-9


def _qr_span(cols: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span, by column-pivoted QR."""
    if cols.shape[1] == 0:
        return cols
    q, r, _ = scipy.linalg.qr(cols, pivoting=True)
    d = np.abs(np.diag(r))
    return q[:, : int(np.sum(d > 1e-10 * d[0]))] if d[0] > 0 else q[:, :0]


def _qr_perp(basis: np.ndarray) -> np.ndarray:
    n, k = basis.shape
    return np.linalg.qr(basis, mode="complete")[0][:, k:] if k else np.eye(n)


def _projector_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a @ a.T - b @ b.T))


def _closure_data():
    rng = np.random.default_rng(3)
    e = np.eye(4)
    yield BLDatum(n=2, maps=young_maps(), exponents=[2 / 3] * 3)
    # coordinate subspaces of R^4: the lattice is Boolean
    yield BLDatum(n=4, maps=[e[[0, 1]], e[[1, 2]], e[[2, 3]], e[[0, 3]]], exponents=[0.5] * 4)
    # three generic planes in R^4, a degenerate pair of them, and rank-one data
    planes = [np.linalg.qr(rng.standard_normal((4, 2)))[0].T for _ in range(3)]
    yield BLDatum(n=4, maps=planes, exponents=[2 / 3] * 3)
    yield BLDatum(n=4, maps=planes[:2] + [planes[0] + 0.5 * planes[1]], exponents=[2 / 3] * 3)
    while True:
        out = random_rank_one(rng, int(rng.integers(3, 5)), degenerate=True)
        if out is not None:
            yield out[0]


def test_certified_lattice_is_closed_under_sum_and_intersection():
    # the oracle forms sums by QR and intersections as perps of sums of perps
    closed = 0
    for datum in itertools.islice(_closure_data(), 40):
        fam, certified = _lattice_family(datum, 64)
        if not certified:
            continue
        closed += 1
        for a, b in itertools.combinations(fam, 2):
            if not (a.shape[1] and b.shape[1]):
                continue
            total = _qr_span(np.hstack([a, b]))
            meet = _qr_perp(_qr_span(np.hstack([_qr_perp(a), _qr_perp(b)])))
            for c in (total, meet):
                if c.shape[1]:
                    assert min(_projector_distance(c, f) for f in fam) <= 1e-8
    assert closed >= 15

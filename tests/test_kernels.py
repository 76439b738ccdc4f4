"""Stored-entry tensor kernels against dense index-cube references.

The kernels in ``structure``, ``curvature``, ``decomposition`` and ``audit``
iterate stored entries only.  The references below are the straightforward
loops over every index tuple that those kernels replaced; on every catalog
entry, two seeded rotated samples and one generated single-parameter file,
both must give identical exact results.  The audit's curvature-transfer
checks are also pinned on corrupted input: their witnesses must be the ones
the dense loops reported.
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

import pytest

from ahtorsion import audit
from ahtorsion.catalog import ENTRIES, get, structure_from_data
from ahtorsion.cli import report_data
from ahtorsion.curvature import analyze, riemann
from ahtorsion.decomposition import _div_trace, _pair_xi, _trace_slot, _xi_at_vector
from ahtorsion.multilinear import Tensor
from ahtorsion.scalars import ZERO, Scalar
from ahtorsion.structure import check_torsion_tensor, chern_connection

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import generate  # noqa: E402

R = Scalar.rational


# -- dense references ----------------------------------------------------------


def ref_riemann(L, conn) -> Tensor:
    n = L.dim
    g = conn.gamma
    Rm = Tensor(n, 4)
    for i in range(n):
        for j in range(i + 1, n):
            br = L.bracket(i, j)
            for k in range(n):
                for l in range(n):
                    acc = sum((v * g(m, k, l) for m, v in br.items()), ZERO)
                    for m in range(n):
                        acc = acc - g(j, k, m) * g(i, m, l)
                        acc = acc + g(i, k, m) * g(j, m, l)
                    if not acc.is_zero():
                        Rm.set((i, j, k, l), acc)
                        Rm.set((j, i, k, l), -acc)
    return Rm


def ref_covariant_derivative(conn, t: Tensor) -> Tensor:
    out = Tensor(conn.dim, t.rank + 1)
    for i in range(conn.dim):
        for idx, v in t.coeffs.items():
            for slot in range(t.rank):
                m = idx[slot]
                for j in range(conn.dim):
                    g = conn.gamma(i, j, m)
                    if g.is_zero():
                        continue
                    key = (i,) + idx[:slot] + (j,) + idx[slot + 1 :]
                    out.set(key, out(*key) + -(g * v))
    return out


def ref_derive_endomorphism(conn, A):
    n = conn.dim
    result = []
    for i in range(n):
        mat = [[ZERO] * n for _ in range(n)]
        for j in range(n):
            for k in range(n):
                acc = ZERO
                for m in range(n):
                    acc = acc + A[m][j] * conn.gamma(i, m, k)
                    acc = acc - conn.gamma(i, j, m) * A[k][m]
                mat[k][j] = acc
        result.append(mat)
    return result


def ref_check_torsion_tensor(S, xi: Tensor):
    if not xi.is_antisymmetric_pair(1, 2):
        return "xi_ijk is not antisymmetric in the last two slots"
    n = S.L.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc = ZERO
                for m in range(n):
                    acc = acc + xi(i, j, m) * S.J[k][m] + S.J[m][j] * xi(i, m, k)
                if not acc.is_zero():
                    return "xi does not anticommute with J in the target slot"
    return None


def _dense2(fun, dim: int) -> Tensor:
    out = Tensor(dim, 2)
    for j in range(dim):
        for k in range(dim):
            out.set((j, k), fun(j, k))
    return out


def ref_pairJ(S, a: Tensor, b: Tensor) -> Tensor:
    def at(j, k):
        acc = ZERO
        for (x, i, m), v in a.coeffs.items():
            if x != j:
                continue
            for l in range(S.L.dim):
                w = S.J[l][i]
                if w.is_zero():
                    continue
                u = b(k, l, m)
                if not u.is_zero():
                    acc = acc + v * w * u
        return acc

    return _dense2(at, S.L.dim)


def ref_pairE(S, a: Tensor, b: Tensor) -> Tensor:
    def at(j, k):
        acc = ZERO
        for (i, x, m), v in a.coeffs.items():
            if x != j:
                continue
            w = b(i, k, m)
            if not w.is_zero():
                acc = acc + v * w
        return acc

    return _dense2(at, S.L.dim)


def ref_pairE_J(S, a: Tensor, b: Tensor) -> Tensor:
    def at(j, k):
        acc = ZERO
        for (i, x, m), v in a.coeffs.items():
            if x != j:
                continue
            for l in range(S.L.dim):
                w = S.J[l][i]
                if w.is_zero():
                    continue
                u = b(l, k, m)
                if not u.is_zero():
                    acc = acc + v * w * u
        return acc

    return _dense2(at, S.L.dim)


def ref_pair_xi(S, a: Tensor, b: Tensor) -> Tensor:
    def at(j, k):
        acc = ZERO
        for (x, i, m), v in a.coeffs.items():
            if x != j:
                continue
            w = b(k, i, m)
            if not w.is_zero():
                acc = acc + v * w
        return acc

    return _dense2(at, S.L.dim)


def ref_traces(Dxi: Tensor):
    d = Dxi.dim
    div = _dense2(lambda j, k: sum((Dxi(i, j, k, i) for i in range(d)), ZERO), d)
    slot = _dense2(lambda j, k: sum((Dxi(i, i, j, k) for i in range(d)), ZERO), d)
    return div, slot


def ref_xi_at_vector(xi_part: Tensor, vec) -> Tensor:
    return _dense2(
        lambda j, k: sum(
            (vec[t] * xi_part(t, j, k) for t in range(len(vec)) if not vec[t].is_zero()),
            ZERO,
        ),
        xi_part.dim,
    )


# -- structures ----------------------------------------------------------------


def _rotated(name: str, seed: int):
    return audit.rotated_structure(get(name).build(), random.Random(seed), f"kernels-{seed}")


STRUCTURES = [(e.name, e.build) for e in ENTRIES] + [
    ("example-5.4-rotated-7", lambda: _rotated("example-5.4", 7)),
    ("example-5.2-rotated-11", lambda: _rotated("example-5.2", 11)),
    ("generated-param-3-00", lambda: structure_from_data(generate.documents(3)[0])),
]


@pytest.fixture(scope="module", params=STRUCTURES, ids=[name for name, _ in STRUCTURES])
def bundle(request):
    return audit.Bundle(analyze(request.param[1]()))


# -- kernels against references ------------------------------------------------


def _connections(b):
    conns = [b.A.nabla, b.A.minimal]
    chern, _ = chern_connection(b.S, b.A.nabla, b.xi)
    return conns + [chern]


def test_riemann_matches_dense_loop(bundle):
    for conn in _connections(bundle):
        if conn.kind == "chern" and bundle.A.curvature.chern is None:
            continue  # a non-unitary Chern connection has no skew curvature
        assert riemann(bundle.S.L, conn) == ref_riemann(bundle.S.L, conn)


def test_covariant_derivative_matches_dense_loop(bundle):
    tensors = [bundle.xi, bundle.xi1, bundle.xi2, bundle.xi3, bundle.xi4,
               bundle.omega_t, bundle.theta.to_tensor(), bundle.curv.Rm]
    for conn in _connections(bundle):
        for t in tensors:
            assert conn.covariant_derivative(t) == ref_covariant_derivative(conn, t)


def test_derive_endomorphism_matches_dense_loop(bundle):
    for conn in _connections(bundle):
        assert conn.derive_endomorphism(bundle.S.J) == ref_derive_endomorphism(conn, bundle.S.J)


def test_check_torsion_tensor_matches_dense_loop(bundle):
    for part in (bundle.xi, bundle.xi1, bundle.xi2, bundle.xi3, bundle.xi4):
        assert check_torsion_tensor(bundle.S, part) is None
        assert ref_check_torsion_tensor(bundle.S, part) is None


def test_pair_contractions_match_dense_loops(bundle):
    S = bundle.S
    parts = [bundle.xi, bundle.xi1, bundle.xi2, bundle.xi3, bundle.xi4]
    for a in parts:
        for c in parts:
            assert bundle.pairJ(a, c) == ref_pairJ(S, a, c)
            assert bundle.pairE(a, c) == ref_pairE(S, a, c)
            assert bundle.pairE_J(a, c) == ref_pairE_J(S, a, c)
            assert _pair_xi(a, c) == ref_pair_xi(S, a, c)


def test_trace_contractions_match_dense_loops(bundle):
    for D in (bundle.Dxi, bundle.Dxi1, bundle.Dxi2, bundle.Dxi3, bundle.Dxi4):
        assert (_div_trace(D), _trace_slot(D)) == ref_traces(D)
    for part in (bundle.xi1, bundle.xi2, bundle.xi3):
        for vec in (bundle.th, bundle.jth, bundle.xi4vec):
            assert _xi_at_vector(part, vec) == ref_xi_at_vector(part, vec)


def test_dxi_is_the_sum_of_the_component_derivatives(bundle):
    assert bundle.Dxi == bundle.A.minimal.covariant_derivative(bundle.xi)


# -- every stored entry is canonical --------------------------------------------


def _stored_scalars(obj, seen):
    """Every Scalar reachable from obj through containers and object fields."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, Scalar):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _stored_scalars(v, seen)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _stored_scalars(v, seen)
    elif hasattr(obj, "__dict__"):
        for v in vars(obj).values():
            yield from _stored_scalars(v, seen)


def assert_canonical(s: Scalar):
    # a non-canonical Scalar can print like a canonical one and still compare unequal
    assert s._den > 0
    assert all(pair != (0, 0) for pair in s._num.values())
    assert math.gcd(s._den, *(c for pair in s._num.values() for c in pair)) == 1
    assert (s.d == 0) == all(b == 0 for _, b in s._num.values())


def test_every_stored_entry_is_canonical(bundle):
    b = bundle
    chern, _ = chern_connection(b.S, b.A.nabla, b.xi)
    # the analysis holds Gamma, Rm, Ric, Ric*, the Ricci forms and every split;
    # the bundle adds each D^min xi_k, D theta and the curvature gap
    roots = [b.A, chern.gamma, b.Dxi, b.Dxi1, b.Dxi2, b.Dxi3, b.Dxi4, b.Dth,
             b.curvature_gap, b.torsion_trace_rhs()]
    entries = [s for root in roots for s in _stored_scalars(root, set())]
    assert entries
    for s in entries:
        assert_canonical(s)


# -- corrupted input -----------------------------------------------------------


def test_corrupted_torsion_component_is_reported():
    A = analyze(get("example-5.1").build())
    S, xi = A.structure, A.xi
    skew_ok = Tensor(xi.dim, 3, dict(xi.coeffs))
    skew_ok.set((0, 0, 1), skew_ok(0, 0, 1) + R(1))
    skew_ok.set((0, 1, 0), skew_ok(0, 1, 0) - R(1))
    msg = "xi does not anticommute with J in the target slot"
    assert check_torsion_tensor(S, skew_ok) == msg
    assert ref_check_torsion_tensor(S, skew_ok) == msg
    not_skew = Tensor(xi.dim, 3, dict(xi.coeffs))
    not_skew.set((0, 1, 2), not_skew(0, 1, 2) + R(1))
    msg = "xi_ijk is not antisymmetric in the last two slots"
    assert check_torsion_tensor(S, not_skew) == msg


@pytest.mark.parametrize(
    "name, key, r33, e31",
    [
        ("example-5.4", (1, 0, 2, 4), "entry (1,2,3,5): 2", "quadruple (1, 2, 3, 6): 2"),
        ("nearly-kaehler-s3s3", (0, 1, 2, 2), "entry (1,2,3,3): -2", "quadruple (1, 2, 3, 6): -2"),
    ],
)
def test_curvature_transfer_checks_fail_on_a_corrupted_derivative(name, key, r33, e31):
    # witnesses pinned from the dense-loop implementation of R3.3 and E3.1
    b = audit.Bundle(analyze(get(name).build()))
    assert audit.check_r33(b) is None and audit.check_e31(b) is None
    b = audit.Bundle(b.A)
    b.Dxi.set(key, b.Dxi(*key) + R(2))
    assert audit.check_r33(b) == r33
    assert audit.check_e31(b) == e31


# -- analyze() leaves its input alone ------------------------------------------


def test_analyze_twice_gives_identical_reports_and_keeps_su_data_off_the_input():
    S = get("nearly-kaehler-s3s3").build()
    assert S.psi_plus is None and S.psi_minus is None
    docs = []
    for _ in range(2):
        A = analyze(S)
        docs.append(json.dumps(report_data(A, audit.run_suite(S, A)), indent=2))
        assert A.su is not None and A.su.auto_built
    assert docs[0] == docs[1]
    assert S.psi_plus is None and S.psi_minus is None

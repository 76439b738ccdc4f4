"""Stored-entry tensor kernels against dense index-cube references.

The kernels in ``structure``, ``curvature``, ``decomposition`` and ``audit``
iterate stored entries only, and every J contraction among them goes through
``Tensor.apply_J`` or ``Tensor.trace_J``.  The references below are the
straightforward loops over every index tuple, or the hand-written J loops,
that those kernels replaced; on every catalog entry, two seeded rotated
samples and one generated single-parameter file, both must give identical
exact results.  ``Connection.covariant_trace`` must equal the contraction of
the full derivative there and on random sparse tensors over Q(sqrt 3).  The
audit's curvature-transfer checks are also pinned on corrupted input: their
witnesses must be the ones the dense loops reported.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ahtorsion import audit, multilinear, scalars, structure
from ahtorsion.catalog import ENTRIES, get, structure_from_data
from ahtorsion.cli import report_data
from ahtorsion.curvature import analyze, riemann
from ahtorsion.decomposition import _pair_xi, _xi_at_vector
from ahtorsion.multilinear import Form, Tensor, exterior_derivative, gram_schmidt, sort_with_sign
from ahtorsion.scalars import ONE, ZERO, Accumulator, Scalar
from ahtorsion.structure import (
    Connection, check_torsion_tensor, chern_connection, nijenhuis, transform_form,
)

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


def ref_derive_endomorphism(conn, A) -> Tensor:
    """(i, k, j) -> (D_{e_i} A)^k_j, one entry at a time."""
    n = conn.dim
    out = Tensor(n, 3)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc = ZERO
                for m in range(n):
                    acc = acc + A[m][j] * conn.gamma(i, m, k)
                    acc = acc - conn.gamma(i, j, m) * A[k][m]
                out.set((i, k, j), acc)
    return out


def ref_nijenhuis(S) -> Tensor:
    """N(e_i, e_j) = [e_i, e_j] + J[Je_i, e_j] + J[e_i, Je_j] - [Je_i, Je_j] on
    dense basis and J-column vectors, for every pair i < j."""
    n = S.L.dim

    def bracket_vectors(x, y):
        out = [ZERO] * n
        for i in range(n):
            for j in range(n):
                if not (x[i].is_zero() or y[j].is_zero()):
                    for k, v in S.L.bracket(i, j).items():
                        out[k] = out[k] + x[i] * y[j] * v
        return out

    def J_vec(v):
        return [sum((S.J[i][j] * v[j] for j in range(n)), ZERO) for i in range(n)]

    out = Tensor(n, 3)
    basis = [[ONE if a == b else ZERO for a in range(n)] for b in range(n)]
    for i in range(n):
        Ji = [S.J[a][i] for a in range(n)]
        for j in range(i + 1, n):
            Jj = [S.J[a][j] for a in range(n)]
            term = bracket_vectors(basis[i], basis[j])
            term2 = J_vec(bracket_vectors(Ji, basis[j]))
            term3 = J_vec(bracket_vectors(basis[i], Jj))
            term4 = bracket_vectors(Ji, Jj)
            for k in range(n):
                v = term[k] + term2[k] + term3[k] - term4[k]
                out.set((i, j, k), v)
                out.set((j, i, k), -v)
    return out


def ref_apply_J(t: Tensor, J, slot: int) -> Tensor:
    """J_(slot) t through one accumulator over the stored rows of J, whatever
    its entries: an entry of +-1 adds t's entry itself."""
    rows = [[(j, w, -1 if w == ONE else 1 if w == -ONE else 0) for j, w in enumerate(row) if w]
            for row in J]
    acc = Accumulator()
    for k, v in t.coeffs.items():
        for j, w, unit in rows[k[slot]]:
            key = k[:slot] + (j,) + k[slot + 1 :]
            if unit:
                acc.add(key, v, sign=unit)
            else:
                acc.add(key, w, v, -1)
    return Tensor(t.dim, t.rank, acc.result())


def ref_transform_form(alpha: Form, M) -> Form:
    """Each target p-subset's coefficient as a sum of p x p minors of M, each
    minor expanded over all p! permutations."""
    n, p = alpha.dim, alpha.degree
    out = Form(n, p)
    for target in itertools.combinations(range(n), p):
        acc = ZERO
        for src, val in alpha.coeffs.items():
            det = ZERO
            for perm in itertools.permutations(range(p)):
                _, sign = sort_with_sign(perm)
                prod = ONE
                for t in range(p):
                    prod = prod * M[target[t]][src[perm[t]]]
                det = det + (prod if sign == 1 else -prod)
            acc = acc + val * det
        if not acc.is_zero():
            out.coeffs[target] = acc
    return out


def ref_trace_J(t: Tensor, M, a: int, b: int) -> Tensor:
    """sum_{x, y} M_yx t(...) with x in slot a, y in slot b, the other slots
    in order, from every stored entry."""
    rest = [s for s in range(t.rank) if s not in (a, b)]
    acc = Accumulator()
    for idx, v in t.coeffs.items():
        acc.add(tuple(idx[s] for s in rest), M[idx[b]][idx[a]], v)
    return Tensor(t.dim, t.rank - 2, acc.result())


def ref_anticommutator(S, xi: Tensor) -> Tensor:
    """sum_m xi_ijm J_km + J_mj xi_imk, scattered from each stored xi_iab as
    the first term (j = a) and the second (k = b)."""
    n = S.L.dim
    acc = Accumulator()
    for (i, a, b), v in xi.coeffs.items():
        for k in range(n):
            if S.J[k][b]:
                acc.add((i, a, k), v, S.J[k][b])
        for j in range(n):
            if S.J[a][j]:
                acc.add((i, j, b), S.J[a][j], v)
    return Tensor(n, 3, acc.result())


def ref_exterior_derivative(L, alpha: Form) -> Form:
    """d a(X_0..X_p) = sum_{i<j} (-1)^(i+j) a([X_i, X_j], ..hats..) on every
    sorted (p+1)-tuple."""
    p, n = alpha.degree, L.dim
    out = Form(n, p + 1)
    if p >= n:
        return out
    for idx in itertools.combinations(range(n), p + 1):
        acc = ZERO
        for a in range(p + 1):
            for b in range(a + 1, p + 1):
                rest = idx[:a] + idx[a + 1 : b] + idx[b + 1 :]
                for k, v in L.bracket(idx[a], idx[b]).items():
                    term = v * alpha(k, *rest)
                    acc = acc - term if (a + b) % 2 else acc + term
        if not acc.is_zero():
            out.coeffs[idx] = acc
    return out


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


def test_covariant_trace_is_the_traced_derivative(bundle):
    tensors = [bundle.xi, bundle.xi1, bundle.xi2, bundle.xi3, bundle.xi4,
               bundle.omega_t, bundle.theta.to_tensor(), bundle.curv.Rm]
    for conn in _connections(bundle):
        for t in tensors:
            D = conn.covariant_derivative(t)
            for slot in range(t.rank):
                assert conn.covariant_trace(t, slot) == D.contract(0, slot + 1)


sqrt3_entries = st.builds(
    lambda a, b: R(a) + R(b) * Scalar.root(3),
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
)


def sparse_tensors(dim: int, rank: int):
    keys = st.tuples(*[st.integers(0, dim - 1)] * rank)
    return st.dictionaries(keys, sqrt3_entries, max_size=8).map(
        lambda coeffs: Tensor(dim, rank, coeffs))


@st.composite
def connections_and_tensors(draw):
    dim = draw(st.integers(2, 4))
    gamma = draw(sparse_tensors(dim, 3))
    return Connection(dim, gamma), draw(sparse_tensors(dim, draw(st.integers(2, 3))))


@settings(max_examples=150, deadline=None)
@given(connections_and_tensors())
def test_covariant_trace_on_random_sparse_tensors_over_sqrt3(case):
    conn, t = case
    D = conn.covariant_derivative(t)
    assert D == ref_covariant_derivative(conn, t)
    for slot in range(t.rank):
        assert conn.covariant_trace(t, slot) == D.contract(0, slot + 1)


def test_derive_endomorphism_matches_dense_loop(bundle):
    for conn in _connections(bundle):
        assert conn.derive_endomorphism(bundle.S.J) == ref_derive_endomorphism(conn, bundle.S.J)


def test_check_torsion_tensor_matches_dense_loop(bundle):
    for part in (bundle.xi, bundle.xi1, bundle.xi2, bundle.xi3, bundle.xi4):
        assert check_torsion_tensor(bundle.S, part) is None
        assert ref_check_torsion_tensor(bundle.S, part) is None


def test_anticommutation_residual_matches_the_scatter(bundle):
    # the whole residual, also where it is not zero: a Gamma is no torsion tensor
    S = bundle.S
    for t in (bundle.xi, bundle.xi3, bundle.A.nabla.gamma, bundle.A.minimal.gamma):
        assert t.apply_J(2, S.J) - t.apply_J(1, S.J) == ref_anticommutator(S, t)


def test_nijenhuis_matches_the_bracket_vector_loop(bundle):
    assert nijenhuis(bundle.S) == ref_nijenhuis(bundle.S)


def test_apply_J_matches_the_accumulator_loop(bundle):
    J, A = bundle.S.J, bundle.A
    tensors = [bundle.xi, bundle.curv.Rm, A.nabla.gamma, A.minimal.gamma,
               bundle.curv.ric, bundle.curv.ric_star]
    for t in tensors:
        for slot in range(t.rank):
            assert t.apply_J(slot, J) == ref_apply_J(t, J, slot)


def test_apply_J_reindexes_exactly_the_signed_permutations():
    # both paths of apply_J run in the test above: four catalog entries and
    # one rotated sample have a J with one +-1 per row, the rest Givens rows
    signed = {name: build().J.signed_perm is not None for name, build in STRUCTURES}
    assert sorted(name for name, s in signed.items() if not s) == [
        "example-5.4", "example-5.4-rotated-7", "generated-param-3-00"]


@pytest.mark.parametrize("name", ["example-5.1", "example-5.4"])
def test_analysis_and_audit_build_the_rows_of_J_once(name, monkeypatch):
    built = []
    real = multilinear._stored_rows

    def counting(M):
        built.append([list(row) for row in M])
        return real(M)

    monkeypatch.setattr(multilinear, "_stored_rows", counting)
    S = get(name).build()
    audit.run_suite(S, analyze(S))
    J = [list(row) for row in S.J]
    assert sum(rows == J for rows in built) == 1


def test_transform_form_matches_the_minor_expansion(monkeypatch):
    # the catalog's metric entry changes frame through transform_form once
    frames = []
    real = structure.transform_form
    monkeypatch.setattr(structure, "transform_form",
                        lambda alpha, M: frames.append((alpha, M)) or real(alpha, M))
    A = analyze(get("nearly-kaehler-s3s3").build())
    [(omega, P)] = frames
    cases = [(omega, P), (A.su.psi_plus, P)]
    # Givens rotations of the catalog's 2-forms and of 3-forms
    rng = random.Random(5)
    for e in ENTRIES:
        S = e.build()
        forms = [S.omega]
        if S.L.dim == 6:
            forms += [A.su.psi_plus, A.su.psi_minus,
                      Form(6, 3, {K: R(k + 1) for k, K in
                                  enumerate(itertools.combinations(range(6), 3))})]
        for factors in (1, 2, 4):
            M = audit.random_rotation(S.L.dim, rng, factors)
            cases += [(alpha, M) for alpha in forms]
    # a rational Gram-Schmidt frame (G = L L^T, L lower triangular with
    # diagonal 2, 2, 1, 3), on basis forms of every degree
    G = [[R(x) for x in row] for row in ((4, 2, 0, 2), (2, 5, 2, 1), (0, 2, 2, 2), (2, 1, 2, 14))]
    Q = gram_schmidt(G)
    cases += [(Form.basis(4, K, R(p + 2)), Q) for p in range(5)
              for K in itertools.combinations(range(4), p)]
    for alpha, M in cases:
        assert transform_form(alpha, M) == ref_transform_form(alpha, M)


def test_trace_J_matches_the_stored_entry_loop(bundle):
    J = bundle.S.J
    Dxi3 = bundle.A.minimal.covariant_derivative(bundle.xi3)
    tensors = [bundle.curv.Rm, bundle.curv.minimal.Rm, Dxi3, bundle.xi,
               bundle.Dxi4vec, bundle.g, bundle.omega_t]
    for t in tensors:
        for a, b in itertools.permutations(range(t.rank), 2):
            assert t.trace_J(a, b, J) == ref_trace_J(t, J, a, b)


def test_exterior_derivative_matches_the_tuple_sweep(bundle):
    L, n = bundle.S.L, bundle.dim
    forms = [Form.basis(n, K) for p in range(n + 1)
             for K in itertools.combinations(range(n), p)]
    A = bundle.A
    forms += [bundle.S.omega, bundle.theta, bundle.jth_form, A.domega, A.dtheta.dtheta,
              A.curvature.rho, A.curvature.minimal.r]
    for alpha in forms:
        assert exterior_derivative(L, alpha) == ref_exterior_derivative(L, alpha)


def test_pair_contractions_match_dense_loops(bundle):
    S = bundle.S
    parts = [bundle.xi, bundle.xi1, bundle.xi2, bundle.xi3, bundle.xi4]
    for a in parts:
        for c in parts:
            assert bundle.pairJ(a, c) == ref_pairJ(S, a, c)
            assert bundle.pairE(a, c) == ref_pairE(S, a, c)
            assert bundle.pairE_J(a, c) == ref_pairE_J(S, a, c)
            assert _pair_xi(a, c) == ref_pair_xi(S, a, c)
            assert bundle.pair(a, c) == ref_pair_xi(S, a, c)


def _component_derivatives(b):
    """D^min xi_1, ..., D^min xi_4, built here from the analysis's components."""
    return [b.A.minimal.covariant_derivative(part) for _, part in b.A.torsion.parts()]


def test_trace_contractions_match_dense_loops(bundle):
    # the fused traces of xi and of each xi_k, the last four the fields the
    # checks read, against dense loops over derivatives built here
    mc = bundle.A.minimal
    parts = [bundle.xi] + [part for _, part in bundle.A.torsion.parts()]
    traces = [ref_traces(D) for D in [bundle.Dxi] + _component_derivatives(bundle)]
    for part, (div, slot) in zip(parts, traces):
        assert (mc.covariant_trace(part, 2), mc.covariant_trace(part, 0)) == (div, slot)
    fields = [bundle.trace1, bundle.trace2, bundle.trace3, bundle.trace4]
    assert fields == [slot for _, slot in traces[1:]]
    assert [bundle.div2, bundle.div3] == [traces[2][0], traces[3][0]]
    for part in (bundle.xi1, bundle.xi2, bundle.xi3):
        for vec in (bundle.th, bundle.jth, bundle.xi4vec):
            assert _xi_at_vector(part, vec) == ref_xi_at_vector(part, vec)


def test_dxi_is_the_sum_of_the_component_derivatives(bundle):
    D1, D2, D3, D4 = _component_derivatives(bundle)
    assert bundle.Dxi == D1 + D2 + D3 + D4


# -- every stored entry is canonical --------------------------------------------


def _reachable(obj, seen):
    """Every object reachable from obj through containers and object fields."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    yield obj
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _reachable(v, seen)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _reachable(v, seen)
    elif hasattr(obj, "__dict__") and not isinstance(obj, Scalar):
        for v in vars(obj).values():
            yield from _reachable(v, seen)


def _bundle_roots(b):
    """The analysis and every tensor the bundle holds or builds, after one run
    of every check on the bundle, so that its memo of rotations is full."""
    for _, _, guard, fn in audit.CHECKS:
        if guard(b) is None:
            fn(b)
    chern, _ = chern_connection(b.S, b.A.nabla, b.xi)
    # the analysis holds Gamma, Rm, Ric, Ric*, the Ricci forms and every split;
    # the bundle adds D^min xi, the traces of each D^min xi_k, D theta and the
    # curvature gap
    return [b.A, b, chern.gamma, b.Dxi, b.trace1, b.trace2, b.trace3, b.trace4,
            b.div2, b.div3, b.Dth, b.curvature_gap, b.torsion_trace_rhs]


def assert_canonical(s: Scalar):
    # a non-canonical Scalar can print like a canonical one and still compare unequal
    assert s._den > 0
    assert all(c != 0 for c in s._a.values()) and all(c != 0 for c in s._b.values())
    assert math.gcd(s._den, *s._a.values(), *s._b.values()) == 1
    assert (s.d == 0) == (not s._b)
    assert s._b or s._b is scalars._EMPTY


def test_every_stored_entry_is_canonical(bundle):
    seen = set()
    entries = [s for root in _bundle_roots(bundle) for s in _reachable(root, seen)
               if isinstance(s, Scalar)]
    assert entries
    for s in entries:
        assert_canonical(s)


def test_no_tensor_or_form_stores_a_zero(bundle):
    # kernels build their results from accumulator sums without checking the
    # entries again, and is_zero() reads only whether anything is stored
    seen = set()
    stored = [t for root in _bundle_roots(bundle) for t in _reachable(root, seen)
              if isinstance(t, (Tensor, Form))]
    assert stored
    for t in stored:
        assert not any(v.is_zero() for v in t.coeffs.values())


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
    assert audit.witness(audit.check_r33(b)) is None
    assert audit.witness(audit.check_e31(b)) is None
    b = audit.Bundle(b.A)
    b.Dxi.set(key, b.Dxi(*key) + R(2))
    assert audit.witness(audit.check_r33(b)) == r33
    assert audit.witness(audit.check_e31(b)) == e31


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

"""Stored-entry tensor kernels against dense index-cube references.

The kernels in ``structure``, ``curvature``, ``decomposition`` and ``audit``
iterate stored entries only, and every J contraction among them goes through
``Tensor.apply_J``, ``Tensor.trace_J`` or a rotated term of ``_combine``.
The references below are the straightforward loops over every index tuple,
or the hand-written J loops, that those kernels replaced; on every catalog
entry, two seeded rotated samples and one generated single-parameter file,
both must give identical exact results.  ``Connection.covariant_trace`` must
equal the contraction of the full derivative there and on random sparse
tensors over Q(sqrt 3).  The one-pass J kernels (rotated terms of
``_combine`` on two slots, as a composite or a signed sum, and ``trace_J``
on increasing keys) must equal entry-by-entry loops on the catalog, on
rotated samples and on random tensors over Q(sqrt 3), and dense folds of +
and * where J's rows become integers over one denominator: J with rational
Givens entries, with sqrt 3, with a parameter, and with integers beside
non-integer rationals.  The audit bundle never builds D^min xi; the tests
build it here, and the curvature gap and the torsion trace tensor must equal
the sums read off it.  The audit's curvature-transfer checks are also pinned
on corrupted input: their witnesses must be the ones the dense loops
reported.
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
from ahtorsion.curvature import (
    analyze, ricci_form, riemann, three_form_pure_part, transposed_ricci_form,
)
from ahtorsion.decomposition import (
    _xi_at_vector, domega_from_torsion, lambda11_part, split_torsion,
)
from ahtorsion.multilinear import (
    Endomorphism, Form, Tensor, _pair_xi, exterior_derivative, gram_schmidt, sort_with_sign,
)
from ahtorsion.scalars import HALF, ONE, ZERO, Accumulator, Scalar, parse_scalar
from ahtorsion.structure import (
    Connection, check_torsion_tensor, chern_connection, intrinsic_torsion, levi_civita,
    nijenhuis, transform_form,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import generate  # noqa: E402
from test_audit import SUM_AUDITS, SUM_IDS, direct_sum  # noqa: E402

R = Scalar.rational


# -- dense references ----------------------------------------------------------


def ref_riemann(L, conn) -> Tensor:
    n = L.dim
    g = conn.gamma
    coeffs = {}
    for i in range(n):
        for j in range(i + 1, n):
            br = L.bracket(i, j)
            for k in range(n):
                for l in range(n):
                    acc = sum((v * g(m, k, l) for m, v in br.items()), ZERO)
                    for m in range(n):
                        acc = acc - g(j, k, m) * g(i, m, l)
                        acc = acc + g(i, k, m) * g(j, m, l)
                    coeffs[i, j, k, l], coeffs[j, i, k, l] = acc, -acc
    return Tensor(n, 4, coeffs)


def ref_covariant_derivative(conn, t: Tensor) -> Tensor:
    coeffs = {}
    for i in range(conn.dim):
        for idx, v in t.coeffs.items():
            for slot in range(t.rank):
                m = idx[slot]
                for j in range(conn.dim):
                    g = conn.gamma(i, j, m)
                    if g.is_zero():
                        continue
                    key = (i,) + idx[:slot] + (j,) + idx[slot + 1 :]
                    coeffs[key] = coeffs.get(key, ZERO) + -(g * v)
    return Tensor(conn.dim, t.rank + 1, coeffs)


def ref_derive_endomorphism(conn, A) -> Tensor:
    """(i, k, j) -> (D_{e_i} A)^k_j, one entry at a time."""
    n = conn.dim
    coeffs = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc = ZERO
                for m in range(n):
                    acc = acc + A[m][j] * conn.gamma(i, m, k)
                    acc = acc - conn.gamma(i, j, m) * A[k][m]
                coeffs[i, k, j] = acc
    return Tensor(n, 3, coeffs)


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

    coeffs = {}
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
                coeffs[i, j, k], coeffs[j, i, k] = v, -v
    return Tensor(n, 3, coeffs)


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
    n, p = alpha.dim, alpha.rank
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
    p, n = alpha.rank, L.dim
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
    return Tensor(dim, 2, {(j, k): fun(j, k) for j in range(dim) for k in range(dim)})


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


def ref_curvature_gap(b, Dxi: Tensor) -> Tensor:
    """F_ackl for a < c, term by term from the whole D^min xi:
    (D xi)_ackl - (D xi)_cakl + <xi_{xi_a e_c - xi_c e_a} e_k, e_l>
    - <[xi_a, xi_c] e_k, e_l>."""
    n, xi = b.dim, b.xi
    coeffs = {}
    for a, c in itertools.combinations(range(n), 2):
        for k in range(n):
            for l in range(n):
                acc = Dxi(a, c, k, l) - Dxi(c, a, k, l)
                for m in range(n):
                    w = xi(a, c, m) - xi(c, a, m)
                    if not w.is_zero():
                        acc = acc + w * xi(m, k, l)
                    acc = acc - xi(c, k, m) * xi(a, m, l) + xi(a, k, m) * xi(c, m, l)
                coeffs[a, c, k, l] = acc
    return Tensor(n, 4, coeffs)


def ref_torsion_trace_rhs(b, Dxi: Tensor) -> Tensor:
    """2 sum_i (-(D xi)_ijki + (D xi)_jiki) + 2 sum_{i,m} (-xi_ijm + xi_jim) xi_mki."""
    n, xi = b.dim, b.xi
    two = R(2)

    def at(j, k):
        acc = ZERO
        for i in range(n):
            acc = acc + two * (Dxi(j, i, k, i) - Dxi(i, j, k, i))
            for m in range(n):
                acc = acc + two * (xi(j, i, m) - xi(i, j, m)) * xi(m, k, i)
        return acc

    return _dense2(at, n)


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
    # the whole residual, also where it is not zero: a Gamma is no torsion
    # tensor; J_(2) t - J_(3) t is the signed sum check_torsion_tensor tests
    S = bundle.S
    for t in (bundle.xi, bundle.xi3, bundle.A.nabla.gamma, bundle.A.minimal.gamma):
        assert t.apply_J(2, S.J) - t.apply_J(1, S.J) == ref_anticommutator(S, t)
        residual = multilinear._combine((1, t, (1,)), (-1, t, (2,)), J=S.J)
        assert -residual == ref_anticommutator(S, t)


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
    Q, _ = gram_schmidt(G)
    cases += [(Form(4, p, {K: R(p + 2)}), Q) for p in range(5)
              for K in itertools.combinations(range(4), p)]
    for alpha, M in cases:
        assert transform_form(alpha, M) == ref_transform_form(alpha, M)


def _product(A, B):
    return [[sum((A[i][k] * B[k][j] for k in range(len(B))), ZERO) for j in range(len(B[0]))]
            for i in range(len(A))]


@pytest.mark.parametrize("frame", ["rational", "catalog"])
def test_gram_schmidt_returns_the_inverse_of_its_frame(frame):
    if frame == "rational":  # the frame G = L L^T of the test above
        G, d = [[R(x) for x in row] for row in
                ((4, 2, 0, 2), (2, 5, 2, 1), (0, 2, 2, 2), (2, 1, 2, 14))], 0
    else:
        doc = get("nearly-kaehler-s3s3").document
        d = doc["sqrt_extension"]
        G = [[parse_scalar(c, d=d) for c in row] for row in doc["metric"]]
    P, inverse = gram_schmidt(G, d)
    n = len(G)
    identity = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    assert _product(inverse, P) == identity
    assert _product(_product(P, G), [list(col) for col in zip(*P)]) == identity


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
    forms = [Form(n, p, {K: ONE}) for p in range(n + 1)
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
    Dxi = mc.covariant_derivative(bundle.xi)
    traces = [ref_traces(D) for D in [Dxi] + _component_derivatives(bundle)]
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
    assert bundle.A.minimal.covariant_derivative(bundle.xi) == D1 + D2 + D3 + D4


def _generated(seed: int, dim: int):
    """A ``bench/generate.py`` file of dimension ``dim``, drawn here."""
    doc = generate.structure_document(random.Random(seed), dim, f"generated-{dim}-{seed}")
    return structure_from_data(doc)


# the kernel structures, a catalog entry in a frame of d(d-1)/2 Givens
# factors, and a six- and a four-dimensional generated file
GAP_STRUCTURES = STRUCTURES + [
    ("example-5.4-mixed", lambda: _mixed("example-5.4")),
    ("generated-6-21", lambda: _generated(21, 6)),
    ("generated-4-22", lambda: _generated(22, 4)),
]


@pytest.fixture(scope="module", params=GAP_STRUCTURES, ids=[name for name, _ in GAP_STRUCTURES])
def gap_bundle(request):
    return audit.Bundle(analyze(request.param[1]()))


def test_bundle_reads_dxi_through_the_sums_of_the_whole_derivative(gap_bundle):
    # the curvature gap and the torsion trace tensor are built through
    # Levi-Civita, where D^min's quadratic terms cancel the explicit ones;
    # both against the paper's D^min form, with D^min xi built here
    Dxi = gap_bundle.A.minimal.covariant_derivative(gap_bundle.xi)
    assert gap_bundle.curvature_gap == ref_curvature_gap(gap_bundle, Dxi)
    assert gap_bundle.torsion_trace_rhs == ref_torsion_trace_rhs(gap_bundle, Dxi)


# -- one-pass J kernels ----------------------------------------------------------


def ref_rotate_twice(t: Tensor, J, a: int, b: int) -> Tensor:
    """J_(a) J_(b) t at every index tuple: sum_{m, p} J[m][x] J[p][y] t(...)
    with m in slot a and p in slot b, x and y the tuple's indices there."""
    n = t.dim
    coeffs = {}
    for idx in itertools.product(range(n), repeat=t.rank):
        acc = ZERO
        for m in range(n):
            x = J[m][idx[a]]
            if x.is_zero():
                continue
            for p in range(n):
                y = J[p][idx[b]]
                if y.is_zero():
                    continue
                src = list(idx)
                src[a], src[b] = m, p
                acc = acc + x * y * t(*src)
        coeffs[idx] = acc
    return Tensor(n, t.rank, coeffs)


def ref_ricci_forms(S, Rm: Tensor):
    """(rho, r) on every increasing (j, k): -1/2 sum_{i,m} J[m][i] Rm_imjk and
    -1/2 sum_{i,m} J[m][i] Rm_jkim."""
    n = S.L.dim
    rho, r = Form(n, 2), Form(n, 2)
    for j, k in itertools.combinations(range(n), 2):
        first = second = ZERO
        for i in range(n):
            for m in range(n):
                w = S.J[m][i]
                if not w.is_zero():
                    first = first + w * Rm(i, m, j, k)
                    second = second + w * Rm(j, k, i, m)
        for form, v in ((rho, first), (r, second)):
            if not v.is_zero():
                form.coeffs[(j, k)] = v * R(scalars.Fraction(-1, 2))
    return rho, r


def assert_one_pass_rotations(t: Tensor, J) -> None:
    """Every two-slot J action on t, as rotated terms of ``_combine``, against
    the entry loop, for composites, and the sum of two single-slot loops, for
    signed sums."""
    combine = multilinear._combine
    for a, b in itertools.permutations(range(t.rank), 2):
        assert combine((1, t, (a, b)), J=J) == ref_rotate_twice(t, J, a, b)
        first, second = ref_apply_J(t, J, a), ref_apply_J(t, J, b)
        assert combine((1, t, (a,)), (1, t, (b,)), J=J) == first + second
        assert combine((1, t, (a,)), (-1, t, (b,)), J=J) == first - second


def test_one_pass_rotations_match_entry_loops(bundle):
    S, A = bundle.S, bundle.A
    for t in (bundle.xi, A.minimal.gamma, S.L.C, bundle.curv.ric_star, bundle.Dth):
        assert_one_pass_rotations(t, S.J)
    # the kernels that act on two slots at once
    assert bundle.dth_rotated == ref_rotate_twice(bundle.Dth, S.J, 0, 1)
    for alpha in (S.omega, bundle.curv.rho, bundle.dJth):
        rotated = ref_rotate_twice(alpha.to_tensor(), S.J, 0, 1).antisymmetrize_to_form()
        assert lambda11_part(S, alpha) == (alpha + rotated).scaled(HALF)
    t_xi = ref_rotate_twice(bundle.xi, S.J, 0, 2)
    dec = split_torsion(S, bundle.xi, bundle.theta)
    assert dec.xi3 + dec.xi4 == multilinear._combine((HALF, bundle.xi), (HALF, t_xi))
    assert dec.xi1 + dec.xi2 == multilinear._combine((HALF, bundle.xi), (-HALF, t_xi))
    if bundle.dim == 6:
        t = A.domega.to_tensor()
        terms = [t] + [-ref_rotate_twice(t, S.J, a, b) for a, b in ((0, 1), (0, 2), (1, 2))]
        want = sum(terms[1:], terms[0]).scaled(R(scalars.Fraction(1, 4)))
        assert three_form_pure_part(S, A.domega) == want.antisymmetrize_to_form()


def test_membership_test_matches_the_dense_loop_off_the_torsion_space(bundle):
    # a metric Gamma is skew in its last two slots, so the signed sum decides
    S = bundle.S
    # xi plus the structure constants moved to be skew in the last two slots
    for t in (bundle.A.nabla.gamma, bundle.A.minimal.gamma, bundle.xi + S.L.C.transpose((1, 2, 0))):
        assert check_torsion_tensor(S, t) == ref_check_torsion_tensor(S, t)


def test_ricci_forms_sum_only_increasing_keys_and_match_entry_loops(bundle):
    S = bundle.S
    curvatures = [bundle.curv.Rm, bundle.curv.minimal.Rm]
    if bundle.curv.chern is not None:
        curvatures.append(bundle.curv.chern.Rm)
    for Rm in curvatures:
        assert (ricci_form(S, Rm), transposed_ricci_form(S, Rm)) == ref_ricci_forms(S, Rm)
        for a, b in ((0, 1), (2, 3), (1, 3)):
            want = {k: v for k, v in ref_trace_J(Rm, S.J, a, b).coeffs.items() if k[0] < k[1]}
            assert Rm.trace_J(a, b, S.J, increasing=True).coeffs == want


@pytest.mark.parametrize("factors", [3, 6])
@pytest.mark.parametrize("name", [e.name for e in ENTRIES])
def test_one_pass_kernels_on_rotated_samples(name, factors):
    S = audit.rotated_structure(get(name).build(), random.Random(factors), "mix", factors)
    nabla = levi_civita(S)
    xi = intrinsic_torsion(S, nabla)
    for t in (S.L.C, nabla.gamma):
        assert_one_pass_rotations(t, S.J)
    assert nabla.derive_endomorphism(S.J) == ref_derive_endomorphism(nabla, S.J)
    for t in (xi, nabla.gamma):
        assert check_torsion_tensor(S, t) == ref_check_torsion_tensor(S, t)
    Rm = riemann(S.L, nabla)
    assert (ricci_form(S, Rm), transposed_ricci_form(S, Rm)) == ref_ricci_forms(S, Rm)


@st.composite
def endomorphisms(draw, dim: int):
    """A skew matrix over Q(sqrt 3), sparse and random, or a signed
    permutation that pairs the basis vectors, which apply_J reindexes."""
    if draw(st.booleans()):
        M = [[ZERO] * dim for _ in range(dim)]
        for i, j in itertools.combinations(range(dim), 2):
            if draw(st.booleans()):
                w = draw(sqrt3_entries)
                M[i][j], M[j][i] = w, -w
        return Endomorphism(M)
    order = draw(st.permutations(range(dim)))
    M = [[ZERO] * dim for _ in range(dim)]
    for p in range(0, dim, 2):
        i, j = order[p], order[p + 1]
        s = draw(st.sampled_from([ONE, -ONE]))
        M[i][j], M[j][i] = s, -s
    return Endomorphism(M)


@st.composite
def j_kernel_cases(draw):
    dim = draw(st.sampled_from([2, 4]))
    J = draw(endomorphisms(dim))
    t = draw(sparse_tensors(dim, draw(st.integers(2, 3))))
    return J, t, Connection(dim, draw(sparse_tensors(dim, 3)))


@settings(max_examples=60, deadline=None)
@given(j_kernel_cases())
def test_one_pass_kernels_on_random_tensors_over_sqrt3(case):
    J, t, conn = case
    assert_one_pass_rotations(t, J)
    for a, b in itertools.permutations(range(t.rank), 2):
        want = {k: v for k, v in ref_trace_J(t, J, a, b).coeffs.items()
                if all(x < y for x, y in zip(k, k[1:]))}
        assert t.trace_J(a, b, J, increasing=True).coeffs == want
    assert conn.derive_endomorphism(J) == ref_derive_endomorphism(conn, J)


# -- J weights as integers over one denominator ---------------------------------


def dense_apply_J(t: Tensor, J, slot: int) -> Tensor:
    """J_(slot) t at every index tuple: -sum_m J[m][x] t(...) with m in
    ``slot`` and x the tuple's index there, a fold of + and *."""
    n = t.dim
    coeffs = {}
    for idx in itertools.product(range(n), repeat=t.rank):
        acc = ZERO
        for m in range(n):
            src = idx[:slot] + (m,) + idx[slot + 1 :]
            acc = acc - J[m][idx[slot]] * t(*src)
        coeffs[idx] = acc
    return Tensor(n, t.rank, coeffs)


def dense_trace_J(t: Tensor, J, a: int, b: int, increasing: bool = False) -> Tensor:
    """sum_{x, y} J[y][x] t(...) with x in slot a and y in slot b, at every
    tuple of the other slots (only increasing ones with ``increasing``)."""
    n = t.dim
    coeffs = {}
    for rest in itertools.product(range(n), repeat=t.rank - 2):
        if increasing and not all(x < y for x, y in zip(rest, rest[1:])):
            continue
        acc = ZERO
        for x in range(n):
            for y in range(n):
                idx = list(rest)
                for slot, v in sorted(((a, x), (b, y))):
                    idx.insert(slot, v)
                acc = acc + J[y][x] * t(*idx)
        coeffs[rest] = acc
    return Tensor(n, t.rank - 2, coeffs)


def _weighted_matrices():
    """Four matrices whose entries are: rational with denominators (a product
    of Givens rotations), in Q(sqrt 3), in Q[q], and integers beside
    non-integer rationals."""
    r3, q, h = Scalar.root(3), Scalar.parameter("q"), R(scalars.Fraction(1, 2))
    sqrt3 = [[h, h * r3, ZERO, ZERO], [-h * r3, h, ZERO, ZERO],
             [ZERO, ZERO, ZERO, ONE], [ZERO, ZERO, -ONE, R(2)]]
    param = [[ZERO, q, ZERO, ZERO], [-q, ZERO, ZERO, R(scalars.Fraction(1, 3))],
             [ZERO, ZERO, R(3), ONE], [ZERO, R(scalars.Fraction(-1, 3)), q * q - ONE, ZERO]]
    mixed = [[R(2), R(scalars.Fraction(1, 3)), ZERO, ZERO],
             [-ONE, ZERO, R(scalars.Fraction(3, 4)), ZERO],
             [ZERO, ZERO, ZERO, ONE], [ZERO, R(5), -ONE, R(scalars.Fraction(-5, 6))]]
    return {"rotation": audit.random_rotation(4, random.Random(5), 4),
            "sqrt3": sqrt3, "parameter": param, "mixed": mixed}


WEIGHTED = _weighted_matrices()


def test_weighted_matrices_scale_by_the_lcm_of_their_rational_denominators():
    dens = {name: Endomorphism(M).den for name, M in WEIGHTED.items()}
    assert dens["sqrt3"] == 2 and dens["parameter"] == 3 and dens["mixed"] == 12
    assert dens["rotation"] > 1
    for name, M in WEIGHTED.items():
        J = Endomorphism(M)
        assert J.signed_perm is None
        for m, row in enumerate(J.rows):
            for j, (w, n) in row.items():
                weight = M[m][j] * R(J.den)
                if weight.is_rational():
                    assert w is None and n == scalars.Fraction(*weight.ratio())
                else:
                    assert w == weight and n == 1


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(WEIGHTED)), st.integers(2, 4).flatmap(lambda r: sparse_tensors(4, r)))
def test_weighted_J_kernels_match_dense_loops(name, t):
    J = Endomorphism(WEIGHTED[name])
    single = [dense_apply_J(t, J, slot) for slot in range(t.rank)]
    for slot in range(t.rank):
        assert t.apply_J(slot, J) == single[slot]
    combine = multilinear._combine
    for a, b in itertools.permutations(range(t.rank), 2):
        assert combine((1, t, (a, b)), J=J) == ref_rotate_twice(t, J, a, b)
        assert combine((1, t, (a,)), (1, t, (b,)), J=J) == single[a] + single[b]
        assert combine((1, t, (a,)), (-1, t, (b,)), J=J) == single[a] - single[b]
        for increasing in (False, True):
            assert t.trace_J(a, b, J, increasing) == dense_trace_J(t, J, a, b, increasing)


def test_apply_J_refuses_to_act_twice_on_one_slot():
    S = get("example-5.4").build()
    with pytest.raises(multilinear.GeometryError, match="J acts twice on slot 1"):
        multilinear._combine((1, S.L.C, (1, 1)), J=S.J)


# -- J inside the accumulator: fused forms against the two-step ones ------------


def ref_combine(terms, J) -> Tensor:
    """A copy of each rotated term first, by the one-slot loop on each of its
    slots, then ``_combine`` of plain terms."""
    copies = []
    for c, t, *slots in terms:
        for slot in slots[0] if slots else ():
            t = ref_apply_J(t, J, slot)
        copies.append((c, t))
    return multilinear._combine(*copies)


def ref_domega_from_torsion(S, xi: Tensor) -> Form:
    """J_(3) xi copied, its entries summed onto the sorted triple of each even
    order, and the form scaled by -2."""
    acc = Accumulator()
    for idx, v in xi.apply_J(2, S.J).coeffs.items():
        key, sign = sort_with_sign(idx)
        if sign == 1:
            acc.add(key, v)
    out = Form(S.L.dim, 3)
    out.coeffs = acc.result()
    return out.scaled(-2)


def _mixed(name: str):
    S = get(name).build()
    d = S.L.dim
    return audit.rotated_structure(S, random.Random(13), "mixed", factors=d * (d - 1) // 2)


FUSED = (
    [(e.name, e.build) for e in ENTRIES]
    + [(f"{e.name}-mixed", lambda name=e.name: _mixed(name)) for e in ENTRIES]
    + [(doc["name"], lambda doc=doc: structure_from_data(doc)) for doc in generate.documents(7)]
    + [(ident, lambda first=first, second=second: structure_from_data(
        direct_sum(get(first).document, get(second).document)))
       for (first, second, *_), ident in zip(SUM_AUDITS, SUM_IDS)]
)


@pytest.fixture(scope="module", params=FUSED, ids=[name for name, _ in FUSED])
def fused(request):
    return audit.Bundle(analyze(request.param[1]()))


def test_fused_cases_cover_signed_permutations_and_irrational_weights():
    kinds = {name: build().J for name, build in FUSED[:10]}
    assert kinds["example-5.1"].signed_perm is not None
    # example-5.4's J has sqrt 3 entries: the product path of every kernel
    assert any(w is not None for row in kinds["example-5.4"].rows for w, _ in row.values())
    assert all(kinds[f"{e.name}-mixed"].signed_perm is None for e in ENTRIES)


def test_rotated_terms_of_a_combination_match_the_apply_J_copies(fused):
    S, A, J = fused.S, fused.A, fused.S.J
    q = Scalar.parameter("q")
    tensors = [fused.xi, S.L.C, A.nabla.gamma, fused.curv.ric_star, fused.Dxi4vec,
               fused.omega_t, fused.g, A.domega.to_tensor()]
    for t in tensors:
        singles = [(scalars.Fraction(2, 3), t, (s,)) for s in range(t.rank)]
        pairs = [(scalars.Fraction(-1, 4), t, ab)
                 for ab in itertools.permutations(range(t.rank), 2)]
        for terms in ([(1, t)] + singles, [(R(scalars.Fraction(1, 4)), t)] + pairs,
                      [(ONE + q * q, t)] + singles + pairs):
            assert multilinear._combine(*terms, J=J).coeffs == ref_combine(terms, J).coeffs


def test_pair_kernel_matches_the_pair_of_the_rotated_copy(fused):
    J = fused.S.J
    parts = [fused.xi, fused.xi1, fused.xi2, fused.xi3]
    for a, c in itertools.product(parts, repeat=2):
        # b(..., J e_i, ...) is -J_(slot) b
        assert fused.pairJ(a, c).coeffs == (-_pair_xi(a, c.apply_J(1, J))).coeffs
        assert fused.pairE_J(a, c).coeffs == (-_pair_xi(a, c.apply_J(0, J), 0)).coeffs


def test_domega_reconstruction_matches_the_sorted_apply_J_copy(fused):
    for xi in (fused.xi, fused.xi1, fused.xi3, fused.xi4):
        want = ref_domega_from_torsion(fused.S, xi)
        assert domega_from_torsion(fused.S, xi).coeffs == want.coeffs
    assert domega_from_torsion(fused.S, fused.xi) == fused.A.domega


def test_a_rotated_term_refuses_a_coefficient_that_is_not_rational():
    S = get("example-5.4").build()
    with pytest.raises(multilinear.GeometryError, match="rational coefficient"):
        multilinear._combine((1, S.L.C), (Scalar.parameter("q"), S.L.C, (0,)), J=S.J)


# -- equal operands ------------------------------------------------------------


def test_difference_of_equal_operands_is_empty_and_stores_no_zero(bundle):
    for t in (bundle.xi, bundle.curv.Rm, bundle.omega_t):
        copy = Tensor(t.dim, t.rank, dict(t.coeffs))
        for diff in (t - t, t - copy):
            assert diff.coeffs == {} and diff.rank == t.rank and diff.is_zero()
    for alpha in (bundle.S.omega, bundle.curv.rho, bundle.A.domega):
        copy = Form(alpha.dim, alpha.rank, dict(alpha.coeffs))
        for diff in (alpha - alpha, alpha - copy):
            assert diff.coeffs == {} and diff.rank == alpha.rank and diff.is_zero()


def test_difference_of_unequal_operands_sums_every_entry():
    a = Tensor(4, 2, {(0, 1): R(1), (2, 3): R(2)})
    b = Tensor(4, 2, {(0, 1): R(1), (1, 2): R(5)})
    assert (a - b).coeffs == {(2, 3): R(2), (1, 2): R(-5)}
    f, g = Form(4, 2, {(0, 1): R(3)}), Form(4, 2, {(0, 1): R(3), (1, 3): R(1)})
    assert (f - g).coeffs == {(1, 3): R(-1)}


@pytest.mark.parametrize("name", ["example-5.2", "example-5.4", "nearly-kaehler-s3s3"])
def test_corrupted_operand_keeps_the_old_witness(name):
    # pinned from the implementation that subtracted equal operands entry by
    # entry: the residuals that now cancel without arithmetic still report
    # the corrupted entry when one operand is off
    A = analyze(get(name).build())
    Rm = A.curvature.minimal.Rm
    A.curvature.minimal.Rm = Tensor(Rm.dim, 4, {**Rm.coeffs, (0, 1, 2, 3): Rm(0, 1, 2, 3) + R(2)})
    assert audit.witness(audit.check_r33(audit.Bundle(A))) == "entry (1,2,3,4): -2"
    A = analyze(get(name).build())
    A.curvature.rho = A.curvature.rho + Form(A.curvature.rho.dim, 2, {(0, 1): R(1)})
    assert (audit.witness(audit.check_p46ii(audit.Bundle(A)))
            == "star Ricci against the first Ricci form: entry (1, 2): -1")
    A = analyze(get(name).build())
    A.curvature.r = A.curvature.r + Form(A.curvature.r.dim, 2, {(1, 3): R(-3)})
    assert (audit.witness(audit.check_p46ii(audit.Bundle(A)))
            == "the two Ricci forms disagree: entry (2, 4): 3")


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
    # the bundle adds the traces of each D^min xi_k, D theta and the curvature
    # gap; D^min xi, which the bundle never builds, is built here
    return [b.A, b, chern.gamma, b.A.minimal.covariant_derivative(b.xi),
            b.trace1, b.trace2, b.trace3, b.trace4,
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
    skew_ok = Tensor(xi.dim, 3, {
        **xi.coeffs, (0, 0, 1): xi(0, 0, 1) + R(1), (0, 1, 0): xi(0, 1, 0) - R(1)})
    msg = "xi does not anticommute with J in the target slot"
    assert check_torsion_tensor(S, skew_ok) == msg
    assert ref_check_torsion_tensor(S, skew_ok) == msg
    not_skew = Tensor(xi.dim, 3, {**xi.coeffs, (0, 1, 2): xi(0, 1, 2) + R(1)})
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
    # witnesses pinned from the dense-loop implementation of R3.3 and E3.1,
    # which added 2 to D^min xi at ``key``; that entry reaches the curvature
    # gap at its (a, c)-sorted key, negated when a > c
    b = audit.Bundle(analyze(get(name).build()))
    assert audit.witness(audit.check_r33(b)) is None
    assert audit.witness(audit.check_e31(b)) is None
    b = audit.Bundle(b.A)
    a, c, k, l = key
    gap_key, amount = ((a, c, k, l), R(2)) if a < c else ((c, a, k, l), R(-2))
    gap = b.curvature_gap
    b.curvature_gap = Tensor(gap.dim, 4, {**gap.coeffs, gap_key: gap(*gap_key) + amount})
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

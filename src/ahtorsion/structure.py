"""Almost Hermitian structures on Lie algebras and their natural connections.

The structure is always reduced to an orthonormal frame first (a general
constant metric is orthonormalized exactly or rejected), so the metric is the
identity throughout and musical isomorphisms act on raw components.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from .multilinear import (
    Form,
    GeometryError,
    LieAlgebra,
    Matrix,
    Tensor,
    mat_inverse,
    _stored_rows,
    gram_schmidt,
    sort_with_sign,
)
from .scalars import HALF, ONE, ZERO, Accumulator, Fraction, Scalar


class StructureError(GeometryError):
    pass


def transform_form(alpha: Form, M: Matrix) -> Form:
    """Express a form in the frame f_a = sum_j M[a][j] e_j (as coefficients on f)."""
    n = alpha.dim
    p = alpha.degree
    out = Form(n, p)
    for target in itertools.combinations(range(n), p):
        acc = ZERO
        for src, val in alpha.coeffs.items():
            # minor determinant of M on rows `target`, columns `src`
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


def transform_algebra(L: LieAlgebra, M: Matrix) -> LieAlgebra:
    """Structure constants in the frame f_a = sum_j M[a][j] e_j."""
    n = L.dim
    rows, inv = _stored_rows(M), _stored_rows(mat_inverse(M))
    acc = Accumulator()
    for a in range(n):
        for b in range(a + 1, n):
            for i, x in rows[a]:
                for j, y in rows[b]:
                    for k, v in L.bracket(i, j).items():
                        w = x * y * v
                        for c, u in inv[k]:
                            acc.add((a, b, c), w, u)
    brackets: Dict[Tuple[int, int], Dict[int, Scalar]] = {}
    for (a, b, c), v in acc.result().items():
        brackets.setdefault((a, b), {})[c] = v
    return LieAlgebra(n, brackets, extension_d=L.extension_d, parameters=L.parameters)


class AlmostHermitianStructure:
    """(g, omega, J) on a Lie algebra, in an orthonormal frame."""

    def __init__(
        self,
        L: LieAlgebra,
        omega: Form,
        J: Matrix,
        vol: Form,
        psi_plus: Optional[Form] = None,
        psi_minus: Optional[Form] = None,
        name: str = "",
    ):
        self.L = L
        self.omega = omega
        self.J = J
        self.vol = vol
        self.psi_plus = psi_plus
        self.psi_minus = psi_minus
        self.name = name
        self.n = L.dim // 2

    # -- J action helpers ------------------------------------------------

    def J_vec(self, v: Sequence[Scalar]) -> List[Scalar]:
        n = self.L.dim
        return [
            sum((self.J[i][j] * v[j] for j in range(n) if not v[j].is_zero()), ZERO)
            for i in range(n)
        ]

    def J_oneform(self, alpha: Form) -> Form:
        """(J a)(X) = -a(JX)."""
        if alpha.degree != 1:
            raise StructureError("J_oneform expects a 1-form")
        n = self.L.dim
        out = Form(n, 1)
        for k in range(n):
            acc = ZERO
            for m in range(n):
                v = alpha.coeffs.get((m,))
                if v is not None and not self.J[m][k].is_zero():
                    acc = acc - v * self.J[m][k]
            if not acc.is_zero():
                out.coeffs[(k,)] = acc
        return out

    def rotate_two_form(self, alpha: Form) -> Form:
        """alpha(J., J.) as a 2-form."""
        if alpha.degree != 2:
            raise StructureError("rotate_two_form expects a 2-form")
        t = alpha.to_tensor().apply_J(0, self.J).apply_J(1, self.J)
        return t.antisymmetrize_to_form()

    def rotate_bilinear(self, b: Tensor) -> Tensor:
        """b(J., J.)."""
        return b.apply_J(0, self.J).apply_J(1, self.J)


def kaehler_volume(omega: Form, n: int) -> Form:
    """Vol = (-1)^(n(n+1)/2) omega^n / n!."""
    acc = omega
    fact = 1
    for k in range(2, n + 1):
        acc = acc.wedge(omega)
        fact *= k
    sign = -1 if (n * (n + 1) // 2) % 2 else 1
    return acc.scaled(Scalar.rational(Fraction(sign, fact)))


def build_structure(
    L: LieAlgebra,
    omega: Form,
    metric: Optional[Matrix] = None,
    psi_plus: Optional[Form] = None,
    name: str = "",
) -> AlmostHermitianStructure:
    """Validate and assemble the almost Hermitian structure.

    ``metric`` is None for the identity (the basis is declared orthonormal);
    otherwise it is orthonormalized exactly and every piece of data is
    rewritten in the new frame.  The Jacobi identity is checked first, in the
    basis given, so its witness names the caller's (1-based) indices.
    """
    n2 = L.dim
    ok, witness = L.jacobi_check()
    if not ok:
        raise StructureError(
            f"Jacobi identity fails at indices {tuple(i + 1 for i in witness)}"
        )
    if metric is not None:
        P = gram_schmidt(metric, L.extension_d)
        L = transform_algebra(L, P)
        omega = transform_form(omega, P)
        if psi_plus is not None:
            psi_plus = transform_form(psi_plus, P)

    # J recovered by raising: in the orthonormal frame J^i_j = omega(e_i, e_j)
    J: Matrix = [[ZERO] * n2 for _ in range(n2)]
    for (i, j), v in omega.coeffs.items():
        J[i][j] = v
        J[j][i] = -v

    # J^2 = -Id, scattered from the stored entries.  J is skew (J^T = -J), so
    # J^T J = -J^2 and this one test also gives <JX, JY> = <X, Y>.
    rows = _stored_rows(J)
    minus_one = {(i, i): -ONE for i in range(n2)}
    acc = Accumulator()
    for i, row in enumerate(rows):
        for m, a in row:
            for j, b in rows[m]:
                acc.add((i, j), a, b)
    if acc.result() != minus_one:
        raise StructureError(
            "omega does not define an almost complex structure (J^2 != -Id)"
        )

    n = n2 // 2
    vol = kaehler_volume(omega, n)
    from .multilinear import volume_coefficient

    volume_coefficient(vol)  # raises if degenerate

    S = AlmostHermitianStructure(L, omega, J, vol, name=name)
    if psi_plus is not None:
        S.psi_minus = su_partner(S, psi_plus)
        S.psi_plus = psi_plus
    return S


def su_partner(S: AlmostHermitianStructure, psi_plus: Form) -> Form:
    """psi_- = J_(1) psi_+, once psi_+ + i psi_- is validated as a complex volume form."""
    n = S.n
    if psi_plus.degree != n:
        raise StructureError(f"psi_plus must have degree {n}")
    try:
        psi_minus = psi_plus.to_tensor().apply_J(0, S.J).antisymmetrize_to_form()
    except GeometryError as exc:
        raise StructureError(f"J_(1) psi_plus is not a form: {exc}") from exc
    if n == 2:
        # psi+ ^ psi+ = psi- ^ psi- = -2 Vol and psi+ ^ psi- = 0
        want = S.vol.scaled(Scalar.rational(-2))
        if psi_plus.wedge(psi_plus) != want or psi_minus.wedge(psi_minus) != want:
            raise StructureError("psi_plus fails the volume relation psi^2 = -2 Vol")
        if not psi_plus.wedge(psi_minus).is_zero():
            raise StructureError("psi_plus ^ psi_minus must vanish")
    elif n == 3:
        if psi_plus.wedge(psi_minus).scaled(Scalar.rational(Fraction(-1, 4))) != S.vol:
            raise StructureError("psi fails the volume relation -1/4 psi+ ^ psi- = Vol")
    else:
        raise StructureError("SU data is supported for n = 2 and n = 3 only")
    return psi_minus


class Connection:
    """Metric-frame connection coefficients Gamma_ijk = <D_{e_i} e_j, e_k>."""

    def __init__(self, dim: int, gamma: Tensor, kind: str = "custom"):
        if gamma.rank != 3 or gamma.dim != dim:
            raise StructureError("connection coefficients must form a rank-3 tensor")
        self.dim = dim
        self.gamma = gamma
        self.kind = kind

    def is_metric(self) -> bool:
        return self.gamma.is_antisymmetric_pair(1, 2)

    def derive_vector(self, i: int, v: Sequence[Scalar]) -> List[Scalar]:
        """D_{e_i} of an invariant vector field with constant components."""
        out = [ZERO] * self.dim
        for j in range(self.dim):
            if v[j].is_zero():
                continue
            for k in range(self.dim):
                w = self.gamma(i, j, k)
                if not w.is_zero():
                    out[k] = out[k] + v[j] * w
        return out

    def torsion(self, L: LieAlgebra) -> Tensor:
        """T_ijk = <D_{e_i} e_j - D_{e_j} e_i - [e_i, e_j], e_k>."""
        acc = Accumulator()
        for (i, j, k), v in self.gamma.coeffs.items():
            acc.add((i, j, k), v)
            acc.add((j, i, k), v, sign=-1)
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                for k, v in L.bracket(i, j).items():
                    acc.add((i, j, k), v, sign=-1)
                    acc.add((j, i, k), v)
        return Tensor(self.dim, 3, acc.result())

    def covariant_derivative(self, t: Tensor) -> Tensor:
        """(Dt)_{i, j_1..j_s} for an invariant covariant tensor (constant components)."""
        # (Dt)_{i,K} = -sum_a sum_j Gamma_{i, K_a, j} t_{K[a -> j]}, scattered from
        # each stored entry of t against the Gamma entries ending in its index.
        by_last = self.gamma.group_by(2)
        acc = Accumulator()
        add = acc.add
        for idx, v in t.coeffs.items():
            for slot, m in enumerate(idx):
                for (i, j, _), g in by_last.get((m,), ()):
                    add((i,) + idx[:slot] + (j,) + idx[slot + 1 :], g, v, -1)
        return Tensor(self.dim, t.rank + 1, acc.result())

    def derive_endomorphism(self, A: Matrix) -> List[Matrix]:
        """(D_{e_i} A)^k_j for an invariant endomorphism; list indexed by i."""
        # (D_i A)^k_j = sum_m A^m_j Gamma_imk - Gamma_ijm A^k_m, scattered from
        # the stored Gamma entries.
        n = self.dim
        rows, cols = _stored_rows(A), _stored_rows(list(zip(*A)))
        acc = Accumulator()
        for (i, a, b), g in self.gamma.coeffs.items():
            for j, w in rows[a]:
                acc.add((i, b, j), w, g)
            for k, w in cols[b]:
                acc.add((i, k, a), g, w, -1)
        result: List[Matrix] = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
        for (i, k, j), v in acc.result().items():
            result[i][k][j] = v
        return result


def nijenhuis(S: AlmostHermitianStructure) -> Tensor:
    """N(X, Y) = [X, Y] + J[JX, Y] + J[X, JY] - [JX, JY], as N_ijk = <N(e_i,e_j), e_k>."""
    n = S.L.dim
    out = Tensor(n, 3)
    basis = [[ONE if a == b else ZERO for a in range(n)] for b in range(n)]
    for i in range(n):
        Ji = [S.J[a][i] for a in range(n)]
        for j in range(i + 1, n):
            Jj = [S.J[a][j] for a in range(n)]
            term = S.L.bracket_vectors(basis[i], basis[j])
            term2 = S.J_vec(S.L.bracket_vectors(Ji, basis[j]))
            term3 = S.J_vec(S.L.bracket_vectors(basis[i], Jj))
            term4 = S.L.bracket_vectors(Ji, Jj)
            for k in range(n):
                v = term[k] + term2[k] + term3[k] - term4[k]
                if not v.is_zero():
                    out.set((i, j, k), v)
                    out.set((j, i, k), -v)
    return out


def levi_civita(S: AlmostHermitianStructure) -> Connection:
    """Koszul in an orthonormal invariant frame:
    2 Gamma_ijk = c_ijk - c_jki + c_kij with c_ijk = <[e_i, e_j], e_k>."""
    n = S.L.dim
    acc = Accumulator()
    # each structure constant c_pqr = v lands in Gamma_pqr, Gamma_rpq and Gamma_qrp
    for p in range(n):
        for q in range(n):
            for r, v in S.L.bracket(p, q).items():
                acc.add((p, q, r), HALF, v)
                acc.add((r, p, q), HALF, v, -1)
                acc.add((q, r, p), HALF, v)
    return Connection(n, Tensor(n, 3, acc.result()), kind="levi_civita")


def intrinsic_torsion(S: AlmostHermitianStructure, nabla: Connection) -> Tensor:
    """xi_X = -1/2 J (nabla_X J), as the 3-tensor xi_ijk = <xi_{e_i} e_j, e_k>."""
    if nabla.kind != "levi_civita":
        raise StructureError("intrinsic torsion must be taken from Levi-Civita")
    n = S.L.dim
    dJ = nabla.derive_endomorphism(S.J)
    # xi_ijk = sum_m (-1/2 J_km) (D_i J)^m_j
    cols = _stored_rows([[-HALF * w for w in col] for col in zip(*S.J)])
    acc = Accumulator()
    for i, A in enumerate(dJ):
        for m, row in enumerate(A):
            for j, a in enumerate(row):
                if a:
                    for k, w in cols[m]:
                        acc.add((i, j, k), w, a)
    return Tensor(n, 3, acc.result())


def check_torsion_tensor(S: AlmostHermitianStructure, xi: Tensor) -> Optional[str]:
    """Both membership invariants of an intrinsic-torsion tensor; None when fine."""
    if not xi.is_antisymmetric_pair(1, 2):
        return "xi_ijk is not antisymmetric in the last two slots"
    # J xi_X Y + xi_X (JY) = 0  <=>  sum_m xi_ijm J_km + J_mj xi_imk = 0, scattered
    # from each stored entry xi_iab as the first term (j = a) and the second (k = b)
    rows, cols = _stored_rows(S.J), _stored_rows(list(zip(*S.J)))
    acc = Accumulator()
    for (i, a, b), v in xi.coeffs.items():
        for k, w in cols[b]:
            acc.add((i, a, k), v, w)
        for j, w in rows[a]:
            acc.add((i, j, b), w, v)
    if acc.result():
        return "xi does not anticommute with J in the target slot"
    return None


def minimal_connection(
    S: AlmostHermitianStructure, nabla: Connection, xi: Tensor
) -> Connection:
    """nabla + xi; the audit's F3 checks that it is metric and parallelizes omega and J."""
    return Connection(S.L.dim, nabla.gamma + xi, kind="minimal")


def chern_connection(
    S: AlmostHermitianStructure, nabla: Connection, xi: Tensor
) -> Tuple[Connection, bool]:
    """Chern connection nabla + xi^h; flag says whether it is a U(n)-connection."""
    n = S.L.dim
    # xi^h_ijk = xi_ijk + xi_jik - xi_kij; each stored xi_abc = v lands in three places
    acc = Accumulator()
    for (a, b, c), v in xi.coeffs.items():
        acc.add((a, b, c), v)
        acc.add((b, a, c), v)
        acc.add((b, c, a), v, sign=-1)
    conn = Connection(n, nabla.gamma + Tensor(n, 3, acc.result()), kind="chern")
    dJ = conn.derive_endomorphism(S.J)
    is_unitary = all(
        all(all(entry.is_zero() for entry in row) for row in mat) for mat in dJ
    ) and conn.is_metric()
    return conn, is_unitary

"""Almost Hermitian structures on Lie algebras and their natural connections.

The structure is always reduced to an orthonormal frame first (a general
constant metric is orthonormalized exactly or rejected), so the metric is the
identity throughout and musical isomorphisms act on raw components.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .multilinear import (
    Endomorphism,
    Form,
    GeometryError,
    LieAlgebra,
    Matrix,
    Tensor,
    _combine,
    gram_schmidt,
    metric_tensor,
    transform_algebra,
)
from .scalars import HALF, ONE, Accumulator, Fraction, Scalar


class StructureError(GeometryError):
    pass


def transform_form(alpha: Form, M: Matrix) -> Form:
    """Express a form in the frame f_a = sum_j M[a][j] e_j (as coefficients on f).

    e^s = sum_a M[a][s] f^a, so each stored e^K is the wedge of the 1-forms
    of its indices, and alpha sums those wedges.
    """
    n = alpha.dim
    columns = [Form(n, 1, {(a,): M[a][s] for a in range(n) if M[a][s]}) for s in range(n)]
    acc = Accumulator()
    for K, v in alpha.coeffs.items():
        e_K = Form(n, 0, {(): ONE})
        for s in K:
            e_K = e_K.wedge(columns[s])
        for key, w in e_K.coeffs.items():
            acc.add(key, v, w)
    return Form.of_nonzero(n, alpha.rank, acc.result())


class AlmostHermitianStructure:
    """(g, omega, J) on a Lie algebra, in an orthonormal frame."""

    def __init__(
        self,
        L: LieAlgebra,
        omega: Form,
        J: Endomorphism,
        psi_plus: Optional[Form] = None,
        psi_minus: Optional[Form] = None,
        name: str = "",
    ):
        self.L = L
        self.omega = omega
        self.J = J
        self.psi_plus = psi_plus
        self.psi_minus = psi_minus
        self.name = name
        self.n = L.dim // 2

    def J_oneform(self, alpha: Form) -> Form:
        """(J a)(X) = -a(JX)."""
        if alpha.rank != 1:
            raise StructureError("J_oneform expects a 1-form")
        return alpha.to_tensor().apply_J(0, self.J).antisymmetrize_to_form()


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
        P, inverse = gram_schmidt(metric, L.extension_d)
        L = transform_algebra(L, P, inverse)
        omega = transform_form(omega, P)
        if psi_plus is not None:
            psi_plus = transform_form(psi_plus, P)

    # J recovered by raising: in the orthonormal frame J^i_j = omega(e_i, e_j)
    Jt = omega.to_tensor()
    J = Endomorphism([[Jt(i, j) for j in range(n2)] for i in range(n2)])

    # J^2 = -Id: J_(1) of J as a tensor is -J^T J.  J is skew (J^T = -J), so
    # J^T J = -J^2 and this one test also gives <JX, JY> = <X, Y>.
    if Jt.apply_J(0, J) != -metric_tensor(n2):
        raise StructureError(
            "omega does not define an almost complex structure (J^2 != -Id)"
        )

    S = AlmostHermitianStructure(L, omega, J, name=name)
    if psi_plus is not None:
        S.psi_minus = su_partner(S, psi_plus)
        S.psi_plus = psi_plus
    return S


def su_partner(S: AlmostHermitianStructure, psi_plus: Form) -> Form:
    """psi_- = J_(1) psi_+, once psi_+ + i psi_- is validated as a complex volume form."""
    n = S.n
    if psi_plus.rank != n:
        raise StructureError(f"psi_plus must have degree {n}")
    # J_(1) psi_+ is a form exactly when psi_+ has type (n,0)+(0,n)
    rotated = psi_plus.to_tensor().apply_J(0, S.J)
    psi_minus = rotated.antisymmetrize_to_form()
    if psi_minus.to_tensor() != rotated:
        raise StructureError("J_(1) psi_plus is not a form: tensor is not antisymmetric")
    # the volume relations, stated against omega: Vol = (-1)^(n(n+1)/2) omega^n / n!
    omega = S.omega
    if n == 2:
        # psi+ ^ psi+ = psi- ^ psi- = -2 Vol = omega ^ omega and psi+ ^ psi- = 0
        want = omega.wedge(omega)
        if psi_plus.wedge(psi_plus) != want or psi_minus.wedge(psi_minus) != want:
            raise StructureError("psi_plus fails the volume relation psi^2 = -2 Vol")
        if not psi_plus.wedge(psi_minus).is_zero():
            raise StructureError("psi_plus ^ psi_minus must vanish")
    elif n == 3:
        # -1/4 psi+ ^ psi- = Vol = omega^3 / 6, that is -3/2 psi+ ^ psi- = omega^3
        if (psi_plus.wedge(psi_minus).scaled(Scalar.rational(Fraction(-3, 2)))
                != omega.wedge(omega).wedge(omega)):
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

    def torsion(self, L: LieAlgebra) -> Tensor:
        """T_ijk = <D_{e_i} e_j - D_{e_j} e_i - [e_i, e_j], e_k>."""
        return self.gamma - self.gamma.transpose((1, 0, 2)) - L.C

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
        return Tensor.of_nonzero(self.dim, t.rank + 1, acc.result())

    def covariant_trace(self, t: Tensor, slot: int) -> Tensor:
        """sum_i (D_{e_i} t)(..., e_i in ``slot``, ...): the covariant derivative
        traced against one slot of t, the other slots kept in order, without
        building Dt.  It equals ``covariant_derivative(t).contract(0, slot + 1)``.
        """
        if not t.coeffs:
            # most torsion components of a structure vanish: skip grouping Gamma
            return Tensor.of_nonzero(self.dim, t.rank - 1, {})
        # Of the terms -Gamma_{i, K_a, j} t_{K[a -> j]} of (Dt)_{i,K}, the one
        # rewriting ``slot`` lands on the trace through the diagonal
        # Gamma_{j, j, m}, summed over j once; one rewriting another slot a
        # lands on it when i is the index in ``slot``, through the Gamma
        # entries grouped by their first and last index.
        acc = Accumulator()
        for (i, j, m), g in self.gamma.coeffs.items():
            if i == j:
                acc.add(m, g)
        diag = acc.result()
        by_ends = self.gamma.group_by(0, 2)
        acc = Accumulator()
        add = acc.add
        for idx, v in t.coeffs.items():
            c = idx[slot]
            rest = idx[:slot] + idx[slot + 1 :]
            g = diag.get(c)
            if g is not None:
                add(rest, g, v, -1)
            for a, m in enumerate(rest):
                for (_, j, _), g in by_ends.get((c, m), ()):
                    add(rest[:a] + (j,) + rest[a + 1 :], g, v, -1)
        return Tensor.of_nonzero(self.dim, t.rank - 1, acc.result())

    def derive_endomorphism(self, A: Endomorphism) -> Tensor:
        """(i, k, j) -> (D_{e_i} A)^k_j for an invariant skew endomorphism A,
        such as J.

        (D_i A)^k_j = sum_m A^m_j Gamma_imk - Gamma_ijm A^k_m, which for skew A
        is -(A_(2) Gamma + A_(3) Gamma)_ijk, A acting as in ``apply_J``.
        """
        return _combine((-1, self.gamma, (1,)), (-1, self.gamma, (2,)), J=A).transpose((0, 2, 1))


def nijenhuis(S: AlmostHermitianStructure) -> Tensor:
    """N(X, Y) = [X, Y] + J[JX, Y] + J[X, JY] - [JX, JY], as N_ijk = <N(e_i,e_j), e_k>."""
    # with C_ijk = <[e_i, e_j], e_k>: <J[JX, Y], Z> = -C(JX, Y, JZ), which is
    # -(J_(1) J_(3) C)(X, Y, Z), and likewise for the other three terms
    C = S.L.C
    return _combine((1, C), *((-1, C, ab) for ab in ((0, 2), (1, 2), (0, 1))), J=S.J)


def levi_civita(S: AlmostHermitianStructure) -> Connection:
    """Koszul in an orthonormal invariant frame:
    2 Gamma_ijk = c_ijk - c_jki + c_kij with c_ijk = <[e_i, e_j], e_k>."""
    C = S.L.C
    gamma = (C - C.transpose((1, 2, 0)) + C.transpose((2, 0, 1))).scaled(HALF)
    return Connection(S.L.dim, gamma, kind="levi_civita")


def intrinsic_torsion(S: AlmostHermitianStructure, nabla: Connection) -> Tensor:
    """xi_X = -1/2 J (nabla_X J), as the 3-tensor xi_ijk = <xi_{e_i} e_j, e_k>."""
    if nabla.kind != "levi_civita":
        raise StructureError("intrinsic torsion must be taken from Levi-Civita")
    # xi_ijk = -1/2 sum_m J_km (D_i J)^m_j = 1/2 (J_(3) (J_(2) + J_(3)) Gamma)_ijk
    # by ``derive_endomorphism``, that is 1/2 (J_(2) J_(3) Gamma - Gamma)_ijk
    return _combine((HALF, nabla.gamma, (1, 2)), (-HALF, nabla.gamma), J=S.J)


def check_torsion_tensor(S: AlmostHermitianStructure, xi: Tensor) -> Optional[str]:
    """Both membership invariants of an intrinsic-torsion tensor; None when fine."""
    if not xi.is_antisymmetric_pair(1, 2):
        return "xi_ijk is not antisymmetric in the last two slots"
    # J xi_X Y + xi_X (JY) = 0  <=>  sum_m xi_ijm J_km + J_mj xi_imk = 0, that is
    # J_(2) xi = J_(3) xi, tested as one signed sum
    if not _combine((1, xi, (1,)), (-1, xi, (2,)), J=S.J).is_zero():
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
    conn = Connection(n, nabla.gamma + Tensor.of_nonzero(n, 3, acc.result()), kind="chern")
    return conn, conn.derive_endomorphism(S.J).is_zero() and conn.is_metric()

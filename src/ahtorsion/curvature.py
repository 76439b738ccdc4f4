"""Curvature of the natural connections and its U(n)-decomposition.

The curvature operator convention is R(X, Y) = D_[X,Y] - [D_X, D_Y], so that
Ric(X, Y) = <R(X, e_i) Y, e_i> is the usual Ricci tensor (negative on the
solvable examples).  All three natural connections (Levi-Civita, minimal and
Chern) are handled by the same routines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .decomposition import (
    BilinearSplit,
    DThetaReport,
    GHClass,
    TorsionDecomposition,
    classify,
    dtheta_report,
    lee_form,
    split_bilinear,
    split_torsion,
)
from .multilinear import (
    Form,
    LieAlgebra,
    Tensor,
    _combine,
    codifferential,
    exterior_derivative,
    hodge_star,
)
from .scalars import HALF, ONE, ZERO, Accumulator, Fraction, Scalar, scalar_sqrt
from .structure import (
    AlmostHermitianStructure,
    Connection,
    StructureError,
    chern_connection,
    intrinsic_torsion,
    levi_civita,
    minimal_connection,
    nijenhuis,
    su_partner,
)


class CurvatureError(StructureError):
    pass


_MINUS_HALF = -HALF


def riemann(L: LieAlgebra, conn: Connection) -> Tensor:
    """Rm_ijkl = <R(e_i, e_j) e_k, e_l> for an invariant metric connection.

    On invariant fields R(X, Y) = D_[X,Y] - [D_X, D_Y] reduces to structure
    constants against connection coefficients:

        Rm_ijkl = sum_m c^m_ij Gamma_mkl - Gamma_jkm Gamma_iml + Gamma_ikm Gamma_jml,

    scattered from the stored Gamma entries.  The skew symmetry in (k, l)
    follows from a metric connection; the audit's F2 owns it for the
    Levi-Civita curvature, with the pair symmetry and first Bianchi identity.
    """
    n = L.dim
    by_first = conn.gamma.group_by(0)
    by_head = conn.gamma.group_by(0, 1)
    acc = Accumulator()
    add = acc.add
    for i in range(n):
        for j in range(i + 1, n):
            for m, c in L.bracket(i, j).items():
                for (_, k, l), g in by_first.get((m,), ()):
                    add((i, j, k, l), c, g)
            for (_, k, m), g in by_first.get((j,), ()):
                for (_, _, l), h in by_head.get((i, m), ()):
                    add((i, j, k, l), g, h, -1)
            for (_, k, m), g in by_first.get((i,), ()):
                for (_, _, l), h in by_head.get((j, m), ()):
                    add((i, j, k, l), g, h)
    coeffs = acc.result()
    coeffs.update({(j, i, k, l): -v for (i, j, k, l), v in coeffs.items()})
    return Tensor.of_nonzero(n, 4, coeffs)


def ricci_pair(S: AlmostHermitianStructure, Rm: Tensor) -> Tuple[Tensor, Tensor]:
    """(Ric, Ric*) with Ric*(X, Y) = <R(X, e_i) JY, Je_i>.

    Ric*_jk = sum_{i,l,m} Rm_jiml J_li J_mk: the (i, l) J-trace first, then
    (X, Y) -> b(X, JY), which is -J_(2) b.
    """
    return Rm.contract(1, 3), -Rm.trace_J(1, 3, S.J).apply_J(1, S.J)


def trace(b: Tensor) -> Scalar:
    return sum((b(i, i) for i in range(b.dim)), ZERO)


def ricci_form(S: AlmostHermitianStructure, Rm: Tensor) -> Form:
    """rho_D(X, Y) = -1/2 <R_D(e_i, Je_i) X, Y> = -1/2 sum J_mi Rm_imjk,
    summed on increasing (j, k) only."""
    return Rm.trace_J(0, 1, S.J, increasing=True).antisymmetrize_to_form().scaled(_MINUS_HALF)


def transposed_ricci_form(S: AlmostHermitianStructure, Rm: Tensor) -> Form:
    """r_D(X, Y) = -1/2 <R_D(X, Y) e_i, Je_i> = -1/2 sum J_mi Rm_jkim,
    summed on increasing (j, k) only."""
    return Rm.trace_J(2, 3, S.J, increasing=True).antisymmetrize_to_form().scaled(_MINUS_HALF)


@dataclass
class ConnectionCurvature:
    connection: Connection
    Rm: Tensor
    rho: Form
    r: Form


def connection_curvature(
    S: AlmostHermitianStructure, conn: Connection
) -> ConnectionCurvature:
    Rm = riemann(S.L, conn)
    return ConnectionCurvature(conn, Rm, ricci_form(S, Rm), transposed_ricci_form(S, Rm))


@dataclass
class CurvatureReport:
    Rm: Tensor
    ric: Tensor
    ric_star: Tensor
    s: Scalar
    s_star: Scalar
    s_from_torsion: Scalar
    s_star_from_torsion: Scalar
    rho: Form  # Ricci form of Levi-Civita
    r: Form
    minimal: ConnectionCurvature
    chern: Optional[ConnectionCurvature]
    diff_split: BilinearSplit  # Ric - Ric*
    comb_split: BilinearSplit  # Ric + 3 Ric*
    dstar_theta: Scalar
    theta_norm2: Scalar


def scalar_curvatures_from_torsion(
    S: AlmostHermitianStructure,
    dec: TorsionDecomposition,
    r_minimal: Form,
    dstar_theta: Scalar,
    theta_norm2: Scalar,
) -> Tuple[Scalar, Scalar]:
    """The closed formulas for s and s* through the minimal connection.

    s  = 2<r, w> + 2(n-1) d*theta + (2n-3)(n-1)/2 |theta|^2
         + 5|xi1|^2 - |xi2|^2 - |xi3|^2
    s* = 2<r, w> - (n-1)/2 |theta|^2 + |xi1|^2 + |xi2|^2 - |xi3|^2

    The norms carry plain constants because the torsion-squared trace behind
    them is 2<q, w> = |xi1|^2 + |xi2|^2 - |xi3|^2 - |xi4|^2 together with
    |xi4|^2 = (n-1)/2 |theta|^2; both are checked by the identity audit.
    """
    n = S.n
    rw = r_minimal.inner(S.omega)
    n1, n2_, n3 = dec.norms["W1"], dec.norms["W2"], dec.norms["W3"]
    s = (
        Scalar.rational(2) * rw
        + Scalar.rational(2 * (n - 1)) * dstar_theta
        + Scalar.rational(Fraction((2 * n - 3) * (n - 1), 2)) * theta_norm2
        + Scalar.rational(5) * n1
        - n2_
        - n3
    )
    s_star = (
        Scalar.rational(2) * rw
        - Scalar.rational(Fraction(n - 1, 2)) * theta_norm2
        + n1
        + n2_
        - n3
    )
    return s, s_star


def curvature_report(
    S: AlmostHermitianStructure,
    nabla: Connection,
    minimal: Connection,
    dec: TorsionDecomposition,
    xi: Tensor,
) -> CurvatureReport:
    Rm = riemann(S.L, nabla)
    ric, ric_star = ricci_pair(S, Rm)
    s = trace(ric)
    s_star = trace(ric_star)
    min_cc = connection_curvature(S, minimal)

    integrable = dec.xi1.is_zero() and dec.xi2.is_zero()  # else Chern is not unitary
    chern_conn, unitary = chern_connection(S, nabla, xi) if integrable else (None, False)
    chern_cc = connection_curvature(S, chern_conn) if unitary else None

    dstar_theta_form = codifferential(S.L, dec.theta)
    dstar_theta = dstar_theta_form.coeffs.get((), ZERO)
    theta_norm2 = dec.theta.inner(dec.theta)
    s_t, s_star_t = scalar_curvatures_from_torsion(S, dec, min_cc.r, dstar_theta, theta_norm2)

    diff = ric - ric_star
    comb = ric + ric_star.scaled(Scalar.rational(3))
    return CurvatureReport(
        Rm=Rm,
        ric=ric,
        ric_star=ric_star,
        s=s,
        s_star=s_star,
        s_from_torsion=s_t,
        s_star_from_torsion=s_star_t,
        rho=ricci_form(S, Rm),
        r=transposed_ricci_form(S, Rm),
        minimal=min_cc,
        chern=chern_cc,
        diff_split=split_bilinear(S, diff),
        comb_split=split_bilinear(S, comb),
        dstar_theta=dstar_theta,
        theta_norm2=theta_norm2,
    )


# -- SU refinement ------------------------------------------------------------


def three_form_pure_part(S: AlmostHermitianStructure, alpha: Form) -> Form:
    """[[lambda^{3,0}]] part: 1/4 (alpha - sum over slot pairs of alpha(J., J.))."""
    if alpha.rank != 3:
        raise CurvatureError("pure-part projection expects a 3-form")
    t = alpha.to_tensor()
    quarter = Fraction(1, 4)
    terms = [(quarter, t)] + [(-quarter, t, ab) for ab in ((0, 1), (0, 2), (1, 2))]
    return _combine(*terms, J=S.J).antisymmetrize_to_form()


@dataclass
class SURefinement:
    psi_plus: Form
    psi_minus: Form
    w1_plus: Scalar
    eta: Form
    eta_hat: Form
    auto_built: bool


def su_refinement(
    S: AlmostHermitianStructure, dec: TorsionDecomposition, domega: Form
) -> Optional[SURefinement]:
    """eta and the function w1+ of the SU(n)-refined structure, n = 2 or 3.

    When psi_plus was not supplied and n = 3, a complex volume form is built
    from the pure part of d omega whenever that part is nonzero and its norm
    has a square root in the scalar ring.  The pure part is the image of
    xi1, so it vanishes exactly when xi1 does, and is not projected then.
    Returns None when no SU data is available.
    """
    n = S.n
    psi_plus, psi_minus = S.psi_plus, S.psi_minus
    auto = False
    if psi_plus is None:
        if n != 3 or dec.xi1.is_zero():
            return None
        pure = three_form_pure_part(S, domega)
        if pure.is_zero():
            return None
        norm = scalar_sqrt(pure.inner(pure), S.L.extension_d)
        if norm is None:
            return None
        # d omega = 3 w1+ psi+ + ... with |psi+|^2 = 4, so |pure| = 6 w1+
        w1p = norm * Scalar.rational(Fraction(1, 6))
        psi_plus = pure.scaled(ONE / (Scalar.rational(3) * w1p))
        # validated and carried in the refinement only: S is left untouched
        psi_minus = su_partner(S, psi_plus)
        auto = True
    assert psi_plus is not None and psi_minus is not None

    if n == 3:
        w1p = domega.inner(psi_plus) * Scalar.rational(Fraction(1, 12))
    else:
        w1p = ZERO

    sum_form = Form(S.L.dim, 1)
    for psi in (psi_plus, psi_minus):
        dpsi = exterior_derivative(S.L, psi)
        sum_form = sum_form + hodge_star(hodge_star(dpsi).wedge(psi))
    if n == 2:
        eta = (dec.theta + sum_form).scaled(Scalar.rational(Fraction(1, 4)))
    else:
        eta = sum_form.scaled(Scalar.rational(Fraction(1, 12))) + dec.theta.scaled(
            Scalar.rational(Fraction(1, 3))
        )
    eta_hat = S.J_oneform(eta)
    return SURefinement(psi_plus, psi_minus, w1p, eta, eta_hat, auto)


# -- full analysis bundle ------------------------------------------------------


@dataclass
class Analysis:
    structure: AlmostHermitianStructure
    nabla: Connection
    minimal: Connection
    xi: Tensor
    nijenhuis_tensor: Tensor
    theta: Form
    torsion: TorsionDecomposition
    gh_class: GHClass
    dtheta: DThetaReport
    domega: Form
    curvature: CurvatureReport
    su: Optional[SURefinement]


def analyze(S: AlmostHermitianStructure) -> Analysis:
    """Everything the reports and the identity audit need, computed once."""
    nabla = levi_civita(S)
    xi = intrinsic_torsion(S, nabla)
    theta = lee_form(S)
    dec = split_torsion(S, xi, theta)
    minimal = minimal_connection(S, nabla, xi)
    gh = classify(dec)
    rep = dtheta_report(S, theta)
    domega = exterior_derivative(S.L, S.omega)
    curv = curvature_report(S, nabla, minimal, dec, xi)
    su = su_refinement(S, dec, domega) if S.n in (2, 3) else None
    return Analysis(
        structure=S,
        nabla=nabla,
        minimal=minimal,
        xi=xi,
        nijenhuis_tensor=nijenhuis(S),
        theta=theta,
        torsion=dec,
        gh_class=gh,
        dtheta=rep,
        domega=domega,
        curvature=curv,
        su=su,
    )

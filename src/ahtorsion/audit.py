"""Exact-residual audit of the identity catalog.

Every check evaluates both sides of one identity through disjoint code paths
(curvature traces on one side, torsion formulas on the other) and records the
residual.  A pass means the residual is identically zero as an exact scalar,
including in any formal parameters.  Checks whose hypotheses fail are reported
as skipped with the reason, never silently dropped.

Identity ids are stable strings so reports diff cleanly.  Where the printed
source of an identity is internally inconsistent, the corrected form is used
here and the discrepancy is documented in the project notes; descriptions
carry a "corrected" marker in that case.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction as PyFraction
from typing import Callable, Dict, List, Optional, Tuple

from .curvature import Analysis, analyze
from .decomposition import (
    BilinearSplit,
    _combine,
    _pair_xi,
    _xi_at_vector,
    contract_trace_vector,
    domega_from_torsion,
    split_bilinear,
    split_two_form,
)
from .multilinear import (
    Endomorphism,
    Form,
    Matrix,
    Tensor,
    exterior_derivative,
    form_inner,
    identity_matrix,
    metric_tensor,
)
from .scalars import HALF, ZERO, Accumulator, Fraction, Scalar, format_scalar
from .structure import (
    AlmostHermitianStructure,
    build_structure,
    check_torsion_tensor,
    transform_form,
)

R = Scalar.rational


# -- result containers --------------------------------------------------------


@dataclass
class IdentityCheck:
    identifier: str
    description: str
    status: str  # "pass" | "fail" | "skip"
    detail: str = ""


@dataclass
class AuditReport:
    structure: str
    checks: List[IdentityCheck]

    @property
    def failures(self) -> List[IdentityCheck]:
        return [c for c in self.checks if c.status == "fail"]

    @property
    def ok(self) -> bool:
        return not self.failures

    def counts(self) -> Dict[str, int]:
        out = {"pass": 0, "fail": 0, "skip": 0}
        for c in self.checks:
            out[c.status] += 1
        return out


# -- residual helpers ---------------------------------------------------------


# A check returns its parts in the order it tests them: (label, residual)
# pairs.  A Scalar, Form or Tensor residual holds when it is zero, a bool when
# it is True.
Parts = List[Tuple[Optional[str], object]]


def witness(parts: Parts) -> Optional[str]:
    """None when every part holds, else the text of the first that does not.

    A failing bool part reads as its label.  A residual reads as its least
    nonzero entry, ``entry (i, j): v``, ``coefficient (i, j): v`` or the
    scalar itself, behind ``label: `` when it is labelled.  A label with
    ``{idx}`` or ``{value}`` fields is instead a template over the entry's
    1-based index and its value.
    """
    for label, residual in parts:
        if isinstance(residual, bool):
            if not residual:
                return label
            continue
        if isinstance(residual, Scalar):
            entries, text = {(): residual}, "{value}"
        elif isinstance(residual, (Form, Tensor)):
            entries = residual.coeffs
            text = ("coefficient" if isinstance(residual, Form) else "entry") + " {idx}: {value}"
        else:
            raise TypeError(f"cannot take a residual witness of {type(residual)!r}")
        nonzero = [idx for idx, v in entries.items() if not v.is_zero()]
        if not nonzero:
            continue
        idx = min(nonzero)
        if label is not None:
            text = label if "{" in label else f"{label}: {text}"
        return text.format(idx=tuple(i + 1 for i in idx), value=format_scalar(entries[idx]))
    return None


def _outer(u: Form, v: Form) -> Tensor:
    """(j, k) -> u_j v_k for two 1-forms."""
    return u.to_tensor().tensor(v.to_tensor())


# -- the evaluation bundle ----------------------------------------------------


def _trace_field(k: int, slot: int) -> cached_property:
    """A bundle field: D^min of the analysis's xi_k, traced against ``slot``."""
    return cached_property(
        lambda b: b.A.minimal.covariant_trace(getattr(b.A.torsion, f"xi{k}"), slot))


class Bundle:
    """Everything the checks contract against, computed once per structure.

    The checks combine whole tensors: each side of an identity is one linear
    combination of rank-2 tensors built from these fields (``_combine``).
    D^min xi_k enters only through its traces (``trace1`` to ``trace4``,
    ``div2``, ``div3``), fused from the analysis's xi_k.  These, ``Dxi``, terms
    derived from ``Dth`` or ``jth_form`` and the [lambda^{1,1}] parts of
    2-forms are built on first use, so a field corrupted before a check reads
    it reaches that check.  J rotations and pair contractions are kept per
    operand object (``_memoised``): a replaced field is rotated and contracted
    afresh, so operands must not change in place.
    """

    # (j, k) -> sum_i <(D^min_{e_i} xi_k)_{e_i} e_j, e_k>
    trace1, trace2, trace3, trace4 = (_trace_field(k, 0) for k in range(1, 5))
    # (j, k) -> sum_i <(D^min_{e_i} xi_k)_{e_j} e_k, e_i>
    div2, div3 = (_trace_field(k, 2) for k in (2, 3))

    def __init__(self, analysis: Analysis):
        self.A = analysis
        self._memo: Dict[tuple, Tuple[tuple, Endomorphism, Tensor]] = {}
        S = analysis.structure
        self.S = S
        self.dim = S.L.dim
        self.n = S.n
        d = self.dim
        dec = analysis.torsion
        self.xi = analysis.xi
        self.xi1, self.xi2, self.xi3, self.xi4 = dec.xi1, dec.xi2, dec.xi3, dec.xi4
        self.norms = dec.norms
        self.theta = analysis.theta
        self.th = [self.theta.coeffs.get((t,), ZERO) for t in range(d)]
        self.jth_form = S.J_oneform(self.theta)
        self.jth = [self.jth_form.coeffs.get((t,), ZERO) for t in range(d)]
        self.Dth = analysis.nabla.covariant_derivative(self.theta.to_tensor())
        self.omega_t = S.omega.to_tensor()
        self.g = metric_tensor(d)
        curv = analysis.curvature
        self.curv = curv
        self.dstar_theta = curv.dstar_theta
        self.tn = curv.theta_norm2
        self.diff = curv.ric - curv.ric_star
        self.dtheta_lam20 = analysis.dtheta.split.lambda20_part.to_tensor()
        self.xi4vec = contract_trace_vector(dec.xi4)
        self.r_min = curv.minimal.r
        self.rho_min = curv.minimal.rho

    def _memoised(self, kind, operands: tuple, build: Callable[[], Tensor]) -> Tensor:
        """build(), computed once per kind, operand objects and J."""
        J = self.S.J
        key = (kind,) + tuple(id(t) for t in operands)
        hit = self._memo.get(key)
        # the memo holds the operands, so their ids are not reused while the entry lives
        if hit is None or hit[1] is not J:
            hit = self._memo[key] = (operands, J, build())
        return hit[2]

    def rotated(self, t: Tensor, slot: int) -> Tensor:
        """J_(slot) t."""
        return self._memoised(slot, (t,), lambda: t.apply_J(slot, self.S.J))

    # contraction shapes shared by several identities, each the whole (j, k) tensor

    def pair(self, a: Tensor, b: Tensor) -> Tensor:
        """(j, k) -> <a_{e_j} e_i, b_{e_k} e_i> summed over i."""
        return self._memoised("pair", (a, b), lambda: _pair_xi(a, b))

    def pairJ(self, a: Tensor, b: Tensor) -> Tensor:
        """(j, k) -> <a_{e_j} e_i, b_{e_k} J e_i> summed over i."""
        return self._memoised("pairJ", (a, b), lambda: -_pair_xi(a, self.rotated(b, 1)))

    def pairE(self, a: Tensor, b: Tensor) -> Tensor:
        """(j, k) -> <a_{e_i} e_j, b_{e_i} e_k> summed over i."""
        return self._memoised("pairE", (a, b), lambda: _pair_xi(a, b, 0))

    def pairE_J(self, a: Tensor, b: Tensor) -> Tensor:
        """(j, k) -> <a_{e_i} e_j, b_{J e_i} e_k> summed over i."""
        return self._memoised("pairE_J", (a, b), lambda: -_pair_xi(a, self.rotated(b, 0), 0))

    @cached_property
    def Dxi(self) -> Tensor:
        """D^min xi, read by the curvature gap and the torsion trace tensor."""
        return self.A.minimal.covariant_derivative(self.A.xi)

    @cached_property
    def curvature_gap(self) -> Tensor:
        """F_ackl for a < c: the torsion side of Rm - Rm^{U(n)} in R3.3 and E3.1.

        F = (D xi)_ackl - (D xi)_cakl + <xi_{xi_a e_c - xi_c e_a} e_k, e_l>
            - <[xi_a, xi_c] e_k, e_l>,

        built from stored entries only, once per bundle.
        """
        xi = self.xi
        acc = Accumulator()
        add = acc.add
        for (a, c, k, l), v in self.Dxi.coeffs.items():
            if a < c:
                add((a, c, k, l), v)
            elif c < a:
                add((c, a, k, l), v, sign=-1)
        # xi_a e_c - xi_c e_a = sum_m w_m e_m: a stored xi_pqm with p != q adds
        # to w for the pair (p, q), negated when p > q
        by_first = xi.group_by(0)
        for (p, q, m), v in xi.coeffs.items():
            if p == q:
                continue
            pair, sign = ((p, q), 1) if p < q else ((q, p), -1)
            for (_, k, l), u in by_first.get((m,), ()):
                add(pair + (k, l), v, u, sign)
        # <xi_q xi_p e_k, e_l> = sum_m xi_pkm xi_qml enters [xi_a, xi_c] with a
        # plus sign for (a, c) = (q, p) and a minus sign for (a, c) = (p, q)
        by_mid = xi.group_by(1)
        for (p, k, m), v in xi.coeffs.items():
            for (q, _, l), u in by_mid.get((m,), ()):
                if q < p:
                    add((q, p, k, l), v, u, -1)
                elif p < q:
                    add((p, q, k, l), v, u)
        return Tensor.of_nonzero(self.dim, 4, acc.result())

    @cached_property
    def dth_rotated(self) -> Tensor:
        """Dth(J., J.)."""
        return self.S.rotate_bilinear(self.Dth)

    @cached_property
    def dth_mixed(self) -> Tensor:
        """(nabla_X theta)(Y) + (nabla_JX theta)(JY): Dth + Dth(J., J.)."""
        return self.Dth + self.dth_rotated

    @cached_property
    def dth_sym_anti(self) -> Tensor:
        """H + H^T for the anti-invariant Hessian part H = Dth - Dth(J., J.)."""
        h = self.Dth - self.dth_rotated
        return h + h.transpose((1, 0))

    @cached_property
    def Dxi4vec(self) -> Tensor:
        """(j, m) -> the e_m component of D_{e_j} of the Lee-part trace vector:
        D^min of the trace taken as a 1-form, as the connection is metric."""
        return self.A.minimal.covariant_derivative(self.xi4.contract(0, 1))

    def _lam11(self, alpha: Form) -> Form:
        """The [lambda^{1,1}] part (alpha + alpha(J., J.)) / 2 of a 2-form."""
        return (alpha + self.S.rotate_two_form(alpha)).scaled(HALF)

    @cached_property
    def dJth(self) -> Form:
        return exterior_derivative(self.S.L, self.jth_form)

    @cached_property
    def dJth11(self) -> Form:
        """[lambda^{1,1}] part of d(J theta)."""
        return self._lam11(self.dJth)

    @cached_property
    def rho11(self) -> Form:
        """[lambda^{1,1}] part of the Levi-Civita first Ricci form."""
        return self._lam11(self.curv.rho)

    @cached_property
    def rmin11(self) -> Form:
        """[lambda^{1,1}] part of the minimal connection's second Ricci form."""
        return self._lam11(self.r_min)

    @cached_property
    def ric_star_skew(self) -> Tensor:
        """The skew part (Ric* - Ric*^T) / 2 of the star-Ricci tensor."""
        rs = self.curv.ric_star
        return _combine((HALF, rs), (-HALF, rs.transpose((1, 0))))

    @cached_property
    def torsion_trace_rhs(self) -> Tensor:
        """The torsion-side tensor whose traces reproduce Ric - Ric*:

        2 sum_i (-(D xi)_ijki + (D xi)_jiki) + 2 sum_{i,m} (-xi_ijm + xi_jim) xi_mki.
        """
        two = R(2)
        acc = Accumulator()
        add = acc.add
        for (a, b, c, e), v in self.Dxi.coeffs.items():
            if e == a:
                add((b, c), two, v, -1)
            if e == b:
                add((a, c), two, v)
        by_ends = self.xi.group_by(0, 2)
        for (p, q, m), v in self.xi.coeffs.items():
            v2 = two * v
            for (_, k, _), u in by_ends.get((m, p), ()):
                add((q, k), v2, u, -1)
            for (_, k, _), u in by_ends.get((m, q), ()):
                add((p, k), v2, u)
        return Tensor.of_nonzero(self.dim, 2, acc.result())

    @cached_property
    def torsion_trace_split(self) -> BilinearSplit:
        """The J-type split of ``torsion_trace_rhs``, read by SIGMA and P4.4."""
        return split_bilinear(self.S, self.torsion_trace_rhs)


# -- framework checks ---------------------------------------------------------


def check_f1(b: Bundle) -> Parts:
    """omega and J agree, and omega is J-invariant.

    build_structure owns the Jacobi identity and J^2 = -Id = -J^T J.
    """
    S = b.S
    # J as a tensor, J_ij = <J e_j, e_i>, is -J_(2) g
    return [
        ("omega/J mismatch at ({idx[0]},{idx[1]})", S.omega.to_tensor() + b.g.apply_J(1, S.J)),
        (None, S.rotate_two_form(S.omega) - S.omega),
    ]


def check_f2(b: Bundle) -> Parts:
    """Levi-Civita connection invariants, its curvature's (k, l)-skewness, pair
    symmetry and first Bianchi identity Rm_ijkl + Rm_jkil + Rm_kijl = 0."""
    conn = b.A.nabla
    Rm = b.curv.Rm
    return [
        ("not metric", conn.is_metric()),
        ("not torsion-free", conn.torsion(b.S.L).is_zero()),
        ("curvature not skew in (k, l)", Rm + Rm.transpose((0, 1, 3, 2))),
        (None, Rm - Rm.transpose((2, 3, 0, 1))),
        # a stored Rm_abcl also enters the cyclic sum at (c, a, b, l) and (b, c, a, l)
        ("first Bianchi identity", _combine(
            (1, Rm), (1, Rm.transpose((1, 2, 0, 3))), (1, Rm.transpose((2, 0, 1, 3)))
        )),
    ]


def check_f3(b: Bundle) -> Parts:
    """The minimal connection is a unitary connection."""
    mc = b.A.minimal
    return [
        ("not metric", mc.is_metric()),
        ("omega not parallel", mc.covariant_derivative(b.S.omega.to_tensor())),
        ("J not parallel in direction e_{idx[0]}", mc.derive_endomorphism(b.S.J)),
    ]


def check_f4(b: Bundle) -> Parts:
    """Intrinsic torsion invariants and its connection difference."""
    msg = check_torsion_tensor(b.S, b.xi, b.rotated)
    return [
        ("xi not skew in the last two slots", b.xi.is_antisymmetric_pair(1, 2)),
        (msg, msg is None),
        (None, b.A.minimal.gamma - b.A.nabla.gamma - b.xi),
    ]


def check_f5(b: Bundle) -> Parts:
    """Kaehler form derivative from torsion plus the class characterizations."""
    domega_zero = b.A.domega.is_zero()
    xi1_zero, xi3_zero, xi4_zero = b.xi1.is_zero(), b.xi3.is_zero(), b.xi4.is_zero()
    return [
        ("domega reconstruction", domega_from_torsion(b.S, b.xi) - b.A.domega),
        ("N = 0 does not match xi1 = xi2 = 0",
         b.A.nijenhuis_tensor.is_zero() == (xi1_zero and b.xi2.is_zero())),
        ("d omega = 0 does not match xi1 = xi3 = xi4 = 0",
         domega_zero == (xi1_zero and xi3_zero and xi4_zero)),
        ("theta = 0 does not match xi4 = 0", b.theta.is_zero() == xi4_zero),
        ("Lee component of d omega is not theta ^ omega",
         domega_from_torsion(b.S, b.xi4) - b.theta.wedge(b.S.omega)),
    ]


def check_f6(b: Bundle) -> Parts:
    """Component split invariants and the two norm relations."""
    comps = [b.xi1, b.xi2, b.xi3, b.xi4]
    parts: Parts = [("components do not sum to xi", b.xi1 + b.xi2 + b.xi3 + b.xi4 - b.xi)]
    for k, comp in enumerate(comps):
        msg = check_torsion_tensor(b.S, comp, b.rotated)
        parts.append((f"component W{k + 1}: {msg}", msg is None))
    for x, y in itertools.combinations(range(4), 2):
        parts.append((f"components {x + 1} and {y + 1} not orthogonal",
                      comps[x].inner(comps[y]).is_zero()))
    # trace of xi against its J-twist versus the signed norm sum
    qw = b.pairJ(b.xi, b.xi).inner(b.omega_t)
    signed = b.norms["W1"] + b.norms["W2"] - b.norms["W3"] - b.norms["W4"]
    return parts + [
        ("W1 and W3 must vanish in dimension four",
         b.n != 2 or (b.xi1.is_zero() and b.xi3.is_zero())),
        ("squared norm of the Lee component is off",
         b.norms["W4"] == R(Fraction(b.n - 1, 2)) * b.tn),
        ("J-twisted torsion trace does not match the signed norm sum", qw == signed),
    ]


def check_f7(b: Bundle) -> Parts:
    """Differential consistency around the Lee form."""
    # the torsion-trace route to theta: sum_i (xi_{e_i} e_i)^flat = ((n-1)/2) theta
    trace = Form(b.dim, 1, {(k,): v for k, v in enumerate(contract_trace_vector(b.xi))})
    return [
        ("d(d omega) != 0", exterior_derivative(b.S.L, b.A.domega)),
        ("d(d theta) != 0", exterior_derivative(b.S.L, b.A.dtheta.dtheta)),
        (None, trace.scaled(R(Fraction(2, b.n - 1))) - b.theta),
    ]


# -- torsion-derivative identities -------------------------------------------


def check_l31a(b: Bundle) -> Parts:
    return [(None, b.Dxi4vec.trace_J(0, 1, b.S.J)())]


def check_l31b(b: Bundle) -> Parts:
    # the right side is A - A^T
    coef = Fraction(b.n - 2, b.n - 1)
    a = _combine(
        (-coef, b.Dxi4vec),
        (-2, b.div3),
        (-coef, b.S.rotate_bilinear(b.Dxi4vec)),
        (-3, b.pair(b.xi1, b.xi2)),
    )
    return [(None, a - a.transpose((1, 0)))]


def check_l31c(b: Bundle) -> Parts:
    n, v4 = b.n, b.xi4vec
    p31 = b.pair(b.xi3, b.xi1)
    p32 = b.pair(b.xi3, b.xi2)
    rhs = _combine(
        (3, b.trace1),
        (-1, b.trace3),
        (n - 2, b.trace4),
        (-1, p31),
        (1, p31.transpose((1, 0))),
        (Fraction(1, 2), p32),
        (Fraction(-1, 2), p32.transpose((1, 0))),
        (-Fraction(n - 5, n - 1), _xi_at_vector(b.xi1, v4)),
        (-Fraction(n - 2, n - 1), _xi_at_vector(b.xi2, v4)),
        (1, _xi_at_vector(b.xi3, v4)),
    )
    return [(None, rhs)]


_PAIRS4 = [
    (a, bb, *[t for t in range(4) if t not in (a, bb)], (-1) ** (a + bb))
    for a in range(4)
    for bb in range(a + 1, 4)
]


def check_e31(b: Bundle) -> Parts:
    """Second exterior derivative of omega expanded through the torsion."""
    # G_acxy = (F_ac omega)(e_x, e_y) = -sum_l F_acxl w_ly - sum_l w_xl F_acyl for
    # the endomorphisms F_ac = F(a, c, ., .) of the curvature gap, scattered
    # from its stored entries
    acc = Accumulator()
    by_row = b.omega_t.group_by(0)
    by_col = b.omega_t.group_by(1)
    for (a, c, k, l), v in b.curvature_gap.coeffs.items():
        for (_, y), w in by_row.get((l,), ()):
            acc.add((a, c, k, y), v, w, -1)
        for (x, _), w in by_col.get((l,), ()):
            acc.add((a, c, x, k), w, v, -1)
    G = acc.result()
    # the signed sum over the pair splittings of each increasing quadruple
    total = Accumulator()
    for quad in itertools.combinations(range(b.dim), 4):
        for a, bb, ci, di, sg in _PAIRS4:
            term = G.get((quad[a], quad[bb], quad[ci], quad[di]))
            if term is not None:
                total.add(quad, term, sign=sg)
    return [("quadruple {idx}: {value}", Tensor.of_nonzero(b.dim, 4, total.result()))]


def check_r33(b: Bundle) -> Parts:
    """Curvature of the two connections differs by the torsion terms."""

    def upper(t: Tensor) -> Tensor:
        return Tensor(b.dim, 4, {k: v for k, v in t.coeffs.items() if k[0] < k[1]})

    res = upper(b.curv.Rm) - upper(b.curv.minimal.Rm) - b.curvature_gap
    return [("entry ({idx[0]},{idx[1]},{idx[2]},{idx[3]}): {value}", res)]


def check_p34r(b: Bundle) -> Parts:
    return [(None, b.A.dtheta.split.r_omega_part)]


def check_p34h(b: Bundle) -> Parts:
    # the [lambda_0^{1,1}] identity of the dtheta proposition, left side - right side
    half_nm2 = Fraction(b.n - 2, 2)
    x3 = _xi_at_vector(b.xi3, b.th, 2)
    p12 = b.pair(b.xi1, b.xi2)
    return [(None, _combine(
        (half_nm2, b.A.dtheta.split.lambda0_part.to_tensor()),
        (1, b.div3),
        (-1, b.div3.transpose((1, 0))),
        (-half_nm2, x3),
        (half_nm2, x3.transpose((1, 0))),
        (Fraction(3, 2), p12),
        (Fraction(-3, 2), p12.transpose((1, 0))),
    ))]


def check_p34s(b: Bundle) -> Parts:
    # the [[lambda^{2,0}]] identity, left side - right side
    n = b.n
    p31 = b.pair(b.xi3, b.xi1)
    p32 = b.pair(b.xi3, b.xi2)
    return [(None, _combine(
        (Fraction(n - 2, 2), b.A.dtheta.split.lambda20_part.to_tensor()),
        (3, b.trace1),
        (-1, b.trace3),
        (-1, p31),
        (1, p31.transpose((1, 0))),
        (Fraction(1, 2), p32),
        (Fraction(-1, 2), p32.transpose((1, 0))),
        (-Fraction(3 * (n - 3), 2), _xi_at_vector(b.xi1, b.th)),
        (Fraction(n - 1, 2), _xi_at_vector(b.xi3, b.th)),
    ))]


def check_p36i(b: Bundle) -> Parts:
    return [(None, b.A.dtheta.dtheta)]


def check_p36ii(b: Bundle) -> Parts:
    parts: Parts = [(None, b.A.dtheta.split.lambda0_part)]
    if b.n == 3:
        parts.append((None, b.A.dtheta.dtheta))
    return parts


def check_p36c(b: Bundle) -> Parts:
    """Nonvanishing pure-type torsion forces a zero Lee form (invariant case)."""
    return [(None, b.theta)]


def check_su3(b: Bundle) -> Parts:
    su = b.A.su
    S = b.S
    w1 = su.w1_plus
    fac = su.eta.scaled(R(-3)) + b.theta
    return [
        ("d omega equation",
         b.A.domega - su.psi_plus.scaled(R(3) * w1) - b.theta.wedge(S.omega)),
        ("d psi+ equation",
         exterior_derivative(S.L, su.psi_plus) - fac.wedge(su.psi_plus)),
        ("d psi- equation",
         exterior_derivative(S.L, su.psi_minus)
         - S.omega.wedge(S.omega).scaled(R(2) * w1)
         - fac.wedge(su.psi_minus)),
        # the tensor norm of xi1 carries a factor 6 against the 3-form normalization
        ("squared norm of xi1 is not 6 (w1+)^2", b.norms["W1"] == R(6) * w1 * w1),
        (None, b.xi1 - su.psi_minus.to_tensor().scaled(w1 * R(Fraction(1, 2)))),
    ]


# -- curvature identities ------------------------------------------------------


def check_e41(b: Bundle) -> Parts:
    return [(None, b.diff - b.torsion_trace_rhs)]


def check_e42(b: Bundle) -> Parts:
    n = b.n
    p12 = b.pair(b.xi1, b.xi2)
    rhs = _combine(
        (-2, b.div3),
        (-Fraction(n - 2, 2), b.dth_mixed),
        (R(Fraction(1, 2)) * (b.dstar_theta + R(Fraction(2 * n - 3, 2)) * b.tn), b.g),
        (4, b.pair(b.xi1, b.xi1)),
        (-2, b.pairE(b.xi2, b.xi2)),
        (-Fraction(n - 2, 4), _outer(b.theta, b.theta)),
        (-Fraction(n - 2, 4), _outer(b.jth_form, b.jth_form)),
        (-2, p12),
        (1, p12.transpose((1, 0))),
        (n - 2, _xi_at_vector(b.xi3, b.th, 2)),
    )
    sp = b.curv.diff_split
    return [(None, sp.trace_part + sp.sym_invariant_part - rhs)]


def check_l41(b: Bundle) -> Parts:
    n = b.n
    rhs = (
        R(2 * (n - 1)) * b.dstar_theta
        + R((n - 1) ** 2) * b.tn
        + R(4) * b.norms["W1"]
        - R(2) * b.norms["W2"]
    )
    return [(None, b.curv.s - b.curv.s_star - rhs)]


def check_e44(b: Bundle) -> Parts:
    n = b.n
    p13 = b.pair(b.xi1, b.xi3)
    p23 = b.pair(b.xi2, b.xi3)
    rhs = _combine(
        (2, b.trace1),
        (-1, b.trace2),
        (Fraction(n - 1, 2), b.dtheta_lam20),
        (1, p13),
        (-1, p13.transpose((1, 0))),
        (-(n - 3), _xi_at_vector(b.xi1, b.th)),
        (Fraction(-1, 2), p23),
        (Fraction(1, 2), p23.transpose((1, 0))),
        (Fraction(n, 2), _xi_at_vector(b.xi2, b.th)),
    )
    return [(None, b.ric_star_skew - rhs)]


def check_e45(b: Bundle) -> Parts:
    n = b.n
    rhs = _combine(
        (-1, b.trace1),
        (-1, b.trace2),
        (1, b.trace3),
        (Fraction(1, 2), b.dtheta_lam20),
        (Fraction(n - 3, 2), _xi_at_vector(b.xi1, b.th)),
        (Fraction(n, 2), _xi_at_vector(b.xi2, b.th)),
        (-Fraction(n - 1, 2), _xi_at_vector(b.xi3, b.th)),
    )
    return [(None, b.ric_star_skew - rhs)]


def check_sigma(b: Bundle) -> Parts:
    """Symmetric anti-invariant Ricci part from the torsion trace tensor."""
    lhs = b.curv.diff_split.sym_anti_part
    return [(None, lhs - b.torsion_trace_split.sym_anti_part)]


def check_p44(b: Bundle) -> Parts:
    """Class-restricted form of the anti-invariant Ricci identity."""
    if b.n == 2:
        # closed form valid in dimension four
        rhs = _combine(
            (-1, b.div2),
            (-1, b.div2.transpose((1, 0))),
            (Fraction(-1, 4), b.dth_sym_anti),
            (Fraction(-1, 4), _outer(b.theta, b.theta)),
            (Fraction(1, 4), _outer(b.jth_form, b.jth_form)),
        )
        return [(None, b.curv.diff_split.sym_anti_part - rhs)]
    return check_sigma(b)


def check_p43i(b: Bundle) -> Parts:
    n = b.n
    rhs = _combine(
        (-1, b.trace2),
        (Fraction(n + 1, 6), b.dtheta_lam20),
        (Fraction(n, 2), _xi_at_vector(b.xi2, b.th)),
    )
    return [(None, b.ric_star_skew - rhs)]


def check_p43ia(b: Bundle) -> Parts:
    lhs = b.ric_star_skew
    parts: Parts = [(None, lhs - b.dtheta_lam20.scaled(R(Fraction(b.n + 1, 6))))]
    if b.n == 3:
        parts += [(None, lhs), (None, b.A.dtheta.dtheta)]
    return parts


def check_p43ib(b: Bundle) -> Parts:
    rhs = _combine(
        (-1, b.trace2),
        (Fraction(1, 2), b.dtheta_lam20),
        (1, _xi_at_vector(b.xi2, b.th)),
    )
    return [(None, b.ric_star_skew - rhs)]


def check_p43iia(b: Bundle) -> Parts:
    n = b.n
    parts: Parts = [(None, b.ric_star_skew - b.dtheta_lam20.scaled(R(Fraction(n - 1, 2))))]
    if n > 2:
        t = _combine(
            (1, b.trace3),
            (-Fraction(n - 1, 2), _xi_at_vector(b.xi3, b.th)),
        ).scaled(R(Fraction(n - 1, n - 2)))
        parts.append((None, b.ric_star_skew - t))
    return parts


def check_p43iib(b: Bundle) -> Parts:
    return [(None, b.curv.diff_split.sym_invariant_part)]


def check_p46i(b: Bundle) -> Parts:
    items = [("minimal", b.curv.minimal)]
    if b.curv.chern is not None:
        items.append(("chern", b.curv.chern))
    parts: Parts = []
    for label, cc in items:
        parts += [
            (f"first Ricci form of {label} leaves [lambda^11]",
             split_two_form(b.S, cc.rho).lambda20_part),
            (f"second Ricci form of {label} not closed", exterior_derivative(b.S.L, cc.r)),
        ]
    return parts


def check_p46ii(b: Bundle) -> Parts:
    ricstar_J = -b.curv.ric_star.apply_J(1, b.S.J)
    rho_t = b.curv.rho.to_tensor()
    r_t = b.curv.r.to_tensor()
    rmin_t = b.r_min.to_tensor()
    comps = [b.xi1, b.xi2, b.xi3]
    terms = [(1, rmin_t)]
    for a in comps:
        x = _xi_at_vector(a, b.jth, 2)
        terms += [(1, b.pairJ(a, a)), (-1, x), (1, x.transpose((1, 0)))]
    for a, c in itertools.combinations(comps, 2):
        q = b.pairJ(a, c)
        terms += [(1, q), (-1, q.transpose((1, 0)))]
    tj = _outer(b.theta, b.jth_form)
    terms += [
        (R(Fraction(-1, 4)) * b.tn, b.omega_t),
        (Fraction(-1, 4), tj),
        (Fraction(1, 4), tj.transpose((1, 0))),
    ]
    return [
        ("star Ricci against the first Ricci form", ricstar_J - rho_t),
        ("the two Ricci forms disagree", rho_t - r_t),
        ("transfer to the minimal connection", r_t - rmin_t - b.pairJ(b.xi, b.xi)),
        ("componentwise expansion", r_t - _combine(*terms)),
    ]


def check_p46iii(b: Bundle) -> Parts:
    rho11 = b.rho11.to_tensor()
    rhomin_t = b.rho_min.to_tensor()
    comps = [b.xi1, b.xi2, b.xi3]
    terms = [(1, rhomin_t)] + [(1, b.pairE_J(a, a)) for a in comps]
    terms.append((R(Fraction(-1, 8)) * b.tn, b.omega_t))
    for a, c in itertools.combinations(comps, 2):
        q = b.pairE_J(a, c)
        terms += [(1, q), (-1, q.transpose((1, 0)))]
    x3 = _xi_at_vector(b.xi3, b.jth, 2)
    tj = _outer(b.theta, b.jth_form)
    terms += [
        (Fraction(-1, 2), x3),
        (Fraction(1, 2), x3.transpose((1, 0))),
        (Fraction(b.n - 2, 8), tj),
        (-Fraction(b.n - 2, 8), tj.transpose((1, 0))),
    ]
    return [
        ("transfer to the minimal connection", rho11 - rhomin_t - b.pairE_J(b.xi, b.xi)),
        ("componentwise expansion", rho11 - _combine(*terms)),
    ]


def check_p48i(b: Bundle) -> Parts:
    cc = b.curv.chern
    half_nm1 = R(Fraction(b.n - 1, 2))
    return [
        (None, cc.r - b.r_min - b.dJth.scaled(half_nm1)),
        (None, cc.r - b.rmin11 - b.dJth11.scaled(half_nm1)),
    ]


def check_p48ii(b: Bundle) -> Parts:
    n = b.n
    cc = b.curv.chern
    rho11 = b.rho11.to_tensor()
    dJth11 = b.dJth11.to_tensor()
    rho_chern = cc.rho.to_tensor()
    # (j, k) -> sum_{i,l} J_li (D xi3)_ijkl; no other check needs D^min xi3 whole
    div_j = b.A.minimal.covariant_derivative(b.A.torsion.xi3).trace_J(0, 3, b.S.J)
    tj = _outer(b.theta, b.jth_form)
    x3 = _xi_at_vector(b.xi3, b.jth, 2)
    rhs = _combine(
        (1, rho11),
        (-1, div_j),
        (1, div_j.transpose((1, 0))),
        (Fraction(-1, 2), dJth11),
        (R(Fraction(1, 2)) * b.dstar_theta, b.omega_t),
        (R(Fraction(2 * n - 1, 4)) * b.tn, b.omega_t),
        (Fraction(1, 4), tj),
        (Fraction(-1, 4), tj.transpose((1, 0))),
        (Fraction(n, 2), x3),
        (-Fraction(n, 2), x3.transpose((1, 0))),
        (-2, b.pairE_J(b.xi3, b.xi3)),
        (1, b.pairJ(b.xi3, b.xi3)),
    )
    return [(None, rho_chern - rhs)]


def check_p410(b: Bundle) -> Parts:
    n = b.n
    comb = b.curv.comb_split
    lhs = (comb.trace_part + comb.sym_invariant_part).scaled(R(Fraction(1, 2)))
    rmin11 = b.rmin11.to_tensor()
    p12 = b.pair(b.xi1, b.xi2)
    x3 = _xi_at_vector(b.xi3, b.th, 2)
    rhs = _combine(
        (2, rmin11.apply_J(1, b.S.J)),
        (-1, b.div3),
        (-Fraction(n - 2, 4), b.dth_mixed),
        (R(Fraction(1, 4)) * (b.dstar_theta + R(Fraction(2 * n - 7, 2)) * b.tn), b.g),
        (4, b.pair(b.xi1, b.xi1)),
        (2, b.pair(b.xi2, b.xi2)),
        (-1, b.pairE(b.xi2, b.xi2)),
        (-2, b.pair(b.xi3, b.xi3)),
        (-Fraction(n - 6, 8), _outer(b.theta, b.theta)),
        (-Fraction(n - 6, 8), _outer(b.jth_form, b.jth_form)),
        (1, p12),
        (Fraction(5, 2), p12.transpose((1, 0))),
        (Fraction(n - 6, 2), x3),
        (-2, x3.transpose((1, 0))),
    )
    return [(None, lhs - rhs)]


def check_c411(b: Bundle) -> Parts:
    n = b.n
    rw = form_inner(b.r_min, b.S.omega)
    rhs = (
        R(8) * rw
        + R(2 * (n - 1)) * b.dstar_theta
        + R((n - 3) * (n - 1)) * b.tn
        + R(8) * b.norms["W1"]
        + R(2) * b.norms["W2"]
        - R(4) * b.norms["W3"]
    )
    curv = b.curv
    return [
        ("combined trace", curv.s + R(3) * curv.s_star - rhs),
        ("scalar curvature route", curv.s - curv.s_from_torsion),
        ("star scalar curvature route", curv.s_star - curv.s_star_from_torsion),
    ]


def check_r47(b: Bundle) -> Parts:
    su = b.A.su
    return [(None, b.r_min + exterior_derivative(b.S.L, su.eta_hat).scaled(R(b.n)))]


# -- applicability guards ------------------------------------------------------


def _requires(*conditions: Tuple[Callable[[Bundle], bool], str]) -> Callable:
    """A guard: the reason of the first (holds, reason) condition that fails."""

    def guard(b: Bundle) -> Optional[str]:
        for holds, reason in conditions:
            if not holds(b):
                return reason
        return None

    return guard


def _lacks(*labels: str) -> Callable[[Bundle], bool]:
    """The Gray-Hervella class, as ``classify`` decided it, has none of these parts."""
    return lambda b: not any(label in b.A.gh_class.nonzero for label in labels)


_only_w1_w4 = _lacks("W2", "W3")
_integrable = _lacks("W1", "W2")

# (holds, reason) conditions; a guard tries its conditions in the order listed
_N_AT_LEAST_3 = (lambda b: b.n > 2, "needs complex dimension at least 3")
_N_IS_3 = (lambda b: b.n == 3, "needs complex dimension 3")
_N_IS_2 = (lambda b: b.n == 2, "only stated in dimension four")
_W1W4 = (_only_w1_w4, "structure is not of the class with only xi1 and xi4")
_W2W4 = (_lacks("W1", "W3"), "structure is not of the class with only xi2 and xi4")
_HAS_W1 = (lambda b: "W1" in b.A.gh_class.nonzero, "the cyclic component vanishes, nothing to force")
_SU3_CLASS = (_only_w1_w4, "needs only the cyclic and Lee components")
_NO_W3 = (_lacks("W3"), "the Hermitian non-Lee component is present")
_INTEGRABLE = (_integrable, "structure is not integrable")
_LEE_PLUS_ONE = (lambda b: _only_w1_w4(b) or _integrable(b),
                 "needs the Lee component together with only one other")
_SU = (lambda b: b.A.su is not None, "no complex volume data in the scalar ring")
_CHERN = (lambda b: b.curv.chern is not None, "Chern connection is not unitary")

_always = _requires()
_needs_nondegenerate_dtheta = _requires((
    lambda b: not b.A.dtheta.trivial_at_n2,
    "both sides carry the factor n - 2 and degenerate in dimension four",
))
_integrable_chern = _requires(_INTEGRABLE, _CHERN)


# -- the catalog ---------------------------------------------------------------

CHECKS: List[Tuple[str, str, Callable, Callable]] = [
    ("F1", "algebra closure and almost complex structure axioms", _always, check_f1),
    ("F2", "Levi-Civita connection is metric, torsion-free, pair-symmetric", _always, check_f2),
    ("F3", "minimal connection parallelizes the metric, omega and J", _always, check_f3),
    ("F4", "intrinsic torsion invariants and connection difference", _always, check_f4),
    ("F5", "d omega reconstruction and class characterizations", _always, check_f5),
    ("F6", "component split, orthogonality and norm relations", _always, check_f6),
    ("F7", "differential consistency around the Lee form", _always, check_f7),
    ("L3.1a", "full trace of the derivative of the Lee vector", _always, check_l31a),
    ("L3.1b", "invariant two-form identity from the second derivative of omega", _always, check_l31b),
    ("L3.1c", "anti-invariant identity from the second derivative of omega", _always, check_l31c),
    ("E3.1", "second exterior derivative of omega through the torsion", _always, check_e31),
    ("R3.3", "curvature transfer between the two natural connections", _always, check_r33),
    ("P3.4R", "the omega-trace component of d theta vanishes", _always, check_p34r),
    ("P3.4H", "invariant traceless component of d theta from the torsion", _needs_nondegenerate_dtheta, check_p34h),
    ("P3.4S", "anti-invariant component of d theta from the torsion", _needs_nondegenerate_dtheta, check_p34s),
    ("P3.6i", "closed Lee form for the antisymmetric-plus-Lee class", _requires(_N_AT_LEAST_3, _W2W4), check_p36i),
    ("P3.6ii", "vanishing invariant part of d theta for the cyclic-plus-Lee class", _requires(_N_AT_LEAST_3, _W1W4), check_p36ii),
    ("P3.6c", "invariant cyclic-plus-Lee structure with nonzero cyclic part has zero Lee form", _requires(_N_AT_LEAST_3, _W1W4, _HAS_W1), check_p36c),
    ("SU3", "structure equations of the complex volume refinement", _requires(_N_IS_3, _SU3_CLASS, _SU), check_su3),
    ("E4.1", "Ricci difference from the torsion trace tensor", _always, check_e41),
    ("E4.2", "invariant part of the Ricci difference, componentwise", _always, check_e42),
    ("L4.1", "difference of the two scalar curvatures", _always, check_l41),
    ("E4.4", "anti-invariant star-Ricci, first torsion expression", _always, check_e44),
    ("E4.5", "anti-invariant star-Ricci, second torsion expression", _always, check_e45),
    ("SIGMA", "symmetric anti-invariant Ricci from the torsion trace (corrected)", _always, check_sigma),
    ("P4.3i", "anti-invariant star-Ricci without the third component", _requires(_NO_W3), check_p43i),
    ("P4.3ia", "anti-invariant star-Ricci for the cyclic-plus-Lee class", _requires(_W1W4), check_p43ia),
    ("P4.3ib", "anti-invariant star-Ricci in dimension four", _requires(_N_IS_2), check_p43ib),
    ("P4.3iia", "anti-invariant star-Ricci for integrable structures", _requires(_INTEGRABLE), check_p43iia),
    ("P4.3iib", "traceless invariant Ricci difference vanishes for integrable surfaces", _requires(_INTEGRABLE, _N_IS_2), check_p43iib),
    ("P4.4", "symmetric anti-invariant Ricci for the one-extra-component classes (corrected)", _requires(_LEE_PLUS_ONE), check_p44),
    ("P4.6i", "unitary connections: invariant first Ricci form, closed second", _always, check_p46i),
    ("P4.6ii", "Levi-Civita Ricci forms from the minimal connection", _always, check_p46ii),
    ("P4.6iii", "invariant part of the first Ricci form from the minimal connection", _always, check_p46iii),
    ("P4.8i", "second Ricci form of the Chern connection", _integrable_chern, check_p48i),
    ("P4.8ii", "first Ricci form of the Chern connection, componentwise", _integrable_chern, check_p48ii),
    ("P4.10", "invariant combined Ricci tensor from the torsion (corrected)", _always, check_p410),
    ("C4.11", "scalar curvature formulas through the minimal connection (corrected)", _always, check_c411),
    ("R4.7", "second Ricci form of the minimal connection is exact", _requires(_SU), check_r47),
]


def identifiers() -> List[str]:
    return [c[0] for c in CHECKS]


def run_suite(
    S: AlmostHermitianStructure, analysis: Optional[Analysis] = None
) -> AuditReport:
    """Run every catalog check on one structure."""
    if analysis is None:
        analysis = analyze(S)
    b = Bundle(analysis)
    results = []
    for ident, desc, guard, fn in CHECKS:
        # The audit reports every identity: an exception from one check
        # (guard included) is that check's failure, not the suite's.
        try:
            reason = guard(b)
            if reason is not None:
                results.append(IdentityCheck(ident, desc, "skip", reason))
                continue
            detail = witness(fn(b))
        except Exception as exc:
            detail = f"error: {type(exc).__name__}: {exc}"
        if detail is None:
            results.append(IdentityCheck(ident, desc, "pass"))
        else:
            results.append(IdentityCheck(ident, desc, "fail", detail))
    return AuditReport(S.name or "unnamed", results)


# -- randomized compatible Kaehler forms ---------------------------------------

_COSSIN = [
    (PyFraction(3, 5), PyFraction(4, 5)),
    (PyFraction(5, 13), PyFraction(12, 13)),
    (PyFraction(8, 17), PyFraction(15, 17)),
    (PyFraction(7, 25), PyFraction(24, 25)),
    (PyFraction(20, 29), PyFraction(21, 29)),
]


def random_rotation(d: int, rng: random.Random, factors: int) -> Matrix:
    """Product of exact Givens rotations with rational cosine-sine pairs."""
    M = identity_matrix(d)
    for _ in range(factors):
        i, j = rng.sample(range(d), 2)
        cv, sv = rng.choice(_COSSIN)
        c, s = R(cv), R(sv)
        row_i = [c * M[i][t] + s * M[j][t] for t in range(d)]
        row_j = [c * M[j][t] - s * M[i][t] for t in range(d)]
        M[i], M[j] = row_i, row_j
    return M


def rotated_structure(
    base: AlmostHermitianStructure, rng: random.Random, tag: str, factors: int = 0
) -> AlmostHermitianStructure:
    """A new compatible Kaehler form on the same algebra and metric."""
    d = base.L.dim
    if factors <= 0:
        # enough mixing at low cost; six-dimensional exact arithmetic is dense
        factors = 4 if d <= 4 else 2
    O = random_rotation(d, rng, factors)
    omega = transform_form(base.omega, O)
    return build_structure(base.L, omega, name=f"{base.name}-sample-{tag}")


def random_suite(samples: int, seed: int) -> List[AuditReport]:
    """Audit randomized compatible forms over the catalog algebras."""
    from .catalog import ENTRIES

    rng = random.Random(seed)
    bases = [e.build() for e in ENTRIES]
    reports = []
    for k in range(samples):
        base = bases[k % len(bases)]
        S = rotated_structure(base, rng, str(k))
        reports.append(run_suite(S))
    return reports

"""Type decomposition of the intrinsic torsion and U(n)-splits of small tensors.

Everything here is linear algebra over the exact scalar ring: eigenspace
projections for the four torsion classes, the Lee form, and the J-eigenspace
splits of 2-forms and bilinear forms that the curvature identities are
phrased in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple, Union

from .multilinear import (
    Form, Tensor, codifferential, exterior_derivative, form_inner, metric_tensor,
    sort_with_sign,
)
from .scalars import (
    HALF, ZERO, Accumulator, Fraction, RatLike, Scalar, affine_roots, format_scalar,
    rational_roots,
)
from .structure import AlmostHermitianStructure, StructureError

_MINUS_HALF = -HALF
_THIRD = Scalar.rational(Fraction(1, 3))
_QUARTER = Scalar.rational(Fraction(1, 4))


class DecompositionError(StructureError):
    pass


# -- Lee form ---------------------------------------------------------------


def lee_form(S: AlmostHermitianStructure) -> Form:
    """theta = -(1/(n-1)) J d*omega.

    The audit's F7 checks it against the second route through the torsion
    trace, sum_i (xi_{e_i} e_i)^flat = ((n-1)/2) theta.
    """
    n = S.n
    if n < 2:
        raise DecompositionError("the Lee form needs dimension at least 4")
    dstar = codifferential(S.L, S.omega, S.vol)
    inv = Scalar.rational(Fraction(-1, n - 1))
    return S.J_oneform(dstar).scaled(inv)


# -- Gray-Hervella split ----------------------------------------------------


def _t_involution(S: AlmostHermitianStructure, xi: Tensor) -> Tensor:
    """(T xi)_X Y = -J xi_{JX} Y; the +1 eigenspace is the Hermitian half.

    (T xi)_ijk = sum_{l,m} J_li J_mk xi_ljm, which is J_(1) J_(3) xi.
    """
    return xi.apply_J(0, S.J).apply_J(2, S.J)


def _xi4_tensor(S: AlmostHermitianStructure, theta: Form) -> Tensor:
    """Closed-form W4 component:

    4 xi_(4)X Y = <X,Y> theta# - theta(Y) X - <JX,Y> J theta# + (J theta)(Y) JX,

    that is A - A^T in the last two slots for A = g (x) theta - J^T (x) J theta,
    where -J^T = J_(1) g.
    """
    th = theta.to_tensor().scaled(_QUARTER)
    jth = S.J_oneform(theta).to_tensor().scaled(_QUARTER)
    g = metric_tensor(S.L.dim)
    A = g.tensor(th) + g.apply_J(0, S.J).tensor(jth)
    return A - A.transpose((0, 2, 1))


def _cyclic_part(t: Tensor) -> Tensor:
    """1/3 (t_ijk + t_jki + t_kij); each stored t_abc lands at abc, cab and bca."""
    acc = Accumulator()
    for (a, b, c), v in t.coeffs.items():
        acc.add((a, b, c), _THIRD, v)
        acc.add((c, a, b), _THIRD, v)
        acc.add((b, c, a), _THIRD, v)
    return Tensor.of_nonzero(t.dim, 3, acc.result())


@dataclass
class TorsionDecomposition:
    xi1: Tensor
    xi2: Tensor
    xi3: Tensor
    xi4: Tensor
    theta: Form
    norms: Dict[str, Scalar]

    def parts(self) -> List[Tuple[str, Tensor]]:
        return [("W1", self.xi1), ("W2", self.xi2), ("W3", self.xi3), ("W4", self.xi4)]


def split_torsion(
    S: AlmostHermitianStructure, xi: Tensor, theta: Form
) -> TorsionDecomposition:
    """Split xi into the four irreducible pieces.

    The audit's F6 checks the split: the pieces sum to xi, each is an
    intrinsic-torsion tensor, they are pairwise orthogonal, and W1 and W3
    vanish in dimension four.
    """
    t_xi = _t_involution(S, xi)
    xi4 = _xi4_tensor(S, theta)
    # xi3 is the Hermitian half (xi + T xi) / 2 less xi4; xi1 and xi2 split
    # the other half
    xi3 = _combine((HALF, xi), (HALF, t_xi), (-1, xi4))
    minus = _combine((HALF, xi), (_MINUS_HALF, t_xi))
    xi1 = _cyclic_part(minus)
    xi2 = minus - xi1
    norms = {label: part.inner(part)
             for label, part in (("W1", xi1), ("W2", xi2), ("W3", xi3), ("W4", xi4))}
    return TorsionDecomposition(xi1, xi2, xi3, xi4, theta, norms)


@dataclass
class GHClass:
    nonzero: Tuple[str, ...]
    label: str
    special_parameters: Dict[str, List[Fraction]]
    # components whose norm has several parameters, so no values were listed
    special_unlisted: Tuple[str, ...] = ()


_NAMED = {
    (): "Kaehler",
    ("W1",): "nearly Kaehler",
    ("W2",): "almost Kaehler",
    ("W3",): "balanced Hermitian",
    ("W4",): "locally conformal Kaehler",
    ("W3", "W4"): "Hermitian",
    ("W1", "W2"): "quasi-Kaehler",
}


def classify(dec: TorsionDecomposition) -> GHClass:
    nonzero = tuple(label for label, part in dec.parts() if not part.is_zero())
    label = _NAMED.get(nonzero)
    if label is None:
        label = " + ".join(nonzero)
        if "W1" not in nonzero and "W2" not in nonzero:
            label += " (Hermitian)"
    # Rational parameter values at which a nonzero component vanishes.  It
    # vanishes where all its entries do, and its norm is the sum of their
    # squares, so the entries and the norm give the same rational values.
    # When every entry is affine in the parameter they are read from the
    # entries, one division each; otherwise they are the rational roots of
    # the norm.  Only rational values are listed, so the listing is complete
    # when every entry is affine in the parameter with rational coefficients;
    # otherwise a real root can be missed ((q^2 - 3)^2 / 2 and q - sqrt(3)
    # vanish at q = sqrt(3), which is not listed).  Root listing is
    # univariate: a norm in several parameters is named in
    # ``special_unlisted`` instead.
    special: Dict[str, List[Fraction]] = {}
    unlisted: List[str] = []
    parts = dict(dec.parts())
    for name, norm in dec.norms.items():
        if norm.is_zero():
            continue
        if len(norm.parameters()) > 1:
            unlisted.append(name)
            continue
        roots = affine_roots(parts[name].coeffs.values())
        if roots is None:
            roots = rational_roots(norm)
        if roots:
            for r in roots:
                special.setdefault(format_scalar(Scalar.rational(r)), []).append(name)
    merged = {k: sorted(v) for k, v in special.items()}
    return GHClass(nonzero, label, merged, tuple(sorted(unlisted)))


# -- U(n)-splits of 2-forms and bilinear forms ------------------------------


@dataclass
class TwoFormSplit:
    r_omega_part: Form
    lambda0_part: Form
    lambda20_part: Form

    def pieces(self) -> List[Tuple[str, Form]]:
        return [
            ("R omega", self.r_omega_part),
            ("lambda_0^{1,1}", self.lambda0_part),
            ("[[lambda^{2,0}]]", self.lambda20_part),
        ]


def split_two_form(S: AlmostHermitianStructure, alpha: Form) -> TwoFormSplit:
    if alpha.degree != 2:
        raise DecompositionError("split_two_form expects a 2-form")
    rotated = S.rotate_two_form(alpha)
    invariant = (alpha + rotated).scaled(HALF)
    anti = (alpha - rotated).scaled(HALF)
    trace = form_inner(alpha, S.omega) * Scalar.rational(Fraction(1, S.n))
    r_part = S.omega.scaled(trace)
    return TwoFormSplit(r_part, invariant - r_part, anti)


@dataclass
class BilinearSplit:
    trace_part: Tensor
    sym_invariant_part: Tensor  # [lambda_0^{1,1}] as a symmetric tensor
    sym_anti_part: Tensor  # [[sigma^{2,0}]]
    skew_invariant_part: Tensor  # [lambda^{1,1}] as a 2-form-shaped tensor
    skew_anti_part: Tensor  # [[lambda^{2,0}]]


def split_bilinear(S: AlmostHermitianStructure, b: Tensor) -> BilinearSplit:
    """Full U(n)-split of a rank-2 tensor (not necessarily symmetric)."""
    if b.rank != 2:
        raise DecompositionError("split_bilinear expects a rank-2 tensor")
    dim = S.L.dim
    flipped = b.transpose((1, 0))
    sym = _combine((HALF, b), (HALF, flipped))
    skew = _combine((HALF, b), (_MINUS_HALF, flipped))

    sym_rot = S.rotate_bilinear(sym)
    sym_inv = _combine((HALF, sym), (HALF, sym_rot))
    sym_anti = _combine((HALF, sym), (_MINUS_HALF, sym_rot))
    tr = sum((sym_inv(i, i) for i in range(dim)), ZERO)
    trace_part = Tensor(dim, 2)
    coeff = tr * Scalar.rational(Fraction(1, dim))
    if not coeff.is_zero():
        for i in range(dim):
            trace_part.set((i, i), coeff)
    sym_inv0 = sym_inv - trace_part

    skew_rot = S.rotate_bilinear(skew)
    skew_inv = _combine((HALF, skew), (HALF, skew_rot))
    skew_anti = _combine((HALF, skew), (_MINUS_HALF, skew_rot))
    return BilinearSplit(trace_part, sym_inv0, sym_anti, skew_inv, skew_anti)


# -- dtheta and the three displayed component identities ---------------------


def contract_trace_vector(xi_part: Tensor) -> List[Scalar]:
    """sum_i xi_{e_i} e_i as a component vector."""
    trace = xi_part.contract(0, 1)
    return [trace.coeffs.get((k,), ZERO) for k in range(xi_part.dim)]


@dataclass
class DThetaReport:
    dtheta: Form
    split: TwoFormSplit
    trivial_at_n2: bool


def _combine(*terms: Tuple[Union[Scalar, RatLike], Tensor]) -> Tensor:
    """The sum of c * t over (coefficient, tensor) terms of one rank.

    Each coefficient becomes a Scalar once per term, not once per entry; a
    coefficient of 1 or -1 adds the entries as they are.
    """
    acc = Accumulator()
    add = acc.add
    for c, t in terms:
        if type(c) is not Scalar:
            if c == 1 or c == -1:
                sign = int(c)
                for k, v in t.coeffs.items():
                    add(k, v, sign=sign)
                continue
            c = Scalar.rational(c)
        for k, v in t.coeffs.items():
            add(k, c, v)
    return Tensor.of_nonzero(terms[0][1].dim, terms[0][1].rank, acc.result())


def _pair_xi(a: Tensor, b: Tensor, slot: int = 1) -> Tensor:
    """(j, k) -> a and b contracted on ``slot`` and on their last slot.

    ``slot`` is 0 or 1; the other of the first two slots carries j in a and k
    in b.  With the default slot this is <a_{e_j} e_i, b_{e_k} e_i> summed
    over i, with slot 0 it is <a_{e_i} e_j, b_{e_i} e_k>.
    """
    free = 1 - slot
    by_pair = b.group_by(slot, 2)
    acc = Accumulator()
    add = acc.add
    for idx, v in a.coeffs.items():
        for kidx, u in by_pair.get((idx[slot], idx[2]), ()):
            add((idx[free], kidx[free]), v, u)
    return Tensor.of_nonzero(a.dim, 2, acc.result())


def _xi_at_vector(xi_part: Tensor, vec: List[Scalar], slot: int = 0) -> Tensor:
    """(j, k) -> xi_part with ``vec`` in ``slot`` and j, k in the other two.

    With the default slot this is <xi_part_{vec} e_j, e_k>; with slot 2 it is
    <xi_part_{e_j} e_k, vec>.
    """
    acc = Accumulator()
    for idx, v in xi_part.coeffs.items():
        acc.add(idx[:slot] + idx[slot + 1 :], vec[idx[slot]], v)
    return Tensor.of_nonzero(xi_part.dim, 2, acc.result())


def dtheta_report(S: AlmostHermitianStructure, theta: Form) -> DThetaReport:
    """dtheta and its U(n)-split.

    The audit checks the displayed identities: P3.4R that the R-omega
    component vanishes, P3.4H and P3.4S the torsion-side expressions for the
    other two.  For n = 2 those carry the factor (n-2)/2 = 0 on both sides,
    and the report flags them trivial.
    """
    dtheta = exterior_derivative(S.L, theta)
    return DThetaReport(dtheta, split_two_form(S, dtheta), S.n == 2)


# -- characterization helpers ------------------------------------------------


def domega_from_torsion(S: AlmostHermitianStructure, xi: Tensor) -> Form:
    """Reconstruct d omega from 1/2 domega(Y,Z,W) = <xi_Y Z, JW> + cyclic.

    <xi_a e_b, J e_c> = sum_m xi_abm J_mc is -(J_(3) xi)_abc, which enters the
    coefficient of the sorted triple when (a, b, c) is one of its cyclic
    orders, that is an even permutation of it.
    """
    acc = Accumulator()
    for idx, v in xi.apply_J(2, S.J).coeffs.items():
        key, sign = sort_with_sign(idx)
        if sign == 1:
            acc.add(key, v)
    out = Form(S.L.dim, 3)
    out.coeffs = acc.result()
    return out.scaled(-2)

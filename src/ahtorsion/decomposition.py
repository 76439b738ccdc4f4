"""Type decomposition of the intrinsic torsion and U(n)-splits of small tensors.

Everything here is linear algebra over the exact scalar ring: eigenspace
projections for the four torsion classes, the Lee form, and the J-eigenspace
splits of 2-forms and bilinear forms that the curvature identities are
phrased in.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from .multilinear import Form, Matrix, Tensor, codifferential, exterior_derivative, form_inner
from .scalars import ONE, ZERO, Fraction, RatLike, Scalar, format_scalar, rational_roots
from .structure import AlmostHermitianStructure, Connection, StructureError


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
    """(T xi)_X Y = -J xi_{JX} Y; the +1 eigenspace is the Hermitian half."""
    dim = S.L.dim
    out = Tensor(dim, 3)
    for (l, j, m), v in xi.coeffs.items():
        for i in range(dim):
            a = S.J[l][i]
            if a.is_zero():
                continue
            for k in range(dim):
                b = S.J[m][k]
                if not b.is_zero():
                    out.add_to((i, j, k), a * b * v)
    return out


def _xi4_tensor(S: AlmostHermitianStructure, theta: Form) -> Tensor:
    """Closed-form W4 component:

    4 xi_(4)X Y = <X,Y> theta# - theta(Y) X - <JX,Y> J theta# + (J theta)(Y) JX.
    """
    dim = S.L.dim
    th = [theta.coeffs.get((k,), ZERO) for k in range(dim)]
    jth_form = S.J_oneform(theta)
    jth = [jth_form.coeffs.get((k,), ZERO) for k in range(dim)]
    quarter = Scalar.rational(Fraction(1, 4))
    out = Tensor(dim, 3)
    for i in range(dim):
        for j in range(dim):
            gij = ONE if i == j else ZERO
            kij = S.J[j][i]  # <J e_i, e_j>
            for k in range(dim):
                gik = ONE if i == k else ZERO
                kik = S.J[k][i]
                v = gij * th[k] - th[j] * gik - kij * jth[k] + jth[j] * kik
                if not v.is_zero():
                    out.set((i, j, k), quarter * v)
    return out


def _cyclic_part(t: Tensor) -> Tensor:
    """1/3 (t_ijk + t_jki + t_kij); each stored t_abc lands at abc, cab and bca."""
    third = Scalar.rational(Fraction(1, 3))
    acc: Dict[Tuple[int, int, int], Scalar] = {}
    for (a, b, c), v in t.coeffs.items():
        for key in ((a, b, c), (c, a, b), (b, c, a)):
            acc[key] = acc[key] + v if key in acc else v
    return Tensor(t.dim, 3, {key: third * v for key, v in acc.items() if not v.is_zero()})


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
    half = Scalar.rational(Fraction(1, 2))
    t_xi = _t_involution(S, xi)
    plus = (xi + t_xi).scaled(half)
    minus = (xi - t_xi).scaled(half)

    xi4 = _xi4_tensor(S, theta)
    xi3 = plus - xi4
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
    # Parameter values at which a nonzero component degenerates: roots of the
    # squared-norm polynomials.  Only rational roots can occur for a sum of
    # squares with rational data, so the exact listing is complete.  Root
    # listing is univariate: a norm in several parameters is named in
    # ``special_unlisted`` instead.
    special: Dict[str, List[Fraction]] = {}
    unlisted: List[str] = []
    for name, norm in dec.norms.items():
        if norm.is_zero():
            continue
        if len(norm.parameters()) > 1:
            unlisted.append(name)
            continue
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
    half = Scalar.rational(Fraction(1, 2))
    rotated = S.rotate_two_form(alpha)
    invariant = (alpha + rotated).scaled(half)
    anti = (alpha - rotated).scaled(half)
    trace = form_inner(alpha, S.omega) * Scalar.rational(Fraction(1, S.n))
    r_part = S.omega.scaled(trace)
    lam0 = invariant - r_part
    if r_part + lam0 + anti != alpha:
        raise DecompositionError("2-form split lost mass")  # pragma: no cover
    return TwoFormSplit(r_part, lam0, anti)


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
    half = Scalar.rational(Fraction(1, 2))
    flipped = b.transpose((1, 0))
    sym = (b + flipped).scaled(half)
    skew = (b - flipped).scaled(half)

    sym_rot = S.rotate_bilinear(sym)
    sym_inv = (sym + sym_rot).scaled(half)
    sym_anti = (sym - sym_rot).scaled(half)
    tr = sum((sym_inv(i, i) for i in range(dim)), ZERO)
    trace_part = Tensor(dim, 2)
    coeff = tr * Scalar.rational(Fraction(1, dim))
    if not coeff.is_zero():
        for i in range(dim):
            trace_part.set((i, i), coeff)
    sym_inv0 = sym_inv - trace_part

    skew_rot = S.rotate_bilinear(skew)
    skew_inv = (skew + skew_rot).scaled(half)
    skew_anti = (skew - skew_rot).scaled(half)
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
    lambda0_residual: Optional[Tensor]
    lambda20_residual: Optional[Tensor]


def _combine(*terms: Tuple[Union[Scalar, RatLike], Tensor]) -> Tensor:
    """The sum of c * t over (coefficient, rank-2 tensor) terms.

    Each coefficient becomes a Scalar once per term, not once per entry, and
    every product scatters into one dict.
    """
    acc: Dict[Tuple[int, ...], Scalar] = {}
    for c, t in terms:
        c = c if isinstance(c, Scalar) else Scalar.rational(c)
        unit = c == ONE
        for k, v in t.coeffs.items():
            p = v if unit else c * v
            acc[k] = acc[k] + p if k in acc else p
    return Tensor(terms[0][1].dim, 2, acc)


def _div_trace(Dxi: Tensor) -> Tensor:
    """(j, k) -> sum_i <(nabla^{U(n)}_{e_i} xi_part)_{e_j} e_k, e_i>."""
    return Dxi.contract(0, 3)


def _trace_slot(Dxi: Tensor) -> Tensor:
    """(j, k) -> sum_i <(nabla^{U(n)}_{e_i} xi_part)_{e_i} e_j, e_k>."""
    return Dxi.contract(0, 1)


def _pair_xi(a: Tensor, b: Tensor, slot: int = 1, J: Optional[Matrix] = None) -> Tensor:
    """(j, k) -> a and b contracted on ``slot`` and on their last slot.

    ``slot`` is 0 or 1; the other of the first two slots carries j in a and k
    in b.  With the default slot this is <a_{e_j} e_i, b_{e_k} e_i> summed
    over i, with slot 0 it is <a_{e_i} e_j, b_{e_i} e_k>.  Given ``J``, the
    contracted index of b is J e_i instead of e_i.
    """
    free = 1 - slot
    by_pair = b.group_by(slot, 2)
    acc: Dict[Tuple[int, int], Scalar] = {}
    for idx, v in a.coeffs.items():
        i, j, m = idx[slot], idx[free], idx[2]
        if J is None:
            targets = [(i, v)]
        else:
            targets = [(l, v * J[l][i]) for l in range(a.dim) if not J[l][i].is_zero()]
        for l, vw in targets:
            for kidx, u in by_pair.get((l, m), ()):
                key = (j, kidx[free])
                p = vw * u
                acc[key] = acc[key] + p if key in acc else p
    return Tensor(a.dim, 2, acc)


def _xi_at_vector(xi_part: Tensor, vec: List[Scalar], slot: int = 0) -> Tensor:
    """(j, k) -> xi_part with ``vec`` in ``slot`` and j, k in the other two.

    With the default slot this is <xi_part_{vec} e_j, e_k>; with slot 2 it is
    <xi_part_{e_j} e_k, vec>.
    """
    acc: Dict[Tuple[int, ...], Scalar] = {}
    for idx, v in xi_part.coeffs.items():
        t = idx[slot]
        if not vec[t].is_zero():
            key = idx[:slot] + idx[slot + 1 :]
            p = vec[t] * v
            acc[key] = acc[key] + p if key in acc else p
    return Tensor(xi_part.dim, 2, acc)


def dtheta_report(
    S: AlmostHermitianStructure,
    theta: Form,
    dec: TorsionDecomposition,
    minimal: Connection,
) -> DThetaReport:
    """Components of dtheta and the two torsion-side expressions for them.

    The R-omega component vanishes on every structure; the audit's P3.4R
    checks it.  For n = 2 the two displayed right sides carry the factor
    (n-2)/2 = 0 and the report flags them trivial instead of dividing by zero.
    """
    n = S.n
    dtheta = exterior_derivative(S.L, theta)
    split = split_two_form(S, dtheta)
    if n == 2:
        return DThetaReport(dtheta, split, True, None, None)

    theta_sharp = [theta.coeffs.get((k,), ZERO) for k in range(S.L.dim)]
    Dxi1 = minimal.covariant_derivative(dec.xi1)
    Dxi3 = minimal.covariant_derivative(dec.xi3)
    half_nm2 = Fraction(n - 2, 2)
    div3 = _div_trace(Dxi3)
    p12 = _pair_xi(dec.xi1, dec.xi2)
    p31 = _pair_xi(dec.xi3, dec.xi1)
    p32 = _pair_xi(dec.xi3, dec.xi2)
    x3 = _xi_at_vector(dec.xi3, theta_sharp, 2)
    # [lambda_0^{1,1}] identity of the dtheta proposition, as left side - right side
    lam0_res = _combine(
        (half_nm2, split.lambda0_part.to_tensor()),
        (1, div3),
        (-1, div3.transpose((1, 0))),
        (-half_nm2, x3),
        (half_nm2, x3.transpose((1, 0))),
        (Fraction(3, 2), p12),
        (Fraction(-3, 2), p12.transpose((1, 0))),
    )
    # [[lambda^{2,0}]] identity
    lam20_res = _combine(
        (half_nm2, split.lambda20_part.to_tensor()),
        (3, _trace_slot(Dxi1)),
        (-1, _trace_slot(Dxi3)),
        (-1, p31),
        (1, p31.transpose((1, 0))),
        (Fraction(1, 2), p32),
        (Fraction(-1, 2), p32.transpose((1, 0))),
        (-Fraction(3 * (n - 3), 2), _xi_at_vector(dec.xi1, theta_sharp)),
        (Fraction(n - 1, 2), _xi_at_vector(dec.xi3, theta_sharp)),
    )
    return DThetaReport(dtheta, split, False, lam0_res, lam20_res)


# -- characterization helpers ------------------------------------------------


def domega_from_torsion(S: AlmostHermitianStructure, xi: Tensor) -> Form:
    """Reconstruct d omega from 1/2 domega(Y,Z,W) = <xi_Y Z, JW> + cyclic."""
    dim = S.L.dim
    out = Form(dim, 3)
    two = Scalar.rational(2)
    for idx in itertools.combinations(range(dim), 3):
        y, z, w = idx
        acc = ZERO
        for (a, b, c) in ((y, z, w), (w, y, z), (z, w, y)):
            for m in range(dim):
                v = xi(a, b, m)
                if not v.is_zero():
                    acc = acc + v * S.J[m][c]
        if not acc.is_zero():
            out.coeffs[idx] = two * acc
    return out

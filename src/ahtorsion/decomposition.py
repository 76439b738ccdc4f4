"""Type decomposition of the intrinsic torsion and U(n)-splits of small tensors.

Everything here is linear algebra over the exact scalar ring: eigenspace
projections for the four torsion classes, the Lee form, and the J-eigenspace
splits of 2-forms and bilinear forms that the curvature identities are
phrased in.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Tuple

from .multilinear import Form, Tensor, _combine, add_rotated, codifferential, exterior_derivative
from .scalars import HALF, ZERO, Accumulator, Fraction, Scalar, format_scalar, rational_roots
from .structure import AlmostHermitianStructure, StructureError

_MINUS_HALF = -HALF


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
    dstar = codifferential(S.L, S.omega)
    inv = Scalar.rational(Fraction(-1, n - 1))
    return S.J_oneform(dstar).scaled(inv)


# -- Gray-Hervella split ----------------------------------------------------


def _xi4_tensor(S: AlmostHermitianStructure, theta: Form) -> Tensor:
    """Closed-form W4 component:

    4 xi_(4)X Y = <X,Y> theta# - theta(Y) X - <JX,Y> J theta# + (J theta)(Y) JX,

    that is A - A^T in the last two slots for A = g (x) theta - J^T (x) J theta,
    where -J^T = J_(1) g.  g (x) v stores v_k at (i, i, k) for every i, its
    transpose at (i, k, i), and J_(1) rotates them inside the one sum.
    """
    dim = S.L.dim

    def entries(v: Form) -> Tuple[Tensor, Tensor]:
        """v_k at (i, i, k) and at (i, k, i), for every i."""
        c = v.coeffs.items()
        return (Tensor.of_nonzero(dim, 3, {(i, i, k): x for (k,), x in c for i in range(dim)}),
                Tensor.of_nonzero(dim, 3, {(i, k, i): x for (k,), x in c for i in range(dim)}))

    a, a_t = entries(theta)
    b, b_t = entries(S.J_oneform(theta))
    quarter = Fraction(1, 4)
    return _combine((quarter, a), (-quarter, a_t), (quarter, b, (0,)), (-quarter, b_t, (0,)),
                    J=S.J)


def _cyclic_part(t: Tensor) -> Tensor:
    """1/3 (t_ijk + t_jki + t_kij); each stored t_abc lands at abc, cab and bca."""
    acc = Accumulator()
    for (a, b, c), v in t.coeffs.items():
        acc.add((a, b, c), v)
        acc.add((c, a, b), v)
        acc.add((b, c, a), v)
    return Tensor.of_nonzero(t.dim, 3, acc.result(3))


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
    # T xi, (T xi)_X Y = -J xi_{JX} Y, is J_(1) J_(3) xi: (T xi)_ijk =
    # sum_{l,m} J_li J_mk xi_ljm.  Its +1 eigenspace is the Hermitian half;
    # read twice below, it is built once
    t_xi = _combine((1, xi, (0, 2)), J=S.J)
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
    special_parameters: Dict[str, List[str]]  # value -> components vanishing there
    # components whose entries name several parameters, so no values were listed
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
    # Rational parameter values at which a nonzero component vanishes, that
    # is where all its entries do (``rational_roots``), in ascending order.
    # Only rational values are listed, so the listing is complete when every
    # entry is affine in the parameter with rational coefficients; otherwise
    # a real root can be missed (q^2 - 3 and q - sqrt(3) vanish at q =
    # sqrt(3), which is not listed).  Root listing is univariate: a component
    # whose entries name several parameters is named in ``special_unlisted``
    # instead.
    special: Dict[Fraction, List[str]] = {}
    unlisted: List[str] = []
    for name, part in dec.parts():
        if part.is_zero():
            continue
        roots = rational_roots(part.coeffs.values())
        if roots is None:
            unlisted.append(name)
            continue
        for r in roots:
            special.setdefault(r, []).append(name)
    listed = {format_scalar(Scalar.rational(r)): special[r] for r in sorted(special)}
    return GHClass(nonzero, label, listed, tuple(unlisted))


# -- U(n)-splits of 2-forms and bilinear forms ------------------------------


def lambda11_part(S: AlmostHermitianStructure, alpha: Form) -> Form:
    """The [lambda^{1,1}] part (alpha + alpha(J., J.)) / 2 of a 2-form, in
    one pass: alpha(J., J.) is J_(1) J_(2) alpha."""
    t = alpha.to_tensor()
    return _combine((HALF, t), (HALF, t, (0, 1)), J=S.J).antisymmetrize_to_form()


@dataclass
class TwoFormSplit:
    r_omega_part: Form
    lambda0_part: Form
    lambda20_part: Form


def split_two_form(S: AlmostHermitianStructure, alpha: Form) -> TwoFormSplit:
    if alpha.rank != 2:
        raise DecompositionError("split_two_form expects a 2-form")
    invariant = lambda11_part(S, alpha)
    anti = alpha - invariant
    trace = alpha.inner(S.omega) * Scalar.rational(Fraction(1, S.n))
    r_part = S.omega.scaled(trace)
    return TwoFormSplit(r_part, invariant - r_part, anti)


class BilinearSplit:
    """The U(n)-split of the symmetric half of a rank-2 tensor b, not necessarily
    symmetric.  Each part is computed on first read and kept.  The skew half of
    b is a 2-form, and ``split_two_form`` splits it."""

    def __init__(self, S: AlmostHermitianStructure, b: Tensor):
        self.S, self.b = S, b

    @cached_property
    def _sym(self) -> Tuple[Tensor, Tensor]:
        """(h, h(J., J.)) for h the symmetric half of b."""
        h = _combine((HALF, self.b), (HALF, self.b.transpose((1, 0))))
        return h, _combine((1, h, (0, 1)), J=self.S.J)

    @cached_property
    def trace_part(self) -> Tensor:
        """(tr b / dim) g: J is orthogonal, so b(J., J.) and b have one trace."""
        dim = self.b.dim
        coeff = sum((self.b(i, i) for i in range(dim)), ZERO) * Scalar.rational(Fraction(1, dim))
        return Tensor(dim, 2, {(i, i): coeff for i in range(dim)})

    @cached_property
    def sym_invariant_part(self) -> Tensor:
        """[lambda_0^{1,1}] as a symmetric tensor."""
        sym, rot = self._sym
        return _combine((HALF, sym), (HALF, rot), (-1, self.trace_part))

    @cached_property
    def sym_anti_part(self) -> Tensor:
        """[[sigma^{2,0}]]."""
        sym, rot = self._sym
        return _combine((HALF, sym), (_MINUS_HALF, rot))


def split_bilinear(S: AlmostHermitianStructure, b: Tensor) -> BilinearSplit:
    """Full U(n)-split of a rank-2 tensor (not necessarily symmetric)."""
    if b.rank != 2:
        raise DecompositionError("split_bilinear expects a rank-2 tensor")
    return BilinearSplit(S, b)


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
    orders, that is an even permutation of it.  The weights of -2 J_(3) xi
    go straight to the sorted triple: no rotated copy of xi is built.
    """
    acc = Accumulator()

    def add_cyclic(key, x, y, f):
        a, b, c = key
        if a < b < c or b < c < a or c < a < b:  # a cyclic order of the sorted triple
            acc.add(tuple(sorted(key)), x, y, f)

    den = add_rotated(add_cyclic, xi.coeffs, -2, (2,), S.J)
    return Form.of_nonzero(S.L.dim, 3, acc.result(den))

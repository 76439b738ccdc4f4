"""Lie algebras by structure constants and exact invariant tensor calculus.

Everything is expressed in a fixed basis that is declared orthonormal for the
metric; forms are stored on strictly increasing index tuples and tensors as
sparse maps from index tuples to their nonzero Scalars (the stored entries).
Indices are 0-based internally.  Forms and tensors share one base,
``_Entries``, which holds ``dim``, ``rank`` and the stored entries and
defines their linear algebra once: sums, differences, scaling, equality and
the inner product.  A form's rank is its degree.

Kernels that contract tensors iterate stored entries only: they never sweep
the full index cube reading absent entries.  Each adds its products into one
``scalars.Accumulator`` keyed by output index, which keeps raw integer sums
and normalises each output entry once, when the result is built; where a
kernel joins two tensors on a slot, it first groups one operand's entries by
that slot (``Tensor.group_by``).  Constant rational weights enter as integer
factors over the lcm of their denominators, divided out once per entry.
The almost complex structure J acts only through four primitives here:
``Tensor.apply_J`` (J_(a) t, on one slot), ``Tensor.trace_J`` (a J-weighted
trace over two slots), the rotated terms of ``_combine`` and
``linear_combination``, whose J weights enter the sum as factors
(``add_rotated``), and the pair kernel ``_pair_xi`` with J; no other code
reads J's tables.  A composite J_(a) J_(b) t or a signed sum
J_(a) t +- J_(b) t is a sum of rotated terms: a rotation read once goes into
its consumer's sum, and one read twice is built once, as
``_combine((1, t, (a, b)), J=J)``.  ``S.J`` is an ``Endomorphism``: it
indexes as the matrix and carries its stored rows alone, each weight scaled
to one denominator in one form, an integer factor or a Scalar one; there is
no table of pair products.  When J is a signed permutation (each row one +-1
entry), ``apply_J`` moves each stored entry to its new index instead of
summing.  Forms and tensors built from ``Accumulator.result()`` are taken as
they are (``of_nonzero``), since those maps never hold a zero.  The
difference of two tensors or forms with equal entries is the empty one,
found by comparing the maps, with no arithmetic: canonical entries are
equal exactly when their values are.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from .scalars import ONE, ZERO, Accumulator, Scalar, scalar_sqrt


class GeometryError(ValueError):
    pass


def sort_with_sign(indices: Sequence[int]) -> Tuple[Tuple[int, ...], int]:
    """Sorted tuple and permutation sign; sign 0 on repeated indices."""
    idx = list(indices)
    if len(set(idx)) != len(idx):
        return tuple(sorted(idx)), 0
    sign = 1
    for i in range(len(idx)):
        for j in range(i + 1, len(idx)):
            if idx[i] > idx[j]:
                sign = -sign
    return tuple(sorted(idx)), sign


def _picker(slots: Sequence[int]):
    """The function taking an index tuple to the tuple of its indices in ``slots``."""
    if len(slots) > 1:
        return operator.itemgetter(*slots)
    return (lambda k, s=slots[0]: (k[s],)) if slots else (lambda k: ())


class LieAlgebra:
    """Even-dimensional Lie algebra given by structure constants.

    ``C`` is the stored rank-3 tensor C_ijk = c^k_ij, so that
    [e_i, e_j] = sum_k c^k_ij e_k; ``bracket`` reads the same constants as a
    coefficient map.
    """

    def __init__(
        self,
        dim: int,
        brackets: Dict[Tuple[int, int], Dict[int, Scalar]],
        extension_d: int = 0,
    ):
        if dim <= 0 or dim % 2 != 0:
            raise GeometryError(f"dimension must be even and positive, got {dim}")
        self.dim = dim
        self.extension_d = extension_d
        acc = Accumulator()
        for (i, j), coeffs in brackets.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise GeometryError(f"bracket index out of range: ({i}, {j})")
            if i == j:
                raise GeometryError(f"bracket [e_{i}, e_{i}] must vanish")
            sign = 1 if i < j else -1
            for k, v in coeffs.items():
                if not (0 <= k < dim):
                    raise GeometryError(f"bracket target out of range: {k}")
                acc.add((min(i, j), max(i, j), k), v, sign=sign)
        self._brackets: Dict[Tuple[int, int], Dict[int, Scalar]] = {}
        for (i, j, k), v in acc.result().items():
            self._brackets.setdefault((i, j), {})[k] = v
            self._brackets.setdefault((j, i), {})[k] = -v

    @cached_property
    def C(self) -> "Tensor":
        """The structure constants C_ijk = c^k_ij as a stored rank-3 tensor."""
        return Tensor(self.dim, 3, {
            (i, j, k): v for (i, j), row in self._brackets.items() for k, v in row.items()
        })

    @cached_property
    def _by_target(self) -> Dict[int, List[Tuple[int, int, Scalar]]]:
        """d e^k = -sum_{i<j} c^k_ij e^{ij}: the brackets with i < j by target k."""
        out: Dict[int, List[Tuple[int, int, Scalar]]] = {}
        for (i, j), row in self._brackets.items():
            if i < j:
                for k, v in row.items():
                    out.setdefault(k, []).append((i, j, v))
        return out

    def bracket(self, i: int, j: int) -> Dict[int, Scalar]:
        """[e_i, e_j] as a sparse coefficient map."""
        return dict(self._brackets.get((i, j), {}))

    def jacobi_check(self) -> Tuple[bool, Optional[Tuple[int, int, int, int]]]:
        """Exact Jacobi test; on failure returns the offending (i, j, k, l):
        the least triple i < j < k with an e_l component, and its least l.
        Only stored c^m_ab c^l_mc enter: each (a, b, c) that is an even order
        of its sorted triple adds to that triple's cyclic sum."""
        by_first = self.C.group_by(0)
        acc = Accumulator()
        for (a, b, m), v in self.C.coeffs.items():
            for (_, c, l), w in by_first.get((m,), ()):
                # an even order ascends twice around its cycle, a repeated index once
                if (a < b) + (b < c) + (c < a) == 2:
                    acc.add(tuple(sorted((a, b, c))) + (l,), v, w)
        nonzero = acc.result()
        return (False, min(nonzero)) if nonzero else (True, None)


class _Entries:
    """Stored entries over ``dim`` basis vectors with ``rank`` slots: the
    sparse linear algebra that forms and tensors share.

    ``coeffs`` maps index tuples to nonzero Scalars.  Operands of ``+``,
    ``-`` and ``inner`` must be of one class, dimension and rank.
    """

    @classmethod
    def of_nonzero(cls, dim: int, rank: int, coeffs: Dict[Tuple[int, ...], Scalar]):
        """The object stored on ``coeffs`` itself, whose keys are the class's
        own index tuples and whose values are all nonzero, as
        ``Accumulator.result()`` returns: no entry is checked again."""
        t = cls.__new__(cls)
        t.dim, t.rank, t.coeffs = dim, rank, coeffs
        return t

    def _check_like(self, other: "_Entries"):
        if type(other) is not type(self) or self.dim != other.dim or self.rank != other.rank:
            raise GeometryError(
                f"operand is not a {type(self).__name__} of rank {self.rank} in dimension {self.dim}")

    def __add__(self, other):
        self._check_like(other)
        return self.of_nonzero(self.dim, self.rank,
                               linear_combination([(1, self.coeffs), (1, other.coeffs)]))

    def __neg__(self):
        return self.of_nonzero(self.dim, self.rank, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        """Entry-wise difference; the empty map when the two are equal, which
        for canonical entries means equal in value, so a residual that
        cancels is never summed."""
        self._check_like(other)
        a, b = self.coeffs, other.coeffs
        return self.of_nonzero(self.dim, self.rank,
                               {} if a == b else linear_combination([(1, a), (-1, b)]))

    def scaled(self, s):
        return self.of_nonzero(self.dim, self.rank, linear_combination([(s, self.coeffs)]))

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.dim == other.dim and self.rank == other.rank and self.coeffs == other.coeffs

    def is_zero(self) -> bool:
        return not self.coeffs

    def inner(self, other) -> Scalar:
        """Full index-wise contraction: sum t_I u_I over the stored I, which
        for forms is the sum over sorted tuples, <a, b> (orthonormal frame)."""
        self._check_like(other)
        a, b = self.coeffs, other.coeffs
        if len(b) < len(a):
            a, b = b, a
        acc = Accumulator()
        for k, v in a.items():
            w = b.get(k)
            if w is not None:
                acc.add((), v, w)
        return acc.result().get((), ZERO)


class Form(_Entries):
    """Invariant p-form stored on strictly increasing index tuples; its
    degree p is its ``rank``."""

    def __init__(self, dim: int, degree: int, coeffs: Optional[Dict[Tuple[int, ...], Scalar]] = None):
        # degree > dim is allowed as a representation of the zero form
        if degree < 0:
            raise GeometryError(f"bad form degree {degree} in dimension {dim}")
        if degree > dim and coeffs:
            raise GeometryError(f"nonzero form of degree {degree} in dimension {dim}")
        self.dim = dim
        self.rank = degree
        acc = Accumulator()
        for idx, val in (coeffs or {}).items():
            key, sign = sort_with_sign(idx)
            if sign:
                acc.add(key, val, sign=sign)
        self.coeffs = acc.result()

    def __call__(self, *indices: int) -> Scalar:
        if len(indices) != self.rank:
            raise GeometryError("wrong number of arguments for form evaluation")
        key, sign = sort_with_sign(indices)
        if sign == 0:
            return ZERO
        val = self.coeffs.get(key, ZERO)
        return val if sign == 1 else -val

    def wedge(self, other: "Form") -> "Form":
        if self.dim != other.dim:
            raise GeometryError("dimension mismatch in wedge")
        # above degree dim every key repeats an index, so none is stored
        acc = Accumulator()
        for i1, v1 in self.coeffs.items():
            for i2, v2 in other.coeffs.items():
                key, sign = sort_with_sign(i1 + i2)
                if sign:
                    acc.add(key, v1, v2, sign)
        return Form.of_nonzero(self.dim, self.rank + other.rank, acc.result())

    def to_tensor(self) -> "Tensor":
        # the sign of each slot permutation, found once rather than per entry
        perms = [(_picker(perm), sort_with_sign(perm)[1] == 1)
                 for perm in itertools.permutations(range(self.rank))]
        coeffs: Dict[Tuple[int, ...], Scalar] = {}
        for key, val in self.coeffs.items():
            neg = -val
            for pick, even in perms:
                coeffs[pick(key)] = val if even else neg
        return Tensor.of_nonzero(self.dim, self.rank, coeffs)

    def __repr__(self) -> str:
        from .render import format_form

        return f"Form({format_form(self)})"


class Tensor(_Entries):
    """Covariant tensor over the fixed orthonormal basis, stored sparsely.

    ``coeffs`` holds only the nonzero entries; an absent index tuple reads as
    zero.
    """

    def __init__(self, dim: int, rank: int, coeffs: Optional[Dict[Tuple[int, ...], Scalar]] = None):
        self.dim = dim
        self.rank = rank
        self.coeffs = {tuple(k): v for k, v in (coeffs or {}).items() if not v.is_zero()}

    def __call__(self, *indices: int) -> Scalar:
        if len(indices) != self.rank:
            raise GeometryError("wrong number of tensor arguments")
        return self.coeffs.get(tuple(indices), ZERO)

    def group_by(self, *slots: int) -> Dict[Tuple[int, ...], List[Tuple[Tuple[int, ...], Scalar]]]:
        """Stored entries (index, value) keyed by their indices in ``slots``."""
        out: Dict[Tuple[int, ...], List[Tuple[Tuple[int, ...], Scalar]]] = {}
        key = _picker(slots)
        for k, v in self.coeffs.items():
            out.setdefault(key(k), []).append((k, v))
        return out

    def tensor(self, other: "Tensor") -> "Tensor":
        if self.dim != other.dim:
            raise GeometryError("dimension mismatch in tensor product")
        return Tensor(self.dim, self.rank + other.rank, {
            k1 + k2: v1 * v2
            for k1, v1 in self.coeffs.items()
            for k2, v2 in other.coeffs.items()
        })

    def contract(self, slot_a: int, slot_b: int) -> "Tensor":
        """Metric trace over two slots (orthonormal frame: equal indices)."""
        r = self.rank
        if not (0 <= slot_a < r and 0 <= slot_b < r) or slot_a == slot_b:
            raise GeometryError(f"invalid contraction slots ({slot_a}, {slot_b})")
        a, b = min(slot_a, slot_b), max(slot_a, slot_b)
        acc = Accumulator()
        for k, v in self.coeffs.items():
            if k[a] == k[b]:
                acc.add(k[:a] + k[a + 1 : b] + k[b + 1 :], v)
        return Tensor.of_nonzero(self.dim, r - 2, acc.result())

    def apply_J(self, slot: int, J: "Endomorphism") -> "Tensor":
        """The J_(i) operator: (J_(i) t)(..., X_i, ...) = -t(..., J X_i, ...).

        J acts on one slot; a composite or a signed sum over two slots is a
        sum of rotated terms of ``_combine``.
        """
        # t has index m in this slot; J X with X = e_j hits m with weight J[m][j].
        perm = J.signed_perm
        if perm is None:
            return Tensor.of_nonzero(self.dim, self.rank,
                                     linear_combination([(1, self.coeffs, (slot,))], J))
        # one weight -+1 per m, each in its own column: every stored entry
        # moves to its own new index, as itself or negated
        coeffs = {}
        for k, v in self.coeffs.items():
            j, s = perm[k[slot]]
            coeffs[k[:slot] + (j,) + k[slot + 1 :]] = v if s == 1 else -v
        return Tensor.of_nonzero(self.dim, self.rank, coeffs)

    def trace_J(self, slot_a: int, slot_b: int, J: "Endomorphism",
                increasing: bool = False) -> "Tensor":
        """J-weighted trace over two slots: sum_{x, y} J_yx t(..., x, ..., y, ...)
        with x in ``slot_a`` and y in ``slot_b``, the other slots kept in order.

        The J analogue of ``contract``, fused: no rotated copy of t is built.
        With ``increasing``, only the entries on strictly increasing indices
        are summed, the ones a form keeps.
        """
        r = self.rank
        if not (0 <= slot_a < r and 0 <= slot_b < r) or slot_a == slot_b:
            raise GeometryError(f"invalid trace slots ({slot_a}, {slot_b})")
        a, b = min(slot_a, slot_b), max(slot_a, slot_b)
        rows = J.rows
        acc = Accumulator()
        for k, v in self.coeffs.items():
            hit = rows[k[slot_b]].get(k[slot_a])
            if hit is not None:
                key = k[:a] + k[a + 1 : b] + k[b + 1 :]
                if increasing and not all(x < y for x, y in zip(key, key[1:])):
                    continue
                acc.add(key, v, *hit)
        return Tensor.of_nonzero(self.dim, r - 2, acc.result(J.den))

    def transpose(self, perm: Sequence[int]) -> "Tensor":
        """Reorder slots: result(i_perm[0], ..., i_perm[r-1]) = self(i_0, ..., i_{r-1})."""
        # a slot permutation maps distinct index tuples to distinct ones
        inv = [0] * self.rank
        for src, dst in enumerate(perm):
            inv[dst] = src
        pick = _picker(inv)
        return Tensor.of_nonzero(self.dim, self.rank, {pick(k): v for k, v in self.coeffs.items()})

    def is_antisymmetric_pair(self, a: int, b: int) -> bool:
        """Whether swapping slots a and b negates the tensor: each stored entry
        and the one at its swapped index must be each other's negatives."""
        a, b = min(a, b), max(a, b)
        coeffs = self.coeffs
        for k, v in coeffs.items():
            w = coeffs.get(k[:a] + (k[b],) + k[a + 1 : b] + (k[a],) + k[b + 1 :])
            if w is None or not v.is_negation_of(w):
                return False
        return True

    def antisymmetrize_to_form(self) -> Form:
        """The form of a fully antisymmetric tensor: its entries on strictly
        increasing indices.  Antisymmetry is the caller's to ensure; it is not
        checked here."""
        return Form.of_nonzero(self.dim, self.rank, {
            k: v for k, v in self.coeffs.items() if all(a < c for a, c in zip(k, k[1:]))})


Matrix = List[List[Scalar]]


def _stored_rows(M: Matrix) -> List[List[Tuple[int, Scalar]]]:
    """Each row of a matrix as its (column, entry) pairs with a nonzero entry."""
    return [[(j, w) for j, w in enumerate(row) if w] for row in M]


def _weight(w: Scalar, den: int, r: Optional[Tuple[int, int]]) -> Tuple[Optional[Scalar], int]:
    """w * den in its one form, r being w's ratio or None: (None, n) when w * den
    is the integer n, as for every rational w; (w * den, 1) otherwise.  An
    entry v of t enters times the weight and an integer f as add(key, v, w, f * n)."""
    return (None, r[0] * (den // r[1])) if r else (w * den, 1)


class Endomorphism:
    """A square matrix A with its action on tensor slots prepared once.

    It indexes as the matrix, ``A[i][j]``.  ``den`` is D, the lcm of the
    denominators of its plain-rational entries.  ``rows[m]`` maps the column
    j of each stored entry w of row m to w * D in its one form (``_weight``),
    and no table of pair products is kept.  ``signed_perm`` is None unless
    every row holds a single +-1 in a column of its own; then
    ``signed_perm[m]`` is that row's (column, -w), the sign
    ``Tensor.apply_J`` gives the moved entry.
    """

    def __init__(self, matrix: Matrix):
        self._matrix = [list(row) for row in matrix]
        stored = [[(j, w, w.ratio()) for j, w in row] for row in _stored_rows(self._matrix)]
        self.den = math.lcm(*(r[1] for row in stored for _, _, r in row if r))
        self.rows: List[Dict[int, Tuple[Optional[Scalar], int]]] = [
            {j: _weight(w, self.den, r) for j, w, r in row} for row in stored
        ]
        single = [next(iter(row.items())) for row in self.rows if len(row) == 1]
        columns = {j for j, (w, n) in single if w is None and n in (1, -1)}
        self.signed_perm: Optional[List[Tuple[int, int]]] = (
            [(j, -n) for j, (_, n) in single] if self.den == 1 and len(columns) == len(self.rows)
            else None
        )

    def __getitem__(self, i: int) -> List[Scalar]:
        return self._matrix[i]

    def __iter__(self):
        return iter(self._matrix)


def add_rotated(add, coeffs: dict, f: int, slots: Tuple[int, ...],
                J: Optional[Endomorphism]) -> int:
    """Adds f times J_(a) t (slots (a,)), J_(a) J_(b) t (slots (a, b)) or t,
    t stored on ``coeffs``, through ``add`` as ``Accumulator.add`` takes its
    terms, and returns D^len(slots) for the caller to divide out: each J
    weight enters times D, in its one form (``_weight``)."""
    if not slots:
        for k, v in coeffs.items():
            add(k, v, None, f)
        return 1
    rows = J.rows
    if len(slots) == 1:
        s = slots[0]
        f = -f
        for k, v in coeffs.items():
            head, tail = k[:s], k[s + 1 :]
            for j, (w, n) in rows[k[s]].items():
                add(head + (j,) + tail, v, w, f * n)
        return J.den
    # the two minus signs cancel: t's entry times the two weights, read from
    # their rows, whose Scalar parts are multiplied only when both have one;
    # the two rotations commute, so the lower slot is taken first
    a, b = sorted(slots)
    for k, v in coeffs.items():
        mid, tail, row_b = k[a + 1 : b], k[b + 1 :], rows[k[b]].items()
        for j, (x, nx) in rows[k[a]].items():
            head, fx = k[:a] + (j,) + mid, f * nx
            for i, (y, ny) in row_b:
                add(head + (i,) + tail, v, y if x is None else x if y is None else x * y, fx * ny)
    return J.den * J.den


def linear_combination(terms, J: Optional[Endomorphism] = None) -> dict:
    """The entries of the sum over (c, t) terms of c * t and over (c, t, slots)
    terms of c * J_(slots) t, each t a coefficient map (``add_rotated``).

    Rational c and J's weights enter as integer factors over lcm(denominators
    of c) * D^k, k the most slots of a term, divided out once per output
    entry; any other c enters as the product c * D^k, on a plain term only.
    J acts at most once on each slot of a term.
    """
    # ratios: (numerator, denominator) of each rational c, None for any other
    # Scalar; k: the most slots of a term (one plain loop costs the least)
    ratios, k = [], 0
    for term in terms:
        c = term[0]
        ratios.append(c.ratio() if type(c) is Scalar else (c.numerator, c.denominator))
        if len(term) > 2 and len(term[2]) > k:
            k = len(term[2])
    den = math.lcm(*[r[1] for r in ratios if r])
    D = J.den if k else 1
    acc = Accumulator()
    add = acc.add
    for r, term in zip(ratios, terms):
        c, t = term[0], term[1]
        slots = term[2] if len(term) > 2 else ()
        if slots and len(set(slots)) < len(slots):
            raise GeometryError(f"J acts twice on slot {slots[0]}")
        if r is None:
            if slots:
                raise GeometryError("a rotated term needs a rational coefficient")
            c = c * (den * D**k)
            for key, v in t.items():
                add(key, c, v)
        elif r[0]:
            add_rotated(add, t, r[0] * (den // r[1]) * D ** (k - len(slots)), slots, J)
    return acc.result(den * D**k)


def _combine(*terms, J: Optional[Endomorphism] = None) -> "Tensor":
    """The sum over terms of one rank, each (c, t) for c * t or (c, t, slots)
    for c times t rotated by J on ``slots`` (``linear_combination``)."""
    first = terms[0][1]
    return Tensor.of_nonzero(first.dim, first.rank, linear_combination(
        [(term[0], term[1].coeffs) + tuple(term[2:]) for term in terms], J))


def _pair_xi(a: Tensor, b: Tensor, slot: int = 1,
             J: Optional[Endomorphism] = None) -> Tensor:
    """(j, k) -> a and b contracted on ``slot`` and on their last slot; with
    J, b's index i in ``slot`` is J e_i, whose rotation of b is not built.

    ``slot`` is 0 or 1; the other of the first two slots carries j in a and k
    in b.  With the default slot this is <a_{e_j} e_i, b_{e_k} e_i> summed
    over i, or <a_{e_j} e_i, b_{e_k} J e_i> with J; with slot 0 it is
    <a_{e_i} e_j, b_{e_i} e_k>, or <a_{e_i} e_j, b_{J e_i} e_k> with J.
    """
    free = 1 - slot
    acc = Accumulator()
    add = acc.add
    if J is None:
        by_pair = b.group_by(slot, 2)
        for idx, v in a.coeffs.items():
            for kidx, u in by_pair.get((idx[slot], idx[2]), ()):
                add((idx[free], kidx[free]), v, u)
        return Tensor.of_nonzero(a.dim, 2, acc.result())
    # b's entry at m in ``slot`` enters b(..., J e_i, ...) at each i with
    # weight J[m][i] * D, and meets a's entries with i there and b's last index
    by_pair = a.group_by(slot, 2)
    rows = J.rows
    for kidx, u in b.coeffs.items():
        k, last = kidx[free], kidx[2]
        for i, (w, n) in rows[kidx[slot]].items():
            x = u if w is None else w * u
            for idx, v in by_pair.get((i, last), ()):
                add((idx[free], k), v, x, n)
    return Tensor.of_nonzero(a.dim, 2, acc.result(J.den))


def identity_matrix(dim: int) -> Matrix:
    return [[ONE if i == j else ZERO for j in range(dim)] for i in range(dim)]


def metric_tensor(dim: int) -> Tensor:
    """The metric g as a rank-2 tensor: the identity in the orthonormal frame."""
    return Tensor(dim, 2, {(i, i): ONE for i in range(dim)})


def mat_inverse(a: Matrix) -> Matrix:
    """Exact inverse by Gaussian elimination; entries must be parameter-free."""
    n = len(a)
    m = [[a[i][j] for j in range(n)] + [ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if not m[r][col].is_zero():
                piv = r
                break
        if piv is None:
            raise GeometryError("singular matrix")
        m[col], m[piv] = m[piv], m[col]
        inv = ONE / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and not m[r][col].is_zero():
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


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
    return LieAlgebra(n, brackets, extension_d=L.extension_d)


# -- exterior calculus ---------------------------------------------------------


def exterior_derivative(L: LieAlgebra, alpha: Form) -> Form:
    """Invariant d by the Leibniz rule from d e^k = -sum_{i<j} c^k_ij e^{ij}.

    Each stored a_K e^K and each position s of K with a bracket (i < j)
    targeting K_s adds c^{K_s}_ij a_K e^{K[:s] ij K[s+1:]}, which is
    -(-1)^s sigma times the sorted basis form (sigma the sorting sign).
    """
    acc = Accumulator()
    for K, v in alpha.coeffs.items():
        for s, k in enumerate(K):
            for i, j, c in L._by_target.get(k, ()):
                key, sign = sort_with_sign(K[:s] + (i, j) + K[s + 1 :])
                if sign:
                    acc.add(key, c, v, sign if s % 2 else -sign)
    return Form.of_nonzero(L.dim, alpha.rank + 1, acc.result())


def hodge_star(alpha: Form) -> Form:
    """Defined by a ^ *b = <a, b> e^{1...2n} for same-degree a, b: the frame's
    own orientation.  The Kaehler volume (-1)^(n(n+1)/2) omega^n / n! is
    +-e^{1...2n}, as Pf(omega)^2 = det J = 1, and every reader applies *
    twice (d* = -*d*, and *(*d psi ^ psi)), so its sign cancels.
    """
    n = alpha.dim
    full = set(range(n))
    acc = Accumulator()
    for idx, val in alpha.coeffs.items():
        comp = tuple(sorted(full - set(idx)))
        _, sign = sort_with_sign(idx + comp)
        acc.add(comp, val, None, sign)
    return Form.of_nonzero(n, n - alpha.rank, acc.result())


def codifferential(L: LieAlgebra, alpha: Form) -> Form:
    """d* = -*d* on all degrees in even dimension."""
    if alpha.rank == 0:
        raise GeometryError("codifferential needs degree >= 1")
    return -hodge_star(exterior_derivative(L, hodge_star(alpha)))


def gram_schmidt(G: Matrix, ambient_d: int = 0) -> Matrix:
    """Rows P[i] of the result express an orthonormal basis in the input basis.

    Requires every square root encountered to lie in Q(sqrt(d)); otherwise the
    metric is rejected.
    """
    n = len(G)
    for i in range(n):
        for j in range(n):
            if G[i][j] != G[j][i]:
                raise GeometryError("metric matrix must be symmetric")
            if G[i][j].parameters():
                raise GeometryError("metric matrix must be parameter-free")

    def g(u: Sequence[Scalar], w: Sequence[Scalar]) -> Scalar:
        acc = ZERO
        for a in range(n):
            if u[a].is_zero():
                continue
            for b in range(n):
                acc = acc + u[a] * w[b] * G[a][b]
        return acc

    basis: List[List[Scalar]] = []
    for i in range(n):
        u = [ONE if j == i else ZERO for j in range(n)]
        for prev in basis:
            proj = g(u, prev)
            if not proj.is_zero():
                u = [x - proj * y for x, y in zip(u, prev)]
        norm2 = g(u, u)
        if norm2.is_zero():
            raise GeometryError("metric is degenerate")
        norm = scalar_sqrt(norm2, ambient_d)
        if norm is None:
            raise GeometryError(
                f"orthonormalization requires sqrt({norm2}) outside the scalar ring"
            )
        inv = ONE / norm
        basis.append([inv * x for x in u])
    return basis

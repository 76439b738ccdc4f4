"""The audit's tensor formulas against the per-entry code they replaced.

Thirteen checks write each side of an identity as one linear combination of
whole rank-2 tensors.  The references below are the per-(j, k) functions
those checks evaluated before, one scalar at a time.  On every catalog
entry, two seeded rotated samples and one generated single-parameter file,
the last residual part a check returns must equal its reference,
also where the identity's hypotheses fail and the residual is not zero.  On
corrupted bundles every one of the thirteen checks must fail with the
witness that the per-entry code reported.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

from ahtorsion import audit
from ahtorsion.catalog import ENTRIES, get, structure_from_data
from ahtorsion.curvature import analyze
from ahtorsion.decomposition import _pair_xi, _xi_at_vector, split_two_form
from ahtorsion.multilinear import Tensor, exterior_derivative
from ahtorsion.scalars import ZERO, Fraction, Scalar

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import generate  # noqa: E402

R = Scalar.rational


# -- per-entry references ------------------------------------------------------


def _tensor_from(fun, dim: int) -> Tensor:
    out = Tensor(dim, 2)
    for j in range(dim):
        for k in range(dim):
            v = fun(j, k)
            if not v.is_zero():
                out.set((j, k), v)
    return out


def lam11(b, alpha):
    """The [lambda^{1,1}] part of a 2-form through the three-piece split."""
    sp = split_two_form(b.S, alpha)
    return sp.r_omega_part + sp.lambda0_part


def theta_sym_hessian(b, j, k):
    S, d = b.S, b.dim
    acc = b.Dth(j, k) + b.Dth(k, j)
    for a in range(d):
        wa_j = S.J[a][j]
        wa_k = S.J[a][k]
        for c in range(d):
            if not wa_j.is_zero() and not S.J[c][k].is_zero():
                acc = acc - wa_j * S.J[c][k] * b.Dth(a, c)
            if not wa_k.is_zero() and not S.J[c][j].is_zero():
                acc = acc - wa_k * S.J[c][j] * b.Dth(a, c)
    return acc


def theta_hessian_mixed(b, j, k):
    S, d = b.S, b.dim
    acc = b.Dth(j, k)
    for a in range(d):
        wa = S.J[a][j]
        if wa.is_zero():
            continue
        for c in range(d):
            wc = S.J[c][k]
            if not wc.is_zero():
                acc = acc + wa * wc * b.Dth(a, c)
    return acc


def ref_l31b(b):
    S, d, n = b.S, b.dim, b.n
    coef = R(Fraction(n - 2, n - 1))
    # D^min_{e_j} of the Lee trace vector, the dense loop over Gamma_jam
    gamma = b.A.minimal.gamma
    dv = [
        [sum((b.xi4vec[a] * gamma(j, a, m) for a in range(d)), ZERO) for m in range(d)]
        for j in range(d)
    ]
    p12 = _pair_xi(b.xi1, b.xi2)
    div3 = b.div3

    def rhs(j, k):
        v = -coef * dv[j][k] + coef * dv[k][j]
        v = v - R(2) * div3(j, k)
        v = v + R(2) * div3(k, j)
        t1 = ZERO
        t2 = ZERO
        for a in range(d):
            wa_j = S.J[a][j]
            wa_k = S.J[a][k]
            for m in range(d):
                if not wa_j.is_zero() and not S.J[m][k].is_zero():
                    t1 = t1 + wa_j * dv[a][m] * S.J[m][k]
                if not wa_k.is_zero() and not S.J[m][j].is_zero():
                    t2 = t2 + wa_k * dv[a][m] * S.J[m][j]
        v = v - coef * t1 + coef * t2
        v = v - R(3) * p12(j, k)
        v = v + R(3) * p12(k, j)
        return v

    return _tensor_from(rhs, d)


def ref_l31c(b):
    d, n = b.dim, b.n
    v4 = b.xi4vec
    p31 = _pair_xi(b.xi3, b.xi1)
    p32 = _pair_xi(b.xi3, b.xi2)
    ts1 = b.trace1
    ts3 = b.trace3
    ts4 = b.trace4
    v4_xi1 = _xi_at_vector(b.xi1, v4)
    v4_xi2 = _xi_at_vector(b.xi2, v4)
    v4_xi3 = _xi_at_vector(b.xi3, v4)

    def rhs(j, k):
        v = R(3) * ts1(j, k)
        v = v - ts3(j, k)
        v = v + R(n - 2) * ts4(j, k)
        v = v - p31(j, k) + p31(k, j)
        v = v + R(Fraction(1, 2)) * p32(j, k)
        v = v - R(Fraction(1, 2)) * p32(k, j)
        v = v - R(Fraction(n - 5, n - 1)) * v4_xi1(j, k)
        v = v - R(Fraction(n - 2, n - 1)) * v4_xi2(j, k)
        v = v + v4_xi3(j, k)
        return v

    return _tensor_from(rhs, d)


def ref_e42(b):
    d, n = b.dim, b.n
    half = R(Fraction(1, 2))
    p11 = _pair_xi(b.xi1, b.xi1)
    p12 = _pair_xi(b.xi1, b.xi2)
    e22 = b.pairE(b.xi2, b.xi2)
    div3 = b.div3

    def rhs(j, k):
        v = R(-2) * div3(j, k)
        v = v - R(Fraction(n - 2, 2)) * theta_hessian_mixed(b, j, k)
        if j == k:
            v = v + half * (b.dstar_theta + R(Fraction(2 * n - 3, 2)) * b.tn)
        v = v + R(4) * p11(j, k)
        v = v - R(2) * e22(j, k)
        v = v - R(Fraction(n - 2, 4)) * (b.th[j] * b.th[k] + b.jth[j] * b.jth[k])
        v = v - R(2) * p12(j, k)
        v = v + p12(k, j)
        v = v + R(n - 2) * sum((b.th[t] * b.xi3(j, k, t) for t in range(d)), ZERO)
        return v

    sp = b.curv.diff_split
    lhs = sp.trace_part + sp.sym_invariant_part
    return lhs - _tensor_from(rhs, d)


def ref_e44(b):
    d, n = b.dim, b.n
    p13 = _pair_xi(b.xi1, b.xi3)
    p23 = _pair_xi(b.xi2, b.xi3)
    th_xi1 = _xi_at_vector(b.xi1, b.th)
    th_xi2 = _xi_at_vector(b.xi2, b.th)
    ts1 = b.trace1
    ts2 = b.trace2

    def rhs(j, k):
        v = R(2) * ts1(j, k)
        v = v - ts2(j, k)
        v = v + R(Fraction(n - 1, 2)) * b.dtheta_lam20(j, k)
        v = v + p13(j, k) - p13(k, j)
        v = v - R(n - 3) * th_xi1(j, k)
        v = v - R(Fraction(1, 2)) * p23(j, k)
        v = v + R(Fraction(1, 2)) * p23(k, j)
        v = v + R(Fraction(n, 2)) * th_xi2(j, k)
        return v

    return b.ric_star_skew - _tensor_from(rhs, d)


def ref_e45(b):
    d, n = b.dim, b.n
    th_xi1 = _xi_at_vector(b.xi1, b.th)
    th_xi2 = _xi_at_vector(b.xi2, b.th)
    th_xi3 = _xi_at_vector(b.xi3, b.th)
    ts1 = b.trace1
    ts2 = b.trace2
    ts3 = b.trace3

    def rhs(j, k):
        v = -ts1(j, k)
        v = v - ts2(j, k)
        v = v + ts3(j, k)
        v = v + R(Fraction(1, 2)) * b.dtheta_lam20(j, k)
        v = v + R(Fraction(n - 3, 2)) * th_xi1(j, k)
        v = v + R(Fraction(n, 2)) * th_xi2(j, k)
        v = v - R(Fraction(n - 1, 2)) * th_xi3(j, k)
        return v

    return b.ric_star_skew - _tensor_from(rhs, d)


def ref_p44(b):
    d = b.dim
    div2 = b.div2

    def rhs(j, k):
        v = -div2(j, k) - div2(k, j)
        v = v - R(Fraction(1, 4)) * (
            theta_sym_hessian(b, j, k) + b.th[j] * b.th[k] - b.jth[j] * b.jth[k]
        )
        return v

    return b.curv.diff_split.sym_anti_part - _tensor_from(rhs, d)


def ref_p43i(b):
    d, n = b.dim, b.n
    th_xi2 = _xi_at_vector(b.xi2, b.th)
    ts2 = b.trace2

    def rhs(j, k):
        v = -ts2(j, k)
        v = v + R(Fraction(n + 1, 6)) * b.dtheta_lam20(j, k)
        v = v + R(Fraction(n, 2)) * th_xi2(j, k)
        return v

    return b.ric_star_skew - _tensor_from(rhs, d)


def ref_p43ib(b):
    d = b.dim
    th_xi2 = _xi_at_vector(b.xi2, b.th)
    ts2 = b.trace2

    def rhs(j, k):
        v = -ts2(j, k)
        v = v + R(Fraction(1, 2)) * b.dtheta_lam20(j, k)
        v = v + th_xi2(j, k)
        return v

    return b.ric_star_skew - _tensor_from(rhs, d)


def ref_p43iia(b):
    d, n = b.dim, b.n
    th_xi3 = _xi_at_vector(b.xi3, b.th)
    ts3 = b.trace3

    def rhs(j, k):
        v = ts3(j, k)
        v = v - R(Fraction(n - 1, 2)) * th_xi3(j, k)
        return v

    t = _tensor_from(rhs, d).scaled(R(Fraction(n - 1, n - 2)))
    return b.ric_star_skew - t


def ref_p46ii(b):
    d = b.dim
    r_t = b.curv.r.to_tensor()
    rmin_t = b.r_min.to_tensor()
    parts = [b.xi1, b.xi2, b.xi3]
    diag = [b.pairJ(a, a) for a in parts]
    cross = [b.pairJ(parts[x], parts[y]) for x in range(3) for y in range(x + 1, 3)]

    def rhs(j, k):
        v = rmin_t(j, k)
        for a, q in zip(parts, diag):
            v = v + q(j, k)
            v = v - sum((b.jth[t] * (a(j, k, t) - a(k, j, t)) for t in range(d)), ZERO)
        for q in cross:
            v = v + q(j, k)
            v = v - q(k, j)
        v = v - R(Fraction(1, 4)) * b.tn * b.omega_t(j, k)
        v = v - R(Fraction(1, 4)) * (b.th[j] * b.jth[k] - b.jth[j] * b.th[k])
        return v

    return _tensor_from(lambda j, k: r_t(j, k) - rhs(j, k), d)


def ref_p46iii(b):
    d = b.dim
    rho11 = lam11(b, b.curv.rho).to_tensor()
    rhomin_t = b.rho_min.to_tensor()
    parts = [b.xi1, b.xi2, b.xi3]
    diag = [b.pairE_J(a, a) for a in parts]
    cross = [b.pairE_J(parts[x], parts[y]) for x in range(3) for y in range(x + 1, 3)]

    def rhs(j, k):
        v = rhomin_t(j, k)
        for q in diag:
            v = v + q(j, k)
        v = v - R(Fraction(1, 8)) * b.tn * b.omega_t(j, k)
        for q in cross:
            v = v + q(j, k)
            v = v - q(k, j)
        v = v - R(Fraction(1, 2)) * sum(
            (b.jth[t] * (b.xi3(j, k, t) - b.xi3(k, j, t)) for t in range(d)), ZERO
        )
        v = v + R(Fraction(b.n - 2, 8)) * (b.th[j] * b.jth[k] - b.jth[j] * b.th[k])
        return v

    return _tensor_from(lambda j, k: rho11(j, k) - rhs(j, k), d)


def ref_p48ii(b):
    d, n = b.dim, b.n
    S = b.S
    cc = b.curv.chern
    dJth = exterior_derivative(S.L, b.jth_form)
    rho11 = lam11(b, b.curv.rho).to_tensor()
    dJth11 = lam11(b, dJth).to_tensor()
    rho_chern = cc.rho.to_tensor()
    e33 = b.pairE_J(b.xi3, b.xi3)
    j33 = b.pairJ(b.xi3, b.xi3)
    Dxi3 = b.A.minimal.covariant_derivative(b.A.torsion.xi3)
    div_j = _tensor_from(
        lambda j, k: sum(
            (S.J[l][i] * Dxi3(i, j, k, l) for i in range(d) for l in range(d)), ZERO
        ),
        d,
    )

    def rhs(j, k):
        v = rho11(j, k)
        v = v - div_j(j, k) + div_j(k, j)
        v = v - R(Fraction(1, 2)) * dJth11(j, k)
        v = v + R(Fraction(1, 2)) * b.dstar_theta * b.omega_t(j, k)
        v = v + R(Fraction(2 * n - 1, 4)) * b.tn * b.omega_t(j, k)
        v = v + R(Fraction(1, 4)) * (b.th[j] * b.jth[k] - b.jth[j] * b.th[k])
        v = v + R(Fraction(n, 2)) * sum(
            (b.jth[t] * (b.xi3(j, k, t) - b.xi3(k, j, t)) for t in range(d)), ZERO
        )
        v = v - R(2) * e33(j, k)
        v = v + j33(j, k)
        return v

    return _tensor_from(lambda j, k: rho_chern(j, k) - rhs(j, k), d)


def ref_p410(b):
    d, n = b.dim, b.n
    S = b.S
    comb = b.curv.comb_split
    lhs = (comb.trace_part + comb.sym_invariant_part).scaled(R(Fraction(1, 2)))
    rmin11 = lam11(b, b.r_min).to_tensor()
    p11 = _pair_xi(b.xi1, b.xi1)
    p22 = _pair_xi(b.xi2, b.xi2)
    p33 = _pair_xi(b.xi3, b.xi3)
    p12 = _pair_xi(b.xi1, b.xi2)
    e22 = b.pairE(b.xi2, b.xi2)
    div3 = b.div3

    def rhs(j, k):
        v = R(-2) * sum((rmin11(j, m) * S.J[m][k] for m in range(d)), ZERO)
        v = v - div3(j, k)
        v = v - R(Fraction(n - 2, 4)) * theta_hessian_mixed(b, j, k)
        if j == k:
            v = v + R(Fraction(1, 4)) * (b.dstar_theta + R(Fraction(2 * n - 7, 2)) * b.tn)
        v = v + R(4) * p11(j, k)
        v = v + R(2) * p22(j, k)
        v = v - e22(j, k)
        v = v - R(2) * p33(j, k)
        v = v - R(Fraction(n - 6, 8)) * (b.th[j] * b.th[k] + b.jth[j] * b.jth[k])
        v = v + p12(j, k)
        v = v + R(Fraction(5, 2)) * p12(k, j)
        v = v + R(Fraction(n - 6, 2)) * sum((b.th[t] * b.xi3(j, k, t) for t in range(d)), ZERO)
        v = v - R(2) * sum((b.th[t] * b.xi3(k, j, t) for t in range(d)), ZERO)
        return v

    return lhs - _tensor_from(rhs, d)


# check id -> (check, reference, when the reference's formula is the one the
# check evaluates last)
FORMULAS = {
    "L3.1b": (audit.check_l31b, ref_l31b, lambda b: True),
    "L3.1c": (audit.check_l31c, ref_l31c, lambda b: True),
    "E4.2": (audit.check_e42, ref_e42, lambda b: True),
    "E4.4": (audit.check_e44, ref_e44, lambda b: True),
    "E4.5": (audit.check_e45, ref_e45, lambda b: True),
    "P4.3i": (audit.check_p43i, ref_p43i, lambda b: True),
    "P4.3ib": (audit.check_p43ib, ref_p43ib, lambda b: True),
    "P4.3iia": (audit.check_p43iia, ref_p43iia, lambda b: b.n > 2),
    "P4.4": (audit.check_p44, ref_p44, lambda b: b.n == 2),
    "P4.6ii": (audit.check_p46ii, ref_p46ii, lambda b: True),
    "P4.6iii": (audit.check_p46iii, ref_p46iii, lambda b: True),
    "P4.8ii": (audit.check_p48ii, ref_p48ii, lambda b: b.curv.chern is not None),
    "P4.10": (audit.check_p410, ref_p410, lambda b: True),
}


def last_residual(check, b) -> Tensor:
    """The residual of the last part ``check`` returns."""
    return check(b)[-1][1]


# -- structures ----------------------------------------------------------------


def _rotated(name: str, seed: int):
    return audit.rotated_structure(get(name).build(), random.Random(seed), f"kernels-{seed}")


STRUCTURES = [(e.name, e.build) for e in ENTRIES] + [
    ("example-5.4-rotated-7", lambda: _rotated("example-5.4", 7)),
    ("example-5.2-rotated-11", lambda: _rotated("example-5.2", 11)),
    ("generated-param-3-00", lambda: structure_from_data(generate.documents(3)[0])),
]
BUILDERS = dict(STRUCTURES)


@pytest.fixture(scope="module", params=STRUCTURES, ids=[name for name, _ in STRUCTURES])
def bundle(request):
    return audit.Bundle(analyze(request.param[1]()))


def corrupt(b, field: str, key, value: int = 2) -> None:
    """Replace a bundle field by a copy with ``value`` added at ``key``."""
    t = getattr(b, field)
    c = Tensor(t.dim, t.rank, dict(t.coeffs))
    c.set(key, c(*key) + R(value))
    setattr(b, field, c)


@pytest.fixture(scope="module")
def corrupted(bundle):
    """The same structure with entries of every field the formulas read changed,
    on every trace and contraction pattern, so that no residual is zero."""
    b = audit.Bundle(bundle.A)
    for field in ("Dth", "xi1", "xi2", "xi3", "omega_t"):
        rank = getattr(b, field).rank
        for s in range(b.dim):
            for key in ((s, s, 1, s), (s, 0, s, 2)):
                corrupt(b, field, key[:rank], s + 1)
    # the same entries changed on each D^min xi_k, as the trace fields see them
    delta = Tensor(b.dim, 4, {key: R(s + 1) for s in range(b.dim)
                              for key in ((s, s, 1, s), (s, 0, s, 2))})
    for field, slots in (("trace1", (0, 1)), ("trace2", (0, 1)), ("trace3", (0, 1)),
                         ("trace4", (0, 1)), ("div2", (0, 3)), ("div3", (0, 3))):
        setattr(b, field, getattr(b, field) + delta.contract(*slots))
    return b


@pytest.mark.parametrize("ident", list(FORMULAS))
def test_formula_residual_matches_the_per_entry_reference(bundle, corrupted, ident):
    check, ref, applies = FORMULAS[ident]
    if not applies(bundle):
        pytest.skip("the check evaluates another formula on this structure")
    assert last_residual(check, bundle) == ref(bundle)
    residual = last_residual(check, corrupted)
    assert residual == ref(corrupted)
    assert not residual.is_zero()


def test_every_formula_check_is_listed_once():
    by_fn = {fn: ident for ident, _, _, fn in audit.CHECKS}
    assert {by_fn[check] for check, _, _ in FORMULAS.values()} == set(FORMULAS)


# -- corrupted input -----------------------------------------------------------

# (check id, structure, bundle field, index given +2, witness): the witnesses
# are the ones the per-entry code reported on the same corruption.  The rows
# on trace fields once changed D^min xi_k at the entry that projects to their
# index: D^min xi3 at (1, 0, 2, 1) for div3 at (0, 2), D^min xi4 and D^min
# xi3 at (0, 0, 0, 1) for trace4 and trace3 at (0, 1).
CORRUPTED = [
    ("L3.1b", "example-5.4", "div3", (0, 2), "entry (1, 3): -4"),
    ("L3.1b", "example-5.4-rotated-7", "xi1", (0, 1, 2), "entry (1, 5): -18/125*r"),
    ("L3.1c", "example-5.4", "trace4", (0, 1), "entry (1, 2): 2"),
    ("E4.2", "example-5.4", "Dth", (0, 1), "entry (1, 2): 1"),
    ("E4.4", "example-5.2", "xi1", (1, 0, 3), "entry (1, 4): -2*q"),
    ("E4.5", "example-5.2", "xi3", (1, 0, 3), "entry (1, 4): q"),
    ("P4.3i", "example-5.2", "xi2", (1, 0, 3), "entry (1, 4): -2*q"),
    ("P4.3ib", "example-5.2", "xi2", (1, 0, 3), "entry (1, 4): -2*q"),
    ("P4.3iia", "example-5.4", "trace3", (0, 1), "entry (1, 2): -4"),
    ("P4.4", "example-5.1", "Dth", (0, 0), "entry (1, 1): 1"),
    ("P4.6ii", "example-5.4", "xi3", (0, 1, 4), "componentwise expansion: entry (1, 3): 1/8"),
    ("P4.6iii", "example-5.1", "omega_t", (0, 2), "componentwise expansion: entry (1, 3): 5/4"),
    ("P4.8ii", "example-5.4", "xi3", (0, 1, 4), "entry (1, 3): 1/8"),
    ("P4.10", "nearly-kaehler-s3s3", "Dth", (1, 4), "entry (2, 5): 1/2"),
]


@pytest.mark.parametrize(
    "ident, name, field, key, witness", CORRUPTED,
    ids=[f"{c[0]}-{c[1]}-{c[2]}" for c in CORRUPTED],
)
def test_corrupted_bundle_fails_with_the_per_entry_witness(ident, name, field, key, witness):
    b = audit.Bundle(analyze(BUILDERS[name]()))
    guard, check = next((g, fn) for i, _, g, fn in audit.CHECKS if i == ident)
    assert guard(b) is None and audit.witness(check(b)) is None
    b = audit.Bundle(b.A)
    corrupt(b, field, key)
    assert audit.witness(check(b)) == witness
    _, ref, applies = FORMULAS[ident]
    if applies(b):
        assert last_residual(check, b) == ref(b)


def test_every_formula_check_fails_on_some_corruption():
    assert {c[0] for c in CORRUPTED} == set(FORMULAS)


def test_a_replaced_field_is_rotated_again():
    # the bundle keeps J rotations per operand object: after the checks have
    # rotated xi3, a corrupted copy put in its place must be rotated afresh;
    # the witnesses are the ones the code without the memo reported
    b = audit.Bundle(analyze(BUILDERS["example-5.4"]()))
    assert audit.witness(audit.check_p46iii(b)) is None
    assert audit.witness(audit.check_p48ii(b)) is None
    # at this entry the rotation kept for the old xi3 gives other witnesses:
    # "componentwise expansion: entry (2, 3): -1/2*r" and "entry (2, 3): 3/2*r"
    corrupt(b, "xi3", (1, 2, 5))
    assert audit.witness(audit.check_p46iii(b)) == "componentwise expansion: entry (1, 3): -1/4"
    assert audit.witness(audit.check_p48ii(b)) == "entry (1, 3): 1/2"

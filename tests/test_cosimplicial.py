"""Cosimplicial layer: u0, theta table, alpha, c/d tables, face maps."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prismstrat.cosimplicial import (
    CosimpCtx,
    alpha_sum,
    cd_table,
    eval_poly_at_series,
    face_map,
    hensel_u0,
)
from prismstrat.errors import IndexOutOfRange
from prismstrat.field import field_init
from prismstrat.matrix import KMat
from prismstrat.series import SimplexRingElem as SRE
from prismstrat.series import Trunc

from oracles import binomial_power_per_key, c_poly, hensel_u0_newton, pd_binomial

F1 = field_init(3, [-3, 1])
F2 = field_init(3, [-3, 0, 1])
F3 = field_init(3, [-3, 0, 0, 1])
# x^e - 3 for e = 1, 2, 3, 8, and x^2 + (3/2)x - 3, whose powers of pi reduce
# with denominator 2 (_pow_den = 2)
LIFT_FIELDS = {
    "e1": F1,
    "e2": F2,
    "e3": F3,
    "e8": field_init(3, [-3, *[0] * 7, 1]),
    "e2_den": field_init(3, [-3, Fraction(3, 2), 1]),
}


def test_u0_linear_field_is_exact():
    u0 = hensel_u0(F1, 4)
    # E = u - 3: u0 = 3 + t on the nose
    assert u0.coeff(0, ()).rows[0][0] == F1.from_rational(3)
    assert u0.coeff(1, ()).rows[0][0] == F1.one
    assert u0.coeff(2, ()).is_zero()
    assert u0.coeff(3, ()).is_zero()


@pytest.mark.parametrize("field", [F1, F2], ids=["e1", "e2"])
def test_u0_satisfies_defining_equation(field):
    t_order = 6
    u0 = hensel_u0(field, t_order)
    lhs = eval_poly_at_series(field, field.E_coeffs, u0)
    t = SRE.monomial(field, 0, Trunc(t_order, 0), 1, (), KMat.identity(field, 1))
    assert lhs == t
    assert u0.coeff(0, ()).rows[0][0] == field.pi


@pytest.mark.parametrize("t_order", range(1, 17))
@pytest.mark.parametrize("name", LIFT_FIELDS)
def test_u0_lift_matches_newton_reference(name, t_order):
    field = LIFT_FIELDS[name]
    u0 = hensel_u0(field, t_order)
    assert u0 == hensel_u0_newton(field, t_order)
    trunc = Trunc(t_order, 0)
    t = SRE.monomial(field, 0, trunc, 1, (), KMat.identity(field, 1))
    assert eval_poly_at_series(field, field.E_coeffs, u0) == t


@pytest.mark.parametrize("field", [F1, F2], ids=["e1", "e2"])
def test_u0_linear_coefficient_is_beta_inverse(field):
    u0 = hensel_u0(field, 3)
    assert u0.coeff(1, ()).rows[0][0] == field.beta.inverse()


def test_theta_base_values():
    ctx = CosimpCtx(F2, Trunc(5, 4))
    # theta_{n,0} = E^(n)(pi)
    assert ctx.theta_at(1, 0) == F2.beta
    assert ctx.theta_at(2, 0) == F2.from_rational(2)  # E'' = 2
    # E = u^2 - 3: theta_{1,1} = 2/beta = 1/pi
    assert ctx.theta_at(1, 1) == F2.pi.inverse()


def test_theta_vanishes_for_unramified():
    ctx = CosimpCtx(F1, Trunc(5, 4))
    for r in range(1, 5):
        assert ctx.theta_at(1, r).is_zero()


def test_alpha_constant_and_linear_terms():
    for field in (F1, F2):
        ctx = CosimpCtx(field, Trunc(4, 5))
        a = ctx.alpha
        assert a.coeff(0, (0,)) == KMat.identity(field, 1)
        assert a.coeff(0, (1,)).rows[0][0] == -field.beta
        # alpha(X_1 = 0) = 1: no pure-t terms
        for m in range(1, 4):
            assert a.coeff(m, (0,)).is_zero()


def test_alpha_e1_is_exactly_linear():
    ctx = CosimpCtx(F1, Trunc(4, 5))
    expect = SRE.one(F1, 1, ctx.trunc) + SRE.monomial(
        F1, 1, ctx.trunc, 0, (1,), KMat.identity(F1, 1) * -1
    )
    assert ctx.alpha == expect  # beta = 1 here


def test_alpha_unit_and_power_laws():
    ctx = CosimpCtx(F2, Trunc(3, 4))
    one = SRE.one(F2, 1, ctx.trunc)
    assert ctx.alpha * ctx.alpha_pow(-1) == one
    for p, q in [(2, 3), (-2, 3), (-1, -2), (4, -4)]:
        assert ctx.alpha_pow(p) * ctx.alpha_pow(q) == ctx.alpha_pow(p + q)


@pytest.mark.parametrize("field", [F1, F2, F3], ids=["e1", "e2", "e3"])
def test_alpha_pow_matches_invert_and_binary_powering(field):
    tr = Trunc(4, 5)
    ctx = CosimpCtx(field, tr)
    for k in range(-tr.pd_degree - 1, tr.t_order + 2):
        assert ctx.alpha_pow(k) == ctx.alpha**k, k


@pytest.mark.parametrize("field", [F1, F2, F3], ids=["e1", "e2", "e3"])
def test_alpha_pow_matrix_exponent_matches_exp_log(field):
    ctx = CosimpCtx(field, Trunc(3, 4))
    half = field.from_rational(Fraction(1, 2))
    m = KMat.from_rows(field, [[half, field.one], [field.zero, field.pi]])
    assert ctx.alpha_pow(m) == ctx.alpha.exp_pow(m)
    a = m * field.beta.inverse() * -1  # -A_{0,1}/beta
    for i in range(3):
        mi = a + KMat.scalar(field, 2, field.from_rational(i))
        got = ctx.alpha_pow(mi)
        assert got.size == 2
        assert got == ctx.alpha.exp_pow(mi)


@pytest.mark.parametrize("field", [F1, F2, F3], ids=["e1", "e2", "e3"])
def test_batched_alpha_powers_match_binomial_power(field):
    # one alpha_pows call against the per-key binomial reference
    ctx = CosimpCtx(field, Trunc(4, 12))
    one = SRE.one(field, 1, ctx.trunc)
    ks = range(-12, 6)
    for k, got in zip(ks, ctx.alpha_pows(ks)):
        assert got == binomial_power_per_key([one, ctx.alpha - one], k), k
    assert sorted(ctx._alpha_pows) == list(ks)


@pytest.mark.parametrize("field", [F1, F2, F3], ids=["e1", "e2", "e3"])
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_alpha_sum_matches_term_by_term_products(field, data):
    # sum alpha^s t^p M against alpha_pow(s), shifted by t^p, as scalar
    # matrices times M; the first shift is negative and the sum is cut at
    # pd degree D - q, as for the X^[q] block of a cocycle residual
    T, D, rank = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 5)), data.draw(st.integers(1, 2))
    ctx = CosimpCtx(field, Trunc(T, D))
    trunc = Trunc(T, D - data.draw(st.integers(0, D)))

    def mat():
        def q():
            return field.from_coords(
                [Fraction(data.draw(st.integers(-6, 6)), data.draw(st.integers(1, 4))) for _ in range(field.e)]
            )

        return KMat.from_rows(field, [[q() for _ in range(rank)] for _ in range(rank)])

    shifts = [data.draw(st.integers(-D - 3, -1))] + data.draw(st.lists(st.integers(-D - 3, 4), max_size=3))
    terms = [(s, data.draw(st.integers(0, T - 1)), mat()) for s in shifts]
    want = SRE.zero(field, 1, trunc, rank)
    for s, p, m in terms:
        shifted = {(i + p, idx): c for (i, idx), c in ctx.alpha_pow(s).coeffs.items()}
        want = want + SRE(field, 1, trunc, 1, shifted).map_size(rank) * m
    assert alpha_sum(ctx, terms, trunc) == want


def test_alpha_pow_stores_nothing_for_matrix_exponents():
    # a context shared by a sweep must not grow with its number of instances
    ctx = CosimpCtx(F2, Trunc(3, 4))
    half = F2.from_rational(Fraction(1, 2))
    m = KMat.from_rows(F2, [[half, F2.one], [F2.zero, F2.pi]])
    ctx.alpha_pow(m)  # builds every nonzero power of N = alpha - 1
    sizes = {name: len(v) for name, v in vars(ctx).items() if isinstance(v, (dict, list))}
    for i in range(4):
        mi = m + KMat.scalar(F2, 2, F2.from_rational(i))
        assert ctx.alpha_pow(mi) == ctx.alpha.exp_pow(mi)
    assert {name: len(v) for name, v in vars(ctx).items() if isinstance(v, (dict, list))} == sizes
    ctx.alpha_pow(2)
    assert len(ctx._alpha_pows) == sizes["_alpha_pows"] + 1


def test_cd_basic_structure():
    ctx = CosimpCtx(F2, Trunc(4, 4))
    assert cd_table(ctx, range(-3, 4)) == {p: ctx.alpha_pow(p) for p in range(-3, 4)}

    def d(p, s, k):
        return c_poly(ctx, p, s).get(k, F2.zero)

    beta = F2.beta
    one_minus_bx = SRE.one(F2, 1, ctx.trunc) + SRE.monomial(
        F2, 1, ctx.trunc, 0, (1,), KMat.scalar(F2, 1, -beta)
    )
    for p in range(-3, 4):
        # c_{p,0} = (1 - beta X_1)^p
        expect = one_minus_bx**p
        for k in range(ctx.trunc.pd_degree + 1):
            assert d(p, 0, k) == expect.coeff(0, (k,)).rows[0][0]
        # d_{p,0,0} = 1 and d_{p,s,0} = 0 for s > 0
        assert d(p, 0, 0) == F2.one
        for s in range(1, 4):
            assert d(p, s, 0).is_zero()
        # the calculate-c identity, small range (acceptance sweeps it wide)
        for s in range(4):
            assert d(p, s, 1) == ctx.theta_at(1, s) * (-p)


def test_cd_e1_has_no_t_terms():
    ctx = CosimpCtx(F1, Trunc(4, 4))
    for p in range(-2, 3):
        for s in range(1, 4):
            assert c_poly(ctx, p, s) == {}


def test_face_identity_embedding():
    ctx = CosimpCtx(F2, Trunc(3, 3))
    x = hensel_u0(F2, 3)
    emb = face_map(ctx, 1, x)
    assert emb.n_vars == 1
    for (m, _), mat in x.coeffs.items():
        assert emb.coeff(m, (0,)) == mat


def test_face_delta0_on_t():
    ctx = CosimpCtx(F2, Trunc(3, 3))
    t0 = SRE.monomial(F2, 0, ctx.trunc, 1, (), KMat.identity(F2, 1))
    got = face_map(ctx, 0, t0)
    t1 = SRE.monomial(F2, 1, ctx.trunc, 1, (0,), KMat.identity(F2, 1))
    assert got == ctx.alpha * t1


def test_face_delta0_on_divided_square():
    ctx = CosimpCtx(F2, Trunc(3, 4))
    x_sq = SRE.monomial(F2, 1, ctx.trunc, 0, (2,), KMat.identity(F2, 1))
    got = face_map(ctx, 0, x_sq)
    # (X_2 - X_1)^[2] = X_2^[2] - X_1 X_2 + X_1^[2], times alpha^-2
    binom = pd_binomial(F2, ctx.trunc, 2)
    assert binom.coeff(0, (0, 2)) == KMat.identity(F2, 1)
    assert binom.coeff(0, (1, 1)) == KMat.identity(F2, 1) * -1
    assert binom.coeff(0, (2, 0)) == KMat.identity(F2, 1)
    assert got == binom * ctx.alpha_pow_2v(-2)


def test_face_index_out_of_range():
    ctx = CosimpCtx(F2, Trunc(2, 2))
    x0 = SRE.one(F2, 0, ctx.trunc)
    with pytest.raises(IndexOutOfRange):
        face_map(ctx, 2, x0)
    x1 = SRE.one(F2, 1, ctx.trunc)
    with pytest.raises(IndexOutOfRange):
        face_map(ctx, 3, x1)


@pytest.mark.parametrize("field", [F1, F2], ids=["e1", "e2"])
def test_cosimplicial_identities_on_basis(field):
    """delta^2_j delta^1_i = delta^2_i delta^1_{j-1} for i < j, on t^m."""
    ctx = CosimpCtx(field, Trunc(3, 4))
    tr0 = ctx.trunc
    for m in range(3):
        tm = SRE.monomial(field, 0, tr0, m, (), KMat.identity(field, 1))
        lhs01 = face_map(ctx, 1, face_map(ctx, 0, tm))
        rhs01 = face_map(ctx, 0, face_map(ctx, 0, tm))
        assert lhs01 == rhs01
        lhs02 = face_map(ctx, 2, face_map(ctx, 0, tm))
        rhs02 = face_map(ctx, 0, face_map(ctx, 1, tm))
        assert lhs02 == rhs02
        lhs12 = face_map(ctx, 2, face_map(ctx, 1, tm))
        rhs12 = face_map(ctx, 1, face_map(ctx, 1, tm))
        assert lhs12 == rhs12


def test_cosimplicial_identity_on_mixed_series():
    ctx = CosimpCtx(F2, Trunc(3, 4))
    tr0 = ctx.trunc
    x = SRE.from_scalar(F2, 0, tr0, F2.pi) + SRE.monomial(
        F2, 0, tr0, 1, (), KMat.scalar(F2, 1, F2.from_rational(Fraction(1, 2)))
    ) + SRE.monomial(F2, 0, tr0, 2, (), KMat.identity(F2, 1))
    assert face_map(ctx, 1, face_map(ctx, 0, x)) == face_map(
        ctx, 0, face_map(ctx, 0, x)
    )

"""Closed forms: f/g tables, the h table, generating functions, a_k series."""

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prismstrat import cli, closedform
from prismstrat.closedform import (
    ak_series,
    closedform_series,
    conjecture_difference,
    conjecture_residual,
    exponential_sum_series,
    g,
    h_table,
    row_series,
    verify_commutative,
)
from prismstrat.cosimplicial import CosimpCtx
from prismstrat.errors import NonCommutingSeeds, SeedShapeMismatch, ShapeMismatch
from prismstrat.field import field_init
from prismstrat.matrix import KMat
from prismstrat.series import SimplexRingElem as SRE
from prismstrat.series import Trunc
from prismstrat.stratification import Seeds, generate_Amn

from oracles import conjecture_residual_per_k, fg_dual_check, h_table_per_target, lemma_identity_check, t_slice

F1 = field_init(3, [-3, 1])
F2 = field_init(3, [-3, 0, 1])
F3 = field_init(3, [-3, 0, 0, 1])


def scalar_seeds(field, values):
    return Seeds.of([KMat.scalar(field, 1, field.from_rational(v)) for v in values])


def kconst(field, v):
    return field.from_rational(v)


# -- f and g tables ---------------------------------------------------------


def test_f_base_values():
    for m in range(1, 9):
        assert g(F1, m, 0, 0, 1) == F1.one
        assert g(F2, m, 0, 0, 1) == F2.one
    assert g(F2, 2, 0, 0, 2) == F2.beta * Fraction(1, 2)


def test_g_base_case():
    for f in range(0, 4):
        for i in range(0, 5):
            assert g(F2, f + 1, f, i, i + 1) == kconst(F2, Fraction(1, i + 1))


@pytest.mark.parametrize("field", [F1, F2], ids=["e1", "e2"])
def test_fg_dual_paths_agree(field):
    report = fg_dual_check(field, 8)
    assert report["ok"], report["mismatches"]
    assert report["checked"] > 100


# -- h table ----------------------------------------------------------------


def test_h_m1_base_values():
    ctx = CosimpCtx(F2, Trunc(2, 6))
    seeds = scalar_seeds(F2, [Fraction(1, 2), Fraction(2, 3), 5, 7])
    ht = h_table(seeds, ctx)
    assert ht.at(1, 1) == seeds.A1[1]
    assert ht.at(1, 2) == KMat.scalar(F2, 1, ctx.theta_at(1, 1) * Fraction(1, 2))


def test_h_m2_matches_worked_example():
    ctx = CosimpCtx(F2, Trunc(3, 8))
    a01, a11, a21 = Fraction(1, 2), Fraction(2, 3), Fraction(-5, 4)
    seeds = scalar_seeds(F2, [a01, a11, a21, 0])
    ht = h_table(seeds, ctx)
    th11 = ctx.theta_at(1, 1)
    th12 = ctx.theta_at(1, 2)
    beta = F2.beta
    k_a01 = kconst(F2, a01)
    k_a11 = kconst(F2, a11)
    k_a21 = kconst(F2, a21)
    # h_{2,1} = A_{2,1}
    assert ht.at(2, 1).rows[0][0] == k_a21
    # h_{2,2} = (beta/2) A_{2,1} + A_{1,1}^2/2 + theta_{1,2} A_{0,1}/2
    expect22 = (
        beta * k_a21 * Fraction(1, 2)
        + k_a11 * k_a11 * Fraction(1, 2)
        + th12 * k_a01 * Fraction(1, 2)
    )
    assert ht.at(2, 2).rows[0][0] == expect22
    # h_{2,3} = theta_{1,1} A_{1,1}/2 + theta_{1,1}^2/6 + beta theta_{1,2}/3
    expect23 = (
        th11 * k_a11 * Fraction(1, 2)
        + th11 * th11 * Fraction(1, 6)
        + beta * th12 * Fraction(1, 3)
    )
    assert ht.at(2, 3).rows[0][0] == expect23
    # h_{2,4} = theta_{1,1}^2/8
    assert ht.at(2, 4).rows[0][0] == th11 * th11 * Fraction(1, 8)


def test_h_vanishes_for_e1_zero_seeds():
    ctx = CosimpCtx(F1, Trunc(5, 6))
    seeds = scalar_seeds(F1, [0, 0, 0, 0, 0])
    ht = h_table(seeds, ctx)
    for m in range(1, 5):
        for j in range(0, 2 * m + 1):
            assert ht.at(m, j).is_zero()


def test_h_rejects_noncommuting():
    a01 = KMat.from_rows(F1, [[F1.one, F1.one], [F1.zero, F1.one]])
    a11 = KMat.from_rows(F1, [[F1.zero, F1.one], [F1.one, F1.zero]])
    ctx = CosimpCtx(F1, Trunc(2, 4))
    with pytest.raises(NonCommutingSeeds):
        h_table(Seeds.of([a01, a11]), ctx)


# -- generating functions vs the hand-expanded worked rows ------------------


def _display_series(ctx, seeds, m, deg):
    """The m = 1, 2 generating functions in expanded form, built by hand."""
    field = ctx.field
    tr = Trunc(1, deg)
    one = SRE.one(field, 1, tr)
    x1 = SRE.monomial(field, 1, tr, 0, (1,), KMat.identity(field, 1))
    beta = field.beta
    base = one + x1 * (-beta)
    binv = base.invert()
    growth = exponential_sum_series(field, seeds.a01, tr)
    a01 = seeds.a01.rows[0][0]
    a11 = seeds.A1[1].rows[0][0]
    th11 = ctx.theta_at(1, 1)
    x_pows = {n: SRE.monomial(field, 1, tr, 0, (n,), KMat.identity(field, 1) * int(_fact(n))) for n in range(1, 5)}
    if m == 1:
        inner = x_pows[1] * a11 + binv * x_pows[2] * (th11 * a01 * Fraction(1, 2))
        return growth * inner
    a21 = seeds.A1[2].rows[0][0]
    th12 = ctx.theta_at(1, 2)
    a02 = a01 * (beta + a01)
    c2 = beta * a21 * Fraction(1, 2) + a11 * a11 * Fraction(1, 2) + th12 * a01 * Fraction(1, 2)
    c3 = (
        th11 * a11 * Fraction(1, 2)
        + th11 * th11 * Fraction(1, 6)
        + beta * th12 * Fraction(1, 3)
    ) * a01
    c4 = th11 * th11 * Fraction(1, 8) * a02
    inner = (
        base * x_pows[1] * a21
        + x_pows[2] * c2
        + binv * x_pows[3] * c3
        + binv * binv * x_pows[4] * c4
    )
    return growth * inner


def _fact(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


@pytest.mark.parametrize("field", [F1, F2], ids=["e1", "e2"])
@pytest.mark.parametrize("m", [1, 2])
def test_closedform_matches_expanded_rows(field, m):
    ctx = CosimpCtx(field, Trunc(m + 1, 8))
    seeds = scalar_seeds(field, [Fraction(1, 2), Fraction(2, 3), Fraction(-5, 4), 0])
    ht = h_table(seeds, ctx)
    got = closedform_series(ht, m, exponential_sum_series(field, seeds.a01, Trunc(1, 8)))
    expect = _display_series(ctx, seeds, m, 8)
    assert got == expect


def test_closedform_m0_is_growth_series():
    ctx = CosimpCtx(F2, Trunc(1, 6))
    seeds = scalar_seeds(F2, [Fraction(1, 2), 0])
    ht = h_table(seeds, ctx)
    growth = exponential_sum_series(F2, seeds.a01, Trunc(1, 6))
    assert closedform_series(ht, 0, growth) == exponential_sum_series(
        F2, seeds.a01, Trunc(1, 6)
    )


def test_closedform_e1_hand_case():
    # A_{0,1} = -1, A_{1,1} = a: row 1 is a X (1 - X) = a X^[1] - 2a X^[2]
    ctx = CosimpCtx(F1, Trunc(2, 6))
    a = Fraction(5, 7)
    seeds = scalar_seeds(F1, [-1, a, 0])
    ht = h_table(seeds, ctx)
    got = closedform_series(ht, 1, exponential_sum_series(F1, seeds.a01, Trunc(1, 6)))
    ka = kconst(F1, a)
    assert got.coeff(0, (1,)).rows[0][0] == ka
    assert got.coeff(0, (2,)).rows[0][0] == ka * -2
    for n in [0, 3, 4, 5, 6]:
        assert got.coeff(0, (n,)).is_zero()


@pytest.mark.parametrize("field", [F1, F2], ids=["e1", "e2"])
def test_verify_commutative_small(field):
    rng = random.Random(411)
    for _ in range(3):
        vals = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)]
        seeds = scalar_seeds(field, vals)
        ctx = CosimpCtx(field, Trunc(4, 8))
        report = verify_commutative(h_table(seeds, ctx), ctx)
        assert report["ok"], report


def commuting_seeds(field):
    """A_{m,1} = c_m I + d_m M with M = [[1, 2], [2, 4]]: commuting, not
    diagonal, and A_{0,1} = M/2 is singular."""
    m = KMat.from_rows(field, [[field.from_rational(v) for v in row] for row in ((1, 2), (2, 4))])
    cd = [(0, Fraction(1, 2)), (-1, Fraction(1, 3)), (3, Fraction(-2, 5)), (Fraction(2, 7), 1)]
    return Seeds.of([KMat.scalar(field, 2, field.from_rational(c)) + m * d for c, d in cd])


def test_verify_commutative_diagonal_matrices():
    field = F2
    diag = lambda a, b: KMat.from_rows(
        field, [[field.from_rational(a), field.zero], [field.zero, field.from_rational(b)]]
    )
    diagonal = Seeds.of(
        [diag(Fraction(1, 2), -1), diag(2, Fraction(1, 3)), diag(0, 1), diag(1, 1)]
    )
    for seeds in (diagonal, commuting_seeds(F3)):
        ctx = CosimpCtx(seeds.a01.field, Trunc(4, 8))
        report = verify_commutative(h_table(seeds, ctx), ctx)
        assert report["ok"], report


# -- summation lemma spot checks ---------------------------------------------


def test_lemma_change_m_small():
    a01 = KMat.scalar(F2, 1, kconst(F2, Fraction(1, 2)))
    for m in range(1, 6):
        rep = lemma_identity_check(F2, "change_m", a01, {"m": m})
        assert rep["ok"], rep


def test_lemma_change_mfi_cases():
    a01 = KMat.from_rows(
        F2,
        [[kconst(F2, 2), F2.pi], [F2.zero, kconst(F2, Fraction(-1, 3))]],
    )
    for m, f, i in [(2, 1, 0), (3, 1, 1), (4, 2, 3), (5, 2, 1), (3, 0, 2)]:
        rep = lemma_identity_check(F2, "change_mfi", a01, {"m": m, "f": f, "i": i})
        assert rep["ok"], rep


def test_lemma_exp_sum():
    a = KMat.scalar(F2, 1, kconst(F2, Fraction(1, 2)))
    for k in range(0, 4):
        rep = lemma_identity_check(F2, "exp_sum", a, {"k": k, "pd_degree": 8})
        assert rep["ok"], rep
    mat = KMat.from_rows(
        F1, [[kconst(F1, 1), kconst(F1, 2)], [F1.zero, kconst(F1, -2)]]
    )
    rep = lemma_identity_check(F1, "exp_sum", mat, {"k": 2, "pd_degree": 6})
    assert rep["ok"], rep


# -- a_k series and the conjecture ------------------------------------------


def test_ak_first_values():
    ctx = CosimpCtx(F2, Trunc(4, 6))
    a01, a11, a21 = Fraction(1, 2), Fraction(2, 3), Fraction(-5, 4)
    seeds = scalar_seeds(F2, [a01, a11, a21, 0])
    a = ak_series(seeds, ctx, 2)
    beta = F2.beta
    binv = beta.inverse()
    th11, th12 = ctx.theta_at(1, 1), ctx.theta_at(1, 2)
    k_a01, k_a11, k_a21 = (kconst(F2, v) for v in (a01, a11, a21))
    assert a[0] == KMat.identity(F2, 1)
    expect1 = -k_a11 * binv + th11 * k_a01 * binv * binv
    assert a[1].rows[0][0] == expect1
    expect2 = (
        (th12 * k_a01 * binv - k_a21)
        + (-th11 + th11 * k_a01 * binv - k_a11) * expect1
    ) * binv * Fraction(1, 2)
    assert a[2].rows[0][0] == expect2


def test_ak_e1_collapse():
    # theta terms vanish: a_k = -(1/(k beta)) sum_{i<k} A_{k-i,1} a_i
    ctx = CosimpCtx(F1, Trunc(5, 4))
    vals = [Fraction(1, 2), Fraction(2, 3), Fraction(-5, 4), 1, 2]
    seeds = scalar_seeds(F1, vals)
    a = ak_series(seeds, ctx, 4)
    acc = [F1.one]
    for k in range(1, 5):
        s = F1.zero
        for i in range(k):
            s = s + kconst(F1, vals[k - i]) * acc[i]
        acc.append(s * Fraction(-1, k))  # beta = 1 here
    for k in range(5):
        assert a[k].rows[0][0] == acc[k]


@pytest.mark.parametrize("field", [F1, F2], ids=["e1", "e2"])
def test_conjecture_residual_low_k(field):
    ctx = CosimpCtx(field, Trunc(3, 6))
    seeds = scalar_seeds(field, [Fraction(1, 2), Fraction(2, 3), Fraction(-5, 4)])
    rep = conjecture_residual(seeds, ctx, 2)
    for k in range(3):
        assert rep["residuals"][str(k)]["zero"], rep
    assert rep["low_k_zero"]


@functools.cache
def _ctx(field, t_order, pd_degree):
    return CosimpCtx(field, Trunc(t_order, pd_degree))


def _draw_commuting_seeds(data, field, count):
    """count seeds of rank 1 or 2 whose A_{0,1} commutes with every A_{j,1}:
    c_m I + d_m M for one random M, or a scalar A_{0,1} before arbitrary
    matrices (which need not commute with each other)."""
    rank = data.draw(st.integers(1, 2))

    def q():
        return field.from_rational(Fraction(data.draw(st.integers(-6, 6)), data.draw(st.integers(1, 4))))

    def mat():
        return KMat.from_rows(field, [[q() for _ in range(rank)] for _ in range(rank)])

    if data.draw(st.booleans()):
        m = mat()
        return Seeds.of([KMat.scalar(field, rank, q()) + m * q() for _ in range(count)])
    return Seeds.of([KMat.scalar(field, rank, q())] + [mat() for _ in range(count - 1)])


def _draw_instance(data, field, min_k=0, min_pd=0):
    """(seeds, ctx, k_max) with k_max < T <= 5 and min_pd <= D <= 4."""
    sizes = [(t, d, k) for t in range(1, 6) for d in range(min_pd, 5) for k in range(min_k, t)]
    t_order, pd_degree, k_max = data.draw(st.sampled_from(sizes))
    return _draw_commuting_seeds(data, field, t_order), _ctx(field, t_order, pd_degree), k_max


def _slices(diff: SRE, k_max: int) -> dict:
    """{k: {n: X^[n] coefficient}} of the t^k slices of a 1-variable series."""
    return {k: t_slice(diff, k) for k in range(k_max + 1)}


@pytest.mark.parametrize("field", [F1, F2, F3], ids=["e1", "e2", "e3"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_conjecture_residual_matches_per_k_oracle(field, data):
    seeds, ctx, k_max = _draw_instance(data, field)
    report, coeffs = conjecture_residual_per_k(seeds, ctx, k_max)
    assert conjecture_residual(seeds, ctx, k_max) == report
    assert _slices(conjecture_difference(seeds, ctx, k_max), k_max) == coeffs


@pytest.mark.parametrize("field", [F1, F2, F3], ids=["e1", "e2", "e3"])
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_conjecture_residual_matches_oracle_on_perturbed_a_k(field, data):
    # every unperturbed residual is zero; adding D to a_j (j >= 1) leaves
    # -j beta D at X^[1] t^j.  D does not commute with A_{0,1}, so a factor
    # on the wrong side of a product (D A_{0,1} for A_{0,1} D) shows there
    sizes = [(t, d, k) for t in range(2, 6) for d in range(1, 5) for k in range(1, t)]
    t_order, pd_degree, k_max = data.draw(st.sampled_from(sizes))
    ctx = _ctx(field, t_order, pd_degree)

    def q(low=-6):
        return field.from_rational(Fraction(data.draw(st.integers(low, 6)), data.draw(st.integers(1, 4))))

    # A_{m,1} = c_m I + d_m M with M[0][1] and d_0 nonzero: A_{0,1} is not scalar
    m = KMat.from_rows(field, [[q(), q(1)], [q(), q()]])
    seeds = Seeds.of([KMat.scalar(field, 2, q()) + m * q(1 if i == 0 else -6) for i in range(t_order)])
    delta = KMat.from_rows(field, [[field.zero, field.zero], [q(1), field.zero]])
    assert not delta.commutes_with(seeds.a01)
    j = data.draw(st.integers(1, k_max))
    ak_series = closedform.ak_series

    def perturbed(*args):
        out = ak_series(*args)
        out[j] = out[j] + delta
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(closedform, "ak_series", perturbed)
        got = conjecture_residual(seeds, ctx, k_max)
        diff = conjecture_difference(seeds, ctx, k_max)
        expect, coeffs = conjecture_residual_per_k(seeds, ctx, k_max)
    assert got == expect
    assert _slices(diff, k_max) == coeffs
    assert diff.coeff(j, (1,)) == delta * (field.beta * -j)
    assert not got["residuals"][str(j)]["zero"]


def test_conjecture_residual_takes_one_matrix_power(monkeypatch):
    matrix_exponents = []
    alpha_pow = CosimpCtx.alpha_pow

    def counting(self, k):
        matrix_exponents.append(isinstance(k, KMat))
        return alpha_pow(self, k)

    monkeypatch.setattr(CosimpCtx, "alpha_pow", counting)
    rep = conjecture_residual(commuting_seeds(F2), CosimpCtx(F2, Trunc(4, 6)), 3)
    assert rep["low_k_zero"]
    assert matrix_exponents.count(True) == 1


def test_conjecture_residual_error_precedence():
    ctx = CosimpCtx(F1, Trunc(3, 4))
    a01 = KMat.from_rows(F1, [[F1.one, F1.one], [F1.zero, F1.one]])
    a11 = KMat.from_rows(F1, [[F1.zero, F1.one], [F1.one, F1.zero]])
    with pytest.raises(NonCommutingSeeds, match="must commute"):
        conjecture_residual(Seeds.of([a01, a11, a11]), ctx, 2)
    # the shape checks run before the commutator products
    with pytest.raises(ShapeMismatch, match="need t_order > k_max"):
        conjecture_residual(Seeds.of([a01, a11, a11]), ctx, 5)
    with pytest.raises(ShapeMismatch, match="need t_order > k_max"):
        conjecture_residual(scalar_seeds(F1, [1, 2]), ctx, 5)
    # seeds short of T are refused by the loader, before any engine function
    with pytest.raises(SeedShapeMismatch, match=r"need seeds A_\(m,1\) for all m < 3, got 2"):
        cli.load_problem({**_f1_spec([[["1"]], [["2"]]], 3), "options": {"k_max": 2}}, "conjecture")


def _f1_spec(seeds, t_order):
    """A spec over F1 (E = x - 3) with the given seed rows and T."""
    rank = len(seeds[0])
    return {"p": 3, "E_coeffs": ["-3", "1"], "rank": rank, "seeds": seeds, "trunc": {"t": t_order, "x": 4}}


@pytest.mark.parametrize("field", [F1, F2, F3], ids=["e1", "e2", "e3"])
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_h_table_matches_per_target_reference(field, data):
    # seeds c_m I + d_m M of rank 1-3, or scalar seeds; m_max < T <= 7
    rank = data.draw(st.integers(1, 3))
    t_order = data.draw(st.integers(1, 7))
    m_max = data.draw(st.integers(0, t_order - 1))

    def q():
        return field.from_rational(Fraction(data.draw(st.integers(-6, 6)), data.draw(st.integers(1, 4))))

    scalar = data.draw(st.booleans())
    m = KMat.zero(field, rank) if scalar else KMat.from_rows(field, [[q() for _ in range(rank)] for _ in range(rank)])
    seeds = Seeds.of([KMat.scalar(field, rank, q()) + m * q() for _ in range(t_order)])
    ctx = _ctx(field, m_max + 1, 1)
    assert h_table(seeds, ctx).h == h_table_per_target(seeds, ctx).h


@pytest.mark.parametrize("field", [F1, F2, F3], ids=["e1", "e2", "e3"])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_h_table_at_m_max_ignores_longer_t_order(field, data):
    # closed-form sizes its h-table by T alone, to m_max = T - 1, and a row
    # is a prefix property: the rows m <= M of the h-table and of the
    # verify_commutative report at T > M + 1 are those at T = M + 1
    m_max = data.draw(st.integers(0, 4))
    t_order, pd_degree = data.draw(st.integers(m_max + 2, 7)), data.draw(st.integers(0, 4))
    seeds = _draw_commuting_seeds(data, field, t_order)
    short, long = _ctx(field, m_max + 1, pd_degree), _ctx(field, t_order, pd_degree)
    ht, longer = h_table(seeds, short), h_table(seeds, long)
    assert ht.h == {m: row for m, row in longer.h.items() if m <= m_max}
    report, longer_report = verify_commutative(ht, short), verify_commutative(longer, long)
    assert report["rows"] == {m: row for m, row in longer_report["rows"].items() if int(m) <= m_max}


def test_h_table_error_precedence():
    ctx = CosimpCtx(F1, Trunc(3, 4))
    a01 = KMat.from_rows(F1, [[F1.one, F1.one], [F1.zero, F1.one]])
    a11 = KMat.from_rows(F1, [[F1.zero, F1.one], [F1.one, F1.zero]])
    with pytest.raises(NonCommutingSeeds, match="must commute"):
        h_table(Seeds.of([a01, a11, a11]), ctx)
    # the seed count is checked by the loader, before the commutator products;
    # h_table reads m_max = T - 1 from the context, as theta_{1,s} is known
    # for s < T only
    noncommuting = [[["1", "1"], ["0", "1"]], [["0", "1"], ["1", "0"]], [["0", "1"], ["1", "0"]]]
    for seeds in (noncommuting, [[["1"]], [["2"]], [["3"]]]):
        with pytest.raises(SeedShapeMismatch, match=r"need seeds A_\(m,1\) for all m < 6, got 3"):
            cli.load_problem(_f1_spec(seeds, 6), "closed-form")


def test_row_series_matches_table():
    ctx = CosimpCtx(F2, Trunc(3, 5))
    seeds = scalar_seeds(F2, [1, 2, 3])
    table = generate_Amn(seeds, ctx, 5)
    sre = row_series(table, 1, F2, 5)
    for n in range(6):
        assert sre.coeff(0, (n,)) == table.at(1, n)

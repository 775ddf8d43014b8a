"""Cross-module structural invariants from the table/closed-form interplay."""

from fractions import Fraction

from prismstrat.closedform import g, h_table
from prismstrat.cosimplicial import CosimpCtx, theta_report
from prismstrat.field import field_init
from prismstrat.matrix import KMat
from prismstrat.series import Trunc
from prismstrat.stratification import (
    Seeds,
    StratTable,
    assemble_epsilon,
    cocycle_residual,
    generate_Amn,
    valuation_profile,
)

from oracles import fg_coeffs

F1 = field_init(3, [-3, 1])
F2 = field_init(3, [-3, 0, 1])


def scalar_seeds(field, values):
    return Seeds.of([KMat.scalar(field, 1, field.from_rational(v)) for v in values])


def test_fg_coeffs_builds_verified_tables():
    fg_coeffs(F2, 6)
    # f_{m,i} = g^i_{m,0,0}
    assert g(F2, 3, 0, 0, 2) == F2.beta  # beta/2 * (3-1)
    assert g(F2, 1, 0, 0, 1).to_json() == ["1", "0"]
    assert not g(F2, 2, 1, 1, 2).is_zero()


def test_recursion_violation_shows_in_residual():
    """Perturbing one table entry must surface at the matching residual
    coefficient: the inductive formula *is* the X_1-linear cocycle slice."""
    ctx = CosimpCtx(F1, Trunc(3, 5))
    seeds = scalar_seeds(F1, [-1, Fraction(5, 7), 0])
    table = generate_Amn(seeds, ctx, 5)
    assert cocycle_residual(assemble_epsilon(table, ctx), ctx).is_zero()
    bad = dict(table.A)
    bad[(1, 2)] = bad[(1, 2)] + KMat.identity(F1, 1)
    bad_table = StratTable(table.l, table.t_order, table.n_max, bad)
    R = cocycle_residual(assemble_epsilon(bad_table, ctx), ctx)
    assert not R.is_zero()
    # the X_1-linear comparison at (t^1, X_2^[1]) sees the broken recursion
    assert not R.coeff(1, (1, 1)).is_zero() or not R.coeff(1, (0, 2)).is_zero()


def _h_scaled(field, ctx, vals, lam):
    scaled = [v * lam**i for i, v in enumerate(vals)]
    return h_table(scalar_seeds(field, scaled), ctx)


def test_h_weighted_degree_bound():
    """h_{m,j} has weighted degree <= m in the seeds (A_{i,1} of weight i):
    scaling A_{i,1} by lam^i makes each h value a polynomial of degree <= m
    in lam, certified by a vanishing (m+1)-th finite difference."""
    field = F2
    ctx = CosimpCtx(field, Trunc(5, 4))
    vals = [Fraction(1, 2), Fraction(2, 3), Fraction(-5, 4), Fraction(7, 3), 1]
    m_max = 4
    lams = list(range(m_max + 2))
    tables = [_h_scaled(field, ctx, vals, Fraction(l)) for l in lams]
    for m in range(1, m_max + 1):
        for j in range(1, 2 * m + 1):
            samples = [t.at(m, j).rows[0][0] for t in tables]
            # (m+1)-th forward difference of a degree-<=m polynomial is 0
            diff = samples
            for _ in range(m + 1):
                diff = [b - a for a, b in zip(diff, diff[1:])]
            assert all(d.is_zero() for d in diff), (m, j)


def test_h_homogeneous_for_e1():
    """For e = 1 the h_{m,j} are homogeneous of weighted degree exactly m."""
    field = F1
    ctx = CosimpCtx(field, Trunc(5, 4))
    vals = [Fraction(1, 2), Fraction(2, 3), Fraction(-5, 4), Fraction(7, 3), 1]
    m_max = 4
    base = h_table(scalar_seeds(field, vals), ctx)
    lam = Fraction(3, 2)
    scaled = _h_scaled(field, ctx, vals, lam)
    for m in range(1, m_max + 1):
        for j in range(1, 2 * m + 1):
            assert scaled.at(m, j) == base.at(m, j) * lam**m, (m, j)


def test_valuation_profile_shape():
    ctx = CosimpCtx(F2, Trunc(3, 4))
    table = generate_Amn(scalar_seeds(F2, [1, 2, 3]), ctx, 4)
    prof = valuation_profile(table)
    assert set(prof) == {"0", "1", "2"}
    assert len(prof["0"]) == 5
    assert prof["0"][0] == "0"  # v(I) = 0


def test_theta_report_keys():
    ctx = CosimpCtx(F2, Trunc(3, 3))
    rep = theta_report(ctx)
    assert rep["1,0"] == F2.beta.to_json()
    assert "2,0" in rep

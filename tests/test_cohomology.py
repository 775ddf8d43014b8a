"""H^0 solver: identity crystal, forced-zero cases, dimension bounds."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prismstrat.cohomology import full_condition_rows, h0_dim_bound, h0_solve, stage1_rows
from prismstrat.cosimplicial import CosimpCtx
from prismstrat.field import field_init
from prismstrat.matrix import KMat, kernel_basis
from prismstrat.series import Trunc
from prismstrat.stratification import Seeds, StratTable, generate_Amn

from oracles import condition_block

F1 = field_init(3, [-3, 1])
F2 = field_init(3, [-3, 0, 1])
F3 = field_init(3, [-3, 0, 0, 1])


def scalar_seeds(field, values):
    return Seeds.of([KMat.scalar(field, 1, field.from_rational(v)) for v in values])


def test_identity_crystal_has_dim_one():
    ctx = CosimpCtx(F2, Trunc(4, 5))
    table = generate_Amn(scalar_seeds(F2, [0, 0, 0, 0]), ctx, 5)
    sol = h0_solve(table, ctx)
    assert sol.dim == 1
    b = sol.basis[0]
    assert not b[0].is_zero()
    for m in range(1, 4):
        assert b[m].is_zero()
    assert sol.stabilized


def test_invertible_spectrum_kills_h0():
    # A_{0,1} = -beta: product hits zero (genuine crystal), but
    # A_{0,1} - m beta is invertible for every m >= 0, so H^0 = 0
    ctx = CosimpCtx(F1, Trunc(4, 5))
    table = generate_Amn(scalar_seeds(F1, [-1, 0, 0, 0]), ctx, 5)
    sol = h0_solve(table, ctx)
    assert sol.dim == 0
    assert sol.q == 0


def test_twisted_crystal_stage1_relation():
    # l=1, A_{0,1} = 0, A_{1,1} = a: B_1 = a B_0 / beta from the m=1 equation
    ctx = CosimpCtx(F1, Trunc(3, 6))
    a = Fraction(5, 7)
    table = generate_Amn(scalar_seeds(F1, [0, a, 0]), ctx, 6)
    sol = h0_solve(table, ctx)
    assert sol.dim == 1
    b = sol.basis[0]
    beta = F1.beta
    b0 = b[0].rows[0][0]
    b1 = b[1].rows[0][0]
    assert not b0.is_zero()
    assert b1 == F1.from_rational(a) * b0 * beta.inverse()


def test_dim_bound_examples():
    # invertible with no eigenvalue in beta Z_{>=0}
    a01 = KMat.scalar(F1, 1, F1.from_rational(Fraction(1, 2)))
    assert h0_dim_bound(a01, 8) == 0
    # zero matrix: kernel at m=0 only
    assert h0_dim_bound(KMat.zero(F1, 1), 8) == 1
    # diag(0, beta): weights 0 and -1
    beta = F2.beta
    a01 = KMat.from_rows(F2, [[F2.zero, F2.zero], [F2.zero, beta]])
    assert h0_dim_bound(a01, 8) == 2


def test_stage1_matches_general_machinery_at_k1():
    # the X^[1] conditions in closed form: A_{0,1} - m beta on the diagonal
    # and A_{m-p,1} - p theta_{1,m-p} left of it
    ctx = CosimpCtx(F2, Trunc(3, 4))
    seeds = scalar_seeds(F2, [Fraction(1, 2), 2, Fraction(-1, 3)])
    table = generate_Amn(seeds, ctx, 4)
    k1 = full_condition_rows(table, ctx, 3, [1])
    assert stage1_rows(table, ctx, 3) == k1
    for m, row in enumerate(k1):
        for p, block in enumerate(row):
            if p == m:
                want = table.at(0, 1) - KMat.scalar(F2, 1, F2.beta * m)
            elif p < m:
                want = table.at(m - p, 1) - KMat.scalar(F2, 1, ctx.theta_at(1, m - p) * p)
            else:
                want = KMat.zero(F2, 1)
            assert block == want, (m, p)


@pytest.mark.parametrize("field", [F1, F2, F3], ids=["e1", "e2", "e3"])
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_condition_rows_match_product_rule_oracle(field, data):
    # every X^[k] t^m coefficient of R_p = U * alpha^p t^p, k = 0..D, against
    # the divided-power product rule, for commuting and non-commuting seeds
    T, D, rank = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5)), data.draw(st.integers(1, 2))

    def q():
        return field.from_rational(Fraction(data.draw(st.integers(-6, 6)), data.draw(st.integers(1, 4))))

    def mat():
        return KMat.from_rows(field, [[q() for _ in range(rank)] for _ in range(rank)])

    if data.draw(st.booleans()):
        m = mat()
        seeds = Seeds.of([KMat.scalar(field, rank, q()) + m * q() for _ in range(T)])
    else:
        seeds = Seeds.of([mat() for _ in range(T)])
    ctx = CosimpCtx(field, Trunc(T, D))
    table = generate_Amn(seeds, ctx, D)
    rows = full_condition_rows(table, ctx, T, range(D + 1))
    for m in range(T):
        for k in range(D + 1):
            for p in range(T):
                assert rows[m * (D + 1) + k][p] == condition_block(table, ctx, m, k, p), (m, k, p)


def test_solver_dim_bounded_by_q_random():
    rng = random.Random(2029)
    for trial in range(10):
        field = F1 if trial % 2 == 0 else F2
        l = 1 if trial < 6 else 2
        T = 3
        ctx = CosimpCtx(field, Trunc(T, 4))
        seeds = []
        for _ in range(T):
            if l == 1:
                seeds.append(
                    KMat.scalar(
                        field,
                        1,
                        field.from_rational(
                            Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                        ),
                    )
                )
            else:
                seeds.append(
                    KMat.from_rows(
                        field,
                        [
                            [field.from_rational(rng.randint(-3, 3)), field.zero],
                            [field.zero, field.from_rational(rng.randint(-3, 3))],
                        ],
                    )
                )
        table = generate_Amn(Seeds.of(seeds), ctx, 4)
        sol = h0_solve(table, ctx)
        assert sol.dim <= sol.q
        assert sol.dim <= sol.stage1_dim  # filtering never adds solutions


def commuting_seeds(field, d0=Fraction(1, 2)):
    """A_{m,1} = c_m I + d_m M with M = [[1, 2], [2, 4]]: commuting, not
    diagonal, and A_{0,1} = d0 M is singular."""
    m = KMat.from_rows(field, [[field.from_rational(v) for v in row] for row in ((1, 2), (2, 4))])
    cd = [(0, d0), (-1, Fraction(1, 3)), (3, Fraction(-2, 5)), (Fraction(2, 7), 1)]
    return Seeds.of([KMat.scalar(field, 2, field.from_rational(c)) + m * d for c, d in cd])


def commuting_case(field, d0):
    seeds = commuting_seeds(field, d0)
    return lambda ctx: generate_Amn(seeds, ctx, ctx.trunc.pd_degree)


# zero rank-2 seeds with A_{m,n} += delta, and the dims this gives: the
# stage-2 rows then cut the stage-1 kernel, of dimension 2 at t-order T
PERTURBED = {
    "A12": ((1, 2), ((1, 0), (0, 0)), [2, 1, 1, 1]),
    "A02": ((0, 2), ((0, 0), (0, Fraction(2, 3))), [1, 1, 1, 1]),
    "A23": ((2, 3), ((1, 1), (0, 0)), [2, 2, 1, 1]),
    # cut only by the X^[D] condition, D = 5
    "A05": ((0, 5), ((1, 0), (0, 0)), [1, 1, 1, 1]),
    "A15": ((1, 5), ((1, 0), (0, 0)), [2, 1, 1, 1]),
}


def perturbed_case(field, name):
    (m, n), delta, _ = PERTURBED[name]
    moved = KMat.from_rows(field, [[field.from_rational(v) for v in row] for row in delta])

    def build(ctx):
        zero = Seeds.of([KMat.zero(field, 2)] * ctx.trunc.t_order)
        table = generate_Amn(zero, ctx, ctx.trunc.pd_degree)
        if m >= ctx.trunc.t_order:
            return table
        A = dict(table.A)
        A[(m, n)] = A[(m, n)] + moved
        return StratTable(table.l, table.t_order, table.n_max, A)

    return build


def columns(m):
    """The columns of a KMat as tuples of KElems."""
    return list(zip(*m.rows)) if m.nrows else [()] * m.ncols


def flatten(blocks, t):
    """Block rows restricted to their first t block columns, as one KMat."""
    rows = [[a for b in row[:t] for a in b.rows[r]] for row in blocks for r in range(row[0].nrows)]
    return KMat.from_rows(blocks[0][0].field, rows)


@pytest.mark.parametrize(
    "field, build, dims, stage1_dim",
    [
        (F2, commuting_case(F2, Fraction(1, 2)), [1, 1, 1, 1], 1),
        # e = 1 has beta = 1, so A_{0,1} = 2M/5 has the eigenvalue 2 beta and
        # a second section appears from t-order 3 on
        (F1, commuting_case(F1, Fraction(2, 5)), [1, 1, 2, 2], 2),
    ]
    + [
        (field, perturbed_case(field, name), dims, 2)
        for field in (F1, F2, F3)
        for name, (_, _, dims) in PERTURBED.items()
    ],
    ids=["e2", "e1_weight2"] + [f"e{e}_{name}" for e in (1, 2, 3) for name in PERTURBED],
)
def test_dim_per_order_matches_solves_from_scratch(field, build, dims, stage1_dim):
    # the order-t system is a slice of the order-T system; a solve truncated
    # at t from the start must report the kernel_basis of that slice
    T, D = 4, 5
    ctx = CosimpCtx(field, Trunc(T, D))
    table = build(ctx)
    sol = h0_solve(table, ctx)
    assert list(sol.dim_per_order) == dims
    assert sol.stage1_dim == stage1_dim
    ks = range(2, D + 1)
    s1, s2 = stage1_rows(table, ctx, T), full_condition_rows(table, ctx, T, ks)
    for t in range(1, T + 1):
        for rows, whole in (
            (stage1_rows(table, ctx, t), s1[:t]),
            (full_condition_rows(table, ctx, t, ks), s2[: t * len(ks)]),
        ):
            assert [row[:t] for row in whole] == rows
            assert all(b.is_zero() for row in whole for b in row[t:])
        ctx_t = CosimpCtx(field, Trunc(t, D))
        alone = h0_solve(build(ctx_t), ctx_t)
        assert alone.dim == sol.dim_per_order[t - 1], t
        assert alone.stage1_dim == kernel_basis(flatten(s1[:t], t)).ncols, t
        got = [tuple(row[0] for col in elem for row in col.rows) for elem in alone.basis]
        assert got == columns(kernel_basis(flatten(s1[:t] + s2[: t * len(ks)], t))), t
    assert alone.basis == sol.basis


def test_report_shape():
    ctx = CosimpCtx(F1, Trunc(3, 4))
    table = generate_Amn(scalar_seeds(F1, [0, 0, 0]), ctx, 4)
    rep = h0_solve(table, ctx).to_json()
    assert rep["dim"] == 1
    assert rep["dim_per_order"] == [1, 1, 1]
    assert len(rep["basis"][0]) == 3

"""H^0 solver: identity crystal, forced-zero cases, dimension bounds, and
the kernel of P against the full X^[k] system."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prismstrat import cli, series, stratification
from prismstrat.cohomology import full_condition_rows, h0_dim_bound, h0_solve, stage1_rows
from prismstrat.cosimplicial import CosimpCtx
from prismstrat.field import KElem, field_init
from prismstrat.matrix import KMat, mat_inverse, rank
from prismstrat.series import Trunc
from prismstrat.stratification import Seeds, StratTable, first_order_grids, generate_Amn

from oracles import condition_block, euclid_inverse, h0_dim_bound_all_m, h0_full_system

SPECS = Path(__file__).resolve().parents[1] / "specs"
F1 = field_init(3, [-3, 1])
F2 = field_init(3, [-3, 0, 1])
F3 = field_init(3, [-3, 0, 0, 1])


def scalar_seeds(field, values):
    return Seeds.of([KMat.scalar(field, 1, field.from_rational(v)) for v in values])


def test_identity_crystal_has_dim_one():
    ctx = CosimpCtx(F2, Trunc(4, 5))
    sol = h0_solve(scalar_seeds(F2, [0, 0, 0, 0]), ctx)
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
    sol = h0_solve(scalar_seeds(F1, [-1, 0, 0, 0]), ctx)
    assert sol.dim == 0
    assert sol.q == 0


def test_twisted_crystal_stage1_relation():
    # l=1, A_{0,1} = 0, A_{1,1} = a: B_1 = a B_0 / beta from the m=1 equation
    ctx = CosimpCtx(F1, Trunc(3, 6))
    a = Fraction(5, 7)
    sol = h0_solve(scalar_seeds(F1, [0, a, 0]), ctx)
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


@pytest.mark.parametrize("field", [F1, F2, F3], ids=["e1", "e2", "e3"])
def test_dim_bound_matches_a_rank_at_every_m(field):
    # A_{0,1} = diag(m_i beta), half of them conjugated by a unipotent U:
    # ranks only at the roots of the characteristic polynomial give the same q
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def inner(data):
        l = data.draw(st.integers(1, 4))
        weights = data.draw(st.lists(st.integers(-2, 8), min_size=l, max_size=l))
        a01 = KMat.from_rows(field, [[field.beta * w if i == j else field.zero for j, w in enumerate(weights)]
                                     for i in range(l)])
        if data.draw(st.booleans()):
            above = st.fractions(min_value=-9, max_value=9, max_denominator=9)
            u = KMat.from_rows(field, [[field.from_rational(data.draw(above) if j > i else int(i == j))
                                        for j in range(l)] for i in range(l)])
            a01 = u * a01 * mat_inverse(u)
        m_probe = data.draw(st.integers(0, 8))
        assert h0_dim_bound(a01, m_probe) == h0_dim_bound_all_m(a01, m_probe)

    inner()


def rational_matrix(field, rows):
    return KMat.from_rows(field, [[field.from_rational(v) for v in row] for row in rows])


def test_stage1_matches_general_machinery_at_k1():
    # the X^[1] conditions read off U * alpha^p t^p are the block grid P:
    # A_{0,1} - m beta on the diagonal, A_{m-p,1} - p theta_{1,m-p} left of it
    rows = (((Fraction(1, 2), 1), (0, 2)), ((2, 0), (Fraction(-1, 3), 1)), ((0, 5), (Fraction(3, 4), -1)))
    for field in (F1, F2, F3):
        ctx = CosimpCtx(field, Trunc(3, 4))
        seeds = Seeds.of([rational_matrix(field, r) for r in rows])
        assert not seeds.commutative()
        P, _ = first_order_grids(seeds, ctx)
        assert stage1_rows(generate_Amn(seeds, ctx, 4), ctx, 3) == P, field.e
        assert P[2][1] == seeds.A1[1] - KMat.scalar(field, 2, ctx.theta_at(1, 1)), field.e
        assert P[2][2] == seeds.a01 - KMat.scalar(field, 2, field.beta * 2), field.e


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
        sol = h0_solve(Seeds.of(seeds), ctx)
        assert sol.dim <= sol.q


def commuting_seeds(field, d0=Fraction(1, 2)):
    """A_{m,1} = c_m I + d_m M with M = [[1, 2], [2, 4]]: commuting, not
    diagonal, and A_{0,1} = d0 M is singular."""
    m = KMat.from_rows(field, [[field.from_rational(v) for v in row] for row in ((1, 2), (2, 4))])
    cd = [(0, d0), (-1, Fraction(1, 3)), (3, Fraction(-2, 5)), (Fraction(2, 7), 1)]
    return Seeds.of([KMat.scalar(field, 2, field.from_rational(c)) + m * d for c, d in cd])


def commuting_case(field, d0):
    seeds = commuting_seeds(field, d0)
    return lambda ctx: (seeds, generate_Amn(seeds, ctx, ctx.trunc.pd_degree))


# zero rank-2 seeds with A_{m,n} += delta (n >= 2), and the dims of the full
# X^[k] system this gives: the X^[k >= 2] rows then cut the X^[1] kernel, of
# dimension 2 at t-order T.  The table is no longer a stratification, and
# the kernel of P, computed from the seeds alone, stays (2, 2, 2, 2).
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
    moved = rational_matrix(field, delta)

    def build(ctx):
        zero = Seeds.of([KMat.zero(field, 2)] * ctx.trunc.t_order)
        table = generate_Amn(zero, ctx, ctx.trunc.pd_degree)
        A = dict(table.A)
        A[(m, n)] = A[(m, n)] + moved
        return zero, StratTable(table.l, table.t_order, table.n_max, A)

    return build


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
    # the full X^[k] system, solved from scratch at every t-order, has the
    # dims given.  On a generated table h0_solve (ker P) agrees with it at
    # every truncation; on a perturbed one it must not, which shows that the
    # comparison can fail
    T, D = 4, 5
    ctx = CosimpCtx(field, Trunc(T, D))
    seeds, table = build(ctx)
    basis, full_dims, full_stage1 = h0_full_system(table, ctx)
    assert (list(full_dims), full_stage1) == (dims, stage1_dim)
    sol = h0_solve(seeds, ctx)
    if table != generate_Amn(seeds, ctx, D):
        assert sol.dim_per_order == (2, 2, 2, 2) != full_dims
        return
    assert (sol.basis, sol.dim_per_order, sol.to_json()["stage1_dim"]) == (basis, full_dims, full_stage1)
    for t in range(1, T + 1):
        ctx_t = CosimpCtx(field, Trunc(t, D))
        alone = h0_solve(seeds, ctx_t)
        assert alone.dim_per_order == full_dims[:t], t
        assert alone.basis == h0_full_system(build(ctx_t)[1], ctx_t)[0], t
    assert alone.basis == sol.basis


RATIONAL = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def h0_cases(draw):
    """(T, D, seeds as rational rows, weights, unipotent): commuting seeds
    c_m I + d_m M; free seeds; or free seeds whose A_{0,1} is made upper
    triangular with diagonal m_i beta, m_i in [0, T], so that H^0 is nonzero.
    A unipotent I + N (N strictly lower triangular), when drawn, conjugates
    every seed."""
    T, D, rank = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 3))
    square = st.lists(st.lists(RATIONAL, min_size=rank, max_size=rank), min_size=rank, max_size=rank)
    kind, weights = draw(st.sampled_from(("commuting", "free", "weights"))), None
    if kind == "commuting":
        m = draw(square)
        cd = draw(st.lists(st.tuples(RATIONAL, RATIONAL), min_size=T, max_size=T))
        mats = [[[c * (i == j) + d * m[i][j] for j in range(rank)] for i in range(rank)] for c, d in cd]
    else:
        mats = draw(st.lists(square, min_size=T, max_size=T))
    if kind == "weights":
        weights = draw(st.lists(st.integers(0, T), min_size=rank, max_size=rank))
    lower = [[draw(st.integers(-2, 2)) if j < i else 0 for j in range(rank)] for i in range(rank)]
    return T, D, mats, weights, lower if draw(st.booleans()) else None


def h0_case_seeds(field, mats, weights, lower):
    seeds = [rational_matrix(field, rows) for rows in mats]
    if weights:
        upper = [[v if j > i else 0 for j, v in enumerate(row)] for i, row in enumerate(mats[0])]
        rank = len(weights)
        beta_w = [[field.beta * w if i == j else field.zero for j in range(rank)] for i, w in enumerate(weights)]
        seeds[0] = rational_matrix(field, upper) + KMat.from_rows(field, beta_w)
    if lower:
        ident, n = KMat.identity(field, len(lower)), rational_matrix(field, lower)
        unipotent, inverse = ident + n, ident - n + n * n  # N^3 = 0 at rank <= 3
        seeds = [unipotent * s * inverse for s in seeds]
    return Seeds.of(seeds)


PINNED_SEEDS = [[[0, Fraction(1, 2)], [0, 0]], [[1, 2], [3, 4]], [[0, 1], [1, 0]], [[2, 0], [1, -1]]]


@pytest.mark.parametrize("field", [F1, F2, F3], ids=["e1", "e2", "e3"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=h0_cases())
# weights (0, 2) under non-commuting seeds, conjugated: dim_per_order (1, 1, 1, 1)
@example(case=(4, 2, PINNED_SEEDS, [0, 2], [[0, 0], [1, 0]]))
def test_h0_matches_full_system_oracle(field, case):
    # ker P, built from the seeds, against the full X^[k] system of the
    # generated table, solved from scratch at every t-order: same basis,
    # dim_per_order and stage1_dim
    T, D, mats, weights, lower = case
    ctx = CosimpCtx(field, Trunc(T, D))
    seeds = h0_case_seeds(field, mats, weights, lower)
    basis, dims, stage1_dim = h0_full_system(generate_Amn(seeds, ctx, D), ctx)
    sol = h0_solve(seeds, ctx)
    assert (sol.basis, sol.dim_per_order, sol.to_json()["stage1_dim"]) == (basis, dims, stage1_dim)


def test_h0_solve_builds_no_table_alpha_power_or_ring_product(monkeypatch, tmp_path):
    # h0 takes the kernel of P from the seeds; it needs neither the table U
    # nor a power of alpha nor a ring product, and the CLI builds no table
    seeds = commuting_seeds(F1, Fraction(2, 5))
    ctx = CosimpCtx(F1, Trunc(4, 6))

    def refuse(*args, **kwargs):
        raise AssertionError("h0 left the first-order system")

    monkeypatch.setattr(cli, "generate_Amn", refuse)
    monkeypatch.setattr(stratification, "generate_Amn", refuse)
    monkeypatch.setattr(CosimpCtx, "alpha_pows", refuse)
    assert cli.run("h0", str(SPECS / "cocycle_e1.json"), str(tmp_path / "out.json")) == 0
    monkeypatch.setattr(series, "ring_sum", refuse)
    assert h0_solve(seeds, ctx).dim_per_order == (1, 1, 2, 2)


def test_report_shape():
    ctx = CosimpCtx(F1, Trunc(3, 4))
    rep = h0_solve(scalar_seeds(F1, [0, 0, 0]), ctx).to_json()
    assert rep["dim"] == 1
    assert rep["dim_per_order"] == [1, 1, 1]
    assert rep["stage1_dim"] == 1
    assert len(rep["basis"][0]) == 3


def test_wide_corner_rank_h0_and_pivot_inverses(monkeypatch, tmp_path):
    # rank 8, e = 8, T = D = 1: one seed whose 512 coordinates are independent
    # rationals +-n/m, n, m <= 99 (a common denominator of 136 bits); each
    # elimination pivot of rank(A_{0,1}) is inverted by integer elimination
    # and checked against extended Euclid over Q[u]
    rng = random.Random(0)

    def rational():
        return str(Fraction(rng.choice((1, -1)) * rng.randint(1, 99), rng.randint(1, 99)))

    seed = [[[rational() for _ in range(8)] for _ in range(8)] for _ in range(8)]
    spec = {"p": 3, "E_coeffs": ["-3"] + ["0"] * 7 + ["1"], "rank": 8, "seeds": [seed]}
    spec.update(trunc={"t": 1, "x": 1}, padic_prec=8)
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(spec))
    a01 = cli.load_problem(spec).seeds.a01
    assert a01.den.bit_length() == 136

    pivots, inverse = [], KElem.inverse

    def recording_inverse(a):
        pivots.append((a, inverse(a)))
        return pivots[-1][1]

    monkeypatch.setattr(KElem, "inverse", recording_inverse)
    assert rank(a01) == 8
    monkeypatch.undo()
    assert len(pivots) == 8
    for a, inv in pivots:
        ref = euclid_inverse(a)
        assert (inv.den, inv.nums) == (ref.den, ref.nums)

    assert cli.run("h0", str(path), str(tmp_path / "out.json")) == 0
    assert json.loads((tmp_path / "out.json").read_text())["solution"]["dim"] == 0

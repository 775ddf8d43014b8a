"""Table generation, epsilon assembly, cocycle residuals, near-HT probes."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prismstrat import cli, series
from prismstrat.closedform import exponential_sum_series
from prismstrat.cosimplicial import CosimpCtx, face_map
from prismstrat.errors import SeedShapeMismatch
from prismstrat.field import field_init
from prismstrat.matrix import KMat
from prismstrat.series import SimplexRingElem as SRE
from prismstrat.series import Trunc
from prismstrat.stratification import (
    Seeds,
    assemble_epsilon,
    check_near_HT,
    check_weights_near_HT,
    cocycle_residual,
    StratTable,
    generate_Amn,
    residual_report,
    rising_products,
)
from prismstrat.stratification import _weight_in_near_HT_set

from oracles import c_poly, generate_Amn_inductive, rising_products_loop, weight_in_near_HT_set_by_coords

F1 = field_init(3, [-3, 1])
F2 = field_init(3, [-3, 0, 1])
F3 = field_init(3, [-3, 0, 0, 1])


def scalar_seeds(field, values):
    return Seeds.of([KMat.scalar(field, 1, field.from_rational(v)) for v in values])


def test_seed_validation():
    with pytest.raises(SeedShapeMismatch):
        Seeds.of([])
    a = KMat.identity(F1, 2)
    b = KMat.identity(F1, 3)
    with pytest.raises(SeedShapeMismatch):
        Seeds.of([a, b])


def test_zero_seeds_give_identity_table():
    ctx = CosimpCtx(F1, Trunc(3, 4))
    table = generate_Amn(scalar_seeds(F1, [0, 0, 0]), ctx, 4)
    for (m, n), mat in table.A.items():
        if (m, n) == (0, 0):
            assert mat == KMat.identity(F1, 1)
        else:
            assert mat.is_zero()
    U = assemble_epsilon(table, ctx)
    assert U == SRE.one(F1, 1, ctx.trunc)


def test_row_zero_is_rising_factorial():
    ctx = CosimpCtx(F2, Trunc(2, 6))
    a01 = KMat.scalar(F2, 1, F2.from_rational(Fraction(2, 5)))
    table = generate_Amn(Seeds.of([a01, KMat.zero(F2, 1)]), ctx, 6)
    acc = KMat.identity(F2, 1)
    beta = F2.beta
    for n in range(7):
        assert table.at(0, n) == acc
        acc = (KMat.scalar(F2, 1, beta * n) + a01) * acc


def test_hand_checked_row_one():
    # e=1, beta=1, A_{0,1} = -1, A_{1,1} = a: A_{1,2} = -2a, A_{1,3} = 0
    ctx = CosimpCtx(F1, Trunc(2, 5))
    a = Fraction(5, 7)
    table = generate_Amn(scalar_seeds(F1, [-1, a]), ctx, 5)
    assert table.at(1, 2) == KMat.scalar(F1, 1, F1.from_rational(-2 * a))
    assert table.at(1, 3).is_zero()
    assert table.at(1, 4).is_zero()


def test_seeds_must_cover_t_order():
    # the loader refuses seeds short of T for every engine command, gen too
    spec = {"p": 3, "E_coeffs": ["-3", "1"], "rank": 1, "seeds": [[["0"]], [["0"]]], "trunc": {"t": 3, "x": 3}}
    for command in cli.COMMANDS[:-2]:
        with pytest.raises(SeedShapeMismatch):
            cli.load_problem(spec, command)


def test_epsilon_unit_constant_term():
    ctx = CosimpCtx(F2, Trunc(3, 4))
    seeds = scalar_seeds(F2, [2, 3, Fraction(1, 2)])
    U = assemble_epsilon(generate_Amn(seeds, ctx, 4), ctx)
    assert U.constant_term() == KMat.identity(F2, 1)
    assert (U * U.invert()) == SRE.one(F2, 1, ctx.trunc)


def test_cocycle_zero_seeds():
    ctx = CosimpCtx(F2, Trunc(4, 4))
    table = generate_Amn(scalar_seeds(F2, [0, 0, 0, 0]), ctx, 4)
    R = cocycle_residual(assemble_epsilon(table, ctx), ctx)
    assert R.is_zero()
    assert residual_report(R)["verdict"] == "ZERO_RESIDUAL"


def test_cocycle_e1_generic_scalar_seed():
    # the desk-scale instance of the sufficiency conjecture at small truncation
    ctx = CosimpCtx(F1, Trunc(3, 5))
    table = generate_Amn(scalar_seeds(F1, [-1, Fraction(5, 7), 0]), ctx, 5)
    R = cocycle_residual(assemble_epsilon(table, ctx), ctx)
    assert R.is_zero()


def test_zero_column_forced():
    # coefficient of X_2^[k] at X_1-degree 0: reproduces the A_{i,0} = 0 argument
    ctx = CosimpCtx(F2, Trunc(3, 4))
    seeds = scalar_seeds(F2, [Fraction(1, 2), 1, Fraction(-2, 3)])
    table = generate_Amn(seeds, ctx, 4)
    R = cocycle_residual(assemble_epsilon(table, ctx), ctx)
    for m in range(3):
        for k in range(5):
            assert R.coeff(m, (0, k)).is_zero()


def cocycle_coefficient_residual(table: StratTable, ctx: CosimpCtx, m: int, k: int) -> SRE:
    """The re-indexed residual for (t^m, X_2^[k]):

        A_{m,k} - sum_{i+j=m} (sum_s A_{j,s} X_1^[s])
                  (sum_{p<=i} sum_v A_{p,k+v} (-1)^v X_1^[v] c_{p-(k+v), i-p})

    as a 1-variable pd polynomial, truncated at degree D - k so it matches
    the ring-computed residual coefficient-for-coefficient.
    """
    field = ctx.field
    deg = ctx.trunc.pd_degree - k
    tr = Trunc(1, max(deg, 0))
    l = table.l
    total = SRE.zero(field, 1, tr, l)
    if deg < 0:
        return total
    for i in range(m + 1):
        j = m - i
        first: dict = {}
        for s in range(min(deg, table.n_max) + 1):
            mat = table.at(j, s)
            if not mat.is_zero():
                first[(0, (s,))] = mat
        first_sre = SRE(field, 1, tr, l, first)
        inner = SRE.zero(field, 1, tr, l)
        for p in range(i + 1):
            for v in range(deg + 1):
                if k + v > table.n_max:
                    break
                apk = table.at(p, k + v)
                if apk.is_zero():
                    continue
                cpoly = c_poly(ctx, p - (k + v), i - p)
                if not cpoly:
                    continue
                sign = Fraction(-1) ** v
                for w, cval in cpoly.items():
                    if v + w > deg:
                        continue
                    # X^[v] * X^[w] = C(v+w, v) X^[v+w]
                    scale = cval * (sign * comb(v + w, v))
                    mono = SRE.monomial(field, 1, tr, 0, (v + w,), apk * scale)
                    inner = inner + mono
        total = total + first_sre * inner
    lead = SRE.from_matrix(field, 1, tr, table.at(m, k)) if k <= table.n_max else SRE.zero(field, 1, tr, l)
    return lead - total


def _formula_matches_ring_residual(table, ctx) -> int:
    """Compare the ring residual with the re-indexed coefficient formula
    coefficient for coefficient; returns the number of nonzero coefficients."""
    R = cocycle_residual(assemble_epsilon(table, ctx), ctx)
    nonzero = 0
    for m in range(ctx.trunc.t_order):
        for k in range(ctx.trunc.pd_degree + 1):
            formula = cocycle_coefficient_residual(table, ctx, m, k)
            for v in range(ctx.trunc.pd_degree - k + 1):
                assert R.coeff(m, (v, k)) == formula.coeff(0, (v,)), (m, k, v)
                nonzero += not R.coeff(m, (v, k)).is_zero()
    return nonzero


def test_coefficient_formula_matches_ring_residual():
    ctx = CosimpCtx(F2, Trunc(3, 4))
    seeds = scalar_seeds(F2, [Fraction(1, 2), 1, Fraction(-2, 3)])
    assert _formula_matches_ring_residual(generate_Amn(seeds, ctx, 4), ctx) == 0

    # a nonzero residual: E = u^2 + (3/2)u + 3/5 (reducing pi^2 mod E brings
    # in denominators), non-commuting rank-2 seeds with pi-valued entries,
    # and A_{1,2} perturbed so the table is no longer a cocycle
    field = field_init(3, [Fraction(3, 5), Fraction(3, 2), 1])
    ctx = CosimpCtx(field, Trunc(3, 4))

    def mat(rows):
        return KMat.from_rows(field, [[field.from_coords(c) for c in row] for row in rows])

    seeds = Seeds.of(
        [
            mat([[[1, 2], [0, -1]], [[Fraction(1, 3)], [2]]]),
            mat([[[0], [1, 1]], [[-1], [Fraction(1, 2), -1]]]),
            mat([[[2, Fraction(-1, 4)], [3]], [[0, 1], [1]]]),
        ]
    )
    assert not seeds.commutative()
    table = generate_Amn(seeds, ctx, 4)
    perturbed = dict(table.A)
    perturbed[(1, 2)] = perturbed[(1, 2)] + mat([[[1], [0, 1]], [[0], [Fraction(2, 3)]]])
    table = StratTable(table.l, table.t_order, table.n_max, perturbed)
    assert _formula_matches_ring_residual(table, ctx) == 14


def face_map_residual(U: SRE, ctx: CosimpCtx) -> SRE:
    """The residual in the basis X_1^[a] X_2^[b] through the face maps of
    cosimplicial: delta_0 takes one 2-variable ring product per shift p - q."""
    return face_map(ctx, 1, U) - face_map(ctx, 2, U) * face_map(ctx, 0, U)


@pytest.mark.parametrize("field", [F1, F2, F3], ids=["e1", "e2", "e3"])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_generate_Amn_matches_entrywise_induction(field, data):
    # commuting seeds are c A_{0,1} + d I; the others are drawn entry by entry
    t_order, n_max, rank = data.draw(st.integers(1, 6)), data.draw(st.integers(0, 8)), data.draw(st.integers(1, 3))
    ctx = CosimpCtx(field, Trunc(t_order, n_max))

    def entry():
        n_coords = data.draw(st.integers(1, field.e))
        return field.from_coords(
            [Fraction(data.draw(st.integers(-5, 5)), data.draw(st.integers(1, 4))) for _ in range(n_coords)]
        )

    def mat():
        return KMat.from_rows(field, [[entry() for _ in range(rank)] for _ in range(rank)])

    a01 = mat()
    if data.draw(st.booleans()):
        seeds = Seeds.of([a01] + [a01 * entry() + KMat.scalar(field, rank, entry()) for _ in range(t_order - 1)])
        assert seeds.commutative()
    else:
        seeds = Seeds.of([a01] + [mat() for _ in range(t_order - 1)])
    assert generate_Amn(seeds, ctx, n_max) == generate_Amn_inductive(seeds, ctx, n_max)


@pytest.mark.parametrize("field", [F1, F2, F3], ids=["e1", "e2", "e3"])
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_generate_Amn_ignores_pd_degree(field, data):
    # gen sizes its table by D alone: the table to n_max = N is the same for
    # contexts that differ only in pd degree
    t_order, rank, n_max = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 3)), data.draw(st.integers(0, 6))
    pd_degrees = data.draw(st.lists(st.integers(0, 8), min_size=2, max_size=2, unique=True))

    def entry():
        n_coords = data.draw(st.integers(1, field.e))
        return field.from_coords(
            [Fraction(data.draw(st.integers(-5, 5)), data.draw(st.integers(1, 4))) for _ in range(n_coords)]
        )

    def mat():
        return KMat.from_rows(field, [[entry() for _ in range(rank)] for _ in range(rank)])

    seeds = Seeds.of([mat() for _ in range(t_order)])
    tables = [generate_Amn(seeds, CosimpCtx(field, Trunc(t_order, d)), n_max) for d in pd_degrees]
    assert tables[0] == tables[1]


@pytest.mark.parametrize("field", [F1, F2, F3], ids=["e1", "e2", "e3"])
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_cocycle_residual_matches_face_maps(field, data):
    # generated tables have zero residuals; one perturbed entry makes them nonzero
    t_order, pd_degree, rank = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 6)), data.draw(st.integers(1, 2))
    ctx = CosimpCtx(field, Trunc(t_order, pd_degree))

    def entry():
        n_coords = data.draw(st.integers(1, field.e))
        return field.from_coords(
            [Fraction(data.draw(st.integers(-5, 5)), data.draw(st.integers(1, 4))) for _ in range(n_coords)]
        )

    def mat():
        return KMat.from_rows(field, [[entry() for _ in range(rank)] for _ in range(rank)])

    table = generate_Amn(Seeds.of([mat() for _ in range(t_order)]), ctx, pd_degree)
    if data.draw(st.booleans()):
        key = data.draw(st.sampled_from(sorted(table.A)))
        perturbed = {**table.A, key: table.A[key] + mat()}
        table = StratTable(table.l, table.t_order, table.n_max, perturbed)
    U = assemble_epsilon(table, ctx)
    assert cocycle_residual(U, ctx) == face_map_residual(U, ctx)


def test_cocycle_residual_takes_one_two_variable_ring_product(monkeypatch):
    # the face-map route takes one product per shift p - q, 17 at T=5, D=12
    ring_sum, n_vars = series.ring_sum, []

    def counting(pairs):
        n_vars.extend(x.n_vars for x, _ in pairs)
        return ring_sum(pairs)

    monkeypatch.setattr(series, "ring_sum", counting)
    ctx = CosimpCtx(F2, Trunc(5, 12))
    seeds = scalar_seeds(F2, [Fraction(2, 3), -1, Fraction(1, 2), 3, -2])
    U = assemble_epsilon(generate_Amn(seeds, ctx, 12), ctx)
    assert cocycle_residual(U, ctx).is_zero()
    assert n_vars.count(2) == 1


def test_near_HT_probe_exact_zero():
    a01 = KMat.scalar(F2, 1, -F2.beta)
    rep = check_near_HT(a01, n_probe=10, threshold=5)
    assert rep["verdict"] == "PASS"
    assert rep["min_valuations"] == ["1", "inf"]  # a zero product ends the probe


@pytest.mark.parametrize("field", [F1, F2, F3], ids=["e1", "e2", "e3"])
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_rising_products_match_the_loop(field, data):
    # upper triangular A_{0,1}, its diagonal -k beta or a rational; with
    # distinct k <= 4 on the whole diagonal the products reach zero
    rank, n = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 8))
    ks = data.draw(st.lists(st.integers(0, 4), min_size=rank, max_size=rank, unique=True))
    rational = data.draw(st.booleans())

    def q():
        return field.from_rational(Fraction(data.draw(st.integers(-6, 6)), data.draw(st.integers(1, 4))))

    rows = [[q() if c > r else field.zero for c in range(rank)] for r in range(rank)]
    for r, k in enumerate(ks):
        rows[r][r] = q() if rational else field.beta * -k
    a01 = KMat.from_rows(field, rows)
    got, expect = rising_products(a01, n), rising_products_loop(a01, n)
    assert got == expect[: len(got)]
    assert all(prod.is_zero() for prod in expect[len(got) :])
    assert not any(prod.is_zero() for prod in got[:-1])
    assert len(got) == n + 1 or got[-1].is_zero()
    if not rational and n > max(ks):
        assert len(got) == max(ks) + 2  # the first zero product is at s = max(ks) + 1
    growth = exponential_sum_series(field, a01, Trunc(1, n)).coeffs
    assert growth == {(0, (s,)): prod for s, prod in enumerate(expect) if not prod.is_zero()}


def test_near_HT_probe_factorial_growth():
    a01 = KMat.identity(F1, 1)
    rep = check_near_HT(a01, n_probe=200, threshold=40)
    assert rep["verdict"] == "PASS"


def test_near_HT_probe_divergent():
    a01 = KMat.scalar(F1, 1, F1.from_rational(Fraction(1, 3)))
    rep = check_near_HT(a01, n_probe=30, threshold=0)
    assert rep["verdict"] == "FAIL"
    assert rep["min_valuations"] == [str(-k) for k in range(1, 32)]


def test_near_HT_exact_weights():
    # integer weights pass
    rep = check_weights_near_HT([F2.from_rational(4)])
    assert rep["verdict"] == "PASS"
    assert rep["weights"][0]["nearest_integer"] == 4
    # weight 1/p fails: negative-valuation distance to every integer
    rep = check_weights_near_HT([F1.from_rational(Fraction(1, 3))])
    assert rep["verdict"] == "FAIL"
    # weight with small pi-perturbation passes for e=2 (beta = 2 pi, v=1)
    w = F2.from_coords([2, Fraction(1)])  # 2 + pi, v(w-2) = 1 > -1
    rep = check_weights_near_HT([w])
    assert rep["verdict"] == "PASS"
    # rational weight 5/3 at p=3 fails even with the beta slack
    rep = check_weights_near_HT([F2.from_rational(Fraction(5, 3))])
    assert rep["verdict"] == "FAIL"


def _rationals(p):
    """Rationals of height up to 10^6, often with powers of p in the
    numerator or the denominator, and 0."""
    part = st.one_of(st.just(1), st.integers(1, 10**6))
    power = st.integers(0, 4).map(lambda i: p**i)
    num = st.builds(lambda s, a, q: s * a * q, st.sampled_from((1, -1)), part, power)
    den = st.builds(lambda a, q: a * q, part, power)
    return st.one_of(st.just(Fraction(0)), st.builds(Fraction, num, den))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_weight_in_near_HT_set_matches_the_coordinate_oracle(data):
    # x - 3, x^2 - 3, x^3 - 3: c_0 need match an integer to p^k, k = 1, 0, -1
    field = data.draw(st.sampled_from((F1, F2, F3)))
    coords = data.draw(st.lists(_rationals(field.p), min_size=field.e, max_size=field.e))
    w = field.from_coords(coords)
    assert _weight_in_near_HT_set(w) == weight_in_near_HT_set_by_coords(w)


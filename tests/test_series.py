"""Truncated pd-series ring: product rule, units, log/exp, matrix exponents."""

import functools
import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prismstrat.cosimplicial import CosimpCtx, binom
from prismstrat.errors import BadConstantTerm, NonUnit, ShapeMismatch
from prismstrat.field import field_init
from prismstrat.matrix import KMat
from prismstrat.series import SimplexRingElem as SRE
from prismstrat.series import Trunc, key_sums

from oracles import binary_power_loop, binomial_power_per_key, key_sums_stacked, truncate

F = field_init(3, [-3, 1])
FQ = field_init(3, [-3, 0, 1])
# Eisenstein at 3 with non-integral coefficients: pi^k mod E has denominators
FQ_FRAC = field_init(3, [Fraction(3, 5), Fraction(3, 2), 1])
FC = field_init(3, [-3, 0, 0, 1])
FC_FRAC = field_init(3, [Fraction(-6, 5), Fraction(3, 4), 0, 1])


def X(field=F, trunc=Trunc(1, 8), n=1):
    return SRE.monomial(field, 1, trunc, 0, (n,), KMat.identity(field, 1))


def test_pd_product_rule_small():
    assert X(n=1) * X(n=1) == X(n=2) * Fraction(2)
    assert X(n=2) * X(n=3) == X(n=5) * Fraction(10)


def test_truncation_is_ideal():
    tr = Trunc(2, 0)
    one = SRE.one(F, 0, tr)
    t = SRE.monomial(F, 0, tr, 1, (), KMat.identity(F, 1))
    assert (one + t) * (one - t) == one


def test_invert_geometric():
    tr = Trunc(1, 3)
    one = SRE.one(F, 1, tr)
    x = SRE.monomial(F, 1, tr, 0, (1,), KMat.identity(F, 1))
    inv = (one - x).invert()
    expect = SRE(
        F,
        1,
        tr,
        1,
        {
            (0, (0,)): KMat.identity(F, 1),
            (0, (1,)): KMat.identity(F, 1),
            (0, (2,)): KMat.identity(F, 1) * 2,
            (0, (3,)): KMat.identity(F, 1) * 6,
        },
    )
    assert inv == expect
    assert (one - x) * inv == one


def test_invert_trivial_and_nonunit():
    tr = Trunc(2, 2)
    one = SRE.one(F, 1, tr)
    assert one.invert() == one
    x = SRE.monomial(F, 1, tr, 0, (1,), KMat.identity(F, 1))
    with pytest.raises(NonUnit):
        x.invert()


def test_log_examples():
    tr = Trunc(1, 2)
    one = SRE.one(F, 1, tr)
    x = SRE.monomial(F, 1, tr, 0, (1,), KMat.identity(F, 1))
    assert one.log().is_zero()
    # log(1-X) = -X - X^2/2 - ... = -X - X^[2] to degree 2
    lg = (one - x).log()
    expect = SRE(
        F,
        1,
        tr,
        1,
        {(0, (1,)): KMat.identity(F, 1) * -1, (0, (2,)): KMat.identity(F, 1) * -1},
    )
    assert lg == expect


def test_log_requires_unit_constant():
    tr = Trunc(1, 2)
    x = SRE.monomial(F, 1, tr, 0, (1,), KMat.identity(F, 1))
    with pytest.raises(BadConstantTerm):
        x.log()
    with pytest.raises(BadConstantTerm):
        (x + SRE.one(F, 1, tr) * 2).log()


@pytest.mark.parametrize("deg", [1, 2, 3, 4, 5, 6])
def test_exp_log_round_trip(deg):
    tr = Trunc(2, deg)
    one = SRE.one(F, 1, tr)
    x = SRE.monomial(F, 1, tr, 0, (1,), KMat.identity(F, 1))
    t = SRE.monomial(F, 1, tr, 1, (0,), KMat.identity(F, 1))
    a = one - x + t * Fraction(1, 2)
    assert a.log().exp() == a
    b = x - t * 3
    assert b.exp().log() == b


def test_exp_pow_zero_exponent():
    tr = Trunc(2, 4)
    one = SRE.one(F, 1, tr)
    x = SRE.monomial(F, 1, tr, 0, (1,), KMat.identity(F, 1))
    assert (one - x).exp_pow(KMat.zero(F, 1)) == one


def test_exp_pow_square():
    tr = Trunc(1, 4)
    one = SRE.one(F, 1, tr)
    x = SRE.monomial(F, 1, tr, 0, (1,), KMat.identity(F, 1))
    # (1-X)^2 = 1 - 2X + 2X^[2]
    got = (one - x).exp_pow(KMat.identity(F, 1) * 2)
    assert got == (one - x) * (one - x)
    expect = SRE(
        F,
        1,
        tr,
        1,
        {
            (0, (0,)): KMat.identity(F, 1),
            (0, (1,)): KMat.identity(F, 1) * -2,
            (0, (2,)): KMat.identity(F, 1) * 2,
        },
    )
    assert got == expect


@pytest.mark.parametrize("r", [-3, -1, 0, 1, 2, 5])
def test_exp_pow_integer_exponents_match_products(r):
    tr = Trunc(2, 5)
    one = SRE.one(FQ, 1, tr)
    x = SRE.monomial(FQ, 1, tr, 0, (1,), KMat.identity(FQ, 1))
    t = SRE.monomial(FQ, 1, tr, 1, (0,), KMat.identity(FQ, 1))
    a = one - x * FQ.beta + t * FQ.pi
    got = a.exp_pow(KMat.identity(FQ, 1) * r)
    assert got == a**r
    assert binomial_power_per_key([one, a - one], r) == a**r
    # the (1 - beta X)^r of the closed-form rows, by the scalar binomials
    # C(r, i) that closedform_series reads: sum_i C(r, i) (-beta)^i i! X^[i]
    base = one - x * FQ.beta
    terms = {(0, (i,)): KMat.scalar(FQ, 1, (-FQ.beta) ** i * (binom(r, i) * factorial(i))) for i in range(6)}
    assert SRE(FQ, 1, tr, 1, terms) == base**r


def test_exp_pow_matrix_exponent_is_rising_factorial_series():
    # (1 - beta X)^(-A/beta) = sum_s prod_{i<s}(i beta + A) X^[s]  (k=0 case
    # of the exponential-sum identity)
    field = FQ
    tr = Trunc(1, 8)
    one = SRE.one(field, 1, tr)
    x = SRE.monomial(field, 1, tr, 0, (1,), KMat.identity(field, 1))
    beta = field.beta
    a01 = KMat.from_rows(
        field,
        [
            [field.from_rational(Fraction(5, 2)), field.from_rational(1)],
            [field.zero, field.pi],
        ],
    )
    exponent = a01 * beta.inverse() * -1  # -A/beta
    got = (one - x * beta).exp_pow(exponent)
    acc = KMat.identity(field, 2)
    for s in range(tr.pd_degree + 1):
        coeff = got.coeff(0, (s,))
        assert coeff == acc
        step = KMat.scalar(field, 2, beta * s) + a01
        acc = step * acc
    # exp_pow result is 2x2 sized
    assert got.size == 2


def test_shape_mismatch_rejected():
    a = SRE.one(F, 1, Trunc(2, 2))
    b = SRE.one(F, 1, Trunc(2, 3))
    with pytest.raises(ShapeMismatch):
        a + b
    c = SRE.one(F, 2, Trunc(2, 2))
    with pytest.raises(ShapeMismatch):
        a * c


def _random_sre(rng, field, n_vars, trunc, size):
    out = SRE.zero(field, n_vars, trunc, size)
    keys = [
        (m, idx)
        for m in range(trunc.t_order)
        for idx in _indices(n_vars, trunc.pd_degree)
    ]
    for key in rng.sample(keys, min(len(keys), 4)):
        mat = KMat.from_rows(
            field,
            [
                [
                    field.from_coords(
                        [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(field.e)]
                    )
                    for _ in range(size)
                ]
                for _ in range(size)
            ],
        )
        out = out + SRE.monomial(field, n_vars, trunc, key[0], key[1], mat)
    return out


def _reference_product(a, b):
    """The KMat-level double loop over term pairs, as the product was before
    the integer kernel: one KMat product and one rescale per kept pair."""
    trunc = a.trunc
    out = {}
    for (m1, i1), x in a.coeffs.items():
        for (m2, i2), y in b.coeffs.items():
            m = m1 + m2
            idx = tuple(u + v for u, v in zip(i1, i2))
            if m >= trunc.t_order or sum(idx) > trunc.pd_degree:
                continue
            scale = 1
            for u, v in zip(i1, i2):
                scale *= comb(u + v, u)
            term = x * y * Fraction(scale)
            key = (m, idx)
            out[key] = out[key] + term if key in out else term
    return SRE(a.field, a.n_vars, trunc, a.size, out)


@pytest.mark.parametrize(
    "field", [F, FQ, FQ_FRAC, FC, FC_FRAC], ids=["e1", "e2", "e2_frac", "e3", "e3_frac"]
)
@pytest.mark.parametrize("n_vars", [0, 1, 2])
@pytest.mark.parametrize("size", [1, 2, 3])
def test_product_matches_reference_loop(field, n_vars, size):
    rng = random.Random(f"{field.E_coeffs}:{n_vars}:{size}")
    tr = Trunc(3, 4)
    for _ in range(6):
        a = _random_sre(rng, field, n_vars, tr, size)
        b = _random_sre(rng, field, n_vars, tr, size)
        assert a * b == _reference_product(a, b)
        # a map_size scalar operand on either side of a full matrix operand
        s = _random_sre(rng, field, n_vars, tr, 1).map_size(size)
        assert s * a == _reference_product(s, a)
        assert a * s == _reference_product(a, s)
    # entries that cancel leave no zero matrix behind
    if size > 1:
        x = SRE.monomial(field, n_vars, tr, 1, (0,) * n_vars, _unit(field, size, 0))
        y = SRE.monomial(field, n_vars, tr, 0, (0,) * n_vars, _unit(field, size, 1))
        assert (x * y).coeffs == {}


def _unit(field, size, k):
    """The matrix unit E_kk."""
    return KMat.from_rows(
        field,
        [[field.one if i == j == k else field.zero for j in range(size)] for i in range(size)],
    )


def _indices(n_vars, max_deg):
    if n_vars == 0:
        return [()]
    if n_vars == 1:
        return [(a,) for a in range(max_deg + 1)]
    return [
        (a, b) for a in range(max_deg + 1) for b in range(max_deg + 1 - a)
    ]


@pytest.mark.parametrize("n_vars,size", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_ring_axioms_random(n_vars, size):
    rng = random.Random(20240 + n_vars * 10 + size)
    tr = Trunc(3, 4)
    for _ in range(25):
        a = _random_sre(rng, FQ, n_vars, tr, size)
        b = _random_sre(rng, FQ, n_vars, tr, size)
        c = _random_sre(rng, FQ, n_vars, tr, size)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if size == 1:
            assert a * b == b * a


def test_truncation_coherence():
    rng = random.Random(7)
    big = Trunc(3, 4)
    small = Trunc(2, 2)
    for _ in range(20):
        a = _random_sre(rng, FQ, 1, big, 1)
        b = _random_sre(rng, FQ, 1, big, 1)
        direct = truncate(a, small) * truncate(b, small)
        via_big = truncate(a * b, small)
        assert direct == via_big


# -- binomial powers and products by a matrix against per-key references ----

KERNEL_FIELDS = [F, FQ, FC, FQ_FRAC]
KERNEL_IDS = ["e1", "e2", "e3", "e2_frac"]


def _draw_kmat(data, field, nrows, ncols):
    """An nrows x ncols matrix with coordinates in {0, +-1/3, ..., +-2}."""
    n = nrows * ncols * field.e
    coords = data.draw(st.lists(st.one_of(st.just(0), st.integers(-6, 6)), min_size=n, max_size=n))
    entries = [field.from_coords([Fraction(c, 3) for c in coords[i : i + field.e]]) for i in range(0, n, field.e)]
    return KMat.from_rows(field, [entries[r * ncols : (r + 1) * ncols] for r in range(nrows)])


def _draw_series(data, field, n_vars, trunc, size):
    """Up to four random terms; the series may be empty."""
    keys = [(m, idx) for m in range(trunc.t_order) for idx in _indices(n_vars, trunc.pd_degree)]
    chosen = data.draw(st.lists(st.sampled_from(keys), max_size=4, unique=True))
    return SRE(field, n_vars, trunc, size, {key: _draw_kmat(data, field, size, size) for key in chosen})


def _reference_scaled(x, mat):
    """x * mat with one KMat product per key, as the product by a matrix was
    before it became one stacked product."""
    return SRE(x.field, x.n_vars, x.trunc, x.size, {key: c * mat for key, c in x.coeffs.items()})


def _draw_exponent(data, field, trunc):
    kind = data.draw(st.sampled_from(["int", "random", "singular", "upper", "shifted"]))
    if kind == "int":
        return data.draw(st.integers(-trunc.pd_degree - 1, trunc.t_order + 1))
    size = data.draw(st.integers(1, 3))
    m = _draw_kmat(data, field, size, size)
    if kind == "singular":
        # the last row is a multiple of the first (zero when size is 1)
        rows = [list(r) for r in m.rows]
        c = field.from_rational(data.draw(st.integers(0, 2))) if size > 1 else field.zero
        rows[-1] = [a * c for a in rows[0]]
        return KMat.from_rows(field, rows)
    if kind == "upper":
        # upper triangular with a nonzero corner: it does not commute with its
        # transpose, so reading vec C(M, j) column-major would show
        rows = [[a if c >= r else field.zero for c, a in enumerate(row)] for r, row in enumerate(m.rows)]
        if rows[0][-1].is_zero():
            rows[0][-1] = field.one
        return KMat.from_rows(field, rows)
    if kind == "shifted":
        # -A_{0,1}/beta + i I, as the per-k conjecture oracle in oracles.py asks for
        i = data.draw(st.integers(0, 3))
        return m * field.beta.inverse() * -1 + KMat.scalar(field, size, field.from_rational(i))
    return m


@functools.cache
def _ctx(field, trunc):
    return CosimpCtx(field, trunc)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
def test_binomial_power_matches_per_key_reference(field):
    # CosimpCtx.alpha_pow (one binomial sum) against the per-key reference,
    # for integer exponents in [-D-1, T+1] and square KMat exponents
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def inner(data):
        trunc = Trunc(data.draw(st.integers(1, 3)), data.draw(st.integers(0, 4)))
        ctx = _ctx(field, trunc)
        one = SRE.one(field, 1, trunc)
        exponent = _draw_exponent(data, field, trunc)
        got = ctx.alpha_pow(exponent)
        assert got == binomial_power_per_key([one, ctx.alpha - one], exponent)
        if isinstance(exponent, int):
            assert got == ctx.alpha**exponent

    inner()


def test_binomial_power_drops_cancelled_keys():
    # e = 2, E = u^2 - 3: N = alpha - 1 has 2 X^[2] t and N^2 has 8 X^[2] t,
    # so the X^[2] t coefficient of alpha^(1/2) is 2/2 + 8 C(1/2, 2) = 0
    ctx = CosimpCtx(FQ, Trunc(2, 4))
    one = SRE.one(FQ, 1, ctx.trunc)
    half = KMat.identity(FQ, 2) * Fraction(1, 2)
    got = ctx.alpha_pow(half)
    assert got == binomial_power_per_key([one, ctx.alpha - one], half)
    assert got * got == ctx.alpha.map_size(2)
    assert (1, (2,)) in (ctx.alpha - one).coeffs
    assert (1, (2,)) not in got.coeffs
    # M = kI with an integer k >= 0: C(M, j) = 0 for j > k, where the
    # per-key reference stops early
    for k in range(4):
        assert ctx.alpha_pow(KMat.identity(FQ, 2) * k) == (ctx.alpha**k).map_size(2), k
    # pd degree 0: alpha = 1 and N = 0, so every power is 1
    flat = CosimpCtx(FQ, Trunc(3, 0))
    assert flat.alpha_pow(KMat.identity(FQ, 2) * 5) == SRE.one(FQ, 1, flat.trunc, 2)
    assert flat.alpha_pows(range(-2, 3)) == [SRE.one(FQ, 1, flat.trunc)] * 5


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
def test_series_times_matrix_matches_per_key_reference(field):
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def inner(data):
        n_vars, size = data.draw(st.integers(0, 2)), data.draw(st.integers(1, 3))
        trunc = Trunc(data.draw(st.integers(1, 3)), data.draw(st.integers(0, 3)))
        x = _draw_series(data, field, n_vars, trunc, size)
        mat = _draw_kmat(data, field, size, size)
        if data.draw(st.booleans()):
            # a zero last row of mat cancels every term that only has a last column
            rows = [list(r) for r in mat.rows]
            rows[-1] = [field.zero] * size
            mat = KMat.from_rows(field, rows)
            col = [[field.one if c == size - 1 else field.zero for c in range(size)] for _ in range(size)]
            x = x + SRE.monomial(field, n_vars, trunc, 0, (0,) * n_vars, KMat.from_rows(field, col))
        got = x * mat
        assert got == _reference_scaled(x, mat)
        assert not any(c.is_zero() for c in got.coeffs.values())
        c = mat.rows[0][-1]
        assert x * c == _reference_scaled(x, KMat.scalar(field, size, c))

    inner()


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
def test_key_sums_matches_stacked_reference(field):
    # one sum per key over its nonzero 1 x 1 entries, against the table
    # stacked with blocks and sliced back with submatrix; a key may have
    # only zero entries, and entries and matrices have unequal denominators
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def inner(data):
        n_mats, r, c = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        dens = st.sampled_from([1, 2, 5])
        mats = [_draw_kmat(data, field, r, c) * Fraction(1, data.draw(dens)) for _ in range(n_mats)]
        table = {}
        for key in range(data.draw(st.integers(1, 5))):
            entries = [_draw_kmat(data, field, 1, 1) * Fraction(1, 7) ** j for j in range(n_mats)]
            zeros = data.draw(st.lists(st.booleans(), min_size=n_mats, max_size=n_mats))
            table[key] = [KMat.zero(field, 1) if z else t for t, z in zip(entries, zeros)]
        table["zero"] = [KMat.zero(field, 1)] * n_mats
        got = key_sums(table, mats)
        assert got == key_sums_stacked(table, mats)
        assert got["zero"] == KMat.zero(field, r, c)

    inner()


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
def test_series_powers_match_repeated_products_and_the_loop(field):
    # a 1-variable series of 2 x 2 matrices, terms below t^3 and pd degree 4
    tr = Trunc(3, 4)
    one = SRE.one(field, 1, tr, 2)

    @settings(max_examples=15, deadline=None)
    @given(st.data(), st.integers(0, 9))
    def inner(data, n):
        keys = data.draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 4)), max_size=4))
        x = SRE(field, 1, tr, 2, {(m, (d,)): _draw_kmat(data, field, 2, 2) for m, d in keys})
        repeated = functools.reduce(lambda acc, _: acc * x, range(n), one)
        assert x**n == repeated == binary_power_loop(x, n, one)

    inner()

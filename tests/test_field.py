"""Field layer: construction, arithmetic, valuation, p-adic approximations."""

from fractions import Fraction
from functools import reduce
from math import gcd
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prismstrat.errors import DivisionByZero, NotEisenstein, NumberTooLarge, PrimeTooSmall
from prismstrat.field import INF, PadicApprox, field_init, is_prime, rat_str, vp_rational
from prismstrat.matrix import KMat

from oracles import agrees_mod, binary_power_loop, euclid_inverse, k_mul

F_LIN = field_init(3, [-3, 1])  # E = u - 3
F_QUAD = field_init(3, [-3, 0, 1])  # E = u^2 - 3
F_CUBIC = field_init(5, [-5, 0, 0, 1])  # E = u^3 - 5

FIELDS = [F_LIN, F_QUAD, F_CUBIC]
F_OCTIC = field_init(3, [-3] + [0] * 7 + [1])  # E = u^8 - 3
F_HALF = field_init(3, [-3, Fraction(3, 2), 1])  # pi^2 = 3 - (3/2) pi, so _pow_den = 2
F_QUARTIC = field_init(3, [Fraction(-3, 2), 0, Fraction(9, 7), 0, 1])  # _pow_den = 98


def test_field_init_linear():
    assert F_LIN.e == 1
    assert F_LIN.beta == F_LIN.one  # E' = 1 for linear E
    assert F_LIN.pi == F_LIN.from_rational(3)


def test_field_init_quadratic():
    assert F_QUAD.e == 2
    assert F_QUAD.beta == F_QUAD.pi * 2  # E' = 2u at pi


def test_field_init_rejects_non_eisenstein():
    with pytest.raises(NotEisenstein):
        field_init(3, [-1, 0, 1])  # constant term valuation 0
    with pytest.raises(NotEisenstein):
        field_init(3, [-9, 0, 1])  # constant term valuation 2
    with pytest.raises(NotEisenstein):
        field_init(3, [-3, 1, 1])  # middle coefficient is a unit
    with pytest.raises(NotEisenstein):
        field_init(3, [-3, 0, 2])  # not monic


def test_field_init_rejects_small_prime():
    with pytest.raises(PrimeTooSmall):
        field_init(2, [-2, 1])
    with pytest.raises(PrimeTooSmall):
        field_init(9, [-9, 1])  # not prime at all


# psi_12, the least strong pseudoprime to the bases 2 .. 37, and psi_13, to 2 .. 41
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def test_strong_pseudoprimes_are_refused():
    assert PSI_12 == 399165290221 * 798330580441
    assert not is_prime(PSI_12)
    assert all(is_prime(q) for q in (37, 41, 43))
    for p in (PSI_12, PSI_13):
        with pytest.raises(PrimeTooSmall):
            field_init(p, [-p, 1])


def test_field_init_builds_one_field_per_p_and_E():
    # the coefficients are read as rationals first, so "-3", -3 and Fraction(-3) agree
    assert field_init(3, ["-3", "0", "1"]) is F_QUAD
    assert field_init(3, [Fraction(-3), 0, 1]) is F_QUAD
    assert field_init(3, [-3, 0, 1]) is not field_init(3, [-6, 0, 1])
    assert field_init(3, [-3, 0, 1]) is not field_init(5, [-5, 0, 1])


def test_field_init_failure_is_never_cached():
    for _ in range(3):
        with pytest.raises(PrimeTooSmall):
            field_init(9, [-9, 1])
        with pytest.raises(NotEisenstein):
            field_init(3, [-9, 0, 1])


@pytest.mark.parametrize(
    "field", FIELDS + [field_init(3, [Fraction(3, 5), Fraction(3, 2), 1])], ids=["e1", "e2", "e3", "e2_frac"]
)
def test_beta_inv_is_the_inverse_of_beta(field):
    assert field.beta_inv * field.beta == field.one
    assert field.beta_inv == field.one / field.beta


def test_pi_squared_reduces():
    pi = F_QUAD.pi
    assert pi * pi == F_QUAD.from_rational(3)


def test_pi_inverse():
    # 1/pi = pi/3 in Q[pi]/(pi^2 - 3); oracle: pi * (pi/3) = 3/3 = 1
    pi = F_QUAD.pi
    expect = F_QUAD.from_coords([0, Fraction(1, 3)])
    assert pi * expect == F_QUAD.one
    assert F_QUAD.one / pi == expect


def test_add_zero_identity():
    a = F_QUAD.from_coords([Fraction(2, 7), Fraction(-1, 4)])
    assert a + F_QUAD.zero == a


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        F_QUAD.one / F_QUAD.zero


def test_valuation_examples():
    assert F_QUAD.pi.valuation() == 1
    assert F_QUAD.from_rational(3).valuation() == 2
    assert (F_QUAD.pi * 2).valuation() == 1  # 2 is a unit mod 3
    assert F_QUAD.zero.valuation() == INF
    assert F_LIN.from_rational(3).valuation() == 1


def _kelems(field):
    rats = st.fractions(
        min_value=-50, max_value=50, max_denominator=30
    )
    return st.lists(rats, min_size=field.e, max_size=field.e).map(field.from_coords)


def _nonzero(field):
    return _kelems(field).filter(lambda a: not a.is_zero())


@pytest.mark.parametrize("field", FIELDS, ids=["e1", "e2", "e3"])
def test_field_axioms(field):
    @settings(max_examples=60, deadline=None)
    @given(_kelems(field), _kelems(field), _kelems(field))
    def inner(a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    inner()


@pytest.mark.parametrize("field", FIELDS, ids=["e1", "e2", "e3"])
def test_multiplicative_inverse(field):
    @settings(max_examples=60, deadline=None)
    @given(_nonzero(field))
    def inner(a):
        assert a * (field.one / a) == field.one

    inner()


@pytest.mark.parametrize("field", FIELDS, ids=["e1", "e2", "e3"])
def test_valuation_additive_and_ultrametric(field):
    @settings(max_examples=60, deadline=None)
    @given(_kelems(field), _kelems(field))
    def inner(a, b):
        va, vb = a.valuation(), b.valuation()
        assert (a * b).valuation() == va + vb
        assert (a + b).valuation() >= min(va, vb)

    inner()


def _norm(a) -> Fraction:
    """Field norm N(a) = det of multiplication-by-a on the power basis, by
    Gaussian elimination over Q."""
    fld = a.field
    e = fld.e
    cols = []
    basis = fld.one
    for k in range(e):
        cols.append((a * basis).coords)
        basis = basis * fld.pi
    m = [[cols[j][i] for j in range(e)] for i in range(e)]
    det = Fraction(1)
    for c in range(e):
        piv = next((r for r in range(c, e) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, e):
            f = m[r][c] * inv
            if f:
                for cc in range(c, e):
                    m[r][cc] -= f * m[c][cc]
    return det


@pytest.mark.parametrize("field", FIELDS, ids=["e1", "e2", "e3"])
def test_valuation_against_norm_oracle(field):
    # v(a) = v_p(N(a)) for totally ramified extensions
    from prismstrat.field import vp_rational

    @settings(max_examples=40, deadline=None)
    @given(_nonzero(field))
    def inner(a):
        assert a.valuation() == vp_rational(_norm(a), field.p)

    inner()


def test_padic_agreement_mod():
    a = F_LIN.from_rational(5)
    b = F_LIN.from_rational(5 + 3**6)
    assert agrees_mod(PadicApprox(a, INF), PadicApprox(b, INF), 6)
    assert not agrees_mod(PadicApprox(a, INF), PadicApprox(b, INF), 7)


def test_serialization_round_trip():
    from prismstrat.field import KElem

    a = F_QUAD.from_coords([Fraction(-3, 7), Fraction(2)])
    assert a.to_json() == ["-3/7", "2"]
    assert KElem.from_json(F_QUAD, a.to_json()) == a


def test_rat_str_refuses_a_number_too_long_to_print():
    # the input digit limit keeps reports far below this; rat_str still names it
    assert rat_str(Fraction(-7, 10**20)) == "-7/1" + "0" * 20
    with pytest.raises(NumberTooLarge, match="digit limit"):
        rat_str(Fraction(1, 10**5000 + 1))


_WIDE = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(3), Fraction(1, 3)]),
    st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6)),
)


def _is_canonical(a) -> bool:
    return a.den >= 1 and gcd(a.den, *a.nums) == 1 and len(a.nums) == a.field.e


@pytest.mark.parametrize(
    "field", FIELDS + [F_OCTIC, F_HALF], ids=["e1", "e2", "e3", "e8", "e2_pow_den_2"]
)
def test_integer_arithmetic_matches_rational_reference(field):
    # every operation of the integer layout against the rational coordinates
    # it stands for, with k_mul (schoolbook product + pi-power table) for *
    coords = st.lists(_WIDE, max_size=field.e)

    @settings(max_examples=40, deadline=None)
    @given(coords, coords, _WIDE)
    def inner(xs, ys, q):
        a, b = field.from_coords(xs), field.from_coords(ys)
        ca, cb = a.coords, b.coords
        assert (a + b).coords == tuple(x + y for x, y in zip(ca, cb))
        assert (a - b).coords == tuple(x - y for x, y in zip(ca, cb))
        assert (a * b).coords == k_mul(field, ca, cb)
        assert (q * a).coords == (a * q).coords == tuple(x * q for x in ca)
        assert (a * q.numerator).coords == tuple(x * q.numerator for x in ca)
        results = [a + b, a - b, a * b, a * q, -a]
        if q:
            assert (a / q).coords == tuple(x / q for x in ca)
            results.append(a / q)
        if not b.is_zero():
            assert k_mul(field, b.inverse().coords, cb) == field.one.coords
            assert k_mul(field, (a / b).coords, cb) == ca
            results += [b.inverse(), a / b]
        vals = [field.e * vp_rational(c, field.p) + i for i, c in enumerate(ca) if c]
        assert a.valuation() == min(vals, default=INF)
        assert a.is_zero() == all(c == 0 for c in ca)
        assert a.is_rational() == all(c == 0 for c in ca[1:])
        assert a.to_json() == [rat_str(c) for c in ca]
        assert all(_is_canonical(x) for x in results + [a, b])

    inner()


@pytest.mark.parametrize("field", [F_LIN, F_CUBIC, F_HALF], ids=["e1", "e3", "e2_pow_den_2"])
def test_equal_elements_are_equal_on_every_construction_route(field):
    coords = st.lists(_WIDE, max_size=field.e)

    @settings(max_examples=40, deadline=None)
    @given(coords, coords)
    def inner(xs, ys):
        a, b = field.from_coords(xs), field.from_coords(ys)
        grid = KMat.from_rows(field, [[b, a], [a, field.zero]])
        routes = [
            field.from_coords(list(a.coords)),
            (a + b) - b,
            a * field.one,
            grid.rows[0][1],
            grid.rows[1][0],
            KMat.from_rows(field, [[a, b], [b, field.zero]]).trace(),
            KMat.scalar(field, 2, a).rows[0][0],
            KMat.scalar(field, 1, a).trace(),
        ]
        for r in routes:
            assert r == a and hash(r) == hash(a) and (r.den, r.nums) == (a.den, a.nums)
            assert _is_canonical(r)
        assert field.zero.den == 1 and (a - a) == field.zero

    inner()


@pytest.mark.parametrize(
    "field", FIELDS + [F_OCTIC, F_HALF], ids=["e1", "e2", "e3", "e8", "e2_pow_den_2"]
)
def test_kelem_and_1x1_kmat_store_every_result_alike(field):
    # both types follow the storage rules of field.py: equal (den, nums)
    coords = st.lists(_WIDE, max_size=field.e)

    @settings(max_examples=40, deadline=None)
    @given(coords, coords, _WIDE)
    def inner(xs, ys, q):
        a, b = field.from_coords(xs), field.from_coords(ys)
        ma, mb = KMat.scalar(field, 1, a), KMat.scalar(field, 1, b)
        assert (a * b).coords == k_mul(field, a.coords, b.coords)
        pairs = [(a + b, ma + mb), (a - b, ma - mb), (a * b, ma * mb), (a * q, ma * q)]
        pairs += [(a * q.numerator, ma * q.numerator), (q * a, q * ma)]
        for x, m in pairs:
            assert (m.nrows, m.ncols) == (1, 1)
            assert (x.den, x.nums) == (m.den, m.nums)

    inner()


@pytest.mark.parametrize("field", [F_LIN, F_CUBIC, F_HALF], ids=["e1", "e3", "e2_pow_den_2"])
def test_powers_match_repeated_products_and_the_loop(field):
    @settings(max_examples=40, deadline=None)
    @given(st.lists(_WIDE, max_size=field.e), st.integers(-9, 9))
    def inner(xs, n):
        a = field.from_coords(xs)
        if n < 0 and a.is_zero():
            with pytest.raises(DivisionByZero):
                a**n
            return
        base = a if n >= 0 else a.inverse()
        repeated = reduce(mul, [base] * abs(n), field.one)
        assert a**n == repeated == binary_power_loop(base, abs(n), field.one)

    inner()


def _elements_of_height(field):
    """Elements whose nonzero coordinates have numerators and denominators
    of height 9 .. 10^18."""

    def coords(height):
        rat = st.builds(Fraction, st.integers(-height, height), st.integers(1, height))
        return st.lists(st.one_of(rat, rat, st.just(Fraction(0))), min_size=field.e, max_size=field.e)

    return st.sampled_from([9, 10**3, 10**6, 10**18]).flatmap(coords).map(field.from_coords)


@pytest.mark.parametrize(
    "field", FIELDS + [F_OCTIC, F_QUARTIC], ids=["e1", "e2", "e3", "e8", "e4_pow_den_98"]
)
def test_inverse_matches_the_euclid_oracle(field):
    # fraction-free elimination on the multiplication matrix M against
    # extended Euclid over Q[u]: the same storage, and a * a^-1 == 1
    def check(a):
        inv, ref = a.inverse(), euclid_inverse(a)
        assert (inv.den, inv.nums) == (ref.den, ref.nums)
        assert a * inv == field.one and _is_canonical(inv)

    # pi^k q: nums[0] == 0 is a zero first pivot, so the row swap runs, and a
    # negative norm (det M < 0) exercises the sign normalisation; then one
    # element of height 10^18 in every coordinate
    cases = [field.pi**k * q for k in range(-2 * field.e, 2 * field.e + 1) for q in (1, -1, Fraction(-9, 7))]
    assert any(_norm(a) < 0 for a in cases)
    assert field.e == 1 or any(a.nums[0] == 0 for a in cases)
    cases.append(field.from_coords([Fraction((-1) ** i * (10**18 - 7 * i), 10**18 - 3 - i) for i in range(field.e)]))
    for a in cases:
        check(a)

    @settings(max_examples=40, deadline=None)
    @given(_elements_of_height(field).filter(lambda a: not a.is_zero()))
    def inner(a):
        check(a)

    inner()
    for zero in (field.zero, field.from_coords([0] * field.e)):
        with pytest.raises(DivisionByZero):
            zero.inverse()

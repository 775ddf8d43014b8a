"""Exact linear algebra over K: integer storage, the integer product kernel,
elimination against a KElem reference, kernels of block lower-triangular
systems, rational roots."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prismstrat.field import INF, field_init
from prismstrat.errors import NonUnit
from prismstrat.matrix import KMat, echelon, kernel_basis, mat_inverse, rank, rational_roots, sum_products

FIELDS = [field_init(3, [-3, 1]), field_init(3, [-3, 0, 1]), field_init(3, [-3, 0, 0, 1])]
# Eisenstein at 3 with non-integral coefficients: pi^k mod E has denominators
FIELD_FRAC = field_init(3, [Fraction(3, 5), Fraction(3, 2), 1])


def _matrix(data, field, nrows, ncols):
    """nrows x ncols entries of K with coordinates in {0, +-1/3, ..., +-4}."""
    n = nrows * ncols * field.e
    coord = st.one_of(st.just(0), st.integers(-12, 12))
    coords = data.draw(st.lists(coord, min_size=n, max_size=n))
    entries = [
        field.from_coords([Fraction(c, 3) for c in coords[i : i + field.e]])
        for i in range(0, n, field.e)
    ]
    return [entries[r * ncols : (r + 1) * ncols] for r in range(nrows)]


def _row_reduce(rows, field):
    """In-place reduced row echelon form of a KElem grid by KElem loops, as
    elimination was before it ran on KMat; returns the pivot columns."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if not rows[i][c].is_zero()), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [a * inv for a in rows[r]]
        for i in range(nrows):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _reference_kernel(rows, ncols, field):
    """Kernel vectors of a KElem grid from _row_reduce: a 1 at the free
    column, 0 at the other free columns, -R[r, free] at pivot r."""
    rows = [list(r) for r in rows]
    pivots = _row_reduce(rows, field)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [field.zero] * ncols
        vec[fc] = field.one
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        basis.append(tuple(vec))
    return basis


def _columns(m):
    """The columns of a KMat as tuples of KElems."""
    return list(zip(*m.rows)) if m.nrows else [()] * m.ncols


def _kmat(field, grid, ncols):
    return KMat.from_rows(field, grid) if grid else KMat.zero(field, 0, ncols)


@pytest.mark.parametrize("field", FIELDS + [FIELD_FRAC], ids=["e1", "e2", "e3", "e2_frac"])
def test_echelon_matches_kelem_reference(field):
    # wide, tall, square, rank-deficient, zero and empty shapes against
    # the KElem elimination, exactly
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def inner(data):
        n, m = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
        kind = data.draw(st.sampled_from(["random", "deficient", "zero"]))
        grid = _matrix(data, field, n, m) if kind != "zero" else [[field.zero] * m for _ in range(n)]
        if kind == "deficient" and n >= 2:
            # the last row is a K-combination of the others
            cs = _matrix(data, field, 1, n - 1)[0]
            grid[-1] = [sum((c * row[j] for c, row in zip(cs, grid)), field.zero) for j in range(m)]
        mat = _kmat(field, grid, m)
        ref = [list(r) for r in grid]
        pivots = _row_reduce(ref, field)
        R, got = echelon(mat)
        assert got == pivots
        assert R == _kmat(field, ref, m)
        assert rank(mat) == len(pivots)
        kernel = kernel_basis(mat)
        assert (kernel.nrows, kernel.ncols) == (m, m - len(pivots))
        assert _columns(kernel) == _reference_kernel(grid, m, field)
        if n == m:
            ident = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]
            aug = [list(r) + ident[i] for i, r in enumerate(grid)]
            if _row_reduce(aug, field) != list(range(n)):
                with pytest.raises(NonUnit):
                    mat_inverse(mat)
            else:
                inv = mat_inverse(mat)
                assert inv == _kmat(field, [r[n:] for r in aug], n)
                assert mat * inv == KMat.identity(field, n)

    inner()


def test_empty_shapes():
    field = FIELDS[1]
    for n, m in ((0, 0), (3, 0), (0, 3)):
        mat = KMat.zero(field, n, m)
        assert echelon(mat) == (mat, [])
        assert kernel_basis(mat) == KMat.identity(field, m)
        assert rank(mat) == 0
    assert mat_inverse(KMat.zero(field, 0)) == KMat.zero(field, 0)
    with pytest.raises(NonUnit):
        mat_inverse(KMat.zero(field, 2))
    with pytest.raises(NonUnit):
        mat_inverse(KMat.zero(field, 2, 3))


@pytest.mark.parametrize("field", FIELDS, ids=["e1", "e2", "e3"])
def test_kernel_of_block_system_extends_first_block_kernel(field):
    # h0_solve's per-order step: with K = kernel_basis(A), A wider than tall,
    # lifting kernel_basis([B K | C]) through K gives kernel_basis([[A, 0],
    # [B, C]]) element for element, with no change of basis
    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def inner(data):
        n1, n2 = data.draw(st.integers(2, 4)), data.draw(st.integers(1, 3))
        r1, r2 = data.draw(st.integers(1, n1 - 1)), data.draw(st.integers(1, 3))
        a, b, c = (_matrix(data, field, r, n) for r, n in ((r1, n1), (r2, n1), (r2, n2)))
        whole = [row + [field.zero] * n2 for row in a] + [x + y for x, y in zip(b, c)]
        k = _columns(kernel_basis(KMat.from_rows(field, a)))
        bk = [[sum((x * v for x, v in zip(row, vec)), field.zero) for vec in k] for row in b]
        lifted = []
        for zy in _columns(kernel_basis(KMat.from_rows(field, [x + y for x, y in zip(bk, c)]))):
            first = [field.zero] * n1
            for z, vec in zip(zy, k):
                first = [f + z * v for f, v in zip(first, vec)]
            lifted.append(tuple(first) + zy[len(k) :])
        assert lifted == _columns(kernel_basis(KMat.from_rows(field, whole)))

    inner()


@pytest.mark.parametrize("field", FIELDS + [FIELD_FRAC], ids=["e1", "e2", "e3", "e2_frac"])
def test_integer_storage_matches_entrywise_kelem(field):
    # the canonical integer form against the KElem grid it stands for
    coord = st.builds(Fraction, st.integers(-60, 60), st.sampled_from([1, 2, 3, 5, 9, 27]))

    def grid(data, n, m):
        cs = data.draw(st.lists(coord, min_size=n * m * field.e, max_size=n * m * field.e))
        entries = [field.from_coords(cs[k : k + field.e]) for k in range(0, len(cs), field.e)]
        return tuple(tuple(entries[r * m : (r + 1) * m]) for r in range(n))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def inner(data):
        n, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        rows, other = grid(data, n, m), grid(data, n, m)
        a, b = KMat.from_rows(field, rows), KMat.from_rows(field, other)
        assert a.rows == rows
        assert a.den >= 1 and gcd(a.den, *a.nums) == 1
        assert (a + b) - b == a and (a - b) + b == a
        scalars = [data.draw(st.integers(-9, 9)), data.draw(coord), grid(data, 1, 1)[0][0]]
        for c in scalars:
            assert a * c == KMat.from_rows(field, [[x * c for x in r] for r in rows]) == c * a
        if n == m:
            assert a.trace() == sum((rows[i][i] for i in range(n)), field.zero)
        assert a.to_json() == [[x.to_json() for x in r] for r in rows]
        assert a.min_valuation() == min(x.valuation() for r in rows for x in r)

    inner()
    assert KMat.zero(field, 2, 3).min_valuation() is INF
    assert KMat.zero(field, 2).den == 1


def _reference_product(x, y):
    """X * Y by the KElem loop, as the product was before the integer kernel."""
    out = []
    for ra in x.rows:
        row = []
        for cb in zip(*y.rows):
            acc = x.field.zero
            for a, b in zip(ra, cb):
                acc = acc + a * b
            row.append(acc)
        out.append(row)
    return KMat.from_rows(x.field, out)


@pytest.mark.parametrize("field", FIELDS + [FIELD_FRAC], ids=["e1", "e2", "e3", "e2_frac"])
def test_sum_products_matches_reference_loop(field):
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def inner(data):
        n, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        pairs = []
        for _ in range(data.draw(st.integers(1, 4))):
            k = data.draw(st.integers(1, 3))
            x, y = _matrix(data, field, n, k), _matrix(data, field, k, m)
            pairs.append((KMat.from_rows(field, x), KMat.from_rows(field, y)))
        if data.draw(st.booleans()):
            # a pair that cancels the first one entry for entry
            x, y = pairs[0]
            pairs.append((-x, y))
        want = KMat.zero(field, n, m)
        for x, y in pairs:
            want = want + _reference_product(x, y)
        assert sum_products(pairs) == want
        assert pairs[0][0] * pairs[0][1] == _reference_product(*pairs[0])

    inner()


def _matrix_over(data, field, nrows, ncols, den):
    """An nrows x ncols KMat with coordinates in {0, +-1/den, ..., +-9/den}."""
    n = nrows * ncols * field.e
    coords = data.draw(st.lists(st.one_of(st.just(0), st.integers(-9, 9)), min_size=n, max_size=n))
    entries = [field.from_coords([Fraction(c, den) for c in coords[i : i + field.e]])
               for i in range(0, n, field.e)]
    return KMat.from_rows(field, [entries[r * ncols : (r + 1) * ncols] for r in range(nrows)])


@pytest.mark.parametrize("field", FIELDS + [FIELD_FRAC], ids=["e1", "e2", "e3", "e2_frac"])
def test_sum_products_with_unequal_denominators_matches_entrywise_sums(field):
    # every pair has its own d_X d_Y, so each is rescaled to the common d
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def inner(data):
        n, m, dens = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)), st.sampled_from([1, 2, 5, 7, 9])
        pairs = []
        for _ in range(data.draw(st.integers(2, 4))):
            k = data.draw(st.integers(1, 3))
            x = _matrix_over(data, field, n, k, data.draw(dens))
            pairs.append((x, _matrix_over(data, field, k, m, data.draw(dens))))
        want = [[field.zero] * m for _ in range(n)]
        for x, y in pairs:
            for r in range(n):
                for c in range(m):
                    want[r][c] = sum((x.rows[r][j] * y.rows[j][c] for j in range(x.ncols)), want[r][c])
        assert sum_products(pairs) == KMat.from_rows(field, want)

    inner()


@pytest.mark.parametrize("field", FIELDS + [FIELD_FRAC], ids=["e1", "e2", "e3", "e2_frac"])
def test_matrix_times_element_matches_scalar_matrix_product(field):
    # KMat * KElem multiplies the column view by the element's coordinates
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def inner(data):
        n, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        x = _matrix_over(data, field, n, m, data.draw(st.sampled_from([1, 4, 7])))
        c = _matrix_over(data, field, 1, 1, data.draw(st.sampled_from([1, 2, 5]))).rows[0][0]
        got = x * c
        assert got == x * KMat.scalar(field, m, c)
        assert got == KMat.from_rows(field, [[a * c for a in row] for row in x.rows])

    inner()


def test_sum_products_of_zero_matrices_is_zero():
    field = FIELD_FRAC
    zero = KMat.zero(field, 2, 3)
    assert sum_products([(zero, KMat.identity(field, 3))]) == zero
    assert KMat.identity(field, 2) * KMat.zero(field, 2, 3) == zero


def _trial_division_roots(poly):
    """Rational roots by trial division over the divisors of the trailing and
    leading coefficients, as rational_roots was before root isolation."""
    if any(not c.is_rational() for c in poly):
        return None
    rat = [c.coords[0] for c in poly]
    den = lcm(*(c.denominator for c in rat))
    cur = [int(c * den) for c in rat]
    while cur and cur[-1] == 0:
        cur.pop()
    roots = []
    while len(cur) > 1:
        if cur[0] == 0:
            roots.append(Fraction(0))
            cur = cur[1:]
            continue
        found = next(
            (
                Fraction(sign * pn, qn)
                for pn in _divisors(cur[0])
                for qn in _divisors(cur[-1])
                for sign in (1, -1)
                if _eval(cur, Fraction(sign * pn, qn)) == 0
            ),
            None,
        )
        if found is None:
            return None
        roots.append(found)
        # divide by (x - found) and clear denominators again
        out, carry = [Fraction(0)] * (len(cur) - 1), Fraction(0)
        for i in range(len(cur) - 1, 0, -1):
            carry = cur[i] + carry * found
            out[i - 1] = carry
        d = lcm(*(c.denominator for c in out))
        cur = [int(c * d) for c in out]
    return roots


def _divisors(n):
    n = abs(n)
    return sorted({d for q in range(1, int(n**0.5) + 1) if n % q == 0 for d in (q, n // q)})


def _eval(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _monic(coeffs):
    return [FIELDS[0].from_rational(Fraction(c) / coeffs[-1]) for c in coeffs]


def _times_linear(coeffs, p, q):
    """coeffs * (q x - p), low-to-high."""
    out = [Fraction(0)] * (len(coeffs) + 1)
    for i, c in enumerate(coeffs):
        out[i] -= p * c
        out[i + 1] += q * c
    return out


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-12, 12), st.integers(1, 6)), min_size=1, max_size=5),
    st.lists(st.integers(-20, 20), min_size=0, max_size=3),
)
def test_rational_roots_match_trial_division(factors, extra):
    # split polynomials (repeated and zero roots included), and the same
    # times a small factor that need not split over Q
    split = [Fraction(1)]
    for p, q in factors:
        split = _times_linear(split, p, q)
    assert rational_roots(_monic(split)) == _trial_division_roots(_monic(split))
    other = [Fraction(c) for c in extra] + [Fraction(1)]
    prod = [Fraction(0)] * (len(split) + len(other) - 1)
    for i, a in enumerate(split):
        for j, b in enumerate(other):
            prod[i + j] += a * b
    assert rational_roots(_monic(prod)) == _trial_division_roots(_monic(prod))


def test_rational_roots_of_irrational_and_complex_polys():
    assert rational_roots(_monic([Fraction(-2), 0, 1])) is None
    assert rational_roots(_monic([Fraction(1), 0, 1])) is None
    assert rational_roots(_monic([Fraction(-1), 1, 0, 0, 1])) is None
    assert rational_roots([FIELDS[1].pi, FIELDS[1].one]) is None

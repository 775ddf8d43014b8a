"""Small exact matrices over K: arithmetic, kernels, characteristic polynomials.

Everything is dense and tiny (rank l <= a handful); exact Gaussian
elimination needs no pivoting strategy beyond "first nonzero entry".
A matrix stores integer pi-coordinates over one denominator, after FLINT's
fmpq_mat, by the storage rules of field.py that KElem follows; `rows` is
the K-element view for parsing, to_json and 1 x 1 reads.
Every product accumulates unreduced integer pi-polynomials and reduces them
with from_polys.  Operands used once (sum_products, so KMat * KMat, KMat *
KElem by its column view, and key_sums in series) are read straight from
their storage; an operand that meets many others (the ring product in
series, generate_Amn) takes its sparse int_form once and goes through
accumulate.  submatrix, row_blocks and blocks slice and assemble the storage.
The root search holds the engine's one Fraction polynomial division.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor, gcd, lcm
from typing import NamedTuple

from .errors import NonUnit, ShapeMismatch
from .field import FieldDesc, KElem, canonical, horner, lcm_sum, rat_str, scaled


class KMat(NamedTuple):
    """An nrows x ncols matrix over K: entry (r, c) has the coordinates
    nums[(r * ncols + c) * e + i] / den, i < e.  The form is canonical,
    den >= 1 and gcd(den, *nums) == 1, so == and hash are structural."""

    field: FieldDesc
    nrows: int
    ncols: int
    den: int
    nums: tuple[int, ...]

    @staticmethod
    def from_rows(field: FieldDesc, rows) -> KMat:
        """The matrix of a grid of KElems; ShapeMismatch on ragged rows."""
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ShapeMismatch(f"matrix rows have lengths {[len(r) for r in rows]}")
        # over the lcm of canonical denominators, gcd(den, *nums) is already 1
        den = lcm(*(a.den for r in rows for a in r))
        nums = tuple(q * (den // a.den) for r in rows for a in r for q in a.nums)
        return KMat(field, len(rows), ncols, den, nums)

    @staticmethod
    def zero(field: FieldDesc, n: int, m: int | None = None) -> KMat:
        m = n if m is None else m
        return KMat(field, n, m, 1, (0,) * (n * m * field.e))

    @staticmethod
    def identity(field: FieldDesc, n: int) -> KMat:
        return KMat.scalar(field, n, field.one)

    @staticmethod
    def scalar(field: FieldDesc, n: int, c: KElem) -> KMat:
        e, nums = field.e, [0] * (n * n * field.e)
        for k in range(0, n * n * e, (n + 1) * e):
            nums[k : k + e] = c.nums
        return KMat(field, n, n, c.den, tuple(nums))

    @property
    def rows(self) -> tuple[tuple[KElem, ...], ...]:
        """The K-element grid."""
        e, nums = self.field.e, self.nums
        entries = [KElem(self.field, *canonical(self.den, nums[k : k + e])) for k in range(0, len(nums), e)]
        return tuple(tuple(entries[r * self.ncols : (r + 1) * self.ncols]) for r in range(self.nrows))

    def _combine(self, other: KMat, sign: int) -> KMat:
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ShapeMismatch("matrix shapes differ")
        return KMat(self.field, self.nrows, self.ncols, *lcm_sum(self, other, sign))

    def __add__(self, other: KMat) -> KMat:
        return self._combine(other, 1)

    def __sub__(self, other: KMat) -> KMat:
        return self._combine(other, -1)

    def __neg__(self) -> KMat:
        return KMat(self.field, self.nrows, self.ncols, self.den, tuple(-a for a in self.nums))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return KMat(self.field, self.nrows, self.ncols, *scaled(self, other))
        if isinstance(other, KElem):
            # the (rows * cols) x 1 column view times the 1 x 1 matrix of other
            col = self.reshaped(self.nrows * self.ncols, 1) * KMat.scalar(self.field, 1, other)
            return col.reshaped(self.nrows, self.ncols)
        if not isinstance(other, KMat):
            return NotImplemented
        return sum_products([(self, other)])

    def __rmul__(self, other):
        # scalar * matrix
        return self.__mul__(other)

    def reshaped(self, nrows: int, ncols: int) -> KMat:
        """The same entries, read row by row, as an nrows x ncols matrix."""
        return KMat(self.field, nrows, ncols, self.den, self.nums)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def trace(self) -> KElem:
        e, nums = self.field.e, self.nums
        diag = range(0, min(self.nrows, self.ncols) * (self.ncols + 1) * e, (self.ncols + 1) * e)
        return KElem(self.field, *canonical(self.den, [sum(nums[k + i] for k in diag) for i in range(e)]))

    def commutes_with(self, other: KMat) -> bool:
        return sum_products([(self, other), (-other, self)]).is_zero()

    def min_valuation(self):
        """Minimum entry valuation (v(pi)=1 units); INF for the zero matrix.
        As v_p(gcd(a, b)) = min(v_p(a), v_p(b)), this is the valuation of the
        element g / den, g_i the gcd of the numerators of all i-th coordinates
        (canonical, as g_i divides them)."""
        e = self.field.e
        return KElem(self.field, self.den, tuple(gcd(*self.nums[i::e]) for i in range(e))).valuation()

    def to_json(self):
        e, nums = self.field.e, [rat_str(a, self.den) for a in self.nums]
        entries = [nums[k : k + e] for k in range(0, len(nums), e)]
        return [entries[r * self.ncols : (r + 1) * self.ncols] for r in range(self.nrows)]

    def __repr__(self):
        body = "; ".join("[" + ", ".join(repr(a) for a in r) + "]" for r in self.rows)
        return f"KMat({body})"


def int_form(mats, out_ncols: int | None = None) -> tuple[int, list]:
    """(d, forms), all coordinates scaled to d, the lcm of the denominators of
    mats.  A product keeps entry (r, c) at (r ncols + c) w of one flat list of
    pi-polynomials of w = 2e - 1 coefficients.  As a right factor, forms[n][k]
    lists (c w + j, v) over the nonzero coordinates v of pi^j of the entries
    (k, c) of mats[n]; as the left factor of a product with out_ncols columns,
    forms[n] lists (k, r out_ncols w + i, v) over those of its entries (r, k)."""
    den, forms = lcm(*[m.den for m in mats]), []
    for m in mats:
        e, s, nums = m.field.e, den // m.den, m.nums
        w, width = 2 * e - 1, m.ncols * e  # width: the coordinates of one row
        if out_ncols is None:
            rows = (nums[k * width : (k + 1) * width] for k in range(m.nrows))
            forms.append([[(at // e * w + at % e, a * s) for at, a in enumerate(row) if a] for row in rows])
        else:
            w *= out_ncols  # the coefficients of one output row
            forms.append([(at % width // e, at // width * w + at % e, a * s) for at, a in enumerate(nums) if a])
    return den, forms


def accumulate(polys: list[int], a: list, b: list, scale: int):
    """polys += scale * (A B) on the int_form of a left factor A and a right
    factor B: flat unreduced pi-polynomials of degree 2e - 2."""
    for k, base, av in a:
        av *= scale
        for off, bv in b[k]:
            polys[base + off] += av * bv


def from_polys(field: FieldDesc, polys: list[int], nrows: int, ncols: int, den: int) -> KMat:
    """The nrows x ncols matrix whose entry (r, c) is the flat pi-polynomial
    at (r ncols + c) (2e - 1) of polys, divided by den and reduced mod E."""
    return KMat(field, nrows, ncols, *field.reduce_polys(polys, den))


def sum_products(pairs) -> KMat:
    """sum_i X_i Y_i over a non-empty sequence of pairs (X_i, Y_i), exact: each
    pair is rescaled to d = lcm_i(d_X_i d_Y_i), so every output entry is one
    integer pi-polynomial, accumulated straight from the storage of the
    operands (zero coordinates skipped), reduced mod E and divided by d once."""
    field, nrows, ncols = pairs[0][0].field, pairs[0][0].nrows, pairs[0][1].ncols
    e, den = field.e, lcm(*[x.den * y.den for x, y in pairs])
    w, width = 2 * e - 1, ncols * e
    polys = [0] * (nrows * ncols * w)
    for x, y in pairs:
        inner, y_nums = x.ncols, y.nums
        if inner != y.nrows or x.nrows != nrows or y.ncols != ncols:
            raise ShapeMismatch(
                f"cannot multiply {x.nrows}x{x.ncols} by {y.nrows}x{y.ncols} into {nrows}x{ncols}"
            )
        scale = den // (x.den * y.den)
        for at, a in enumerate(x.nums):
            if a:
                (r, k), i = divmod(at // e, inner), at % e
                a *= scale
                base = r * ncols * w + i
                for at, b in enumerate(y_nums[k * width : (k + 1) * width]):
                    if b:
                        polys[base + at // e * w + at % e] += a * b
    return from_polys(field, polys, nrows, ncols, den)


def submatrix(m: KMat, rows, cols) -> KMat:
    """The matrix of the entries (r, c) of m, r in rows and c in cols, in order."""
    e, nums = m.field.e, m.nums
    out = [a for r in rows for c in cols for a in nums[(r * m.ncols + c) * e : (r * m.ncols + c + 1) * e]]
    return KMat(m.field, len(rows), len(cols), *canonical(m.den, out))


def row_blocks(m: KMat, size: int) -> list[KMat]:
    """m cut into its consecutive blocks of size rows, read from the contiguous storage."""
    w = m.ncols * m.field.e
    rows = (m.nums[r * w : (r + size) * w] for r in range(0, m.nrows, size))
    return [KMat(m.field, size, m.ncols, *canonical(m.den, nums)) for nums in rows]


def blocks(grid) -> KMat:
    """The matrix assembled from a non-empty grid of KMats; the blocks of
    one grid row share nrows, and every grid row has the same width."""
    field, den = grid[0][0].field, lcm(*(b.den for row in grid for b in row))
    ncols, nums = sum(b.ncols for b in grid[0]), []
    for row in grid:
        if any(b.nrows != row[0].nrows for b in row) or sum(b.ncols for b in row) != ncols:
            raise ShapeMismatch(f"blocks {[(b.nrows, b.ncols) for b in row]} do not fit")
        for r in range(row[0].nrows):
            for b in row:
                w = b.ncols * field.e
                nums += [a * (den // b.den) for a in b.nums[r * w : (r + 1) * w]]
    return KMat(field, sum(row[0].nrows for row in grid), ncols, *canonical(den, nums))


def echelon(m: KMat) -> tuple[KMat, list[int]]:
    """(R, pivots): the reduced row echelon form of m and its pivot columns.
    Each pivot takes one K-inverse and one rank-1 update
    R -= (R[:, c] - e_r) (R[r] / R[r, c]) on the integer kernel."""
    field, e, nrows, ncols = m.field, m.field.e, m.nrows, m.ncols
    R, pivots, cols, w = m, [], range(ncols), ncols * e
    for c in cols:
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if any(R.nums[i * w + c * e : i * w + (c + 1) * e])), None)
        if piv is None:
            continue
        if piv != r:
            order = list(range(nrows))
            order[r], order[piv] = piv, r
            R = submatrix(R, order, cols)
        inv = KMat.scalar(field, 1, submatrix(R, [r], [c]).rows[0][0].inverse())
        unit = submatrix(KMat.identity(field, nrows), range(nrows), [r])
        R = R - (submatrix(R, range(nrows), [c]) - unit) * (inv * submatrix(R, [r], cols))
        pivots.append(c)
    return R, pivots


def kernel_basis(m: KMat) -> KMat:
    """The ncols x d matrix whose columns are a basis of {x : m x = 0}: the
    column for the j-th free column f is 1 at f, 0 at the other free
    columns and -R[r, f] at pivot column r of R = echelon(m)."""
    R, pivots = echelon(m)
    free = [c for c in range(m.ncols) if c not in pivots]
    stacked = blocks([[-submatrix(R, range(len(pivots)), free)], [KMat.identity(m.field, len(free))]])
    return submatrix(stacked, [(pivots + free).index(c) for c in range(m.ncols)], range(len(free)))


def mat_inverse(m: KMat) -> KMat:
    """Inverse over K by reducing [m | I]; NonUnit when m is singular."""
    n = m.nrows
    if n != m.ncols:
        raise NonUnit("matrix is singular over K")
    R, pivots = echelon(blocks([[m, KMat.identity(m.field, n)]]))
    if pivots != list(range(n)):
        raise NonUnit("matrix is singular over K")
    return submatrix(R, range(n), range(n, 2 * n))


def rank(m: KMat) -> int:
    return len(echelon(m)[1])


def charpoly(m: KMat) -> list[KElem]:
    """Coefficients of det(x I - m), low-to-high, via Faddeev-LeVerrier."""
    if m.nrows != m.ncols:
        raise ShapeMismatch("characteristic polynomial needs a square matrix")
    field = m.field
    n = m.nrows
    coeffs = [field.zero] * (n + 1)
    coeffs[n] = field.one
    mk = KMat.identity(field, n)
    for k in range(1, n + 1):
        mk = m * mk
        ck = mk.trace() * Fraction(-1, k)
        coeffs[n - k] = ck
        mk = mk + KMat.scalar(field, n, ck)
    return coeffs


def rational_roots(poly: list[KElem]) -> list[Fraction] | None:
    """Rational roots (with multiplicity) of a monic poly with rational
    coefficients in K; None when the coefficients are not all rational or
    the poly does not split over Q.

    Exact and polynomial in the bit size: with integer coefficients, every
    rational root is k/a for a the leading coefficient.  Sturm bisection on
    the square-free part isolates each real root in (lo, hi] of width < 1/a,
    which holds at most one such k/a; one exact evaluation decides it.  The
    roots come sorted by (r != 0, |numerator|, denominator, r < 0).
    """
    if any(not c.is_rational() for c in poly):
        return None
    f = [c.coords[0] for c in poly]
    while f and f[-1] == 0:
        f.pop()
    if not f:
        return []
    roots = []
    while f[0] == 0:
        roots.append(Fraction(0))
        f.pop(0)
    a = abs(int(f[-1] * lcm(*(c.denominator for c in f))))
    bound = 2 + int(max((abs(c / f[-1]) for c in f[:-1]), default=0))
    square_free = poly_divmod(f, _sturm(f)[-1])[0]  # f / gcd(f, f')
    sturm = _sturm(square_free)
    intervals = [(Fraction(-bound), Fraction(bound))]
    while intervals:
        lo, hi = intervals.pop()
        count = _sign_changes(sturm, lo) - _sign_changes(sturm, hi)
        if count == 1 and (hi - lo) * a < 1:
            r = Fraction(floor(hi * a), a)
            if r <= lo or horner(square_free, r):
                return None  # an irrational real root
            while not (rem := poly_divmod(f, [-r, 1]))[1]:
                f = rem[0]
                roots.append(r)
        elif count:
            mid = (lo + hi) / 2
            intervals += [(lo, mid), (mid, hi)]
    if len(f) > 1:
        return None  # complex roots
    return sorted(roots, key=lambda r: (r != 0, abs(r.numerator), r.denominator, r < 0))


def poly_divmod(f: list[Fraction], g: list[Fraction]):
    """(quotient, remainder) of f by g (g[-1] != 0), low-to-high, the
    remainder without trailing zeros."""
    rem, quot = list(f), [Fraction(0)] * max(len(f) - len(g) + 1, 0)
    while len(rem) >= len(g):
        shift = len(rem) - len(g)
        quot[shift] = c = rem[-1] / g[-1]
        rem[shift:] = [r - c * gi for r, gi in zip(rem[shift:], g)]  # the top term cancels
        while rem and rem[-1] == 0:
            rem.pop()
    return quot, rem


def _sturm(f: list[Fraction]) -> list[list[Fraction]]:
    """Sturm sequence f, f', -rem(f, f'), ...; its last entry is gcd(f, f')."""
    seq = [f, [c * k for k, c in enumerate(f)][1:]]
    while seq[-1] and (rem := poly_divmod(seq[-2], seq[-1])[1]):
        seq.append([-c for c in rem])
    return seq if seq[-1] else seq[:-1]


def _sign_changes(seq: list[list[Fraction]], x: Fraction) -> int:
    signs = [v > 0 for p in seq if (v := horner(p, x))]
    return sum(s != t for s, t in zip(signs, signs[1:]))


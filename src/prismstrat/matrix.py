"""Small exact matrices over K: arithmetic, kernels, characteristic polynomials.

Everything is dense and tiny (rank l <= a handful); exact Gaussian
elimination needs no pivoting strategy beyond "first nonzero entry".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import NonUnit, ShapeMismatch
from .field import INF, FieldDesc, KElem


@dataclass(frozen=True, slots=True)
class KMat:
    """An l x l (or rectangular) matrix with KElem entries."""

    field: FieldDesc
    rows: tuple[tuple[KElem, ...], ...]

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @staticmethod
    def from_rows(field: FieldDesc, rows) -> KMat:
        return KMat(field, tuple(tuple(r) for r in rows))

    @staticmethod
    def zero(field: FieldDesc, n: int, m: int | None = None) -> KMat:
        m = n if m is None else m
        z = field.zero
        return KMat(field, tuple(tuple(z for _ in range(m)) for _ in range(n)))

    @staticmethod
    def identity(field: FieldDesc, n: int) -> KMat:
        z, o = field.zero, field.one
        return KMat(
            field,
            tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)),
        )

    @staticmethod
    def scalar(field: FieldDesc, n: int, c: KElem) -> KMat:
        z = field.zero
        return KMat(
            field,
            tuple(tuple(c if i == j else z for j in range(n)) for i in range(n)),
        )

    def __add__(self, other: KMat) -> KMat:
        self._check_same_shape(other)
        return KMat(
            self.field,
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            ),
        )

    def __sub__(self, other: KMat) -> KMat:
        self._check_same_shape(other)
        return KMat(
            self.field,
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            ),
        )

    def __neg__(self) -> KMat:
        return KMat(self.field, tuple(tuple(-a for a in r) for r in self.rows))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, KElem)):
            return KMat(
                self.field, tuple(tuple(a * other for a in r) for r in self.rows)
            )
        if not isinstance(other, KMat):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ShapeMismatch(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        bt = list(zip(*other.rows))
        out = []
        for ra in self.rows:
            row = []
            for cb in bt:
                acc = self.field.zero
                for a, b in zip(ra, cb):
                    acc = acc + a * b
                row.append(acc)
            out.append(tuple(row))
        return KMat(self.field, tuple(out))

    def __rmul__(self, other):
        # scalar * matrix
        return self.__mul__(other)

    def is_zero(self) -> bool:
        return all(a.is_zero() for r in self.rows for a in r)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def transpose(self) -> KMat:
        return KMat(self.field, tuple(zip(*self.rows)))

    def trace(self) -> KElem:
        acc = self.field.zero
        for i in range(self.nrows):
            acc = acc + self.rows[i][i]
        return acc

    def commutes_with(self, other: KMat) -> bool:
        return (self * other - other * self).is_zero()

    def min_valuation(self):
        """Minimum entry valuation (v(pi)=1 units); INF for the zero matrix."""
        best = INF
        for r in self.rows:
            for a in r:
                v = a.valuation()
                if v < best:
                    best = v
        return best

    def _check_same_shape(self, other: KMat):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ShapeMismatch("matrix shapes differ")

    def to_json(self):
        return [[a.to_json() for a in r] for r in self.rows]

    @staticmethod
    def from_json(field: FieldDesc, data) -> KMat:
        return KMat.from_rows(
            field, [[KElem.from_json(field, a) for a in row] for row in data]
        )

    def __repr__(self):
        body = "; ".join("[" + ", ".join(repr(a) for a in r) + "]" for r in self.rows)
        return f"KMat({body})"


def row_reduce(rows: list[list[KElem]], field: FieldDesc):
    """In-place reduced row echelon form; returns the pivot column list."""
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


def kernel_basis(m: KMat) -> list[tuple[KElem, ...]]:
    """Basis of the right kernel {x : m x = 0}, exact over K."""
    field = m.field
    ncols = m.ncols
    rows = [list(r) for r in m.rows]
    pivots = row_reduce(rows, field)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [field.zero] * ncols
        vec[fc] = field.one
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        basis.append(tuple(vec))
    return basis


def mat_inverse(m: KMat) -> KMat:
    """Inverse over K by reducing [m | I]; NonUnit when m is singular."""
    n = m.nrows
    if n != m.ncols:
        raise NonUnit("matrix is singular over K")
    ident = KMat.identity(m.field, n).rows
    aug = [list(r) + list(ident[i]) for i, r in enumerate(m.rows)]
    if row_reduce(aug, m.field) != list(range(n)):
        raise NonUnit("matrix is singular over K")
    return KMat.from_rows(m.field, [row[n:] for row in aug])


def rank(m: KMat) -> int:
    rows = [list(r) for r in m.rows]
    if not rows:
        return 0
    return len(row_reduce(rows, m.field))


def charpoly(m: KMat) -> list[KElem]:
    """Coefficients of det(x I - m), low-to-high, via Faddeev-LeVerrier."""
    if not m.is_square():
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
    coefficients in K; None when the coefficients are not all rational."""
    if any(not c.is_rational() for c in poly):
        return None
    rat = [c.coords[0] for c in poly]
    # clear denominators to get integer coefficients
    den = lcm(*(c.denominator for c in rat))
    ints = [int(c * den) for c in rat]
    while ints and ints[-1] == 0:
        ints.pop()
    if not ints:
        return []
    roots: list[Fraction] = []
    # peel roots by trial over divisors of the trailing/leading coefficients
    cur = list(ints)
    while len(cur) > 1:
        if cur[0] == 0:
            roots.append(Fraction(0))
            cur = cur[1:]
            continue
        found = None
        for pn in _divisors(abs(cur[0])):
            for qn in _divisors(abs(cur[-1])):
                for sign in (1, -1):
                    cand = Fraction(sign * pn, qn)
                    if _poly_eval_rat(cur, cand) == 0:
                        found = cand
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            return None  # does not split over Q
        roots.append(found)
        cur = _poly_deflate(cur, found)
    return roots


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _poly_eval_rat(coeffs: list[int], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_deflate(coeffs: list[int], root: Fraction) -> list[int]:
    """Divide by (x - root), assuming it divides exactly; rescale to integers."""
    out: list[Fraction] = [Fraction(0)] * (len(coeffs) - 1)
    carry = Fraction(0)
    for i in range(len(coeffs) - 1, 0, -1):
        carry = Fraction(coeffs[i]) + carry * root
        out[i - 1] = carry
    den = lcm(*(c.denominator for c in out))
    return [int(c * den) for c in out]

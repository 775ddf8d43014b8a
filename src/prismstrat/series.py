"""Truncated models of K{X_1..X_n}_pd[[t]] and matrix algebras over them.

Elements are maps (t-exponent m, divided-power multi-index a) -> l x l
matrix over K, on the monomial basis X_1^[a_1]...X_n^[a_n] t^m with the
divided-power product rule X^[i] X^[j] = C(i+j, i) X^[i+j].  Truncation
keeps m < t_order and total pd degree <= pd_degree; both cuts are ideals,
so products never resurrect dropped terms.

Ordinary powers are never stored: X^n enters as n! X^[n].

The ring x ring product (ring_sum) runs on the integer kernel of matrix.py,
after FLINT's fmpq_poly: each term meets many others, so each operand takes
its sparse int_form once, every output entry accumulates an unreduced
pi-polynomial across all term pairs, and that is reduced mod E and divided
once.  key_sums uses each table entry once: per key, one sum_products of its
nonzero entries with the row views vec M_j, read from the storage.  The
product by a scalar, an element of K or a matrix is one product per term.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm, prod
from operator import add
from typing import NamedTuple

from .errors import BadConstantTerm, NonUnit, ShapeMismatch
from .field import FieldDesc, KElem, binary_power
from .matrix import KMat, accumulate, from_polys, int_form, mat_inverse, sum_products

MultiIndex = tuple[int, ...]
Key = tuple[int, MultiIndex]


class Trunc(NamedTuple("Trunc", [("t_order", int), ("pd_degree", int)])):
    """Work modulo t^t_order, dropping pd monomials of total degree > pd_degree."""

    __slots__ = ()

    def __new__(cls, t_order: int, pd_degree: int):
        if t_order < 1 or pd_degree < 0:
            raise ShapeMismatch("need t_order >= 1 and pd_degree >= 0")
        return super().__new__(cls, t_order, pd_degree)

    def contains(self, m: int, idx: MultiIndex) -> bool:
        return m < self.t_order and sum(idx) <= self.pd_degree


class SimplexRingElem:
    """Truncated element of the n-variable simplex ring, matrix valued."""

    __slots__ = ("field", "n_vars", "trunc", "size", "coeffs")

    def __init__(self, field: FieldDesc, n_vars: int, trunc: Trunc, size: int, coeffs=None):
        self.field = field
        self.n_vars = n_vars
        self.trunc = trunc
        self.size = size
        t_order, pd_degree, items = *trunc, (coeffs or {}).items()
        self.coeffs: dict[Key, KMat] = {
            key: mat for key, mat in items if key[0] < t_order and sum(key[1]) <= pd_degree and any(mat.nums)
        }

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(field, n_vars, trunc, size=1) -> SimplexRingElem:
        return SimplexRingElem(field, n_vars, trunc, size)

    @staticmethod
    def one(field, n_vars, trunc, size=1) -> SimplexRingElem:
        out = SimplexRingElem(field, n_vars, trunc, size)
        out.coeffs[(0, (0,) * n_vars)] = KMat.identity(field, size)
        return out

    @staticmethod
    def from_matrix(field, n_vars, trunc, mat: KMat) -> SimplexRingElem:
        out = SimplexRingElem(field, n_vars, trunc, mat.nrows)
        if not mat.is_zero():
            out.coeffs[(0, (0,) * n_vars)] = mat
        return out

    @staticmethod
    def from_scalar(field, n_vars, trunc, c: KElem, size=1) -> SimplexRingElem:
        return SimplexRingElem.from_matrix(
            field, n_vars, trunc, KMat.scalar(field, size, c)
        )

    @staticmethod
    def monomial(field, n_vars, trunc, m: int, idx: MultiIndex, coeff: KMat) -> SimplexRingElem:
        """coeff * X^[idx] t^m (divided-power monomial)."""
        out = SimplexRingElem(field, n_vars, trunc, coeff.nrows)
        if trunc.contains(m, tuple(idx)) and not coeff.is_zero():
            out.coeffs[(m, tuple(idx))] = coeff
        return out

    # -- helpers -----------------------------------------------------------

    def _zero_mat(self) -> KMat:
        return KMat.zero(self.field, self.size)

    def coeff(self, m: int, idx: MultiIndex) -> KMat:
        return self.coeffs.get((m, tuple(idx)), self._zero_mat())

    def constant_term(self) -> KMat:
        return self.coeff(0, (0,) * self.n_vars)

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check_compatible(self, other: SimplexRingElem):
        if (
            self.field != other.field
            or self.n_vars != other.n_vars
            or self.trunc != other.trunc
            or self.size != other.size
        ):
            raise ShapeMismatch("operands live in different truncated rings")

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: SimplexRingElem) -> SimplexRingElem:
        return self._combine(other, 1)

    def __sub__(self, other: SimplexRingElem) -> SimplexRingElem:
        return self._combine(other, -1)

    def _combine(self, other: SimplexRingElem, sign: int) -> SimplexRingElem:
        """self + sign * other in one pass over other's terms."""
        self._check_compatible(other)
        out = dict(self.coeffs)
        for key, mat in other.coeffs.items():
            cur = out.get(key)
            out[key] = (mat if sign > 0 else -mat) if cur is None else cur._combine(mat, sign)
        return SimplexRingElem(self.field, self.n_vars, self.trunc, self.size, out)

    def __neg__(self) -> SimplexRingElem:
        return SimplexRingElem(
            self.field,
            self.n_vars,
            self.trunc,
            self.size,
            {key: -mat for key, mat in self.coeffs.items()},
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, KElem, KMat)):
            # one product per coefficient, by a scalar, an element of K or a matrix
            coeffs = {key: mat * other for key, mat in self.coeffs.items()}
            return SimplexRingElem(self.field, self.n_vars, self.trunc, self.size, coeffs)
        return ring_sum([(self, other)])

    def __rmul__(self, other):
        if isinstance(other, KMat):
            coeffs = {key: other * mat for key, mat in self.coeffs.items()}
            return SimplexRingElem(self.field, self.n_vars, self.trunc, self.size, coeffs)
        return self.__mul__(other) if isinstance(other, (int, Fraction, KElem)) else NotImplemented

    def __pow__(self, n: int) -> SimplexRingElem:
        base, n = (self.invert(), -n) if n < 0 else (self, n)
        return binary_power(base, n, SimplexRingElem.one(self.field, self.n_vars, self.trunc, self.size))

    def __eq__(self, other):
        if not isinstance(other, SimplexRingElem):
            return NotImplemented
        return (
            self.field == other.field
            and self.n_vars == other.n_vars
            and self.trunc == other.trunc
            and self.size == other.size
            and self.coeffs == other.coeffs
        )

    def invert(self) -> SimplexRingElem:
        """Inverse of a unit: constant term must be an invertible matrix."""
        try:
            cinv = mat_inverse(self.constant_term())
        except NonUnit:
            raise NonUnit("constant term is not invertible") from None
        one = SimplexRingElem.one(self.field, self.n_vars, self.trunc, self.size)
        # a = c (1 - n) with n topologically nilpotent; a^-1 = (sum n^k) c^-1
        n = one - self * cinv
        acc = one
        term = one
        while True:
            term = term * n
            if term.is_zero():
                break
            acc = acc + term
        return cinv * acc

    def log(self) -> SimplexRingElem:
        """log of an element with constant term the identity matrix."""
        c = self.constant_term()
        if c != KMat.identity(self.field, self.size):
            raise BadConstantTerm("log needs constant term I")
        one = SimplexRingElem.one(self.field, self.n_vars, self.trunc, self.size)
        n = self - one
        acc = SimplexRingElem.zero(self.field, self.n_vars, self.trunc, self.size)
        term = one
        k = 0
        while True:
            term = term * n
            k += 1
            if term.is_zero():
                break
            acc = acc + term * Fraction((-1) ** (k - 1), k)
        return acc

    def exp(self) -> SimplexRingElem:
        """exp of an element with zero constant term."""
        if not self.constant_term().is_zero():
            raise BadConstantTerm("exp needs zero constant term")
        one = SimplexRingElem.one(self.field, self.n_vars, self.trunc, self.size)
        acc = one
        term = one
        k = 0
        while True:
            k += 1
            term = term * self * Fraction(1, k)
            if term.is_zero():
                break
            acc = acc + term
        return acc

    def exp_pow(self, exponent: KMat) -> SimplexRingElem:
        """a^M := exp(M log a), for scalar-valued a with constant term 1.

        The result is an exponent.nrows-sized matrix series.
        """
        if self.size != 1:
            raise ShapeMismatch("exp_pow needs a scalar-valued base")
        c = self.constant_term()
        if c != KMat.identity(self.field, 1):
            raise BadConstantTerm("exp_pow needs constant term 1")
        lg = self.log()
        size = exponent.nrows
        mlog = SimplexRingElem(
            self.field,
            self.n_vars,
            self.trunc,
            size,
            {key: exponent * mat.rows[0][0] for key, mat in lg.coeffs.items()},
        )
        return mlog.exp()

    def map_size(self, size: int) -> SimplexRingElem:
        """Reinterpret a scalar series as size x size scalar matrices."""
        if self.size != 1:
            raise ShapeMismatch("map_size applies to scalar series")
        return SimplexRingElem(
            self.field,
            self.n_vars,
            self.trunc,
            size,
            {
                key: KMat.scalar(self.field, size, mat.rows[0][0])
                for key, mat in self.coeffs.items()
            },
        )

    def embed(self, n_vars: int, var_map: dict[int, int] | None = None) -> SimplexRingElem:
        """Embed into a ring with more variables; var_map sends old variable
        positions (0-based) to new ones, defaulting to the identity."""
        if n_vars < self.n_vars:
            raise ShapeMismatch("cannot embed into fewer variables")
        if var_map is None:
            var_map = {i: i for i in range(self.n_vars)}
        out: dict[Key, KMat] = {}
        for (m, idx), mat in self.coeffs.items():
            new_idx = [0] * n_vars
            for old, a in enumerate(idx):
                if a:
                    new_idx[var_map[old]] = a
            out[(m, tuple(new_idx))] = mat
        return SimplexRingElem(self.field, n_vars, self.trunc, self.size, out)

    def __repr__(self):
        if not self.coeffs:
            return "SRE(0)"
        parts = []
        for (m, idx) in sorted(self.coeffs)[:8]:
            parts.append(f"t^{m} X{list(idx)}: {self.coeffs[(m, idx)]!r}")
        more = "" if len(self.coeffs) <= 8 else f" ... ({len(self.coeffs)} terms)"
        return "SRE{" + "; ".join(parts) + more + "}"


def ring_sum(pairs) -> SimplexRingElem:
    """sum_i x_i y_i over a non-empty sequence of pairs of one ring, on the
    integer forms of matrix.py: each pair is rescaled to d = lcm_i(d_x_i d_y_i),
    every kept term pair is accumulated into its output key's unreduced
    pi-polynomials, and each key is reduced and divided by d once.  y's terms
    are grouped by t-order and sorted by total degree, so each scan stops at
    the first pair past t_order or past pd_degree."""
    x0 = pairs[0][0]
    field, trunc, l = x0.field, x0.trunc, x0.size
    forms = []
    for x, y in pairs:
        x0._check_compatible(x)
        x0._check_compatible(y)
        (dx, x_forms), (dy, y_forms) = int_form(x.coeffs.values(), l), int_form(y.coeffs.values())
        forms.append((dx * dy, zip(x.coeffs, x_forms), zip(y.coeffs, y_forms)))
    den, acc = lcm(*(d for d, _, _ in forms)), {}
    for d, x_terms, y_terms in forms:
        y_groups: list[list] = [[] for _ in range(trunc.t_order)]
        for (m2, i2), b in sorted(y_terms, key=lambda term: sum(term[0][1])):
            y_groups[m2].append((sum(i2), i2, b))
        for (m1, i1), a in x_terms:
            room = trunc.pd_degree - sum(i1)
            for m2 in range(trunc.t_order - m1):
                for d2, i2, b in y_groups[m2]:
                    if d2 > room:
                        break
                    key = (m1 + m2, idx := tuple(map(add, i1, i2)))
                    polys = acc.get(key)
                    if polys is None:
                        polys = acc[key] = [0] * (l * l * (2 * field.e - 1))
                    accumulate(polys, a, b, den // d * prod(map(comb, idx, i1)))
    out = {key: from_polys(field, polys, l, l, den) for key, polys in acc.items()}
    return SimplexRingElem(field, x0.n_vars, trunc, l, out)


def key_sums(table: dict, mats: list[KMat]) -> dict[Key, KMat]:
    """{key: sum_j table[key][j] mats[j]} for 1 x 1 entries table[key][j]
    and r x c matrices mats[j]: per key, one sum of products of its nonzero
    entries with the 1 x rc row views vec mats[j]."""
    field, r, c = mats[0].field, mats[0].nrows, mats[0].ncols
    rows, zero = [m.reshaped(1, r * c) for m in mats], KMat.zero(field, r, c)
    out = {}
    for key, entries in table.items():
        pairs = [(t, row) for t, row in zip(entries, rows) if any(t.nums)]
        out[key] = sum_products(pairs).reshaped(r, c) if pairs else zero
    return out

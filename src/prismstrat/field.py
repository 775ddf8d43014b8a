"""Exact arithmetic in K = Q[pi]/(E(pi)) for an Eisenstein polynomial E.

An element stores integer coordinates in the power basis 1, pi, ...,
pi^(e-1) over one denominator, the layout of a 1 x 1 matrix.KMat, always
fully reduced mod E.  This module owns the storage rules both types call
(canonical, lcm_sum, scaled, FieldDesc.reduce_polys) and the engine's one
binary power and one Horner loop.  Products and inverses (by Bareiss
elimination) work on integers; Fractions serve parsing and the coords
view.  The valuation is normalized by v(pi) = 1, so v(p) = e.  Because E
is Eisenstein, the terms c_i * pi^i of an element have pairwise distinct
valuations e*v_p(c_i) + i (distinct residues mod e), so

    v(sum_i c_i pi^i) = min_i (e*v_p(c_i) + i)

with no cancellation.  This is the primary valuation routine; the tests
check it against the norm form N(a) = det(mult-by-a).

No floating point anywhere.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache, reduce
from typing import NamedTuple, Sequence, Union

from .errors import DivisionByZero, NotEisenstein, NumberTooLarge, PrimeTooSmall

Rat = Union[int, Fraction, str]

INF = math.inf


def _to_fraction(x: Rat) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError(f"cannot interpret {x!r} as a rational")


# The storage rules of KElem and KMat: integer coordinates nums over one
# denominator den >= 1, with gcd(den, *nums) == 1.


def canonical(den: int, nums) -> tuple[int, tuple[int, ...]]:
    """The canonical (den, nums) of the coordinates nums / den."""
    g = math.gcd(den, *nums)
    return (den // g, tuple(a // g for a in nums)) if g > 1 else (den, tuple(nums))


def lcm_sum(x, y, sign: int) -> tuple[int, tuple[int, ...]]:
    """The canonical (den, nums) of x + sign * y, x and y stored alike."""
    den = math.lcm(x.den, y.den)
    s, t = den // x.den, sign * (den // y.den)
    return canonical(den, [a * s + b * t for a, b in zip(x.nums, y.nums)])


def scaled(x, q: int | Fraction) -> tuple[int, tuple[int, ...]]:
    """The canonical (den, nums) of x * q for a rational q."""
    return canonical(x.den * q.denominator, [a * q.numerator for a in x.nums])


def rat_str(x: Fraction | int, den: int = 1) -> str:
    """Canonical "num/den" form of x / den (den >= 1), plain integer when the
    reduced denominator is 1.  NumberTooLarge when a part has more digits
    than Python converts to a string."""
    den, (num,) = canonical(x.denominator * den, [x.numerator])
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:
        raise NumberTooLarge(
            f"a rational of {num.bit_length()} / {den.bit_length()} bits "
            f"exceeds the {sys.get_int_max_str_digits()}-digit limit of a report"
        ) from None


def vp_rational(x: Fraction, p: int):
    """p-adic valuation of a rational; INF for 0."""
    if x == 0:
        return INF
    v = 0
    n = x.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = x.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def horner(coeffs, x):
    """coeffs[0] + coeffs[1] x + ... for non-empty low-to-high coeffs."""
    return reduce(lambda acc, c: acc * x + c, reversed(coeffs))


def binary_power(x, n: int, one):
    """x ** n for an integer n >= 0 by binary powering; one for n = 0."""
    acc = None
    while n:
        if n & 1:
            acc = x if acc is None else acc * x
        n >>= 1
        if n:
            x = x * x
    return one if acc is None else acc


# The least strong pseudoprime to every one of the bases 2 .. 41 (psi_13):
# below it, Miller-Rabin on these bases is deterministic.
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Primality of n < PSI_13, by Miller-Rabin on PRIME_BASES."""
    if n < 2:
        return False
    for q in PRIME_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldDesc:
    """The base field K = Q[pi]/(E(pi)), E Eisenstein at p.

    Precomputes the reduction table pi^k mod E for k < 2e-1 as the columns
    _pow_columns of its integer copy _pow_den * table (cleared of
    denominators, read only by reduce_polys), the element
    beta = E'(pi) and its inverse.  Immutable after construction.
    """

    __slots__ = (
        "p", "e", "E_coeffs", "_pow_den", "_pow_columns",
        "pi", "beta", "beta_inv", "one", "zero",
    )

    def __init__(self, p: int, E_coeffs: Sequence[Rat]):
        if p >= PSI_13:
            raise PrimeTooSmall(f"p = {p} is at or above {PSI_13}, where the primality test is not exact")
        if not is_prime(p):
            raise PrimeTooSmall(f"p = {p} is not prime")
        if p <= 2:
            raise PrimeTooSmall(f"p = {p}; the engine follows the p > 2 convention")
        coeffs = tuple(_to_fraction(c) for c in E_coeffs)
        if len(coeffs) < 2:
            raise NotEisenstein("E must have degree >= 1")
        e = len(coeffs) - 1
        if coeffs[-1] != 1:
            raise NotEisenstein("E must be monic")
        for i, c in enumerate(coeffs[:-1]):
            if vp_rational(c, p) < 1:
                raise NotEisenstein(
                    f"coefficient of u^{i} has p-adic valuation < 1"
                )
        if vp_rational(coeffs[0], p) != 1:
            raise NotEisenstein("constant coefficient must have p-adic valuation exactly 1")

        self.p = p
        self.e = e
        self.E_coeffs = coeffs

        # pi^k mod E for k = 0 .. 2e-2, as coordinate lists
        table = [[Fraction(1)] + [Fraction(0)] * (e - 1)]
        for _ in range(2 * e - 2):
            top, shifted = table[-1][-1], [Fraction(0)] + table[-1][:-1]
            # pi^e = -(E_0 + E_1 pi + ... + E_{e-1} pi^{e-1})
            table.append([c - top * ci for c, ci in zip(shifted, coeffs)])
        self._pow_den = math.lcm(*(c.denominator for row in table for c in row))
        self._pow_columns = tuple(zip(*([int(c * self._pow_den) for c in row] for row in table)))

        self.zero = self.from_coords([])
        self.one = self.from_coords([1])
        self.pi = self.from_coords([-coeffs[0]] if e == 1 else [0, 1])  # pi = -E_0 for linear E
        self.beta = self.from_coords(self.E_derivative(1))  # E' has degree < e: no reduction
        self.beta_inv = self.beta.inverse()

    def reduce_polys(self, polys: list[int], den: int) -> tuple[int, tuple[int, ...]]:
        """The canonical (den, nums) of the flat integer pi-polynomials of
        2e - 1 coefficients in polys, divided by den and reduced mod E: the
        columns of the integer pi-power table take each to e coordinates
        over den * _pow_den."""
        w, columns = 2 * self.e - 1, self._pow_columns
        nums = [sum(map(int.__mul__, polys[q : q + w], col)) for q in range(0, len(polys), w) for col in columns]
        return canonical(den * self._pow_den, nums)

    def E_derivative(self, n: int) -> tuple[Fraction, ...]:
        """Coefficients of the n-th formal derivative of E, low-to-high."""
        coeffs = list(self.E_coeffs)
        for _ in range(n):
            coeffs = [coeffs[k] * k for k in range(1, len(coeffs))]
        return tuple(coeffs)

    def from_rational(self, x: Rat) -> KElem:
        return self.from_coords([x])

    def from_coords(self, coords: Sequence[Rat]) -> KElem:
        cs = [_to_fraction(c) for c in coords]
        if len(cs) > self.e:
            raise ValueError(f"expected at most {self.e} coordinates")
        # over the lcm of the reduced denominators, gcd(den, *nums) is already 1
        den = math.lcm(*(c.denominator for c in cs))
        nums = [c.numerator * (den // c.denominator) for c in cs] + [0] * (self.e - len(cs))
        return KElem(self, den, tuple(nums))

    def __eq__(self, other):
        return (
            isinstance(other, FieldDesc)
            and self.p == other.p
            and self.E_coeffs == other.E_coeffs
        )

    def __hash__(self):
        return hash((self.p, self.E_coeffs))

    def __repr__(self):
        terms = " + ".join(
            f"({rat_str(c)})u^{i}" for i, c in enumerate(self.E_coeffs) if c != 0
        )
        return f"FieldDesc(p={self.p}, E = {terms})"


def field_init(p: int, E_coeffs: Sequence[Rat]) -> FieldDesc:
    """The field description of (p, E), validated and built once per process
    while fewer than 128 fields are in use; a failure is never cached."""
    return _field(p, tuple(_to_fraction(c) for c in E_coeffs))


_field = lru_cache(maxsize=128)(FieldDesc)


class KElem(NamedTuple):
    """Element of K, stored like a 1 x 1 KMat: the coordinate of pi^i is
    nums[i] / den, i < e.  The form is canonical, den >= 1 and
    gcd(den, *nums) == 1, so == and hash are structural."""

    field: FieldDesc
    den: int
    nums: tuple[int, ...]

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """The coordinates as rationals."""
        return tuple(Fraction(a, self.den) for a in self.nums)

    def __add__(self, other: KElem) -> KElem:
        return KElem(self.field, *lcm_sum(self, other, 1))

    def __sub__(self, other: KElem) -> KElem:
        return KElem(self.field, *lcm_sum(self, other, -1))

    def __neg__(self) -> KElem:
        return KElem(self.field, self.den, tuple(-a for a in self.nums))

    def __mul__(self, other) -> KElem:
        """The product; with another element, the integer pi-polynomial of
        the numerators over den * other.den, reduced mod E."""
        fld = self.field
        if isinstance(other, (int, Fraction)):
            return KElem(fld, *scaled(self, other))
        if not isinstance(other, KElem):
            return NotImplemented
        prod = [0] * (2 * fld.e - 1)
        for i, a in enumerate(self.nums):
            if a:
                for j, b in enumerate(other.nums):
                    prod[i + j] += a * b
        return KElem(fld, *fld.reduce_polys(prod, self.den * other.den))

    __rmul__ = __mul__

    def __truediv__(self, other) -> KElem:
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise DivisionByZero("division by zero")
            return self * (1 / Fraction(other))
        return self * other.inverse()

    def __pow__(self, n: int) -> KElem:
        base, n = (self.inverse(), -n) if n < 0 else (self, n)
        return binary_power(base, n, self.field.one)

    def inverse(self) -> KElem:
        """Inverse mod E on integers: M / d multiplies by the numerator polynomial
        (column j: pi^j nums mod E), forward Bareiss on [M | e_0] ends on D = +-det M,
        and back substitution gives y = |D| M^-1 e_0 exactly (Cramer), so 1/a = den d y
        / |D|.  E is irreducible, so M is singular, with no pivot, only for a = 0."""
        fld, e = self.field, self.field.e
        d, cols = fld.reduce_polys([c for j in range(e) for c in [0] * j + list(self.nums) + [0] * (e - 1 - j)], 1)
        rows, D = [[*cols[i::e], int(i == 0)] for i in range(e)], 1
        for k in range(e):
            if (piv := next((i for i in range(k, e) if rows[i][k]), None)) is None:
                raise DivisionByZero("inverting 0 in K")
            top = rows[piv]
            rows[piv], rows[k] = rows[k], top
            for r in rows[k + 1 :]:
                r[k + 1 :] = [(x * top[k] - r[k] * t) // D for x, t in zip(r[k + 1 :], top[k + 1 :])]
            D = top[k]
        D, y = abs(D), [0] * e
        for i in reversed(range(e)):
            y[i] = (D * rows[i][e] - sum(rows[i][j] * y[j] for j in range(i + 1, e))) // rows[i][i]
        return KElem(fld, *canonical(D, [self.den * d * c for c in y]))

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def valuation(self):
        """v with v(pi) = 1, v(p) = e; INF for 0: min_i (e v_p(nums[i]) + i)
        - e v_p(den)."""
        e, p = self.field.e, self.field.p
        vals = [e * vp_rational(a, p) + i for i, a in enumerate(self.nums) if a]
        return min(vals) - e * vp_rational(self.den, p) if vals else INF

    def to_json(self) -> list[str]:
        return [rat_str(a, self.den) for a in self.nums]

    @staticmethod
    def from_json(field: FieldDesc, data) -> KElem:
        if isinstance(data, (str, int)):
            return field.from_rational(data)
        return field.from_coords(list(data))

    def __repr__(self):
        parts = []
        for i, a in enumerate(self.nums):
            if a:
                c = rat_str(a, self.den)
                parts.append(c if i == 0 else f"({c})pi" if i == 1 else f"({c})pi^{i}")
        return " + ".join(parts) if parts else "0"


class PadicApprox(NamedTuple):
    """A KElem known modulo p^prec (absolute p-adic precision).

    prec is a Fraction (valuations of K-elements live in (1/e)Z) or INF
    for exact values.
    """

    value: KElem
    prec: object  # Fraction or INF

    @staticmethod
    def approx(value: KElem, prec) -> PadicApprox:
        return PadicApprox(value, prec if prec is INF else Fraction(prec))

    def to_json(self) -> dict:
        return {
            "value": self.value.to_json(),
            "prec": "inf" if self.prec is INF else rat_str(Fraction(self.prec)),
        }

    def __repr__(self):
        pr = "inf" if self.prec is INF else str(self.prec)
        return f"{self.value!r} + O(p^{pr})"

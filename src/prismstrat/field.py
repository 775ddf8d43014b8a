"""Exact arithmetic in K = Q[pi]/(E(pi)) for an Eisenstein polynomial E.

Elements are vectors of arbitrary-precision rationals in the power basis
1, pi, ..., pi^(e-1), always fully reduced mod E.  The valuation is
normalized by v(pi) = 1, so v(p) = e.  Because E is Eisenstein, the
terms c_i * pi^i of an element have pairwise distinct valuations
e*v_p(c_i) + i (distinct residues mod e), so

    v(sum_i c_i pi^i) = min_i (e*v_p(c_i) + i)

with no cancellation.  This is the primary valuation routine; the tests
check it against the norm form N(a) = det(mult-by-a).

No floating point anywhere.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache
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


def rat_str(x: Fraction) -> str:
    """Canonical "num/den" form, plain integer when den == 1.  NumberTooLarge
    when a part has more digits than Python converts to a string."""
    try:
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    except ValueError:
        raise NumberTooLarge(
            f"a rational of {x.numerator.bit_length()} / {x.denominator.bit_length()} bits "
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


def poly_divmod(f: list[Fraction], g: list[Fraction]):
    """(quotient, remainder) of f by g (g[-1] != 0), low-to-high, the
    remainder without trailing zeros."""
    rem, quot = list(f), [Fraction(0)] * max(len(f) - len(g) + 1, 0)
    while len(rem) >= len(g):
        c, shift = rem[-1] / g[-1], len(rem) - len(g)
        quot[shift] = c
        for i, gi in enumerate(g):
            rem[shift + i] -= c * gi
        rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
    return quot, rem


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    # deterministic Miller-Rabin for n < 3.3 * 10^24
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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

    Precomputes the reduction table pi^k mod E for k < 2e-1, the columns
    _pow_columns of its integer copy _pow_den * _pow_table (cleared of
    denominators, for the integer product kernel), the element beta = E'(pi)
    and its inverse.  Immutable after construction.
    """

    __slots__ = (
        "p", "e", "E_coeffs", "_pow_table", "_pow_den", "_pow_columns",
        "pi", "beta", "beta_inv", "one", "zero",
    )

    def __init__(self, p: int, E_coeffs: Sequence[Rat]):
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

        # pi^k mod E for k = 0 .. 2e-2, as coordinate tuples
        table = []
        cur = [Fraction(0)] * e
        cur[0] = Fraction(1)
        table.append(tuple(cur))
        for _ in range(1, 2 * e - 1):
            shifted = [Fraction(0)] + cur[:]
            if len(shifted) > e:
                top = shifted.pop()
                # pi^e = -(E_0 + E_1 pi + ... + E_{e-1} pi^{e-1})
                for i in range(e):
                    shifted[i] -= top * coeffs[i]
            cur = shifted
            table.append(tuple(cur))
        self._pow_table = tuple(table)
        self._pow_den = math.lcm(*(c.denominator for row in table for c in row))
        self._pow_columns = tuple(zip(*(tuple(int(c * self._pow_den) for c in row) for row in table)))

        self.zero = KElem(self, (Fraction(0),) * e)
        self.one = KElem(self, tuple([Fraction(1)] + [Fraction(0)] * (e - 1)))
        pi_coords = [Fraction(0)] * e
        if e == 1:
            pi_coords[0] = -coeffs[0]  # pi = -E_0 for linear E
        else:
            pi_coords[1] = Fraction(1)
        self.pi = KElem(self, tuple(pi_coords))
        self.beta = self.eval_poly(self.E_derivative(1), self.pi)
        self.beta_inv = self.beta.inverse()

    def E_derivative(self, n: int) -> tuple[Fraction, ...]:
        """Coefficients of the n-th formal derivative of E, low-to-high."""
        coeffs = list(self.E_coeffs)
        for _ in range(n):
            coeffs = [coeffs[k] * k for k in range(1, len(coeffs))]
        return tuple(coeffs)

    def from_rational(self, x: Rat) -> KElem:
        coords = [Fraction(0)] * self.e
        coords[0] = _to_fraction(x)
        return KElem(self, tuple(coords))

    def from_coords(self, coords: Sequence[Rat]) -> KElem:
        cs = [_to_fraction(c) for c in coords]
        if len(cs) > self.e:
            raise ValueError(f"expected at most {self.e} coordinates")
        cs += [Fraction(0)] * (self.e - len(cs))
        return KElem(self, tuple(cs))

    def eval_poly(self, poly: Sequence[Rat], x: KElem) -> KElem:
        """Evaluate a rational-coefficient polynomial at x in K (Horner)."""
        acc = self.zero
        for c in reversed([_to_fraction(c) for c in poly]):
            acc = acc * x + self.from_rational(c)
        return acc

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
    """Element of K in the power basis, always reduced (len(coords) == e)."""

    field: FieldDesc
    coords: tuple[Fraction, ...]

    def __add__(self, other: KElem) -> KElem:
        return KElem(
            self.field,
            tuple(a + b for a, b in zip(self.coords, other.coords)),
        )

    def __sub__(self, other: KElem) -> KElem:
        return KElem(
            self.field,
            tuple(a - b for a, b in zip(self.coords, other.coords)),
        )

    def __neg__(self) -> KElem:
        return KElem(self.field, tuple(-a for a in self.coords))

    def __mul__(self, other) -> KElem:
        fld = self.field
        if isinstance(other, (int, Fraction)):
            q = _to_fraction(other)
            return KElem(fld, tuple(a * q for a in self.coords))
        if not isinstance(other, KElem):
            return NotImplemented
        e = fld.e
        if e == 1:
            return KElem(fld, (self.coords[0] * other.coords[0],))
        a, b = self.coords, other.coords
        prod = [Fraction(0)] * (2 * e - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                if bj == 0:
                    continue
                prod[i + j] += ai * bj
        out = [Fraction(0)] * e
        table = fld._pow_table
        for k, ck in enumerate(prod):
            if ck == 0:
                continue
            row = table[k]
            for i in range(e):
                if row[i] != 0:
                    out[i] += ck * row[i]
        return KElem(fld, tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other) -> KElem:
        if isinstance(other, (int, Fraction)):
            q = _to_fraction(other)
            if q == 0:
                raise DivisionByZero("division by zero")
            return KElem(self.field, tuple(a / q for a in self.coords))
        return self * other.inverse()

    def __pow__(self, n: int) -> KElem:
        if n < 0:
            return self.inverse() ** (-n)
        acc = self.field.one
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def inverse(self) -> KElem:
        """Inverse mod E via extended Euclid over Q[u]: s_i a = r_i mod E."""
        if self.is_zero():
            raise DivisionByZero("inverting 0 in K")
        fld = self.field
        r0, r1 = list(fld.E_coeffs), list(self.coords)
        while r1[-1] == 0:
            r1.pop()
        s0, s1 = [], [Fraction(1)]
        while len(r1) > 1:
            q, rem = poly_divmod(r0, r1)
            s_next = s0 + [Fraction(0)] * (len(q) + len(s1) - 1 - len(s0))
            for i, qi in enumerate(q):
                for j, sj in enumerate(s1):
                    s_next[i + j] -= qi * sj
            r0, r1, s0, s1 = r1, rem, s1, s_next
        if not r1:
            # the gcd r0 is not a unit, which E irreducible rules out for a != 0
            raise DivisionByZero("element not invertible mod E")
        return fld.from_coords([c / r1[0] for c in s1])

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def valuation(self):
        """v with v(pi) = 1, v(p) = e; INF for 0."""
        fld = self.field
        best = INF
        for i, c in enumerate(self.coords):
            if c == 0:
                continue
            v = fld.e * vp_rational(c, fld.p) + i
            if v < best:
                best = v
        return best

    def to_json(self) -> list[str]:
        return [rat_str(c) for c in self.coords]

    @staticmethod
    def from_json(field: FieldDesc, data) -> KElem:
        if isinstance(data, (str, int)):
            return field.from_rational(data)
        return field.from_coords(list(data))

    def __repr__(self):
        parts = []
        for i, c in enumerate(self.coords):
            if c == 0:
                continue
            if i == 0:
                parts.append(rat_str(c))
            elif i == 1:
                parts.append(f"({rat_str(c)})pi")
            else:
                parts.append(f"({rat_str(c)})pi^{i}")
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

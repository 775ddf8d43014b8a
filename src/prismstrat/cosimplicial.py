"""The cosimplicial structure on the truncated simplex rings.

Carries the series u0(t) with E(u0) = t (Hensel lift of pi), the
coefficients theta_{n,i} of E^{(n)}(u0), the unit alpha = E(u1)/E(u0)
expanded in (X_1, t), and the face maps delta_i into the 1- and
2-simplex rings.  alpha = 1 + N with N nilpotent, and the context owns
the engine's one binomial series alpha^M = sum_j C(M, j) N^j: every
power of alpha, integer or matrix, is one key_sums of the shared N^j
coefficients with the binomials, and integer powers are cached.
alpha_sum is the engine's one delta_0: the cocycle residual, the
conjecture identity and the reference H^0 conditions take their
alpha^s t^p terms from it.  face_map is the reference route of the
cocycle residual, which stratification computes in the basis
X_1^[a] (X_2 - X_1)^[b] without it.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .errors import IndexOutOfRange, ShapeMismatch
from .field import FieldDesc, KElem, horner
from .matrix import KMat, submatrix
from .series import SimplexRingElem as SRE
from .series import Trunc, key_sums


def eval_poly_at_series(field: FieldDesc, coeffs, s: SRE) -> SRE:
    """Evaluate a non-empty rational-coefficient polynomial at a series."""
    return horner([SRE.from_scalar(field, s.n_vars, s.trunc, field.from_rational(c), s.size) for c in coeffs], s)


def hensel_u0(field: FieldDesc, t_order: int) -> SRE:
    """Solve E(u0) = t mod t^t_order with u0(0) = pi, one t-order a step.

    If r = E(u) - t is O(t^k), then E(u - r/beta) = E(u) - E'(u) r/beta = t mod
    t^(k+1), as r^2 = O(t^2k) and E'(u) = E'(pi) = beta mod t: each step fixes
    the t^k coefficient exactly, with no E' series and no series inversion.
    beta is nonzero because E is Eisenstein and E' has degree < e."""
    u = SRE.from_scalar(field, 0, Trunc(1, 0), field.pi)
    for k in range(1, t_order):
        trunc = Trunc(k + 1, 0)
        u, t = SRE(field, 0, trunc, 1, u.coeffs), SRE.monomial(field, 0, trunc, 1, (), KMat.identity(field, 1))
        u = u - (eval_poly_at_series(field, field.E_coeffs, u) - t) * field.beta_inv
    return SRE(field, 0, Trunc(t_order, 0), 1, u.coeffs)


class CosimpCtx:
    """Field + truncation + the derived cosimplicial data, all immutable.

    theta[(n, i)] is the t^i coefficient of E^{(n)}(u0), for 1 <= n <= e
    and 0 <= i < t_order; theta_{1,0} = beta.
    """

    def __init__(self, field: FieldDesc, trunc: Trunc):
        self.field = field
        self.trunc = trunc
        lifted = hensel_u0(field, trunc.t_order)
        self.u0 = SRE(field, 0, trunc, 1, lifted.coeffs)
        self.theta = theta_table(field, self.u0, trunc.t_order)
        self.alpha = alpha_series(field, self.theta, trunc)
        one = SRE.one(field, 1, trunc)
        self._n_pow = [one, self.alpha - one]
        self._alpha_pows: dict[int, SRE] = {}

    def theta_at(self, n: int, i: int) -> KElem:
        if i < 0:
            return self.field.zero
        return self.theta.get((n, i), self.field.zero)

    def alpha_pow(self, k) -> SRE:
        """alpha^k in the 1-variable ring; k an integer of either sign, or a
        square KMat exponent (then the result is matrix valued, with
        C(M, j) = C(M, j-1)(M - (j-1))/j).  Only integer exponents are
        cached, so a context shared by many problems does not grow with
        their number."""
        if isinstance(k, KMat):
            ident = KMat.identity(self.field, k.nrows)
            binoms = [ident]
            for j in range(1, self.trunc.pd_degree + 1):
                binoms.append(binoms[-1] * (k - ident * (j - 1)) * Fraction(1, j))
            return SRE(self.field, 1, self.trunc, k.nrows, self._binomial_sum(binoms))
        return self.alpha_pows([k])[0]

    def alpha_pows(self, ks) -> list[SRE]:
        """alpha^k for each integer k in ks.  The powers not cached yet take
        one binomial sum together, with the 1 x len(ks) rows C(k, j)."""
        ks = list(ks)
        new = [k for k in dict.fromkeys(ks) if k not in self._alpha_pows]
        if new:
            pad = (0,) * (self.field.e - 1)
            rows = ([binom(k, j) for k in new] for j in range(self.trunc.pd_degree + 1))
            binoms = [KMat(self.field, 1, len(new), 1, tuple(c for b in row for c in (b, *pad))) for row in rows]
            sums = self._binomial_sum(binoms)
            for col, k in enumerate(new):
                coeffs = {key: submatrix(row, [0], [col]) for key, row in sums.items()}
                self._alpha_pows[k] = SRE(self.field, 1, self.trunc, 1, coeffs)
        return [self._alpha_pows[k] for k in ks]

    def _binomial_sum(self, binoms: list[KMat]) -> dict:
        """{key: sum_j (N^j)[key] binoms[j]} with N = alpha - 1, in one
        key_sums.  N^j has pd degree >= j, so the callers pass j <= pd_degree;
        trailing zero binoms (C(k, j) for j > k >= 0) build no power N^j."""
        while len(binoms) > 1 and binoms[-1].is_zero():
            binoms.pop()
        n_pow, zero = self._n_pow, KMat.zero(self.field, 1)
        while len(n_pow) < len(binoms):
            n_pow.append(n_pow[-1] * n_pow[1])
        n_pows = n_pow[: len(binoms)]
        keys = dict.fromkeys(key for nj in n_pows for key in nj.coeffs)
        return key_sums({key: [nj.coeffs.get(key, zero) for nj in n_pows] for key in keys}, binoms)

    def alpha_pow_2v(self, k: int) -> SRE:
        """alpha^k embedded into the 2-variable ring (X_1 in place)."""
        return self.alpha_pow(k).embed(2)


def binom(r: int, i: int) -> int:
    """C(r, i) = r(r-1)...(r-i+1)/i! for an integer r of either sign:
    (-1)^i C(i - r - 1, i) for r < 0."""
    return comb(r, i) if r >= 0 else (-1) ** i * comb(i - r - 1, i)


def theta_table(field: FieldDesc, u0: SRE, t_order: int) -> dict[tuple[int, int], KElem]:
    out: dict[tuple[int, int], KElem] = {}
    for n in range(1, field.e + 1):
        series = eval_poly_at_series(field, field.E_derivative(n), u0)
        for i in range(t_order):
            coeff = series.coeff(i, ())
            out[(n, i)] = coeff.rows[0][0]
    return out


def alpha_series(field: FieldDesc, theta, trunc: Trunc) -> SRE:
    """alpha = 1 + sum_{n=1}^{e} (-1)^n E^{(n)}(u0) X_1^[n] t^(n-1), as one coefficient
    dict; the 1/n! of the Taylor expansion is absorbed by X_1^n = n! X_1^[n]."""
    coeffs = {(0, (0,)): KMat.identity(field, 1)}
    for n in range(1, min(field.e, trunc.pd_degree) + 1):
        for i in range(trunc.t_order - n + 1):
            coeffs[(n - 1 + i, (n,))] = KMat.scalar(field, 1, theta[(n, i)] * (-1) ** n)
    return SRE(field, 1, trunc, 1, coeffs)


def theta_report(ctx: CosimpCtx) -> dict:
    """theta_{n,i} keyed by "n,i", JSON-ready."""
    return {
        f"{n},{i}": ctx.theta[(n, i)].to_json()
        for (n, i) in sorted(ctx.theta)
        if not ctx.theta[(n, i)].is_zero()
    }


def cd_table(ctx: CosimpCtx, p_range) -> dict[int, SRE]:
    """{p: alpha^p} for p in p_range: c_{p,s} is the t^s coefficient of alpha^p."""
    return dict(zip(p_range, ctx.alpha_pows(p_range)))


def alpha_sum(ctx: CosimpCtx, terms, trunc: Trunc) -> SRE:
    """sum alpha^s t^p M over the (s, p, M) in terms, cut to trunc, in one
    key_sums: the coefficient table of the alpha^s t^p, keys by term, with
    the row views vec M.  delta_0 sends M X_1^[q] t^p to
    (X_2 - X_1)^[q] alpha^(p-q) t^p M; the caller places the X^[q] part.
    A caller with several sums builds all their powers in one alpha_pows
    call first."""
    terms = list(terms)
    pows, zero = ctx.alpha_pows([s for s, _, _ in terms]), KMat.zero(ctx.field, 1)
    table: dict = {}
    for col, (pow_s, (_, p, _)) in enumerate(zip(pows, terms)):
        for (m, idx), c in pow_s.coeffs.items():
            if trunc.contains(m + p, idx):
                table.setdefault((m + p, idx), [zero] * len(terms))[col] = c
    size = terms[0][2].nrows
    coeffs = key_sums(table, [mat for _, _, mat in terms]) if table else None
    return SRE(ctx.field, 1, trunc, size, coeffs)


def face_map(ctx: CosimpCtx, i: int, x: SRE) -> SRE:
    """delta_i from the n-simplex ring into the (n+1)-simplex ring, n in {0, 1}.

    delta_0 sends X_j to (X_{j+1} - X_1) alpha^{-1} and t to alpha*t; the
    other faces relabel variables and fix t.  On the basis this reads

        X_1^[q] t^p  |->  (X_2 - X_1)^[q] alpha^(p-q) t^p   (n = 1, i = 0).

    delta_0 takes one ring product per shift s = p - q: sum_s alpha^s V_s,
    with the terms of V_s = sum_{p-q=s} A_{p,q} (X_2 - X_1)^[q] t^p placed.
    """
    if x.trunc.t_order != ctx.trunc.t_order:
        raise ShapeMismatch("element t-order differs from the context truncation")
    if x.n_vars == 0:
        if i not in (0, 1):
            raise IndexOutOfRange(f"face index {i} out of range for the 0-simplex")
        if i == 0:
            groups = {m: {(m, (0,)): mat} for (m, _), mat in x.coeffs.items()}
            return _shift_sum(ctx, 1, x.size, groups, ctx.alpha_pow)
        out = SRE.zero(ctx.field, 1, ctx.trunc, x.size)
        for (m, _), mat in x.coeffs.items():
            out = out + SRE.monomial(ctx.field, 1, ctx.trunc, m, (0,), mat)
        return out
    if x.n_vars == 1:
        if i not in (0, 1, 2):
            raise IndexOutOfRange(f"face index {i} out of range for the 1-simplex")
        if x.trunc != ctx.trunc:
            raise ShapeMismatch("element truncation differs from the context")
        if i == 1:
            return x.embed(2, {0: 1})
        if i == 2:
            return x.embed(2, {0: 0})
        groups: dict = {}
        for (p, (q,)), mat in x.coeffs.items():
            v_s = groups.setdefault(p - q, {})
            neg = -mat
            for k in range(q + 1):
                v_s[(p, (q - k, k))] = neg if (q - k) % 2 else mat
        return _shift_sum(ctx, 2, x.size, groups, ctx.alpha_pow_2v)
    raise ShapeMismatch("face maps are implemented into the 1- and 2-simplex rings")


def _shift_sum(ctx: CosimpCtx, n_vars: int, size: int, groups: dict, alpha_pow) -> SRE:
    """sum_s alpha_pow(s) * V_s, where groups[s] holds the coefficients of V_s."""
    out = SRE.zero(ctx.field, n_vars, ctx.trunc, size)
    for s, coeffs in groups.items():
        v_s = SRE(ctx.field, n_vars, ctx.trunc, size, coeffs)
        out = out + alpha_pow(s).map_size(size) * v_s
    return out

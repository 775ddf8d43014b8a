"""Closed forms for the commutative case.

Given seeds with A_{0,1} central, each table row has a generating
function

    sum_n A_{m,n} X^[n]
        = sum_{j=1}^{2m} h~_{m,j} (1 - beta X)^(m-j) X^j (1 - beta X)^(-A_{0,1}/beta),

where (1 - beta X)^(-A_{0,1}/beta) is *defined* as the rising-factorial
series sum_s prod_{i<s}(i beta + A_{0,1}) X^[s], whose coefficients are
the products stratification.rising_products builds for the near-HT probe.

The h-coefficients are built by an inductive pass over m that mirrors the
summation-reordering proof: every sum over the inner index c of

    falling_factorial(c, i) * prod_{t=f+1}^{m-1} ((c-t) beta + A_{0,1})

is converted into the target basis by the scalars

    g^j_{m,f,i} = C(m-f-1, j-i-1) beta^(j-i-1) / j    (f_{m,j} = g^j_{m,0,0}),

and the extra factor c from the theta terms is absorbed with c*FF(c,i) =
FF(c,i+1) + i*FF(c,i).  After the conversion, the linear factors
(-t beta + A_{0,1}) left in a term from h_{f,i} with kernel index i' and
target j run over one explicit integer range, t = f-i'+1 .. u with
u = max(f-i, 0) for j <= m and u = m-j for j > m; so the construction
only multiplies and never divides by a possibly-singular matrix.  The
tests rebuild g by induction, which pins down its beta exponent.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import NamedTuple

from .cosimplicial import CosimpCtx, alpha_sum, binom
from .errors import NonCommutingSeeds, ShapeMismatch
from .field import FieldDesc, KElem
from .matrix import KMat, sum_products
from .series import SimplexRingElem as SRE
from .series import Trunc, ring_sum
from .stratification import Seeds, StratTable, assemble_epsilon, generate_Amn, rising_products


# ---------------------------------------------------------------------------
# the scalar g and the h table
# ---------------------------------------------------------------------------


def g(field: FieldDesc, m: int, f: int, i: int, j: int, beta_pows=None) -> KElem:
    """g^j_{m,f,i} for m >= f+1 and i+1 <= j <= m-f+i, zero elsewhere;
    beta_pows[r] = beta^r, if given, saves building the power."""
    if m < f + 1 or not i + 1 <= j <= m - f + i:
        return field.zero
    r = j - i - 1
    return (field.beta**r if beta_pows is None else beta_pows[r]) * Fraction(comb(m - f - 1, r), j)


class HTable(NamedTuple):
    """h[m][j] for 1 <= j <= 2m (h[0][0] = I), as matrices over K."""

    field: FieldDesc
    l: int
    seeds: Seeds
    h: dict

    def at(self, m: int, j: int) -> KMat:
        return self.h.get(m, {}).get(j, KMat.zero(self.field, self.l))

    def to_json(self) -> dict:
        out = {}
        for m in sorted(self.h):
            for j in sorted(self.h[m]):
                out[f"{m},{j}"] = self.h[m][j].to_json()
        return out


def h_table(seeds: Seeds, ctx: CosimpCtx, m_max: int) -> HTable:
    """Fill h[m][j] for m <= m_max by the summation-reordering induction.
    The terms of row m that share (f, i', max(f-i, 0)) are summed into one
    kappa; every target j takes kappa times a prefix of one running product
    of linear factors (see the module docstring for its range).
    theta_{1,s} is known for s < t_order only, hence t_order > m_max."""
    if len(seeds.A1) <= m_max:
        raise ShapeMismatch(f"need seeds up to A_({m_max},1)")
    if ctx.trunc.t_order <= m_max:
        raise ShapeMismatch("need t_order > m_max")
    if not seeds.commutative():
        raise NonCommutingSeeds("A_{0,1} must commute with every A_{j,1}")
    field, l, a01 = ctx.field, seeds.l, seeds.a01
    linear = {t: KMat.scalar(field, l, field.beta * -t) + a01 for t in range(-m_max, m_max + 1)}
    beta_pows = [field.one]
    for _ in range(1, m_max):
        beta_pows.append(beta_pows[-1] * field.beta)
    h: dict[int, dict[int, KMat]] = {0: {0: KMat.identity(field, l)}}
    for m in range(1, m_max + 1):
        # (f, i', top) -> the pairs whose products sum to its kappa
        groups: dict[tuple[int, int, int], list] = {}
        for f in range(m):
            th = KMat.scalar(field, l, ctx.theta_at(1, m - f))
            for i, hfi in h[f].items():
                top = max(f - i, 0)
                groups.setdefault((f, i, top), []).append((seeds.A1[m - f], hfi))
                groups.setdefault((f, i + 1, top), []).append((hfi, th))
                if i != f:
                    groups[f, i, top].append((hfi, th * (i - f)))
        row: dict[int, list] = {}
        for (f, ip, top), pairs in groups.items():
            kappa = sum_products(pairs)
            if kappa.is_zero():
                continue
            # target j takes the factors t = f-i'+1 .. u: chain[k] is kappa
            # times the first k of them, k = u - f + i'
            targets = range(ip + 1, m - f + ip + 1)
            lengths = [(top if j <= m else m - j) - f + ip for j in targets]
            chain = [kappa]
            for t in range(f - ip + 1, f - ip + max(lengths) + 1):
                chain.append(linear[t] * chain[-1])
            for j, k in zip(targets, lengths):
                row.setdefault(j, []).append((chain[k], KMat.scalar(field, l, g(field, m, f, ip, j, beta_pows))))
        h[m] = {j: mat for j, pairs in row.items() if not (mat := sum_products(pairs)).is_zero()}
    return HTable(field, l, seeds, h)


# ---------------------------------------------------------------------------
# closed-form series and the dual-path verification
# ---------------------------------------------------------------------------


def exponential_sum_series(field: FieldDesc, a01: KMat, trunc: Trunc) -> SRE:
    """(1 - beta X)^(-A_{0,1}/beta) := sum_s prod_{i<s}(i beta + A_{0,1}) X^[s]."""
    prods = enumerate(rising_products(a01, trunc.pd_degree))
    return SRE(field, 1, trunc, a01.nrows, {(0, (s,)): prod for s, prod in prods})


def closedform_series(htable: HTable, m: int, growth: SRE) -> SRE:
    """The generating function of row m, as a 1-variable pd polynomial of
    the degree of growth, the exponential_sum_series of A_{0,1}."""
    field, tr, l = growth.field, growth.trunc, htable.l
    deg = tr.pd_degree
    if m == 0:
        return growth
    # sum_j h~_{m,j} (1 - beta X)^(m-j) X^j, with X^i X^j = (i+j)! X^[i+j]: its
    # X^[n] coefficient is sum_{j<=n} h~_{m,j} C(m-j, n-j) (-beta)^(n-j) n!
    # h~_{m,j} = h_{m,j} A_{0,j-m} for j > m, A_{0,s} being the X^[s]
    # coefficient of the growth series; only j <= n <= deg is read
    h = {}
    for j in range(1, min(2 * m, deg) + 1):
        hj = htable.at(m, j) if j <= m else htable.at(m, j) * growth.coeff(0, (j - m,))
        if not hj.is_zero():
            h[j] = hj
    neg_beta_pows = [field.one]
    for _ in range(deg):
        neg_beta_pows.append(neg_beta_pows[-1] * -field.beta)
    prefactor = {}
    for n in range(1, deg + 1):
        pairs = [
            (hj, KMat.scalar(field, l, neg_beta_pows[n - j] * (binom(m - j, n - j) * factorial(n))))
            for j, hj in h.items()
            if j <= n
        ]
        if pairs:
            prefactor[(0, (n,))] = sum_products(pairs)
    return SRE(field, 1, tr, l, prefactor) * growth


def row_series(table: StratTable, m: int, field: FieldDesc, pd_degree: int) -> SRE:
    """sum_n A_{m,n} X^[n] from a generated table, for comparison."""
    tr = Trunc(1, pd_degree)
    out: dict = {}
    for n in range(min(table.n_max, pd_degree) + 1):
        mat = table.at(m, n)
        if not mat.is_zero():
            out[(0, (n,))] = mat
    return SRE(field, 1, tr, table.l, out)


def verify_commutative(ht: HTable, ctx: CosimpCtx, pd_degree: int) -> dict:
    """Coefficient-wise residual between the recursion rows and the closed
    form of every row of the h table `ht`."""
    field = ctx.field
    m_max = max(ht.h)
    table = generate_Amn(ht.seeds, ctx, pd_degree)
    growth = exponential_sum_series(field, ht.seeds.a01, Trunc(1, pd_degree))
    rows = {}
    ok = True
    for m in range(m_max + 1):
        closed = closedform_series(ht, m, growth)
        direct = row_series(table, m, field, pd_degree)
        diff = closed - direct
        nonzero = sorted(idx[0] for (_, idx) in diff.coeffs)
        if nonzero:
            ok = False
        rows[str(m)] = {"residual_degrees": nonzero, "zero": not nonzero}
    return {"ok": ok, "m_max": m_max, "pd_degree": pd_degree, "rows": rows}


# ---------------------------------------------------------------------------
# the a_k series and the conjecture residual
# ---------------------------------------------------------------------------


def ak_series(seeds: Seeds, ctx: CosimpCtx, k_max: int) -> list[KMat]:
    """a_0 = I and, with the inner term read as (d - A) a_i,

        a_k = 1/(k beta) sum_{i+s=k, i<k} (d_{i+a,s,1} - A_{s,1}) a_i

    with d_{i+a,s,1} = -(i + a) theta_{1,s} and a = -A_{0,1}/beta.  The
    theta_{1,s} are known for s < t_order only, hence t_order > k_max.
    """
    if ctx.trunc.t_order <= k_max:
        raise ShapeMismatch("need t_order > k_max")
    if len(seeds.A1) <= k_max:
        raise ShapeMismatch(f"need seeds up to A_({k_max},1)")
    if not seeds.commutative():
        raise NonCommutingSeeds("A_{0,1} must commute with every A_{j,1}")
    field, l, theta = ctx.field, seeds.l, [ctx.theta_at(1, s) for s in range(k_max + 1)]
    # d_{i+a,s,1} - A_{s,1} = B_s - i theta_{1,s} with B_s = theta_{1,s} A_{0,1}/beta - A_{s,1}
    a01_binv = seeds.a01 * field.beta_inv
    B = {s: a01_binv * theta[s] - seeds.A1[s] for s in range(1, k_max + 1)}
    out = [KMat.identity(field, l)]
    for k in range(1, k_max + 1):
        pairs = [(B[k - i], out[i]) for i in range(k)]
        pairs += [(KMat.scalar(field, l, theta[k - i] * -i), out[i]) for i in range(1, k)]
        out.append(sum_products(pairs) * (field.beta_inv * Fraction(1, k)))
    return out


def conjecture_difference(seeds: Seeds, ctx: CosimpCtx, k_max: int) -> SRE:
    """L - R for the invertible-function identity, cut at t^(k_max+1):

        sum_{i+s=k} (sum_n d_{i+a,s,n} X^[n]) a_i
            = sum_{m+l=k} (sum_n A_{m,n} X^[n]) a_l

    is its t^k slice, with d_{i+a,s,n} the X^[n] t^s coefficient of
    alpha^(i+a), a = -A_{0,1}/beta, and alpha^M = sum_j C(M, j) (alpha-1)^j.
    C(M + i, j) obeys Vandermonde's identity, so alpha^(i+a) = alpha^a alpha^i
    exactly in the truncated ring, and summed against t^k the sides are

        L = alpha^a * sum_i (alpha t)^i a_i,    R = U(X, t) * sum_l a_l t^l:

    one matrix power, one alpha_sum (delta_0 of sum a_i t^i) and one
    ring_sum of the two products, L + U * (-sum_l a_l t^l).
    """
    a_list = ak_series(seeds, ctx, k_max)
    field, l, deg = ctx.field, seeds.l, ctx.trunc.pd_degree
    table = generate_Amn(seeds, ctx, deg)
    tr = Trunc(k_max + 1, deg)
    alpha_t_a = alpha_sum(ctx, [(i, i, a_i) for i, a_i in enumerate(a_list)], tr)
    alpha_a = SRE(field, 1, tr, l, ctx.alpha_pow(seeds.a01 * -field.beta_inv).coeffs)
    U = SRE(field, 1, tr, l, assemble_epsilon(table, ctx).coeffs)
    minus_a_t = SRE(field, 1, tr, l, {(i, (0,)): -a_i for i, a_i in enumerate(a_list)})
    return ring_sum([(alpha_a, alpha_t_a), (U, minus_a_t)])


def conjecture_residual(seeds: Seeds, ctx: CosimpCtx, k_max: int) -> dict:
    """Per-k report of conjecture_difference: the residual at k is its t^k
    slice, reported by its nonzero X-degrees.  k = 0, 1, 2 admit a short
    hand verification; higher k is reported as a finding."""
    diff = conjecture_difference(seeds, ctx, k_max).coeffs
    residuals = {}
    for k in range(k_max + 1):
        nonzero = sorted(idx[0] for (m, idx) in diff if m == k)
        residuals[str(k)] = {"zero": not nonzero, "nonzero_degrees": nonzero}
    return {
        "k_max": k_max,
        "pd_degree": ctx.trunc.pd_degree,
        "residuals": residuals,
        "low_k_zero": all(residuals[str(k)]["zero"] for k in range(min(k_max, 2) + 1)),
    }

"""Closed forms for the commutative case.

Given seeds with A_{0,1} central, each table row has a generating
function

    sum_n A_{m,n} X^[n]
        = sum_{j=1}^{2m} h~_{m,j} (1 - beta X)^(m-j) X^j (1 - beta X)^(-A_{0,1}/beta),

where (1 - beta X)^(-A_{0,1}/beta) is *defined* as the rising-factorial
series sum_s prod_{i<s}(i beta + A_{0,1}) X^[s].

The h-coefficients are built by an inductive pass over m that mirrors the
summation-reordering proof: every sum over the inner index c of

    falling_factorial(c, i) * prod_{t=f+1}^{m-1} ((c-t) beta + A_{0,1})

is converted into the target basis by the scalar tables g^j_{m,f,i}
(f_{m,j} = g^j_{m,0,0}), and the extra factor c from the theta terms is
absorbed with c*FF(c,i) = FF(c,i+1) + i*FF(c,i).  After the conversion,
the linear factors (-t beta + A_{0,1}) left in a term from h_{f,i} with
kernel index i' and target j run over one explicit integer range,
t = f-i'+1 .. u with u = max(f-i, 0) for j <= m and u = m-j for j > m;
so the construction only multiplies and never divides by a
possibly-singular matrix.

The scalar tables g come from their closed form.  The tests rebuild
them by induction and require the two to agree; that pins down the beta
exponent in g, which is easy to mis-transcribe.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import NamedTuple

from .cosimplicial import CosimpCtx, alpha_sum, binom
from .errors import NonCommutingSeeds, ShapeMismatch
from .field import FieldDesc, KElem
from .matrix import KMat, sum_products
from .series import SimplexRingElem as SRE
from .series import Trunc, ring_sum
from .stratification import Seeds, StratTable, assemble_epsilon, generate_Amn


# ---------------------------------------------------------------------------
# scalar tables f and g
# ---------------------------------------------------------------------------


class FGTables:
    """g^j_{m,f,i} in K, with f_{m,i} = g^i_{m,0,0}, from the closed form

        g^j_{m,f,i} = beta^(j-i-1)/(j (j-i-1)!) * (m-(f+1)) ... (m-(f+j-i-1))

    for m >= f+1 and i+1 <= j <= m-f+i; zero otherwise.  The tests check it
    against the induction g^j_{m+1,f,i} = g^j_{m,f,i} + (beta - beta/j)
    g^(j-1)_{m,f,i} from the base row g^(i+1)_{f+1,f,i} = 1/(i+1).
    """

    def __init__(self, field: FieldDesc):
        self.field = field
        self._closed_cache: dict = {}

    def g(self, m: int, f: int, i: int, j: int) -> KElem:
        key = (m, f, i, j)
        if key not in self._closed_cache:
            self._closed_cache[key] = self._closed(m, f, i, j)
        return self._closed_cache[key]

    def _closed(self, m: int, f: int, i: int, j: int) -> KElem:
        field = self.field
        if m < f + 1 or j < i + 1 or j > m - f + i:
            return field.zero
        r = j - i - 1
        num = 1
        for k in range(1, r + 1):
            num *= m - (f + k)
        scale = Fraction(num, j * factorial(r))
        return field.beta**r * scale


# ---------------------------------------------------------------------------
# the h table
# ---------------------------------------------------------------------------


class HTable(NamedTuple):
    """h[m][j] for 1 <= j <= 2m (h[0][0] = I), as matrices over K.

    h_tilde merges in the A_{0,j-m} factor for j > m.
    """

    field: FieldDesc
    l: int
    seeds: Seeds
    h: dict

    def at(self, m: int, j: int) -> KMat:
        return self.h.get(m, {}).get(j, KMat.zero(self.field, self.l))

    def h_tilde(self, m: int, j: int) -> KMat:
        base = self.at(m, j)
        if j <= m or base.is_zero():
            return base
        return base * _linear_product(self.field, self.seeds.a01, range(m - j + 1, 1))

    def to_json(self) -> dict:
        out = {}
        for m in sorted(self.h):
            for j in sorted(self.h[m]):
                out[f"{m},{j}"] = self.h[m][j].to_json()
        return out


def _linear_product(field: FieldDesc, a01: KMat, ts) -> KMat:
    """prod_{t in ts} (-t beta + A_{0,1}); A_{0,k} is ts = range(1-k, 1)."""
    l = a01.nrows
    acc = KMat.identity(field, l)
    for t in ts:
        acc = (KMat.scalar(field, l, field.beta * (-t)) + a01) * acc
    return acc


def h_table(seeds: Seeds, ctx: CosimpCtx, m_max: int) -> HTable:
    """Fill h[m][j] for m <= m_max by the summation-reordering induction."""
    if not seeds.commutative():
        raise NonCommutingSeeds("A_{0,1} must commute with every A_{j,1}")
    if len(seeds.A1) <= m_max:
        raise ShapeMismatch(f"need seeds up to A_({m_max},1)")
    field = ctx.field
    l = seeds.l
    a01 = seeds.a01
    tables = FGTables(field)
    h: dict[int, dict[int, KMat]] = {0: {0: KMat.identity(field, l)}}
    for m in range(1, m_max + 1):
        # contributions (f, kernel index i', coefficient matrix, max(f - i, 0))
        contribs: list[tuple[int, int, KMat, int]] = [(0, 0, seeds.A1[m], 0)]
        for f in range(1, m):
            for i, hfi in h[f].items():
                contribs.append((f, i, seeds.A1[m - f] * hfi, max(f - i, 0)))
        for f in range(0, m):
            th = ctx.theta_at(1, m - f)
            if th.is_zero():
                continue
            for i, hfi in h[f].items():
                top = max(f - i, 0)
                contribs.append((f, i + 1, hfi * th, top))
                if i != f:
                    contribs.append((f, i, hfi * (th * (i - f)), top))
        row: dict[int, list] = {}
        for f, ip, kappa, top in contribs:
            if kappa.is_zero():
                continue
            for j in range(max(ip + 1, 1), m - f + ip + 1):
                gj = tables.g(m, f, ip, j)
                if gj.is_zero():
                    continue
                u = top if j <= m else m - j
                factors = _linear_product(field, a01, range(f - ip + 1, u + 1)) * gj
                row.setdefault(j, []).append((kappa, factors))
        h[m] = {j: mat for j, pairs in row.items() if not (mat := sum_products(pairs)).is_zero()}
    return HTable(field, l, seeds, h)


# ---------------------------------------------------------------------------
# closed-form series and the dual-path verification
# ---------------------------------------------------------------------------


def exponential_sum_series(field: FieldDesc, a01: KMat, trunc: Trunc) -> SRE:
    """(1 - beta X)^(-A_{0,1}/beta) := sum_s prod_{i<s}(i beta + A_{0,1}) X^[s]."""
    l = a01.nrows
    out: dict = {}
    acc = KMat.identity(field, l)
    for s in range(trunc.pd_degree + 1):
        if not acc.is_zero():
            out[(0, (s,))] = acc
        acc = (KMat.scalar(field, l, field.beta * s) + a01) * acc
    return SRE(field, 1, trunc, l, out)


def closedform_series(htable: HTable, m: int, ctx: CosimpCtx, pd_degree: int | None = None) -> SRE:
    """The generating function of row m, as a 1-variable pd polynomial."""
    field = ctx.field
    deg = ctx.trunc.pd_degree if pd_degree is None else pd_degree
    tr = Trunc(1, deg)
    l = htable.l
    growth = exponential_sum_series(field, htable.seeds.a01, tr)
    if m == 0:
        return growth
    # sum_j h~_{m,j} (1 - beta X)^(m-j) X^j, with X^i X^j = (i+j)! X^[i+j]: its
    # X^[n] coefficient is sum_{j<=n} h~_{m,j} C(m-j, n-j) (-beta)^(n-j) n!
    h = {j: hj for j in range(1, 2 * m + 1) if not (hj := htable.h_tilde(m, j)).is_zero()}
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
    rows = {}
    ok = True
    for m in range(m_max + 1):
        closed = closedform_series(ht, m, ctx, pd_degree)
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
    if not seeds.commutative():
        raise NonCommutingSeeds("A_{0,1} must commute with every A_{j,1}")
    if ctx.trunc.t_order <= k_max:
        raise ShapeMismatch("need t_order > k_max")
    if len(seeds.A1) <= k_max:
        raise ShapeMismatch(f"need seeds up to A_({k_max},1)")
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

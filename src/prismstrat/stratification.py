"""Stratification tables {A_{m,n}}, the unit U(X_1, t), and cocycle residuals.

A table is generated from seeds {A_{m,1}} by the inductive formula

    A_{m,n+1} = (beta(n-m) + A_{0,1}) A_{m,n}
                + sum_{i+j=m, i<=m-1} (A_{j,1} + (n-i) theta_{1,j}) A_{i,n},

with A_{0,0} = I and A_{i,0} = 0 for i > 0, one block matrix product per
n (generate_Amn; the entry-by-entry induction lives in the tests).  The
cocycle residual is computed by honest ring arithmetic on the 2-simplex
(assemble U, push it through the face maps in the basis X_1^[a]
(X_2 - X_1)^[b], where two of them are placements, multiply, subtract).
The re-indexed coefficient formula, an independent cross-check of that
residual, lives in the tests.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import NamedTuple

from .cosimplicial import CosimpCtx, alpha_sum
from .errors import SeedShapeMismatch, ShapeMismatch
from .field import INF, KElem
from .matrix import KMat, accumulate, blocks, from_polys, int_form, submatrix
from .series import SimplexRingElem as SRE
from .series import Trunc


class Seeds(NamedTuple):
    """The free data {A_{m,1}}: square matrices of one size l."""

    l: int
    A1: tuple[KMat, ...]

    @staticmethod
    def of(matrices) -> Seeds:
        mats = tuple(matrices)
        if not mats:
            raise SeedShapeMismatch("need at least A_{0,1}")
        l = mats[0].nrows
        for m in mats:
            if m.nrows != l or m.ncols != l:
                raise SeedShapeMismatch("seed matrices must be square of equal size")
        return Seeds(l, mats)

    @property
    def a01(self) -> KMat:
        return self.A1[0]

    def commutative(self) -> bool:
        """Whether A_{0,1} commutes with every A_{j,1}."""
        return all(self.a01.commutes_with(m) for m in self.A1[1:])


class StratTable(NamedTuple):
    """A[(m, n)] for 0 <= m < t_order, 0 <= n <= n_max."""

    l: int
    t_order: int
    n_max: int
    A: dict

    def at(self, m: int, n: int) -> KMat:
        return self.A[(m, n)]

    def to_json(self) -> dict:
        return {
            "l": self.l,
            "t_order": self.t_order,
            "n_max": self.n_max,
            "A": {f"{m},{n}": self.A[(m, n)].to_json() for (m, n) in sorted(self.A)},
        }


def generate_Amn(seeds: Seeds, ctx: CosimpCtx, n_max: int) -> StratTable:
    """Fill the table by the inductive formula, one kernel product per pd degree.
    With theta_{1,0} = beta, col_n = (A_{m,n})_m stacked into a (T l) x l
    matrix satisfies col_{n+1} = M_n col_n, M_n = P + n Q: block (m, i) of P is
    A_{m-i,1} - i theta_{1,m-i}, of Q theta_{1,m-i} I, both 0 for i > m.
    P and Q take their integer form once; col_0 = (I, 0, ..., 0)."""
    field, t_order = ctx.field, ctx.trunc.t_order
    if len(seeds.A1) < t_order:
        raise SeedShapeMismatch(f"need seeds A_(m,1) for all m < {t_order}, got {len(seeds.A1)}")
    l, zero, span = seeds.l, KMat.zero(field, seeds.l), range(t_order)
    theta = [KMat.scalar(field, l, ctx.theta_at(1, j)) for j in span]
    P = blocks([[seeds.A1[m - i] - theta[m - i] * i if i <= m else zero for i in span] for m in span])
    Q = blocks([[theta[m - i] if i <= m else zero for i in span] for m in span])
    col = blocks([[KMat.identity(field, l)]] + [[zero]] * (t_order - 1))
    dpq, (p_rows, q_rows) = int_form([P, Q])
    A: dict = {}
    for n in range(n_max + 1):
        if n:
            dc, (c_rows,) = int_form([col])
            polys = [[0] * (2 * field.e - 1) for _ in range(t_order * l * l)]
            accumulate(polys, p_rows, c_rows, l, 1)
            accumulate(polys, q_rows, c_rows, l, n - 1)
            col = from_polys(field, polys, t_order * l, l, dpq * dc)
        for m in span:
            A[(m, n)] = submatrix(col, range(m * l, (m + 1) * l), range(l))
    return StratTable(l, t_order, n_max, A)


def assemble_epsilon(table: StratTable, ctx: CosimpCtx) -> SRE:
    """U(X_1, t) = sum_m (sum_n A_{m,n} X_1^[n]) t^m in the 1-simplex ring."""
    trunc = ctx.trunc
    out: dict = {}
    for (m, n), mat in table.A.items():
        if trunc.contains(m, (n,)) and not mat.is_zero():
            out[(m, (n,))] = mat
    return SRE(ctx.field, 1, trunc, table.l, out)


def cocycle_residual(U: SRE, ctx: CosimpCtx) -> SRE:
    """R = delta_1(U) - delta_2(U) * delta_0(U) on the 2-simplex ring.

    It runs in the basis X_1^[a] Z^[b] t^m, Z = X_2 - X_1: a unimodular
    change of basis that keeps the pd degree, so the truncation and the
    product rule are the same.  (X_1 + Z)^[n] = sum_{a+b=n} X_1^[a] Z^[b]
    makes delta_1 and delta_2 placements, and delta_0(U) = sum_q Z^[q]
    sum_p alpha^(p-q) t^p A_{p,q} takes one alpha_sum per q.  One ring
    product remains; R's nonzero terms go back by X_1^[a] Z^[b] =
    sum_k (-1)^(b-k) C(a+b-k, a) X_1^[a+b-k] X_2^[k].
    """
    if U.n_vars != 1 or U.trunc != ctx.trunc:
        raise ShapeMismatch("U must live in the 1-simplex ring of the context truncation")
    field, trunc, l = ctx.field, ctx.trunc, U.size
    delta1, delta2, columns = {}, {}, {}
    for (p, (n,)), mat in U.coeffs.items():
        delta2[(p, (n, 0))] = mat
        for b in range(n + 1):
            delta1[(p, (n - b, b))] = mat
        columns.setdefault(n, []).append((p - n, p, mat))
    ctx.alpha_pows(sorted({p - q for (p, (q,)) in U.coeffs}))  # one kernel product for every shift
    delta0 = {}
    for q, cols in columns.items():
        z_q = alpha_sum(ctx, cols, Trunc(trunc.t_order, trunc.pd_degree - q))
        delta0.update({(m, (a, q)): mat for (m, (a,)), mat in z_q.coeffs.items()})
    diff = SRE(field, 2, trunc, l, delta1) - SRE(field, 2, trunc, l, delta2) * SRE(field, 2, trunc, l, delta0)
    out: dict = {}
    for (m, (a, b)), mat in diff.coeffs.items():
        for k in range(b + 1):
            term = mat * ((-1) ** (b - k) * comb(a + b - k, a))
            key = (m, (a + b - k, k))
            out[key] = out[key] + term if key in out else term
    return SRE(field, 2, trunc, l, out)


def residual_report(residual: SRE) -> dict:
    """JSON-ready summary of a (2-variable) residual series."""
    nonzero = []
    max_val = None
    for (m, idx), mat in sorted(residual.coeffs.items()):
        v = mat.min_valuation()
        nonzero.append({"m": m, "multi_index": list(idx), "min_valuation": _val_str(v)})
        if v is not INF:
            max_val = v if max_val is None else max(max_val, v)
    return {
        "trunc": {"t": residual.trunc.t_order, "x": residual.trunc.pd_degree},
        "verdict": "ZERO_RESIDUAL" if not nonzero else "NONZERO_RESIDUAL",
        "nonzero_monomials": nonzero,
        "max_nonzero_coefficient_valuation": _val_str(max_val) if nonzero else None,
    }


def _val_str(v):
    if v is None:
        return None
    if v is INF:
        return "inf"
    return str(v)


def check_near_HT(a01: KMat, n_probe: int = 64, threshold: int = 40) -> dict:
    """Convergence probe on A_{0,1}: prod_{i=0}^{n} (i beta + A_{0,1}) -> 0,
    tracked by the min entry valuation of the partial products.  Returns a
    verdict report, never raises."""
    field = a01.field
    beta = field.beta
    l = a01.nrows
    prod = KMat.identity(field, l)
    vals = []
    verdict = None
    for i in range(n_probe + 1):
        prod = (KMat.scalar(field, l, beta * i) + a01) * prod
        v = prod.min_valuation()
        if v is INF:
            verdict = "PASS"
            vals.append("inf")
            break
        vals.append(str(v))
    if verdict is None:
        final = prod.min_valuation()
        verdict = "PASS" if final > threshold else "FAIL"
    return {
        "mode": "probe",
        "verdict": verdict,
        "n_probe": n_probe,
        "threshold": threshold,
        "min_valuations": vals,
    }


def check_weights_near_HT(weights: list[KElem]) -> dict:
    """Certify that the eigenvalues `weights` of -A_{0,1}/beta lie in
    Z + beta^{-1} m via exact valuations; a verdict report per weight."""
    results = []
    for w in weights:
        ok, witness = _weight_in_near_HT_set(w)
        results.append({"weight": w.to_json(), "in_set": ok, "nearest_integer": witness})
    return {
        "verdict": "PASS" if all(r["in_set"] for r in results) else "FAIL",
        "weights": results,
    }


def _weight_in_near_HT_set(w: KElem):
    """Does w lie in Z + beta^{-1} m?  Exact test via valuations.

    Membership means v(w - n) > -v(beta) for some integer n.  Writing
    w = c_0 + (pi-part), the pi-part contributes valuations that no
    integer shift can change, so the test reduces to the rational
    coordinate: find n with v_p(c_0 - n) > -v(beta)/e.  Returns
    (bool, witness integer or None).
    """
    from math import floor

    from .field import vp_rational

    field = w.field
    e = field.e
    vbeta = field.beta.valuation()
    cutoff = -vbeta
    rest = INF
    for i in range(1, e):
        c = w.coords[i]
        if c != 0:
            rest = min(rest, e * vp_rational(c, field.p) + i)
    if rest is not INF and rest <= cutoff:
        return False, None
    c0 = w.coords[0]
    # smallest integer m* with e*m* > -v(beta); q <= 0 since v(beta) >= 0
    q = Fraction(-vbeta, e)
    mstar = floor(q) + 1
    if mstar <= 0:
        if vp_rational(c0, field.p) >= mstar:
            return True, int(c0) if c0.denominator == 1 else 0
        return False, None
    if vp_rational(c0, field.p) < 0:
        return False, None
    mod = field.p**mstar
    den_inv = pow(c0.denominator % mod, -1, mod)
    n = (c0.numerator % mod) * den_inv % mod
    # report the representative closest to 0
    if n > mod // 2:
        n -= mod
    return True, n


def valuation_profile(table: StratTable) -> dict:
    """Min entry valuations per row; diagnostic for the p-adic decay remark."""
    out = {}
    for m in range(table.t_order):
        out[str(m)] = [_val_str(table.at(m, n).min_valuation()) for n in range(table.n_max + 1)]
    return out

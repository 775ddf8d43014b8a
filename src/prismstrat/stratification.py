"""Stratification tables {A_{m,n}}, the unit U(X_1, t), and cocycle residuals.

A table is generated from seeds {A_{m,1}} by the inductive formula

    A_{m,n+1} = (beta(n-m) + A_{0,1}) A_{m,n}
                + sum_{i+j=m, i<=m-1} (A_{j,1} + (n-i) theta_{1,j}) A_{i,n},

with A_{0,0} = I and A_{i,0} = 0 for i > 0.  The cocycle residual is
computed by honest ring arithmetic on the 2-simplex (assemble U, push it
through the face maps, multiply, subtract); the re-indexed coefficient
formula is implemented separately as an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .cosimplicial import CDTable, CosimpCtx, face_map
from .errors import SeedShapeMismatch
from .field import INF, KElem
from .matrix import KMat, sum_products
from .series import SimplexRingElem as SRE
from .series import Trunc


@dataclass(frozen=True, slots=True)
class Seeds:
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


@dataclass(frozen=True, slots=True)
class StratTable:
    """A[(m, n)] for 0 <= m < t_order, 0 <= n <= n_max."""

    l: int
    t_order: int
    n_max: int
    A: dict

    def at(self, m: int, n: int) -> KMat:
        return self.A[(m, n)]

    def row(self, m: int):
        return [self.A[(m, n)] for n in range(self.n_max + 1)]

    def to_json(self) -> dict:
        return {
            "l": self.l,
            "t_order": self.t_order,
            "n_max": self.n_max,
            "A": {f"{m},{n}": self.A[(m, n)].to_json() for (m, n) in sorted(self.A)},
        }


def generate_Amn(seeds: Seeds, ctx: CosimpCtx, n_max: int) -> StratTable:
    """Fill the table from the seeds by the inductive formula."""
    field = ctx.field
    t_order = ctx.trunc.t_order
    if len(seeds.A1) < t_order:
        raise SeedShapeMismatch(
            f"need seeds A_(m,1) for all m < {t_order}, got {len(seeds.A1)}"
        )
    l = seeds.l
    beta = field.beta
    a01 = seeds.a01
    A: dict = {}
    ident = KMat.identity(field, l)
    zero = KMat.zero(field, l)
    for m in range(t_order):
        A[(m, 0)] = ident if m == 0 else zero
        if n_max >= 1:
            A[(m, 1)] = seeds.A1[m]
    for n in range(1, n_max):
        for m in range(t_order):
            pairs = [(KMat.scalar(field, l, beta * (n - m)) + a01, A[(m, n)])]
            for i in range(m):
                j = m - i
                coeff = seeds.A1[j] + KMat.scalar(field, l, ctx.theta_at(1, j) * (n - i))
                pairs.append((coeff, A[(i, n)]))
            A[(m, n + 1)] = sum_products(pairs)
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
    """R = delta_1(U) - delta_2(U) * delta_0(U) on the 2-simplex ring."""
    lhs = face_map(ctx, 1, U)
    rhs = face_map(ctx, 2, U) * face_map(ctx, 0, U)
    return lhs - rhs


def cocycle_coefficient_residual(
    table: StratTable, ctx: CosimpCtx, cd: CDTable, m: int, k: int
) -> SRE:
    """The re-indexed residual for (t^m, X_2^[k]):

        A_{m,k} - sum_{i+j=m} (sum_s A_{j,s} X_1^[s])
                  (sum_{p<=i} sum_v A_{p,k+v} (-1)^v X_1^[v] c_{p-(k+v), i-p})

    as a 1-variable pd polynomial, truncated at degree D - k so it matches
    the ring-computed residual coefficient-for-coefficient.
    """
    field = ctx.field
    deg = ctx.trunc.pd_degree - k
    tr = Trunc(1, max(deg, 0))
    l = table.l
    total = SRE.zero(field, 1, tr, l)
    if deg < 0:
        return total
    for i in range(m + 1):
        j = m - i
        first: dict = {}
        for s in range(min(deg, table.n_max) + 1):
            mat = table.at(j, s)
            if not mat.is_zero():
                first[(0, (s,))] = mat
        first_sre = SRE(field, 1, tr, l, first)
        inner = SRE.zero(field, 1, tr, l)
        for p in range(i + 1):
            for v in range(deg + 1):
                if k + v > table.n_max:
                    break
                apk = table.at(p, k + v)
                if apk.is_zero():
                    continue
                cpoly = cd.c_poly(p - (k + v), i - p)
                if not cpoly:
                    continue
                sign = Fraction(-1) ** v
                for w, cval in cpoly.items():
                    if v + w > deg:
                        continue
                    # X^[v] * X^[w] = C(v+w, v) X^[v+w]
                    scale = cval * (sign * comb(v + w, v))
                    mono = SRE.monomial(field, 1, tr, 0, (v + w,), apk * scale)
                    inner = inner + mono
        total = total + first_sre * inner
    lead = SRE.from_matrix(field, 1, tr, table.at(m, k)) if k <= table.n_max else SRE.zero(field, 1, tr, l)
    return lead - total


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


def check_near_HT(
    a01: KMat,
    mode: str = "probe",
    n_probe: int = 64,
    threshold: int = 40,
    weights: list[KElem] | None = None,
) -> dict:
    """Convergence gate on A_{0,1}: prod_{i=0}^{n} (i beta + A_{0,1}) -> 0.

    probe mode tracks the min entry valuation of the partial products;
    exact_weights mode certifies supplied eigenvalues of -A_{0,1}/beta lie
    in Z + beta^{-1} m via exact valuations.  Returns a verdict report,
    never raises.
    """
    field = a01.field
    if mode == "probe":
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
    if mode == "exact_weights":
        if weights is None:
            raise ValueError("exact_weights mode needs the weight list")
        results = []
        all_ok = True
        for w in weights:
            ok, witness = _weight_in_near_HT_set(w)
            all_ok = all_ok and ok
            results.append(
                {
                    "weight": w.to_json(),
                    "in_set": ok,
                    "nearest_integer": witness,
                }
            )
        return {
            "mode": "exact_weights",
            "verdict": "PASS" if all_ok else "FAIL",
            "weights": results,
        }
    raise ValueError(f"unknown mode {mode!r}")


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

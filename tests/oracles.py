"""Reference implementations that more than one test file checks the engine
against.  None of them runs on a CLI path; each is an independent
derivation of something the engine computes another way."""

from fractions import Fraction
from math import comb

from prismstrat import closedform
from prismstrat.closedform import FGTables, _linear_product, row_series
from prismstrat.errors import ShapeMismatch
from prismstrat.field import INF, FieldDesc, KElem, PadicApprox
from prismstrat.matrix import KMat
from prismstrat.series import SimplexRingElem as SRE
from prismstrat.series import Trunc
from prismstrat.stratification import StratTable, generate_Amn

# -- p-adic approximations ----------------------------------------------------


def _vp(a: KElem):
    """p-adic valuation (v / e), rational in general; INF for 0."""
    v = a.valuation()
    return v if v is INF else Fraction(v, a.field.e)


def agrees_mod(a: PadicApprox, b: PadicApprox, n) -> bool:
    """Whether a == b modulo p^n (as far as both are known)."""
    diff = _vp(a.value - b.value)
    return diff is INF or diff >= n


def known_nonzero(a: PadicApprox) -> bool:
    """Nonzero at the stated precision: v_p(value) < prec."""
    v = _vp(a.value)
    return v is not INF and v < a.prec


# -- stratification tables -----------------------------------------------------


def generate_Amn_inductive(seeds, ctx, n_max: int) -> StratTable:
    """The table entry by entry, by the inductive formula
    A_{m,n+1} = (beta(n-m) + A_{0,1}) A_{m,n}
                + sum_{i<m} (A_{m-i,1} + (n-i) theta_{1,m-i}) A_{i,n},
    with A_{0,0} = I, A_{m,0} = 0 for m > 0 and A_{m,1} the seeds."""
    field, l, t_order = ctx.field, seeds.l, ctx.trunc.t_order
    A = {}
    for m in range(t_order):
        A[(m, 0)] = KMat.identity(field, l) if m == 0 else KMat.zero(field, l)
        if n_max >= 1:
            A[(m, 1)] = seeds.A1[m]
    for n in range(1, n_max):
        for m in range(t_order):
            out = (KMat.scalar(field, l, field.beta * (n - m)) + seeds.a01) * A[(m, n)]
            for i in range(m):
                coeff = seeds.A1[m - i] + KMat.scalar(field, l, ctx.theta_at(1, m - i) * (n - i))
                out = out + coeff * A[(i, n)]
            A[(m, n + 1)] = out
    return StratTable(l, t_order, n_max, A)


# -- series and the cosimplicial tables ---------------------------------------


def truncate(x: SRE, trunc: Trunc) -> SRE:
    """Restrict x to a smaller truncation window."""
    if not (trunc.t_order <= x.trunc.t_order and trunc.pd_degree <= x.trunc.pd_degree):
        raise ShapeMismatch("can only truncate to a smaller window")
    return SRE(x.field, x.n_vars, trunc, x.size, x.coeffs)


def t_slice(x: SRE, m: int) -> dict[int, KMat]:
    """The t^m coefficient of a 1-variable series as {n: X^[n] coefficient}."""
    return {idx[0]: mat for (mm, idx), mat in x.coeffs.items() if mm == m}


def c_poly(ctx, p: int, s: int) -> dict[int, KElem]:
    """c_{p,s}, the t^s coefficient of alpha^p, as {k: d_{p,s,k}}, zeros omitted."""
    return {k: mat.rows[0][0] for k, mat in t_slice(ctx.alpha_pow(p), s).items()}


def condition_block(table, ctx, m: int, k: int, p: int) -> KMat:
    """Coefficient of B_p (p <= m) in the X^[k] condition of the H^0
    equation at t-order m, by the divided-power product rule:
    sum_{j=p}^{m} sum_s C(k, s) d_{p,j-p,k-s} A_{m-j,s}."""
    field, l = ctx.field, table.l
    out = KMat.zero(field, l)
    for j in range(p, m + 1):
        c = c_poly(ctx, p, j - p)
        for s in range(min(k, table.n_max) + 1):
            d = c.get(k - s, field.zero)
            out = out + table.at(m - j, s) * KMat.scalar(field, l, d * comb(k, s))
    return out


def pd_binomial(field: FieldDesc, trunc: Trunc, q: int) -> SRE:
    """(X_2 - X_1)^[q] = sum_k (-1)^(q-k) X_1^[q-k] X_2^[k], in two variables.

    face_map places these terms directly; this is the reference for them.
    """
    out = SRE.zero(field, 2, trunc)
    for k in range(q + 1):
        sign = -1 if (q - k) % 2 else 1
        out = out + SRE.monomial(
            field, 2, trunc, 0, (q - k, k), KMat.identity(field, 1) * sign
        )
    return out


def conjecture_residual_per_k(seeds, ctx, k_max: int) -> tuple[dict, dict]:
    """closedform.conjecture_residual built one k at a time: the t^(k-i)
    slice of alpha^(i+a), one matrix power per i, times a_i, against
    sum_m (sum_n A_{m,n} X^[n]) a_{k-m}.  The a_i come from
    closedform.ak_series, looked up at call time so that a test can
    perturb them in both.  Returns the report and, per k, the coefficients
    {n: X^[n] coefficient} of the residual at t^k."""
    field, l, deg = ctx.field, seeds.l, ctx.trunc.pd_degree
    tr1 = Trunc(1, deg)
    a_list = closedform.ak_series(seeds, ctx, k_max)
    table = generate_Amn(seeds, ctx, deg)
    exponent = seeds.a01 * field.beta.inverse() * -1
    alpha_ia = [
        ctx.alpha_pow(exponent + KMat.scalar(field, l, field.from_rational(i)))
        for i in range(k_max + 1)
    ]
    residuals, coeffs = {}, {}
    for k in range(k_max + 1):
        diff = SRE.zero(field, 1, tr1, l)
        for i in range(k + 1):
            d_slice = {(0, (n,)): mat for n, mat in t_slice(alpha_ia[i], k - i).items()}
            diff = diff + SRE(field, 1, tr1, l, d_slice) * a_list[i]
            diff = diff - row_series(table, k - i, field, deg) * a_list[i]
        nonzero = sorted(idx[0] for (_, idx) in diff.coeffs)
        residuals[str(k)] = {"zero": not nonzero, "nonzero_degrees": nonzero}
        coeffs[k] = {idx[0]: mat for (_, idx), mat in diff.coeffs.items()}
    report = {
        "k_max": k_max,
        "pd_degree": deg,
        "residuals": residuals,
        "low_k_zero": all(residuals[str(k)]["zero"] for k in range(min(k_max, 2) + 1)),
    }
    return report, coeffs


# -- the scalar tables f and g by induction -------------------------------------


def g_inductive_row(tables: FGTables, m: int, f: int, i: int) -> dict[int, KElem]:
    """{j: g^j_{m,f,i}} built purely from the induction
    g^j_{m+1,f,i} = g^j_{m,f,i} + (beta - beta/j) g^(j-1)_{m,f,i}."""
    field = tables.field
    beta = field.beta
    if m < f + 1:
        return {}
    row = {i + 1: field.from_rational(Fraction(1, i + 1))}
    for mm in range(f + 1, m):
        nxt: dict[int, KElem] = {}
        for j in range(i + 1, (mm + 1) - f + i + 1):
            cur = row.get(j, field.zero)
            prev = row.get(j - 1, field.zero)
            val = cur + prev * (beta - beta * Fraction(1, j))
            if not val.is_zero():
                nxt[j] = val
        row = nxt
    return row


def fg_dual_check(tables: FGTables, m_max: int, i_max: int | None = None) -> dict:
    """Compare closed form vs induction for all m <= m_max; exact."""
    mismatches = []
    checked = 0
    for f in range(0, m_max):
        imax = i_max if i_max is not None else 2 * f + 2
        for i in range(0, imax + 1):
            for m in range(f + 1, m_max + 1):
                ind = g_inductive_row(tables, m, f, i)
                for j in range(0, m - f + i + 2):
                    a = tables.g(m, f, i, j)
                    b = ind.get(j, tables.field.zero)
                    checked += 1
                    if a != b:
                        mismatches.append((m, f, i, j))
    return {"ok": not mismatches, "checked": checked, "mismatches": mismatches}


def fg_coeffs(field: FieldDesc, m_max: int) -> FGTables:
    """Build the scalar tables, verifying closed form against induction."""
    tables = FGTables(field)
    report = fg_dual_check(tables, m_max)
    if not report["ok"]:
        raise AssertionError(f"f/g dual-path disagreement: {report['mismatches']}")
    return tables


# -- polynomial-in-s identity checks for the summation identities -------------


def _falling_factorial(s: int, i: int) -> int:
    out = 1
    for u in range(i):
        out *= s - u
    return out


def lemma_identity_check(
    field: FieldDesc,
    kind: str,
    a01: KMat,
    params: dict,
    tables: FGTables | None = None,
    s_samples: list[int] | None = None,
) -> dict:
    """Evaluate both sides of a summation identity at integer samples s.

    Both sides are polynomials in s of degree <= m+i+1, so agreement on
    degree+1 samples certifies the identity for the given A_{0,1}.
    """
    tables = tables or FGTables(field)
    l = a01.nrows

    if kind == "change_m":
        m = params["m"]
        f, i = 0, 0
    elif kind == "change_mfi":
        m, f, i = params["m"], params["f"], params["i"]
    elif kind == "exp_sum":
        return _exp_sum_check(field, a01, params)
    else:
        raise ValueError(f"unknown lemma kind {kind!r}")

    degree = m + i + 1
    samples = s_samples if s_samples is not None else list(range(degree + 1))
    mismatches = []
    for s in samples:
        lhs = KMat.zero(field, l)
        for c in range(s):
            # prod_{t=f+1}^{m-1} ((c - t) beta + A_{0,1})
            factors = _linear_product(field, a01, range(f + 1 - c, m - c))
            lhs = lhs + factors * _falling_factorial(c, i)
        rhs = KMat.zero(field, l)
        for j in range(i + 1, m - f + i + 1):
            gj = tables.g(m, f, i, j)
            if gj.is_zero():
                continue
            factors = _linear_product(field, a01, range(f - i + 1, m - j + 1))
            rhs = rhs + factors * (_falling_factorial(s, j) * gj)
        if lhs != rhs:
            mismatches.append(s)
    return {
        "kind": kind,
        "params": dict(params),
        "degree": degree,
        "samples": list(samples),
        "ok": not mismatches,
        "mismatching_samples": mismatches,
    }


def _exp_sum_check(field: FieldDesc, a: KMat, params: dict) -> dict:
    """sum_s A_{k+s} X^[s] = A_k (1 - beta X)^(-A/beta - k), both truncated."""
    k = params.get("k", 0)
    deg = params.get("pd_degree", 8)
    tr = Trunc(1, deg)
    l = a.nrows
    beta = field.beta
    lhs: dict = {}
    acc = _linear_product(field, a, range(1 - k, 1))
    ak = acc
    for s in range(deg + 1):
        if not acc.is_zero():
            lhs[(0, (s,))] = acc
        acc = (KMat.scalar(field, l, beta * (k + s)) + a) * acc
    lhs_sre = SRE(field, 1, tr, l, lhs)
    one = SRE.one(field, 1, tr)
    x = SRE.monomial(field, 1, tr, 0, (1,), KMat.identity(field, 1))
    exponent = a * beta.inverse() * -1 - KMat.scalar(field, l, field.from_rational(k))
    rhs_sre = ak * (one + x * (-beta)).exp_pow(exponent)
    ok = lhs_sre == rhs_sre
    return {"kind": "exp_sum", "params": dict(params), "ok": ok}

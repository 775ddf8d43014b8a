"""Reference implementations that more than one test file checks the engine
against.  None of them runs on a CLI path; each is an independent
derivation of something the engine computes another way."""

from fractions import Fraction
from math import comb, floor

from prismstrat import closedform
from prismstrat.closedform import HTable, g, row_series
from prismstrat.cohomology import full_condition_rows
from prismstrat.cosimplicial import eval_poly_at_series
from prismstrat.errors import DivisionByZero, ShapeMismatch
from prismstrat.field import INF, FieldDesc, KElem, PadicApprox, vp_rational
from prismstrat.matrix import KMat, blocks, kernel_basis, poly_divmod, rank, submatrix, sum_products
from prismstrat.series import SimplexRingElem as SRE
from prismstrat.series import Trunc
from prismstrat.stratification import StratTable, generate_Amn

# -- field arithmetic on rational coordinates ---------------------------------


def pow_table(field: FieldDesc) -> list[list[Fraction]]:
    """pi^k mod E for k = 0 .. 2e-2, as rational coordinate lists."""
    e, coeffs = field.e, field.E_coeffs
    cur = [Fraction(1)] + [Fraction(0)] * (e - 1)
    table = [cur]
    for _ in range(1, 2 * e - 1):
        shifted = [Fraction(0)] + cur
        top = shifted.pop()
        # pi^e = -(E_0 + E_1 pi + ... + E_{e-1} pi^{e-1})
        cur = [c - top * coeffs[i] for i, c in enumerate(shifted)]
        table.append(cur)
    return table


def k_mul(field: FieldDesc, a, b) -> tuple[Fraction, ...]:
    """The coordinates of a b from rational coordinates a and b: the
    schoolbook product, reduced mod E by pow_table.  The reference for the
    integer product of KElem."""
    e, table = field.e, pow_table(field)
    prod = [Fraction(0)] * (2 * e - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    return tuple(sum((ck * table[k][i] for k, ck in enumerate(prod)), Fraction(0)) for i in range(e))


def euclid_inverse(a: KElem) -> KElem:
    """Inverse mod E via extended Euclid over Q[u]: s_i a = r_i mod E.  The
    reference for KElem.inverse, which eliminates on integers."""
    if a.is_zero():
        raise DivisionByZero("inverting 0 in K")
    fld = a.field
    r0, r1 = list(fld.E_coeffs), list(a.coords)
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


def binary_power_loop(x, n: int, one):
    """x ** n for n >= 0 by binary powering from acc = one, squaring after
    every bit.  The reference for field.binary_power."""
    acc = one
    while n:
        if n & 1:
            acc = acc * x
        x = x * x
        n >>= 1
    return acc


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


# -- the near-Hodge-Tate weight set --------------------------------------------


def weight_in_near_HT_set_by_coords(w: KElem):
    """Does w lie in Z + beta^{-1} m?  The reference for
    stratification._weight_in_near_HT_set, coordinate by coordinate.

    Membership means v(w - n) > -v(beta) for some integer n.  Writing
    w = c_0 + (pi-part), the pi-part contributes valuations that no
    integer shift can change, so the test reduces to the rational
    coordinate: find n with v_p(c_0 - n) > -v(beta)/e.  Returns
    (bool, witness integer or None).
    """
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
    mstar = floor(Fraction(-vbeta, e)) + 1
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


def rising_products_loop(a01: KMat, n: int) -> list[KMat]:
    """prod_{i<s} (i beta + A_{0,1}) for every s = 0 .. n, zero products
    included.  The reference for stratification.rising_products."""
    field, l = a01.field, a01.nrows
    out = [KMat.identity(field, l)]
    for s in range(n):
        out.append((KMat.scalar(field, l, field.beta * s) + a01) * out[-1])
    return out


# -- series and the cosimplicial tables ---------------------------------------


def truncate(x: SRE, trunc: Trunc) -> SRE:
    """Restrict x to a smaller truncation window."""
    if not (trunc.t_order <= x.trunc.t_order and trunc.pd_degree <= x.trunc.pd_degree):
        raise ShapeMismatch("can only truncate to a smaller window")
    return SRE(x.field, x.n_vars, trunc, x.size, x.coeffs)


def hensel_u0_newton(field: FieldDesc, t_order: int) -> SRE:
    """u0 with E(u0) = t mod t^t_order and u0(0) = pi, by Newton steps
    u <- u - (E(u) - t) E'(u)^-1, each a series inversion that doubles the
    t-adic accuracy.  The reference for cosimplicial.hensel_u0, which fixes
    one t-order a step with beta^-1 alone."""
    trunc = Trunc(t_order, 0)
    t = SRE.monomial(field, 0, trunc, 1, (), KMat.identity(field, 1))
    u = SRE.from_scalar(field, 0, trunc, field.pi)
    dE = field.E_derivative(1)
    while True:
        err = eval_poly_at_series(field, field.E_coeffs, u) - t
        if err.is_zero():
            return u
        u = u - err * eval_poly_at_series(field, dE, u).invert()


def t_slice(x: SRE, m: int) -> dict[int, KMat]:
    """The t^m coefficient of a 1-variable series as {n: X^[n] coefficient}."""
    return {idx[0]: mat for (mm, idx), mat in x.coeffs.items() if mm == m}


def c_poly(ctx, p: int, s: int) -> dict[int, KElem]:
    """c_{p,s}, the t^s coefficient of alpha^p, as {k: d_{p,s,k}}, zeros omitted."""
    return {k: mat.rows[0][0] for k, mat in t_slice(ctx.alpha_pow(p), s).items()}


def binomial_power_per_key(n_pow: list, exponent) -> SRE:
    """(1 + N)^M = sum_j C(M, j) N^j for n_pow = [1, N], with one sum_products
    per key and its own stops (the first zero N^j or zero C(M, j)); M is an
    l x l KMat or an int k.  The reference for CosimpCtx.alpha_pow and
    alpha_pows, which take the whole sum in one kernel product."""
    one, n = n_pow[0], n_pow[1]
    field = one.field
    if isinstance(exponent, int):
        exponent = KMat.scalar(field, 1, field.from_rational(exponent))
    size = exponent.nrows
    ident = KMat.identity(field, size)
    binom = ident
    pairs = {}
    j = 0
    while not binom.is_zero():
        if j == len(n_pow):
            n_pow.append(n_pow[-1] * n)
        if n_pow[j].is_zero():
            break
        for key, c in n_pow[j].coeffs.items():
            pairs.setdefault(key, []).append((binom, KMat.scalar(field, size, c.rows[0][0])))
        binom = binom * (exponent - ident * j) * Fraction(1, j + 1)
        j += 1
    out = {key: sum_products(terms) for key, terms in pairs.items()}
    return SRE(field, one.n_vars, one.trunc, size, out)


def key_sums_stacked(table: dict, mats: list) -> dict:
    """{key: sum_j table[key][j] mats[j]} as one stacked product: the table's
    rows (assembled with blocks) times the stacked rows vec mats[j], sliced
    back per key with submatrix.  The reference for series.key_sums, which
    sums each key's nonzero entries straight from the storage."""
    field, r, c = mats[0].field, mats[0].nrows, mats[0].ncols
    prod = blocks(list(table.values())) * blocks([[KMat(field, 1, r * c, m.den, m.nums)] for m in mats])
    rows = (submatrix(prod, [i], range(r * c)) for i in range(len(table)))
    return {key: KMat(field, r, c, row.den, row.nums) for key, row in zip(table, rows)}


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


def h0_full_system(table, ctx) -> tuple[tuple, tuple[int, ...], int]:
    """H^0 by the U-route: at each t-order t, the kernel_basis of the X^[k]
    conditions for 1 <= k <= D on B_0, ..., B_{t-1}, read off U * alpha^p t^p
    (full_condition_rows, flattened).  Returns the basis at t-order T in
    h0_solve's form, the dimension per t-order, and the dimension of the
    X^[1] kernel at t-order T."""
    T, D, l = ctx.trunc.t_order, ctx.trunc.pd_degree, table.l
    dims = []
    for t in range(1, T + 1):
        rows = full_condition_rows(table, ctx, t, range(1, D + 1))
        kernel = kernel_basis(blocks(rows))
        dims.append(kernel.ncols)
    basis = tuple(
        tuple(submatrix(kernel, range(m * l, (m + 1) * l), [j]) for m in range(T)) for j in range(kernel.ncols)
    )
    return basis, tuple(dims), kernel_basis(blocks(rows[::D])).ncols


def h0_dim_bound_all_m(a01: KMat, m_probe: int) -> int:
    """q = sum_{m=0}^{m_probe} dim ker(A_{0,1} - m beta) with one rank for
    every m; the reference for cohomology.h0_dim_bound, which takes a rank
    only at the roots of a characteristic polynomial."""
    field, l = a01.field, a01.nrows
    return sum(l - rank(a01 - KMat.scalar(field, l, field.beta * m)) for m in range(m_probe + 1))


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


def g_inductive_row(field: FieldDesc, m: int, f: int, i: int) -> dict[int, KElem]:
    """{j: g^j_{m,f,i}} built purely from the induction
    g^j_{m+1,f,i} = g^j_{m,f,i} + (beta - beta/j) g^(j-1)_{m,f,i}."""
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


def fg_dual_check(field: FieldDesc, m_max: int, i_max: int | None = None) -> dict:
    """Compare closed form vs induction for all m <= m_max; exact."""
    mismatches = []
    checked = 0
    for f in range(0, m_max):
        imax = i_max if i_max is not None else 2 * f + 2
        for i in range(0, imax + 1):
            for m in range(f + 1, m_max + 1):
                ind = g_inductive_row(field, m, f, i)
                for j in range(0, m - f + i + 2):
                    a = g(field, m, f, i, j)
                    b = ind.get(j, field.zero)
                    checked += 1
                    if a != b:
                        mismatches.append((m, f, i, j))
    return {"ok": not mismatches, "checked": checked, "mismatches": mismatches}


def fg_coeffs(field: FieldDesc, m_max: int) -> None:
    """Require the closed form of g to match the induction for m <= m_max."""
    report = fg_dual_check(field, m_max)
    if not report["ok"]:
        raise AssertionError(f"f/g dual-path disagreement: {report['mismatches']}")


# -- the h table, one product of linear factors per term and target ------------


def _linear_product(field: FieldDesc, a01: KMat, ts) -> KMat:
    """prod_{t in ts} (-t beta + A_{0,1}); A_{0,k} is ts = range(1-k, 1)."""
    l = a01.nrows
    acc = KMat.identity(field, l)
    for t in ts:
        acc = (KMat.scalar(field, l, field.beta * (-t)) + a01) * acc
    return acc


def h_table_per_target(seeds, ctx) -> HTable:
    """The h table to m_max = T - 1 with every (term, target j) pair built
    on its own: each term kappa of row m goes to target j as kappa
    g^j_{m,f,i'} times its own product of linear factors prod_{t=f-i'+1}^{u},
    u = max(f-i, 0) for j <= m and u = m-j for j > m."""
    field, l, a01 = ctx.field, seeds.l, seeds.a01
    h = {0: {0: KMat.identity(field, l)}}
    for m in range(1, ctx.trunc.t_order):
        # terms (f, kernel index i', kappa, max(f - i, 0))
        terms = []
        for f in range(m):
            th = ctx.theta_at(1, m - f)
            for i, hfi in h[f].items():
                top = max(f - i, 0)
                terms += [(f, i, seeds.A1[m - f] * hfi, top), (f, i + 1, hfi * th, top)]
                if i != f:
                    terms.append((f, i, hfi * (th * (i - f)), top))
        row: dict[int, KMat] = {}
        for f, ip, kappa, top in terms:
            for j in range(ip + 1, m - f + ip + 1):
                u = top if j <= m else m - j
                factors = _linear_product(field, a01, range(f - ip + 1, u + 1)) * g(field, m, f, ip, j)
                row[j] = row.get(j, KMat.zero(field, l)) + kappa * factors
        h[m] = {j: mat for j, mat in row.items() if not mat.is_zero()}
    return HTable(field, l, seeds, h)


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
    s_samples: list[int] | None = None,
) -> dict:
    """Evaluate both sides of a summation identity at integer samples s.

    Both sides are polynomials in s of degree <= m+i+1, so agreement on
    degree+1 samples certifies the identity for the given A_{0,1}.
    """
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
            gj = g(field, m, f, i, j)
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

"""Acceptance criteria, one test per criterion, each at its stated tolerance.

Every check here is exact (tolerance 0); the stated runtime budgets are
asserted with the wall clock.  Run with `pytest tests/test_acceptance.py -v -s`
to see one PASS line per criterion.
"""

import random
import time
from fractions import Fraction
from math import comb

import pytest

from prismstrat.closedform import (
    closedform_series,
    conjecture_residual,
    exponential_sum_series,
    h_table,
    verify_commutative,
)
from prismstrat.cohomology import h0_dim_bound, h0_solve
from prismstrat.cosimplicial import CosimpCtx, face_map
from prismstrat.field import field_init
from prismstrat.matrix import KMat, charpoly
from prismstrat.sen import lambda1_series, sen_operator_matrix
from prismstrat.series import SimplexRingElem as SRE
from prismstrat.series import Trunc
from prismstrat.stratification import (
    Seeds,
    assemble_epsilon,
    cocycle_residual,
    generate_Amn,
)

from oracles import agrees_mod, c_poly, fg_dual_check, known_nonzero, lemma_identity_check, pd_binomial, truncate

F1 = field_init(3, [-3, 1])  # E = u - 3
F2 = field_init(3, [-3, 0, 1])  # E = u^2 - 3
FIELDS = [F1, F2]


def scalar_seeds(field, values):
    return Seeds.of([KMat.scalar(field, 1, field.from_rational(v)) for v in values])


def diag_seeds(field, pairs):
    return Seeds.of(
        [
            KMat.from_rows(
                field,
                [
                    [field.from_rational(a), field.zero],
                    [field.zero, field.from_rational(b)],
                ],
            )
            for a, b in pairs
        ]
    )


def _budget(name, started, limit_s):
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s / {limit_s}s budget)")
    assert elapsed < limit_s, f"{name} exceeded its runtime budget"


def _display_row_series(ctx, seeds, m, deg):
    """The m = 1, 2 generating functions in expanded form, assembled by hand."""
    field = ctx.field
    tr = Trunc(1, deg)
    one = SRE.one(field, 1, tr)
    beta = field.beta
    base = one + SRE.monomial(field, 1, tr, 0, (1,), KMat.scalar(field, 1, -beta))
    binv = base.invert()
    growth = exponential_sum_series(field, seeds.a01, tr)
    xp = {}
    fact = 1
    for n in range(1, 5):
        fact *= n
        xp[n] = SRE.monomial(field, 1, tr, 0, (n,), KMat.identity(field, 1) * fact)
    a01 = seeds.a01.rows[0][0]
    a11 = seeds.A1[1].rows[0][0]
    th11 = ctx.theta_at(1, 1)
    if m == 1:
        inner = xp[1] * a11 + binv * xp[2] * (th11 * a01 * Fraction(1, 2))
        return growth * inner
    a21 = seeds.A1[2].rows[0][0]
    th12 = ctx.theta_at(1, 2)
    a02 = a01 * (beta + a01)
    c2 = (
        beta * a21 * Fraction(1, 2)
        + a11 * a11 * Fraction(1, 2)
        + th12 * a01 * Fraction(1, 2)
    )
    c3 = (
        th11 * a11 * Fraction(1, 2)
        + th11 * th11 * Fraction(1, 6)
        + beta * th12 * Fraction(1, 3)
    ) * a01
    c4 = th11 * th11 * Fraction(1, 8) * a02
    inner = (
        base * xp[1] * a21
        + xp[2] * c2
        + binv * xp[3] * c3
        + binv * binv * xp[4] * c4
    )
    return growth * inner


def test_criterion_1_worked_example_rows():
    """m = 1, 2 generating functions match their expanded forms, X-degree 12."""
    started = time.monotonic()
    rng = random.Random(101)
    deg = 12
    for field in FIELDS:
        for _ in range(3):
            vals = [
                Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)
            ]
            seeds = scalar_seeds(field, vals)
            ctx = CosimpCtx(field, Trunc(4, deg))
            ht = h_table(seeds, ctx, 2)
            for m in (1, 2):
                got = closedform_series(ht, m, exponential_sum_series(field, seeds.a01, Trunc(1, deg)))
                expect = _display_row_series(ctx, seeds, m, deg)
                assert got == expect, (field.e, m, vals)
    _budget("1 (worked-example rows m=1,2)", started, 30)


def test_criterion_2_d_coefficient_identity():
    """d_{p,s,1} = -p theta_{1,s} for |p| <= 6, s <= 8, both fields."""
    started = time.monotonic()
    for field in FIELDS:
        ctx = CosimpCtx(field, Trunc(9, 2))
        for p in range(-6, 7):
            for s in range(9):
                assert c_poly(ctx, p, s).get(1, field.zero) == ctx.theta_at(1, s) * (-p), (field.e, p, s)
    _budget("2 (d_{p,s,1} = -p theta_{1,s})", started, 30)


def test_criterion_3_commutative_closed_form():
    """Recursion rows == closed form for m <= 4, degree 12, 10+ seed sets."""
    started = time.monotonic()
    rng = random.Random(303)
    checked = 0
    for field in FIELDS:
        ctx = CosimpCtx(field, Trunc(5, 12))
        for _ in range(3):  # scalar sets
            vals = [
                Fraction(rng.randint(-7, 7), rng.randint(1, 4)) for _ in range(5)
            ]
            report = verify_commutative(h_table(scalar_seeds(field, vals), ctx, 4), ctx, 12)
            assert report["ok"], (field.e, vals, report)
            checked += 1
        for _ in range(2):  # 2x2 diagonal sets
            pairs = [
                (
                    Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                    Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                )
                for _ in range(5)
            ]
            report = verify_commutative(h_table(diag_seeds(field, pairs), ctx, 4), ctx, 12)
            assert report["ok"], (field.e, pairs, report)
            checked += 1
    assert checked >= 10
    _budget(f"3 (closed form vs recursion, {checked} seed sets)", started, 300)


def test_criterion_4_conjecture_small_k():
    """Conjecture residuals: k <= 2 exactly zero; k = 3, 4 reported."""
    started = time.monotonic()
    rng = random.Random(404)
    findings = []
    for field in FIELDS:
        ctx = CosimpCtx(field, Trunc(5, 8))
        for _ in range(2):
            vals = [
                Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(5)
            ]
            rep = conjecture_residual(scalar_seeds(field, vals), ctx, 4)
            for k in range(3):
                assert rep["residuals"][str(k)]["zero"], (field.e, vals, k)
            findings.append(
                {
                    "e": field.e,
                    "seeds": [str(v) for v in vals],
                    "k3_zero": rep["residuals"]["3"]["zero"],
                    "k4_zero": rep["residuals"]["4"]["zero"],
                }
            )
    print(f"  conjecture residual findings for k=3,4: {findings}")
    _budget("4 (conjecture residuals k<=2 zero; k=3,4 reported)", started, 300)


def test_criterion_5_cocycle_residuals():
    """Cocycle residual vanishes: generic e=1 seeds (T=3, D=6) and zero
    seeds (T=4, D=8)."""
    started = time.monotonic()
    ctx = CosimpCtx(F1, Trunc(3, 6))
    seeds = scalar_seeds(F1, [-1, Fraction(9, 11), 0])
    R = cocycle_residual(assemble_epsilon(generate_Amn(seeds, ctx, 6), ctx), ctx)
    assert R.is_zero()
    ctx = CosimpCtx(F2, Trunc(4, 8))
    seeds = scalar_seeds(F2, [0, 0, 0, 0])
    R = cocycle_residual(assemble_epsilon(generate_Amn(seeds, ctx, 8), ctx), ctx)
    assert R.is_zero()
    _budget("5 (cocycle residuals)", started, 120)


def test_criterion_6_h0():
    """H^0: identity crystal, invertible spectrum, and dim <= q throughout."""
    started = time.monotonic()
    # (a) identity crystal: dim 1, B_0 free, B_m = 0 for m >= 1
    ctx = CosimpCtx(F2, Trunc(4, 5))
    sol = h0_solve(scalar_seeds(F2, [0, 0, 0, 0]), ctx)
    assert sol.dim == 1
    assert not sol.basis[0][0].is_zero()
    assert all(sol.basis[0][m].is_zero() for m in range(1, 4))
    # (b) no eigenvalue in beta Z_{>=0}: dim 0
    ctx = CosimpCtx(F1, Trunc(4, 5))
    sol = h0_solve(scalar_seeds(F1, [-1, 1, Fraction(1, 2), 0]), ctx)
    assert sol.dim == 0 and sol.q == 0
    # (c) dim <= q on 10 random instances
    rng = random.Random(606)
    for trial in range(10):
        field = FIELDS[trial % 2]
        ctx = CosimpCtx(field, Trunc(3, 4))
        if trial < 5:
            seeds = scalar_seeds(
                field,
                [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)],
            )
        else:
            seeds = diag_seeds(
                field,
                [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3)],
            )
        sol = h0_solve(seeds, ctx)
        q = h0_dim_bound(seeds.a01, ctx.trunc.t_order - 1 + seeds.l)
        assert sol.dim <= q, (trial, sol.dim, q)
    _budget("6 (H^0 solver)", started, 60)


def test_criterion_7_fg_dual_paths():
    """f/g closed form vs induction for m <= 12, plus sampled lemma checks."""
    started = time.monotonic()
    for field in FIELDS:
        report = fg_dual_check(field, 12)
        assert report["ok"], report["mismatches"]
        a01 = KMat.scalar(field, 1, field.from_rational(Fraction(3, 2)))
        for m in (1, 3, 5):
            rep = lemma_identity_check(field, "change_m", a01, {"m": m})
            assert rep["ok"], rep
        for m, f, i in [(3, 1, 0), (4, 2, 2), (5, 1, 3)]:
            rep = lemma_identity_check(field, "change_mfi", a01, {"m": m, "f": f, "i": i})
            assert rep["ok"], rep
        mat = KMat.from_rows(
            field,
            [[field.from_rational(2), field.one], [field.zero, field.from_rational(-1)]],
        )
        rep = lemma_identity_check(field, "exp_sum", mat, {"k": 1, "pd_degree": 8})
        assert rep["ok"], rep
    _budget("7 (f/g dual paths m<=12 + lemma sampling)", started, 60)


def test_criterion_8_sen_layer():
    """lambda1 nonzero at prec 10 with doubling agreement; fiber charpoly
    matches -A_{0,1}/beta through the normalization chain; Leibniz identity."""
    started = time.monotonic()
    for field in FIELDS:
        ctx = CosimpCtx(field, Trunc(4, 2))
        lam10 = lambda1_series(ctx, 10)
        lam20 = lambda1_series(ctx, 20)
        assert known_nonzero(lam10.coeffs[0])
        for a, b in zip(lam10.coeffs, lam20.coeffs):
            assert agrees_mod(a, b, 10)
        seeds = scalar_seeds(field, [Fraction(-3, 2), 1, Fraction(2, 5), 0])
        rep = sen_operator_matrix(seeds, ctx, 10)
        assert rep.leibniz_ok
        assert rep.fiber_normalization_ok
        # explicit chain: charpoly(N(0)) == charpoly(-A01/beta) scaled by
        # (theta(lambda1) pi beta)^(l-k)
        n0 = rep.n_matrix[0][0]
        scale = rep.lambda1.exact_values()[0] * field.pi * field.beta
        cp_n0 = charpoly(n0)
        cp_w = rep.weights_charpoly
        for k in range(len(cp_w)):
            assert cp_n0[k] == cp_w[k] * scale ** (seeds.l - k)
    _budget("8 (Sen layer)", started, 120)


def test_criterion_9_ring_property_suite():
    """1000 randomized ring-law cases across four property families."""
    started = time.monotonic()
    rng = random.Random(909)
    cases = 0

    # (i) pd product rule on random monomials, 1 and 2 variables: 400 cases
    tr1 = Trunc(2, 9)
    for _ in range(200):
        i, j = rng.randint(0, 4), rng.randint(0, 5)
        a = SRE.monomial(F2, 1, tr1, 0, (i,), KMat.identity(F2, 1))
        b = SRE.monomial(F2, 1, tr1, 0, (j,), KMat.identity(F2, 1))
        expect = SRE.monomial(
            F2, 1, tr1, 0, (i + j,), KMat.identity(F2, 1) * comb(i + j, i)
        )
        assert a * b == expect
        cases += 1
    for _ in range(200):
        i1, i2 = rng.randint(0, 3), rng.randint(0, 3)
        j1, j2 = rng.randint(0, 3), rng.randint(0, 3)
        a = SRE.monomial(F1, 2, Trunc(1, 12), 0, (i1, i2), KMat.identity(F1, 1))
        b = SRE.monomial(F1, 2, Trunc(1, 12), 0, (j1, j2), KMat.identity(F1, 1))
        expect = SRE.monomial(
            F1,
            2,
            Trunc(1, 12),
            0,
            (i1 + j1, i2 + j2),
            KMat.identity(F1, 1) * (comb(i1 + j1, i1) * comb(i2 + j2, i2)),
        )
        assert a * b == expect
        cases += 1

    # (ii) exp/log round trips: 200 cases
    tr = Trunc(2, 4)
    for _ in range(200):
        field = FIELDS[rng.randint(0, 1)]
        one = SRE.one(field, 1, tr)
        a = one
        for _ in range(3):
            m = rng.randint(0, 1)
            n = rng.randint(0, 4)
            if m == 0 and n == 0:
                continue
            coeff = KMat.scalar(
                field,
                1,
                field.from_rational(Fraction(rng.randint(-5, 5), rng.randint(1, 3))),
            )
            a = a + SRE.monomial(field, 1, tr, m, (n,), coeff)
        assert a.log().exp() == a
        cases += 1

    # (iii) truncation coherence: 200 cases
    big = Trunc(3, 5)
    small = Trunc(2, 3)
    for _ in range(200):
        field = FIELDS[rng.randint(0, 1)]
        a = _random_series(rng, field, big)
        b = _random_series(rng, field, big)
        assert truncate(a * b, small) == truncate(a, small) * truncate(b, small)
        cases += 1

    # (iv) face-map monomial action vs ordinary-power oracle: 200 cases
    ctxs = {field.e: CosimpCtx(field, Trunc(3, 6)) for field in FIELDS}
    for _ in range(200):
        field = FIELDS[rng.randint(0, 1)]
        ctx = ctxs[field.e]
        p = rng.randint(0, 2)
        q = rng.randint(0, 5)
        mono = SRE.monomial(field, 1, ctx.trunc, p, (q,), KMat.identity(field, 1))
        got = face_map(ctx, 0, mono)
        # oracle: (X_2 - X_1)^q / q! alpha^(p-q) t^p via ordinary ring power
        x1 = SRE.monomial(field, 2, ctx.trunc, 0, (1, 0), KMat.identity(field, 1))
        x2 = SRE.monomial(field, 2, ctx.trunc, 0, (0, 1), KMat.identity(field, 1))
        diff_pow = (x2 - x1) ** q
        fact = 1
        for k in range(2, q + 1):
            fact *= k
        tshift = SRE.monomial(field, 2, ctx.trunc, p, (0, 0), KMat.identity(field, 1))
        oracle = diff_pow * Fraction(1, fact) * ctx.alpha_pow_2v(p - q) * tshift
        assert got == oracle
        # and the pd-binomial helper agrees with the ordinary-power route
        assert pd_binomial(field, ctx.trunc, q) == diff_pow * Fraction(1, fact)
        cases += 1

    assert cases >= 1000
    _budget(f"9 (ring-law property suite, {cases} cases)", started, 120)


def _random_series(rng, field, trunc):
    out = SRE.zero(field, 1, trunc)
    for _ in range(4):
        m = rng.randint(0, trunc.t_order - 1)
        n = rng.randint(0, trunc.pd_degree)
        coeff = KMat.scalar(
            field,
            1,
            field.from_rational(Fraction(rng.randint(-6, 6), rng.randint(1, 4))),
        )
        out = out + SRE.monomial(field, 1, trunc, m, (n,), coeff)
    return out

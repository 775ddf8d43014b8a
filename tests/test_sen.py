"""Kummer-Sen layer: lambda1 product, operator matrix, classification."""

from fractions import Fraction

import json
from pathlib import Path

import pytest

from prismstrat import cli, sen
from prismstrat.cosimplicial import CosimpCtx
from prismstrat.errors import NumberTooLarge, ProductNotSettled
from prismstrat.field import field_init
from prismstrat.matrix import KMat
from prismstrat.sen import lambda1_series, nearly_dR_report, sen_operator_matrix
from prismstrat.series import Trunc
from prismstrat.stratification import Seeds, check_near_HT

from oracles import agrees_mod, known_nonzero

F1 = field_init(3, [-3, 1])
F2 = field_init(3, [-3, 0, 1])


def scalar_seeds(field, values):
    return Seeds.of([KMat.scalar(field, 1, field.from_rational(v)) for v in values])


@pytest.mark.parametrize("field", [F1, F2], ids=["e1", "e2"])
def test_lambda1_constant_term_nonzero(field):
    ctx = CosimpCtx(field, Trunc(4, 2))
    lam = lambda1_series(ctx, 10)
    c0 = lam.coeffs[0]
    assert known_nonzero(c0)
    # lambda1(0) = (1/E(0)) prod E(pi^(p^n))/E(0): starts at 1/E(0)
    assert not c0.value.is_zero()


@pytest.mark.parametrize("field", [F1, F2], ids=["e1", "e2"])
def test_lambda1_precision_doubling(field):
    ctx = CosimpCtx(field, Trunc(4, 2))
    lam10 = lambda1_series(ctx, 10)
    lam20 = lambda1_series(ctx, 20)
    for a, b in zip(lam10.coeffs, lam20.coeffs):
        assert agrees_mod(a, b, 10)


def test_lambda1_not_settled():
    # p = 1009 just below padic_prec 1024: factor 1 leaves a gap of p - 1,
    # short of the target, and factor 2 would build u0^(1009^2)
    ctx = CosimpCtx(field_init(1009, [-1009, 1]), Trunc(2, 1))
    with pytest.raises(ProductNotSettled, match=r"factor 2 would build u0\^1018081"):
        lambda1_series(ctx, 1024)


def test_lambda1_stops_on_a_number_a_report_cannot_print():
    # E = 3 + 3x + ... + 3x^7 + x^8: the partial product outgrows the digit
    # limit of a report long before its factors settle to p^-1024
    ctx = CosimpCtx(field_init(3, [3] * 8 + [1]), Trunc(2, 1))
    with pytest.raises(NumberTooLarge, match="limit of a report"):
        lambda1_series(ctx, 1024)


def test_lambda1_builds_powers_up_to_its_limit():
    # p = 101 at padic_prec 1024 settles with its second factor, u0^10201
    ctx = CosimpCtx(field_init(101, [-101, 1]), Trunc(2, 1))
    assert 101**2 <= sen.MAX_PHI_POWER < 1009**2
    assert lambda1_series(ctx, 1024).n_factors == 2


def test_sen_matrix_single_term():
    # zero seeds beyond A_{0,1}: N = -lambda1 u0 A_{0,1}
    ctx = CosimpCtx(F2, Trunc(3, 2))
    a01 = Fraction(1, 2)
    seeds = scalar_seeds(F2, [a01, 0, 0])
    rep = sen_operator_matrix(seeds, ctx, 10)
    lam = rep.lambda1.exact_values()
    u0 = [ctx.u0.coeff(m, ()).rows[0][0] for m in range(3)]
    for m in range(3):
        expect = F2.zero
        for j in range(m + 1):
            expect = expect + lam[j] * u0[m - j]
        expect = expect * F2.from_rational(-a01)
        assert rep.n_matrix[m][0].rows[0][0] == expect
    # mod t: N(0) = -theta(lambda1) pi A_{0,1}
    assert rep.n_matrix[0][0].rows[0][0] == lam[0] * F2.pi * F2.from_rational(-a01)


@pytest.mark.parametrize("field", [F1, F2], ids=["e1", "e2"])
def test_sen_consistency_hooks(field):
    ctx = CosimpCtx(field, Trunc(4, 2))
    seeds = scalar_seeds(field, [Fraction(-1), Fraction(2, 3), 1, 0])
    rep = sen_operator_matrix(seeds, ctx, 10)
    assert rep.leibniz_ok
    assert rep.fiber_normalization_ok
    assert rep.near_HT["verdict"] in ("PASS", "FAIL")


def test_sen_weights_rational_scan():
    beta = F2.beta
    a01 = KMat.from_rows(F2, [[F2.zero, F2.zero], [F2.zero, beta]])
    ctx = CosimpCtx(F2, Trunc(3, 2))
    seeds = Seeds.of([a01, KMat.zero(F2, 2), KMat.zero(F2, 2)])
    rep = sen_operator_matrix(seeds, ctx, 8)
    assert rep.weights_rational is not None
    assert sorted(rep.weights_rational) == [Fraction(-1), Fraction(0)]


def test_nearly_dR_classification():
    ctx = CosimpCtx(F2, Trunc(3, 2))
    beta = F2.beta
    # integer weights: -2 beta * I
    seeds = Seeds.of(
        [KMat.scalar(F2, 1, beta * -2), KMat.zero(F2, 1), KMat.zero(F2, 1)]
    )
    rep = sen_operator_matrix(seeds, ctx, 10).nearly_dR
    assert rep["verdict"].startswith("nearly de Rham")
    # weight 1/p: fails
    seeds = Seeds.of(
        [
            KMat.scalar(F2, 1, beta * Fraction(1, 3)),
            KMat.zero(F2, 1),
            KMat.zero(F2, 1),
        ]
    )
    rep = sen_operator_matrix(seeds, ctx, 10).nearly_dR
    assert rep["verdict"] == "fails probe"
    # diagonal mix: per-eigenvalue entries present
    a01 = KMat.from_rows(F2, [[beta * 2, F2.zero], [F2.zero, beta * Fraction(1, 3)]])
    seeds = Seeds.of([a01, KMat.zero(F2, 2), KMat.zero(F2, 2)])
    rep = sen_operator_matrix(seeds, ctx, 10).nearly_dR
    assert len(rep["per_eigenvalue"]) == 2
    flags = sorted(w["in_set"] for w in rep["per_eigenvalue"])
    assert flags == [False, True]


@pytest.mark.parametrize(
    "a01, probe, verdict",
    [
        # sqrt 7 lies in Z_3: the products of (i + A_{0,1}) decay
        ([[0, 7], [1, 0]], {"threshold": 10}, "nearly de Rham (probe)"),
        # sqrt 2 does not: every factor is a unit, the valuations stay 0
        ([[0, 2], [1, 0]], {}, "inconclusive"),
        # sqrt 2 / 3: every factor has valuation -1
        ([[0, Fraction(2, 3)], [Fraction(1, 3), 0]], {"n_probe": 10}, "fails probe"),
    ],
    ids=["decays", "flat", "grows"],
)
def test_nearly_dR_without_rational_weights_reads_the_probe(a01, probe, verdict):
    # the charpoly of -A_{0,1}/beta = -A_{0,1} does not split over Q.  sen
    # runs the probe at its defaults; the classification of other probes is
    # nearly_dR_report's
    mat = KMat.from_rows(F1, [[F1.from_rational(a) for a in row] for row in a01])
    seeds = Seeds.of([mat, KMat.zero(F1, 2)])
    rep = sen_operator_matrix(seeds, CosimpCtx(F1, Trunc(2, 1)), 8)
    assert rep.weights_rational is None
    assert rep.near_HT == check_near_HT(mat)
    assert rep.nearly_dR == nearly_dR_report(list(rep.weights_charpoly), None, rep.near_HT)
    assert nearly_dR_report(list(rep.weights_charpoly), None, check_near_HT(mat, **probe))["verdict"] == verdict


def test_sen_report_json_round():
    ctx = CosimpCtx(F1, Trunc(3, 2))
    seeds = scalar_seeds(F1, [-1, 1, 0])
    rep = sen_operator_matrix(seeds, ctx, 8).to_json()
    assert rep["l"] == 1
    assert rep["leibniz_ok"] is True
    assert len(rep["n_matrix"]) == 3


def test_sen_command_classifies_once(monkeypatch):
    # the sen report needs the weight charpoly, its rational roots and the
    # near-HT probe once each; the second charpoly is that of N mod t
    calls = {"charpoly": 0, "rational_roots": 0, "check_near_HT": 0}
    for name in calls:
        original = getattr(sen, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(sen, name, counted)
    path = Path(__file__).resolve().parents[1] / "specs" / "sen_ramified.json"
    spec = cli.load_problem(json.loads(path.read_text()))
    report = cli._dispatch("sen", spec, CosimpCtx(spec.field, spec.trunc))
    assert calls == {"charpoly": 2, "rational_roots": 1, "check_near_HT": 1}
    assert report["report"]["nearly_dR"]["probe"] == report["report"]["near_HT"]

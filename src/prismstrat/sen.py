"""The Kummer-Sen operator attached to a crystal.

lambda = prod_{n>=0} E(u^(p^n))/E(0) evaluated at u = u0(t), and
lambda1 = lambda/E(u0) = (1/E(0)) prod_{n>=1} E(u0^(p^n))/E(0).  The
product converges only p-adically, so everything lambda-related lives in
the approximation layer: we multiply exact partial products and stop once
the next factor is 1 modulo p^target coefficient-wise, where target is
inflated so the *absolute* error meets the requested precision.

The operator matrix on the chosen basis is

    N = -lambda1 * u0 * sum_m A_{m,1} t^m,

whose mod-t fiber, normalized by theta(lambda1) * pi * beta, recovers the
Sen operator -A_{0,1}/beta.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor

from .cosimplicial import CosimpCtx, eval_poly_at_series
from .errors import ProductNotSettled, SeedShapeMismatch
from .field import INF, KElem, PadicApprox
from .matrix import KMat, charpoly, rational_roots, sum_products
from .series import SimplexRingElem as SRE
from .stratification import Seeds, check_near_HT


@dataclass(frozen=True, slots=True)
class Lambda1:
    """Partial product for lambda1 with precision metadata.

    coeffs[m] approximates the t^m coefficient; every stated precision is
    an absolute p-adic bound on the truncation error of the product tail.
    """

    coeffs: tuple[PadicApprox, ...]
    n_factors: int
    target_prec: int

    def constant_term(self) -> PadicApprox:
        return self.coeffs[0]

    def exact_values(self) -> list[KElem]:
        return [c.value for c in self.coeffs]

    def to_json(self) -> dict:
        return {
            "n_factors": self.n_factors,
            "target_prec": self.target_prec,
            "coeffs": [c.to_json() for c in self.coeffs],
        }


def _series_coeffs(s: SRE) -> list[KElem]:
    return [s.coeff(m, ()).rows[0][0] for m in range(s.trunc.t_order)]


def lambda1_series(ctx: CosimpCtx, prec: int, n_phi_max: int = 24) -> Lambda1:
    """Truncate the phi-twisted product once the tail is below p^-prec.

    Checks that the factor valuations grow monotonically (the convergence
    oracle); raises ProductNotSettled when n_phi_max factors do not reach
    the target.
    """
    field = ctx.field
    t_order = ctx.trunc.t_order
    e0 = field.E_coeffs[0]
    partial = SRE.from_scalar(field, 0, ctx.trunc, field.from_rational(1 / e0))
    u_power = ctx.u0
    prev_gap = None
    n_used = None
    for n in range(1, n_phi_max + 1):
        u_power = u_power**field.p
        factor = eval_poly_at_series(field, field.E_coeffs, u_power) * (1 / e0)
        # valuation of factor - 1, coefficient-wise
        gap = INF
        for m in range(t_order):
            c = factor.coeff(m, ()).rows[0][0]
            if m == 0:
                c = c - field.one
            v = c.vp()
            if v is not INF:
                gap = min(gap, v)
        if prev_gap is not None and gap is not INF and gap <= prev_gap:
            raise ProductNotSettled(
                f"factor valuations stopped growing at n={n} ({prev_gap} -> {gap})"
            )
        prev_gap = gap
        # absolute-error target: tail times partial must stay below p^-prec
        min_partial_vp = min(
            (c.vp() for c in _series_coeffs(partial) if not c.is_zero()),
            default=Fraction(0),
        )
        needed = prec - min(0, floor(min_partial_vp))
        if gap is INF or gap >= needed:
            n_used = n
            break
        partial = partial * factor
    if n_used is None:
        raise ProductNotSettled(
            f"product did not settle to p^-{prec} within {n_phi_max} factors"
        )
    values = _series_coeffs(partial)
    coeffs = []
    for m in range(t_order):
        prefix = [values[j] for j in range(m + 1) if not values[j].is_zero()]
        base = min((c.vp() for c in prefix), default=Fraction(0))
        coeffs.append(PadicApprox.approx(values[m], prec + min(0, base)))
    return Lambda1(tuple(coeffs), n_used, prec)


@dataclass(frozen=True, slots=True)
class SenReport:
    """Operator matrix, fiber normalization, and classification data."""

    l: int
    t_order: int
    lambda1: Lambda1
    n_matrix: tuple  # tuple of (KMat, prec per t-order)
    weights_charpoly: tuple  # charpoly of -A_{0,1}/beta over K, low-to-high
    weights_rational: tuple | None
    leibniz_ok: bool
    fiber_normalization_ok: bool
    near_HT: dict

    def to_json(self) -> dict:
        return {
            "l": self.l,
            "t_order": self.t_order,
            "lambda1": self.lambda1.to_json(),
            "n_matrix": [
                {"m": m, "matrix": mat.to_json(), "prec": _prec_str(pr)}
                for m, (mat, pr) in enumerate(self.n_matrix)
            ],
            "weights_charpoly": [c.to_json() for c in self.weights_charpoly],
            "weights_rational": (
                None
                if self.weights_rational is None
                else [str(w) for w in self.weights_rational]
            ),
            "leibniz_ok": self.leibniz_ok,
            "fiber_normalization_ok": self.fiber_normalization_ok,
            "near_HT": self.near_HT,
        }


def _prec_str(p):
    return "inf" if p is INF else str(p)


def sen_operator_matrix(seeds: Seeds, ctx: CosimpCtx, prec: int, n_phi_max: int = 24) -> SenReport:
    """N = -lambda1 u0 sum_m A_{m,1} t^m, with the consistency checks.

    Leibniz hook: E'(u0) lambda = E'(u0) lambda1 t as series (lambda
    assembled with its n = 0 factor E(u0)/E(0) evaluated honestly).
    Fiber hook: N mod t equals -theta(lambda1) pi A_{0,1}, and its
    characteristic polynomial matches that of -A_{0,1}/beta after the
    theta(lambda1) pi beta rescaling.
    """
    field = ctx.field
    l = seeds.l
    t_order = ctx.trunc.t_order
    if len(seeds.A1) < t_order:
        raise SeedShapeMismatch(f"need seeds A_(m,1) for all m < {t_order}")
    lam1 = lambda1_series(ctx, prec, n_phi_max)
    lam1_exact = lam1.exact_values()

    # exact t-series products (the only approximation is the lambda tail);
    # cofactor = u0 * sum_m A_{m,1} t^m, matrix-valued per t-order
    u0_coeffs = _series_coeffs(ctx.u0)
    cofactor = [
        sum_products([(seeds.A1[m - j], KMat.scalar(field, l, u0_coeffs[j])) for j in range(m + 1)])
        for m in range(t_order)
    ]
    n_rows = []
    for m in range(t_order):
        lam = [(cofactor[m - j], KMat.scalar(field, l, -lam1_exact[j])) for j in range(m + 1)]
        mat = sum_products(lam)
        # the lambda tail error is scaled by the exact cofactor entries
        lam_prec = min(lam1.coeffs[j].prec for j in range(m + 1))
        co_v = min(cofactor[j].min_valuation() for j in range(m + 1))
        co_vp = Fraction(0) if co_v is INF else Fraction(co_v, field.e)
        n_rows.append((mat, lam_prec + min(0, co_vp)))

    # Leibniz/definition identity: lambda = lambda1 * E(u0) exactly
    e0 = field.E_coeffs[0]
    n0_factor = eval_poly_at_series(field, field.E_coeffs, ctx.u0) * (1 / e0)
    lam_full = _convolve_scalar(
        field, _series_coeffs(n0_factor), [c * e0 for c in lam1_exact], t_order
    )
    lam1_t = [field.zero] + lam1_exact[: t_order - 1]
    dE_u0 = _series_coeffs(eval_poly_at_series(field, field.E_derivative(1), ctx.u0))
    lhs = _convolve_scalar(field, dE_u0, lam_full, t_order)
    rhs = _convolve_scalar(field, dE_u0, lam1_t, t_order)
    leibniz_ok = all((a - b).is_zero() for a, b in zip(lhs, rhs))

    # fiber normalization: charpoly(N(0)) vs charpoly(-A_{0,1}/beta)
    beta = field.beta
    sen_op = seeds.a01 * beta.inverse() * -1
    cp_weights = charpoly(sen_op)
    theta_lam1 = lam1_exact[0]
    scale = theta_lam1 * field.pi * beta
    cp_fiber = charpoly(n_rows[0][0])
    fiber_ok = True
    for k in range(l + 1):
        lhs_c = cp_fiber[k]
        rhs_c = cp_weights[k] * scale ** (l - k)
        if lhs_c != rhs_c:
            fiber_ok = False
    weights_rational = rational_roots(list(cp_weights))

    return SenReport(
        l=l,
        t_order=t_order,
        lambda1=lam1,
        n_matrix=tuple(n_rows),
        weights_charpoly=tuple(cp_weights),
        weights_rational=None if weights_rational is None else tuple(weights_rational),
        leibniz_ok=leibniz_ok,
        fiber_normalization_ok=fiber_ok,
        near_HT=check_near_HT(seeds.a01, "probe"),
    )


def _convolve_scalar(field, a: list[KElem], b: list[KElem], t_order: int) -> list[KElem]:
    out = [field.zero] * t_order
    for i, ai in enumerate(a[:t_order]):
        if ai.is_zero():
            continue
        for j, bj in enumerate(b[: t_order - i]):
            if bj.is_zero():
                continue
            out[i + j] = out[i + j] + ai * bj
    return out


def nearly_dR_report(seeds: Seeds, ctx: CosimpCtx, n_probe: int = 64, threshold: int = 40) -> dict:
    """Classify the crystal by its Sen weights.

    When the characteristic polynomial of -A_{0,1}/beta splits over Q,
    the membership in Z + beta^{-1} m is decided exactly per eigenvalue;
    otherwise the valuation-decay probe stands in, with an inconclusive
    verdict when the probe neither certifies decay nor clearly diverges.
    """
    field = ctx.field
    beta = field.beta
    sen_op = seeds.a01 * beta.inverse() * -1
    cp = charpoly(sen_op)
    roots = rational_roots(list(cp))
    probe = check_near_HT(seeds.a01, "probe", n_probe=n_probe, threshold=threshold)
    report = {
        "weights_charpoly": [c.to_json() for c in cp],
        "probe": probe,
    }
    if roots is not None:
        weights = [field.from_rational(r) for r in roots]
        exact = check_near_HT(seeds.a01, "exact_weights", weights=weights)
        report["per_eigenvalue"] = exact["weights"]
        report["verdict"] = (
            "nearly de Rham (exact)" if exact["verdict"] == "PASS" else "fails probe"
        )
        return report
    if probe["verdict"] == "PASS":
        report["verdict"] = "nearly de Rham (probe)"
        return report
    vals = [v for v in probe["min_valuations"] if v != "inf"]
    tail = [Fraction(v) for v in vals[-8:]]
    nondecreasing = all(a <= b for a, b in zip(tail, tail[1:]))
    report["verdict"] = "inconclusive" if nondecreasing else "fails probe"
    return report

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

from fractions import Fraction
from math import floor
from typing import NamedTuple

from .cosimplicial import CosimpCtx, eval_poly_at_series
from .errors import ProductNotSettled, SeedShapeMismatch
from .field import INF, KElem, PadicApprox, rat_str
from .matrix import KMat, charpoly, rational_roots
from .series import SimplexRingElem as SRE
from .stratification import Seeds, check_near_HT, check_weights_near_HT


class Lambda1(NamedTuple):
    """Partial product for lambda1 with precision metadata.

    coeffs[m] approximates the t^m coefficient; every stated precision is
    an absolute p-adic bound on the truncation error of the product tail.
    """

    coeffs: tuple[PadicApprox, ...]
    n_factors: int
    target_prec: int

    def exact_values(self) -> list[KElem]:
        return [c.value for c in self.coeffs]

    def to_json(self) -> dict:
        return {
            "n_factors": self.n_factors,
            "target_prec": self.target_prec,
            "coeffs": [c.to_json() for c in self.coeffs],
        }


def _vp(field, mats):
    """Least p-adic valuation of the entries of mats; INF when all are zero."""
    v = min((mat.min_valuation() for mat in mats), default=INF)
    return v if v is INF else Fraction(v, field.e)


def lambda1_series(ctx: CosimpCtx, prec: int, n_phi_max: int = 24) -> Lambda1:
    """Truncate the phi-twisted product once the tail is below p^-prec.

    Checks that the factor valuations grow monotonically (the convergence
    oracle); raises ProductNotSettled when n_phi_max factors do not reach
    the target.  The check starts once p^n > T - 1: as u0 = pi + t/beta +
    O(t^2), u0^(p^n) has a t^(p^n) term, which lies inside the truncation
    while p^n <= T - 1 and pins the gap of factor n, so the gaps of those
    factors need not grow.  Past them, every t-term of u0^(p^n) mod t^T
    carries a binomial C(p^n, k) with 0 < k < p^n, which p divides.
    """
    field = ctx.field
    e0 = field.E_coeffs[0]
    one = SRE.one(field, 0, ctx.trunc)
    partial = one * (1 / e0)
    u_power = ctx.u0
    prev_gap = None
    n_used = None
    for n in range(1, n_phi_max + 1):
        u_power = u_power**field.p
        factor = eval_poly_at_series(field, field.E_coeffs, u_power) * (1 / e0)
        gap = _vp(field, (factor - one).coeffs.values())
        if prev_gap is not None and field.p**n >= ctx.trunc.t_order and gap is not INF and gap <= prev_gap:
            raise ProductNotSettled(
                f"factor valuations stopped growing at n={n} ({prev_gap} -> {gap})"
            )
        prev_gap = gap
        # absolute-error target: tail times partial must stay below p^-prec
        needed = prec - floor(min(0, _vp(field, partial.coeffs.values())))
        if gap is INF or gap >= needed:
            n_used = n
            break
        partial = partial * factor
    if n_used is None:
        raise ProductNotSettled(
            f"product did not settle to p^-{prec} within {n_phi_max} factors"
        )
    coeffs, base = [], INF
    for m in range(ctx.trunc.t_order):
        mat = partial.coeff(m, ())
        base = min(base, _vp(field, [mat]))
        coeffs.append(PadicApprox.approx(mat.rows[0][0], prec + min(0, base)))
    return Lambda1(tuple(coeffs), n_used, prec)


class SenReport(NamedTuple):
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
    nearly_dR: dict

    def to_json(self) -> dict:
        return {
            "l": self.l,
            "t_order": self.t_order,
            "lambda1": self.lambda1.to_json(),
            "n_matrix": [
                {"m": m, "matrix": mat.to_json(), "prec": rat_str(pr)}
                for m, (mat, pr) in enumerate(self.n_matrix)
            ],
            "weights_charpoly": [c.to_json() for c in self.weights_charpoly],
            "weights_rational": (
                None
                if self.weights_rational is None
                else [rat_str(w) for w in self.weights_rational]
            ),
            "leibniz_ok": self.leibniz_ok,
            "fiber_normalization_ok": self.fiber_normalization_ok,
            "near_HT": self.near_HT,
            "nearly_dR": self.nearly_dR,
        }


def sen_operator_matrix(seeds: Seeds, ctx: CosimpCtx, prec: int) -> SenReport:
    """N = -lambda1 u0 sum_m A_{m,1} t^m, with the consistency checks and
    the near-HT probe of A_{0,1} at its defaults, as gen prints it.

    Leibniz hook: E'(u0) lambda = E'(u0) lambda1 t as series (lambda
    assembled with its n = 0 factor E(u0)/E(0) evaluated honestly).
    Fiber hook: N mod t equals -theta(lambda1) pi A_{0,1}, and its
    characteristic polynomial matches that of -A_{0,1}/beta after the
    theta(lambda1) pi beta rescaling.
    """
    field, trunc = ctx.field, ctx.trunc
    l = seeds.l
    t_order = trunc.t_order
    if len(seeds.A1) < t_order:
        raise SeedShapeMismatch(f"need seeds A_(m,1) for all m < {t_order}")
    lam1 = lambda1_series(ctx, prec)
    lam = SRE(field, 0, trunc, 1, {(m, ()): KMat.scalar(field, 1, c) for m, c in enumerate(lam1.exact_values())})

    # exact t-series products (the only approximation is the lambda tail)
    seeds_series = SRE(field, 0, trunc, l, {(m, ()): seeds.A1[m] for m in range(t_order)})
    cofactor = ctx.u0.map_size(l) * seeds_series
    n_series = (-lam).map_size(l) * cofactor
    n_rows = []
    lam_prec = co_vp = INF
    for m in range(t_order):
        # the lambda tail error is scaled by the exact cofactor entries
        lam_prec = min(lam_prec, lam1.coeffs[m].prec)
        co_vp = min(co_vp, _vp(field, [cofactor.coeff(m, ())]))
        n_rows.append((n_series.coeff(m, ()), lam_prec + min(0, co_vp)))

    # Leibniz/definition identity: lambda = lambda1 * E(u0) exactly
    e0 = field.E_coeffs[0]
    n0_factor = eval_poly_at_series(field, field.E_coeffs, ctx.u0) * (1 / e0)
    t = SRE.monomial(field, 0, trunc, 1, (), KMat.identity(field, 1))
    dE_u0 = eval_poly_at_series(field, field.E_derivative(1), ctx.u0)
    leibniz_ok = dE_u0 * n0_factor * lam * e0 == dE_u0 * t * lam

    # fiber normalization: charpoly(N(0)) vs charpoly(-A_{0,1}/beta)
    beta = field.beta
    cp_weights = charpoly(seeds.a01 * -field.beta_inv)
    scale = lam1.coeffs[0].value * field.pi * beta
    cp_fiber = charpoly(n_rows[0][0])
    fiber_ok = all(cp_fiber[k] == cp_weights[k] * scale ** (l - k) for k in range(l + 1))
    weights_rational = rational_roots(cp_weights)
    probe = check_near_HT(seeds.a01)

    return SenReport(
        l=l,
        t_order=t_order,
        lambda1=lam1,
        n_matrix=tuple(n_rows),
        weights_charpoly=tuple(cp_weights),
        weights_rational=None if weights_rational is None else tuple(weights_rational),
        leibniz_ok=leibniz_ok,
        fiber_normalization_ok=fiber_ok,
        near_HT=probe,
        nearly_dR=nearly_dR_report(cp_weights, weights_rational, probe),
    )


def nearly_dR_report(weights_charpoly: list[KElem], weights_rational, probe: dict) -> dict:
    """Classify the crystal by its Sen weights, given the charpoly of
    -A_{0,1}/beta, its rational roots (None unless it splits over Q) and
    the check_near_HT probe of A_{0,1}.

    When the characteristic polynomial splits over Q, the membership in
    Z + beta^{-1} m is decided exactly per eigenvalue; otherwise the
    valuation-decay probe stands in, with an inconclusive verdict when the
    probe neither certifies decay nor clearly diverges.
    """
    report = {
        "weights_charpoly": [c.to_json() for c in weights_charpoly],
        "probe": probe,
    }
    if weights_rational is not None:
        field = weights_charpoly[0].field
        exact = check_weights_near_HT([field.from_rational(r) for r in weights_rational])
        report["per_eigenvalue"] = exact["weights"]
        report["verdict"] = (
            "nearly de Rham (exact)" if exact["verdict"] == "PASS" else "fails probe"
        )
        return report
    if probe["verdict"] == "PASS":
        report["verdict"] = "nearly de Rham (probe)"
        return report
    # a probe that reached a zero product passed above: the tail is finite
    tail = [int(v) for v in probe["min_valuations"][-8:]]
    nondecreasing = all(a <= b for a, b in zip(tail, tail[1:]))
    report["verdict"] = "inconclusive" if nondecreasing else "fails probe"
    return report

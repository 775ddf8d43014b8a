"""H^0 of a de Rham crystal: the kernel of the first-order matrix P.

A global section v = sum B_p t^p is fixed iff F = U * delta_0(v) = v, with
U = sum A_{m,n} X^[n] t^m and delta_0(v) = v(alpha t).  Write F_n for the
column of t-orders of the X^[n] coefficient of F.  Then H^0 = ker P for
every pd degree D >= 1, P and Q from stratification.first_order_grids.
Proof: let theta_1 = E'(u0) = sum_j theta_{1,j} t^j, A_1 = sum_m A_{m,1}
t^m and the derivation nabla = (1 - theta_1 X) d/dX + theta_1 t d/dt.  On
coefficients, nabla G = A_1 G reads G_{n+1} = (P + n Q) G_n, so the
generate_Amn induction says nabla U = A_1 U.  As alpha t = E(u0 - X t) and
theta_1 du0/dt = 1, nabla(alpha t) = E'(u0 - X t) t (theta_1 du0/dt - 1)
= 0; so nabla delta_0(v) = 0 and nabla F = A_1 F: F_{n+1} = (P + n Q) F_n,
with F_0 = v (U and alpha are 1 at X = 0) and F_1 = P B.  Hence F_n = 0
for 1 <= n <= D iff P B = 0.  P and Q are block lower-triangular, so this
holds below every t-order.  Neither commuting seeds nor the cocycle
condition is used.  Row m of P B = 0 reads (A_{0,1} - m beta) B_m =
sum_{p<m} (p theta_{1,m-p} - A_{m-p,1}) B_p, so the order-(t+1) kernel is
the order-t kernel K extended by block row t of P: {(K z, y) : sum_{p<t}
P[t][p] K[p] z + P[t][t] y = 0}, in dim K + l unknowns, at a cost that does
not depend on D.  The basis is the one kernel_basis gives for the whole
system, so it depends only on the kernel.  The X^[k] conditions read off
U * alpha^p t^p (full_condition_rows) are the reference the tests hold it
to.  Everything is exact linear algebra over K.
"""

from __future__ import annotations

from typing import NamedTuple

from .cosimplicial import CosimpCtx, alpha_sum
from .errors import ShapeMismatch
from .field import horner
from .matrix import KMat, blocks, charpoly, kernel_basis, rank, row_blocks, submatrix, sum_products
from .stratification import Seeds, StratTable, assemble_epsilon, first_order_grids


class H0Solution(NamedTuple):
    """Basis of truncated global sections, with the dimension diagnostics.

    Each basis element is a tuple (B_0, ..., B_{T-1}) of l x 1 columns.
    """

    basis: tuple
    dim_per_order: tuple[int, ...]
    stabilized: bool
    q: int

    @property
    def dim(self) -> int:
        return len(self.basis)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "dim_per_order": list(self.dim_per_order),
            "stage1_dim": self.dim,  # the X^[1] kernel is all of H^0
            "stabilized": self.stabilized,
            "q": self.q,
            "basis": [
                [col.to_json() for col in elem] for elem in self.basis
            ],
        }


def h0_dim_bound(a01: KMat, m_probe: int) -> int:
    """q = sum_{m=0}^{m_probe} dim ker(A_{0,1} - m beta): the multiplicity
    bound for non-positive-integer Sen weights.  The kernel is nonzero only
    at the roots m of cp, the characteristic polynomial of A_{0,1} beta^-1,
    so only those m take a rank."""
    field, l = a01.field, a01.nrows
    cp = charpoly(a01 * field.beta_inv)
    roots = [m for m in range(m_probe + 1) if horner(cp, m).is_zero()]
    return sum(l - rank(a01 - KMat.scalar(field, l, field.beta * m)) for m in roots)


def full_condition_rows(table: StratTable, ctx: CosimpCtx, t_order: int, k_range) -> list[list]:
    """X^[k] conditions of the global-section equation for k in k_range: the
    X^[k] t^m coefficient of R_p = U * alpha^p t^p is the block of B_p at
    t-order m.  One block row per (m, k), m-major, zero right of p = m."""
    U, ident = assemble_epsilon(table, ctx), KMat.identity(ctx.field, table.l)
    R = [U * alpha_sum(ctx, [(p, p, ident)], ctx.trunc) for p in range(t_order)]
    return [[R[p].coeff(m, (k,)) for p in range(t_order)] for m in range(t_order) for k in k_range]


def stage1_rows(table: StratTable, ctx: CosimpCtx, t_order: int) -> list[list]:
    """The triangular X^[1] conditions as a T x T block matrix."""
    return full_condition_rows(table, ctx, t_order, (1,))


def _extend_kernel(row: list, basis: KMat, t: int) -> KMat:
    """The order-(t+1) kernel from the order-t one, both as KMats whose
    columns are the basis, by block row t of P; its block P[t][p] is formed
    only against a nonzero block K[p] of `basis`.

    kernel_basis gives each column a 1 at its last nonzero position, a free
    column, and 0 at the other free columns.  If `basis` has that form, so
    has the result: the column for a free z-column i is (K_i + sum_j c_j K_j,
    0) over z-pivots j < i, and one for a free y-column has z only at
    pivots j, where K_j is 0 at every other column's free column.
    """
    field, l, d = basis.field, row[0].nrows, basis.ncols
    # P[t][p] acts on [K[p] | 0] for p < t (the old unknowns z), P[t][t] on [0 | I] (the new y)
    lifts = enumerate(row_blocks(basis, l))
    lifts = [(p, blocks([[kp, KMat.zero(field, l)]])) for p, kp in lifts if not kp.is_zero()]
    lifts.append((t, blocks([[KMat.zero(field, l, d), KMat.identity(field, l)]])))
    system = sum_products([(row[p], kp) for p, kp in lifts])
    lift = blocks([[basis, KMat.zero(field, l * t, l)], [KMat.zero(field, l, d), KMat.identity(field, l)]])
    return lift * kernel_basis(system)


def h0_solve(seeds: Seeds, ctx: CosimpCtx) -> H0Solution:
    """Truncated global sections: the kernel of P, built one t-order at a
    time; returns a K-basis plus diagnostics."""
    T, D = ctx.trunc.t_order, ctx.trunc.pd_degree
    P, _ = first_order_grids(seeds, ctx)
    if D < 1:
        raise ShapeMismatch(f"h0 needs pd degree >= 1 for the X^[1] condition, got {D}")
    l, kernel, dims = seeds.l, KMat.zero(ctx.field, 0), []
    for t in range(T):
        kernel = _extend_kernel(P[t], kernel, t)
        dims.append(kernel.ncols)
    basis = tuple(
        tuple(submatrix(kernel, range(m * l, (m + 1) * l), [j]) for m in range(T)) for j in range(kernel.ncols)
    )
    stabilized = len(dims) >= 3 and dims[-1] == dims[-2] == dims[-3]
    q = h0_dim_bound(seeds.a01, T - 1 + l)
    return H0Solution(basis, tuple(dims), stabilized, q)

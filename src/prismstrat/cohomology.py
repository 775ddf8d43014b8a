"""H^0 of a de Rham crystal from its stratification data.

A global section v = e . sum B_m t^m is fixed by the degree-0 Cech-
Alexander differential iff for every t-order m the pd polynomial

    sum_{i+j=m} (sum_s A_{i,s} X^[s]) (sum_{p<=j} c_{p,j-p} B_p)

equals B_m.  The constant term is automatic; the X^[1] coefficients give
the triangular stage-1 system

    (A_{0,1} - m beta) B_m = sum_{p<m} (p theta_{1,m-p} - A_{m-p,1}) B_p,

and the X^[k] coefficients for 2 <= k <= pd_degree are the stage-2
filter.  Block row m of either system involves only B_p with p <= m, so
the order-(t+1) kernel is the order-t kernel K extended by the one new
block row: {(K z, y) : sum_{p<t} R_p K[p] z + R_t y = 0}, a system in
dim K + l unknowns.  The basis this gives is the one kernel_basis gives
for the whole system, so it depends only on the kernel.
Everything is exact linear algebra over K.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .cosimplicial import CDTable, CosimpCtx, cd_table
from .errors import ShapeMismatch
from .matrix import KMat, blocks, kernel_basis, rank, submatrix, sum_products
from .stratification import StratTable


class H0Solution(NamedTuple):
    """Basis of truncated global sections, with the dimension diagnostics.

    Each basis element is a tuple (B_0, ..., B_{T-1}) of l x 1 columns.
    """

    l: int
    t_order: int
    basis: tuple
    dim_per_order: tuple[int, ...]
    stage1_dim: int
    stabilized: bool
    q: int

    @property
    def dim(self) -> int:
        return len(self.basis)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "dim_per_order": list(self.dim_per_order),
            "stage1_dim": self.stage1_dim,
            "stabilized": self.stabilized,
            "q": self.q,
            "basis": [
                [col.to_json() for col in elem] for elem in self.basis
            ],
        }


def h0_dim_bound(a01: KMat, m_probe: int) -> int:
    """q = sum_{m=0}^{m_probe} dim ker(A_{0,1} - m beta): the multiplicity
    bound for non-positive-integer Sen weights."""
    field = a01.field
    l = a01.nrows
    beta = field.beta
    q = 0
    for m in range(m_probe + 1):
        shifted = a01 - KMat.scalar(field, l, beta * m)
        q += l - rank(shifted)
    return q


def condition_block(
    table: StratTable, ctx: CosimpCtx, cd: CDTable, m: int, k: int, p: int
) -> KMat:
    """Coefficient of B_p (p <= m) in the X^[k] condition at t-order m:
    sum_{j=p}^{m} sum_s C(k, s) d_{p,j-p,k-s} A_{m-j,s}."""
    field, l = ctx.field, table.l
    pairs = []
    for j in range(p, m + 1):
        for s in range(min(k, table.n_max) + 1):
            a_is, d = table.at(m - j, s), cd.d(p, j - p, k - s)
            if not (a_is.is_zero() or d.is_zero()):
                pairs.append((a_is, KMat.scalar(field, l, d * comb(k, s))))
    return sum_products(pairs) if pairs else KMat.zero(field, l)


def full_condition_rows(
    table: StratTable, ctx: CosimpCtx, cd: CDTable, t_order: int, k_range
) -> list[list]:
    """X^[k] conditions of the global-section equation for k in k_range:
    one block row per (m, k), m-major, with zero blocks right of p = m."""
    zero = KMat.zero(ctx.field, table.l)
    return [
        [
            condition_block(table, ctx, cd, m, k, p) if p <= m else zero
            for p in range(t_order)
        ]
        for m in range(t_order)
        for k in k_range
    ]


def stage1_rows(table: StratTable, ctx: CosimpCtx, t_order: int) -> list[list]:
    """The triangular X^[1] conditions as a T x T block matrix."""
    cd = cd_table(ctx, range(0, t_order))
    return full_condition_rows(table, ctx, cd, t_order, (1,))


def _extend_kernel(
    table: StratTable, ctx: CosimpCtx, cd: CDTable, k_range, basis: KMat, t: int
) -> KMat:
    """The order-(t+1) kernel from the order-t one, both as KMats whose
    columns are the basis; R_p is formed only against a nonzero block
    K[p] of `basis`.

    kernel_basis gives each column a 1 at its last nonzero position, a free
    column, and 0 at the other free columns.  If `basis` has that form, so
    has the result: the column for a free z-column i is (K_i + sum_j c_j K_j,
    0) over z-pivots j < i, and one for a free y-column has z only at
    pivots j, where K_j is 0 at every other column's free column.
    """
    field, l, d = ctx.field, table.l, basis.ncols
    # R_p acts on [K[p] | 0] for p < t (the old unknowns z), R_t on [0 | I] (the new y)
    lifts = [(p, submatrix(basis, range(p * l, (p + 1) * l), range(d))) for p in range(t)]
    lifts = [(p, blocks([[kp, KMat.zero(field, l)]])) for p, kp in lifts if not kp.is_zero()]
    lifts.append((t, blocks([[KMat.zero(field, l, d), KMat.identity(field, l)]])))
    system = blocks(
        [[sum_products([(condition_block(table, ctx, cd, t, k, p), kp) for p, kp in lifts])] for k in k_range]
    )
    lift = blocks([[basis, KMat.zero(field, l * t, l)], [KMat.zero(field, l, d), KMat.identity(field, l)]])
    return lift * kernel_basis(system)


def h0_solve(table: StratTable, ctx: CosimpCtx) -> H0Solution:
    """Solve for truncated global sections; returns a K-basis plus diagnostics."""
    T, D = ctx.trunc.t_order, ctx.trunc.pd_degree
    if D < 1:
        raise ShapeMismatch(f"h0 needs pd degree >= 1 for the X^[1] condition, got {D}")
    if table.n_max < D:
        raise ShapeMismatch("table must be generated up to n = pd_degree")
    l = table.l
    cd = cd_table(ctx, range(0, T))
    stage1 = kernel = KMat.zero(ctx.field, 0)
    dims = []
    for t in range(T):
        stage1 = _extend_kernel(table, ctx, cd, (1,), stage1, t)
        kernel = _extend_kernel(table, ctx, cd, range(1, D + 1), kernel, t)
        dims.append(kernel.ncols)
    basis = tuple(
        tuple(submatrix(kernel, range(m * l, (m + 1) * l), [j]) for m in range(T))
        for j in range(kernel.ncols)
    )
    stabilized = len(dims) >= 3 and dims[-1] == dims[-2] == dims[-3]
    q = h0_dim_bound(table.at(0, 1), T - 1 + l)
    return H0Solution(l, T, basis, tuple(dims), stage1.ncols, stabilized, q)

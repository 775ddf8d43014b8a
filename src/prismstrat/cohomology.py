"""H^0 of a de Rham crystal from its stratification data.

A global section v = e . sum B_p t^p is fixed by the degree-0 Cech-
Alexander differential iff U * delta_0(v) = v, where delta_0(v) =
sum_p alpha^p t^p B_p.  With R_p = U * alpha^p t^p (one alpha_sum and one
ring product each) this reads sum_p R_p B_p = v, and the X^[k] t^m
coefficient of R_p is the block of B_p in the X^[k] condition at order m.
The constant term is automatic; the X^[1] coefficients give the
triangular stage-1 system

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

from typing import NamedTuple

from .cosimplicial import CosimpCtx, alpha_sum
from .errors import ShapeMismatch
from .matrix import KMat, blocks, kernel_basis, rank, submatrix, sum_products
from .series import SimplexRingElem as SRE
from .stratification import StratTable, assemble_epsilon


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


def _condition_series(table: StratTable, ctx: CosimpCtx, t_order: int) -> list[SRE]:
    """R_p = U * alpha^p t^p for p < t_order.  U * delta_0(v) = sum_p R_p B_p,
    so the X^[k] t^m coefficient of R_p is the coefficient of B_p in the
    X^[k] condition at t-order m (zero for m < p)."""
    U, ident = assemble_epsilon(table, ctx), KMat.identity(ctx.field, table.l)
    ctx.alpha_pows(range(t_order))  # one kernel product for every power
    return [U * alpha_sum(ctx, [(p, p, ident)], ctx.trunc) for p in range(t_order)]


def full_condition_rows(table: StratTable, ctx: CosimpCtx, t_order: int, k_range) -> list[list]:
    """X^[k] conditions of the global-section equation for k in k_range:
    one block row per (m, k), m-major, with zero blocks right of p = m."""
    R = _condition_series(table, ctx, t_order)
    return [[R[p].coeff(m, (k,)) for p in range(t_order)] for m in range(t_order) for k in k_range]


def stage1_rows(table: StratTable, ctx: CosimpCtx, t_order: int) -> list[list]:
    """The triangular X^[1] conditions as a T x T block matrix."""
    return full_condition_rows(table, ctx, t_order, (1,))


def _extend_kernel(R: list[SRE], k_range, basis: KMat, t: int) -> KMat:
    """The order-(t+1) kernel from the order-t one, both as KMats whose
    columns are the basis; the block of R_p is formed only against a
    nonzero block K[p] of `basis`.

    kernel_basis gives each column a 1 at its last nonzero position, a free
    column, and 0 at the other free columns.  If `basis` has that form, so
    has the result: the column for a free z-column i is (K_i + sum_j c_j K_j,
    0) over z-pivots j < i, and one for a free y-column has z only at
    pivots j, where K_j is 0 at every other column's free column.
    """
    field, l, d = R[0].field, R[0].size, basis.ncols
    # R_p acts on [K[p] | 0] for p < t (the old unknowns z), R_t on [0 | I] (the new y)
    lifts = [(p, submatrix(basis, range(p * l, (p + 1) * l), range(d))) for p in range(t)]
    lifts = [(p, blocks([[kp, KMat.zero(field, l)]])) for p, kp in lifts if not kp.is_zero()]
    lifts.append((t, blocks([[KMat.zero(field, l, d), KMat.identity(field, l)]])))
    system = blocks([[sum_products([(R[p].coeff(t, (k,)), kp) for p, kp in lifts])] for k in k_range])
    lift = blocks([[basis, KMat.zero(field, l * t, l)], [KMat.zero(field, l, d), KMat.identity(field, l)]])
    return lift * kernel_basis(system)


def h0_solve(table: StratTable, ctx: CosimpCtx) -> H0Solution:
    """Solve for truncated global sections; returns a K-basis plus diagnostics."""
    T, D = ctx.trunc.t_order, ctx.trunc.pd_degree
    if D < 1:
        raise ShapeMismatch(f"h0 needs pd degree >= 1 for the X^[1] condition, got {D}")
    if table.n_max < D:
        raise ShapeMismatch("table must be generated up to n = pd_degree")
    l, R = table.l, _condition_series(table, ctx, T)
    stage1 = kernel = KMat.zero(ctx.field, 0)
    dims = []
    for t in range(T):
        stage1 = _extend_kernel(R, (1,), stage1, t)
        kernel = _extend_kernel(R, range(1, D + 1), kernel, t)
        dims.append(kernel.ncols)
    basis = tuple(
        tuple(submatrix(kernel, range(m * l, (m + 1) * l), [j]) for m in range(T))
        for j in range(kernel.ncols)
    )
    stabilized = len(dims) >= 3 and dims[-1] == dims[-2] == dims[-3]
    q = h0_dim_bound(table.at(0, 1), T - 1 + l)
    return H0Solution(l, T, basis, tuple(dims), stage1.ncols, stabilized, q)

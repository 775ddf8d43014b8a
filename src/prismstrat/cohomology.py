"""H^0 of a de Rham crystal from its stratification data.

A global section v = e . sum B_m t^m is fixed by the degree-0 Cech-
Alexander differential iff for every t-order m the pd polynomial

    sum_{i+j=m} (sum_s A_{i,s} X^[s]) (sum_{p<=j} c_{p,j-p} B_p)

equals B_m.  The constant term is automatic; the X^[1] coefficients give
the triangular stage-1 system

    (A_{0,1} - m beta) B_m = sum_{p<m} (p theta_{1,m-p} - A_{m-p,1}) B_p,

and the X^[k] coefficients for 2 <= k <= pd_degree are the stage-2
filter.  Everything is exact linear algebra over K.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .cosimplicial import CDTable, CosimpCtx, cd_table
from .errors import ShapeMismatch
from .field import FieldDesc
from .matrix import KMat, kernel_basis, rank
from .stratification import StratTable


@dataclass(frozen=True, slots=True)
class H0Solution:
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


def stage1_rows(table: StratTable, ctx: CosimpCtx, t_order: int) -> list[list]:
    """The triangular X^[1] conditions as an (l*T x l*T) block matrix."""
    field = ctx.field
    l = table.l
    beta = field.beta
    blocks: list[list[KMat]] = []
    zero = KMat.zero(field, l)
    for m in range(t_order):
        row = [zero] * t_order
        row[m] = table.at(0, 1) - KMat.scalar(field, l, beta * m)
        for p in range(m):
            row[p] = table.at(m - p, 1) - KMat.scalar(
                field, l, ctx.theta_at(1, m - p) * p
            )
        blocks.append(row)
    return blocks


def full_condition_rows(
    table: StratTable, ctx: CosimpCtx, cd: CDTable, t_order: int, k_range
) -> list[list]:
    """X^[k] conditions of the global-section equation for k in k_range:
    one block row per (m, k), m-major, even when it is zero."""
    field = ctx.field
    l = table.l
    zero = KMat.zero(field, l)
    blocks: list[list[KMat]] = []
    for m in range(t_order):
        for k in k_range:
            row = [zero] * t_order
            for p in range(m + 1):
                acc = zero
                for j in range(p, m + 1):
                    i = m - j
                    for s in range(k + 1):
                        v = k - s
                        if s > table.n_max:
                            continue
                        a_is = table.at(i, s)
                        if a_is.is_zero():
                            continue
                        d = cd.d(p, j - p, v)
                        if d.is_zero():
                            continue
                        acc = acc + a_is * (d * comb(k, s))
                row[p] = acc
            blocks.append(row)
    return blocks


def _flatten(blocks: list[list[KMat]], field: FieldDesc, l: int, t_order: int) -> KMat:
    rows = []
    for block_row in blocks:
        for r in range(l):
            rows.append(
                [block_row[p].rows[r][c] for p in range(t_order) for c in range(l)]
            )
    return KMat.from_rows(field, rows)


def h0_solve(table: StratTable, ctx: CosimpCtx) -> H0Solution:
    """Solve for truncated global sections; returns a K-basis plus diagnostics.

    Block row m of either system involves only B_p with p <= m, so the
    order-t system is the first t stage-1 block rows and the first
    t*(D-1) stage-2 block rows, restricted to the first t block columns.
    Both systems are built once, at T = t_order.
    """
    field = ctx.field
    T = ctx.trunc.t_order
    if table.n_max < ctx.trunc.pd_degree:
        raise ShapeMismatch("table must be generated up to n = pd_degree")
    l = table.l
    k_range = range(2, ctx.trunc.pd_degree + 1)
    cd = cd_table(ctx, range(0, T))
    s1 = stage1_rows(table, ctx, T)
    s2 = full_condition_rows(table, ctx, cd, T, k_range)
    stage1_dim = len(kernel_basis(_flatten(s1, field, l, T)))
    dims = []
    for t in range(1, T + 1):
        blocks = s1[:t] + s2[: t * len(k_range)]
        final_kernel = kernel_basis(_flatten(blocks, field, l, t))
        dims.append(len(final_kernel))
    basis = []
    for vec in final_kernel:
        cols = []
        for m in range(T):
            col = KMat.from_rows(field, [[vec[m * l + r]] for r in range(l)])
            cols.append(col)
        basis.append(tuple(cols))
    stabilized = len(dims) >= 3 and dims[-1] == dims[-2] == dims[-3]
    q = h0_dim_bound(table.at(0, 1), T - 1 + l)
    return H0Solution(
        l=l,
        t_order=T,
        basis=tuple(basis),
        dim_per_order=tuple(dims),
        stage1_dim=stage1_dim,
        stabilized=stabilized,
        q=q,
    )

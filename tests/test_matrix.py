"""Exact linear algebra over K: kernels of block lower-triangular systems."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prismstrat.field import field_init
from prismstrat.matrix import KMat, kernel_basis

FIELDS = [field_init(3, [-3, 1]), field_init(3, [-3, 0, 1]), field_init(3, [-3, 0, 0, 1])]


def _matrix(data, field, nrows, ncols):
    """nrows x ncols entries of K with coordinates in {0, +-1/3, ..., +-4}."""
    n = nrows * ncols * field.e
    coord = st.one_of(st.just(0), st.integers(-12, 12))
    coords = data.draw(st.lists(coord, min_size=n, max_size=n))
    entries = [
        field.from_coords([Fraction(c, 3) for c in coords[i : i + field.e]])
        for i in range(0, n, field.e)
    ]
    return [entries[r * ncols : (r + 1) * ncols] for r in range(nrows)]


@pytest.mark.parametrize("field", FIELDS, ids=["e1", "e2", "e3"])
def test_kernel_of_block_system_extends_first_block_kernel(field):
    # h0_solve's per-order step: with K = kernel_basis(A), A wider than tall,
    # lifting kernel_basis([B K | C]) through K gives kernel_basis([[A, 0],
    # [B, C]]) element for element, with no change of basis
    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def inner(data):
        n1, n2 = data.draw(st.integers(2, 4)), data.draw(st.integers(1, 3))
        r1, r2 = data.draw(st.integers(1, n1 - 1)), data.draw(st.integers(1, 3))
        a, b, c = (_matrix(data, field, r, n) for r, n in ((r1, n1), (r2, n1), (r2, n2)))
        whole = [row + [field.zero] * n2 for row in a] + [x + y for x, y in zip(b, c)]
        k = kernel_basis(KMat.from_rows(field, a))
        bk = [[sum((x * v for x, v in zip(row, vec)), field.zero) for vec in k] for row in b]
        lifted = []
        for zy in kernel_basis(KMat.from_rows(field, [x + y for x, y in zip(bk, c)])):
            first = [field.zero] * n1
            for z, vec in zip(zy, k):
                first = [f + z * v for f, v in zip(first, vec)]
            lifted.append(tuple(first) + zy[len(k) :])
        assert lifted == kernel_basis(KMat.from_rows(field, whole))

    inner()

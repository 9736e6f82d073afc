"""The CSR maps run on scipy's compiled sparse routines alone: ``_csr``,
the row gather and the products have every byte and dtype of the
``scipy.sparse`` arrays built from the same entries (tests may import
``scipy.sparse``; the package does not)."""
from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from bvcouple import coupling, highorder
from bvcouple.coupling import RegionPartition, _csr
from bvcouple.energies import _spmv
from bvcouple.lattice import LatticeConfig
from geometry_oracle import scipy_csr

README_ETAS = ((1, 1, 1), (2, 1, 3), (1, -1, 2))


def scipy_built(rows, cols, vals, shape) -> sparse.csr_array:
    """``csr_array((vals, (rows, cols)), shape)`` with the index dtype the
    package chooses: scipy's own COO to CSR conversion."""
    idx = np.int32 if max(shape) < 2**31 else np.int64
    return sparse.csr_array((np.asarray(vals, dtype=float), (np.asarray(rows, dtype=idx), np.asarray(cols, dtype=idx))),
                            shape=shape)


def mismatches(got, want) -> list[str]:
    """The fields in which a CSR map differs from a scipy CSR array in
    dtype or in any byte, and the shape if it differs."""
    bad = [a for a in ("indptr", "indices", "data")
           if getattr(got, a).dtype != getattr(want, a).dtype or getattr(got, a).tobytes() != getattr(want, a).tobytes()]
    return bad + (["shape"] if tuple(got.shape) != tuple(want.shape) else [])


def random_entries(rng, n_rows, n_cols, nnz, duplicates=True, ordered=False):
    """COO entries on every third row, so the others are empty, with
    repeated (row, column) pairs if ``duplicates``, in row-then-column
    order if ``ordered``, else shuffled."""
    rows = rng.integers(0, n_rows, size=nnz) // 3 * 3
    cols = rng.integers(0, n_cols, size=nnz)
    if duplicates:
        rows[nnz // 2:], cols[nnz // 2:] = rows[: nnz - nnz // 2], cols[: nnz - nnz // 2]
    else:
        keys = np.unique(rows * n_cols + cols)
        rows, cols = keys // n_cols, keys % n_cols
    order = np.lexsort((cols, rows)) if ordered else rng.permutation(rows.size)
    rows, cols = rows[order], cols[order]
    return rows, cols, rng.standard_normal(rows.size)


@pytest.mark.parametrize("duplicates, ordered", [(True, False), (True, True), (False, False), (False, True)])
def test_csr_is_scipys_coo_to_csr(duplicates, ordered):
    """On entries with or without duplicates, unsorted or sorted, over a
    matrix with empty rows, ``_csr`` gives scipy's indptr, indices and data
    bytes and dtypes; so it does with no entries at all."""
    rng = np.random.default_rng(17)
    for n_rows, n_cols, nnz in ((40, 25, 300), (7, 1000, 60), (500, 3, 90)):
        rows, cols, vals = random_entries(rng, n_rows, n_cols, nnz, duplicates, ordered)
        got, want = _csr(rows, cols, vals, (n_rows, n_cols)), scipy_built(rows, cols, vals, (n_rows, n_cols))
        assert want.has_canonical_format and (duplicates or want.nnz == rows.size)
        assert mismatches(got, want) == [], (n_rows, n_cols, nnz)
        assert got.format == "csr"
    empty = np.zeros(0, dtype=np.int64)
    assert mismatches(_csr(empty, empty, np.zeros(0), (5, 4)), scipy_built(empty, empty, np.zeros(0), (5, 4))) == []


@pytest.mark.parametrize("rows, cols", [([0, 5], [1, 1]), ([0, -1], [1, 1]), ([0, 1], [4, 1]), ([0], [1, 1])])
def test_csr_rejects_entries_outside_the_shape(rows, cols):
    """An entry outside the shape, or index arrays of another length than
    the values, is a ValueError, as scipy's, not a write past an array."""
    with pytest.raises(ValueError):
        _csr(rows, cols, [1.0, 2.0], (5, 4))
    with pytest.raises(ValueError):
        scipy_built(rows, cols, [1.0, 2.0], (5, 4))


@pytest.mark.parametrize("N", [12, 24])
def test_blocks_are_scipys_maps(monkeypatch, N):
    """Every README direction's block on the region of side N/3 at corner
    N/3: the bond map, the cone map and the jump's three maps have every
    byte and dtype of the block whose entries scipy converts, the cone map
    as a scipy array on its own arrays and the inner-trace rows as scipy's
    row gather of it."""
    part = RegionPartition(LatticeConfig(N=(N,) * 3, epsilon=1.0 / N), (N // 3,) * 3, (N // 3,) * 3)
    for eta in README_ETAS:
        block = coupling._build_eta_block.__wrapped__(part, eta)
        with monkeypatch.context() as m:
            m.setattr(coupling, "_csr", scipy_built)
            ref = coupling._build_eta_block.__wrapped__(part, eta)
            ref_jump = coupling._jump_ops(ref)
        cone = scipy_csr(ref.cone_op.G)
        assert ref.gamma.rows.size > 0
        for name, got, want in (("atom_op", block.atom_op.G, ref.atom_op.G), ("cone_op", block.cone_op.G, cone),
                                ("minus_op", block.jump.minus_op, cone[ref.gamma.rows]),
                                ("plus_op", block.jump.plus_op, ref_jump.plus_op),
                                ("trace_op", block.jump.trace_op, ref_jump.trace_op)):
            assert isinstance(want, sparse.csr_array), name
            assert mismatches(got, want) == [], (eta, name)


@pytest.mark.parametrize("k", [2, 3])
def test_mesh_maps_are_scipys(monkeypatch, k):
    """The six Pk element maps of the degree-k mesh at N=12 are scipy's row
    gathers of the node map that scipy converts, byte for byte."""
    part = RegionPartition(LatticeConfig(N=(12,) * 3, epsilon=1.0 / 12), (4, 4, 4), (4, 4, 4))
    mesh = highorder._build_mesh.__wrapped__(part, k)
    monkeypatch.setattr(highorder, "_csr", scipy_built)
    ref = highorder._build_mesh.__wrapped__(part, k)
    for p, (got, want) in enumerate(zip(mesh.elem_ops, ref.elem_ops, strict=True)):
        assert isinstance(want, sparse.csr_array) and want.nnz > 0
        assert mismatches(got, want) == [], p


def test_row_gather_and_products_are_scipys():
    """The row gather (rows repeated, out of order, and none), the product
    and the transposed product, into given arrays and by ``@``, are
    scipy's ``G[rows]``, ``G @ x`` and ``G.T @ x`` bit for bit."""
    rng = np.random.default_rng(5)
    rows, cols, vals = random_entries(rng, 300, 200, 2000)
    G = _csr(rows, cols, vals, (300, 200))
    S = scipy_csr(G)
    for pick in (rng.integers(0, 300, size=500), np.arange(300)[::-1], np.zeros(0, dtype=np.int64)):
        assert mismatches(G[pick], S[pick]) == []
    x, p = rng.standard_normal((200, 3)), rng.standard_normal((300, 3))
    assert G.T.format == "csc" and G.T.T.format == "csr"
    for A, B, v in ((G, S, x), (G.T, S.T, p), (G.T, S.T, np.asfortranarray(p))):
        want = B @ v
        assert np.array_equal(_spmv(A, v, np.full(want.shape, np.nan)), want)
        assert (A @ v).tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        G @ x[:, :2]
    for bad in ([300], [-1]):
        with pytest.raises(IndexError):
            G[bad]
    with pytest.raises(IndexError):
        G.T[[0]]

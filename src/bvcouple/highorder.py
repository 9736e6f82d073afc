"""Higher-order finite elements on the continuum region of the coupled model.

The continuum region keeps the staircase tetrahedral mesh (six tets per
cell). Elements whose closure meets the interface stay P1 on lattice
vertices, which ties the finite-element trace to the lattice displacement
there and lets the interface cones and atomistic bonds stay the conforming
model's; all other elements carry Lagrange elements of degree k.

The mesh is the continuum of ``coupling._coupled``, the one body of every
coupled model. Its P1 masks weight the staircase Cauchy-Born shift stencil
per template (as ``HighOrderMesh.p1_weights``, kept with the mesh), and
``HighOrderMesh.pk_batches`` gives each template's Pk elements as one
sparse gather of ``energies``: the CSR map
``HighOrderMesh.elem_ops[p]`` from [lattice sites | free nodes] to the
element-local node values, built once per mesh, with the shape-function
gradients times eta at the quadrature points as its coefficient block. The
P1 and Pk batches both carry the breakdown key ``continuum`` and run as
the terms ``continuum`` and ``continuum_pk``, so the continuum entry is
their sum. ``high_order_energy`` checks the degree, then fetches the
blocks with ``coupling._get_blocks``, which checks the state's lattice and
the partition before any block is built or fetched; then it builds or
fetches the mesh on the partition's lattice (the cached builder of
``build_high_order_mesh(part, k)``, timed as the report's ``setup_s``
entry ``"mesh"``), checks the shape of the node displacements, and calls
the body.

Vertex degrees of freedom are the lattice displacements themselves. Edge,
face and interior nodes of degree-k elements are extra degrees of freedom,
except where such a node lies on the closure of a P1 element: there it is
slaved to the linear interpolant of the P1 element so the global field stays
continuous. For this mesh a node (with its supporting sub-simplex) lies on a
P1 element's closure exactly when its sub-simplex is an edge or a face of a
P1 element, which is how slaving is detected.

The mesh is built by array passes: one table of element vertices (cells x 6
templates x 4 corners) flags the P1 elements; the Lagrange nodes of the Pk
elements, at m . vertices in k-scaled lattice units, are deduplicated by
position (``np.unique``), which also orders the free nodes by position; and
an edge or face node is slaved by membership of its sorted vertex sites
among the P1 elements' edges or faces, each row of sites compared by one
integer key (``_row_keys``).

A template's gather holds its Pk elements in blocks of ``_PK_BLOCK`` = 64,
node-major within a block (``_block_major``): row (b, j, i) of
``elem_ops[p]`` is local node j of element 64 b + i. The kernel then forms
a block's (nq, 3 x 64) bond rows, point-major, by one (nq, nloc) x (nloc,
3 x 64) product, and the transpose by the mirror product: one product per
block in place of one per element. Padding elements fill the last block.
Each of their nodes is one extra, empty row of the node map, so their
bonds are exactly F eta, their excess exactly 0.0, and they add nothing to
either gradient block; a domain error at one names the template's last
element. The quadrature weights are one (nq, 64) tile per template
(``pk_weights``), summed over the real elements.

Quadrature is a conical-product Gauss rule on the reference tetrahedron
(Jacobi weights absorb the collapsed-coordinate Jacobian), with n = k + 1
points per direction: exact for total degree 2k + 1, which covers both the
gradient integrals that make homogeneous states force-free and the energy
assembly margin.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from itertools import combinations

import numpy as np

from .coupling import RegionPartition, _coupled, _csr, _fetch, _get_blocks, omega_star_mask
from .energies import EnergyReport, _drop_workspaces, _Gather, _weights, _Weights
from .geometry import PATH_PERMS, path_corner_offsets
from .lattice import Deformation, LatticeConfig
from .potentials import InteractionSet

SUPPORTED_DEGREES = (2, 3)


# ----------------------------------------------------------------------
# Reference-element machinery
# ----------------------------------------------------------------------

def simplex_multi_indices(k: int) -> list[tuple[int, int, int, int]]:
    """Lagrange node multi-indices (m0, m1, m2, m3), sum k, fixed order."""
    out = []
    for m1 in range(k + 1):
        for m2 in range(k + 1 - m1):
            for m3 in range(k + 1 - m1 - m2):
                out.append((k - m1 - m2 - m3, m1, m2, m3))
    return out


def conical_quadrature(n: int):
    """Gauss conical-product rule on the reference tetrahedron
    {u, v, w >= 0, u+v+w <= 1}: n^3 points, exact for total degree 2n-1.

    The Duffy substitution u = x, v = y(1-x), w = z(1-x)(1-y) has Jacobian
    (1-x)^2 (1-y); Gauss-Jacobi rules with weights (1-x)^2 and (1-y) absorb
    it exactly. ``scipy.special`` is imported here, at the first rule a
    high-order model builds, so importing the package does not load it.
    """
    from scipy.special import roots_jacobi, roots_legendre

    xj, wx = roots_jacobi(n, 2.0, 0.0)
    yj, wy = roots_jacobi(n, 1.0, 0.0)
    zj, wz = roots_legendre(n)
    x = 0.5 * (xj + 1.0)
    y = 0.5 * (yj + 1.0)
    z = 0.5 * (zj + 1.0)
    wx = wx / 8.0
    wy = wy / 4.0
    wz = wz / 2.0
    pts = np.zeros((n * n * n, 3))
    wts = np.zeros(n * n * n)
    q = 0
    for a in range(n):
        for b in range(n):
            for c in range(n):
                u = x[a]
                v = y[b] * (1.0 - x[a])
                w = z[c] * (1.0 - x[a]) * (1.0 - y[b])
                pts[q] = (u, v, w)
                wts[q] = wx[a] * wy[b] * wz[c]
                q += 1
    return pts, wts


def _silvester_eval(r: int, k: int, lam: np.ndarray):
    """Value and derivative of the Silvester polynomial
    P_r(lam) = prod_{s<r} (k lam - s)/(r - s)."""
    val = np.ones_like(lam)
    dval = np.zeros_like(lam)
    for s in range(r):
        f = (k * lam - s) / (r - s)
        dval = dval * f + val * (k / (r - s))
        val = val * f
    return val, dval


@cache
def _template_tables(k: int, perm) -> tuple[np.ndarray, np.ndarray]:
    """Per staircase template: quadrature weights (nq,) in lattice units and
    shape-function gradients (nq, nloc, 3) in lattice units."""
    pts, wts = conical_quadrature(k + 1)
    nq = pts.shape[0]
    lam = np.zeros((nq, 4))
    lam[:, 1:] = pts
    lam[:, 0] = 1.0 - pts.sum(axis=1)

    z = np.asarray(path_corner_offsets(perm), dtype=float)  # (4, 3)
    A = z[1:] - z[0]
    Ainv = np.linalg.inv(A)
    grad_lam = np.zeros((4, 3))
    grad_lam[1:] = Ainv.T
    grad_lam[0] = -grad_lam[1:].sum(axis=0)

    nodes = simplex_multi_indices(k)
    vals = [[_silvester_eval(r, k, lam[:, i]) for r in range(k + 1)] for i in range(4)]
    gradN = np.zeros((nq, len(nodes), 3))
    for n_id, m in enumerate(nodes):
        for i in range(4):
            term = vals[i][m[i]][1].copy()
            for j in range(4):
                if j != i:
                    term = term * vals[j][m[j]][0]
            gradN[:, n_id, :] += term[:, None] * grad_lam[i]
    return wts, gradN


# ----------------------------------------------------------------------
# Mesh with mixed P1 / Pk elements
# ----------------------------------------------------------------------

@dataclass
class HighOrderMesh:
    """Staircase tetrahedral mesh of the continuum region with per-element
    degree (P1 on every element whose closure meets the interface, Pk
    elsewhere) and, per template, the gather of the Pk elements' local node
    values from the lattice sites and the free nodes."""

    cfg: LatticeConfig
    k: int
    p1_masks: np.ndarray            # (6, N1, N2, N3) cells whose perm-tet is P1
    elem_ops: list                  # 6 CSR (E'_p * nloc, n_sites + n_free_nodes) local node values, blocked
    elem_cells: list                # 6 arrays (E_p,) flat cell index per Pk element
    n_free_nodes: int
    n_elements: int
    n_p1_elements: int
    block: int                      # elements per block of ``elem_ops``

    @cached_property
    def p1_weights(self) -> tuple[_Weights, ...]:
        """Per template, the staircase Cauchy-Born weight of each cell: 1/6
        on the P1 cells, kept with the mesh."""
        return tuple(_weights(m.ravel() / 6.0) for m in self.p1_masks)

    @cached_property
    def pk_weights(self) -> tuple[_Weights, ...]:
        """Per template, the quadrature weights of its Pk elements, kept
        with the mesh: one weight per quadrature point, as the (nq, block)
        tile that the kernel broadcasts over the (block, point, element)
        rows, with the rows of zero weight, padding rows included, and the
        sum over the real rows (the sum of the weights tiled once per
        element)."""
        out = []
        for perm, cells in zip(PATH_PERMS, self.elem_cells):
            wts = _template_tables(self.k, perm)[0]
            tile = np.repeat(wts[:, None], self.block, axis=1)
            zero = np.flatnonzero(np.broadcast_to(tile == 0.0, (-(-cells.size // self.block),) + tile.shape))
            out.append(_Weights(tile, zero, float(np.tile(wts, cells.size).sum())))
        return tuple(out)

    @cached_property
    def gathers(self) -> dict:
        """Per direction eta, each template's Pk gather with its weights,
        kept with the mesh (``pk_batches``)."""
        return {}

    def pk_batches(self, R: InteractionSet) -> list:
        """The Pk elements' quadrature-bond batches on [lattice sites | free
        nodes], per law and template: the gather of the element-local node
        values with the shape-function gradients times eta as coefficients,
        at the template's quadrature weights (``pk_weights``). A direction's
        gathers are kept with the mesh (``gathers``), so a warm call builds
        none: their coefficient blocks depend on eta alone, and the
        transpose each gather builds once is a CSC view of its CSR map."""
        for law in R:
            if law.eta not in self.gathers:
                self.gathers[law.eta] = [
                    (_Gather(G, _template_tables(self.k, perm)[1] @ law.eta_vec, cells, self.cfg.N, self.block), w)
                    for G, cells, w, perm in zip(self.elem_ops, self.elem_cells, self.pk_weights, PATH_PERMS)
                    if cells.size]
        return [(op, w, law, "continuum") for law in R for op, w in self.gathers[law.eta]]


# Meshes kept per process: enough for a few placements.
_MESH_CACHE_SIZE = 4
# Pk elements per block of a template's gather: one (nq, nloc) x (nloc,
# 3 block) product per block. Small enough that OpenBLAS runs each product
# on the calling thread (k=3: 64 x 20 x 192), large enough that the calls
# are few.
_PK_BLOCK = 64


def _check_degree(k: int) -> None:
    if k not in SUPPORTED_DEGREES:
        raise ValueError(f"coupled-ho degree must be one of {SUPPORTED_DEGREES}, got {k}")


def build_high_order_mesh(part: RegionPartition, k: int) -> HighOrderMesh:
    _check_degree(k)
    return _build_mesh(part, k)


def _row_keys(rows, n: int) -> np.ndarray:
    """One integer per row of flat sites in [0, n), equal exactly when the
    rows are: the columns as mixed-radix digits, each prefix of two or more
    first replaced by its rank among the rows' prefixes, which keeps every
    key below len(rows) * n."""
    keys = rows[:, 0]
    for c in range(1, rows.shape[1]):
        if c > 1:
            keys = np.unique(keys, return_inverse=True)[1]
        keys = keys * n + rows[:, c]
    return keys


@lru_cache(maxsize=_MESH_CACHE_SIZE)
def _build_mesh(part: RegionPartition, k: int) -> HighOrderMesh:
    _drop_workspaces()
    cfg = part.cfg
    N = cfg.N
    a, top = np.asarray(part.corner), np.asarray(part.top)
    mask = omega_star_mask(part)
    cells = np.argwhere(mask)

    # Element vertices (cells, 6 templates, 4 corners, 3), unwrapped; an
    # element is P1 when a vertex lies on the interface surface Gamma.
    verts = cells[:, None, None, :] + np.asarray([path_corner_offsets(perm) for perm in PATH_PERMS])
    on_gamma = np.all((a <= verts) & (verts <= top), axis=-1) & np.any((verts == a) | (verts == top), axis=-1)
    is_p1 = on_gamma.any(axis=-1)
    p1_masks = np.zeros((6,) + tuple(N), dtype=bool)
    p1_masks[:, mask] = is_p1.T
    flats = np.ravel_multi_index(np.moveaxis(verts, -1, 0), N, mode="wrap")
    p1_flats = flats[is_p1]

    # Lagrange nodes of the Pk elements, at m . verts in k-scaled units,
    # numbered by position (which orders the free nodes by position).
    ms = np.asarray(simplex_multi_indices(k))
    pk_cell, pk_perm = np.nonzero(~is_p1)
    kN = tuple(k * n for n in N)
    keys = np.ravel_multi_index(np.moveaxis(ms @ verts[pk_cell, pk_perm], -1, 0), kN, mode="wrap")
    _, first, node_of = np.unique(keys, return_index=True, return_inverse=True)
    node_m = ms[first % len(ms)]                  # multi-index in the first owning element
    node_v = flats[pk_cell, pk_perm][first // len(ms)]
    size = np.count_nonzero(node_m, axis=1)

    # A node on an edge or face is slaved when that sub-simplex belongs to a
    # P1 element, i.e. some P1 element owns all of its vertices.
    slaved = np.zeros(len(first), dtype=bool)
    for s in (2, 3):
        sub = np.asarray(list(combinations(range(4), s)))
        p1_sub = np.sort(p1_flats[:, sub], axis=-1).reshape(-1, s)
        on = size == s
        node_sub = np.sort(node_v[on][node_m[on] > 0].reshape(-1, s), axis=-1)
        keys = _row_keys(np.concatenate([p1_sub, node_sub]), cfg.n_sites)
        slaved[on] = np.isin(keys[len(p1_sub):], keys[: len(p1_sub)])

    # Node values from [lattice sites | free nodes]: vertex and slaved nodes
    # are the linear interpolant m / k of their sub-simplex's lattice values,
    # free nodes are their own degrees of freedom.
    free = (size > 1) & ~slaved
    rows, ents = np.nonzero((node_m > 0) & ~free[:, None])
    free_rows = np.flatnonzero(free)
    n_free = len(free_rows)
    # One more row, empty, is the node of every padding element.
    node_op = _csr(
        np.concatenate([rows, free_rows]),
        np.concatenate([node_v[rows, ents], cfg.n_sites + np.arange(n_free)]),
        np.concatenate([node_m[rows, ents] / k, np.ones(n_free)]),
        (len(first) + 1, cfg.n_sites + n_free),
    )
    node_of = node_of.reshape(len(pk_cell), len(ms))
    cell_flats = np.ravel_multi_index(cells.T, N)
    return HighOrderMesh(
        cfg=cfg,
        k=k,
        p1_masks=p1_masks,
        elem_ops=[node_op[_block_major(node_of[pk_perm == p], len(first))] for p in range(6)],
        elem_cells=[cell_flats[pk_cell[pk_perm == p]] for p in range(6)],
        n_free_nodes=n_free,
        n_elements=is_p1.size,
        n_p1_elements=int(np.count_nonzero(is_p1)),
        block=_PK_BLOCK,
    )


def _block_major(node_of: np.ndarray, empty: int) -> np.ndarray:
    """The node rows of elements (E, nloc) in the gather's block layout:
    blocks of _PK_BLOCK elements, node-major within a block, the last block
    padded with elements whose every node is the row ``empty``."""
    E, nloc = node_of.shape
    padded = np.full((-(-E // _PK_BLOCK) * _PK_BLOCK, nloc), empty, dtype=node_of.dtype)
    padded[:E] = node_of
    return padded.reshape(-1, _PK_BLOCK, nloc).transpose(0, 2, 1).ravel()


# ----------------------------------------------------------------------
# Assembly
# ----------------------------------------------------------------------

def high_order_energy(
    y: Deformation,
    R: InteractionSet,
    part: RegionPartition,
    k: int = 2,
    node_displacements: np.ndarray | None = None,
    degenerate_eta: str = "reject",
    *,
    gradient: bool = True,
) -> EnergyReport:
    """Coupled energy with a degree-k continuum: atomistic bonds and
    interface cones exactly as in the conforming model, with the continuum
    cells assembled as P1 elements on the interface layer and Pk elements
    elsewhere.

    ``node_displacements`` (n_free_nodes, 3) are the extra degrees of
    freedom of the Pk elements (default zero); the report's gradient is the
    lattice-site block and diagnostics["node_gradient"] the free-node block,
    both scaled like the lattice inner product (1/eps^3 times the partial
    derivative). ``gradient=False`` computes the same energy, excess and
    breakdown without either block: the report's gradient is None.
    """
    _check_degree(k)
    blocks, setup = _get_blocks(y, part, R, degenerate_eta)
    mesh = _fetch(setup, "mesh", _build_mesh, part, k)
    n_free = mesh.n_free_nodes
    if node_displacements is None:
        nodes = np.zeros((n_free, 3))
    else:
        nodes = np.asarray(node_displacements, dtype=float)
        if nodes.shape != (n_free, 3):
            raise ValueError(
                f"degree-{k} elements have {n_free} free nodes: node_displacements must have "
                f"shape ({n_free}, 3), got {nodes.shape}"
            )
    return _coupled(f"coupled-ho({k})", y, y, blocks, setup, part, mesh, nodes, gradient=gradient)

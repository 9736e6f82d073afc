"""Higher-order finite elements on the continuum region of the coupled model.

The continuum region keeps the staircase tetrahedral mesh (six tets per
cell). Elements whose closure meets the interface stay P1 on lattice
vertices, which ties the finite-element trace to the lattice displacement
there and lets the interface cones and atomistic bonds reuse the conforming
machinery unchanged; all other elements carry Lagrange elements of degree k.
Every term goes through the quadrature-bond kernel of ``energies`` and its
two operator kinds: the atomistic bonds and interface cones are the
conforming model's sparse gathers, the P1 layer is the staircase
Cauchy-Born roll stencil weighted per template on the P1 elements, and
each template's Pk elements are one sparse gather too: the CSR map
``HighOrderMesh.elem_ops[p]`` from [lattice sites | free nodes] to the
element-local node values, built once per mesh, with the shape-function
gradients times eta at the quadrature points as its coefficient block.

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
among the P1 elements' edges or faces.

Quadrature is a conical-product Gauss rule on the reference tetrahedron
(Jacobi weights absorb the collapsed-coordinate Jacobian), with n = k + 1
points per direction: exact for total degree 2k + 1, which covers both the
gradient integrals that make homogeneous states force-free and the energy
assembly margin.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import combinations

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .coupling import (
    RegionPartition,
    _atom_bonds,
    _check_partition,
    _cone_bonds,
    _csr,
    _get_blocks,
    coupled_energy_conforming,
    omega_star_mask,
)
from .energies import EnergyReport, _Gather, _staircase_stencils, _term, _timings
from .geometry import PATH_PERMS, path_corner_offsets
from .lattice import Deformation, LatticeConfig, LatticeField
from .potentials import InteractionSet

SUPPORTED_DEGREES = (1, 2, 3)


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
    it exactly.
    """
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
    part: RegionPartition
    k: int
    p1_masks: np.ndarray            # (6, N1, N2, N3) cells whose perm-tet is P1
    elem_ops: list                  # 6 CSR (E_p * nloc, n_sites + n_free_nodes) local node values
    elem_cells: list                # 6 arrays (E_p,) flat cell index per Pk element
    n_free_nodes: int
    n_elements: int
    n_p1_elements: int


# Meshes kept per process: enough for a few placements.
_MESH_CACHE_SIZE = 4


def build_high_order_mesh(cfg: LatticeConfig, part: RegionPartition, k: int) -> HighOrderMesh:
    if k not in SUPPORTED_DEGREES:
        raise ValueError(f"element degree must be one of {SUPPORTED_DEGREES}, got {k}")
    return _build_mesh(cfg, part, k)


@lru_cache(maxsize=_MESH_CACHE_SIZE)
def _build_mesh(cfg: LatticeConfig, part: RegionPartition, k: int) -> HighOrderMesh:
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
        _, ids = np.unique(np.concatenate([p1_sub, node_sub]), axis=0, return_inverse=True)
        slaved[on] = np.isin(ids.ravel()[len(p1_sub):], ids.ravel()[: len(p1_sub)])

    # Node values from [lattice sites | free nodes]: vertex and slaved nodes
    # are the linear interpolant m / k of their sub-simplex's lattice values,
    # free nodes are their own degrees of freedom.
    free = (size > 1) & ~slaved
    rows, ents = np.nonzero((node_m > 0) & ~free[:, None])
    free_rows = np.flatnonzero(free)
    n_free = len(free_rows)
    node_op = _csr(
        np.concatenate([rows, free_rows]),
        np.concatenate([node_v[rows, ents], cfg.n_sites + np.arange(n_free)]),
        np.concatenate([node_m[rows, ents] / k, np.ones(n_free)]),
        (len(first), cfg.n_sites + n_free),
    )
    node_of = node_of.reshape(len(pk_cell), len(ms))
    cell_flats = np.ravel_multi_index(cells.T, N)
    return HighOrderMesh(
        cfg=cfg,
        part=part,
        k=k,
        p1_masks=p1_masks,
        elem_ops=[node_op[node_of[pk_perm == p].ravel()] for p in range(6)],
        elem_cells=[cell_flats[pk_cell[pk_perm == p]] for p in range(6)],
        n_free_nodes=n_free,
        n_elements=is_p1.size,
        n_p1_elements=int(np.count_nonzero(is_p1)),
    )


# ----------------------------------------------------------------------
# Assembly
# ----------------------------------------------------------------------

def _pk_bonds(mesh: HighOrderMesh):
    def bonds(law):
        out = []
        for p, perm in enumerate(PATH_PERMS):
            cells = mesh.elem_cells[p]
            if cells.size:
                wts, gradN = _template_tables(mesh.k, perm)
                op = _Gather(mesh.elem_ops[p], gradN @ law.eta_vec, cells, mesh.cfg.N)
                out.append((op, np.tile(wts, cells.size)))
        return out

    return bonds


def high_order_energy(
    y: Deformation,
    R: InteractionSet,
    part: RegionPartition,
    k: int = 2,
    node_displacements: np.ndarray | None = None,
    degenerate_eta: str = "reject",
) -> EnergyReport:
    """Coupled energy with a degree-k continuum: atomistic bonds and
    interface cones exactly as in the conforming model, with the continuum
    cells assembled as P1 elements on the interface layer and Pk elements
    elsewhere.

    ``node_displacements`` (n_free_nodes, 3) are the extra degrees of
    freedom of the Pk elements (default zero); the report's gradient is the
    lattice-site block and diagnostics["node_gradient"] the free-node block,
    both scaled like the lattice inner product (1/eps^3 times the partial
    derivative).
    """
    cfg = y.cfg
    if k == 1:
        if node_displacements is not None and np.asarray(node_displacements).size:
            raise ValueError("degree-1 elements have no extra node displacements")
        rep = coupled_energy_conforming(y, R, part, degenerate_eta)
        return EnergyReport(
            energy=rep.energy,
            gradient=rep.gradient,
            model="coupled-ho(1)",
            excess=rep.excess,
            breakdown=rep.breakdown,
            diagnostics={**rep.diagnostics, "node_gradient": np.zeros((0, 3))},
        )
    mesh = build_high_order_mesh(cfg, part, k)
    _check_partition(part, R, degenerate_eta)
    blocks = _get_blocks(cfg, part, R, degenerate_eta)

    if node_displacements is None:
        node_disp = np.zeros((mesh.n_free_nodes, 3))
    else:
        node_disp = np.asarray(node_displacements, dtype=float)
        if node_disp.shape != (mesh.n_free_nodes, 3):
            raise ValueError(
                f"node_displacements must have shape ({mesh.n_free_nodes}, 3), "
                f"got {node_disp.shape}"
            )
    eps = cfg.epsilon
    vflat = y.displacement.values.reshape(-1, 3)
    x = np.concatenate([vflat, node_disp])
    gx = np.zeros(x.shape)
    gf = gx[: cfg.n_sites]
    p1_w = [m.ravel() / 6.0 for m in mesh.p1_masks]

    def p1_bonds(law):
        return zip(_staircase_stencils(law.eta, cfg.N), p1_w)

    atom = _term(R, _atom_bonds(blocks), y.F, vflat, eps, (gf,))
    p1 = _term(R, p1_bonds, y.F, vflat, eps, (gf,))
    pk = _term(R, _pk_bonds(mesh), y.F, x, eps, (gx,))
    cone = _term(R, _cone_bonds(blocks), y.F, vflat, eps, (gf,))

    counts = {str(law.eta): blocks[law.eta].counts for law in R}
    return EnergyReport(
        energy=atom.energy + (p1.energy + pk.energy) + cone.energy,
        gradient=LatticeField(cfg, gf.reshape(cfg.shape)),
        model=f"coupled-ho({k})",
        excess=atom.excess + (p1.excess + pk.excess) + cone.excess,
        breakdown={"atomistic": atom.energy, "continuum": p1.energy + pk.energy, "interface": cone.energy},
        diagnostics={
            "node_gradient": gx[cfg.n_sites:],
            "counts": counts,
            "n_elements": mesh.n_elements,
            "n_p1_elements": mesh.n_p1_elements,
            "n_free_nodes": mesh.n_free_nodes,
            **_timings(atomistic=atom, continuum_p1=p1, continuum_pk=pk, interface=cone),
        },
    )

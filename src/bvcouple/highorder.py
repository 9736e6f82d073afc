"""Higher-order finite elements on the continuum region of the coupled model.

The continuum region keeps the staircase tetrahedral mesh (six tets per
cell). Elements whose closure meets the interface stay P1 on lattice
vertices, which ties the finite-element trace to the lattice displacement
there and lets the interface cones and atomistic bonds reuse the conforming
machinery unchanged; all other elements carry Lagrange elements of degree k.
The P1 layer is assembled by the staircase Cauchy-Born helper shared with
the other models (``energies._staircase_cb_contrib``), masked per template
to the P1 elements.

Vertex degrees of freedom are the lattice displacements themselves. Edge,
face and interior nodes of degree-k elements are extra degrees of freedom,
except where such a node lies on the closure of a P1 element: there it is
slaved to the linear interpolant of the P1 element so the global field stays
continuous. For this mesh a node (with its supporting sub-simplex) lies on a
P1 element's closure exactly when some P1 element owns every vertex of that
sub-simplex, which is how slaving is detected.

Quadrature is a conical-product Gauss rule on the reference tetrahedron
(Jacobi weights absorb the collapsed-coordinate Jacobian), with n = k + 1
points per direction: exact for total degree 2k + 1, which covers both the
gradient integrals that make homogeneous states force-free and the energy
assembly margin.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.special import roots_jacobi, roots_legendre

from .coupling import (
    RegionPartition,
    _bond_contrib,
    _check_partition,
    _csr,
    _flat_index,
    _get_blocks,
    coupled_energy_conforming,
    omega_star_mask,
)
from .energies import EnergyReport, _diff_arrays, _staircase_cb_contrib
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


_TEMPLATE_CACHE: dict = {}


def _template_tables(k: int, perm) -> tuple[np.ndarray, np.ndarray]:
    """Per staircase template: quadrature weights (nq,) in lattice units and
    shape-function gradients (nq, nloc, 3) in lattice units."""
    key = (k, perm)
    got = _TEMPLATE_CACHE.get(key)
    if got is not None:
        return got
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
    _TEMPLATE_CACHE[key] = (wts, gradN)
    return wts, gradN


# ----------------------------------------------------------------------
# Mesh with mixed P1 / Pk elements
# ----------------------------------------------------------------------

@dataclass
class HighOrderMesh:
    """Staircase tetrahedral mesh of the continuum region with per-element
    degree (P1 on every element whose closure meets the interface, Pk
    elsewhere), global node table, and slaving data."""

    cfg: LatticeConfig
    part: RegionPartition
    k: int
    p1_masks: np.ndarray            # (6, N1, N2, N3) cells whose perm-tet is P1
    elems_by_perm: list             # 6 arrays (E_p, nloc) of global node ids
    node_op: sparse.csr_array       # (G, n_sites) node values from lattice values (0 rows: free)
    node_free: np.ndarray           # (G,) free-dof index or -1
    free_rows: np.ndarray           # (n_free,) node row per free dof
    free_keys: list                 # sorted integer position keys of free dofs
    n_elements: int
    n_p1_elements: int

    @property
    def n_free_nodes(self) -> int:
        return len(self.free_rows)


_MESH_CACHE: dict = {}


def build_high_order_mesh(cfg: LatticeConfig, part: RegionPartition, k: int) -> HighOrderMesh:
    if k not in SUPPORTED_DEGREES:
        raise ValueError(f"element degree must be one of {SUPPORTED_DEGREES}, got {k}")
    key = (cfg, part, k)
    got = _MESH_CACHE.get(key)
    if got is not None:
        return got

    N = cfg.N
    a, top = part.corner, part.top
    mask = omega_star_mask(part)
    cells = np.argwhere(mask)
    corner_offs = [np.asarray(path_corner_offsets(perm)) for perm in PATH_PERMS]

    def on_gamma(p) -> bool:
        inside = all(a[i] <= p[i] <= top[i] for i in range(3))
        return inside and any(p[i] == a[i] or p[i] == top[i] for i in range(3))

    # Pass 1: element vertex ids, P1 flags, vertex-to-element incidence.
    p1_masks = np.zeros((6,) + tuple(N), dtype=bool)
    v2t: dict[int, list[int]] = {}
    elem_vert_flats: list[tuple[int, ...]] = []
    elem_is_p1: list[bool] = []
    n_elements = 0
    for ci, cell in enumerate(cells):
        for p in range(6):
            verts = cell[None, :] + corner_offs[p]
            flats = tuple(_flat_index(v, N) for v in verts)
            e_id = len(elem_vert_flats)
            elem_vert_flats.append(flats)
            is_p1 = any(on_gamma(v) for v in verts)
            elem_is_p1.append(is_p1)
            if is_p1:
                p1_masks[(p,) + tuple(cell)] = True
            for f in flats:
                v2t.setdefault(f, []).append(e_id)
            n_elements += 1
    n_p1 = sum(elem_is_p1)

    # Pass 2: global nodes of the Pk elements.
    nodes_m = simplex_multi_indices(k)
    node_ids: dict[tuple, int] = {}
    # Node functionals as (node, flat site, weight) entries.
    op_rows: list[int] = []
    op_sites: list[int] = []
    op_weights: list[float] = []
    node_is_free: list[bool] = []
    node_keys: list[tuple] = []
    elems_rows: list[list[list[int]]] = [[] for _ in range(6)]

    kN = tuple(k * N[i] for i in range(3))
    e_id = -1
    for ci, cell in enumerate(cells):
        for p in range(6):
            e_id += 1
            if elem_is_p1[e_id]:
                continue
            verts = cell[None, :] + corner_offs[p]
            vflats = elem_vert_flats[e_id]
            row = []
            for m in nodes_m:
                pos_k = tuple(
                    int(sum(m[i] * verts[i][d] for i in range(4))) % kN[d]
                    for d in range(3)
                )
                nid = node_ids.get(pos_k)
                if nid is None:
                    nid = len(node_is_free)
                    node_ids[pos_k] = nid
                    node_keys.append(pos_k)
                    entity = [i for i in range(4) if m[i] > 0]
                    if len(entity) == 1:
                        # vertex node: backed by its lattice site
                        op_rows.append(nid)
                        op_sites.append(vflats[entity[0]])
                        op_weights.append(1.0)
                        node_is_free.append(False)
                    else:
                        shared = set(v2t.get(vflats[entity[0]], ()))
                        for i in entity[1:]:
                            shared &= set(v2t.get(vflats[i], ()))
                        slaved = any(elem_is_p1[t] for t in shared)
                        if slaved:
                            op_rows += [nid] * len(entity)
                            op_sites += [vflats[i] for i in entity]
                            op_weights += [m[i] / k for i in entity]
                        node_is_free.append(not slaved)
                row.append(nid)
            elems_rows[p].append(row)

    n_nodes = len(node_is_free)
    node_free = np.full(n_nodes, -1, dtype=np.int64)
    free_rows_unsorted = [i for i in range(n_nodes) if node_is_free[i]]
    free_rows = sorted(free_rows_unsorted, key=lambda i: node_keys[i])
    for idx, row in enumerate(free_rows):
        node_free[row] = idx
    mesh = HighOrderMesh(
        cfg=cfg,
        part=part,
        k=k,
        p1_masks=p1_masks,
        elems_by_perm=[
            np.asarray(rows, dtype=np.int64).reshape(len(rows), len(nodes_m))
            for rows in elems_rows
        ],
        node_op=_csr(op_rows, op_sites, op_weights, (n_nodes, cfg.n_sites)),
        node_free=node_free,
        free_rows=np.asarray(free_rows, dtype=np.int64),
        free_keys=[node_keys[i] for i in free_rows],
        n_elements=n_elements,
        n_p1_elements=n_p1,
    )
    _MESH_CACHE[key] = mesh
    return mesh


# ----------------------------------------------------------------------
# Assembly
# ----------------------------------------------------------------------

def _node_values(mesh: HighOrderMesh, vflat: np.ndarray, node_disp: np.ndarray) -> np.ndarray:
    vals = mesh.node_op @ vflat
    if mesh.n_free_nodes:
        vals[mesh.free_rows] += node_disp
    return vals


def _fe_pk_contrib(mesh, law, F, node_vals, eps, g_lat_outs=(), node_grad_out=None):
    """Degree-k element assembly; returns the energy and scatters the
    (1/eps^3-scaled) gradient to lattice sites and free nodes."""
    energy = 0.0
    want_grad = bool(g_lat_outs) or node_grad_out is not None
    pool = np.zeros((mesh.node_op.shape[0], 3)) if want_grad else None
    base = F @ law.eta_vec
    for p, perm in enumerate(PATH_PERMS):
        rows = mesh.elems_by_perm[p]
        if rows.shape[0] == 0:
            continue
        wts, gradN = _template_tables(mesh.k, perm)
        deta = gradN @ law.eta_vec                     # (nq, nloc)
        ev = node_vals[rows]                           # (E_p, nloc, 3)
        zeta = base + np.einsum("qn,enc->eqc", deta, ev) / eps
        zflat = zeta.reshape(-1, 3)
        vals = law.values(zflat).reshape(zeta.shape[:2])
        energy += float(eps**3 * np.sum(vals @ wts))
        if want_grad:
            P = law.gradients(zflat).reshape(zeta.shape)
            contrib = np.einsum("qn,eqc->enc", deta, P * wts[None, :, None]) / eps
            np.add.at(pool, rows, contrib)
    if g_lat_outs:
        contrib = mesh.node_op.T @ pool
        for g in g_lat_outs:
            g += contrib
    if node_grad_out is not None and mesh.n_free_nodes:
        node_grad_out += pool[mesh.free_rows]
    return energy


def high_order_energy(
    y: Deformation,
    R: InteractionSet,
    part: RegionPartition,
    k: int = 2,
    node_displacements: np.ndarray | None = None,
    mesh: HighOrderMesh | None = None,
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
    if k not in SUPPORTED_DEGREES:
        raise ValueError(f"element degree must be one of {SUPPORTED_DEGREES}, got {k}")
    if k == 1:
        if node_displacements is not None and np.asarray(node_displacements).size:
            raise ValueError("degree-1 elements have no extra node displacements")
        rep = coupled_energy_conforming(y, R, part, degenerate_eta)
        return EnergyReport(
            energy=rep.energy,
            gradient=rep.gradient,
            model="coupled-ho(1)",
            breakdown=rep.breakdown,
            diagnostics={**rep.diagnostics, "node_gradient": np.zeros((0, 3))},
        )
    if mesh is None:
        mesh = build_high_order_mesh(cfg, part, k)
    elif (mesh.cfg, mesh.part, mesh.k) != (cfg, part, k):
        raise ValueError("mesh does not match the requested lattice/partition/degree")
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
    v = y.displacement.values
    vflat = v.reshape(-1, 3)
    d = _diff_arrays(v, eps)
    g = np.zeros(cfg.shape)
    gf = g.reshape(-1, 3)
    node_grad = np.zeros((mesh.n_free_nodes, 3))
    node_vals = _node_values(mesh, vflat, node_disp)

    e_atom = 0.0
    for law in R:
        b = blocks[law.eta]
        e_atom += _bond_contrib(b.atom_op, b.atom_w, law, y.F, vflat, eps, (gf,))[0]
    e_fe = 0.0
    for law in R:
        e_fe += _staircase_cb_contrib(law, y.F, d, eps, mesh.p1_masks, (g,))
        e_fe += _fe_pk_contrib(mesh, law, y.F, node_vals, eps, (gf,), node_grad)
    e_cone = 0.0
    for law in R:
        b = blocks[law.eta]
        e_cone += _bond_contrib(b.cone_op, b.volw, law, y.F, vflat, eps, (gf,))[0]

    counts = {str(law.eta): blocks[law.eta].counts for law in R}
    return EnergyReport(
        energy=e_atom + e_fe + e_cone,
        gradient=LatticeField(cfg, g),
        model=f"coupled-ho({k})",
        breakdown={"atomistic": e_atom, "continuum": e_fe, "interface": e_cone},
        diagnostics={
            "node_gradient": node_grad,
            "counts": counts,
            "n_elements": mesh.n_elements,
            "n_p1_elements": mesh.n_p1_elements,
            "n_free_nodes": mesh.n_free_nodes,
        },
    )

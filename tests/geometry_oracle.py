"""Object-level geometry oracles for the tests: staircase tetrahedra with
physical vertices, the cell and bond-volume decompositions built from
them, the P1, per-tet discrete and cell-averaged gradients, the
difference-quotient field, the bond-volume classification of one site,
the scalar cone builder of one member, the per-covering interpolant (the
paper's globally continuous function) and the per-member builder of a
direction's assembly block.

The package computes these quantities as whole-array operators; the tests
compare those against the per-object forms here, which read only the
staircase table of ``bvcouple.geometry`` and the member classes of
``bvcouple.coupling``.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy import sparse

from bvcouple.coupling import (
    _CLASSES,
    _EDGE_OFFSETS,
    DEGENERATE_POLICIES,
    BondClass,
    RegionPartition,
    _build_eta_block,
    _csr,
    _EtaBlock,
    _GammaData,
    _get_blocks,
    _JumpOps,
    _member_box,
    _member_classes,
    _neighbour_classes,
    _plus_side_perm,
    omega_star_mask,
)
from bvcouple.energies import _ONE, _Csr, _Gather, _Weights, _weights
from bvcouple.geometry import PATH_PERMS, _staircase_simplices, enumerate_coverings, nondegenerate_eta
from bvcouple.lattice import IntTriple, LatticeConfig, LatticeField, make_deformation
from bvcouple.potentials import InteractionSet, make_law


@dataclass(frozen=True)
class Tetrahedron:
    """Tetrahedron with lattice-site vertices (positions scaled by epsilon)."""

    vertices: np.ndarray          # (4, 3) physical coordinates
    sites: tuple[IntTriple, ...]  # originating lattice sites (unwrapped)
    volume: float

    def edge_site_pairs(self):
        for i in range(4):
            for j in range(i + 1, 4):
                yield self.sites[i], self.sites[j]


@dataclass(frozen=True)
class TypeADecomposition:
    """Six-tetrahedron staircase decomposition of an axis-aligned box."""

    corner: IntTriple             # base lattice site
    tets: tuple[Tetrahedron, ...]


def _build_box_tets(ell, eta, cfg: LatticeConfig) -> tuple[Tetrahedron, ...]:
    vol = cfg.epsilon**3 * abs(int(eta[0] * eta[1] * eta[2])) / 6.0
    tets = []
    for sites in _staircase_simplices(ell, eta).tolist():
        verts = cfg.epsilon * np.asarray(sites, dtype=float)
        verts.flags.writeable = False
        tets.append(Tetrahedron(vertices=verts, sites=tuple(map(tuple, sites)), volume=vol))
    return tuple(tets)


def decompose_cell_type_a(ell, cfg: LatticeConfig) -> TypeADecomposition:
    """Decompose the unit cell at ell into the six staircase tetrahedra."""
    ell = tuple(int(x) for x in ell)
    return TypeADecomposition(
        corner=ell,
        tets=_build_box_tets(ell, (1, 1, 1), cfg),
    )


@dataclass(frozen=True)
class BondVolume:
    """Axis-aligned box whose main diagonal is the bond from ell to ell+eta."""

    base: IntTriple
    eta: IntTriple
    decomposition: TypeADecomposition


def decompose_bond_volume_type_a(ell, eta, cfg: LatticeConfig) -> BondVolume:
    """Staircase decomposition of the bond volume for a full 3D direction."""
    eta = nondegenerate_eta(eta)
    ell = tuple(int(x) for x in ell)
    deco = TypeADecomposition(corner=ell, tets=_build_box_tets(ell, eta, cfg))
    return BondVolume(base=ell, eta=eta, decomposition=deco)


def p1_gradient(tet: Tetrahedron, nodal: np.ndarray) -> np.ndarray:
    """Constant gradient of the affine function with the given vertex values.

    ``nodal`` is (4, 3): one value vector per vertex, ordered like the tet's
    vertices. Exact (up to rounding) for affine data.
    """
    nodal = np.asarray(nodal, dtype=float)
    A = tet.vertices[1:] - tet.vertices[0]
    B = nodal[1:] - nodal[0]
    try:
        X = np.linalg.solve(A, B)
    except np.linalg.LinAlgError as exc:
        raise ValueError("degenerate tetrahedron") from exc
    return X.T


def tilde_gradient(tet: Tetrahedron, u: LatticeField) -> np.ndarray:
    """Discrete gradient of a cell tet: column a is the difference quotient
    of u along the tet's (unique) edge parallel to e_a."""
    eps = u.cfg.epsilon
    G = np.full((3, 3), np.nan)
    for s_i, s_j in tet.edge_site_pairs():
        d = tuple(s_j[k] - s_i[k] for k in range(3))
        for axis in range(3):
            e = tuple(1 if k == axis else 0 for k in range(3))
            if d == e:
                G[:, axis] = (u.at(s_j) - u.at(s_i)) / eps
            elif d == tuple(-x for x in e):
                G[:, axis] = (u.at(s_i) - u.at(s_j)) / eps
    if np.any(np.isnan(G)):
        raise ValueError("tetrahedron is not a unit-cell staircase tet")
    return G


def averaged_gradient(ell, u: LatticeField) -> np.ndarray:
    """Cell-averaged discrete gradient: column a averages the four difference
    quotients along e_a based at ell shifted by the other two axes."""
    eps = u.cfg.epsilon
    ell = tuple(int(x) for x in ell)
    G = np.empty((3, 3))
    for a in range(3):
        b, c = [d for d in range(3) if d != a]
        e_a = tuple(1 if k == a else 0 for k in range(3))
        col = np.zeros(3)
        for s_b in (0, 1):
            for s_c in (0, 1):
                base = tuple(
                    ell[k] + s_b * (k == b) + s_c * (k == c) for k in range(3)
                )
                top = tuple(base[k] + e_a[k] for k in range(3))
                col += u.at(top) - u.at(base)
        G[:, a] = col / (4.0 * eps)
    return G


def diff_quotient_field(u: LatticeField, eta) -> np.ndarray:
    """(u_{l+eta} - u_l)/epsilon at every site, as an (N1,N2,N3,3) array."""
    eta = tuple(int(e) for e in eta)
    if eta == (0, 0, 0):
        raise ValueError("difference quotient needs a nonzero direction")
    return (np.roll(u.values, shift=tuple(-e for e in eta), axis=(0, 1, 2)) - u.values) / u.cfg.epsilon


def classify_bond_volume(part: RegionPartition, ell, eta) -> BondClass:
    """Classify the bond volume of (ell, eta) against the region partition:
    strictly inside the atomistic box, disjoint from it, or interface."""
    eta = nondegenerate_eta(eta)
    ell = tuple(int(x) % part.cfg.N[i] for i, x in enumerate(ell))
    return _CLASSES[int(_member_classes(*_member_box(ell, eta), part))]


# ----------------------------------------------------------------------
# Scalar cone builder, one member at a time
# ----------------------------------------------------------------------

# A cone vertex is a tuple of integer lattice points standing for their
# mean, in position and in value: one point for a lattice vertex, the 4 face
# corners for a fan centre, the 8 corners of P for the apex. A triangle is
# (three vertices, meta), where meta is (axis, nu_sign, half) for a fine
# triangle on the interface surface, half being "lower" (00,10,11) or
# "upper" (00,11,01), and None otherwise.

def _mk_point(i, plane, j, pj, k, pk):
    q = [0, 0, 0]
    q[i] = plane
    q[j] = pj
    q[k] = pk
    return tuple(q)


def _fine_face(i, plane, j, jlo, jhi, k, klo, khi, nu_sign):
    """Unit-square triangulation with the cell template's main diagonals."""
    tris = []
    for mj in range(jlo, jhi):
        for mk in range(klo, khi):
            p00 = (_mk_point(i, plane, j, mj, k, mk),)
            p10 = (_mk_point(i, plane, j, mj + 1, k, mk),)
            p11 = (_mk_point(i, plane, j, mj + 1, k, mk + 1),)
            p01 = (_mk_point(i, plane, j, mj, k, mk + 1),)
            tris.append(((p00, p10, p11), (i, nu_sign, "lower")))
            tris.append(((p00, p11, p01), (i, nu_sign, "upper")))
    return tris


def _junction_face(i, plane, j, jlo, jhi, k, klo, khi, eta):
    """Full box face split by the diagonal of the box's own staircase
    template (the trace the coarse box interpolant of the atomistic
    neighbor induces)."""
    p00 = (_mk_point(i, plane, j, jlo, k, klo),)
    p10 = (_mk_point(i, plane, j, jhi, k, klo),)
    p11 = (_mk_point(i, plane, j, jhi, k, khi),)
    p01 = (_mk_point(i, plane, j, jlo, k, khi),)
    if eta[j] * eta[k] > 0:
        return [((p00, p10, p11), None), ((p00, p11, p01), None)]
    return [((p10, p11, p01), None), ((p10, p01, p00), None)]


def _edge_breakpoints(span_dim, lo, hi, fixed, a, top):
    """Interior lattice points of an axis-aligned edge that lies within a
    closed facet of the interface surface (where neighboring cones may place
    fine-triangle vertices, so this edge must carry them too); ``a`` and
    ``top`` are the atomistic box's corners."""
    for f, val in fixed.items():
        if val not in (a[f], top[f]):
            continue
        ok = a[span_dim] <= lo and hi <= top[span_dim]
        for g, vg in fixed.items():
            if g != f and not (a[g] <= vg <= top[g]):
                ok = False
        if ok:
            return list(range(lo + 1, hi))
    return []


def _fan_face(i, plane, j, jlo, jhi, k, klo, khi, a, top):
    """Fan from the face centroid (the mean of the 4 corners), with lattice
    breakpoints on edges lying within closed interface facets."""
    corners = (
        _mk_point(i, plane, j, jlo, k, klo),
        _mk_point(i, plane, j, jhi, k, klo),
        _mk_point(i, plane, j, jhi, k, khi),
        _mk_point(i, plane, j, jlo, k, khi),
    )
    sides = [
        (j, jlo, jhi, k, klo, False),
        (k, klo, khi, j, jhi, False),
        (j, jlo, jhi, k, khi, True),
        (k, klo, khi, j, jlo, True),
    ]
    poly = []
    for idx, (sd, s_lo, s_hi, od, oval, rev) in enumerate(sides):
        poly.append(corners[idx])
        breaks = _edge_breakpoints(sd, s_lo, s_hi, {i: plane, od: oval}, a, top)
        if rev:
            breaks = breaks[::-1]
        poly += [_mk_point(i, plane, sd, t, od, oval) for t in breaks]
    return [((corners, (p,), (q,)), None) for p, q in zip(poly, poly[1:] + poly[:1])]


def _build_member_cone(mu, w, eta, part: RegionPartition, reduce_mode: bool, nb_cls):
    """Apex and surface triangulation of P = member box ^ Omega_a.

    ``nb_cls[i][s]`` is the class code of the face neighbour below (s = 0)
    or above (s = 1) the member along axis i (``_neighbour_classes``)."""
    a, top = part.corner, part.top
    lo = tuple(max(mu[d], a[d]) for d in range(3))
    hi = tuple(min(mu[d] + w[d], top[d]) for d in range(3))
    tris = []
    for i in range(3):
        j, k = [d for d in range(3) if d != i]
        for plane, ncls in zip((lo[i], hi[i]), nb_cls[i]):
            face = (i, plane, j, lo[j], hi[j], k, lo[k], hi[k])
            if plane == a[i] or plane == top[i]:
                tris.extend(_fine_face(*face, -1 if plane == a[i] else +1))
            elif reduce_mode or ncls == 1:
                tris.extend(_fan_face(*face, a, top))
            elif ncls == 2:
                # A strictly interior neighbor forces P to be unclipped in
                # the face's own dimensions, so this is the full box face.
                assert lo[j] == mu[j] and hi[j] == mu[j] + w[j]
                assert lo[k] == mu[k] and hi[k] == mu[k] + w[k]
                tris.extend(_junction_face(*face, eta))
            else:
                raise AssertionError(
                    "interior cone face cannot border a continuum member"
                )
    apex = tuple((x, y, z) for x in (lo[0], hi[0]) for y in (lo[1], hi[1]) for z in (lo[2], hi[2]))
    return apex, tris


def _cone_points(tets):
    """Lattice points (P, 3) of cone tets (each a 4-tuple of vertices) in
    (tet, vertex, point) order, the point count of each vertex (4T,), and
    the vertex positions (T, 4, 3), each the mean of its points (exact: the
    counts are 1, 4 and 8)."""
    verts = list(chain.from_iterable(tets))
    n_pts = np.fromiter(map(len, verts), dtype=np.int64, count=len(verts))
    pts = np.fromiter(chain.from_iterable(chain.from_iterable(verts)), dtype=np.int64).reshape(-1, 3)
    pos = np.add.reduceat(pts, np.cumsum(n_pts) - n_pts) / n_pts[:, None]
    return pts, n_pts, pos.reshape(-1, 4, 3)


# ----------------------------------------------------------------------
# Per-covering interpolant descriptor
# ----------------------------------------------------------------------

@dataclass
class MemberPiece:
    """Tetrahedra of one member bond volume's interpolant piece."""

    base: IntTriple
    kind: str                 # atomistic | continuum | interface-cone | interface-remainder
    positions: np.ndarray     # (T, 4, 3) physical coordinates
    gradients: np.ndarray     # (T, 3, 3) physical gradients of the interpolant
    volumes: np.ndarray       # (T,)
    vertex_values: np.ndarray  # (T, 4, 3) interpolant values at the vertices
    box: tuple[IntTriple, IntTriple]  # (min corner, widths) in cell units


@dataclass
class CoveringInterpolant:
    """Piecewise-linear interpolant of one covering: coarse box interpolants
    on atomistic members, the fine cell interpolant on continuum members and
    on the outer remainder of interface members, cones on their inner part."""

    eta: IntTriple
    index: int
    pieces: list[MemberPiece]
    cfg: LatticeConfig

    def integral_gradient_eta(self) -> np.ndarray:
        """integral over the torus of grad(v) eta (one covering)."""
        out = np.zeros(3)
        etaf = np.asarray(self.eta, dtype=float)
        for p in self.pieces:
            out += np.einsum("t,tij,j->i", p.volumes, p.gradients, etaf)
        return out

    def pieces_for_cell(self, cell) -> list[MemberPiece]:
        cell = tuple(int(c) for c in cell)
        N = self.cfg.N
        out = []
        for p in self.pieces:
            mu, w = p.box
            if all((cell[d] - mu[d]) % N[d] < w[d] for d in range(3)):
                out.append(p)
        return out


def _batch_tet_data(positions: np.ndarray, values: np.ndarray):
    A = positions[:, 1:] - positions[:, :1]
    Bv = values[:, 1:] - values[:, :1]
    X = np.linalg.solve(A, Bv)
    G = np.transpose(X, (0, 2, 1))
    vols = np.abs(np.linalg.det(A)) / 6.0
    return G, vols


def covering_interpolant(
    m: int, eta, u: LatticeField, part: RegionPartition
) -> CoveringInterpolant:
    """Build the per-tet descriptor of covering m's interpolant of u: the
    cones come from ``_build_member_cone``, one member at a time."""
    eta = nondegenerate_eta(eta)
    cfg = u.cfg
    coverings = enumerate_coverings(eta, cfg)
    if not 0 <= m < len(coverings):
        raise ValueError(f"covering index m={m} is outside [0, n_eta) = [0, {len(coverings)}) for eta={eta}")
    cov = coverings[m]
    eps = cfg.epsilon
    pieces: list[MemberPiece] = []

    def piece(base, kind, corners, diag, box):
        """Member piece on the staircase tets of the boxes of diagonal
        ``diag`` at ``corners``, its values gathered from u in one pass."""
        sites = _staircase_simplices(corners, diag).reshape(-1, 4, 3)
        val = u.values[tuple(np.moveaxis(sites % cfg.N, -1, 0))]
        pos = eps * sites.astype(float)
        G, vols = _batch_tet_data(pos, val)
        return MemberPiece(base, kind, pos, G, vols, val, box)

    mus, w = _member_box(cov.base_sites, eta)
    codes = _member_classes(mus, w, part)
    nb_codes = _neighbour_classes(mus, w, part).tolist()
    cell_offsets = np.indices(w).reshape(3, -1).T
    w = tuple(w.tolist())
    for base, mu, code, nb in zip(cov.base_sites, mus, codes, nb_codes):
        box = (tuple(mu.tolist()), w)
        cls = _CLASSES[code]
        if cls is BondClass.ATOMISTIC:
            pieces.append(piece(base, "atomistic", base, eta, box))
            continue
        cells = mu + cell_offsets
        if cls is BondClass.CONTINUUM:
            pieces.append(piece(base, "continuum", cells, (1, 1, 1), box))
            continue
        apex, tris = _build_member_cone(box[0], w, eta, part, False, nb)
        pts, n_pts, pos = _cone_points([(apex,) + tri for tri, _meta in tris])
        pos = eps * pos
        # vertex values: the mean of the points' values, each sum taken one
        # point at a time from +0.0 (the bits of Python's sum)
        vals = u.values[tuple(np.moveaxis(pts % cfg.N, -1, 0))]
        first = np.cumsum(n_pts) - n_pts
        total = np.zeros((len(n_pts), 3))
        for slot in range(n_pts.max()):
            has = n_pts > slot
            total[has] += vals[first[has] + slot]
        val = (total / n_pts[:, None]).reshape(-1, 4, 3)
        G, vols = _batch_tet_data(pos, val)
        pieces.append(MemberPiece(base, "interface-cone", pos, G, vols, val, box))
        outer = cells[_member_classes(cells, 1, part) == 0]
        if len(outer):
            pieces.append(piece(base, "interface-remainder", outer, (1, 1, 1), box))
    return CoveringInterpolant(eta=eta, index=m, pieces=pieces, cfg=cfg)


# ----------------------------------------------------------------------
# Per-member block builder
# ----------------------------------------------------------------------

def per_member_eta_block(cfg: LatticeConfig, part: RegionPartition, eta: IntTriple) -> tuple[_EtaBlock, _JumpOps]:
    """The block of one direction and its jump operators, built as
    ``coupling._build_eta_block`` once did: ``_build_member_cone`` called
    for every interface member with that member's own neighbour classes,
    the points of all cone tets flattened together, the edge matrices of
    every tet inverted, and the jump operators built with the block.
    ``part`` must have passed the partition check, so a zero component of
    eta means the ``reduce`` members."""
    N = cfg.N
    n_sites = cfg.n_sites
    zero = [d for d in range(3) if eta[d] == 0]
    n_eta = int(np.prod([abs(e) for e in eta if e != 0]))

    def flat(sites):
        return np.ravel_multi_index(np.moveaxis(np.asarray(sites, dtype=np.int64), -1, 0), N, mode="wrap")

    ells = np.indices(N).reshape(3, -1).T
    mu, w = _member_box(ells, eta)
    cls = _member_classes(mu, w, part)
    n_cls = np.bincount(cls, minlength=3)
    counts = {c.value: int(n_cls[_CLASSES.index(c)]) for c in BondClass}
    atomistic, interface = cls == 2, cls == 1

    offsets = np.zeros((2 ** len(zero), 3), dtype=np.int64)
    for bit, d in enumerate(zero):
        offsets[:, d] = (np.arange(len(offsets)) >> bit) & 1
    base = (ells[atomistic][:, None, :] + offsets).reshape(-1, 3)
    n_bonds = len(base)
    ends = flat(np.stack([base + np.asarray(eta), base], axis=1))
    atom_op = _Gather(
        _csr(np.repeat(np.arange(n_bonds), 2), ends.ravel(), np.tile([1.0, -1.0], n_bonds),
             (n_bonds, n_sites)),
        _ONE,
        ends[:, 1],
        N,
    )

    tets = []
    tet_sites: list[IntTriple] = []
    g_rows: list[tuple[int, int, int, int]] = []
    w_t = tuple(w.tolist())
    nb = _neighbour_classes(mu[interface], w, part).tolist()
    for ell, mu_t, nb_t in zip(ells[interface].tolist(), mu[interface].tolist(), nb):
        apex, tris = _build_member_cone(mu_t, w_t, eta, part, bool(zero), nb_t)
        tet_sites += [ell] * len(tris)
        for tri, meta in tris:
            if meta is not None and eta[meta[0]] != 0:
                g_rows.append((len(tets), meta[0], meta[1], PATH_PERMS.index(_plus_side_perm(*meta))))
            tets.append((apex,) + tri)

    pts, n_pts, pos = _cone_points(tets)
    A = pos[:, 1:] - pos[:, :1]
    volw = np.abs(np.linalg.det(A)) / 6.0 / n_eta
    m = np.einsum("r,trs->ts", np.asarray(eta, dtype=float), np.linalg.inv(A))
    weights = np.concatenate([-m.sum(axis=1, keepdims=True), m], axis=1).ravel()
    cone_op = _csr(np.repeat(np.arange(len(n_pts)) // 4, n_pts), flat(pts),
                   np.repeat(weights * (1.0 / n_pts), n_pts), (len(tets), n_sites))

    g_tet, g_axis, g_sign, g_perm = np.asarray(g_rows, dtype=np.int64).reshape(-1, 4).T
    n_tri = len(g_tet)
    tri_sites = pts[(np.cumsum(n_pts) - n_pts).reshape(-1, 4)[g_tet, 1:]]
    eye = np.eye(3, dtype=np.int64)
    cell = tri_sites[:, 0] - (g_sign < 0)[:, None] * eye[g_axis]
    assert omega_star_mask(part)[tuple(np.mod(cell, N).T)].all(), \
        "outer interface cell must be continuum"
    axes = [a for a in range(3) if eta[a] != 0]
    edge_base = cell[:, None, :] + _EDGE_OFFSETS[g_perm][:, axes]
    edges = flat(np.stack([edge_base + eye[axes], edge_base], axis=2))
    eta_a = np.asarray(eta, dtype=float)[axes]
    jump = _JumpOps(
        minus_op=cone_op[g_tet],
        plus_op=_csr(np.repeat(np.arange(n_tri), 2 * len(axes)), edges.ravel(),
                     np.tile(np.stack([eta_a, -eta_a], axis=1).ravel(), n_tri), (n_tri, n_sites)),
        trace_op=_csr(np.repeat(np.arange(n_tri), 3), flat(tri_sites).ravel(), np.ones(3 * n_tri),
                      (n_tri, n_sites)),
    )
    block = _EtaBlock(
        eta=eta,
        n_eta=n_eta,
        atom_op=atom_op,
        atom_w=_weights(np.full(n_bonds, 1.0 / len(offsets))),
        cone_op=_Gather(cone_op, _ONE, flat(tet_sites), N),
        volw=_weights(volw),
        gamma=_GammaData(g_tet, (g_sign * np.asarray(eta)[g_axis]).astype(float), tri_sites, cell, g_perm),
        counts=counts,
    )
    return block, jump


def _array_fields(obj, name):
    """(name, array) pairs of everything a block field holds."""
    if isinstance(obj, _Csr):
        yield from ((f"{name}.{a}", getattr(obj, a)) for a in ("data", "indices", "indptr"))
        yield from ((f"{name}.{a}", np.asarray(getattr(obj, a))) for a in ("shape", "format"))
    elif isinstance(obj, _Gather):
        yield from _array_fields(obj.G, f"{name}.G")
        yield from ((f"{name}.{a}", getattr(obj, a)) for a in ("coef", "sites"))
        yield f"{name}.N", np.asarray(obj.N)
    elif isinstance(obj, _Weights):
        yield from ((f"{name}.{a}", np.asarray(getattr(obj, a))) for a in ("w", "zero", "total"))
    elif isinstance(obj, (_GammaData, _JumpOps)):
        for a in obj.__dataclass_fields__:
            yield from _array_fields(getattr(obj, a), f"{name}.{a}")
    else:
        yield name, np.asarray(obj)


def scipy_csr(G: _Csr) -> sparse.csr_array:
    """The ``scipy.sparse.csr_array`` on the arrays of a CSR map, for the
    tests that read what only scipy's arrays have."""
    assert G.format == "csr"
    return sparse.csr_array((G.data, G.indices, G.indptr), shape=G.shape)


def block_mismatches(block: _EtaBlock, ref: _EtaBlock, ref_jump: _JumpOps) -> list[str]:
    """Names of the fields in which a block, its lazily built jump
    operators included, differs from a reference block and its jump
    operators in dtype or in any byte; the counts must be equal dicts."""
    bad = [] if block.counts == ref.counts else ["counts"]
    pairs = [(f, getattr(block, f), getattr(ref, f))
             for f in ("eta", "n_eta", "atom_op", "atom_w", "cone_op", "volw", "gamma")]
    for field, got, want in pairs + [("jump", block.jump, ref_jump)]:
        for (name, a), (_, b) in zip(_array_fields(got, field), _array_fields(want, field), strict=True):
            if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
                bad.append(name)
    return bad


def oracle_placements(N: int) -> tuple[tuple[IntTriple, IntTriple], ...]:
    """Region placements checked against the per-member builder on the cube
    of side N (a multiple of 3): the centred cube of side N/3 and an
    off-centre box beside it; at N = 12 these are (4,4,4)+(4,4,4) and
    (3,5,4)+(5,3,4)."""
    c = N // 3
    return (((c, c, c), (c, c, c)), ((c - 1, c + 1, c), (c + 1, c - 1, c)))


def oracle_block_mismatches(N: int, etas, policies=DEGENERATE_POLICIES, placements=None) -> list[tuple]:
    """(corner, policy, eta, field) of every block field in which
    ``coupling._build_eta_block`` differs from ``per_member_eta_block`` on
    the cube of side N, at each (corner, extents) of ``placements``
    (default ``oracle_placements(N)``) and each policy (under "reject", the
    directions without a zero component). Each policy's blocks are built
    afresh, through ``coupling._get_blocks``."""
    cfg = LatticeConfig(N=(N,) * 3, epsilon=1.0 / N)
    y = make_deformation(np.eye(3), LatticeField.zeros(cfg))
    bad = []
    for corner, ext in placements or oracle_placements(N):
        part = RegionPartition(cfg, corner, ext)
        refs = {tuple(eta): per_member_eta_block(cfg, part, tuple(eta)) for eta in etas}
        for policy in policies:
            R = InteractionSet([make_law(eta, "harmonic") for eta in refs if policy == "reduce" or 0 not in eta])
            _build_eta_block.cache_clear()
            for law, block in _get_blocks(y, part, R, policy)[0]:
                bad += [(corner, policy, law.eta, name) for name in block_mismatches(block, *refs[law.eta])]
    return bad


# ----------------------------------------------------------------------
# High-order mesh slaving by row-wise unique ids
# ----------------------------------------------------------------------

def row_unique_keys(rows, n):
    """The keys of the rows of sorted sub-simplex sites as
    ``highorder._build_mesh`` once made them for its slaving step: the ids
    of the rows under ``np.unique(..., axis=0)``."""
    return np.unique(rows, axis=0, return_inverse=True)[1].ravel()


def mesh_mismatches(mesh, ref) -> list[str]:
    """Names of the fields in which a high-order mesh differs from a
    reference mesh in dtype, shape or any byte; the lattice configs must
    be equal."""
    bad = [] if mesh.cfg == ref.cfg else ["cfg"]
    for field in mesh.__dataclass_fields__.keys() - {"cfg"}:
        got, want = getattr(mesh, field), getattr(ref, field)
        if not isinstance(got, list):
            got, want = [got], [want]
        pairs = [(name, a, b) for i, (x, y) in enumerate(zip(got, want, strict=True))
                 for (name, a), (_, b) in zip(_array_fields(x, f"{field}[{i}]"), _array_fields(y, ""), strict=True)]
        bad += [name for name, a, b in pairs
                if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes()]
    return bad

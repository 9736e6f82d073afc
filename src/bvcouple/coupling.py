"""Region partition, bond-volume classification, and the coupled energies:
conforming, discontinuous (two-sided), and the naive control.

The coupled energy splits every interaction direction eta into three parts:
bonds whose volume sits strictly inside the atomistic region contribute their
exact bond energy; the complement region carries the staircase-tetrahedron
Cauchy-Born energy over its cells; and bond volumes meeting the interface
contribute the integral of the potential over B intersect Omega_a at weight
1/|eta1 eta2 eta3|, evaluated on a piecewise-linear interpolant built per
bond volume.

The interface interpolant is a cone: its apex sits at the centroid of
P = B intersect Omega_a (carrying the mean of P's corner values) over a
surface triangulation of P chosen face by face so that traces match the
neighboring description exactly — fine unit triangles on the interface
surface (matching the continuum side), the box template's own diagonal split
against atomistic-classified neighbors (matching the coarse box interpolant
implied by the bond-volume integral identity), and centroid fans between
interface neighbors (identical from both sides). Every vertex value is an
affine combination of lattice values that reproduces affine fields exactly,
which is what makes homogeneous deformations energy-exact and force-free.

Directions with zero components have no 3D bond volume; the ``reduce``
policy replaces them by unit-thickness members (prisms for one zero
component, unit-column rods for two) whose atomistic weights average the
member's parallel bond copies, with fan-faced cones at the interface. Faces
whose normal is orthogonal to eta carry no coupling flux, so their
triangulation only needs to agree between neighboring members (it does: the
fan is symmetric); the remaining faces match in integral against the
averaged bonds by the fan's mean-value center.

Every term is a weighted sum of phi_eta(F eta + (B v)_q / eps) over
"quadrature bonds" q, where B is a fixed linear map of the lattice
displacement v: the atomistic bonds (+1/-1 rows), each interface cone tet
(eta^T A^-1 applied to the vertex values of the cone interpolant, which are
themselves affine combinations of lattice values), and the two sides of the
interface jump. Each such B is precomputed once per (partition, direction)
as a sparse CSR operator; an evaluation applies it, evaluates the law, and
applies its transpose to the weighted law gradients. The sparse products
run sequentially in a fixed order, so results are deterministic and
bit-reproducible.

The continuum term of every model here is the staircase Cauchy-Born
assembly of ``energies``, shared with the uncoupled and high-order models
and restricted to the continuum cells by a mask; the naive control also
shares the atomistic model's exact-bond stencil.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Sequence

import numpy as np
from scipy import sparse

from .energies import (
    EnergyReport,
    _diff_arrays,
    _exact_bond_contrib,
    _staircase_cb_contrib,
)
from .geometry import (
    CoveringMismatch,
    DegenerateEta,
    covering_widths,
    decompose_bond_volume_type_a,
    decompose_cell_type_a,
    enumerate_coverings,
    path_edge_offsets,
)
from .lattice import Deformation, IntTriple, LatticeConfig, LatticeField
from .potentials import InteractionLaw, InteractionSet

DEGENERATE_POLICIES = ("reject", "reduce")


# ======================================================================
# Region partition and classification
# ======================================================================

class BondClass(Enum):
    ATOMISTIC = "atomistic"
    CONTINUUM = "continuum"
    INTERFACE = "interface"


@dataclass(frozen=True)
class RegionPartition:
    """Axis-aligned box of whole cells forming the atomistic region.

    ``corner`` and ``extents`` are in cell coordinates; the box must sit
    strictly inside the fundamental domain (direction-dependent clearance is
    validated against the interaction set when an energy is assembled).
    """

    cfg: LatticeConfig
    corner: IntTriple
    extents: IntTriple

    def __post_init__(self) -> None:
        corner = tuple(int(c) for c in self.corner)
        extents = tuple(int(e) for e in self.extents)
        object.__setattr__(self, "corner", corner)
        object.__setattr__(self, "extents", extents)
        if any(e < 1 for e in extents):
            raise ValueError(f"region extents must be positive, got {extents}")
        for i in range(3):
            if not (0 < corner[i] and corner[i] + extents[i] < self.cfg.N[i]):
                raise ValueError(
                    f"atomistic region [{corner[i]}, {corner[i] + extents[i]}] must be "
                    f"strictly interior to [0, {self.cfg.N[i]}] in dimension {i}"
                )

    @property
    def top(self) -> IntTriple:
        return tuple(self.corner[i] + self.extents[i] for i in range(3))  # type: ignore[return-value]

    def contains_cell(self, cell) -> bool:
        return all(self.corner[i] <= cell[i] < self.top[i] for i in range(3))

    def gamma_faces(self) -> list["GammaFace"]:
        """All unit interface faces with the atomistic-side outward normal."""
        faces = []
        for i in range(3):
            j, k = [d for d in range(3) if d != i]
            for plane, sign in ((self.corner[i], -1), (self.top[i], +1)):
                for sj in range(self.corner[j], self.top[j]):
                    for sk in range(self.corner[k], self.top[k]):
                        sq = [0, 0, 0]
                        sq[i] = plane
                        sq[j] = sj
                        sq[k] = sk
                        faces.append(GammaFace(axis=i, plane=plane, square=tuple(sq), nu_sign=sign))
        return faces


@dataclass(frozen=True)
class GammaFace:
    """One unit interface face; ``nu_sign`` orients the atomistic-side
    outward normal as nu_a = nu_sign * e_axis (the continuum side's normal
    is its negative). ``square`` is the face's minimal corner."""

    axis: int
    plane: int
    square: IntTriple
    nu_sign: int


def jump_average(face: GammaFace, w_minus, w_plus, eta):
    """Jump [[w eta]] = (nu_a . eta) w- + (nu_* . eta) w+ and average
    <w> = (w- + w+)/2 of a two-sided trace on an interface face."""
    n = float(face.nu_sign * eta[face.axis])
    w_minus = np.asarray(w_minus, dtype=float)
    w_plus = np.asarray(w_plus, dtype=float)
    jump = n * w_minus + (-n) * w_plus
    avg = 0.5 * (w_minus + w_plus)
    return jump, avg


def _member_box(ell, eta) -> tuple[IntTriple, IntTriple]:
    """Min corner and widths of the member box owning the bond at ell.

    Zero components of eta get unit thickness (the reduce members); nonzero
    components span the bond volume."""
    mu = []
    w = []
    for d in range(3):
        e = int(eta[d])
        if e != 0:
            mu.append(int(ell[d]) + min(e, 0))
            w.append(abs(e))
        else:
            mu.append(int(ell[d]))
            w.append(1)
    return tuple(mu), tuple(w)  # type: ignore[return-value]


def _classify_box(mu, w, part: RegionPartition):
    a, top = part.corner, part.top
    lo = tuple(max(mu[d], a[d]) for d in range(3))
    hi = tuple(min(mu[d] + w[d], top[d]) for d in range(3))
    if any(hi[d] <= lo[d] for d in range(3)):
        return BondClass.CONTINUUM, None, None
    if all(mu[d] > a[d] and mu[d] + w[d] < top[d] for d in range(3)):
        return BondClass.ATOMISTIC, None, None
    return BondClass.INTERFACE, lo, hi


def classify_bond_volume(part: RegionPartition, ell, eta) -> BondClass:
    """Classify the bond volume of (ell, eta) against the region partition:
    strictly inside the atomistic box, disjoint from it, or interface."""
    eta = tuple(int(e) for e in eta)
    if eta[0] * eta[1] * eta[2] == 0:
        raise DegenerateEta(
            f"bond volume classification needs all eta components nonzero, got {eta}; "
            "the reduce policy classifies unit-thickness members instead"
        )
    ell = tuple(int(x) % part.cfg.N[i] for i, x in enumerate(ell))
    mu, w = _member_box(ell, eta)
    return _classify_box(mu, w, part)[0]


def required_clearance(etas: Sequence[IntTriple]) -> int:
    return max(abs(int(e)) for eta in etas for e in eta)


def partition_violations(part: RegionPartition, etas: Sequence[IntTriple], policy: str) -> list[str]:
    """All constraint violations of a partition against an interaction set."""
    msgs = []
    if policy not in DEGENERATE_POLICIES:
        msgs.append(f"degenerate_eta policy must be one of {DEGENERATE_POLICIES}, got {policy!r}")
    margin = required_clearance(etas)
    cfg = part.cfg
    for i in range(3):
        if part.corner[i] < margin or part.top[i] > cfg.N[i] - margin:
            msgs.append(
                f"atomistic region [{part.corner[i]}, {part.top[i]}] needs {margin} cells of "
                f"clearance inside [0, {cfg.N[i]}] in dimension {i}"
            )
    for eta in etas:
        for i in range(3):
            if eta[i] != 0 and cfg.N[i] % abs(eta[i]) != 0:
                msgs.append(
                    f"N={cfg.N} is not divisible by |eta_{i}|={abs(eta[i])} for eta={tuple(eta)}; "
                    "coverings cannot close on the torus"
                )
        if policy == "reject" and eta[0] * eta[1] * eta[2] == 0:
            msgs.append(
                f"eta={tuple(eta)} has a zero component and degenerate_eta policy is 'reject'"
            )
    return msgs


def _check_partition(part: RegionPartition, R: InteractionSet, policy: str) -> None:
    etas = [law.eta for law in R]
    msgs = partition_violations(part, etas, policy)
    if msgs:
        if any("zero component" in m for m in msgs) and len(msgs) == sum(
            "zero component" in m for m in msgs
        ):
            raise DegenerateEta("; ".join(msgs))
        if any("divisible" in m for m in msgs) and all(
            "divisible" in m or "zero component" in m for m in msgs
        ):
            raise CoveringMismatch("; ".join(msgs))
        raise ValueError("; ".join(msgs))


# ======================================================================
# Interface cone construction (build time, integer lattice units)
# ======================================================================

# A vertex is (position (3,) float lattice units, functional: list of
# (lattice site triple, coefficient)); triangles are 3-vertex tuples with
# optional interface metadata for the discontinuous variant.

def _lat_vertex(p):
    return (np.asarray(p, dtype=float), [(tuple(int(x) for x in p), 1.0)])


def _mean_vertex(points):
    pts = [np.asarray(p, dtype=float) for p in points]
    pos = sum(pts) / float(len(pts))
    c = 1.0 / len(points)
    return (pos, [(tuple(int(x) for x in p), c) for p in points])


def _mk_point(i, plane, j, pj, k, pk):
    q = [0, 0, 0]
    q[i] = plane
    q[j] = pj
    q[k] = pk
    return tuple(q)


@dataclass
class _TriMeta:
    """Interface-surface metadata for one fine triangle on a Gamma plane."""

    axis: int
    plane: int
    nu_sign: int
    square: tuple[int, int]   # (j, k) unit-square min corner
    half: str                 # "lower" (00,10,11) or "upper" (00,11,01)


def _fine_face(i, plane, j, jlo, jhi, k, klo, khi, nu_sign):
    """Unit-square triangulation with the cell template's main diagonals."""
    tris = []
    for mj in range(jlo, jhi):
        for mk in range(klo, khi):
            p00 = _lat_vertex(_mk_point(i, plane, j, mj, k, mk))
            p10 = _lat_vertex(_mk_point(i, plane, j, mj + 1, k, mk))
            p11 = _lat_vertex(_mk_point(i, plane, j, mj + 1, k, mk + 1))
            p01 = _lat_vertex(_mk_point(i, plane, j, mj, k, mk + 1))
            tris.append(((p00, p10, p11),
                         _TriMeta(i, plane, nu_sign, (mj, mk), "lower")))
            tris.append(((p00, p11, p01),
                         _TriMeta(i, plane, nu_sign, (mj, mk), "upper")))
    return tris


def _junction_face(i, plane, j, jlo, jhi, k, klo, khi, eta):
    """Full box face split by the diagonal of the box's own staircase
    template (the trace the coarse box interpolant of the atomistic
    neighbor induces)."""
    p00 = _lat_vertex(_mk_point(i, plane, j, jlo, k, klo))
    p10 = _lat_vertex(_mk_point(i, plane, j, jhi, k, klo))
    p11 = _lat_vertex(_mk_point(i, plane, j, jhi, k, khi))
    p01 = _lat_vertex(_mk_point(i, plane, j, jlo, k, khi))
    if eta[j] * eta[k] > 0:
        return [((p00, p10, p11), None), ((p00, p11, p01), None)]
    return [((p10, p11, p01), None), ((p10, p01, p00), None)]


def _edge_breakpoints(span_dim, lo, hi, fixed, part: RegionPartition):
    """Interior lattice points of an axis-aligned edge that lies within a
    closed facet of the interface surface (where neighboring cones may place
    fine-triangle vertices, so this edge must carry them too)."""
    a, top = part.corner, part.top
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


def _fan_face(i, plane, j, jlo, jhi, k, klo, khi, part):
    """Fan from the face centroid (value = mean of the 4 corners), with
    lattice breakpoints on edges lying within closed interface facets."""
    corners = [
        _mk_point(i, plane, j, jlo, k, klo),
        _mk_point(i, plane, j, jhi, k, klo),
        _mk_point(i, plane, j, jhi, k, khi),
        _mk_point(i, plane, j, jlo, k, khi),
    ]
    sides = [
        (j, jlo, jhi, k, klo, False),
        (k, klo, khi, j, jhi, False),
        (j, jlo, jhi, k, khi, True),
        (k, klo, khi, j, jlo, True),
    ]
    poly = []
    for idx, (sd, s_lo, s_hi, od, oval, rev) in enumerate(sides):
        poly.append(corners[idx])
        breaks = _edge_breakpoints(sd, s_lo, s_hi, {i: plane, od: oval}, part)
        if rev:
            breaks = breaks[::-1]
        for t in breaks:
            q = [0, 0, 0]
            q[i] = plane
            q[sd] = t
            q[od] = oval
            poly.append(tuple(q))
    center = _mean_vertex(corners)
    tris = []
    for t in range(len(poly)):
        p, q = poly[t], poly[(t + 1) % len(poly)]
        tris.append(((center, _lat_vertex(p), _lat_vertex(q)), None))
    return tris


def _build_member_cone(mu, w, eta, part: RegionPartition, reduce_mode: bool):
    """Apex vertex and surface triangulation of P = member box ^ Omega_a."""
    a, top = part.corner, part.top
    lo = tuple(max(mu[d], a[d]) for d in range(3))
    hi = tuple(min(mu[d] + w[d], top[d]) for d in range(3))
    tris = []
    for i in range(3):
        j, k = [d for d in range(3) if d != i]
        for plane in (lo[i], hi[i]):
            if plane == a[i] or plane == top[i]:
                nu_sign = -1 if plane == a[i] else +1
                tris.extend(_fine_face(i, plane, j, lo[j], hi[j], k, lo[k], hi[k], nu_sign))
                continue
            if reduce_mode:
                tris.extend(_fan_face(i, plane, j, lo[j], hi[j], k, lo[k], hi[k], part))
                continue
            shift = w[i] if plane == hi[i] else -w[i]
            nb = list(mu)
            nb[i] += shift
            ncls = _classify_box(tuple(nb), w, part)[0]
            if ncls is BondClass.ATOMISTIC:
                # A strictly interior neighbor forces P to be unclipped in
                # the face's own dimensions, so this is the full box face.
                assert lo[j] == mu[j] and hi[j] == mu[j] + w[j]
                assert lo[k] == mu[k] and hi[k] == mu[k] + w[k]
                tris.extend(_junction_face(i, plane, j, lo[j], hi[j], k, lo[k], hi[k], eta))
            elif ncls is BondClass.INTERFACE:
                tris.extend(_fan_face(i, plane, j, lo[j], hi[j], k, lo[k], hi[k], part))
            else:
                raise AssertionError(
                    "interior cone face cannot border a continuum member"
                )
    corners = [
        (x, y, z)
        for x in (lo[0], hi[0])
        for y in (lo[1], hi[1])
        for z in (lo[2], hi[2])
    ]
    apex = _mean_vertex(corners)
    return apex, tris, (lo, hi)


# ======================================================================
# Precomputed per-direction assembly blocks
# ======================================================================

def _csr(rows, cols, vals, shape) -> sparse.csr_array:
    """CSR operator from (row, column, value) entries; duplicates are summed."""
    idx = np.int32 if max(shape) < 2**31 else np.int64
    return sparse.csr_array(
        (np.asarray(vals, dtype=float),
         (np.asarray(rows, dtype=idx), np.asarray(cols, dtype=idx))),
        shape=shape,
    )


def _vertex_rows(tets, weights, fn_len, fn_site, fn_coef, n_sites) -> sparse.csr_array:
    """Row r = sum_s weights[r, s] * f_{tets[r, s]}, where the functional f_v
    of vertex v is its ``fn_len[v]`` consecutive (site, coefficient) entries
    of ``fn_site``/``fn_coef``."""
    fn_len = np.asarray(fn_len, dtype=np.int64)
    start = np.cumsum(fn_len) - fn_len
    vid = tets.ravel()
    lens = fn_len[vid]
    ends = np.cumsum(lens)
    entry = np.arange(int(lens.sum())) - np.repeat(ends - lens - start[vid], lens)
    rows = np.repeat(np.repeat(np.arange(tets.shape[0]), tets.shape[1]), lens)
    vals = np.repeat(weights.ravel(), lens) * np.asarray(fn_coef)[entry]
    return _csr(rows, np.asarray(fn_site)[entry], vals, (tets.shape[0], n_sites))


@dataclass
class _GammaData:
    """Fine interface triangles of one direction, the rows of the jump term."""

    nu_eta: np.ndarray            # (Tg,) nu_a . eta
    minus_tet: np.ndarray         # (Tg,) cone tet carrying the inner trace
    minus_op: sparse.csr_array    # (Tg, n_sites) the cone_op rows of minus_tet
    plus_op: sparse.csr_array     # (Tg, n_sites) eta-weighted edge differences of the outer staircase tet
    trace_op: sparse.csr_array    # (Tg, n_sites) sum of the triangle's three vertex values


@dataclass
class _EtaBlock:
    """Quadrature bonds of one direction. Each term's bond vectors are
    zeta = F eta + (op @ v) / eps for the flat (n_sites, 3) displacement v."""

    eta: IntTriple
    n_eta: int
    atom_op: sparse.csr_array     # (n_bonds, n_sites) +1 at the bond tip, -1 at its base
    atom_w: np.ndarray            # (n_bonds,) bond weights
    cone_op: sparse.csr_array     # (T, n_sites) eta^T A^{-1} applied to (vertex - apex values) per cone tet
    volw: np.ndarray              # (T,) lattice volume / n_eta
    gamma: _GammaData
    counts: dict[str, int]


_BLOCK_CACHE: dict[tuple, _EtaBlock] = {}


def omega_star_mask(part: RegionPartition) -> np.ndarray:
    """Boolean per-cell array marking the continuum region's cells (a fresh
    read-only array per call)."""
    mask = np.ones(part.cfg.N, dtype=bool)
    sl = tuple(slice(part.corner[i], part.top[i]) for i in range(3))
    mask[sl] = False
    mask.flags.writeable = False
    return mask


def _flat_index(site, N) -> int:
    return ((site[0] % N[0]) * N[1] + site[1] % N[1]) * N[2] + site[2] % N[2]


def _plus_side_perm(axis: int, nu_sign: int, half: str) -> tuple[int, int, int]:
    """Staircase permutation of the continuum-side tet whose face is the
    given half of a unit interface square."""
    j, k = [d for d in range(3) if d != axis]
    if nu_sign < 0:
        # continuum cell below the region: its upper face is the square
        return (axis, j, k) if half == "lower" else (axis, k, j)
    return (j, k, axis) if half == "lower" else (k, j, axis)


def _build_eta_block(cfg: LatticeConfig, part: RegionPartition, eta: IntTriple, policy: str) -> _EtaBlock:
    key = (cfg, part, eta, policy)
    got = _BLOCK_CACHE.get(key)
    if got is not None:
        return got

    N = cfg.N
    n_sites = cfg.n_sites
    n_zero = sum(1 for e in eta if e == 0)
    if n_zero and policy != "reduce":
        raise DegenerateEta(f"eta={eta} has zero components and policy is {policy!r}")
    reduce_mode = n_zero > 0
    n_eta = 1
    for e in eta:
        if e != 0:
            n_eta *= abs(e)

    # Weighted atomistic bond copies per member (averaged over the member's
    # parallel bonds in reduce mode).
    if not reduce_mode:
        bond_offsets = [((0, 0, 0), 1.0)]
    elif n_zero == 1:
        zax = next(d for d in range(3) if eta[d] == 0)
        ez = tuple(1 if d == zax else 0 for d in range(3))
        bond_offsets = [((0, 0, 0), 0.5), (ez, 0.5)]
    else:
        u1, u2 = [d for d in range(3) if eta[d] == 0]
        e1 = tuple(1 if d == u1 else 0 for d in range(3))
        e2 = tuple(1 if d == u2 else 0 for d in range(3))
        e12 = tuple(e1[d] + e2[d] for d in range(3))
        bond_offsets = [((0, 0, 0), 0.25), (e1, 0.25), (e2, 0.25), (e12, 0.25)]

    atom_sites: list[int] = []   # (tip, base) per bond
    atom_w: list[float] = []
    # Cone vertices: positions, and their functionals as consecutive
    # (flat site, coefficient) entries, fn_len[v] of them for vertex v.
    verts_pos: list[np.ndarray] = []
    fn_len: list[int] = []
    fn_site: list[int] = []
    fn_coef: list[float] = []
    tets: list[tuple[int, int, int, int]] = []
    gamma_rows: list[tuple] = []
    counts = {"atomistic": 0, "continuum": 0, "interface": 0}
    mask = omega_star_mask(part)

    def add_vertex(vert) -> int:
        verts_pos.append(vert[0])
        fn_len.append(len(vert[1]))
        for site, coef in vert[1]:
            fn_site.append(_flat_index(site, N))
            fn_coef.append(coef)
        return len(verts_pos) - 1

    for l0 in range(N[0]):
        for l1 in range(N[1]):
            for l2 in range(N[2]):
                ell = (l0, l1, l2)
                mu, w = _member_box(ell, eta)
                cls, lo, hi = _classify_box(mu, w, part)
                if cls is BondClass.CONTINUUM:
                    counts["continuum"] += 1
                    continue
                if cls is BondClass.ATOMISTIC:
                    counts["atomistic"] += 1
                    for off, wt in bond_offsets:
                        base = tuple(ell[d] + off[d] for d in range(3))
                        tip = tuple(base[d] + eta[d] for d in range(3))
                        atom_sites += [_flat_index(tip, N), _flat_index(base, N)]
                        atom_w.append(wt)
                    continue
                counts["interface"] += 1
                apex, tris, _ = _build_member_cone(mu, w, eta, part, reduce_mode)
                a_id = add_vertex(apex)
                for tri, meta in tris:
                    ids = (a_id, add_vertex(tri[0]), add_vertex(tri[1]), add_vertex(tri[2]))
                    tets.append(ids)
                    if meta is not None and eta[meta.axis] != 0:
                        gamma_rows.append((len(tets) - 1, tri, meta))

    # --- atomistic bonds: v[tip] - v[base] ------------------------------
    n_bonds = len(atom_w)
    atom_op = _csr(np.repeat(np.arange(n_bonds), 2), atom_sites, np.tile([1.0, -1.0], n_bonds),
                   (n_bonds, n_sites))

    # --- cone tets: eta^T A^{-1} (vertex values - apex value) -----------
    t = np.asarray(tets, dtype=np.int64).reshape(len(tets), 4)
    if len(tets):
        pos = np.asarray(verts_pos)
        A = pos[t[:, 1:]] - pos[t[:, :1]]
        volw = np.abs(np.linalg.det(A)) / 6.0 / n_eta
        m = np.einsum("r,trs->ts", np.asarray(eta, dtype=float), np.linalg.inv(A))
    else:
        volw = np.zeros(0)
        m = np.zeros((0, 3))
    weights = np.concatenate([-m.sum(axis=1, keepdims=True), m], axis=1)
    cone_op = _vertex_rows(t, weights, fn_len, fn_site, fn_coef, n_sites)

    # --- interface-surface rows for the discontinuous variant -----------
    n_tri = len(gamma_rows)
    g_nu = np.zeros(n_tri)
    g_minus = np.zeros(n_tri, dtype=np.int64)
    tri_sites = np.zeros((n_tri, 3), dtype=np.int64)
    plus_rows: list[int] = []
    plus_cols: list[int] = []
    plus_vals: list[float] = []
    for r, (tet_id, tri, meta) in enumerate(gamma_rows):
        for c in range(3):
            tri_sites[r, c] = _flat_index(tri[c][1][0][0], N)
        g_nu[r] = meta.nu_sign * eta[meta.axis]
        g_minus[r] = tet_id
        j, k = [d for d in range(3) if d != meta.axis]
        cell = [0, 0, 0]
        cell[meta.axis] = meta.plane - 1 if meta.nu_sign < 0 else meta.plane
        cell[j], cell[k] = meta.square
        assert mask[tuple(np.mod(cell, N))], "outer interface cell must be continuum"
        offs = path_edge_offsets(_plus_side_perm(meta.axis, meta.nu_sign, meta.half))
        for a_ax in range(3):
            if eta[a_ax] == 0:
                continue
            base = tuple(cell[d] + offs[a_ax][d] for d in range(3))
            upv = tuple(base[d] + (d == a_ax) for d in range(3))
            plus_rows += [r, r]
            plus_cols += [_flat_index(upv, N), _flat_index(base, N)]
            plus_vals += [float(eta[a_ax]), -float(eta[a_ax])]

    gamma = _GammaData(
        nu_eta=g_nu,
        minus_tet=g_minus,
        minus_op=cone_op[g_minus],
        plus_op=_csr(plus_rows, plus_cols, plus_vals, (n_tri, n_sites)),
        trace_op=_csr(np.repeat(np.arange(n_tri), 3), tri_sites.reshape(-1), np.ones(3 * n_tri),
                      (n_tri, n_sites)),
    )
    block = _EtaBlock(
        eta=eta,
        n_eta=n_eta,
        atom_op=atom_op,
        atom_w=np.asarray(atom_w),
        cone_op=cone_op,
        volw=volw,
        gamma=gamma,
        counts=counts,
    )
    _BLOCK_CACHE[key] = block
    return block


# ======================================================================
# Evaluation helpers
# ======================================================================

def _bond_contrib(op, w, law: InteractionLaw, F, vflat, eps, g_outs=()):
    """Quadrature-bond energy eps^3 sum_q w_q phi(zeta_q) at the bond
    vectors zeta = F eta + (op @ v) / eps. Adds the gradient, scaled like
    the lattice inner product, op^T (w phi'(zeta) / eps) to each array in
    ``g_outs``. Returns the energy and zeta."""
    if op.shape[0] == 0:
        return 0.0, np.zeros((0, 3))
    zeta = (F @ law.eta_vec) + (op @ vflat) / eps
    energy = float(eps**3 * np.sum(w * law.values(zeta)))
    if g_outs:
        contrib = op.T @ ((w / eps)[:, None] * law.gradients(zeta))
        for g in g_outs:
            g += contrib
    return energy, zeta


def _jump_contrib(
    block: _EtaBlock,
    law: InteractionLaw,
    F,
    vm_flat,
    vp_flat,
    eps,
    zeta_minus,
    g_tied=None,
    g_minus=None,
    g_plus=None,
):
    """Interface jump term of the discontinuous energy and its gradients.

    The energy subtracts sum over fine interface triangles of
    |tau| phi'(<grad y eta>) . [[y eta]](centroid); traces are centroid
    means of the three vertex values per side, so the jump is exactly zero
    on continuous data and those triangles are skipped (adding their
    identically-zero contributions could still flip signed zeros).
    """
    gam = block.gamma
    if gam.nu_eta.size == 0:
        return 0.0
    zm = zeta_minus[gam.minus_tet]
    zp = (F @ law.eta_vec) + (gam.plus_op @ vp_flat) / eps
    avg = 0.5 * (zm + zp)
    J = gam.nu_eta[:, None] * (gam.trace_op @ (vm_flat - vp_flat)) / 3.0
    phi1 = law.gradients(avg)
    w_area = eps**2 * 0.5 / block.n_eta
    energy = float(w_area * np.sum(phi1 * J))

    # phi'' part: coefficient [[y eta]]^T phi''(<.>), chained through both
    # side gradients at weight 1/2; skipped where the jump is exactly zero.
    active = np.any(J != 0.0, axis=1)
    if np.any(active):
        idx = np.nonzero(active)[0]
        q = np.zeros_like(J)
        q[idx] = np.einsum("tij,tj->ti", law.hessians(avg[idx]), J[idx])
        q *= -1.0 / (4.0 * block.n_eta * eps**2)
        for op, side in ((gam.minus_op, g_minus), (gam.plus_op, g_plus)):
            if g_tied is None and side is None:
                continue
            contrib = op.T @ q
            for g in (g_tied, side):
                if g is not None:
                    g += contrib

    # phi' trace part: for the tied representer the two traces cancel
    # identically, so it only enters the per-side representers.
    if g_minus is not None or g_plus is not None:
        c_tr = 1.0 / (6.0 * block.n_eta * eps)
        contrib = gam.trace_op.T @ ((c_tr * gam.nu_eta)[:, None] * phi1)
        if g_minus is not None:
            g_minus -= contrib
        if g_plus is not None:
            g_plus += contrib
    return energy


# ======================================================================
# Coupled energies
# ======================================================================

def _get_blocks(cfg, part, R, policy):
    return {law.eta: _build_eta_block(cfg, part, law.eta, policy) for law in R}


def coupled_energy_conforming(
    y: Deformation, R: InteractionSet, part: RegionPartition, degenerate_eta: str = "reject"
) -> EnergyReport:
    """Conforming coupled energy: exact bonds strictly inside the atomistic
    region + staircase Cauchy-Born over the complement cells + interface
    cone integrals at weight 1/|eta1 eta2 eta3|."""
    cfg = y.cfg
    _check_partition(part, R, degenerate_eta)
    blocks = _get_blocks(cfg, part, R, degenerate_eta)
    masks = np.broadcast_to(omega_star_mask(part), (6,) + cfg.N)
    eps = cfg.epsilon
    v = y.displacement.values
    vflat = v.reshape(-1, 3)
    d = _diff_arrays(v, eps)
    g = np.zeros(cfg.shape)
    gf = g.reshape(-1, 3)

    e_atom = 0.0
    for law in R:
        b = blocks[law.eta]
        e_atom += _bond_contrib(b.atom_op, b.atom_w, law, y.F, vflat, eps, (gf,))[0]
    e_cb = 0.0
    for law in R:
        e_cb += _staircase_cb_contrib(law, y.F, d, eps, masks, (g,))
    e_cone = 0.0
    for law in R:
        b = blocks[law.eta]
        e_cone += _bond_contrib(b.cone_op, b.volw, law, y.F, vflat, eps, (gf,))[0]

    counts = {str(law.eta): blocks[law.eta].counts for law in R}
    return EnergyReport(
        energy=e_atom + e_cb + e_cone,
        gradient=LatticeField(cfg, g),
        model="coupled",
        breakdown={"atomistic": e_atom, "continuum": e_cb, "interface": e_cone},
        diagnostics={"counts": counts},
    )


def coupled_energy_dg(
    y_minus: Deformation,
    y_plus: Deformation,
    R: InteractionSet,
    part: RegionPartition,
    degenerate_eta: str = "reject",
) -> EnergyReport:
    """Two-sided coupled energy: the inner trace (atomistic + interface
    cones) comes from y_minus, the outer Cauchy-Born field from y_plus, and
    the interface term subtracts the jump--average correction integrated
    over the fine interface triangles.

    The reported gradient is the representer along tied directions
    (perturbing both sides equally); the per-side representers are in
    diagnostics as ``gradient_minus`` / ``gradient_plus``.
    """
    cfg = y_minus.cfg
    if y_plus.cfg != cfg:
        raise ValueError("both sides must share one lattice config")
    if not np.array_equal(y_minus.F, y_plus.F):
        raise ValueError("both sides must share the same deformation gradient F")
    _check_partition(part, R, degenerate_eta)
    blocks = _get_blocks(cfg, part, R, degenerate_eta)
    masks = np.broadcast_to(omega_star_mask(part), (6,) + cfg.N)
    eps = cfg.epsilon
    F = y_minus.F
    vm = y_minus.displacement.values
    vp = y_plus.displacement.values
    vmf = vm.reshape(-1, 3)
    vpf = vp.reshape(-1, 3)
    d_plus = _diff_arrays(vp, eps)

    g_tied = np.zeros(cfg.shape)
    g_m = np.zeros(cfg.shape)
    g_p = np.zeros(cfg.shape)
    gtf, gmf, gpf = g_tied.reshape(-1, 3), g_m.reshape(-1, 3), g_p.reshape(-1, 3)

    e_atom = 0.0
    for law in R:
        b = blocks[law.eta]
        e_atom += _bond_contrib(b.atom_op, b.atom_w, law, F, vmf, eps, (gtf, gmf))[0]
    e_cb = 0.0
    for law in R:
        e_cb += _staircase_cb_contrib(law, F, d_plus, eps, masks, (g_tied, g_p))
    e_cone = 0.0
    zeta_by_eta = {}
    for law in R:
        b = blocks[law.eta]
        e, zeta = _bond_contrib(b.cone_op, b.volw, law, F, vmf, eps, (gtf, gmf))
        e_cone += e
        zeta_by_eta[law.eta] = zeta
    e_jump = 0.0
    for law in R:
        e_jump += _jump_contrib(
            blocks[law.eta], law, F, vmf, vpf, eps, zeta_by_eta[law.eta],
            g_tied=gtf, g_minus=gmf, g_plus=gpf,
        )

    return EnergyReport(
        energy=(e_atom + e_cb + e_cone) - e_jump,
        gradient=LatticeField(cfg, g_tied),
        model="coupled-dg",
        breakdown={
            "atomistic": e_atom,
            "continuum": e_cb,
            "interface": e_cone,
            "interface_jump": -e_jump,
        },
        diagnostics={
            "gradient_minus": LatticeField(cfg, g_m),
            "gradient_plus": LatticeField(cfg, g_p),
        },
    )


def naive_coupling_energy(
    y: Deformation, R: InteractionSet, part: RegionPartition
) -> EnergyReport:
    """Negative control: atomistic bonds whose midpoint lies in the open
    atomistic box plus Cauchy-Born over the complement cells, with no
    interface correction. Produces spurious interface forces by design."""
    cfg = y.cfg
    eps = cfg.epsilon
    masks = np.broadcast_to(omega_star_mask(part), (6,) + cfg.N)
    v = y.displacement.values
    d = _diff_arrays(v, eps)
    g = np.zeros(cfg.shape)
    idx = np.indices(cfg.N)

    e_atom = 0.0
    for law in R:
        inside = np.ones(cfg.N, dtype=bool)
        for dd in range(3):
            mid = idx[dd] + 0.5 * law.eta[dd]
            inside &= (mid > part.corner[dd]) & (mid < part.top[dd])
        e_atom += _exact_bond_contrib(law, y.F, v, eps, inside, (g,))
    e_cb = 0.0
    for law in R:
        e_cb += _staircase_cb_contrib(law, y.F, d, eps, masks, (g,))
    return EnergyReport(
        energy=e_atom + e_cb,
        gradient=LatticeField(cfg, g),
        model="naive",
        breakdown={"atomistic": e_atom, "continuum": e_cb},
    )


# ======================================================================
# Per-covering interpolant descriptor (verification machinery)
# ======================================================================

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
    """Build the per-tet descriptor of covering m's interpolant of u."""
    eta = tuple(int(e) for e in eta)
    if eta[0] * eta[1] * eta[2] == 0:
        raise DegenerateEta(
            f"covering interpolants are defined for full 3D bond volumes; eta={eta} "
            "is handled by the reduce policy, which has no per-tet descriptor"
        )
    cfg = u.cfg
    coverings = enumerate_coverings(eta, cfg)
    cov = coverings[m]
    eps = cfg.epsilon
    pieces: list[MemberPiece] = []

    def cell_tet_arrays(cells):
        pos = []
        val = []
        for cell in cells:
            for tet in decompose_cell_type_a(cell, cfg).tets:
                pos.append(tet.vertices)
                val.append([u.at(s) for s in tet.sites])
        return np.asarray(pos), np.asarray(val)

    for base in cov.base_sites:
        mu, w = _member_box(base, eta)
        cls, lo, hi = _classify_box(mu, w, part)
        box_cells = [
            (mu[0] + i, mu[1] + j, mu[2] + k)
            for i in range(w[0])
            for j in range(w[1])
            for k in range(w[2])
        ]
        if cls is BondClass.ATOMISTIC:
            bv = decompose_bond_volume_type_a(base, eta, cfg)
            pos = np.asarray([tet.vertices for tet in bv.decomposition.tets])
            val = np.asarray([[u.at(s) for s in tet.sites] for tet in bv.decomposition.tets])
            G, vols = _batch_tet_data(pos, val)
            pieces.append(MemberPiece(base, "atomistic", pos, G, vols, val, (mu, w)))
            continue
        if cls is BondClass.CONTINUUM:
            pos, val = cell_tet_arrays(box_cells)
            G, vols = _batch_tet_data(pos, val)
            pieces.append(MemberPiece(base, "continuum", pos, G, vols, val, (mu, w)))
            continue
        apex, tris, _ = _build_member_cone(mu, w, eta, part, reduce_mode=False)

        def vert_eval(vert):
            pos_l, fn = vert
            value = np.zeros(3)
            for site, coef in fn:
                value += coef * u.at(site)
            return eps * pos_l, value

        pos_list = []
        val_list = []
        a_pos, a_val = vert_eval(apex)
        for tri, _meta in tris:
            ps = [a_pos]
            vs = [a_val]
            for vert in tri:
                pv, vv = vert_eval(vert)
                ps.append(pv)
                vs.append(vv)
            pos_list.append(ps)
            val_list.append(vs)
        pos = np.asarray(pos_list)
        val = np.asarray(val_list)
        G, vols = _batch_tet_data(pos, val)
        pieces.append(MemberPiece(base, "interface-cone", pos, G, vols, val, (mu, w)))
        outer_cells = [c for c in box_cells if not part.contains_cell(c)]
        if outer_cells:
            pos, val = cell_tet_arrays(outer_cells)
            G, vols = _batch_tet_data(pos, val)
            pieces.append(
                MemberPiece(base, "interface-remainder", pos, G, vols, val, (mu, w))
            )
    return CoveringInterpolant(eta=eta, index=m, pieces=pieces, cfg=cfg)

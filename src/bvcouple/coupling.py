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
interface neighbors (identical from both sides). Every cone vertex is the
mean of 1, 4 or 8 lattice points (a lattice vertex, a fan centre, the apex),
in position and in value, so every vertex value is an affine combination of
lattice values that reproduces affine fields exactly, which is what makes
homogeneous deformations energy-exact and force-free.

Directions with zero components have no 3D bond volume; the ``reduce``
policy replaces them by unit-thickness members (prisms for one zero
component, unit-column rods for two) whose atomistic weights average the
member's parallel bond copies, with fan-faced cones at the interface. Faces
whose normal is orthogonal to eta carry no coupling flux, so their
triangulation only needs to agree between neighboring members (it does: the
fan is symmetric); the remaining faces match in integral against the
averaged bonds by the fan's mean-value center.

Every term is a weighted sum of phi_eta(F eta + (B v)_q / eps) over
"quadrature bonds" q, evaluated by the one kernel ``energies._bond_batch``
for a fixed linear map B of the lattice displacement v, one of its two
operator kinds. The atomistic bonds (+1/-1 rows) and the interface cone
tets (eta^T A^-1 applied to the vertex values of the cone interpolant,
which are themselves affine combinations of lattice values) are sparse
gathers (``energies._Gather``) of CSR maps precomputed once per (partition,
direction), each row tagged with the lattice site of its bond; the two
sides and the trace of the interface jump are CSR rows too, used by the
jump term. The continuum term is the staircase Cauchy-Born roll stencil of
``energies``, shared with the uncoupled and high-order models and
restricted to the continuum cells by zero weights; the naive control uses
the atomistic model's exact-bond stencil the same way. Each term runs
through ``energies._term``: its batches run in pairs on up to two lanes, and
their results are added in batch order, the order of one lane, so results
are deterministic and bitwise the same on one lane or two. A pair runs
serially unless one of its batches has ``energies._MIN_LANE_ROWS`` rows or
more, since below that the thread hand-off costs more than it overlaps (two
lanes ran 1.3-1.7x slower than one at N=12 and 1.3-1.5x faster at N=36).
The jump term of the two-sided model runs on the calling thread.

A direction's operators are built by array passes over the lattice: one
classification of every site's member box (``_member_classes``, the rule
that ``classify_bond_volume`` also applies), the atomistic bonds from the
atomistic members and the reduce offsets, and the cones, which are
constructed member by member over the interface members only. The class
codes of the interface members' six face neighbours, which choose each
cone face's triangulation, come from one array call of the same rule
(``_neighbour_classes``). A cone tet is four vertices of lattice points;
the points of all tets are flattened once, and the cone operator gives
each point of a vertex the coefficient 1/(number of points). The flat site
indices of every operator come from one wrapped ravel of the collected
site triples. ``covering_interpolant`` builds its cones from the same
vertices, evaluating each as the mean of the field over its points; its
other pieces read the staircase table of ``geometry``.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import chain
from typing import Sequence

import numpy as np
from scipy import sparse

from .energies import _ONE, EnergyReport, _bond_stencil, _Gather, _staircase_stencils, _term, _Term, _timings
from .geometry import (
    PATH_PERMS,
    CoveringMismatch,
    DegenerateEta,
    _staircase_simplices,
    enumerate_coverings,
    nondegenerate_eta,
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


def _member_box(ell, eta) -> tuple[np.ndarray, np.ndarray]:
    """Min corners and widths of the member boxes owning the bonds at the
    sites ``ell`` (..., 3).

    Zero components of eta get unit thickness (the reduce members); nonzero
    components span the bond volume."""
    eta = np.asarray(eta)
    return np.asarray(ell) + np.minimum(eta, 0), np.where(eta != 0, np.abs(eta), 1)


_CLASSES = (BondClass.CONTINUUM, BondClass.INTERFACE, BondClass.ATOMISTIC)


def _member_classes(mu, w, part: RegionPartition) -> np.ndarray:
    """Class code (an index into ``_CLASSES``) of each member box (..., 3):
    0 when it misses the atomistic box, 2 when it sits strictly inside it,
    1 (interface) otherwise."""
    a, top = np.asarray(part.corner), np.asarray(part.top)
    meets = np.all(np.maximum(mu, a) < np.minimum(mu + w, top), axis=-1)
    inside = np.all((mu > a) & (mu + w < top), axis=-1)
    return meets.astype(np.int8) + inside


def _neighbour_classes(mu, w, part: RegionPartition) -> np.ndarray:
    """Class codes (..., 3, 2) of the face neighbours of the member boxes
    ``mu`` (..., 3) of widths ``w``: entry [i, s] is the box shifted along
    axis i by -w_i (s = 0) or +w_i (s = 1)."""
    shift = np.diag(w)
    return _member_classes(np.asarray(mu)[..., None, None, :] + np.stack([-shift, shift], axis=1), w, part)


def classify_bond_volume(part: RegionPartition, ell, eta) -> BondClass:
    """Classify the bond volume of (ell, eta) against the region partition:
    strictly inside the atomistic box, disjoint from it, or interface."""
    eta = nondegenerate_eta(eta)
    ell = tuple(int(x) % part.cfg.N[i] for i, x in enumerate(ell))
    return _CLASSES[int(_member_classes(*_member_box(ell, eta), part))]


def required_clearance(etas: Sequence[IntTriple]) -> int:
    return max(abs(int(e)) for eta in etas for e in eta)


def clearance_violations(part: RegionPartition, etas: Sequence[IntTriple]) -> list[str]:
    """Dimensions in which the atomistic box lacks the clearance from the
    domain boundary that the longest direction component needs."""
    margin = required_clearance(etas)
    cfg = part.cfg
    return [
        f"atomistic region [{part.corner[i]}, {part.top[i]}] needs {margin} cells of "
        f"clearance inside [0, {cfg.N[i]}] in dimension {i}"
        for i in range(3)
        if part.corner[i] < margin or part.top[i] > cfg.N[i] - margin
    ]


def _partition_errors(part: RegionPartition, etas: Sequence[IntTriple], policy: str) -> list[ValueError]:
    """Constraint violations of a partition against an interaction set, each
    as the exception it raises: a coverings mismatch, a degenerate direction
    under the reject policy, or a plain ValueError (policy, clearance)."""
    errs: list[ValueError] = []
    if policy not in DEGENERATE_POLICIES:
        errs.append(ValueError(f"degenerate_eta policy must be one of {DEGENERATE_POLICIES}, got {policy!r}"))
    errs += [ValueError(m) for m in clearance_violations(part, etas)]
    N = part.cfg.N
    for eta in etas:
        for i in range(3):
            if eta[i] != 0 and N[i] % abs(eta[i]) != 0:
                errs.append(CoveringMismatch(
                    f"N={N} is not divisible by |eta_{i}|={abs(eta[i])} for eta={tuple(eta)}; "
                    "coverings cannot close on the torus"
                ))
        if policy == "reject" and 0 in eta:
            errs.append(DegenerateEta(
                f"eta={tuple(eta)} has a zero component and degenerate_eta policy is 'reject'"
            ))
    return errs


def partition_violations(part: RegionPartition, etas: Sequence[IntTriple], policy: str) -> list[str]:
    """All constraint violations of a partition against an interaction set."""
    return [str(e) for e in _partition_errors(part, etas, policy)]


def _check_partition(part: RegionPartition, R: InteractionSet, policy: str) -> None:
    """Raise the partition's violations as one error: DegenerateEta when
    every one is a degenerate direction, CoveringMismatch when every one is
    a coverings mismatch or a degenerate direction, ValueError otherwise."""
    errs = _partition_errors(part, [law.eta for law in R], policy)
    if errs:
        kinds = {type(e) for e in errs}
        if kinds == {CoveringMismatch, DegenerateEta}:
            kinds = {CoveringMismatch}
        cls = kinds.pop() if len(kinds) == 1 else ValueError
        raise cls("; ".join(map(str, errs)))


# ======================================================================
# Interface cone construction (build time, integer lattice units)
# ======================================================================

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
    atom_op: _Gather              # (n_bonds, n_sites) +1 at the bond tip, -1 at its base
    atom_w: np.ndarray            # (n_bonds,) bond weights
    cone_op: _Gather              # (T, n_sites) eta^T A^{-1} applied to (vertex - apex values) per cone tet
    volw: np.ndarray              # (T,) lattice volume / n_eta
    gamma: _GammaData
    counts: dict[str, int]


# Blocks kept per process: enough for a few placements of a handful of
# directions.
_BLOCK_CACHE_SIZE = 16


def omega_star_mask(part: RegionPartition) -> np.ndarray:
    """Boolean per-cell array marking the continuum region's cells (a fresh
    read-only array per call)."""
    mask = np.ones(part.cfg.N, dtype=bool)
    sl = tuple(slice(part.corner[i], part.top[i]) for i in range(3))
    mask[sl] = False
    mask.flags.writeable = False
    return mask


def _plus_side_perm(axis: int, nu_sign: int, half: str) -> tuple[int, int, int]:
    """Staircase permutation of the continuum-side tet whose face is the
    given half of a unit interface square."""
    j, k = [d for d in range(3) if d != axis]
    if nu_sign < 0:
        # continuum cell below the region: its upper face is the square
        return (axis, j, k) if half == "lower" else (axis, k, j)
    return (j, k, axis) if half == "lower" else (k, j, axis)


# Per staircase template, the base offset of its edge parallel to each axis.
_EDGE_OFFSETS = np.array([[path_edge_offsets(perm)[a] for a in range(3)] for perm in PATH_PERMS])


@lru_cache(maxsize=_BLOCK_CACHE_SIZE)
def _build_eta_block(cfg: LatticeConfig, part: RegionPartition, eta: IntTriple, policy: str) -> _EtaBlock:
    N = cfg.N
    n_sites = cfg.n_sites
    zero = [d for d in range(3) if eta[d] == 0]
    if zero and policy != "reduce":
        raise DegenerateEta(f"eta={eta} has zero components and policy is {policy!r}")
    n_eta = int(np.prod([abs(e) for e in eta if e != 0]))

    def flat(sites):
        return np.ravel_multi_index(np.moveaxis(np.asarray(sites, dtype=np.int64), -1, 0), N, mode="wrap")

    ells = np.indices(N).reshape(3, -1).T
    mu, w = _member_box(ells, eta)
    cls = _member_classes(mu, w, part)
    n_cls = np.bincount(cls, minlength=3)
    counts = {c.value: int(n_cls[_CLASSES.index(c)]) for c in BondClass}
    atomistic, interface = cls == 2, cls == 1

    # --- atomistic bonds: v[tip] - v[base], site-major, offset-minor ----
    # A member's bonds are its parallel copies along the zero components of
    # eta, averaged (one copy when eta has none).
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

    # --- cone tets of the interface members -----------------------------
    # Each tet is (apex,) + a surface triangle; fine interface triangles
    # also give a jump row (cone tet, axis, nu_sign, outer template).
    tets = []
    tet_sites: list[IntTriple] = []     # member base site per cone tet
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

    # eta^T A^-1 (vertex values - apex value) per cone tet, a vertex value
    # being the mean of its lattice points' values
    pts, n_pts, pos = _cone_points(tets)
    A = pos[:, 1:] - pos[:, :1]
    volw = np.abs(np.linalg.det(A)) / 6.0 / n_eta
    m = np.einsum("r,trs->ts", np.asarray(eta, dtype=float), np.linalg.inv(A))
    weights = np.concatenate([-m.sum(axis=1, keepdims=True), m], axis=1).ravel()
    cone_op = _csr(np.repeat(np.arange(len(n_pts)) // 4, n_pts), flat(pts),
                   np.repeat(weights * (1.0 / n_pts), n_pts), (len(tets), n_sites))

    # --- interface-surface rows for the discontinuous variant -----------
    g_tet, g_axis, g_sign, g_perm = np.asarray(g_rows, dtype=np.int64).reshape(-1, 4).T
    n_tri = len(g_tet)
    # the triangle's three lattice sites: its vertices are single points
    tri_sites = pts[(np.cumsum(n_pts) - n_pts).reshape(-1, 4)[g_tet, 1:]]
    eye = np.eye(3, dtype=np.int64)
    # The outer continuum cell has the triangle's first vertex (the square's
    # min corner) as base, or the cell below it on the region's lower faces.
    cell = tri_sites[:, 0] - (g_sign < 0)[:, None] * eye[g_axis]
    assert omega_star_mask(part)[tuple(np.mod(cell, N).T)].all(), \
        "outer interface cell must be continuum"
    # plus side: eta_a times the outer tet's edge difference along each axis
    # a with eta_a != 0 (edge tip, then base)
    axes = [a for a in range(3) if eta[a] != 0]
    edge_base = cell[:, None, :] + _EDGE_OFFSETS[g_perm][:, axes]
    edges = flat(np.stack([edge_base + eye[axes], edge_base], axis=2))
    eta_a = np.asarray(eta, dtype=float)[axes]
    gamma = _GammaData(
        nu_eta=(g_sign * np.asarray(eta)[g_axis]).astype(float),
        minus_tet=g_tet,
        minus_op=cone_op[g_tet],
        plus_op=_csr(np.repeat(np.arange(n_tri), 2 * len(axes)), edges.ravel(),
                     np.tile(np.stack([eta_a, -eta_a], axis=1).ravel(), n_tri), (n_tri, n_sites)),
        trace_op=_csr(np.repeat(np.arange(n_tri), 3), flat(tri_sites).ravel(), np.ones(3 * n_tri),
                      (n_tri, n_sites)),
    )
    return _EtaBlock(
        eta=eta,
        n_eta=n_eta,
        atom_op=atom_op,
        atom_w=np.full(n_bonds, 1.0 / len(offsets)),
        cone_op=_Gather(cone_op, _ONE, flat(tet_sites), N),
        volw=volw,
        gamma=gamma,
        counts=counts,
    )


# ======================================================================
# Evaluation helpers
# ======================================================================

def _jump_contrib(
    block: _EtaBlock, law: InteractionLaw, F, vm_flat, vp_flat, eps, zeta_minus, g_tied, g_minus, g_plus
):
    """Interface jump term of the discontinuous energy; adds its gradients
    to the tied and the two per-side representers.

    The energy subtracts sum over fine interface triangles of
    |tau| phi'(<grad y eta>) . [[y eta]](centroid); traces are centroid
    means of the three vertex values per side, so the jump is exactly zero
    on continuous data and those triangles are skipped (adding their
    identically-zero contributions could still flip signed zeros). phi'
    and, where a jump is nonzero, phi'' come from one ``law.evaluate`` call.
    """
    gam = block.gamma
    if gam.nu_eta.size == 0:
        return 0.0
    zm = zeta_minus[gam.minus_tet]
    zp = (F @ law.eta_vec) + (gam.plus_op @ vp_flat) / eps
    avg = 0.5 * (zm + zp)
    J = gam.nu_eta[:, None] * (gam.trace_op @ (vm_flat - vp_flat)) / 3.0
    active = np.any(J != 0.0, axis=1)
    jumps = bool(active.any())
    derivs = law.evaluate(avg, 2 if jumps else 1)
    phi1 = derivs[1]
    w_area = eps**2 * 0.5 / block.n_eta
    energy = float(w_area * np.sum(phi1 * J))

    # phi'' part: coefficient [[y eta]]^T phi''(<.>), chained through both
    # side gradients at weight 1/2; skipped where the jump is exactly zero.
    if jumps:
        idx = np.nonzero(active)[0]
        q = np.zeros_like(J)
        q[idx] = np.einsum("tij,tj->ti", derivs[2][idx], J[idx])
        q *= -1.0 / (4.0 * block.n_eta * eps**2)
        for op, side in ((gam.minus_op, g_minus), (gam.plus_op, g_plus)):
            contrib = op.T @ q
            g_tied += contrib
            side += contrib

    # phi' trace part: for the tied representer the two traces cancel
    # identically, so it only enters the per-side representers.
    c_tr = 1.0 / (6.0 * block.n_eta * eps)
    contrib = gam.trace_op.T @ ((c_tr * gam.nu_eta)[:, None] * phi1)
    g_minus -= contrib
    g_plus += contrib
    return energy


# ======================================================================
# Coupled energies
# ======================================================================

def _get_blocks(cfg, part, R, policy):
    return {law.eta: _build_eta_block(cfg, part, law.eta, policy) for law in R}


def _atom_bonds(blocks):
    return lambda law: [(blocks[law.eta].atom_op, blocks[law.eta].atom_w)]


def _cone_bonds(blocks):
    return lambda law: [(blocks[law.eta].cone_op, blocks[law.eta].volw)]


def _continuum_bonds(part: RegionPartition):
    """Staircase Cauchy-Born templates weighted 1/6 on the continuum cells."""
    w = omega_star_mask(part).ravel() / 6.0
    return lambda law: [(op, w) for op in _staircase_stencils(law.eta, part.cfg.N)]


def coupled_energy_conforming(
    y: Deformation, R: InteractionSet, part: RegionPartition, degenerate_eta: str = "reject"
) -> EnergyReport:
    """Conforming coupled energy: exact bonds strictly inside the atomistic
    region + staircase Cauchy-Born over the complement cells + interface
    cone integrals at weight 1/|eta1 eta2 eta3|."""
    cfg = y.cfg
    _check_partition(part, R, degenerate_eta)
    blocks = _get_blocks(cfg, part, R, degenerate_eta)
    eps = cfg.epsilon
    vflat = y.displacement.values.reshape(-1, 3)
    g = np.zeros(cfg.shape)
    gf = g.reshape(-1, 3)

    atom = _term(R, _atom_bonds(blocks), y.F, vflat, eps, (gf,))
    cb = _term(R, _continuum_bonds(part), y.F, vflat, eps, (gf,))
    cone = _term(R, _cone_bonds(blocks), y.F, vflat, eps, (gf,))

    counts = {str(law.eta): blocks[law.eta].counts for law in R}
    return EnergyReport(
        energy=atom.energy + cb.energy + cone.energy,
        gradient=LatticeField(cfg, g),
        model="coupled",
        excess=atom.excess + cb.excess + cone.excess,
        breakdown={"atomistic": atom.energy, "continuum": cb.energy, "interface": cone.energy},
        diagnostics={"counts": counts, **_timings(atomistic=atom, continuum=cb, interface=cone)},
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
    eps = cfg.epsilon
    F = y_minus.F
    vmf = y_minus.displacement.values.reshape(-1, 3)
    vpf = y_plus.displacement.values.reshape(-1, 3)

    g_tied = np.zeros(cfg.shape)
    g_m = np.zeros(cfg.shape)
    g_p = np.zeros(cfg.shape)
    gtf, gmf, gpf = g_tied.reshape(-1, 3), g_m.reshape(-1, 3), g_p.reshape(-1, 3)

    atom = _term(R, _atom_bonds(blocks), F, vmf, eps, (gtf, gmf))
    cb = _term(R, _continuum_bonds(part), F, vpf, eps, (gtf, gpf))
    cone = _term(R, _cone_bonds(blocks), F, vmf, eps, (gtf, gmf), keep_zeta=True)
    t0 = time.perf_counter()
    e_jump = 0.0
    for law, zeta_minus in zip(R, cone.zetas):
        e_jump += _jump_contrib(blocks[law.eta], law, F, vmf, vpf, eps, zeta_minus, gtf, gmf, gpf)
    jump = _Term(-e_jump, -e_jump, seconds=time.perf_counter() - t0)

    return EnergyReport(
        energy=(atom.energy + cb.energy + cone.energy) - e_jump,
        gradient=LatticeField(cfg, g_tied),
        model="coupled-dg",
        excess=(atom.excess + cb.excess + cone.excess) - e_jump,
        breakdown={
            "atomistic": atom.energy,
            "continuum": cb.energy,
            "interface": cone.energy,
            "interface_jump": jump.energy,
        },
        diagnostics={
            "gradient_minus": LatticeField(cfg, g_m),
            "gradient_plus": LatticeField(cfg, g_p),
            **_timings(atomistic=atom, continuum=cb, interface=cone, interface_jump=jump),
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
    vflat = y.displacement.values.reshape(-1, 3)
    g = np.zeros(cfg.shape)
    gf = g.reshape(-1, 3)
    idx = np.indices(cfg.N)

    def inside_bonds(law):
        inside = np.ones(cfg.N, dtype=bool)
        for dd in range(3):
            mid = idx[dd] + 0.5 * law.eta[dd]
            inside &= (mid > part.corner[dd]) & (mid < part.top[dd])
        return [(_bond_stencil(law.eta, cfg.N), inside.ravel().astype(float))]

    atom = _term(R, inside_bonds, y.F, vflat, eps, (gf,))
    cb = _term(R, _continuum_bonds(part), y.F, vflat, eps, (gf,))
    return EnergyReport(
        energy=atom.energy + cb.energy,
        gradient=LatticeField(cfg, g),
        model="naive",
        excess=atom.excess + cb.excess,
        breakdown={"atomistic": atom.energy, "continuum": cb.energy},
        diagnostics=_timings(atomistic=atom, continuum=cb),
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

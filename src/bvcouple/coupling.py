"""Region partition, bond-volume classes, and the coupled energies:
one assembly body for the conforming, discontinuous (two-sided) and
high-order models, and the naive control.

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
"quadrature bonds" q, evaluated by the one kernel ``energies._Unit``
for a fixed linear map B of the lattice displacement v, one of its two
operator kinds. The atomistic bonds (+1/-1 rows) and the interface cone
tets (eta^T A^-1 applied to the vertex values of the cone interpolant,
which are themselves affine combinations of lattice values) are sparse
gathers (``energies._Gather``) of CSR maps precomputed once per (partition,
direction), each row tagged with the lattice site of its bond. The jump
term's rows are the cone tets under the fine interface triangles; a block
keeps their indices and integer triangle data, and builds the jump's two
sides and trace (CSR rows too) when the two-sided model first reads it.
The continuum term is the staircase Cauchy-Born shift stencil of
``energies``, shared with the uncoupled models and restricted to the
continuum cells by zero weights; the naive control uses the atomistic
model's exact-bond stencil the same way, and is assembled, like the
uncoupled models, by ``energies._lattice_model``. How a term's batches run
(their pieces streamed through up to two lanes, the lane that completes a
unit's last piece finishing it, and the results added in batch order by
either lane, so every result is bitwise that of one lane) is the rule of
``energies``; see its docstring.

Every coupled model is one private body, ``_coupled``, told apart by its
model name: ``coupled``, ``coupled-dg`` and ``coupled-ho(k)``. The
atomistic bonds and interface cones read y_minus; the staircase
Cauchy-Born continuum reads y_plus with per-template P1 weights, 1/6 on
every continuum cell, or on the P1 cells of a ``highorder.HighOrderMesh``.
Given such a mesh, its Pk gather batches on [v | free nodes] are one more
continuum term, and the report carries the free-node gradient
``node_gradient`` and the mesh sizes. The two-sided model keeps the
per-side representers ``gradient_minus``/``gradient_plus`` and subtracts the
interface jump, which runs on the calling thread; the jump's inner trace is
the bond F eta + (minus_op @ v_minus) / eps of the cone tets under the fine
interface triangles, bitwise the bond the interface term evaluates there.
The conforming and high-order models run the body with y_plus = y_minus.
Each term hands ``energies._term`` its batches as (op, w, law, breakdown
key) tuples, ``energies._report`` builds the report, and every report
carries the member ``counts`` per direction. ``_coupled`` receives the
(law, block) list of its call: each public model fetches it with
``_get_blocks``, which checks the state's extents against the partition's
lattice (``_check_lattice``, as naive does) and the partition once, before
it builds or fetches any direction's block. The report's ``setup_s`` and
``built`` give the seconds each block (and the high-order mesh) took to
fetch or build, and which of them the call built. A block is built on the
partition's lattice whatever the degenerate-eta policy, so it is cached
per (partition, direction) only. A domain error of the interface jump
names its site by ``energies._site_error``, as the kernel's do. A block's
bond and cone weights, and the continuum weights of a partition
(``_continuum_weights``), are ``energies._Weights`` built once and cached
with them.

A direction's operators are built by array passes over the lattice: one
classification of every site's member box (``_member_classes``), the
atomistic bonds from the atomistic members and the reduce offsets, and the
cones of the interface members. A cone reads its member only through its
shape: lo - mu and hi - mu, where P = [lo, hi] and mu is the member's min
corner, and which of P's faces lie on the region's planes. Within a block
the shape fixes the classes of the six face neighbours, which choose each
cone face's triangulation. An interior face's neighbour is strictly
inside the region exactly when P is unclipped and off the region's planes
on the other two axes and the neighbour clears the near region plane on
the face's axis; the member then reaches the far plane, so the shape
fixes that clearance. Otherwise the neighbour is an interface member.
Up to translation the members take a few dozen shapes at any N (26, 104
and 44 for the README directions on a region of side 8 or more), numbered
by ``_cone_shapes``; ``_cone_tets`` builds the cones of all of a
direction's shapes in one pass, at their first members. It tabulates the
six faces of every shape, picks each face's triangulation from its plane
and neighbour class, and expands the fine squares and the fan polygons as
segments, writing the lattice points of every tet in (shape, face,
triangle, vertex, point) order and flagging the tets under fine interface
triangles. A cone tet is four vertices of lattice points; the edge
matrices are inverted once per shape tet, and the cone operator gives
each point of a vertex the coefficient 1/(number of points). Vertex
positions are means of 1, 4 or 8 integer points, so every copy's edge
matrix has the bits of its shape's. The shape tets' CSR rows are built
once, with sorted columns and duplicate points summed. Every member's
copy, in member-major row order, is its shape's rows with each column
shifted by the flat offset of mu - mu_first: cone points lie in the
closed atomistic box, strictly inside the torus, so the wrapped ravel is
linear there, and a fixed shift keeps each row's column order and sums.
The jump rows are the copies of the flagged tets, in the same order.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .energies import (
    _ONE,
    EnergyReport,
    _bond_stencil,
    _Csr,
    _drop_workspaces,
    _Gather,
    _lattice_model,
    _report,
    _site_error,
    _sparsetools,
    _spmv,
    _staircase_stencils,
    _term,
    _Term,
    _weights,
    _Weights,
    _workspace,
)
from .geometry import PATH_PERMS, CoveringMismatch, DegenerateEta, path_edge_offsets
from .lattice import Deformation, IntTriple, LatticeConfig, LatticeField
from .potentials import InteractionLaw, InteractionSet, PotentialDomainError

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

# A cone tet is the apex of P (the mean of its 8 corners) over a surface
# triangle, each of whose vertices is one lattice point or a fan centre (the
# mean of a face's 4 corners). Face f = 2 i + s of P lies on its lower
# (s = 0) or upper (s = 1) plane along axis i; its points are written in
# (j, k) = _FACE_AXES[i], the other two axes in ascending order.
_FACE_AXES = np.array([[1, 2], [0, 2], [0, 1]])
# A face rectangle's corners c0..c3, counter-clockwise in (j, k), as
# (lo, hi) selectors, and the direction of the side from c_s to c_s+1.
_CORNERS = np.array([[0, 0], [1, 0], [1, 1], [0, 1]])
_SIDES = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]])
# The halves (c0, c1, c2) and (c0, c2, c3) of a square split by the cell
# template's main diagonal, "lower" and "upper"; the other diagonal takes
# the corners shifted by one.
_HALVES = np.array([[0, 1, 2], [0, 2, 3]])
_APEX = np.indices((2, 2, 2)).reshape(3, -1).T   # P's corners as (lo, hi) selectors, z fastest


def _cone_tets(mu, w, eta, part: RegionPartition, reduce_mode: bool):
    """The cone tets of the shapes at the first members ``mu`` (S, 3), in
    (shape, face, triangle) order: their lattice points (P, 3) in (tet,
    vertex, point) order, the point count of each vertex (4T,), the tet
    count of each shape (S,), and per tet (axis, nu_sign, outer template)
    for a fine interface triangle with eta_axis != 0, else (-1, 0, 0).

    A face of P = [lo, hi] on a region plane is split into fine unit
    squares; an interior face takes a centroid fan against an interface
    neighbour (always for reduce members), with the lattice points of its
    sides that lie on a region plane, and the box template's diagonal
    against a strictly interior one, which leaves P unclipped there."""
    a, top, eta = np.asarray(part.corner), np.asarray(part.top), np.asarray(eta)
    lo, hi = np.maximum(mu, a), np.minimum(mu + w, top)
    ax = np.tile([0, 0, 1, 1, 2, 2], len(mu))                         # (F,) per face: its axis,
    shp = np.repeat(np.arange(len(mu)), 6)                            # its shape,
    plane = np.where(np.arange(len(ax)) % 2, hi[shp, ax], lo[shp, ax])  # its plane,
    jk = _FACE_AXES[ax]
    flo = lo[shp[:, None], jk]                                        # and its rectangle
    span = hi[shp[:, None], jk] - flo
    corner = flo[:, None] + span[:, None] * _CORNERS                  # (F, 4, 2)
    fine = (plane == a[ax]) | (plane == top[ax])
    nb = _neighbour_classes(mu, w, part).reshape(-1)
    fan = ~fine & (reduce_mode | (nb == 1))
    assert np.all(fine | fan | (nb == 2)), "interior cone face cannot border a continuum member"
    # a fan side carries its edge's lattice points when its fixed
    # coordinate lies on a region plane
    fixed, od = corner[:, [0, 1, 2, 3], [1, 0, 1, 0]], jk[:, [1, 0, 1, 0]]
    n_side = np.where((fixed == a[od]) | (fixed == top[od]), span[:, [0, 1, 0, 1]], 1)
    n_tri = np.select([fine, fan], [2 * span[:, 0] * span[:, 1], n_side.sum(axis=1)], 2)

    # The (j, k) of every triangle's vertices; a fan's first is its centre.
    face = np.repeat(np.arange(len(ax)), n_tri)
    t = np.arange(len(face)) - np.repeat(_starts(n_tri), n_tri)
    tri = np.zeros((len(face), 3, 2), dtype=np.int64)
    sq, f = ~fan[face], face[~fan[face]]
    cell = t[sq] // 2                                                  # a fine square, 0 on a junction
    shift = ~fine[f] & (eta[jk[f, 0]] * eta[jk[f, 1]] < 0)            # the template's other diagonal
    size = np.where(fine[f, None], 1, span[f])
    tri[sq] = (flo[f] + np.stack([cell // span[f, 1], cell % span[f, 1]], axis=1))[:, None] \
        + size[:, None] * _CORNERS[(_HALVES[t[sq] % 2] + shift[:, None]) % 4]
    fa = np.flatnonzero(fan)
    lens = n_side[fa].ravel()
    side = np.repeat(np.tile(np.arange(4), len(fa)), lens)
    poly = corner[np.repeat(fa, n_tri[fa]), side] + _SIDES[side] * _ranges(np.zeros_like(lens), lens)[:, None]
    nxt = np.arange(1, len(poly) + 1)
    nxt[np.cumsum(n_tri[fa]) - 1] = _starts(n_tri[fa])
    tri[fan[face], 1:] = np.stack([poly, poly[nxt]], axis=1)

    # Lattice points: plane e_i plus (j, k) in the face's frame (e_j, e_k).
    e = np.eye(3, dtype=np.int64)
    base, frame = plane[:, None] * e[ax], e[jk]
    tri3 = base[face, None] + tri @ frame[face]
    slots = np.empty((len(face), 14, 3), dtype=np.int64)   # apex, first vertex (4 slots), last two
    n_tets = n_tri.reshape(-1, 6).sum(axis=1)
    slots[:, :8] = np.repeat(np.where(_APEX, hi[:, None], lo[:, None]), n_tets, axis=0)
    slots[:, 8:12] = np.where(fan[face, None, None], (base[:, None] + corner @ frame)[face], tri3[:, :1])
    slots[:, 12:] = tri3[:, 1:]
    keep = np.ones(slots.shape[:2], dtype=bool)
    keep[:, 9:12] = fan[face, None]
    ones = np.ones(len(face), dtype=np.int64)
    n_pts = np.stack([8 * ones, np.where(fan[face], 4, 1), ones, ones], axis=1).ravel()

    flags = np.zeros((len(face), 3), dtype=np.int64)
    flags[:, 0] = -1
    g = fine[face] & (eta[ax[face]] != 0)
    sign = np.where(plane == a[ax], -1, 1)[face[g]]
    flags[g] = np.stack([ax[face[g]], sign, _GAMMA_PERMS[ax[face[g]], (sign > 0).astype(int), t[g] % 2]], axis=1)
    return np.compress(keep.ravel(), slots.reshape(-1, 3), axis=0), n_pts, n_tets, flags


# ======================================================================
# Precomputed per-direction assembly blocks
# ======================================================================

def _csr(rows, cols, vals, shape) -> _Csr:
    """CSR map from (row, column, value) entries, duplicates summed, by the
    steps of scipy's ``csr_array((vals, (rows, cols)), shape)``, so with its
    arrays and index dtype: the COO to CSR conversion, then, unless the
    result is canonical, its columns sorted (where they are not) and its
    duplicates summed. Like scipy, it rejects an entry outside the shape."""
    n_rows, n_cols = shape
    vals = np.asarray(vals, dtype=float)
    idx = np.int32 if max(n_rows, n_cols, vals.size) < 2**31 else np.int64
    rows, cols = np.asarray(rows, dtype=idx), np.asarray(cols, dtype=idx)
    for a, n in ((rows, n_rows), (cols, n_cols)):
        if a.shape != vals.shape or a.size and not 0 <= a.min() <= a.max() < n:
            raise ValueError(f"CSR entries must be {vals.size} indices in [0, {n}) per axis")
    indptr = np.empty(n_rows + 1, dtype=idx)
    indices, data = np.empty(vals.size, dtype=idx), np.empty_like(vals)
    _sparsetools.coo_tocsr(n_rows, n_cols, vals.size, rows, cols, vals, indptr, indices, data)
    if not _sparsetools.csr_has_canonical_format(n_rows, indptr, indices):
        if not _sparsetools.csr_has_sorted_indices(n_rows, indptr, indices):
            _sparsetools.csr_sort_indices(n_rows, indptr, indices, data)
        _sparsetools.csr_sum_duplicates(n_rows, n_cols, indptr, indices, data)
        indices, data = indices[: indptr[-1]], data[: indptr[-1]]
    return _Csr(indptr, indices, data, (n_rows, n_cols))


def _flat(sites, N) -> np.ndarray:
    """Flat site indices of the integer site triples (..., 3), wrapped."""
    return np.ravel_multi_index(np.moveaxis(np.asarray(sites, dtype=np.int64), -1, 0), N, mode="wrap")


@dataclass
class _GammaData:
    """Fine interface triangles of one direction, the rows of the jump term."""

    rows: np.ndarray              # (Tg,) the cone tets carrying the inner trace
    nu_eta: np.ndarray            # (Tg,) nu_a . eta
    sites: np.ndarray             # (Tg, 3, 3) the triangle's vertices
    cell: np.ndarray              # (Tg, 3) base site of the outer continuum cell
    perm: np.ndarray              # (Tg,) that cell's staircase template, an index into PATH_PERMS


@dataclass
class _JumpOps:
    """The jump term's operators on the fine interface triangles."""

    minus_op: _Csr                # (Tg, n_sites) the cone_op rows of the tets carrying the inner trace
    plus_op: _Csr                 # (Tg, n_sites) eta-weighted edge differences of the outer staircase tet
    trace_op: _Csr                # (Tg, n_sites) sum of the triangle's three vertex values


@dataclass
class _EtaBlock:
    """Quadrature bonds of one direction. Each term's bond vectors are
    zeta = F eta + (op @ v) / eps for the flat (n_sites, 3) displacement v."""

    eta: IntTriple
    n_eta: int
    atom_op: _Gather              # (n_bonds, n_sites) +1 at the bond tip, -1 at its base
    atom_w: _Weights              # (n_bonds,) bond weights
    cone_op: _Gather              # (T, n_sites) eta^T A^{-1} applied to (vertex - apex values) per cone tet
    volw: _Weights                # (T,) lattice volume / n_eta
    gamma: _GammaData
    counts: dict[str, int]

    @cached_property
    def jump(self) -> _JumpOps:
        """The jump operators, built when the two-sided model first reads
        this block."""
        return _jump_ops(self)


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


@lru_cache(maxsize=_BLOCK_CACHE_SIZE)
def _continuum_weights(part: RegionPartition) -> _Weights:
    """Staircase Cauchy-Born weight of each cell, 1/6 on the continuum
    cells and 0 on the atomistic ones, kept per partition like the blocks."""
    return _weights(omega_star_mask(part).ravel() / 6.0)


def _plus_side_perm(axis: int, nu_sign: int, half: str) -> tuple[int, int, int]:
    """Staircase permutation of the continuum-side tet whose face is the
    given half of a unit interface square."""
    j, k = [d for d in range(3) if d != axis]
    if nu_sign < 0:
        # continuum cell below the region: its upper face is the square
        return (axis, j, k) if half == "lower" else (axis, k, j)
    return (j, k, axis) if half == "lower" else (k, j, axis)


def _starts(lens) -> np.ndarray:
    """Offset of each of the consecutive segments of lengths ``lens``."""
    return np.cumsum(lens) - lens


def _ranges(starts, lens) -> np.ndarray:
    """The concatenated ranges [s, s + n) of the starts s and lengths n."""
    return np.arange(np.sum(lens)) + np.repeat(starts - _starts(lens), lens)


def _cone_shapes(mu, w, part: RegionPartition) -> tuple[np.ndarray, np.ndarray]:
    """The first member of each cone shape (see the module docstring) and
    the shape of each interface member, at min corners ``mu`` (M, 3)."""
    lo, hi = np.maximum(mu, part.corner), np.minimum(mu + w, part.top)
    key = np.concatenate([lo - mu, hi - mu, lo == part.corner, hi == part.top], axis=1)
    # each row as one mixed-radix integer, its columns in key order, which
    # sorts as the rows do
    radix = np.concatenate([w + 1, w + 1, [2] * 6])
    place = np.cumprod(np.append(radix[1:], 1)[::-1])[::-1]
    _, first, shape = np.unique(key @ place, return_index=True, return_inverse=True)
    return first, shape


# The template of the continuum tet under a fine interface triangle, by
# (axis, nu_sign > 0, half), as an index into PATH_PERMS.
_GAMMA_PERMS = np.array([[[PATH_PERMS.index(_plus_side_perm(i, s, h)) for h in ("lower", "upper")]
                          for s in (-1, 1)] for i in range(3)])

# Per staircase template, the base offset of its edge parallel to each axis.
_EDGE_OFFSETS = np.array([[path_edge_offsets(perm)[a] for a in range(3)] for perm in PATH_PERMS])


@lru_cache(maxsize=_BLOCK_CACHE_SIZE)
def _build_eta_block(part: RegionPartition, eta: IntTriple) -> _EtaBlock:
    """The block of one direction on the lattice of a partition that has
    passed ``_check_partition``, so a zero component of eta means the
    ``reduce`` members: the block does not depend on the policy, and is
    cached without it."""
    _drop_workspaces()
    N = part.cfg.N
    n_sites = part.cfg.n_sites
    zero = [d for d in range(3) if eta[d] == 0]
    n_eta = int(np.prod([abs(e) for e in eta if e != 0]))

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
    ends = _flat(np.stack([base + np.asarray(eta), base], axis=1), N)
    atom_op = _Gather(
        _csr(np.repeat(np.arange(n_bonds), 2), ends.ravel(), np.tile([1.0, -1.0], n_bonds),
             (n_bonds, n_sites)),
        _ONE,
        ends[:, 1],
        N,
    )

    # --- cone tets of the interface members, one build per shape ---------
    # Every shape's cone is built at its first member, all shapes in one
    # pass; each shape tet is flagged as ``_cone_tets`` says.
    mu_i = mu[interface]
    first, shape = _cone_shapes(mu_i, w, part)
    pts, n_pts, n_tets, fine = _cone_tets(mu_i[first], w, eta, part, bool(zero))

    # eta^T A^-1 (vertex values - apex value) per shape tet, a vertex value
    # being the mean of its lattice points' values. Vertex positions are
    # sums of integers over 1, 4 or 8, so A has the same bits in every copy.
    vert_pt = _starts(n_pts)                    # first point of each vertex
    pos = (np.add.reduceat(pts, vert_pt) / n_pts[:, None]).reshape(-1, 4, 3)
    A = pos[:, 1:] - pos[:, :1]
    volw = np.abs(np.linalg.det(A)) / 6.0 / n_eta
    m = np.einsum("r,trs->ts", np.asarray(eta, dtype=float), np.linalg.inv(A))
    weights = np.concatenate([-m.sum(axis=1, keepdims=True), m], axis=1).ravel()
    tet_pts = n_pts.reshape(-1, 4).sum(axis=1)
    vert_pt = vert_pt.reshape(-1, 4)
    shape_op = _csr(np.repeat(np.arange(len(tet_pts)), tet_pts), _flat(pts, N),
                    np.repeat(weights * (1.0 / n_pts), n_pts), (len(tet_pts), n_sites))

    # Every member's copy of its shape, member-major: cone tet t is shape
    # tet tet[t] of member member[t], its row the shape row with every
    # column shifted by the flat offset of mu - mu_first (see the module
    # docstring).
    copies = n_tets[shape]
    tet0 = _starts(n_tets)                      # first tet of each shape
    tet = _ranges(tet0[shape], copies)
    member = np.repeat(np.arange(len(shape)), copies)
    mu_d = mu_i - mu_i[first][shape]
    row_nnz = np.diff(shape_op.indptr)
    shape_nnz = np.add.reduceat(row_nnz, tet0)[shape]
    entry = _ranges(shape_op.indptr[tet0][shape], shape_nnz)
    shift = np.repeat(mu_d @ np.array([N[1] * N[2], N[2], 1]), shape_nnz)
    idx = shape_op.indices.dtype
    cone_op = _Csr(np.concatenate([[0], np.cumsum(row_nnz[tet])]).astype(idx),
                   (shape_op.indices[entry] + shift).astype(idx), shape_op.data[entry], (len(tet), n_sites))

    # --- the jump rows: the copies of the flagged shape tets ------------
    # A fine triangle's three lattice sites are its tet's last three
    # vertices. The outer continuum cell has the first of them (the
    # square's min corner) as base, or the cell below it on the region's
    # lower faces.
    rows = np.flatnonzero(fine[tet, 0] >= 0)
    g_axis, g_sign, g_perm = fine[tet[rows]].T
    tri_sites = pts[vert_pt[tet[rows], 1:]] + mu_d[member[rows], None]
    cell = tri_sites[:, 0] - (g_sign < 0)[:, None] * np.eye(3, dtype=np.int64)[g_axis]
    assert omega_star_mask(part)[tuple(np.mod(cell, N).T)].all(), \
        "outer interface cell must be continuum"
    return _EtaBlock(
        eta=eta,
        n_eta=n_eta,
        atom_op=atom_op,
        atom_w=_weights(np.full(n_bonds, 1.0 / len(offsets))),
        cone_op=_Gather(cone_op, _ONE, _flat(ells[interface], N)[member], N),
        volw=_weights(volw[tet]),
        gamma=_GammaData(rows, (g_sign * np.asarray(eta)[g_axis]).astype(float), tri_sites, cell, g_perm),
        counts=counts,
    )


def _jump_ops(block: _EtaBlock) -> _JumpOps:
    """The jump term's operators on the rows ``block.gamma``."""
    gam, N = block.gamma, block.cone_op.N
    n_tri, n_sites = gam.rows.size, block.cone_op.G.shape[1]
    # plus side: eta_a times the outer tet's edge difference along each axis
    # a with eta_a != 0 (edge tip, then base)
    axes = [a for a in range(3) if block.eta[a] != 0]
    edge_base = gam.cell[:, None, :] + _EDGE_OFFSETS[gam.perm][:, axes]
    edges = _flat(np.stack([edge_base + np.eye(3, dtype=np.int64)[axes], edge_base], axis=2), N)
    eta_a = np.asarray(block.eta, dtype=float)[axes]
    return _JumpOps(
        minus_op=block.cone_op.G[gam.rows],
        plus_op=_csr(np.repeat(np.arange(n_tri), 2 * len(axes)), edges.ravel(),
                     np.tile(np.stack([eta_a, -eta_a], axis=1).ravel(), n_tri), (n_tri, n_sites)),
        trace_op=_csr(np.repeat(np.arange(n_tri), 3), _flat(gam.sites, N).ravel(), np.ones(3 * n_tri),
                      (n_tri, n_sites)),
    )


# ======================================================================
# Evaluation helpers
# ======================================================================

def _jump_contrib(block: _EtaBlock, law: InteractionLaw, F, vm_flat, vp_flat, eps, grads):
    """Interface jump term of the discontinuous energy; adds its gradients
    to ``grads``, the tied and the two per-side representers, unless
    ``grads`` is None.

    The energy subtracts sum over fine interface triangles of
    |tau| phi'(<grad y eta>) . [[y eta]](centroid); traces are centroid
    means of the three vertex values per side, so the jump is exactly zero
    on continuous data and those triangles are skipped (adding their
    identically-zero contributions could still flip signed zeros). The
    inner trace's bond is F eta + (minus_op @ v_minus) / eps, the bits of
    the cone tet's own bond in the interface term; the outer one is
    F eta + (plus_op @ v_plus) / eps. phi' and, where a jump is nonzero
    and ``grads`` is given, phi'' come from one ``law.evaluate`` call. A
    domain error names the min-corner lattice site of the fine triangle
    with the shortest averaged bond, and eta.
    """
    nu_eta = block.gamma.nu_eta
    if nu_eta.size == 0:
        return 0.0
    ops = block.jump
    base = F @ law.eta_vec
    zm = base + (ops.minus_op @ vm_flat) / eps
    zp = base + (ops.plus_op @ vp_flat) / eps
    avg = 0.5 * (zm + zp)
    # The site-sized temporaries (the two states' difference, then each
    # transposed product) share one array of the calling lane's arena.
    site_buf = _workspace().array("arena", vm_flat.size).reshape(vm_flat.shape)
    J = nu_eta[:, None] * (ops.trace_op @ np.subtract(vm_flat, vp_flat, out=site_buf)) / 3.0
    active = np.any(J != 0.0, axis=1)
    jumps = grads is not None and bool(active.any())
    try:
        derivs = law.evaluate(avg, 2 if jumps else 1)
    except PotentialDomainError as exc:
        corner = block.gamma.sites[int(np.argmin(np.linalg.norm(avg, axis=-1))), 0]
        raise _site_error(exc, tuple(int(i) for i in np.mod(corner, block.cone_op.N)), law.eta) from exc
    phi1 = derivs[1]
    w_area = eps**2 * 0.5 / block.n_eta
    energy = float(w_area * np.sum(phi1 * J))
    if grads is None:
        return energy
    g_tied, g_minus, g_plus = grads

    # phi'' part: coefficient [[y eta]]^T phi''(<.>), chained through both
    # side gradients at weight 1/2; skipped where the jump is exactly zero.
    if jumps:
        idx = np.nonzero(active)[0]
        q = np.zeros_like(J)
        q[idx] = np.einsum("tij,tj->ti", derivs[2][idx], J[idx])
        q *= -1.0 / (4.0 * block.n_eta * eps**2)
        for op, side in ((ops.minus_op, g_minus), (ops.plus_op, g_plus)):
            contrib = _spmv(op.T, q, site_buf)
            g_tied += contrib
            side += contrib

    # phi' trace part: for the tied representer the two traces cancel
    # identically, so it only enters the per-side representers.
    c_tr = 1.0 / (6.0 * block.n_eta * eps)
    contrib = _spmv(ops.trace_op.T, (c_tr * nu_eta)[:, None] * phi1, site_buf)
    g_minus -= contrib
    g_plus += contrib
    return energy


# ======================================================================
# Coupled energies
# ======================================================================

def _check_lattice(y: Deformation, part: RegionPartition) -> None:
    """The state must live on the lattice of the partition's blocks and meshes."""
    if y.cfg.N != part.cfg.N:
        raise ValueError(f"state extents {y.cfg.N} differ from the partition's lattice extents {part.cfg.N}")


def _fetch(setup: dict, key: str, build, *args):
    """``build(*args)`` of a cached builder, recording the seconds it took
    in ``setup["setup_s"][key]`` and, when it built, ``key`` in
    ``setup["built"]``."""
    misses = build.cache_info().misses
    t0 = time.perf_counter()
    out = build(*args)
    setup["setup_s"][key] = time.perf_counter() - t0
    if build.cache_info().misses > misses:
        setup["built"].append(key)
    return out


def _get_blocks(y: Deformation, part, R, policy) -> tuple[list[tuple[InteractionLaw, _EtaBlock]], dict]:
    """Each law with its direction's block, once y and the partition pass
    their checks, and the setup diagnostics of the fetch (``_fetch``)."""
    _check_lattice(y, part)
    _check_partition(part, R, policy)
    setup: dict = {"setup_s": {}, "built": []}
    return [(law, _fetch(setup, str(law.eta), _build_eta_block, part, law.eta)) for law in R], setup


def _coupled(model: str, y_minus: Deformation, y_plus: Deformation, blocks, setup, part, mesh=None,
             nodes=None, *, gradient: bool = True) -> EnergyReport:
    """Every coupled energy: ``coupled``, ``coupled-dg`` and
    ``coupled-ho(k)``, on the (law, block) list ``blocks`` and the setup
    diagnostics ``setup`` that ``_get_blocks`` gives for the partition
    ``part``, which it has checked.
    The atomistic bonds and interface cones read y_minus,
    the staircase Cauchy-Born templates read y_plus, weighted 1/6 on every
    continuum cell, or on the P1 cells ``mesh.p1_masks`` of a high-order
    mesh, whose Pk elements are one more term on [v | nodes]. The two-sided
    model also keeps the per-side representers and subtracts the interface
    jump; the others are called with y_plus = y_minus. Given free-node
    displacements ``nodes`` ((0, 3) for degree 1), the report carries the
    free-node block of the gradient as ``node_gradient``. With
    ``gradient=False`` every term is energy-only and the report carries no
    gradient: ``gradient`` is None, with no per-side or free-node block."""
    cfg = y_minus.cfg
    eps, F = cfg.epsilon, y_minus.F
    vmf = y_minus.displacement.values.reshape(-1, 3)
    vpf = y_plus.displacement.values.reshape(-1, 3)
    two_sided = model == "coupled-dg"
    n_free = 0 if nodes is None else len(nodes)
    inner = outer = pk = []  # the gradient arrays each term adds to
    if gradient:
        gx, *sides = [np.zeros((cfg.n_sites + n_free, 3)) for _ in range(3 if two_sided else 1)]
        gtf = gx[: cfg.n_sites]
        inner, outer, pk = [gtf, *sides[:1]], [gtf, *sides[1:]], [gx]
    p1_w = (_continuum_weights(part),) * 6 if mesh is None else mesh.p1_weights
    atom = [(b.atom_op, b.atom_w, law, "atomistic") for law, b in blocks]
    laws = [law for law, _ in blocks]
    cb = [(op, w, law, "continuum") for law in laws for op, w in zip(_staircase_stencils(law.eta, cfg.N), p1_w)]
    cone = [(b.cone_op, b.volw, law, "interface") for law, b in blocks]
    terms = [
        _term("atomistic", atom, F, vmf, eps, inner),
        _term("continuum", cb, F, vpf, eps, outer),
    ]
    if mesh is not None:
        terms.append(_term("continuum_pk", mesh.pk_batches(laws), F, np.concatenate([vmf, nodes]), eps, pk))
    terms.append(_term("interface", cone, F, vmf, eps, inner))
    diagnostics = {
        "counts": {str(law.eta): b.counts for law, b in blocks},
        "cone_tets": {str(law.eta): b.cone_op.sites.size for law, b in blocks},
        "jump_rows": {str(law.eta): b.gamma.rows.size for law, b in blocks},
        **setup,
    }
    if two_sided:
        t0 = time.perf_counter()
        e_jump = 0.0
        for law, b in blocks:
            e_jump += _jump_contrib(b, law, F, vmf, vpf, eps, (gtf, *sides) if gradient else None)
        terms.append(_Term("interface_jump", {"interface_jump": (-e_jump, -e_jump)}, time.perf_counter() - t0,
                           law_calls=sum(1 for _, b in blocks if b.gamma.rows.size)))
    grad = None
    if gradient:
        grad = LatticeField(cfg, gtf.reshape(cfg.shape))
        if two_sided:
            diagnostics.update(gradient_minus=LatticeField(cfg, sides[0].reshape(cfg.shape)),
                               gradient_plus=LatticeField(cfg, sides[1].reshape(cfg.shape)))
        if nodes is not None:
            diagnostics["node_gradient"] = gx[cfg.n_sites:]
    if mesh is not None:
        diagnostics.update(n_elements=mesh.n_elements, n_p1_elements=mesh.n_p1_elements,
                           n_free_nodes=mesh.n_free_nodes)
    return _report(model, grad, terms, **diagnostics)


def coupled_energy_conforming(
    y: Deformation, R: InteractionSet, part: RegionPartition, degenerate_eta: str = "reject",
    *, gradient: bool = True,
) -> EnergyReport:
    """Conforming coupled energy: exact bonds strictly inside the atomistic
    region + staircase Cauchy-Born over the complement cells + interface
    cone integrals at weight 1/|eta1 eta2 eta3|. ``gradient=False``
    computes the same energy, excess and breakdown without the gradient,
    which the report then leaves None."""
    return _coupled("coupled", y, y, *_get_blocks(y, part, R, degenerate_eta), part, gradient=gradient)


def coupled_energy_dg(
    y_minus: Deformation,
    y_plus: Deformation,
    R: InteractionSet,
    part: RegionPartition,
    degenerate_eta: str = "reject",
    *,
    gradient: bool = True,
) -> EnergyReport:
    """Two-sided coupled energy: the inner trace (atomistic + interface
    cones) comes from y_minus, the outer Cauchy-Born field from y_plus, and
    the interface term subtracts the jump--average correction integrated
    over the fine interface triangles.

    The reported gradient is the representer along tied directions
    (perturbing both sides equally); the per-side representers are in
    diagnostics as ``gradient_minus`` / ``gradient_plus``. With
    ``gradient=False`` the report carries none of the three; the jump term
    still evaluates phi' for its energy.
    """
    if y_plus.cfg != y_minus.cfg:
        raise ValueError("both sides must share one lattice config")
    if not np.array_equal(y_minus.F, y_plus.F):
        raise ValueError("both sides must share the same deformation gradient F")
    return _coupled("coupled-dg", y_minus, y_plus, *_get_blocks(y_minus, part, R, degenerate_eta), part,
                    gradient=gradient)


def naive_coupling_energy(
    y: Deformation, R: InteractionSet, part: RegionPartition, *, gradient: bool = True
) -> EnergyReport:
    """Negative control: atomistic bonds whose midpoint lies in the open
    atomistic box plus Cauchy-Born over the complement cells, with no
    interface correction. Produces spurious interface forces by design.
    ``gradient=False`` as in ``coupled_energy_conforming``."""
    _check_lattice(y, part)
    cfg = y.cfg
    idx = np.indices(cfg.N)
    a, top = (np.reshape(c, (3, 1, 1, 1)) for c in (part.corner, part.top))

    def inside(eta):
        """1.0 at the sites whose bond midpoint lies in the open atomistic box."""
        mid = idx + 0.5 * np.reshape(eta, (3, 1, 1, 1))
        return np.all((mid > a) & (mid < top), axis=0).ravel().astype(float)

    w = _continuum_weights(part)
    atom = [(_bond_stencil(law.eta, cfg.N), _weights(inside(law.eta)), law, "atomistic") for law in R]
    cb = [(op, w, law, "continuum") for law in R for op in _staircase_stencils(law.eta, cfg.N)]
    return _lattice_model(y, "naive", {"atomistic": atom, "continuum": cb}, gradient)

"""Box decompositions into six tetrahedra, P1 gradients, discrete gradients,
bond-volume coverings, and the bond-volume integral identity.

The decomposition template is the staircase (Kuhn) subdivision: for each of
the six orderings (s1, s2, s3) of the axes, one tetrahedron walks the box
from the base corner to the opposite corner one axis at a time. The same
template is used for every cell, which makes the global mesh conforming, and
for every bond volume (reflected through the signs of eta for negative
components). Each tetrahedron has exactly one edge parallel to each axis,
which is what makes the discrete gradients below exact edge differences.

All combinatorics are done in integer lattice units; physical coordinates
(scaled by epsilon) appear only in the public Tetrahedron objects.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .lattice import IntTriple, LatticeConfig, LatticeField

PATH_PERMS: tuple[tuple[int, int, int], ...] = tuple(permutations((0, 1, 2)))


class DegenerateEta(ValueError):
    """An operation requiring a full 3D bond volume got some eta_i = 0."""


class CoveringMismatch(ValueError):
    """Torus extents are not divisible by the bond-volume widths."""


def path_corner_offsets(perm: tuple[int, int, int]) -> tuple[IntTriple, ...]:
    """Unit-box corner offsets (in {0,1}^3) visited by one staircase tet."""
    s = [0, 0, 0]
    out = [tuple(s)]
    for axis in perm:
        s[axis] += 1
        out.append(tuple(s))
    return tuple(out)  # type: ignore[return-value]


def path_edge_offsets(perm: tuple[int, int, int]) -> dict[int, IntTriple]:
    """For one staircase tet: base offset of its edge parallel to each axis.

    The edge parallel to axis ``a`` runs from the returned offset to that
    offset plus e_a (all in unit-box coordinates).
    """
    out: dict[int, IntTriple] = {}
    s = [0, 0, 0]
    for axis in perm:
        out[axis] = tuple(s)  # type: ignore[assignment]
        s[axis] += 1
    return out


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
    ell = np.asarray(ell, dtype=int)
    eta_arr = np.asarray(eta, dtype=int)
    eps = cfg.epsilon
    vol = eps**3 * abs(int(eta_arr[0] * eta_arr[1] * eta_arr[2])) / 6.0
    tets = []
    for perm in PATH_PERMS:
        sites = []
        for off in path_corner_offsets(perm):
            sites.append(tuple(int(ell[d] + eta_arr[d] * off[d]) for d in range(3)))
        verts = eps * np.asarray(sites, dtype=float)
        signed = np.linalg.det(verts[1:] - verts[0]) / 6.0
        if signed < 0:
            sites[2], sites[3] = sites[3], sites[2]
            verts = eps * np.asarray(sites, dtype=float)
        verts.flags.writeable = False
        tets.append(Tetrahedron(vertices=verts, sites=tuple(sites), volume=vol))
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
    eta = tuple(int(e) for e in eta)
    if eta[0] * eta[1] * eta[2] == 0:
        raise DegenerateEta(
            f"bond volume for eta={eta} is degenerate (zero component); "
            "see the coupling module's degenerate_eta policy"
        )
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


@dataclass(frozen=True)
class Covering:
    """One offset class of bond volumes of direction eta tiling the torus."""

    eta: IntTriple
    offset: IntTriple
    base_sites: tuple[IntTriple, ...]


def covering_widths(eta) -> IntTriple:
    """Per-axis member widths: |eta_i| for nonzero components, else 1."""
    return tuple(max(abs(int(e)), 1) for e in eta)  # type: ignore[return-value]


def enumerate_coverings(eta, cfg: LatticeConfig) -> list[Covering]:
    """All offset classes of bond volumes of direction eta.

    Each covering tiles the torus exactly once; there are prod(|eta_i|)
    classes over the nonzero components (zero components contribute width-1
    members at every offset).
    """
    eta = tuple(int(e) for e in eta)
    if eta == (0, 0, 0):
        raise DegenerateEta("interaction vector must be nonzero")
    w = covering_widths(eta)
    bad = [i for i in range(3) if eta[i] != 0 and cfg.N[i] % abs(eta[i]) != 0]
    if bad:
        raise CoveringMismatch(
            f"torus extents N={cfg.N} are not divisible by |eta_i| of eta={eta} "
            f"in dimension(s) {bad}; coverings cannot close on the torus"
        )
    coverings = []
    for c0 in range(w[0]):
        for c1 in range(w[1]):
            for c2 in range(w[2]):
                c = (c0, c1, c2)
                members = []
                for l0 in range(c0, cfg.N[0], w[0]):
                    for l1 in range(c1, cfg.N[1], w[1]):
                        for l2 in range(c2, cfg.N[2], w[2]):
                            members.append((l0, l1, l2))
                coverings.append(Covering(eta=eta, offset=c, base_sites=tuple(members)))
    return coverings


def _edge_difference_sum(u: LatticeField, ell, eta) -> np.ndarray:
    """Sum over staircase tets and axes of the axis-edge differences.

    Aggregated over the six tets, each axis edge of the box participates
    with multiplicity 2 (base and far offsets) or 1 (the two middle
    offsets); telescoping makes the total exactly six times the corner-to-
    corner difference for any field.
    """
    ell = tuple(int(x) for x in ell)
    eta = tuple(int(e) for e in eta)
    acc = np.zeros(3)
    for a in range(3):
        b, c = [d for d in range(3) if d != a]
        for s_pair, weight in ((((0, 0)), 2.0), ((1, 0), 1.0), ((0, 1), 1.0), ((1, 1), 2.0)):
            s_b, s_c = s_pair
            base = tuple(
                ell[k] + eta[k] * (s_b * (k == b) + s_c * (k == c)) for k in range(3)
            )
            top = tuple(base[k] + eta[k] * (k == a) for k in range(3))
            acc = acc + weight * (u.at(top) - u.at(base))
    return acc


def bond_volume_lemma_residual(u: LatticeField, ell, eta) -> float:
    """Max-norm of eps^3 D_eta u - (1/|eta1 eta2 eta3|) * sum |T| grad(u)|_T eta
    over the staircase decomposition of the bond volume.

    The integral side is evaluated in a factored edge-difference form in
    which the per-axis denominators cancel, so affine fields with integer
    coefficients in lattice coordinates give a bitwise-zero residual.
    """
    eta = tuple(int(e) for e in eta)
    if eta[0] * eta[1] * eta[2] == 0:
        raise DegenerateEta(f"bond volume lemma needs all eta components nonzero, got {eta}")
    ell = tuple(int(x) for x in ell)
    eps = u.cfg.epsilon
    bond_end = tuple(ell[k] + eta[k] for k in range(3))
    bond_diff = u.at(bond_end) - u.at(ell)
    integral = _edge_difference_sum(u, ell, eta) / 6.0
    return float(np.max(np.abs(eps**2 * (bond_diff - integral))))


def rectangle_lemma_residual(u: LatticeField, ell, eta) -> float:
    """Planar analogue for directions with exactly one zero component:
    max-norm of eps^2 D_eta u - (1/|eta_i eta_j|) * integral of grad(u) eta
    over the bond rectangle split into two triangles by the bond diagonal."""
    eta = tuple(int(e) for e in eta)
    zeros = [d for d in range(3) if eta[d] == 0]
    if len(zeros) != 1:
        raise ValueError(f"rectangle form needs exactly one zero component, got eta={eta}")
    i, j = [d for d in range(3) if eta[d] != 0]
    ell = tuple(int(x) for x in ell)
    eps = u.cfg.epsilon
    bond_end = tuple(ell[k] + eta[k] for k in range(3))
    corner_i = tuple(ell[k] + eta[k] * (k == i) for k in range(3))
    corner_j = tuple(ell[k] + eta[k] * (k == j) for k in range(3))
    # Each triangle's grad(u) . eta telescopes to the bond difference.
    tri1 = (u.at(corner_i) - u.at(ell)) + (u.at(bond_end) - u.at(corner_i))
    tri2 = (u.at(corner_j) - u.at(ell)) + (u.at(bond_end) - u.at(corner_j))
    integral = eps * ((tri1 + tri2) / 2.0)
    lhs = eps * (u.at(bond_end) - u.at(ell))
    return float(np.max(np.abs(lhs - integral)))


def segment_lemma_residual(u: LatticeField, ell, eta) -> float:
    """1D analogue for directions with two zero components: max-norm of
    eps D_eta u - (1/|eta_i|) * integral of the tangential derivative times
    (tangent . eta) along the bond segment."""
    eta = tuple(int(e) for e in eta)
    nonzero = [d for d in range(3) if eta[d] != 0]
    if len(nonzero) != 1:
        raise ValueError(f"segment form needs exactly one nonzero component, got eta={eta}")
    i = nonzero[0]
    n = abs(eta[i])
    ell = tuple(int(x) for x in ell)
    eps = u.cfg.epsilon
    bond_end = tuple(ell[k] + eta[k] for k in range(3))
    diff = u.at(bond_end) - u.at(ell)
    # The tangential derivative is diff/(eps n) and (tangent . eta) = n, so
    # the segment integral is diff * n; dividing by |eta_i| recovers diff.
    integral = diff * float(n)
    lhs = diff
    return float(np.max(np.abs(lhs - integral / n)))

"""Object-level geometry oracles for the tests: staircase tetrahedra with
physical vertices, the cell and bond-volume decompositions built from
them, and the P1, per-tet discrete and cell-averaged gradients.

The package computes these quantities as whole-array operators; the tests
compare those against the per-object forms here, which read only the
staircase table of ``bvcouple.geometry``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from bvcouple.geometry import _staircase_simplices, nondegenerate_eta
from bvcouple.lattice import IntTriple, LatticeConfig, LatticeField


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

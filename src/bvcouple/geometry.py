"""Staircase box decompositions, bond-volume coverings, and the bond-volume
integral identity.

The decomposition template is the staircase (Kuhn) subdivision: for each of
the six orderings (s1, s2, s3) of the axes, one tetrahedron walks the box
from the base corner to the opposite corner one axis at a time. The same
template is used for every cell, which makes the global mesh conforming, and
for every bond volume (reflected through the signs of eta for negative
components). Each tetrahedron has exactly one edge parallel to each axis,
which makes the staircase discrete gradients (``path_edge_offsets``) exact
edge differences.

One table, ``_staircase_simplices``, gives the oriented simplices of whole
arrays of boxes (triangles or a segment over the nonzero axes of a flat
eta). The covering interpolants and the lemma residual read it. One
residual, ``lemma_residual``, serves every nonzero eta, the bond box and
its planar and 1D analogues alike: it evaluates sum_T |T| grad(I u)|_T eta
from each simplex's vertices, so a wrong decomposition fails it.

All combinatorics are done in integer lattice units.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from .lattice import IntTriple, LatticeConfig, LatticeField

PATH_PERMS: tuple[tuple[int, int, int], ...] = tuple(permutations((0, 1, 2)))


class DegenerateEta(ValueError):
    """An operation requiring a full 3D bond volume got some eta_i = 0."""


class CoveringMismatch(ValueError):
    """Torus extents are not divisible by the bond-volume widths."""


def nondegenerate_eta(eta) -> IntTriple:
    """eta as an integer triple, when every component is nonzero (a full 3D
    bond volume); DegenerateEta otherwise."""
    eta = tuple(int(e) for e in eta)
    if 0 in eta:
        raise DegenerateEta(f"eta={eta} has a zero component; a full 3D bond volume needs every component nonzero")
    return eta  # type: ignore[return-value]


def path_corner_offsets(perm: tuple[int, ...]) -> tuple[IntTriple, ...]:
    """Unit-box corner offsets (in {0,1}^3) of one staircase walk along ``perm``."""
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


@lru_cache(maxsize=None)
def _parity(perm: tuple[int, ...]) -> int:
    """Sign of a permutation, given as a tuple of distinct integers."""
    return (-1) ** sum(a > b for a, b in combinations(perm, 2))


@lru_cache(maxsize=None)
def _staircase_walks(axes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Unit-box corner offsets (d!, d+1, 3) of the staircase walks over
    ``axes`` in ``permutations`` order, and the parity of each ordering.
    Unbounded cache: there are seven nonempty axis sets."""
    perms = list(permutations(axes))
    return np.asarray([path_corner_offsets(p) for p in perms]), np.asarray([_parity(p) for p in perms])


def _staircase_simplices(corners, eta) -> np.ndarray:
    """Lattice sites of the oriented staircase simplices of the boxes spanned
    by ``eta`` from the base corners ``corners`` (..., 3).

    Shape (..., d!, d+1, 3) over the d nonzero axes of eta, one simplex per
    ordering of those axes (``permutations`` order). Each walks its box from
    the corner to the corner plus eta one axis at a time; where that walk is
    negatively oriented its last two vertices are swapped, so every edge
    matrix (rows: vertices minus the first, over the nonzero axes) has a
    positive determinant.
    """
    eta = np.asarray(eta, dtype=int)
    axes = np.flatnonzero(eta)
    offsets, parity = _staircase_walks(tuple(axes.tolist()))
    steps = eta * offsets
    flip = parity * np.prod(eta[axes]) < 0
    steps[flip, -2:] = steps[flip, -1:-3:-1]
    return np.asarray(corners, dtype=int)[..., None, None, :] + steps


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
    # the members of the offset c sit at c + w * m over the index grid m
    grid = np.indices([n // wi for n, wi in zip(cfg.N, w)]).reshape(3, -1).T * w
    return [Covering(eta=eta, offset=c, base_sites=tuple(map(tuple, (grid + c).tolist()))) for c in np.ndindex(*w)]


def _int_det(m: np.ndarray) -> np.ndarray:
    """Exact determinants of integer matrices (..., d, d) by the Leibniz sum."""
    d = m.shape[-1]
    perms = list(permutations(range(d)))
    return np.prod(m[..., range(d), perms], axis=-1) @ [_parity(p) for p in perms]


def lemma_residual(u: LatticeField, ell, eta) -> float:
    """Max-norm of eps^d D_eta u - (1/|prod eta_i|) * sum_T |T| grad(I u)|_T eta
    over the staircase simplices T of the bond volume of any nonzero eta,
    with d the number of its nonzero components: the six tetrahedra of the
    bond box (d = 3), the two triangles of the bond rectangle (d = 2), or
    the bond segment (d = 1); I u is the P1 interpolant on those simplices.
    DegenerateEta for eta = 0.

    Per simplex, |T| grad(I u)|_T eta = (1/d!) sum_k c_k (u(x_k) - u(x_0)),
    where c_k is the determinant of the edge matrix with row k replaced by
    eta (its cofactors applied to eta; Cramer's rule, with the positive
    orientation the decomposition guarantees). All of this is in integer
    lattice units, so integer-valued fields give a residual of exactly 0.0.
    """
    eta = np.asarray(eta, dtype=int)
    axes = np.flatnonzero(eta)
    d = len(axes)
    if not d:
        raise DegenerateEta("interaction vector must be nonzero")
    sites = _staircase_simplices(ell, eta)  # (d!, d+1, 3)
    vals = u.values[tuple(np.moveaxis(sites % u.cfg.N, -1, 0))]
    edges = (sites[:, 1:] - sites[:, :1])[..., axes]
    replaced = np.repeat(edges[:, None], d, axis=1)  # (d!, k, d, d)
    replaced[:, range(d), range(d)] = eta[axes]
    integral = np.einsum("tk,tkc->c", _int_det(replaced), vals[:, 1:] - vals[:, :1])
    integral /= math.factorial(d) * abs(math.prod(eta[axes].tolist()))
    bond_diff = u.at(np.add(ell, eta)) - u.at(ell)
    return float(np.max(np.abs(u.cfg.epsilon ** (d - 1) * (bond_diff - integral))))

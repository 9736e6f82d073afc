"""Periodic lattice domain: configurations, fields, deformations, difference
quotients, and the discrete inner product.

Sites live on a 3D torus with ``N = (N1, N2, N3)`` sites per dimension and
spacing ``epsilon``; the physical position of site ``l`` is ``epsilon * l``.
All fields are periodic by construction (index arithmetic is modulo N).
Values are stored as dense ``(N1, N2, N3, 3)`` arrays in row-major site
order, which fixes the summation order and makes every reduction
deterministic and bit-reproducible. A closure of the position is sampled
by ``sample_field`` in one call on the stacked site positions, so it must
act elementwise (numpy ufuncs of the components); no Python loop runs
over the sites.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

IntTriple = tuple[int, int, int]


@dataclass(frozen=True)
class LatticeConfig:
    """Torus extents and lattice spacing."""

    N: IntTriple
    epsilon: float

    def __post_init__(self) -> None:
        N = tuple(int(n) for n in self.N)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "epsilon", float(self.epsilon))
        if len(N) != 3 or any(n < 2 for n in N):
            raise ValueError(f"extents must be three integers >= 2, got {N}")
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ValueError(f"spacing must be positive and finite, got {self.epsilon}")

    @property
    def n_sites(self) -> int:
        return self.N[0] * self.N[1] * self.N[2]

    @property
    def volume(self) -> float:
        """Domain volume |Omega| = N1*N2*N3 * epsilon^3."""
        return self.n_sites * self.epsilon**3

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return (*self.N, 3)


def canonicalize(ell, cfg: LatticeConfig) -> IntTriple:
    """Reduce an integer triple to its torus representative in [0, N_i)."""
    return (int(ell[0]) % cfg.N[0], int(ell[1]) % cfg.N[1], int(ell[2]) % cfg.N[2])


class LatticeField:
    """Periodic vector-valued function on the lattice sites.

    Wraps a dense (N1, N2, N3, 3) float array. Instances are treated as
    immutable: operations return new fields.
    """

    __slots__ = ("cfg", "values")

    def __init__(self, cfg: LatticeConfig, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != cfg.shape:
            raise ValueError(
                f"field shape {values.shape} does not match lattice shape {cfg.shape}"
            )
        self.cfg = cfg
        self.values = values

    @classmethod
    def zeros(cls, cfg: LatticeConfig) -> "LatticeField":
        return cls(cfg, np.zeros(cfg.shape))

    @classmethod
    def constant(cls, cfg: LatticeConfig, c) -> "LatticeField":
        out = np.empty(cfg.shape)
        out[...] = np.asarray(c, dtype=float)
        return cls(cfg, out)

    def at(self, ell) -> np.ndarray:
        """Value at an arbitrary integer triple (canonicalized first)."""
        return self.values[canonicalize(ell, self.cfg)]

    def mean(self) -> np.ndarray:
        """The mean value over the sites, with the bits of
        ``values.reshape(-1, 3).mean(axis=0)``: numpy adds that reduction's
        rows in site order, which is the order of a running sum, so each
        component is the last entry of its column's ``np.cumsum``, divided
        by the site count. The cumsum runs twice as fast as the reduction
        along an axis of length 3, and needs a buffer of one column."""
        rows = self.values.reshape(-1, 3)
        buf = np.empty(len(rows))
        return np.array([np.cumsum(rows[:, c], out=buf)[-1] for c in range(3)]) / len(rows)

    def zero_mean(self) -> "LatticeField":
        return LatticeField(self.cfg, self.values - self.mean())

    def __add__(self, other: "LatticeField") -> "LatticeField":
        _check_same_config(self, other)
        return LatticeField(self.cfg, self.values + other.values)

    def __sub__(self, other: "LatticeField") -> "LatticeField":
        _check_same_config(self, other)
        return LatticeField(self.cfg, self.values - other.values)

    def __mul__(self, scalar: float) -> "LatticeField":
        return LatticeField(self.cfg, self.values * float(scalar))

    __rmul__ = __mul__

    def max_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


def _check_same_config(u: LatticeField, w: LatticeField) -> None:
    if u.cfg != w.cfg:
        raise ValueError(f"mismatched lattice configs: {u.cfg} vs {w.cfg}")


@dataclass(frozen=True)
class Deformation:
    """y_l = F x_l + v_l with a zero-average periodic displacement v."""

    F: np.ndarray
    displacement: LatticeField

    @property
    def cfg(self) -> LatticeConfig:
        return self.displacement.cfg


def deformation_gradient(F) -> np.ndarray:
    """F as a read-only float copy, when it is a finite 3x3 matrix with
    det F > 0."""
    try:
        F = np.array(F, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"F must be a 3x3 matrix, got {F!r}") from None
    if F.shape != (3, 3):
        raise ValueError(f"F must be a 3x3 matrix, got shape {F.shape}")
    if not np.all(np.isfinite(F)):
        raise ValueError(f"F must be finite, got {F.tolist()!r}")
    det = float(np.linalg.det(F))
    if det <= 0:
        raise ValueError(f"deformation gradient must have det F > 0, got det F = {det}")
    F.flags.writeable = False
    return F


def make_deformation(F, v_raw: LatticeField) -> Deformation:
    """Build a deformation, enforcing the zero-average gauge on v."""
    return Deformation(F=deformation_gradient(F), displacement=v_raw.zero_mean())


def diff_quotient(u: LatticeField, ell, eta) -> np.ndarray:
    """Difference quotient (u_{l+eta} - u_l)/epsilon at one site."""
    eta = tuple(int(e) for e in eta)
    if eta == (0, 0, 0):
        raise ValueError("difference quotient needs a nonzero direction")
    lp = tuple(int(ell[i]) + eta[i] for i in range(3))
    return (u.at(lp) - u.at(ell)) / u.cfg.epsilon


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum(a * b) in numpy's fixed pairwise order. np.vdot would hand long
    vectors to BLAS, which may split the sum over its threads and so
    change its last digits with the thread count."""
    return float(np.sum(a * b))


def discrete_inner_product(u: LatticeField, w: LatticeField) -> float:
    """<u, w>_eps = eps^3 sum_l u_l . w_l (fixed summation order)."""
    _check_same_config(u, w)
    return u.cfg.epsilon**3 * _dot(u.values, w.values)


def sample_field(f: Callable[[np.ndarray], np.ndarray], cfg: LatticeConfig) -> LatticeField:
    """Sample an elementwise closure R^3 -> R^3 at the physical site
    positions eps*l.

    ``f`` is called once, on the stacked positions ``eps * np.indices(N)``
    of shape (3, N1, N2, N3), and must return the samples stacked the same
    way, component first (for a closure of numpy ufuncs, the bits of one
    call per site); any other shape is a ValueError."""
    x = cfg.epsilon * np.indices(cfg.N, dtype=float)
    stacked = np.asarray(f(x), dtype=float)
    if stacked.shape != x.shape:
        raise ValueError(f"sampled closure must return the stacked shape {x.shape}, got {stacked.shape}")
    return LatticeField(cfg, np.ascontiguousarray(np.moveaxis(stacked, 0, -1)))

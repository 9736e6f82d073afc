"""Interaction vectors and pair potentials with analytic derivatives.

Each interaction law pairs a nonzero integer direction ``eta`` with a smooth
potential ``phi`` acting on the deformed bond vector ``zeta`` in R^3.
``InteractionLaw.evaluate(zeta, order, out)`` is the one place a law is
evaluated: batched over ``(..., 3)`` arrays of bond vectors, it returns the
value, gradient and Hessian up to ``order`` from shared intermediates, with
one branch per kind. It writes the value and gradient into the arrays
``out`` when it is given them, and forms their row temporaries in a
``scratch`` array when it is given one (the energy kernel passes views of a
unit's reused arrays and of its arena, one chunk of rows at a time), so
that a call at order 0 or 1 allocates nothing of its rows' size; without
them it allocates them. The Hessian is always a new array. ``values``, ``gradients`` and ``hessians`` are one-line views
of it. Every length-3 row reduction (|zeta|^2, zeta . M zeta)
is three products on the column views ``zeta[..., i]`` added left to
right, and the radial and toy gradients are written one column at a time:
the bits of the norm and axis-sum formulas, without their (..., 3)
temporaries. Every step acts row by row, and an input holding one bond,
of shape (3,) or (1, 3), is evaluated as a two-row batch whose first row
is the result: numpy's scalar exp and pow, and the toy's one-row
``zeta @ a`` and ``zeta @ M``, may round differently from the same row in
a batch. So a row's bits never depend on how many rows the call holds.
Radial laws (Morse, Lennard-Jones) apply a scalar
profile to ``|zeta|`` and reject bonds shorter than ``_RADIAL_RMIN``; the
anisotropic-toy law is deliberately asymmetric (``phi(zeta) != phi(-zeta)``)
so coupling tests cannot pass by accidental cancellation. ``make_law``
rejects non-finite and wrongly shaped parameters.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

IntTriple = tuple[int, int, int]

KINDS = ("harmonic", "morse-radial", "lennard-jones-radial", "anisotropic-toy")

# Floats per row of the ``scratch`` of ``InteractionLaw.evaluate``: the
# norm and up to four further row temporaries, or the toy's zeta M at order 0.
SCRATCH_PER_ROW = 6
# Minimum admissible bond length for the radial laws; below this the
# configuration is treated as singular rather than letting 1/r powers
# overflow silently.
_RADIAL_RMIN = 1e-12


class PotentialDomainError(ValueError):
    """A bond configuration left a potential's admissible domain."""

    def __init__(self, message: str, site=None, eta=None):
        super().__init__(message)
        self.site = site
        self.eta = eta


def _row_dot(u: np.ndarray, v: np.ndarray, out=None, tmp=None) -> np.ndarray:
    """sum_i u_i v_i over the last (length-3) axis: three products on the
    column views, added left to right, into ``out`` with the second and
    third products in ``tmp`` (new arrays where None). These are the bits
    of ``np.sum(u * v, axis=-1)`` (and, under a square root, of
    ``np.linalg.norm``), without the (..., 3) temporary and the reduction
    along a length-3 axis."""
    out = np.multiply(u[..., 0], v[..., 0], out=out)
    out += np.multiply(u[..., 1], v[..., 1], out=tmp)
    out += np.multiply(u[..., 2], v[..., 2], out=tmp)
    return out


def _as_eta(eta) -> IntTriple:
    eta = tuple(int(e) for e in eta)
    if len(eta) != 3:
        raise ValueError(f"interaction vector must be a triple, got {eta}")
    if eta == (0, 0, 0):
        raise ValueError("interaction direction eta must be nonzero")
    return eta


@dataclass(frozen=True)
class InteractionLaw:
    """One interaction direction eta with its pair potential."""

    eta: IntTriple
    kind: str
    params: tuple[tuple[str, Any], ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "eta", _as_eta(self.eta))
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")

    # -- parameter access -------------------------------------------------

    def _p(self, name: str) -> Any:
        for key, val in self.params:
            if key == name:
                return val
        raise KeyError(name)

    @property
    def eta_vec(self) -> np.ndarray:
        return np.asarray(self.eta, dtype=float)

    # -- batched evaluation: zeta has shape (..., 3) ------------------------

    def evaluate(self, zeta: np.ndarray, order: int = 2, out=None, scratch=None) -> list[np.ndarray]:
        """[phi, phi', phi''][:order + 1] at the bond vectors ``zeta``, of
        shapes (...), (..., 3) and (..., 3, 3). phi (and phi') are written
        into ``out``, the arrays [phi, phi'][:order + 1] of those shapes,
        which are returned; without ``out`` they are new arrays. phi'' is
        always a new array. Intermediates shared by the orders (the norm,
        exp(zeta . a), (sigma / r)^6) are computed once, and every
        temporary of phi and phi' is a view of ``scratch``, a flat float
        array of at least SCRATCH_PER_ROW floats per row (a new one where
        None)."""
        zeta = np.asarray(zeta, dtype=float)
        if zeta.shape in ((3,), (1, 3)):  # one bond, as a two-row batch (see the module docstring)
            rows = self.evaluate(np.concatenate([zeta.reshape(1, 3)] * 2), order)
            rows = [a[0] if zeta.ndim == 1 else a[:1] for a in rows]
            for a, row in zip(out or (), rows):
                a[...] = row
            return rows if out is None else [*out, *rows[len(out):]]
        if out is None:
            out = [np.empty(zeta.shape[:-1]), np.empty(zeta.shape)][: order + 1]
        m = zeta.size // 3
        if scratch is None:
            scratch = np.empty(SCRATCH_PER_ROW * m)
        t = [scratch[i * m:(i + 1) * m].reshape(zeta.shape[:-1]) for i in range(5)]
        hess_shape = zeta.shape[:-1] + (3, 3)
        if self.kind == "harmonic":
            np.multiply(0.5, _row_dot(zeta, zeta, t[0], t[1]), out=out[0])
            if order > 0:
                out[1][...] = zeta
            if order > 1:
                return [*out, np.broadcast_to(np.eye(3), hess_shape).copy()]
            return out
        if self.kind == "anisotropic-toy":
            a, M = self._p("a"), self._p("M")
            e = np.exp(np.matmul(zeta, a, out=t[0]), out=t[0])
            zM = np.matmul(zeta, M, out=out[1] if order > 0 else scratch[3 * m:6 * m].reshape(zeta.shape))
            q = _row_dot(zM, zeta, t[1], t[2])
            np.add(e, np.multiply(0.5, q, out=q), out=out[0])
            if order > 0:
                for i in range(3):  # phi' = e a + zeta M, written over zeta M
                    zM[..., i] += np.multiply(e, a[i], out=t[1])
            if order > 1:
                return [*out, np.multiply.outer(e, np.outer(a, a)) + np.broadcast_to(M, hess_shape)]
            return out

        r = _row_dot(zeta, zeta, t[0], t[1])
        np.sqrt(r, out=r)
        bad = np.less(r, _RADIAL_RMIN, out=scratch[m:2 * m].view(np.bool_)[:m].reshape(r.shape))
        if np.any(bad):
            raise PotentialDomainError(
                f"bond length {float(np.ravel(r)[np.argmax(bad)])!r} below admissible "
                f"minimum for {self.kind} potential (eta={self.eta})",
                eta=self.eta,
            )
        if self.kind == "morse-radial":
            D, al, r0 = self._p("D"), self._p("alpha"), self._p("r0")
            e = np.exp(np.multiply(-al, np.subtract(r, r0, out=t[1]), out=t[1]), out=t[1])
            q = np.subtract(1.0, e, out=t[2])  # 1 - e
            np.multiply(D, np.square(q, out=t[3]), out=out[0])
            d1 = np.multiply(np.multiply(2.0 * D * al, e, out=t[3]), q, out=t[3]) if order > 0 else None
            d2 = 2.0 * D * al * al * (2.0 * e * e - e) if order > 1 else None
        else:
            e4 = 4.0 * self._p("well_depth")
            s6 = np.power(np.divide(self._p("sigma"), r, out=t[1]), 6, out=t[1])
            s12 = np.multiply(s6, s6, out=t[2])
            np.multiply(e4, np.subtract(s12, s6, out=t[3]), out=out[0])
            if order > 0:
                d1 = np.multiply(-12.0, s12, out=t[3])
                d1 += np.multiply(6.0, s6, out=t[4])
                np.divide(np.multiply(e4, d1, out=d1), r, out=d1)
            d2 = e4 * (156.0 * s12 - 42.0 * s6) / (r * r) if order > 1 else None
        if order > 0:
            d1r = np.divide(d1, r, out=t[4])
            for i in range(3):  # d1r[..., None] * zeta, one column at a time
                np.multiply(d1r, zeta[..., i], out=out[1][..., i])
        if order > 1:
            rhat = zeta / r[..., None]
            proj = rhat[..., :, None] * rhat[..., None, :]
            return [*out, d2[..., None, None] * proj + d1r[..., None, None] * (np.eye(3) - proj)]
        return out

    def values(self, zeta: np.ndarray) -> np.ndarray:
        return self.evaluate(zeta, 0)[0]

    def gradients(self, zeta: np.ndarray) -> np.ndarray:
        return self.evaluate(zeta, 1)[1]

    def hessians(self, zeta: np.ndarray) -> np.ndarray:
        return self.evaluate(zeta, 2)[2]


def make_law(eta, kind: str, params: dict[str, Any] | None = None) -> InteractionLaw:
    """Build a law of the given kind, filling in documented defaults.

    Defaults put the undeformed lattice near equilibrium: Morse r0 and the
    Lennard-Jones minimum both default to the undeformed bond length |eta|.
    """
    eta = InteractionLaw(eta, kind).eta  # checks eta and kind
    params = dict(params or {})
    norm = float(np.linalg.norm(eta))
    allowed: dict[str, Any] = {
        "harmonic": {},
        "morse-radial": {"D": 1.0, "alpha": 1.2, "r0": norm},
        "lennard-jones-radial": {"well_depth": 1.0, "sigma": norm / 2.0 ** (1.0 / 6.0)},
        "anisotropic-toy": {
            "a": (0.31, -0.17, 0.23),
            "M": ((2.0, 0.3, -0.1), (0.3, 1.5, 0.2), (-0.1, 0.2, 1.8)),
        },
    }[kind]
    unknown = set(params) - set(allowed)
    if unknown:
        raise ValueError(
            f"unknown parameter(s) {sorted(unknown)} for potential kind {kind!r}; "
            f"allowed: {sorted(allowed)}"
        )
    allowed.update(params)
    shapes = {"a": (3,), "M": (3, 3)}
    frozen = []
    for key in sorted(allowed):
        try:
            val = np.array(allowed[key], dtype=float)  # a copy: the caller's array stays writeable
        except (TypeError, ValueError, OverflowError):
            raise ValueError(
                f"parameter {key!r} of potential kind {kind!r} must be numeric, got {allowed[key]!r}"
            ) from None
        if val.shape != shapes.get(key, ()):
            raise ValueError(
                f"parameter {key!r} of potential kind {kind!r} must have shape "
                f"{shapes.get(key, ())}, got {val.shape}"
            )
        if not np.all(np.isfinite(val)):
            raise ValueError(f"parameter {key!r} of potential kind {kind!r} must be finite, got {allowed[key]!r}")
        if key == "M" and not np.allclose(val, val.T):
            raise ValueError("anisotropic-toy matrix M must be symmetric")
        if val.ndim:
            val.flags.writeable = False
        else:
            val = float(val)
        frozen.append((key, val))
    return InteractionLaw(eta=eta, kind=kind, params=tuple(frozen))


@dataclass(frozen=True)
class InteractionSet:
    """Finite, non-empty set of interaction laws with pairwise distinct
    directions."""

    laws: tuple[InteractionLaw, ...]

    def __post_init__(self) -> None:
        laws = tuple(self.laws)
        object.__setattr__(self, "laws", laws)
        if not laws:
            raise ValueError("an interaction set needs at least one law")
        etas = [law.eta for law in laws]
        if len(set(etas)) != len(etas):
            raise ValueError(f"duplicate interaction direction in {etas}; directions must be distinct")

    def __iter__(self):
        return iter(self.laws)

    def __len__(self) -> int:
        return len(self.laws)


def cb_energy_density(R: InteractionSet, F) -> float:
    """Cauchy-Born stored energy density W(F) = sum_eta phi_eta(F eta)."""
    F = np.asarray(F, dtype=float)
    total = 0.0  # left to right, as the kernel adds the laws (sum() compensates from Python 3.12)
    for law in R:
        total += float(law.values(F @ law.eta_vec))
    return total


def piola_stress(R: InteractionSet, F) -> np.ndarray:
    """First Piola stress S(F) = dW/dF = sum_eta grad phi_eta(F eta) eta^T."""
    F = np.asarray(F, dtype=float)
    return sum((np.outer(law.gradients(F @ law.eta_vec), law.eta_vec) for law in R), np.zeros((3, 3)))

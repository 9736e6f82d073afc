"""The three uncoupled energy models and their analytic first variations:
exact atomistic, staircase-tetrahedron Cauchy-Born, and cell-averaged
Cauchy-Born.

The exact-bond and staircase Cauchy-Born assemblies are shared: the coupled,
two-sided, naive and high-order models in ``coupling`` and ``highorder``
call the same masked helpers for their atomistic and continuum terms.

Gradients are returned as Riesz representers with respect to the discrete
inner product: the report's gradient field g satisfies
DE(y)[v] = <g, v>_eps for every periodic lattice field v. All assembly is
vectorized over sites with numpy rolls in a fixed order, so results are
deterministic and bit-reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .geometry import PATH_PERMS, path_edge_offsets
from .lattice import Deformation, LatticeField, shift_values
from .potentials import InteractionLaw, InteractionSet, PotentialDomainError


@dataclass
class EnergyReport:
    """Energy value, Riesz-representer gradient, and per-part breakdown."""

    energy: float
    gradient: LatticeField
    model: str
    breakdown: dict[str, float] = field(default_factory=dict)
    diagnostics: dict[str, Any] = field(default_factory=dict)


def _values_with_bond_context(law: InteractionLaw, Z: np.ndarray, N, what: str):
    """Evaluate a law batch over site-shaped data, attaching the offending
    site to any domain error."""
    flat = Z.reshape(-1, 3)
    try:
        out = getattr(law, what)(flat)
    except PotentialDomainError as exc:
        r = np.linalg.norm(flat, axis=-1)
        site = tuple(int(x) for x in np.unravel_index(int(np.argmin(r)), N))
        raise PotentialDomainError(
            f"{exc} (offending bond: site {site}, eta={law.eta})",
            site=site,
            eta=law.eta,
        ) from exc
    if what == "values":
        return out.reshape(Z.shape[:-1])
    return out.reshape(Z.shape)


def _diff_arrays(v: np.ndarray, eps: float) -> list[np.ndarray]:
    """Forward difference quotients of v along the three axes."""
    out = []
    for a in range(3):
        e_a = tuple(1 if k == a else 0 for k in range(3))
        out.append((shift_values(v, e_a) - v) / eps)
    return out


def _exact_bond_contrib(law: InteractionLaw, F, v, eps, mask=None, g_outs=()):
    """Exact bond energy eps^3 sum_l phi(D_eta y_l) over the bases l marked
    in ``mask`` (None: every site); adds the gradient to each site-shaped
    array in ``g_outs``. Bonds outside the mask are evaluated at the
    homogeneous bond F eta, so a bond the mask drops can neither raise nor
    contribute."""
    base = F @ law.eta_vec
    Z = base + (shift_values(v, law.eta) - v) / eps
    if mask is not None:
        Z[~mask] = base
    vals = _values_with_bond_context(law, Z, v.shape[:-1], "values")
    energy = float(eps**3 * np.sum(vals if mask is None else vals[mask]))
    if g_outs:
        G = _values_with_bond_context(law, Z, v.shape[:-1], "gradients")
        if mask is not None:
            G = G * mask[..., None]
        term = (np.roll(G, shift=law.eta, axis=(0, 1, 2)) - G) / eps
        for g in g_outs:
            g += term
    return energy


def _staircase_cb_contrib(law: InteractionLaw, F, d, eps, masks=None, g_outs=()):
    """Staircase Cauchy-Born energy (eps^3/6) per cell tet of phi(grad y eta),
    the discrete gradient taken from the tet's own axis edges (``d`` are the
    forward difference quotients of the displacement); adds the gradient to
    each site-shaped array in ``g_outs``. ``masks`` is None (every cell) or
    a (6, N1, N2, N3) boolean stack keeping template p on the cells marked
    in ``masks[p]``; out-of-mask cells are evaluated at the homogeneous bond
    F eta, so a bond the mask drops can neither raise nor contribute."""
    N = d[0].shape[:-1]
    base = F @ law.eta_vec
    energy = 0.0
    for p, perm in enumerate(PATH_PERMS):
        offs = path_edge_offsets(perm)
        Z = np.broadcast_to(base, d[0].shape).copy()
        for a in range(3):
            if law.eta[a] != 0:
                Z += law.eta[a] * shift_values(d[a], offs[a])
        mask = None if masks is None else masks[p]
        if mask is not None:
            Z[~mask] = base
        vals = _values_with_bond_context(law, Z, N, "values")
        energy += float((eps**3 / 6.0) * np.sum(vals if mask is None else vals[mask]))
        if not g_outs:
            continue
        P = _values_with_bond_context(law, Z, N, "gradients")
        if mask is not None:
            P = P * mask[..., None]
        for a in range(3):
            if law.eta[a] == 0:
                continue
            s = offs[a]
            s_up = tuple(s[k] + (k == a) for k in range(3))
            term = (law.eta[a] / (6.0 * eps)) * (
                np.roll(P, shift=s_up, axis=(0, 1, 2))
                - np.roll(P, shift=s, axis=(0, 1, 2))
            )
            for g in g_outs:
                g += term
    return energy


def atomistic_energy(y: Deformation, R: InteractionSet) -> EnergyReport:
    """Exact atomistic energy eps^3 sum_l sum_eta phi_eta(D_eta y_l)."""
    cfg = y.cfg
    v = y.displacement.values
    energy = 0.0
    grad = np.zeros(cfg.shape)
    breakdown: dict[str, float] = {}
    for law in R:
        e_eta = _exact_bond_contrib(law, y.F, v, cfg.epsilon, g_outs=(grad,))
        energy += e_eta
        breakdown[f"eta={law.eta}"] = e_eta
    return EnergyReport(
        energy=energy,
        gradient=LatticeField(cfg, grad),
        model="atomistic",
        breakdown=breakdown,
    )


def acb_tetra_energy(y: Deformation, R: InteractionSet) -> EnergyReport:
    """Cauchy-Born energy on the staircase tetrahedra: (eps^3/6) per cell tet
    of W(grad), with the discrete gradient taken from the tet's own axis
    edges."""
    cfg = y.cfg
    eps = cfg.epsilon
    d = _diff_arrays(y.displacement.values, eps)
    energy = 0.0
    grad = np.zeros(cfg.shape)
    breakdown: dict[str, float] = {}
    for law in R:
        e_eta = _staircase_cb_contrib(law, y.F, d, eps, g_outs=(grad,))
        energy += e_eta
        breakdown[f"eta={law.eta}"] = e_eta
    return EnergyReport(
        energy=energy,
        gradient=LatticeField(cfg, grad),
        model="acb-tetra",
        breakdown=breakdown,
    )


_AVG_SHIFTS: dict[int, tuple[tuple[int, int, int], ...]] = {}
for _a in range(3):
    _b, _c = [d for d in range(3) if d != _a]
    _AVG_SHIFTS[_a] = tuple(
        tuple((s_b * (k == _b) + s_c * (k == _c)) for k in range(3))  # type: ignore[misc]
        for s_b in (0, 1)
        for s_c in (0, 1)
    )


def acb_cell_energy(y: Deformation, R: InteractionSet) -> EnergyReport:
    """Cauchy-Born energy on cells: eps^3 per cell of W evaluated at the
    averaged discrete gradient (each column averages four edge quotients)."""
    cfg = y.cfg
    eps = cfg.epsilon
    v = y.displacement.values
    d = _diff_arrays(v, eps)
    avg = []
    for a in range(3):
        acc = np.zeros(cfg.shape)
        for s in _AVG_SHIFTS[a]:
            acc += shift_values(d[a], s)
        avg.append(acc / 4.0)
    energy = 0.0
    grad = np.zeros(cfg.shape)
    breakdown: dict[str, float] = {}
    for law in R:
        Z = np.broadcast_to(y.F @ law.eta_vec, cfg.shape).copy()
        for a in range(3):
            if law.eta[a] != 0:
                Z += law.eta[a] * avg[a]
        vals = _values_with_bond_context(law, Z, cfg.N, "values")
        e_eta = float(eps**3 * np.sum(vals))
        energy += e_eta
        breakdown[f"eta={law.eta}"] = e_eta
        P = _values_with_bond_context(law, Z, cfg.N, "gradients")
        for a in range(3):
            if law.eta[a] == 0:
                continue
            for s in _AVG_SHIFTS[a]:
                s_up = tuple(s[k] + (k == a) for k in range(3))
                grad += (law.eta[a] / (4.0 * eps)) * (
                    np.roll(P, shift=s_up, axis=(0, 1, 2))
                    - np.roll(P, shift=s, axis=(0, 1, 2))
                )
    return EnergyReport(
        energy=energy,
        gradient=LatticeField(cfg, grad),
        model="acb-cell",
        breakdown=breakdown,
    )

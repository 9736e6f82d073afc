"""The three uncoupled energy models and their analytic first variations:
exact atomistic, staircase-tetrahedron Cauchy-Born, and cell-averaged
Cauchy-Born; and the one quadrature-bond kernel every energy term uses.

Every model here and in ``coupling`` and ``highorder`` is a weighted sum
eps^3 sum_q w_q phi_eta(F eta + (B v)_q / eps) over "quadrature bonds" q,
with B a fixed linear map of the displacement v. ``_bond_contrib`` is the
only code that evaluates phi_eta for such a term: one
``InteractionLaw.evaluate(zeta, 1)`` call per (law, operator) batch gives
phi and phi' together. B is any operator with
``@``, ``.T`` and ``site(row)`` (the lattice site a row belongs to, named in
domain errors):

- a periodic roll stencil ``_Stencil`` (one row per site) for the
  translation-invariant terms: the exact bond (atomistic and naive models),
  the six staircase Cauchy-Born templates (acb-tetra, the continuum of the
  coupled, two-sided and naive models, the P1 layer of the high-order
  model) and the cell-averaged Cauchy-Born bond;
- a sparse CSR operator for the irregular terms of ``coupling``: atomistic
  bonds and interface cones;
- a per-template element operator for the Pk elements of ``highorder``.

Masks are zero weights; a zero-weight row is evaluated at the homogeneous
bond F eta, so a bond a mask drops can neither raise nor contribute.

Gradients are returned as Riesz representers with respect to the discrete
inner product: the report's gradient field g satisfies
DE(y)[v] = <g, v>_eps for every periodic lattice field v. Stencils add their
shifted copies one at a time in a fixed order, so results are deterministic
and bit-reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Any

import numpy as np

from .geometry import PATH_PERMS, path_edge_offsets
from .lattice import Deformation, IntTriple, LatticeField, shift_values
from .potentials import InteractionLaw, InteractionSet, PotentialDomainError


@dataclass
class EnergyReport:
    """Energy value, Riesz-representer gradient, and per-part breakdown."""

    energy: float
    gradient: LatticeField
    model: str
    breakdown: dict[str, float] = field(default_factory=dict)
    diagnostics: dict[str, Any] = field(default_factory=dict)


def _bond_contrib(op, w, law: InteractionLaw, F, x, eps, g_outs):
    """Quadrature-bond energy eps^3 sum_q w_q phi(zeta_q) at the bond
    vectors zeta = F eta + (op @ x) / eps. Adds the gradient, scaled like
    the lattice inner product, op^T (w phi'(zeta) / eps) to each array in
    ``g_outs``; phi and phi' come from one ``law.evaluate`` call. ``w`` is
    a scalar or one weight per row; zero-weight rows are evaluated at
    F eta. A domain error names the lattice site ``op.site(row)`` of the
    shortest bond. Returns the energy and zeta."""
    base = F @ law.eta_vec
    zeta = op @ x
    zeta /= eps
    zeta += base
    w = np.asarray(w, dtype=float)
    if w.ndim and not w.all():
        zeta[w == 0.0] = base
    try:
        vals, P = law.evaluate(zeta, 1)
    except PotentialDomainError as exc:
        site = op.site(int(np.argmin(np.linalg.norm(zeta, axis=-1))))
        raise PotentialDomainError(
            f"{exc} (offending bond: site {site}, eta={law.eta})",
            site=site,
            eta=law.eta,
        ) from exc
    energy = float(eps**3 * np.sum(w * vals))
    P *= (w / eps)[..., None]
    contrib = op.T @ P
    for g in g_outs:
        g += contrib
    return energy, zeta


class _Stencil:
    """Periodic roll stencil on flat (n_sites, 3) fields: row l of B v is
    sum_k c_k v_{l + s_k}. Its transpose is the same stencil with the
    offsets negated."""

    def __init__(self, N: IntTriple, terms):
        self.N = N
        self.terms = terms  # ((offset s_k, coefficient c_k), ...)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        v = x.reshape(self.N + (3,))
        out = np.zeros(v.shape)
        for s, c in self.terms:
            t = shift_values(v, s)
            if c == 1.0:
                out += t
            elif c == -1.0:
                out -= t
            else:
                t *= c
                out += t
        return out.reshape(-1, 3)

    @property
    def T(self) -> "_Stencil":
        return _Stencil(self.N, tuple((tuple(-o for o in s), c) for s, c in self.terms))

    def site(self, row: int) -> IntTriple:
        return tuple(int(i) for i in np.unravel_index(row, self.N))


def _stencil(N, terms) -> _Stencil:
    """Stencil with equal offsets merged and zero coefficients dropped."""
    merged: dict[IntTriple, float] = {}
    for s, c in terms:
        merged[s] = merged.get(s, 0.0) + c
    return _Stencil(tuple(N), tuple((s, c) for s, c in merged.items() if c != 0.0))


def _bond_stencil(eta, N) -> _Stencil:
    """Exact bond: (B v)_l = v_{l+eta} - v_l."""
    return _stencil(N, [(tuple(eta), 1.0), ((0, 0, 0), -1.0)])


def _staircase_stencils(eta, N) -> list[_Stencil]:
    """Per staircase template (``PATH_PERMS`` order): the discrete gradient
    of the cell tet times eta, from the tet's own axis edges."""
    out = []
    for perm in PATH_PERMS:
        terms = []
        for a, s in sorted(path_edge_offsets(perm).items()):
            up = tuple(s[k] + (k == a) for k in range(3))
            terms += [(up, float(eta[a])), (s, -float(eta[a]))]
        out.append(_stencil(N, terms))
    return out


def _cell_stencil(eta, N) -> _Stencil:
    """Cell-averaged gradient times eta: each column averages the four edge
    quotients of the cell parallel to its axis."""
    return _stencil(N, [
        (c, sum(0.25 * eta[a] * (1.0 if c[a] else -1.0) for a in range(3)))
        for c in product((0, 1), repeat=3)
    ])


def _term(laws, bonds, F, x, eps, g_outs) -> float:
    """Energy of one term: the kernel over the (op, w) quadrature bonds
    ``bonds(law)`` of every law, in order."""
    energy = 0.0
    for law in laws:
        for op, w in bonds(law):
            energy += _bond_contrib(op, w, law, F, x, eps, g_outs)[0]
    return energy


def _lattice_model(y: Deformation, R: InteractionSet, model: str, bonds) -> EnergyReport:
    """Uncoupled model, reported per direction."""
    cfg = y.cfg
    vflat = y.displacement.values.reshape(-1, 3)
    grad = np.zeros(cfg.shape)
    gf = grad.reshape(-1, 3)
    breakdown = {f"eta={law.eta}": _term([law], bonds, y.F, vflat, cfg.epsilon, (gf,)) for law in R}
    return EnergyReport(
        energy=sum(breakdown.values()),
        gradient=LatticeField(cfg, grad),
        model=model,
        breakdown=breakdown,
    )


def atomistic_energy(y: Deformation, R: InteractionSet) -> EnergyReport:
    """Exact atomistic energy eps^3 sum_l sum_eta phi_eta(D_eta y_l)."""
    N = y.cfg.N
    return _lattice_model(y, R, "atomistic", lambda law: [(_bond_stencil(law.eta, N), 1.0)])


def acb_tetra_energy(y: Deformation, R: InteractionSet) -> EnergyReport:
    """Cauchy-Born energy on the staircase tetrahedra: (eps^3/6) per cell tet
    of W(grad), with the discrete gradient taken from the tet's own axis
    edges."""
    N = y.cfg.N
    return _lattice_model(
        y, R, "acb-tetra", lambda law: [(op, 1.0 / 6.0) for op in _staircase_stencils(law.eta, N)]
    )


def acb_cell_energy(y: Deformation, R: InteractionSet) -> EnergyReport:
    """Cauchy-Born energy on cells: eps^3 per cell of W evaluated at the
    averaged discrete gradient (each column averages four edge quotients)."""
    N = y.cfg.N
    return _lattice_model(y, R, "acb-cell", lambda law: [(_cell_stencil(law.eta, N), 1.0)])

"""The three uncoupled energy models and their analytic first variations:
exact atomistic, staircase-tetrahedron Cauchy-Born, and cell-averaged
Cauchy-Born; and the one quadrature-bond kernel every energy term uses.

Every model here and in ``coupling`` and ``highorder`` is a weighted sum
eps^3 sum_q w_q phi_eta(F eta + (B v)_q / eps) over "quadrature bonds" q,
with B a fixed linear map of the displacement v. ``_bond_contrib`` is the
only code that evaluates phi_eta for such a term: one
``InteractionLaw.evaluate(zeta, 1)`` call per (law, operator) batch gives
phi and phi' together, and phi(F eta) from one extra row. The kernel sums
eps^3 sum_q w_q (phi(zeta_q) - phi(F eta)), the term's excess over the
homogeneous bond, and adds the batch's homogeneous share
eps^3 phi(F eta) sum_q w_q back into the term's energy. Reports carry the
summed excess too (``EnergyReport.excess``): it is exactly 0.0 at y_F, and
its differences keep the digits that the constant |Omega| W(F) in the
energy would swallow. A non-finite phi or phi' is a domain error, like a
radial bond below its minimum length. B is one of two operator kinds, each
with ``@``, ``.T`` and ``site(row)`` (the lattice site a row belongs to,
named in domain errors):

- a periodic roll stencil ``_Stencil`` (one row per site) for the
  translation-invariant terms: the exact bond (atomistic and naive models),
  the six staircase Cauchy-Born templates (acb-tetra, the continuum of the
  coupled, two-sided and naive models, the P1 layer of the high-order
  model) and the cell-averaged Cauchy-Born bond. These stay matrix-free:
  as CSR, the six stacked templates of the README laws at N=36 measured
  37 MB per cached placement and 4.6-8.5 ms per law against 4.3-6.5 ms for
  the rolls, and the cell bond at N=128 would hold 16.8M nonzeros;
- a sparse gather ``_Gather`` for the irregular terms: a cached CSR map to
  element-local values, then a dense (nq, nloc) coefficient block per
  element. The atomistic bonds and interface cones of ``coupling`` are
  elements with one local value and coefficient [[1.0]]; the Pk elements
  of ``highorder`` gather their local nodes and apply the shape-function
  gradients times eta at each quadrature point (as explicit CSR rows, about
  141 MB per law at N=12, k=3).

Masks are zero weights; a zero-weight row is evaluated at the homogeneous
bond F eta, so a bond a mask drops can neither raise nor contribute.

Gradients are returned as Riesz representers with respect to the discrete
inner product: the report's gradient field g satisfies
DE(y)[v] = <g, v>_eps for every periodic lattice field v. Stencils add their
shifted copies one at a time in a fixed order, so results are deterministic
and bit-reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from itertools import product
from typing import Any

import numpy as np
from scipy import sparse

from .geometry import PATH_PERMS, path_edge_offsets
from .lattice import Deformation, IntTriple, LatticeField, shift_values
from .potentials import InteractionLaw, InteractionSet, PotentialDomainError


@dataclass
class EnergyReport:
    """Energy value, Riesz-representer gradient, and per-part breakdown.

    ``excess`` is the energy less its homogeneous share: the sum over every
    quadrature bond of eps^3 w (phi(zeta) - phi(F eta)), less the interface
    jump correction of the two-sided model. It is exactly 0.0 at y_F, and it
    is what a minimizer compares: differences of ``energy`` are lost in the
    last digits of |Omega| W(F)."""

    energy: float
    gradient: LatticeField
    model: str
    excess: float
    breakdown: dict[str, float] = field(default_factory=dict)
    diagnostics: dict[str, Any] = field(default_factory=dict)


def _bond_contrib(op, w, law: InteractionLaw, F, x, eps, g_outs):
    """Quadrature-bond energy eps^3 sum_q w_q phi(zeta_q) at the bond
    vectors zeta = F eta + (op @ x) / eps, summed as its excess over the
    homogeneous bond, eps^3 sum_q w_q (phi(zeta_q) - phi(F eta)), plus the
    batch's homogeneous share eps^3 phi(F eta) sum_q w_q. Adds the gradient,
    scaled like the lattice inner product, op^T (w phi'(zeta) / eps) to each
    array in ``g_outs``; phi, phi' and phi(F eta) come from one
    ``law.evaluate`` call, with F eta as an extra last row, so the excess is
    exactly 0.0 wherever zeta = F eta. ``w`` is a scalar or one weight per
    row; zero-weight rows are evaluated at F eta. A domain error names the
    lattice site ``op.site(row)`` of the shortest bond, or of the first bond
    whose phi or phi' is not finite. Returns the energy, the excess and
    zeta."""
    base = F @ law.eta_vec
    bx = op @ x
    n = len(bx)
    zeta = np.empty((n + 1, 3))
    np.divide(bx, eps, out=zeta[:n])
    del bx  # peak memory: one (n, 3) buffer, as with an in-place update
    zeta[:n] += base
    zeta[n] = base
    w = np.asarray(w, dtype=float)
    if w.ndim and not w.all():
        zeta[:n][w == 0.0] = base
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            vals, P = law.evaluate(zeta, 1)
    except PotentialDomainError as exc:
        site = op.site(int(np.argmin(np.linalg.norm(zeta[:n], axis=-1))))
        raise PotentialDomainError(
            f"{exc} (offending bond: site {site}, eta={law.eta})",
            site=site,
            eta=law.eta,
        ) from exc
    phi0, vals, P = vals[n], vals[:n], P[:n]
    excess = float(eps**3 * (w * (vals - phi0)).sum())
    if not (math.isfinite(excess) and np.isfinite(P).all()):
        bad = ~(np.isfinite(vals) & np.isfinite(P).all(axis=-1))
        site = op.site(int(np.argmax(bad)))
        raise PotentialDomainError(
            f"{law.kind} energy or force is not finite (offending bond: site {site}, eta={law.eta})",
            site=site,
            eta=law.eta,
        )
    share = float(eps**3 * phi0 * (w.sum() if w.ndim else w * n))
    P *= (w / eps)[..., None]
    contrib = op.T @ P
    for g in g_outs:
        g += contrib
    return excess + share, excess, zeta[:n]


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

    @cached_property
    def T(self) -> "_Stencil":
        return _Stencil(self.N, tuple((tuple(-o for o in s), c) for s, c in self.terms))

    def site(self, row: int) -> IntTriple:
        return tuple(int(i) for i in np.unravel_index(row, self.N))


# Coefficient block of an element with one local value: the row is the
# gathered value itself.
_ONE = np.ones((1, 1))


@dataclass(frozen=True, eq=False)
class _Gather:
    """Sparse gather: row (e, q) applies ``coef[q]`` to element e's local
    values ``G @ x`` and belongs to the lattice site ``sites[e]``; the
    transpose applies both maps in reverse, ``G`` being its transpose."""

    G: sparse.csr_array     # (E nloc, n_cols) element-local values
    coef: np.ndarray        # (nq, nloc)
    sites: np.ndarray       # (E,) flat lattice site per element
    N: IntTriple
    transposed: bool = False

    def __matmul__(self, x):
        nq, nloc = self.coef.shape
        if self.transposed:
            u = np.matmul(self.coef.T, x.reshape(-1, nq, 3))
            return self.G @ u.reshape(-1, 3)
        u = (self.G @ x).reshape(-1, nloc, 3)
        return np.matmul(self.coef, u).reshape(-1, 3)

    @cached_property
    def T(self) -> "_Gather":
        return replace(self, G=self.G.T, transposed=not self.transposed)

    def site(self, row: int) -> IntTriple:
        flat = self.sites[row // self.coef.shape[0]]
        return tuple(int(i) for i in np.unravel_index(int(flat), self.N))


def _stencil(N, terms) -> _Stencil:
    """Stencil with equal offsets merged and zero coefficients dropped."""
    merged: dict[IntTriple, float] = {}
    for s, c in terms:
        merged[s] = merged.get(s, 0.0) + c
    return _Stencil(tuple(N), tuple((s, c) for s, c in merged.items() if c != 0.0))


def _bond_stencil(eta, N) -> _Stencil:
    """Exact bond: (B v)_l = v_{l+eta} - v_l."""
    return _stencil(N, [(tuple(eta), 1.0), ((0, 0, 0), -1.0)])


@lru_cache(maxsize=64)
def _staircase_stencils(eta: IntTriple, N: IntTriple) -> tuple[_Stencil, ...]:
    """Per staircase template (``PATH_PERMS`` order): the discrete gradient
    of the cell tet times eta, from the tet's own axis edges. Kept per
    (eta, N) for the process, like the coupling blocks."""
    out = []
    for perm in PATH_PERMS:
        terms = []
        for a, s in sorted(path_edge_offsets(perm).items()):
            up = tuple(s[k] + (k == a) for k in range(3))
            terms += [(up, float(eta[a])), (s, -float(eta[a]))]
        out.append(_stencil(N, terms))
    return tuple(out)


def _cell_stencil(eta, N) -> _Stencil:
    """Cell-averaged gradient times eta: each column averages the four edge
    quotients of the cell parallel to its axis."""
    return _stencil(N, [
        (c, sum(0.25 * eta[a] * (1.0 if c[a] else -1.0) for a in range(3)))
        for c in product((0, 1), repeat=3)
    ])


def _term(laws, bonds, F, x, eps, g_outs) -> tuple[float, float]:
    """Energy and excess of one term: the kernel over the (op, w) quadrature
    bonds ``bonds(law)`` of every law, in order."""
    energy = excess = 0.0
    for law in laws:
        for op, w in bonds(law):
            e, de, _ = _bond_contrib(op, w, law, F, x, eps, g_outs)
            energy += e
            excess += de
    return energy, excess


def _lattice_model(y: Deformation, R: InteractionSet, model: str, bonds) -> EnergyReport:
    """Uncoupled model, reported per direction."""
    cfg = y.cfg
    vflat = y.displacement.values.reshape(-1, 3)
    grad = np.zeros(cfg.shape)
    gf = grad.reshape(-1, 3)
    terms = {f"eta={law.eta}": _term([law], bonds, y.F, vflat, cfg.epsilon, (gf,)) for law in R}
    breakdown = {key: e for key, (e, _) in terms.items()}
    return EnergyReport(
        energy=sum(breakdown.values()),
        gradient=LatticeField(cfg, grad),
        model=model,
        excess=sum(de for _, de in terms.values()),
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

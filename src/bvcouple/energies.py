"""The three uncoupled energy models and their analytic first variations:
exact atomistic, staircase-tetrahedron Cauchy-Born, and cell-averaged
Cauchy-Born; and the one quadrature-bond kernel every energy term uses.

Every model here and in ``coupling`` and ``highorder`` is a weighted sum
eps^3 sum_q w_q phi_eta(F eta + (B v)_q / eps) over "quadrature bonds" q,
with B a fixed linear map of the displacement v. ``_bond_batch`` is the
only code that evaluates phi_eta for such a term: ``InteractionLaw.evaluate
(zeta, 1)`` on each (law, operator) batch gives phi and phi' together, in
row chunks, and phi(F eta) from one extra row of the last chunk. The
kernel sums
eps^3 sum_q w_q (phi(zeta_q) - phi(F eta)), the term's excess over the
homogeneous bond, and adds the batch's homogeneous share
eps^3 phi(F eta) sum_q w_q back into the term's energy. Reports carry the
summed excess too (``EnergyReport.excess``): it is exactly 0.0 at y_F, and
its differences keep the digits that the constant |Omega| W(F) in the
energy would swallow. A non-finite phi or phi' is a domain error, like a
radial bond below its minimum length. B is one of two operator kinds, each
with ``@``, ``.T``, ``rows``, ``apply(x, out)`` (B x written into the
kernel's zeta buffer) and ``site(row)`` (the lattice site a row belongs to,
named in domain errors):

- a periodic shift stencil ``_Stencil`` (one row per site) for the
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
DE(y)[v] = <g, v>_eps for every periodic lattice field v.

A term's batches run in pairs on up to two lanes, the calling thread and one
helper thread, as the process's CPU affinity allows (``_in_order``). Each
batch is a pure function of the state, returning its energy, excess and
gradient contribution; the caller adds these to the term's sums and
gradients in batch order, exactly the order of a single lane, so every
result is bitwise the same on one lane or two, and deterministic. A pair
runs serially unless one of its batches has at least ``_MIN_LANE_ROWS``
rows: on the coupled model's batch list (README laws, region of side N/3),
two lanes ran 1.3-1.7x slower than one at N=12 (1,728 rows per stencil
batch), 1.0-1.2x faster at N=24 and 1.3-1.5x faster at N=36, on a 2-vCPU
host. A batch keeps only zeta, phi and phi' alive at once, the law's
temporaries chunk-sized and a large stencil's slab-sized, so two batches in
flight hold less than one batch with whole-array temporaries: the README
sweep (N up to 128) peaks at 397 MB on two lanes and 363 MB on one, against
475 MB on one lane with whole-array temporaries. The helper lane
calls no public bvcouple function, so tracers that wrap those see only the
calling thread.
"""
from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from itertools import product
from typing import Any

import numpy as np
from scipy import sparse

from .geometry import PATH_PERMS, path_edge_offsets
from .lattice import Deformation, IntTriple, LatticeField
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


def _bond_batch(op, w, law: InteractionLaw, F, x, eps, keep_zeta: bool = False):
    """Quadrature-bond energy eps^3 sum_q w_q phi(zeta_q) at the bond
    vectors zeta = F eta + (op @ x) / eps, summed as its excess over the
    homogeneous bond, eps^3 sum_q w_q (phi(zeta_q) - phi(F eta)), plus the
    batch's homogeneous share eps^3 phi(F eta) sum_q w_q; and the gradient,
    scaled like the lattice inner product, op^T (w phi'(zeta) / eps). phi,
    phi' and phi(F eta) come from ``_evaluate`` with F eta as an extra last
    row, so the excess is exactly 0.0 wherever zeta = F eta. ``w`` is a
    scalar or one weight per row; zero-weight rows are evaluated at F eta. A
    domain error names the lattice site ``op.site(row)`` of the shortest
    bond, or of the first bond whose phi or phi' is not finite. Pure:
    returns the energy, the excess, the gradient contribution and, if
    ``keep_zeta``, zeta (else None). Only zeta, phi and phi' are alive while
    the gradient is formed, besides the operator's own buffers."""
    base = F @ law.eta_vec
    n = op.rows
    zeta = np.empty((n + 1, 3))
    np.divide(op.apply(x, zeta[:n]), eps, out=zeta[:n])
    zeta[:n] += base
    zeta[n] = base
    w = np.asarray(w, dtype=float)
    if w.ndim and not w.all():
        zeta[:n][w == 0.0] = base
    try:
        vals, P = _evaluate(law, zeta)
    except PotentialDomainError as exc:
        site = op.site(int(np.argmin(np.linalg.norm(zeta[:n], axis=-1))))
        raise PotentialDomainError(
            f"{exc} (offending bond: site {site}, eta={law.eta})",
            site=site,
            eta=law.eta,
        ) from exc
    phi0, vals, P = vals[n], vals[:n], P[:n]
    zeta = zeta[:n] if keep_zeta else None
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
    del vals
    P *= (w / eps)[..., None]
    return excess + share, excess, op.T @ P, zeta


def _evaluate(law: InteractionLaw, zeta):
    """phi and phi' at the rows of ``zeta`` from ``law.evaluate(., 1)``: in
    one call up to _LAW_CHUNK + 1 rows, else in chunks of _LAW_CHUNK rows
    written into preallocated arrays, which keeps the law's temporaries
    chunk-sized. The law acts row by row, so the bits are those of one call,
    as long as no call gets a single row of several: a one-row call may
    round the toy law's matrix products differently, and the last row,
    F eta, must match every row equal to it. So the last chunk takes two to
    _LAW_CHUNK + 1 rows."""
    n = len(zeta)
    last = (n - 2) // _LAW_CHUNK * _LAW_CHUNK if n > 1 else 0
    with np.errstate(over="ignore", invalid="ignore"):
        if not last:
            return law.evaluate(zeta, 1)
        vals = np.empty(n)
        P = np.empty((n, 3))
        for lo in range(0, last, _LAW_CHUNK):
            vals[lo:lo + _LAW_CHUNK], P[lo:lo + _LAW_CHUNK] = law.evaluate(zeta[lo:lo + _LAW_CHUNK], 1)
        vals[last:], P[last:] = law.evaluate(zeta[last:], 1)
    return vals, P


def _lane_count() -> int:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return min(2, cpus)


# Lanes a term's batches run on: the caller, and one helper thread where the
# process may use two CPUs.
_LANES = _lane_count()
# A pair of batches shares the two lanes only when one of them has at least
# this many rows: below that the thread hand-off costs more than the numpy
# work it overlaps (see the module docstring: 1,728-row batches ran 1.3-1.7x
# slower on two lanes, 13,824-row ones 1.0-1.2x faster).
_MIN_LANE_ROWS = 8192
# Rows per law evaluation in ``_evaluate``, and per stencil slab in
# ``_shift_blocks``.
_LAW_CHUNK = 16384
_SLAB_ROWS = 1 << 17
_helper_pool: tuple[int, ThreadPoolExecutor] | None = None


def _helper() -> ThreadPoolExecutor:
    """The helper lane, made on first use by each process: a forked child
    inherits the parent's executor but not its thread, so it makes its own."""
    global _helper_pool
    if _helper_pool is None or _helper_pool[0] != os.getpid():
        _helper_pool = (os.getpid(), ThreadPoolExecutor(max_workers=1, thread_name_prefix="bvcouple-lane"))
    return _helper_pool[1]


def _in_order(fn, batches):
    """Yields (batch, fn(*batch), lanes) for each batch, in batch order,
    taking the batches in pairs. A pair runs on two lanes when the process
    has two and one of its batches has at least _MIN_LANE_ROWS rows
    (``batch[0].rows``): the caller computes the first batch while the
    helper computes the second, and waits for the helper before it yields,
    so no helper work outlives the caller's and a domain error is the one of
    the first failing batch, as on one lane. Else the caller computes each
    batch as its turn comes."""
    batches = iter(batches)
    for first in batches:
        second = next(batches, None)
        if second is None or _LANES < 2 or max(first[0].rows, second[0].rows) < _MIN_LANE_ROWS:
            yield first, fn(*first), 1
            if second is not None:
                yield second, fn(*second), 1
            continue
        ahead = _helper().submit(fn, *second)
        try:
            result = fn(*first)
        finally:
            ahead.exception()  # waits; a helper error is raised below, once the caller's batch has passed
        yield first, result, 2
        del result  # the next pair runs without this pair's results
        yield second, ahead.result(), 2
        del ahead


class _Stencil:
    """Periodic shift stencil on flat (n_sites, 3) fields: row l of B v is
    sum_k c_k v_{l + s_k}. Its transpose is the same stencil with the
    offsets negated."""

    def __init__(self, N: IntTriple, terms):
        self.N = N
        self.terms = terms  # ((offset s_k, coefficient c_k), ...)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.apply(x, np.empty((self.rows, 3)))

    def apply(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """B x written into ``out``, a C-contiguous (n_sites, 3) array."""
        v = x.reshape(self.N + (3,))
        acc = out.reshape(v.shape)
        acc[...] = 0.0
        for s, c in self.terms:
            src, blocks = v, _shift_blocks(self.N, s, _SLAB_ROWS)
            if len(blocks) > 2 and self.rows <= _SLAB_ROWS:
                # up to a slab, one roll (a copy no larger than a slab's
                # temporary) and one contiguous add beat four or eight
                # strided block adds
                src, blocks = np.roll(v, tuple(-o for o in s), axis=(0, 1, 2)), _WHOLE
                if abs(c) != 1.0:
                    src *= c
                    c = 1.0
            for dst, sl in blocks:
                if c == 1.0:
                    acc[dst] += src[sl]
                elif c == -1.0:
                    acc[dst] -= src[sl]
                else:
                    acc[dst] += src[sl] * c
        return out

    @property
    def rows(self) -> int:
        return math.prod(self.N)

    @cached_property
    def T(self) -> "_Stencil":
        return _Stencil(self.N, tuple((tuple(-o for o in s), c) for s, c in self.terms))

    def site(self, row: int) -> IntTriple:
        return tuple(int(i) for i in np.unravel_index(row, self.N))


@lru_cache(maxsize=1024)
def _shift_blocks(N: IntTriple, s: IntTriple, slab_rows: int) -> tuple:
    """(dst, src) index pairs such that v[src] at dst is v[(l + s) mod N]
    at l, as ``np.roll(v, -s)`` gives it, without the roll's full-size
    copy: up to two runs per axis, axis 0 cut further into slabs of at most
    ``slab_rows`` rows, which bounds the temporary of a coefficient other
    than +-1."""

    def runs(n, k):  # (dst start, src start, length)
        k %= n
        return [(0, k, n - k), (n - k, 0, k)] if k else [(0, 0, n)]

    planes = max(1, slab_rows // (N[1] * N[2]))
    axis0 = [(d + a, src + a, min(planes, m - a)) for d, src, m in runs(N[0], s[0]) for a in range(0, m, planes)]
    return tuple(
        (tuple(slice(d, d + m) for d, _, m in blocks), tuple(slice(src, src + m) for _, src, m in blocks))
        for blocks in product(axis0, runs(N[1], s[1]), runs(N[2], s[2]))
    )


# The one (dst, src) pair of a whole array.
_WHOLE = ((..., ...),)


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
        if self.transposed:
            u = np.matmul(self.coef.T, x.reshape(-1, self.coef.shape[0], 3))
            return self.G @ u.reshape(-1, 3)
        return self.apply(x, np.empty((self.rows, 3)))

    def apply(self, x, out):
        """The gather of x written into ``out``, a C-contiguous (rows, 3)
        array; for the untransposed gather only."""
        nq, nloc = self.coef.shape
        np.matmul(self.coef, (self.G @ x).reshape(-1, nloc, 3), out=out.reshape(-1, nq, 3))
        return out

    @property
    def rows(self) -> int:
        return self.sites.size * self.coef.shape[0]

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


@dataclass
class _Term:
    """One term's sums over its batches in batch order (``per_law``: eta ->
    [energy, excess] of that law's batches), its wall time, the most lanes
    a pair of its batches ran on, and each batch's zeta if kept."""

    energy: float = 0.0
    excess: float = 0.0
    per_law: dict[IntTriple, list[float]] = field(default_factory=dict)
    seconds: float = 0.0
    lanes: int = 1
    zetas: list[np.ndarray] = field(default_factory=list)


def _term(laws, bonds, F, x, eps, g_outs, keep_zeta: bool = False) -> _Term:
    """One term: the kernel over the (op, w) quadrature bonds ``bonds(law)``
    of every law, taken in pairs by ``_in_order``. Every sum and every array
    in ``g_outs`` adds the batches' results in batch order, as on one lane,
    so the result is bitwise the same on one lane or two."""
    t0 = time.perf_counter()
    out = _Term()

    def batch(op, w, law):
        return _bond_batch(op, w, law, F, x, eps, keep_zeta)

    batches = ((op, w, law) for law in laws for op, w in bonds(law))
    for (_, _, law), (e, de, contrib, zeta), lanes in _in_order(batch, batches):
        out.lanes = max(out.lanes, lanes)
        out.energy += e
        out.excess += de
        sums = out.per_law.setdefault(law.eta, [0.0, 0.0])
        sums[0] += e
        sums[1] += de
        for g in g_outs:
            g += contrib
        if keep_zeta:
            out.zetas.append(zeta)
    out.seconds = time.perf_counter() - t0
    return out


def _timings(**terms: _Term) -> dict[str, Any]:
    """Report diagnostics: each term's wall time and the most lanes any of
    its terms ran on."""
    return {"term_s": {name: t.seconds for name, t in terms.items()},
            "lanes": max(t.lanes for t in terms.values())}


def _lattice_model(y: Deformation, R: InteractionSet, model: str, bonds) -> EnergyReport:
    """Uncoupled model, reported per direction."""
    cfg = y.cfg
    vflat = y.displacement.values.reshape(-1, 3)
    grad = np.zeros(cfg.shape)
    term = _term(R, bonds, y.F, vflat, cfg.epsilon, (grad.reshape(-1, 3),))
    breakdown = {f"eta={eta}": e for eta, (e, _) in term.per_law.items()}
    return EnergyReport(
        energy=sum(breakdown.values()),
        gradient=LatticeField(cfg, grad),
        model=model,
        excess=sum(de for _, de in term.per_law.values()),
        breakdown=breakdown,
        diagnostics=_timings(**{model: term}),
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

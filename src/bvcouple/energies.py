"""The three uncoupled energy models and their analytic first variations:
exact atomistic, staircase-tetrahedron Cauchy-Born, and cell-averaged
Cauchy-Born; and the one quadrature-bond kernel every energy term uses.

Every model here and in ``coupling`` and ``highorder`` is a weighted sum
eps^3 sum_q w_q phi_eta(F eta + (B v)_q / eps) over "quadrature bonds" q,
with B a fixed linear map of the displacement v. ``_bond_group`` is the
only code that evaluates phi_eta for such a term: ``InteractionLaw.evaluate
(zeta, 1)`` on each group of a term's (law, operator) batches (see below)
gives phi and phi' together (order 0, phi alone, for an energy-only call),
piece by piece and in plain chunks of ``_LAW_CHUNK`` rows, and phi(F eta)
from one extra row of the last piece; a law's bits do not depend on a
call's row count (``potentials``), so every row has the bits of one call.
Per batch, the kernel sums eps^3 sum_q w_q (phi(zeta_q) - phi(F eta)), the
batch's excess over the homogeneous bond, and adds the batch's homogeneous
share eps^3 phi(F eta) sum_q w_q back into the term's energy. Reports
carry the summed excess too (``EnergyReport.excess``): it is exactly 0.0
at y_F, and its differences keep the digits that the constant |Omega|
W(F) in the energy would swallow. A non-finite phi or phi' is a domain
error, like a radial bond below its minimum length;
``_site_error`` builds every domain error that names the offending bond's
site and eta, here and in the interface jump of ``coupling``. B is one of
two operator kinds, each with ``@``, ``.T``, ``rows``, ``apply(x, out)``
(B x written into the kernel's zeta buffer) and ``site(row)`` (the lattice
site a row belongs to, named in domain errors):

- a periodic shift stencil ``_Stencil`` (one row per site) for the
  translation-invariant terms: the exact bond (atomistic and naive models),
  the six staircase Cauchy-Born templates (acb-tetra, the continuum of the
  coupled, two-sided and naive models, the P1 layer of the high-order
  model) and the cell-averaged Cauchy-Born bond. ``apply`` takes an axis-0
  plane range and works one slab of at most ``_SLAB_ROWS`` rows (whole
  planes) at a time, every term on one slab before the next. A term whose
  shift wraps on two or three axes, applied to a whole array of one slab,
  copies its four or eight blocks (``_shift_blocks``) into one scratch
  array and adds that contiguously; larger arrays add the blocks slab by
  slab. Either way every row gets the same adds in the same order, so the
  bits do not depend on the plane range or the slab size. Stencils stay
  matrix-free: as CSR the cell bond at N=128 would hold 16.8M nonzeros;
- a sparse gather ``_Gather`` for the irregular terms: a cached CSR map to
  element-local values, then a dense (nq, nloc) coefficient block per
  element. The atomistic bonds and interface cones of ``coupling`` are
  elements with one local value and coefficient ``_ONE`` = [[1.0]], which
  apply their CSR map alone, in both directions: the 1x1 products would
  only copy. The Pk elements of ``highorder`` gather their local nodes and
  apply the shape-function gradients times eta at each quadrature point
  (as explicit CSR rows).

Pieces (``_pieces``): a lone stencil batch of more than ``_SLAB_ROWS``
rows runs through the law one slab of whole axis-0 planes at a time. Per
piece, the kernel applies the stencil to the piece's planes alone, into
one reused piece-sized zeta buffer, divides by eps, adds F eta, sets the
piece's own zero-weight rows to F eta and evaluates the law, writing phi
(and phi') into the batch's full-length arrays; F eta rides as the extra
last row of the last piece. The excess sum, the finiteness check, the
weight scaling and op^T then run on those full arrays, as for a batch of
one piece, so the bits are those of one piece. Every group of small
batches, every gather and every batch of at most one slab is one piece. A
law that rejects a piece's rows raises the error of the batch's first
failing row, as in one piece; the kernel then forms the batch's whole zeta
once to name its shortest bond. A batch of several pieces that runs alone
on two lanes is split: its pieces are dealt to both (see below).

Masks are zero weights; a zero-weight row is evaluated at the homogeneous
bond F eta, so a bond a mask drops can neither raise nor contribute. A
batch's weights are a scalar or a ``_Weights``: the weights with their
zero rows and their sum, which cached blocks, partitions and meshes build
once. The tiled weights of the Pk elements are made per call instead. A
non-finite phi' is found by one sum over phi', and only then row by row.

Every model takes a keyword ``gradient`` (default True). With
``gradient=False`` its terms get no gradient arrays, and each batch is
energy-only: the law is evaluated at order 0, and phi' (with its
finiteness check), the weight scaling and the transposed apply op^T are
skipped. phi is the same bits at every order, so energy, excess and
breakdown are those of the full call, and a non-finite phi raises the same
error; a phi' that would not be finite goes unnoticed, since it is never
computed. The report's gradient is then None, and its diagnostics carry no
gradient block. The consistency sweep and the finite-difference probes,
which read only energies, call the models this way.

Every model passes its terms' batches as data: ``_term(name, batches, ...)``
takes a list of (op, w, law, breakdown key) tuples and sums the energy and
excess of each key in batch order. ``_report`` then builds every model's
``EnergyReport`` from its terms: a breakdown entry is the sum of its key
over the terms, in term order; ``energy`` and ``excess`` are the
left-to-right sums over the breakdown; diagnostics get each term's wall
time (``term_s``) and the most lanes a term ran on (``lanes``). One
assembler, ``_lattice_model``, serves every model whose terms all read the
one state y and add to one gradient: the atomistic, acb-tetra and acb-cell
models (one term each, keyed by direction) and the naive control of
``coupling`` (its atomistic and continuum terms). It takes the terms as
{name: batches}, in term order. The coupled models, whose terms read two
states and fill per-side or free-node gradients, are assembled by
``coupling._coupled``.

Gradients are returned as Riesz representers with respect to the discrete
inner product: the report's gradient field g satisfies
DE(y)[v] = <g, v>_eps for every periodic lattice field v.

A term's batches run as units (``_groups``). Consecutive batches that share
the law and the breakdown key, each with fewer than ``_MIN_LANE_ROWS`` rows,
form one group: every operator writes its rows into one zeta buffer, with
one F eta row, and the law is evaluated once; then, batch by batch, the
kernel forms the batch's own excess sum, homogeneous share, finiteness
check, weight scaling and transposed apply. The law acts row by row, so
each batch's results are the bits of the batch alone. Any other batch is a
unit of its own. Up to N=20 this groups each law's six staircase templates
(acb-tetra, the continuum of the coupled, two-sided and naive models, the
P1 layer of the high-order model). Every report counts its terms' law
evaluations (``law_calls``): one per unit, whatever its pieces and chunks.

Each unit is one plain ``_bond_group`` call, a pure function of the state
that returns each batch's energy, excess and gradient contribution as a
list; ``_term`` adds these to the term's sums and gradients in batch order,
exactly the order of a single lane, so every result is bitwise the same on
one lane or two, grouped or not, and deterministic. The lanes are the
calling thread and one helper thread, as the process's CPU affinity allows,
and every two-lane step goes through one hand-off, ``_on_two_lanes``, which
returns once both lanes are done. A term's units stream on two lanes
(``_stream``) when one of them has a batch of at least ``_MIN_LANE_ROWS``
rows, which a group never has: each lane pulls the next unit from one
shared cursor as soon as it has finished one, a finished unit's results
wait in its own slot, and whichever lane takes the commit lock without
waiting adds the ready results in unit order; once the helper is done, the
caller adds what is left. No lane waits for the other between units. Below
that size the thread hand-off costs more than the work it overlaps, and the
caller computes and adds the units one at a time.

Units of several pieces, one stencil batch of more than ``_SLAB_ROWS`` rows
each, stream whole, since two such units side by side beat one unit split
over both lanes. Of an odd run of them the last runs alone, between
streams, and is split: ``_term`` hands it the helper, the caller runs
pieces 0, 2, ... and the helper pieces 1, 3, ..., each lane with its own
piece-sized zeta buffer writing disjoint rows of phi and phi', and op^T is
applied in two halves of the axis-0 planes, one per lane. The excess, the
finiteness check, the weight scaling and the adds stay on the caller, over
the full arrays, so the bits are again those of one lane. Only the caller
hands out the helper: the helper, a single worker, cannot hand pieces to
itself. On the lattices of more than ``_SLAB_ROWS`` sites (N = 64 and 128
in the consistency sweep) this streams the first two laws of the atomistic
and acb-cell models on the README laws and splits the third.

Domain errors follow one rule: a unit that raises re-runs its batches one
at a time on one lane, so a group and a split batch both raise the error
of their first failing batch, and only a lone one-lane batch forms its
whole zeta to name its shortest bond. A stream raises the error of its
first failing unit in unit order, whichever lane computed it and whenever:
once a unit raises, no lane pulls another, but every earlier unit, pulled
already, finishes, as on one lane.

A lone batch keeps phi and phi' alive for all its rows, but zeta for one
piece per lane only, the law's temporaries chunk-sized and a stencil's
slab-sized; a group keeps them for all its rows, fewer than six times
_MIN_LANE_ROWS per law on the models here, and returns every batch's
gradient contribution (one array the size of the operator's columns per
batch) at once. A streamed unit that finishes ahead of an earlier one keeps
its results in its slot until the earlier one is added. An energy-only call
drops phi' and the contributions too. The helper lane calls no public
bvcouple function, so tracers that wrap those see only the calling thread.
"""
from __future__ import annotations

import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache, reduce
from itertools import groupby, product
from operator import add
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
    last digits of |Omega| W(F). A model called with ``gradient=False``
    leaves ``gradient`` None and carries no gradient block in
    ``diagnostics``; its other fields are the bits of the full call."""

    energy: float
    gradient: LatticeField | None  # None from an energy-only call
    model: str
    excess: float
    breakdown: dict[str, float] = field(default_factory=dict)
    diagnostics: dict[str, Any] = field(default_factory=dict)


def _bond_group(pairs, law: InteractionLaw, F, x, eps, gradient: bool = True, helper=None) -> list:
    """Quadrature-bond energies of a group of (op, w) pairs of one law, the
    batches of a term that ``_groups`` runs together. Returns, pair by pair
    in order, the pair's energy eps^3 sum_q w_q phi(zeta_q) at the bond
    vectors zeta = F eta + (op @ x) / eps, summed as its excess over the
    homogeneous bond, eps^3 sum_q w_q (phi(zeta_q) - phi(F eta)), plus its
    homogeneous share eps^3 phi(F eta) sum_q w_q; the excess; and, if
    ``gradient``, the gradient contribution, scaled like the lattice inner
    product, op^T (w phi'(zeta) / eps).

    The group's rows run through the law in pieces (``_pieces``): per piece,
    its zeta rows are formed into one reused buffer and evaluated at once,
    phi and phi' landing in the group's full-length arrays; F eta rides as
    an extra last row of the last piece, so the excess is exactly 0.0
    wherever zeta = F eta. The law acts row by row, so the bits do not
    depend on the pieces, and each pair's results are the bits of a group
    of that pair alone. ``w`` is a scalar or a ``_Weights`` with one weight
    per row; its zero-weight rows are evaluated at F eta. Pure: the caller
    adds the results.

    ``helper``, the helper lane's executor, is given by ``_term`` to the
    stencil batch of several pieces that runs alone, the last of an odd run
    of them, and only then is the batch split: its pieces are dealt to two
    lanes, 0, 2, ... to the caller and 1, 3, ... to the helper, each lane
    with its own piece-sized zeta buffer, writing disjoint rows of the
    full-length arrays; and op^T is applied in two halves of the axis-0
    planes, the lower by the caller, the upper by the helper. Every row
    gets the operations of one lane, the excess, the finiteness check and
    the weight scaling stay on the caller over the full arrays, and
    ``_on_two_lanes`` returns only once both lanes are done, so the bits
    are those of one lane.

    A domain error names the lattice site ``op.site(row)`` of the shortest
    bond, or of the first bond whose phi or phi' is not finite, of the first
    failing pair. One rule finds it: a group or a split batch whose law
    call raises re-runs its pairs one at a time on one lane, and a lone
    one-lane batch that raises forms its whole zeta once to name its
    shortest bond.

    Without ``gradient`` the group is energy-only: the law is evaluated at
    order 0, and every gradient contribution is None. The energy and excess
    are the same bits, since phi does not depend on the order asked for;
    phi' is not computed, so only phi is checked for finiteness."""
    base = F @ law.eta_vec
    rows = [op.rows for op, _ in pairs]
    ends = np.cumsum(rows)
    starts = ends - rows
    n = int(ends[-1])
    order = 1 if gradient else 0
    pieces = _pieces(pairs, n)
    two = helper is not None
    # the law writes each piece into these; a lone piece keeps the law's own arrays
    out = [np.empty(n + 1), np.empty((n + 1, 3))][: order + 1] if len(pieces) > 1 else None

    def run(share):
        """Evaluates the pieces ``share`` in order, in one zeta buffer."""
        zeta = np.empty((max(hi - lo for lo, hi, _ in share) + 1, 3))
        for lo, hi, planes in share:
            z = _bond_rows(pairs, starts, x, eps, base, lo, hi, planes, zeta[: hi - lo + (hi == n)])
            got = _evaluate(law, z, order, out and [a[lo:lo + len(z)] for a in out])
        return out or got

    try:
        got = _on_two_lanes(helper, lambda: run(pieces[::2]), lambda: run(pieces[1::2]))[0] if two else run(pieces)
    except PotentialDomainError as exc:
        if len(pairs) > 1 or two:  # the first failing pair's error, as on one lane and ungrouped
            return [r for pair in pairs for r in _bond_group([pair], law, F, x, eps, gradient)]
        z = _bond_rows(pairs, starts, x, eps, base, 0, n, None, np.empty((n, 3)))
        raise _site_error(exc, pairs[0][0].site(int(np.argmin(np.linalg.norm(z, axis=-1)))), law.eta) from exc
    vals, *P = got
    phi0 = vals[n]
    P = P[0] if gradient else None
    results = []
    for (op, w), lo, hi in zip(pairs, starts, ends):
        v = vals[lo:hi]
        p = None if P is None else P[lo:hi]
        if isinstance(w, _Weights):
            w, total = w.w, w.total
        else:
            total = w * op.rows
        excess = float(eps**3 * (w * (v - phi0)).sum())
        # One sum finds a non-finite phi'; the row mask, built only then,
        # tells it apart from a sum of finite entries that overflowed.
        if not (math.isfinite(excess) and (p is None or math.isfinite(p.sum()))):
            bad = ~np.isfinite(v)
            if p is not None:
                bad |= ~np.isfinite(p).all(axis=-1)
            if not math.isfinite(excess) or bad.any():
                raise _site_error(f"{law.kind} energy or force is not finite", op.site(int(np.argmax(bad))), law.eta)
        share = float(eps**3 * phi0 * total)
        if p is None:
            results.append((excess + share, excess, None))
            continue
        if np.ndim(w):
            w = w / eps
            for i in range(3):
                p[:, i] *= w
        else:
            p *= w / eps
        results.append((excess + share, excess, _halves_transposed(helper, op, p) if two else op.T @ p))
    return results


def _on_two_lanes(helper, mine, theirs) -> list:
    """[mine(), theirs()]: calls ``theirs`` on the helper lane while the
    caller calls ``mine``, and returns once both are done, so no helper work
    outlives the call. Raises the caller's error, else the helper's. Every
    two-lane step goes through here: a term's stream (each lane running the
    same pull-and-add loop), the dealt pieces of a split batch and its
    transposed halves."""
    ahead = helper.submit(theirs)
    try:
        got = mine()
    finally:
        ahead.exception()  # waits
    return [got, ahead.result()]


def _halves_transposed(helper, op, p) -> np.ndarray:
    """op^T p for a stencil: the caller applies the lower half of the
    axis-0 planes, the helper lane the upper, into one array. A stencil
    row's bits do not depend on the plane range, so these are the bits of
    ``op.T @ p``."""
    T, n0 = op.T, op.N[0]
    mid = n0 // 2
    g = np.empty((op.rows, 3))
    cut = mid * (op.rows // n0)
    _on_two_lanes(helper, lambda: T.apply(p, g[:cut], 0, mid), lambda: T.apply(p, g[cut:], mid, n0))
    return g


def _pieces(pairs, n: int) -> list:
    """The (row lo, row hi, planes) pieces in which ``_bond_group`` takes a
    group's n rows through the law, in row order. A lone stencil batch of
    more than _SLAB_ROWS rows runs one slab of whole axis-0 planes (a, b) at
    a time; any other group is one piece, planes None."""
    op = pairs[0][0]
    if len(pairs) > 1 or not isinstance(op, _Stencil) or n <= _SLAB_ROWS:
        return [(0, n, None)]
    n0, step = op.N[0], op.slab_planes
    plane = n // n0
    return [(a * plane, min(a + step, n0) * plane, (a, min(a + step, n0))) for a in range(0, n0, step)]


def _bond_rows(pairs, starts, x, eps, base, lo, hi, planes, z):
    """The group's bond vectors F eta + (op @ x) / eps at rows lo..hi, the
    rows of zero weight at F eta, written into z and returned; a row of z
    past them gets F eta. ``planes`` is None for every row of every pair,
    else the axis-0 plane range of the lone stencil that the rows cover."""
    m = hi - lo
    if planes is None:
        for (op, _), s in zip(pairs, starts):
            op.apply(x, z[s:s + op.rows])
    else:
        pairs[0][0].apply(x, z[:m], *planes)
    np.divide(z[:m], eps, out=z[:m])
    for i in range(3):  # column by column: a (3,) broadcast along rows is slower
        z[:m, i] += base[i]
    z[m:] = base
    for (_, w), s in zip(pairs, starts):
        if isinstance(w, _Weights):
            zero = w.zero if planes is None else w.zero[slice(*np.searchsorted(w.zero, (lo, hi)))]
            z[zero + (s - lo)] = base
    return z


def _site_error(what, site: IntTriple, eta: IntTriple) -> PotentialDomainError:
    """The domain error of every model that names the offending bond: its
    lattice site and direction, after ``what`` (a message, or the law's own
    error, which the caller chains)."""
    return PotentialDomainError(f"{what} (offending bond: site {site}, eta={eta})", site=site, eta=eta)


@dataclass(frozen=True, eq=False)
class _Weights:
    """One quadrature weight per row, with what the kernel reads of them:
    the rows of zero weight, which it evaluates at F eta, and their sum.
    Cached blocks, partitions and meshes build theirs once."""

    w: np.ndarray       # (rows,)
    zero: np.ndarray    # row indices of zero weight
    total: float        # w.sum()


def _weights(w) -> _Weights:
    w = np.asarray(w, dtype=float)
    return _Weights(w, np.flatnonzero(w == 0.0), float(w.sum()))


def _evaluate(law: InteractionLaw, zeta, order: int, out=None):
    """[phi, phi'][:order + 1] at the rows of ``zeta`` from
    ``law.evaluate(., order)``, written into ``out`` if given: in one call
    up to _LAW_CHUNK rows, else in chunks of _LAW_CHUNK rows written into
    preallocated arrays, which keeps the law's temporaries chunk-sized. The
    law's bits do not depend on the rows a call holds, so they are those of
    one call."""
    n = len(zeta)
    with np.errstate(over="ignore", invalid="ignore"):
        if n <= _LAW_CHUNK and out is None:
            return law.evaluate(zeta, order)
        out = out or [np.empty(n), np.empty((n, 3))][: order + 1]
        for lo in range(0, n, _LAW_CHUNK):
            for a, chunk in zip(out, law.evaluate(zeta[lo:lo + _LAW_CHUNK], order)):
                a[lo:lo + _LAW_CHUNK] = chunk
    return out


def _lane_count() -> int:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return min(2, cpus)


# Lanes a term's batches run on: the caller, and one helper thread where the
# process may use two CPUs.
_LANES = _lane_count()
# A term's units stream on two lanes only when one of them has a batch of at
# least this many rows: below that the thread hand-off costs more than the
# numpy work it overlaps. Consecutive smaller batches of one law and key
# run as one group instead.
_MIN_LANE_ROWS = 8192
# Rows per law evaluation in ``_evaluate``, and per stencil slab in
# ``_Stencil.apply`` and per piece of a large stencil batch in ``_pieces``.
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


def _groups(batches) -> list:
    """A term's (op, w, law, key) batches as units (pairs, law, key), in
    batch order: a run of consecutive batches that share the law and the
    key, each with fewer than _MIN_LANE_ROWS rows, is one unit (a group, one
    law evaluation for all its rows); any other batch is a unit of one
    (op, w) pair."""
    units: list = []
    for op, w, law, key in batches:
        last = units[-1] if units else None
        if last and last[1] is law and last[2] == key and max(op.rows, last[0][-1][0].rows) < _MIN_LANE_ROWS:
            last[0].append((op, w))
        else:
            units.append(([(op, w)], law, key))
    return units


class _Stencil:
    """Periodic shift stencil on flat (n_sites, 3) fields: row l of B v is
    sum_k c_k v_{l + s_k}. Its transpose is the same stencil with the
    offsets negated."""

    def __init__(self, N: IntTriple, terms):
        self.N = N
        self.terms = terms  # ((offset s_k, coefficient c_k), ...)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.apply(x, np.empty((self.rows, 3)))

    def apply(self, x: np.ndarray, out: np.ndarray, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """B x at the sites of the axis-0 planes lo <= l_0 < hi (default:
        every plane) written into ``out``, a C-contiguous ((hi - lo) N_1 N_2,
        3) array, one slab of at most ``slab_planes`` planes at a time: each
        slab takes every term, in term order, before the next slab starts.
        Every row gets the adds of a term-by-term sweep of the whole array,
        in the same order, so the bits do not depend on the plane range or
        the slab size, and the slab stays in cache across the terms."""
        n0 = self.N[0]
        hi = n0 if hi is None else hi
        v = x.reshape(self.N + (3,))
        acc = out.reshape((hi - lo,) + v.shape[1:])
        planes = self.slab_planes
        shifted = None  # scratch for the whole-array shifts, one per apply
        for a in range(lo, hi, planes):
            b = min(a + planes, hi)
            slab = acc[a - lo:b - lo]
            slab[...] = 0.0
            for s, c in self.terms:
                src, blocks = v, _shift_blocks(self.N, s, a, b)
                if len(blocks) > 2 and b - a == n0:
                    # up to a slab, copying the blocks into one contiguous
                    # shifted array (no larger than a slab's temporary) and
                    # one contiguous add beat four or eight strided block
                    # adds
                    if shifted is None:
                        shifted = np.empty_like(v)
                    for dst, sl in blocks:
                        shifted[dst] = v[sl]
                    src, blocks = shifted, _WHOLE
                    if abs(c) != 1.0:
                        src *= c
                        c = 1.0
                for dst, sl in blocks:
                    if c == 1.0:
                        slab[dst] += src[sl]
                    elif c == -1.0:
                        slab[dst] -= src[sl]
                    else:  # a temporary no larger than a slab
                        slab[dst] += src[sl] * c
        return out

    @property
    def slab_planes(self) -> int:
        """Axis-0 planes per slab: as many as fit in _SLAB_ROWS rows, at
        least one."""
        return max(1, _SLAB_ROWS // (self.N[1] * self.N[2]))

    @property
    def rows(self) -> int:
        return math.prod(self.N)

    @cached_property
    def T(self) -> "_Stencil":
        return _Stencil(self.N, tuple((tuple(-o for o in s), c) for s, c in self.terms))

    def site(self, row: int) -> IntTriple:
        return tuple(int(i) for i in np.unravel_index(row, self.N))


def _runs(n: int, k: int, lo: int, hi: int) -> tuple:
    """(dst start, src start, length) runs that cover the indices [lo, hi)
    of an axis of length n, each reading index (lo + dst + k) mod n: one
    run, or two where the source wraps. dst counts from lo."""
    src = (lo + k) % n
    if src + hi - lo <= n:
        return ((0, src, hi - lo),)
    return ((0, src, n - src), (n - src, 0, hi - lo - n + src))


@lru_cache(maxsize=1024)
def _shift_blocks(N: IntTriple, s: IntTriple, lo: int, hi: int) -> tuple:
    """(dst, src) index pairs such that v[src] at dst is v[(l + s) mod N]
    at each site l of the slab lo <= l_0 < hi, with dst's axis-0 index
    counted from lo: up to two runs per axis."""
    return tuple(
        (tuple(slice(d, d + m) for d, _, m in blocks), tuple(slice(src, src + m) for _, src, m in blocks))
        for blocks in product(_runs(N[0], s[0], lo, hi), _runs(N[1], s[1], 0, N[1]), _runs(N[2], s[2], 0, N[2]))
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
    transpose applies both maps in reverse, ``G`` being its transpose. With
    ``coef`` the block ``_ONE`` a row is its gathered value, so both
    directions apply ``G`` alone: the 1x1 products would only copy."""

    G: sparse.csr_array     # (E nloc, n_cols) element-local values
    coef: np.ndarray        # (nq, nloc)
    sites: np.ndarray       # (E,) flat lattice site per element
    N: IntTriple
    transposed: bool = False

    def __matmul__(self, x):
        if self.coef is _ONE:
            return self.G @ x
        if self.transposed:
            u = np.matmul(self.coef.T, x.reshape(-1, self.coef.shape[0], 3))
            return self.G @ u.reshape(-1, 3)
        return self.apply(x, np.empty((self.rows, 3)))

    def apply(self, x, out):
        """The gather of x written into ``out``, a C-contiguous (rows, 3)
        array; for the untransposed gather only."""
        if self.coef is _ONE:
            out[...] = self.G @ x
            return out
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
    """One term's sums over its batches in batch order (``sums``: breakdown
    key -> (energy, excess) of the batches carrying it), its wall time, the
    most lanes its units ran on, and its law evaluations (one per unit,
    each in row chunks)."""

    name: str
    sums: dict[str, tuple[float, float]] = field(default_factory=dict)
    seconds: float = 0.0
    lanes: int = 1
    law_calls: int = 0

    def add(self, key: str, results, g_outs) -> None:
        """Adds one unit's results, batch by batch, to the sums of ``key``
        and to every array in ``g_outs``."""
        self.law_calls += 1
        for e, de, contrib in results:
            energy, excess = self.sums.get(key, (0.0, 0.0))
            self.sums[key] = (energy + e, excess + de)
            for g in g_outs:
                g += contrib


def _term(name: str, batches, F, x, eps, g_outs) -> _Term:
    """One term: the kernel over its quadrature-bond batches, a list of
    (op, w, law, breakdown key) tuples, grouped by ``_groups``. On two
    lanes the units are streamed (``_stream``) when one of them has a batch
    of at least _MIN_LANE_ROWS rows and there are two or more; of an odd
    run of units of several pieces (each one stencil batch above
    _SLAB_ROWS rows) the last is handed the helper and runs alone, split
    over both lanes, and only here is that split decided. Any other unit is
    computed and added on the caller, one at a time. Every sum and every
    array in ``g_outs`` adds the batches' results in batch order, as on one
    lane and ungrouped, so the result is bitwise the same on one lane or
    two, grouped or not. With no ``g_outs`` the batches are energy-only."""
    t0 = time.perf_counter()
    out = _Term(name)
    gradient = bool(g_outs)
    two = _LANES > 1

    def unit(pairs, law, key, helper=None) -> list:
        return _bond_group(pairs, law, F, x, eps, gradient, helper)

    def add(key, results) -> None:
        out.add(key, results, g_outs)

    def several_pieces(u) -> bool:
        return len(_pieces(u[0], u[0][0][0].rows)) > 1

    for several, run in groupby(_groups(batches), several_pieces):
        run = list(run)
        lone = run.pop() if two and several and len(run) % 2 else None
        if two and len(run) > 1 and max(op.rows for pairs, _, _ in run for op, _ in pairs) >= _MIN_LANE_ROWS:
            _stream(_helper(), run, unit, add)
            out.lanes = 2
        else:
            for u in run:
                add(u[2], unit(*u))
        if lone:
            add(lone[2], unit(*lone, _helper()))
            out.lanes = 2
    out.seconds = time.perf_counter() - t0
    return out


def _stream(helper, units, run, add) -> None:
    """Runs ``units`` on both lanes and adds their results in unit order.
    Each lane pulls the next unit from one shared cursor as soon as it has
    finished one, ``run(*unit)``, and parks the results in the unit's slot;
    then, if it takes the commit lock without waiting, it adds every ready
    result in unit order, ``add(key, results)``, from the first unit not yet
    added, and drops it. Once a unit raises, no lane pulls another, but the
    earlier units, all pulled already, finish. When both lanes are done
    (``_on_two_lanes``) the caller adds what is left and raises the error of
    the first failing unit, so every add and every error is that of one
    lane."""
    n = len(units)
    slots: list = [None] * n      # a finished unit's results, until added
    errors: dict = {}             # unit index -> the error it raised
    cursor = iter(range(n))
    pull, commit = threading.Lock(), threading.Lock()
    head = 0                      # the first unit not yet added

    def ready() -> bool:
        h = head  # read once: the lane holding the commit lock may advance it
        return h < n and slots[h] is not None

    def drain() -> None:
        nonlocal head
        while ready():
            add(units[head][2], slots[head])
            slots[head] = None
            head += 1

    def lane() -> None:
        while not errors:
            with pull:
                i = next(cursor, None)
            if i is None:
                return
            try:
                slots[i] = run(*units[i])
            except Exception as exc:  # raised by the caller, in unit order
                errors[i] = exc
            while ready() and commit.acquire(blocking=False):
                try:
                    drain()
                finally:
                    commit.release()

    _on_two_lanes(helper, lane, lane)
    drain()
    if errors:
        raise errors[min(errors)]


def _report(model: str, gradient: LatticeField | None, terms, **diagnostics) -> EnergyReport:
    """The report of every model. A breakdown entry is the sum of its key
    over the terms, in term order, starting from the first term's value (so
    a negated zero stays -0.0); ``energy`` and ``excess`` are the
    left-to-right sums over the breakdown. Diagnostics get each term's wall
    time and law evaluations, and the most lanes any term ran on."""
    sums: dict[str, tuple[float, float]] = {}
    for t in terms:
        for key, (e, de) in t.sums.items():
            if key in sums:
                e, de = sums[key][0] + e, sums[key][1] + de
            sums[key] = (e, de)
    return EnergyReport(
        energy=reduce(add, (e for e, _ in sums.values())),
        gradient=gradient,
        model=model,
        excess=reduce(add, (de for _, de in sums.values())),
        breakdown={key: e for key, (e, _) in sums.items()},
        diagnostics={**diagnostics, "term_s": {t.name: t.seconds for t in terms},
                     "law_calls": {t.name: t.law_calls for t in terms},
                     "lanes": max(t.lanes for t in terms)},
    )


def _lattice_model(y: Deformation, model: str, terms: dict, gradient: bool) -> EnergyReport:
    """Every model whose terms all read the one state y: the uncoupled
    models and the naive control. ``terms`` maps each term's name to its
    batches, in term order; the terms add to one gradient, or, without
    ``gradient``, are energy-only and the report's gradient is None."""
    cfg = y.cfg
    grad = np.zeros(cfg.shape) if gradient else None
    vflat = y.displacement.values.reshape(-1, 3)
    g_outs = () if grad is None else (grad.reshape(-1, 3),)
    done = [_term(name, batches, y.F, vflat, cfg.epsilon, g_outs) for name, batches in terms.items()]
    return _report(model, None if grad is None else LatticeField(cfg, grad), done)


def atomistic_energy(y: Deformation, R: InteractionSet, *, gradient: bool = True) -> EnergyReport:
    """Exact atomistic energy eps^3 sum_l sum_eta phi_eta(D_eta y_l).
    ``gradient=False`` computes the same energy, excess and breakdown
    without the gradient, which the report then leaves None."""
    N = y.cfg.N
    return _lattice_model(y, "atomistic", {
        "atomistic": [(_bond_stencil(law.eta, N), 1.0, law, f"eta={law.eta}") for law in R],
    }, gradient)


def acb_tetra_energy(y: Deformation, R: InteractionSet, *, gradient: bool = True) -> EnergyReport:
    """Cauchy-Born energy on the staircase tetrahedra: (eps^3/6) per cell tet
    of W(grad), with the discrete gradient taken from the tet's own axis
    edges. ``gradient=False`` as in ``atomistic_energy``."""
    N = y.cfg.N
    return _lattice_model(y, "acb-tetra", {
        "acb-tetra": [(op, 1.0 / 6.0, law, f"eta={law.eta}") for law in R for op in _staircase_stencils(law.eta, N)],
    }, gradient)


def acb_cell_energy(y: Deformation, R: InteractionSet, *, gradient: bool = True) -> EnergyReport:
    """Cauchy-Born energy on cells: eps^3 per cell of W evaluated at the
    averaged discrete gradient (each column averages four edge quotients).
    ``gradient=False`` as in ``atomistic_energy``."""
    N = y.cfg.N
    return _lattice_model(y, "acb-cell", {
        "acb-cell": [(_cell_stencil(law.eta, N), 1.0, law, f"eta={law.eta}") for law in R],
    }, gradient)

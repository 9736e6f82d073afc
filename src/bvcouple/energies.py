"""The three uncoupled energy models and their analytic first variations:
exact atomistic, staircase-tetrahedron Cauchy-Born, and cell-averaged
Cauchy-Born; and the one quadrature-bond kernel every energy term uses.

Every model here and in ``coupling`` and ``highorder`` is a weighted sum
eps^3 sum_q w_q phi_eta(F eta + (B v)_q / eps) over "quadrature bonds" q,
with B a fixed linear map of the displacement v. ``_Unit`` is the only
code that evaluates phi_eta for such a term: ``InteractionLaw.evaluate
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
  element-local values, then a dense (nq, nloc) coefficient block shared
  by every element. The atomistic bonds and interface cones of
  ``coupling`` are elements with one local value and coefficient ``_ONE``
  = [[1.0]], which apply their CSR map alone, in both directions: the 1x1
  products would only copy. The Pk elements of ``highorder`` gather their
  local nodes and apply the shape-function gradients times eta at each
  quadrature point. Their CSR rows come in blocks of elements
  (``highorder._PK_BLOCK``), node-major within a block, so each direction
  is one small matrix product per block, read from and written to the
  gather's rows in place, with no transposing copy; the rows of one block
  are point-major, (point, element). Padding elements fill the last block:
  their CSR rows are empty, so their bonds are exactly F eta, and they add
  exactly 0.0 to the excess and nothing to a gradient.

Pieces (``_pieces``): a piece is the run of rows that one law evaluation
covers. A lone stencil batch of more than ``_SLAB_ROWS`` rows runs through
the law one slab of whole axis-0 planes at a time; every group of small
batches, every gather and every batch of at most one slab is one piece.
Per piece, the kernel applies the stencil to the piece's planes alone, into
the zeta rows of the lane's arena, divides by eps, adds F eta, sets the
piece's own zero-weight rows to F eta and evaluates the law, which writes
phi (and phi') into the piece's rows of the unit's full-length arrays; F
eta rides as the extra last row of the last piece. The excess sum, the
finiteness check, the weight scaling and op^T then run on those full
arrays, as for a batch of one piece, so the bits are those of one piece.
Every unit, of one piece or many, has these arrays in a unit slot.

Masks are zero weights; a zero-weight row is evaluated at the homogeneous
bond F eta, so a bond a mask drops can neither raise nor contribute. A
batch's weights are a scalar or a ``_Weights``: the weights with their
zero rows and their sum, which cached blocks, partitions and meshes build
once. The Pk rows share one weight per quadrature point: a (nq, block)
tile that the kernel broadcasts over a gather's (blocks, nq, block) rows
(``_blocks``), padding rows included, whose sum counts the real rows
alone. The excess sum
forms w (phi - phi(F eta)) over phi itself, which nothing reads again. A
non-finite phi' is found by one sum over phi', and only then row by row,
with the batch's phi evaluated again to name the first non-finite one.

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
``coupling._coupled``. ``_lattice_batches`` builds the one term's batches
of the atomistic, acb-tetra and acb-cell models, and ``_hessian_symbol``
reads such batches for the Fourier symbol of a model's Hessian at y_F,
which ``harness.minimize`` inverts as its preconditioner.

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

Each unit is a ``_Unit``: ``start`` gives it a unit slot for its
full-length arrays, ``run`` evaluates one piece into them, and ``finish``
forms each batch's energy, excess and gradient contribution, returned as a
list. ``_term`` adds these to the term's sums and gradients in batch
order, exactly the order of a single lane, so every result is bitwise the
same on one lane or two, grouped or not, and deterministic. The lanes are
the calling thread and one helper thread, as the process's CPU affinity
allows. A term streams its pieces on two lanes (``_stream``, the only code
that hands work to the helper) when one of its batches has at least
``_MIN_LANE_ROWS`` rows, which a group never has, and it has two pieces or
more: each lane pulls the next (unit, piece) from one shared cursor, in
unit-then-piece order, as soon as it has finished one, pulling a unit's
first piece starts the unit, the lane that completes a unit's last piece
runs its finish and parks the results until they are added, and whichever
lane takes the commit lock without waiting adds the ready results in unit
order; once the helper is done, the caller adds what is left. No lane
waits for the other between pieces, so one lane finishes a unit while the
other evaluates the next one's pieces (a finish may wait for an add, see
Memory below). Otherwise the thread hand-off costs
more than the work it overlaps, and the caller runs and adds the units one
at a time (``_Unit.alone``). On the lattices of more than ``_SLAB_ROWS``
sites (N = 64 and 128 in the consistency sweep) every stencil batch is
several pieces, and a term's pieces stream through both lanes alike.

Domain errors follow one rule: every error is the one-lane error. On one
lane a group whose law call raises re-runs its batches one at a time, and a
lone batch forms its whole zeta once to name its shortest bond. A stream
raises the error of its first failing unit in unit order, whichever lane
hit it and whenever: once a piece or a finish raises, no lane pulls
another, but every earlier unit, whose pieces were all pulled already,
finishes, as on one lane; the caller then re-runs the first failing unit on
one lane, which raises its one-lane error.

Memory: every array of a term's size that a warm call fills lives in a
workspace (``_Workspace``), one per lane (``_workspace``, per thread), and
is reused from call to call, so a repeated call allocates nothing of its
size and takes no fresh pages, whatever malloc does with freed memory. A
workspace is a few flat float arrays, by role, each grown, never shrunk,
to the most that a term it served asked of it, and handed out as views;
every lane reserves them for the whole term before its first piece
(``_Workspace.reserve``), so which lane serves which unit changes no size.
Nothing marks an array as in use: the order in which units run says who
may write each one. They are:

- the arena, which holds a piece's zeta rows (the term's largest piece and
  F eta) and the scratch of the stencil or gather apply (one shifted copy
  of x where the lattice is one slab, a gather's element-local values), or
  during a finish the weights over eps and the transposed apply's scratch;
  so a finish takes no more than the pieces of its lane, and the law's
  temporaries stay chunk-sized (``_evaluate``). Only its own thread writes
  it, one piece or finish at a time, and nothing outlives either;
- the unit slots, phi (and phi') of a unit from its start to its finish,
  which the law writes into, chunk by chunk. They belong to the workspace
  of the lane that calls the term, and serve the units that either lane
  starts. At most _LANES units are started and not finished at once: a
  lane starts a unit when it runs nothing else and every earlier unit's
  pieces are pulled, so only the unit that the other lane runs can be
  unfinished. A term on the caller's one lane, and the one-lane re-run of
  a failing unit, use slot 0; a stream keeps the indices of the caller's
  _LANES slots on a free list, pops one when it starts a unit and pushes it
  back after the unit's finish, so no unit starts in a slot that a
  started, unfinished unit has;
- the contribution array, the gradient contributions of the unit the lane
  finished last, one array the size of x per batch of the unit, read until
  the unit's results are added. A lane remembers which unit parked its
  contributions there, and if that unit is not yet added, because an
  earlier unit is still running on the other lane, it waits for that add
  before it finishes another unit: so at most one unit's results per lane
  wait to be added, and no workspace grows with the order in which the
  lanes happen to finish. The helper thread serves every caller's streams,
  so its lane returns only once its parked unit is added.

An energy-only call fills phi alone and parks no contributions. A term
that raises leaves nothing to give back: each stream has a free list of its
own. A block or mesh build (a cache miss in ``coupling``
or ``highorder``) first lets go of every workspace array
(``_drop_workspaces``), so the build reuses that memory rather than adding
to it, and the next term reserves the arrays again; a view that a unit of
another thread still holds keeps its own array alive. The helper lane
calls no public bvcouple function, so tracers that wrap those see only the
calling thread.
"""
from __future__ import annotations

import math
import os
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache, reduce
from itertools import accumulate, product
from operator import add
from typing import Any

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

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


class _Unit:
    """One unit of a term (``_groups``): a group of (op, w) pairs of one law
    and breakdown key, taken through the law in pieces (``_pieces``).

    ``start(out)`` gives the unit its unit slot ``out``, ``slot_size``
    floats, for phi (and phi') of every row and one more row for F eta.
    ``run(k, ws)`` forms piece k's bond rows in the arena of the running
    lane's workspace ``ws``, and the law writes phi (and phi') into the
    piece's rows of the slot (``_evaluate``); F eta rides as an extra last
    row of the last piece, so the excess is exactly 0.0 wherever zeta =
    F eta. Pieces write disjoint rows, so they may run in any order, on
    either lane.
    ``finish(ws)``, once every piece has run, forms each pair's results over
    the full arrays, with its temporaries in the finishing lane's arena and
    the gradient contributions in that lane's contribution array, and is
    the unit's last read of its slot. The unit holds no workspace array of
    its own: the order in which ``_term`` and ``_stream`` run units says
    which slot a unit may write and how long its contributions stay (module
    docstring, Memory). The law acts row by row, so the bits do not depend
    on the pieces or the lanes, and each pair's results are the bits of a
    group of that pair alone. ``w`` is a scalar or a ``_Weights`` with one
    weight per row, or a 2-D tile of one weight per row of each
    (w.size)-row block; its zero-weight rows are evaluated at F eta.

    Without ``gradient`` the unit is energy-only: the law is evaluated at
    order 0, and every gradient contribution is None. The energy and excess
    are the same bits, since phi does not depend on the order asked for;
    phi' is not computed, so only phi is checked for finiteness."""

    def __init__(self, pairs, law: InteractionLaw, key, base, x, eps, gradient: bool):
        self.pairs, self.law, self.key, self.base, self.x, self.eps = pairs, law, key, base, x, eps
        self.order = 1 if gradient else 0
        self.ends = list(accumulate(op.rows for op, _ in pairs))
        self.starts = [0, *self.ends[:-1]]
        self.n = self.ends[-1]
        self.pieces = _pieces(pairs, self.n)
        self.zeta_rows = max(hi - lo for lo, hi, _ in self.pieces) + 1  # a piece and F eta
        # Workspace floats: a unit slot; the arena, a piece's zeta or the
        # finish's weights over eps, then from ``split`` on an apply's
        # scratch; the contributions.
        self.slot_size = (self.n + 1) * (1 + 3 * self.order)
        self.split, scratch = 3 * self.zeta_rows, 0
        for op, w in pairs:
            scratch = max(scratch, op.scratch_size)
            if gradient and isinstance(w, _Weights):
                self.split = max(self.split, w.w.size)
        self.scratch_size = self.split + scratch
        self.contrib_size = len(pairs) * x.size * self.order
        self.out = None  # phi (and phi'), views of the unit slot, from ``start`` to ``finish``

    def start(self, out: np.ndarray) -> None:
        self.out = [out[: self.n + 1], out[self.n + 1:].reshape(-1, 3)][: self.order + 1]

    def run(self, k: int, ws: "_Workspace") -> None:
        lo, hi, planes = self.pieces[k]
        m = hi - lo + (hi == self.n)
        arena = ws.array("arena", self.scratch_size)
        z = _bond_rows(self.pairs, self.starts, self.x, self.eps, self.base, lo, hi, planes,
                       arena[: 3 * m].reshape(m, 3), arena[self.split:])
        _evaluate(self.law, z, self.order, [a[lo:lo + len(z)] for a in self.out])

    def finish(self, ws: "_Workspace") -> list:
        """Each pair's (energy, excess, gradient contribution) from the full
        arrays; a non-finite phi or phi' raises the error of the first pair
        that has one."""
        (vals, *P), self.out = self.out, None
        phi0 = vals[self.n]
        P = P[0] if P else None
        eps, results = self.eps, []
        arena = ws.array("arena", self.scratch_size)
        scratch = arena[self.split:]
        if P is not None:
            contribs = ws.array("contrib", self.contrib_size).reshape(len(self.pairs), *self.x.shape)
        for j, ((op, w), lo, hi) in enumerate(zip(self.pairs, self.starts, self.ends)):
            v = vals[lo:hi]
            p = None if P is None else P[lo:hi]
            weights, total = (w.w, w.total) if isinstance(w, _Weights) else (w, w * op.rows)
            # w (phi - phi(F eta)), written over phi, which nothing reads again
            d = _blocks(v, weights)
            np.subtract(d, phi0, out=d)
            np.multiply(d, weights, out=d)
            excess = float(eps**3 * v.sum())
            # One sum finds a non-finite phi'; the row mask, built only then,
            # tells it apart from a sum of finite entries that overflowed.
            if not (math.isfinite(excess) and (p is None or math.isfinite(p.sum()))):
                phi = np.empty(op.rows)  # the pair's phi again: the law's bits do not depend on the rows
                _evaluate(self.law, _bond_rows([(op, w)], [0], self.x, eps, self.base, 0, op.rows, None,
                                               np.empty((op.rows, 3))), 0, [phi])
                bad = ~np.isfinite(phi)
                if p is not None:
                    bad |= ~np.isfinite(p).all(axis=-1)
                if not math.isfinite(excess) or bad.any():
                    raise _site_error(f"{self.law.kind} energy or force is not finite",
                                      op.site(int(np.argmax(bad))), self.law.eta)
            share = float(eps**3 * phi0 * total)
            if p is None:
                results.append((excess + share, excess, None))
                continue
            if np.ndim(weights):
                pw = _blocks(p, weights)
                weights = np.divide(weights, eps, out=arena[: weights.size].reshape(weights.shape))
                for i in range(3):
                    pw[..., i] *= weights
            else:
                p *= weights / eps
            results.append((excess + share, excess, op.T.apply(p, contribs[j], scratch=scratch)))
        return results

    def copied(self, ws: "_Workspace") -> list:
        """``alone``, with each gradient contribution copied out of the
        workspace."""
        return [(e, de, None if g is None else g.copy()) for e, de, g in self.alone(ws)]

    def alone(self, ws: "_Workspace") -> list:
        """The unit on the calling lane, with its workspace ``ws`` and unit
        slot 0 of it: its pieces in order, then its finish. A law call that
        raises gives the unit's one-lane error, which names the lattice site
        ``op.site(row)`` of the shortest bond, or of the first bond whose
        phi or phi' is not finite, of the first failing pair: a group re-runs
        its pairs one at a time, and a lone batch forms its whole zeta once
        to name its shortest bond."""
        self.start(ws.array(("unit", 0), self.slot_size))
        try:
            for k in range(len(self.pieces)):
                self.run(k, ws)
        except PotentialDomainError as exc:
            if len(self.pairs) > 1:  # the first failing pair's error, as ungrouped
                return [r for pair in self.pairs
                        for r in _Unit([pair], self.law, self.key, self.base, self.x, self.eps,
                                       self.order).copied(ws)]
            z = _bond_rows(self.pairs, self.starts, self.x, self.eps, self.base, 0, self.n, None,
                           np.empty((self.n, 3)))
            raise _site_error(exc, self.pairs[0][0].site(int(np.argmin(np.linalg.norm(z, axis=-1)))),
                              self.law.eta) from exc
        return self.finish(ws)


def _pieces(pairs, n: int) -> list:
    """The (row lo, row hi, planes) pieces in which a ``_Unit`` takes a
    group's n rows through the law, in row order. A lone stencil batch of
    more than _SLAB_ROWS rows runs one slab of whole axis-0 planes (a, b) at
    a time; any other group is one piece, planes None."""
    op = pairs[0][0]
    if len(pairs) > 1 or not isinstance(op, _Stencil) or n <= _SLAB_ROWS:
        return [(0, n, None)]
    n0, step = op.N[0], op.slab_planes
    plane = n // n0
    return [(a * plane, min(a + step, n0) * plane, (a, min(a + step, n0))) for a in range(0, n0, step)]


def _bond_rows(pairs, starts, x, eps, base, lo, hi, planes, z, scratch=None):
    """The group's bond vectors F eta + (op @ x) / eps at rows lo..hi, the
    rows of zero weight at F eta, written into z and returned; a row of z
    past them gets F eta. ``planes`` is None for every row of every pair,
    else the axis-0 plane range of the lone stencil that the rows cover.
    ``scratch`` is the operators' flat scratch array (see ``scratch_size``),
    or None to allocate it."""
    m = hi - lo
    if planes is None:
        for (op, _), s in zip(pairs, starts):
            op.apply(x, z[s:s + op.rows], scratch=scratch)
    else:
        pairs[0][0].apply(x, z[:m], *planes, scratch=scratch)
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
    """Quadrature weights, with what the kernel reads of them: the rows of
    zero weight, which it evaluates at F eta, and their sum. ``w`` holds
    one weight per row, or a 2-D tile, one weight per row of each
    (w.size)-row block, which the kernel broadcasts over the blocks
    (``_blocks``): the Pk elements' (nq, block) tile of the quadrature
    weights of a block of elements. Cached blocks, partitions and meshes
    build theirs once."""

    w: np.ndarray       # (rows,), or a (nq, block) tile
    zero: np.ndarray    # row indices of zero weight
    total: float        # the sum over every row, a tile's padding rows excepted


def _weights(w) -> _Weights:
    w = np.asarray(w, dtype=float)
    return _Weights(w, np.flatnonzero(w == 0.0), float(w.sum()))


def _blocks(a: np.ndarray, w) -> np.ndarray:
    """``a``, with one row per quadrature bond, as the array that the
    weights ``w`` (a scalar or ``_Weights.w``) broadcast over: ``a`` itself
    for a scalar or one weight per row, else its (rows / w.size, *w.shape)
    blocks of a 2-D tile, a view."""
    return a.reshape(-1, *w.shape, *a.shape[1:]) if np.ndim(w) > 1 else a


def _evaluate(law: InteractionLaw, zeta, order: int, out) -> None:
    """Writes [phi, phi'][:order + 1] at the rows of ``zeta`` into ``out``:
    ``law.evaluate(., order, .)`` writes each chunk of at most _LAW_CHUNK
    rows into that chunk's rows of ``out``, which keeps the law's
    temporaries chunk-sized and copies nothing. The law's bits do not
    depend on the rows a call holds, so they are those of one call."""
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(zeta), _LAW_CHUNK):
            law.evaluate(zeta[lo:lo + _LAW_CHUNK], order, [a[lo:lo + _LAW_CHUNK] for a in out])


def _lane_count() -> int:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return min(2, cpus)


# Lanes a term's batches run on: the caller, and one helper thread where the
# process may use two CPUs.
_LANES = _lane_count()
# A term's pieces stream on two lanes only when one of its batches has at
# least this many rows: below that the thread hand-off costs more than the
# numpy work it overlaps. Consecutive smaller batches of one law and key
# run as one group instead.
_MIN_LANE_ROWS = 8192
# Rows per law evaluation in ``_evaluate``, and per stencil slab in
# ``_Stencil.apply`` and per piece of a large stencil batch in ``_pieces``.
_LAW_CHUNK = 16384
_SLAB_ROWS = 1 << 17
_helper_pool: tuple[int, ThreadPoolExecutor] | None = None
_helper_lock = threading.Lock()


def _helper() -> ThreadPoolExecutor:
    """The helper lane, made on first use by each process, under a lock, so
    that threads whose first calls meet make one: a forked child inherits
    the parent's executor but not its thread, so it makes its own."""
    global _helper_pool
    with _helper_lock:
        if _helper_pool is None or _helper_pool[0] != os.getpid():
            _helper_pool = (os.getpid(), ThreadPoolExecutor(max_workers=1, thread_name_prefix="bvcouple-lane"))
        return _helper_pool[1]


def _allocate(size: int) -> np.ndarray:
    """The one allocation of every workspace array."""
    return np.empty(size)


class _Workspace:
    """One lane's reused flat float arrays, by role (see the module
    docstring, Memory): ``"arena"``, for a piece's zeta and an apply's
    scratch or a finish's temporaries; ``"contrib"``, for the gradient
    contributions of the unit this lane finished last, until they are
    added; and ``("unit", s)`` for s < _LANES, the unit slots, for phi and
    phi' of the units of the terms this lane calls, on either lane. Each
    array grows, never shrinks, to the most asked of it; who may write it
    is said by the order in which ``_term`` and ``_stream`` run units."""

    def __init__(self):
        self.arrays: dict = {}

    def array(self, role, size: int) -> np.ndarray:
        """A view of the first ``size`` floats of the role's array, which
        grows first if it is shorter."""
        data = self.arrays.get(role)  # read once: ``_drop_workspaces`` may clear the dict
        if data is None or data.size < size:
            data = self.arrays[role] = _allocate(size)
        return data[:size]

    def reserve(self, units, slots: int) -> None:
        """Grows the arena, the contribution array and the first ``slots``
        unit slots to the most that any of ``units`` asks, whichever of them
        this lane serves, so a repeated term allocates nothing."""
        self.array("arena", max(u.scratch_size for u in units))
        self.array("contrib", max(u.contrib_size for u in units))
        for s in range(slots):
            self.array(("unit", s), max(u.slot_size for u in units))


_lanes = threading.local()  # each thread's ``_Workspace``
_every_workspace: weakref.WeakSet = weakref.WeakSet()


def _workspace() -> _Workspace:
    """The calling thread's workspace, made on its first use."""
    ws = getattr(_lanes, "ws", None)
    if ws is None:
        ws = _lanes.ws = _Workspace()
        _every_workspace.add(ws)
    return ws


def _drop_workspaces() -> None:
    """Lets go of every lane's workspace arrays, so the next term reserves
    them again. The block and mesh builders call it before they build, so
    that a build reuses that memory rather than adding to it; a view that a
    unit still holds keeps its own array alive."""
    for ws in list(_every_workspace):
        ws.arrays.clear()


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

    def apply(self, x: np.ndarray, out: np.ndarray, lo: int = 0, hi: int | None = None,
              scratch: np.ndarray | None = None) -> np.ndarray:
        """B x at the sites of the axis-0 planes lo <= l_0 < hi (default:
        every plane) written into ``out``, a C-contiguous ((hi - lo) N_1 N_2,
        3) array, one slab of at most ``slab_planes`` planes at a time: each
        slab takes every term, in term order, before the next slab starts.
        Every row gets the adds of a term-by-term sweep of the whole array,
        in the same order, so the bits do not depend on the plane range or
        the slab size, and the slab stays in cache across the terms.
        ``scratch``, a flat array of at least ``scratch_size`` floats, holds
        the whole-array shifts; None allocates it when needed."""
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
                        shifted = np.empty_like(v) if scratch is None else scratch[: v.size].reshape(v.shape)
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
    def scratch_size(self) -> int:
        """Floats of scratch an apply may use: one shifted copy of x where
        the lattice is one slab, else none."""
        return 3 * self.rows if self.slab_planes >= self.N[0] else 0

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
    """Sparse gather: element e's local values ``G @ x`` times the
    coefficient block ``coef``, one row per (element, quadrature point),
    the row belonging to the lattice site ``sites[e]``; the transpose
    applies both maps in reverse, ``G`` being its transpose.

    The elements come in blocks of ``block``, node-major within a block:
    row (b, j, i) of ``G`` is local node j of element b block + i, so one
    product of ``coef`` with each block's (nloc, 3 block) values forms its
    (nq, 3 block) rows, quadrature point-major: row (b, q, i) is element
    b block + i at point q. Rows of ``G`` past the last element pad the
    last block and are empty, so their rows are 0.0 and take nothing back
    in the transpose. With ``coef`` the block ``_ONE`` (and ``block`` 1) a
    row is its gathered value, so both directions apply ``G`` alone: the
    1x1 products would only copy."""

    G: sparse.csr_array     # (E' nloc, n_cols) element-local values, E' = E padded to whole blocks
    coef: np.ndarray        # (nq, nloc)
    sites: np.ndarray       # (E,) flat lattice site per element
    N: IntTriple
    block: int = 1
    transposed: bool = False

    def __matmul__(self, x):
        return self.apply(x, np.empty((self.rows, 3)))

    def apply(self, x, out, scratch=None):
        """The gather of x, or its transpose, written into ``out``, a
        C-contiguous (rows, 3) array, one product per block of elements
        straight from and into the rows of the CSR map. ``scratch``, a flat
        array of at least ``scratch_size`` floats, holds the element-local
        values; None allocates them."""
        if self.coef is _ONE:
            return _spmv(self.G, x, out)
        nq, nloc = self.coef.shape
        local, width = self.G.shape[self.transposed], 3 * self.block
        u = np.empty((local, 3)) if scratch is None else scratch[: 3 * local].reshape(local, 3)
        if self.transposed:
            np.matmul(self.coef.T, x.reshape(-1, nq, width), out=u.reshape(-1, nloc, width))
            return _spmv(self.G, u, out)
        np.matmul(self.coef, _spmv(self.G, x, u).reshape(-1, nloc, width), out=out.reshape(-1, nq, width))
        return out

    @property
    def rows(self) -> int:
        return self.G.shape[0] if self.transposed else self.G.shape[0] // self.coef.shape[1] * self.coef.shape[0]

    @property
    def scratch_size(self) -> int:
        """Floats of scratch an apply uses: the element-local values, unless
        ``coef`` is ``_ONE``."""
        return 0 if self.coef is _ONE else 3 * self.G.shape[self.transposed]

    @cached_property
    def T(self) -> "_Gather":
        return replace(self, G=self.G.T, transposed=not self.transposed)

    def site(self, row: int) -> IntTriple:
        """The site of row ``row``'s element; a padding row names the last
        element."""
        nq, b = self.coef.shape[0], self.block
        e = min(row // (nq * b) * b + row % b, self.sites.size - 1)
        return tuple(int(i) for i in np.unravel_index(int(self.sites[e]), self.N))


def _spmv(A, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """A @ x for a CSR or CSC matrix A and an (n, 3) x, written into
    ``out``, a C-contiguous array of A.shape[0] rows, and returned:
    scipy's own product routine (the one ``A @ x`` calls, so the same bits),
    without the result array it would allocate."""
    if not out.flags.c_contiguous:
        raise ValueError("the output of a sparse product must be C-contiguous")
    out[...] = 0.0
    getattr(_sparsetools, A.format + "_matvecs")(*A.shape, 3, A.indptr, A.indices, A.data,
                                                  np.ascontiguousarray(x).ravel(), out.ravel())
    return out


def _stencil(N, terms) -> _Stencil:
    """Stencil with equal offsets merged and zero coefficients dropped."""
    merged: dict[IntTriple, float] = {}
    for s, c in terms:
        merged[s] = merged.get(s, 0.0) + c
    return _Stencil(tuple(N), tuple((s, c) for s, c in merged.items() if c != 0.0))


# The stencils of a direction on a lattice, kept per (eta, N) for the
# process, like the coupling blocks, with the transposes they build.
@lru_cache(maxsize=64)
def _bond_stencil(eta: IntTriple, N: IntTriple) -> _Stencil:
    """Exact bond: (B v)_l = v_{l+eta} - v_l."""
    return _stencil(N, [(tuple(eta), 1.0), ((0, 0, 0), -1.0)])


@lru_cache(maxsize=64)
def _staircase_stencils(eta: IntTriple, N: IntTriple) -> tuple[_Stencil, ...]:
    """Per staircase template (``PATH_PERMS`` order): the discrete gradient
    of the cell tet times eta, from the tet's own axis edges."""
    out = []
    for perm in PATH_PERMS:
        terms = []
        for a, s in sorted(path_edge_offsets(perm).items()):
            up = tuple(s[k] + (k == a) for k in range(3))
            terms += [(up, float(eta[a])), (s, -float(eta[a]))]
        out.append(_stencil(N, terms))
    return tuple(out)


@lru_cache(maxsize=64)
def _cell_stencil(eta: IntTriple, N: IntTriple) -> _Stencil:
    """Cell-averaged gradient times eta: each column averages the four edge
    quotients of the cell parallel to its axis."""
    return _stencil(N, [
        (c, sum(0.25 * eta[a] * (1.0 if c[a] else -1.0) for a in range(3)))
        for c in product((0, 1), repeat=3)
    ])


def _lattice_batches(model: str, R: InteractionSet, N: IntTriple) -> list:
    """The (op, w, law, key) batches of the one term of the atomistic,
    acb-tetra or acb-cell model, keyed by direction: per law the exact bond,
    the six staircase templates at weight 1/6, or the cell-averaged bond."""
    if model == "acb-tetra":
        return [(op, 1.0 / 6.0, law, f"eta={law.eta}") for law in R for op in _staircase_stencils(law.eta, N)]
    stencil = _bond_stencil if model == "atomistic" else _cell_stencil
    return [(stencil(law.eta, N), 1.0, law, f"eta={law.eta}") for law in R]


def _hessian_symbol(batches, F: np.ndarray, N: IntTriple, eps: float) -> np.ndarray:
    """The Fourier symbol of the Hessian at y_F of a model that sums
    eps^3 w phi_eta(F eta + (B v)_l / eps) over the rows l of stencil
    batches (op, w, law, ...): on a plane wave v_l = e^{i theta . l} u the
    Hessian (of the gradient as a Riesz representer) is H(theta) u, with
    H(theta) = sum w |b(theta)|^2 phi''_eta(F eta) / eps^2 and
    b(theta) = sum_k c_k e^{i theta . s_k} the symbol of ``op.terms``.
    Returned at theta = 2 pi k / N for the wavevectors k of numpy's
    ``rfftn`` grid, as an (N_0, N_1, N_2 // 2 + 1, 3, 3) array of real
    symmetric blocks; H(-theta) = H(theta) gives the other half. Every step
    is elementwise and in batch and term order: a phase is the product of
    three entries of per-axis tables of e^{2 pi i m / N_a}, and F eta is
    summed by columns, so no BLAS call is made here."""
    grid = (N[0], N[1], N[2] // 2 + 1)
    roots = [np.exp(2j * np.pi * np.arange(n) / n) for n in N]
    shapes = [(-1, 1, 1), (1, -1, 1), (1, 1, -1)]
    H = np.zeros(grid + (3, 3))
    for op, w, law, *_ in batches:
        b = np.zeros(grid, dtype=complex)
        for s, c in op.terms:
            b += c * math.prod(roots[a][np.arange(grid[a]) * s[a] % N[a]].reshape(shapes[a]) for a in range(3))
        zeta = F[:, 0] * law.eta[0] + F[:, 1] * law.eta[1] + F[:, 2] * law.eta[2]
        H += (w / eps**2 * (b.real**2 + b.imag**2))[..., None, None] * law.hessians(zeta)
    return H


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
    (op, w, law, breakdown key) tuples, as the units of ``_groups``. On two
    lanes the term's pieces are streamed (``_stream``) when one of its
    batches has at least _MIN_LANE_ROWS rows and it has two pieces or more;
    otherwise the caller computes and adds one unit at a time. Every sum and
    every array in ``g_outs`` adds the batches' results in batch order, as
    on one lane and ungrouped, so the result is bitwise the same on one lane
    or two, grouped or not. With no ``g_outs`` the batches are energy-only."""
    t0 = time.perf_counter()
    out = _Term(name)
    units = [_Unit(pairs, law, key, F @ law.eta_vec, x, eps, bool(g_outs)) for pairs, law, key in _groups(batches)]
    if _LANES > 1 and max(op.rows for op, *_ in batches) >= _MIN_LANE_ROWS and sum(len(u.pieces) for u in units) > 1:
        _stream(_helper(), units, lambda key, results: out.add(key, results, g_outs))
        out.lanes = 2
    else:
        ws = _workspace()
        ws.reserve(units, 1)
        for u in units:
            out.add(u.key, u.alone(ws), g_outs)
    out.seconds = time.perf_counter() - t0
    return out


def _stream(helper, units, add) -> None:
    """Runs the pieces of ``units`` on both lanes and adds the units'
    results in unit order. The caller reserves _LANES unit slots of its
    workspace, and each lane its arena and contribution array, for the
    units (``_Workspace.reserve``). Each lane pulls the next (unit, piece)
    from one shared cursor, in unit-then-piece order, as soon as it has
    finished one; pulling a unit's first piece starts the unit (``start``)
    in a unit slot of the caller's workspace that it takes off a free list,
    under the pull lock. The lane runs the piece in its arena, and the lane
    that completes a unit's last piece runs its finish, into its
    contribution array, parks the results in the unit's entry of the
    stream, and puts the unit slot back on the free list; if its
    contribution array still holds a unit not yet added, it first waits for
    that add, so each lane parks at most one unit. Then, if it takes the
    commit lock without waiting, it adds every ready result in unit order,
    ``add(key, results)``, from the first unit not yet added. Once a piece
    or a finish raises, no lane pulls another and no lane waits for an add,
    but the earlier units, whose pieces were all pulled already, finish.
    The helper lane returns only once its parked unit is added, or a unit
    raised: its thread may run another caller's stream next, into the same
    contribution array. When both lanes are done the caller adds what is
    left and re-runs the first failing unit on one lane (``alone``), which
    raises its one-lane error, so every add and every error is that of one
    lane."""
    n = len(units)
    items = iter([(i, k) for i, u in enumerate(units) for k in range(len(u.pieces))])
    left = [len(u.pieces) for u in units]  # pieces not yet run, per unit
    slots: list = [None] * n      # a finished unit's results, until added
    errors: dict = {}             # unit index -> the error it raised
    free = list(range(_LANES))    # the caller's unit slots that no started, unfinished unit has
    taken = [0] * n               # the unit slot of each started unit
    pull, commit = threading.Lock(), threading.Lock()
    added = threading.Condition()  # notified when units are added and when one raises
    head = 0                      # the first unit not yet added

    def ready() -> bool:
        h = head  # read once: the lane holding the commit lock may advance it
        return h < n and slots[h] is not None

    def drain() -> None:
        nonlocal head
        while ready():
            add(units[head].key, slots[head])
            slots[head] = None
            head += 1
        with added:
            added.notify_all()

    def stop(i, exc) -> None:
        errors[i] = exc
        with added:
            added.notify_all()

    def lane() -> None:
        ws = _workspace()
        ws.reserve(units, 0)
        parked = -1  # the unit whose contributions this lane's contribution array holds
        while not errors:
            with pull:
                i, k = next(items, (n, 0))
                if i == n:
                    break
                if k == 0:
                    taken[i] = free.pop()
                    units[i].start(own.array(("unit", taken[i]), units[i].slot_size))
            try:
                units[i].run(k, ws)
                with pull:
                    left[i] -= 1
                    last = not left[i]
                if last:
                    with added:
                        added.wait_for(lambda: head > parked or errors)
                    if head <= parked:  # an earlier unit raised, so this one is never added
                        return
                    slots[i] = units[i].finish(ws)
                    free.append(taken[i])
                    if units[i].contrib_size:
                        parked = i
            except Exception as exc:  # the caller raises the first failing unit's one-lane error
                stop(i, exc)
            while ready() and commit.acquire(blocking=False):
                try:
                    drain()
                finally:
                    commit.release()
        if ws is not own:  # the helper's next stream may be another caller's
            with added:
                added.wait_for(lambda: head > parked or errors)

    def guarded() -> None:
        try:
            lane()
        except BaseException as exc:  # the other lane must not wait for this one
            stop(n, exc)
            raise

    own = _workspace()  # the caller's: its unit slots serve both lanes
    own.reserve(units, _LANES)
    ahead = helper.submit(guarded)
    try:
        guarded()
    finally:
        ahead.exception()  # waits, so no helper work outlives the call
        drain()
    ahead.result()
    if errors:
        i = min(errors)
        units[i].copied(own)  # raises the unit's one-lane error
        raise errors[i]


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
    return _lattice_model(y, "atomistic", {"atomistic": _lattice_batches("atomistic", R, y.cfg.N)}, gradient)


def acb_tetra_energy(y: Deformation, R: InteractionSet, *, gradient: bool = True) -> EnergyReport:
    """Cauchy-Born energy on the staircase tetrahedra: (eps^3/6) per cell tet
    of W(grad), with the discrete gradient taken from the tet's own axis
    edges. ``gradient=False`` as in ``atomistic_energy``."""
    return _lattice_model(y, "acb-tetra", {"acb-tetra": _lattice_batches("acb-tetra", R, y.cfg.N)}, gradient)


def acb_cell_energy(y: Deformation, R: InteractionSet, *, gradient: bool = True) -> EnergyReport:
    """Cauchy-Born energy on cells: eps^3 per cell of W evaluated at the
    averaged discrete gradient (each column averages four edge quotients).
    ``gradient=False`` as in ``atomistic_energy``."""
    return _lattice_model(y, "acb-cell", {"acb-cell": _lattice_batches("acb-cell", R, y.cfg.N)}, gradient)

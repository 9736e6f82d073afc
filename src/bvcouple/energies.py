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
from the lone bond F eta; a law's bits do not depend on a call's row count
(``potentials``), so every row has the bits of one call, and phi(F eta)
those of the row F eta in any batch. Per batch, the kernel sums
eps^3 sum_q w_q (phi(zeta_q) - phi(F eta)), the batch's excess over the
homogeneous bond, and adds the batch's homogeneous share
eps^3 phi(F eta) sum_q w_q back into the term's energy. Reports
carry the summed excess too (``EnergyReport.excess``): it is exactly 0.0
at y_F, and its differences keep the digits that the constant |Omega|
W(F) in the energy would swallow. A non-finite phi or phi' is a domain
error, like a radial bond below its minimum length (see Domain errors
below); ``_site_error`` builds every domain error that names the
offending bond's site and eta, here and in the interface jump of
``coupling``. B is one of
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
  shift wraps on any axis, applied to a whole array of one slab, copies
  its two, four or eight blocks (``_shift_blocks``) into one scratch array
  and adds that contiguously, where a strided in-place block add would
  make numpy allocate iterator buffers; larger arrays add the blocks slab
  by slab. A coefficient c other than 1 and -1 is added as c x formed in
  the scratch, never in a temporary. Every sum over a stencil's terms
  starts from a zero fill, so its first two terms commute bit for bit
  ((0 + a) + b is (0 + b) + a, -0.0 included); ``_stencil`` puts them in
  offset order, and equal staircase templates are then one stencil
  object (``_staircase_stencils``). The staircase templates and the cell bond
  all read x at the corners of a cell (Bey, Numer. Math. 85, 2000), so a
  small term, whose batches all have fewer than ``_MIN_LANE_ROWS`` rows
  and which runs on the caller's lane, keeps one store of shifted copies
  of x for the call (``_shifts``), formed before the term's first unit:
  one per nonzero offset that two or more of the stencils its units apply
  read (a repeated batch applies nothing), copied from x's blocks by
  ``_shifted``, as the scratch copy is, and added contiguously by every
  apply that reads it; other offsets, and every transposed apply, add
  their blocks as above. Either way every row gets the same adds in the
  same order, zero-filled first, so the bits do not depend on the plane
  range, the slab size or the store. Stencils stay matrix-free: as CSR
  the cell bond at N=128 would hold 16.8M nonzeros;
- a sparse gather ``_Gather`` for the irregular terms: a cached CSR map to
  element-local values, then a dense (nq, nloc) coefficient block shared
  by every element. The map is a ``_Csr`` record of scipy's arrays; its
  row gather and products (``_spmv``) are scipy's compiled routines, the
  ``_sparsetools`` extension loaded by its file path
  (``_load_sparsetools``) without the ``scipy.sparse`` package around it,
  so their bits are those of ``scipy.sparse``. The atomistic bonds and
  interface cones of ``coupling`` are elements with one local value and
  coefficient ``_ONE`` = [[1.0]], which apply their CSR map alone, in both
  directions: the 1x1 products would only copy. The Pk elements of
  ``highorder`` gather their local nodes and apply the shape-function
  gradients times eta at each quadrature point. Their CSR rows come in
  blocks of elements (``highorder._PK_BLOCK``), node-major within a block,
  so each direction is one small matrix product per block, read from and
  written to the gather's rows in place, with no transposing copy; the
  rows of one block are point-major, (point, element). Padding elements
  fill the last block: their CSR rows are empty, so their bonds are
  exactly F eta, and they add exactly 0.0 to the excess and nothing to a
  gradient.

Pieces (``_pieces``): a piece is the run of rows that one law evaluation
covers. A lone stencil batch of more than ``_SLAB_ROWS`` rows runs through
the law one slab of whole axis-0 planes at a time; every group of small
batches, every gather and every batch of at most one slab is one piece.
Per piece, the kernel applies the stencil to the piece's planes alone, into
the zeta rows of the lane's arena, divides by eps, adds F eta, sets the
piece's own zero-weight rows to F eta and evaluates the law, which writes
phi into the lane's arena and phi' into the piece's rows of the unit's
full-length phi' array. The piece reduces its phi at once: it writes
w (phi - phi(F eta)) over it, skipping the product for the scalar weight
1.0 (x 1.0 is x), and sums it plane by plane. A pair's planes are fixed by
the lattice: a stencil pair has one per axis-0 lattice plane, N_1 N_2
consecutive rows, and a gather pair is one plane. Pieces are whole planes,
so each plane is one ``np.add.reduce`` in one piece, written into the
pair's slot for it, whatever the slabs, pieces or lanes. The finish takes
the pair's excess as eps^3 ``math.fsum`` of its plane sums (``_excess``),
correctly rounded, so it depends on the plane sums alone, not on the
order in which they were formed (Demmel & Nguyen, ARITH 21, 2013, on
reproducible summation); a gather pair's excess is eps^3 its one
``np.add.reduce``. phi(F eta), which every piece
subtracts, is taken when the unit's first piece runs, before any piece
reduces, from ``_homogeneous_phi``: the law on the lone bond F eta,
evaluated once per law and F eta and kept among the last few. The
finiteness check of phi', the weight scaling and op^T run on the full
phi' array, as for a batch of one piece, so the bits are those of one
piece. An energy-only unit keeps no array of its rows at all.

Inputs: the kernel reads the displacement as a flat (n_sites, 3) field x,
or, for stencil batches alone, as three per-axis lines, a tuple whose
line c holds component c of the displacement at the sites l with that
l_c (the consistency sweep's displacement, one profile per axis).
Component c of a stencil's bond row then depends on l_c alone, so a unit
given lines forms, when it is built and before any piece runs (two lanes
never form them at once), each of its stencils' three bond lines
(``_bond_lines``): the terms' adds in term order on that axis's offsets,
divided by eps and shifted by (F eta)_c, the adds of ``apply`` and
``_bond_rows`` on every row. ``_bond_rows`` picks the fill from the type
of what it is given, in one branch: a piece's zeta rows are filled by
broadcasting the bond lines, and its zero-weight rows still get F eta,
so every bit is that of the field the lines make, with no array of its
size built. Lines are read energy-only, and a gather given lines raises.

Masks are zero weights; a zero-weight row is evaluated at the homogeneous
bond F eta, so a bond a mask drops can neither raise nor contribute. A
batch's weights are a scalar or a ``_Weights``: the weights with their
zero rows and their sum, which cached blocks, partitions and meshes build
once. The Pk rows share one weight per quadrature point: a (nq, block)
tile that the kernel broadcasts over a gather's (blocks, nq, block) rows
(``_blocks``), padding rows included, whose sum counts the real rows
alone. Every sum runs inside the kernel's ``np.errstate``, so an overflow
warns nowhere.

Every model takes a keyword ``gradient`` (default True). With
``gradient=False`` its terms get no gradient arrays, and each batch is
energy-only: the law is evaluated at order 0, and phi' (with its
finiteness check), the weight scaling and the transposed apply op^T are
skipped. phi is the same bits at every order, so energy, excess and
breakdown are those of the full call, and a non-finite phi raises the same
error; a phi' that would not be finite goes unnoticed, since it is never
computed. The report's gradient is then None, and its diagnostics carry no
gradient block. The finite-difference probes, which read only energies,
call the models this way, and the consistency sweep runs the atomistic
and Cauchy-Born terms this way on per-axis lines (see Inputs).

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

A term's batches run as units (``_groups``). A batch that repeats the
batch just before it, with the same operator, weights and law objects and
an equal key (``_repeats``), is evaluated once: it is a count of
that batch's (op, w) pair, and the unit returns the pair's energy, excess
and gradient contribution once per batch, which ``_term`` adds in batch
order, so every sum gets the adds it would get from the batches one by
one. The six staircase templates of eta = (1, 1, 1) are one stencil, so
acb-tetra (one scalar object for all six templates), the naive control
and the coupled and two-sided continua (one weights object) evaluate them
once; the P1 layer
of the high-order model has weights per template, and repeats nothing.
Reports count these batches per term (``repeats``). Equal batches that
are not adjacent stay apart: merging them would reorder the sums. Of the
other batches, consecutive ones that share the law and the breakdown key,
each with fewer than ``_MIN_LANE_ROWS`` rows, form one group: every operator writes its rows into one zeta buffer, and
the law is evaluated once; then, batch by batch, the kernel forms the
batch's own excess sum, homogeneous share, finiteness
check, weight scaling and transposed apply. The law acts row by row, so
each batch's results are the bits of the batch alone. Any other batch is a
unit of its own. Up to N=20 this groups each law's distinct staircase
templates (acb-tetra, the continuum of the coupled, two-sided and naive
models, the P1 layer of the high-order model). Every report counts its
terms' law evaluations (``law_calls``): one per unit, whatever its pieces and chunks
(besides the lone-bond calls of ``_homogeneous_phi``).

Each unit is a ``_Unit``: ``start`` gives it a unit slot for its
full-length phi', ``run`` evaluates and reduces one piece, and ``finish``
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

Domain errors: one path names them all, ``_Unit._raise_pair_error``, which
evaluates one (op, w) pair again, whole, at the unit's order (the law's
bits do not depend on the rows) and raises the first error that applies:
a law call that raises, phi(F eta)'s included, names the pair's shortest
bond; else the first row whose phi or phi' is not finite; else, if the
pair's excess overflowed, its row of largest |w (phi - phi(F eta))|. An
excess whose plane sums overflow, or add inf and -inf, is inf
(``_excess``), in the finish and in this path alike. A finish calls it
for each pair whose excess or phi' sum (one sum over phi') is not
finite, and a unit whose law call raises calls it for each pair in
order, so a group raises its first failing pair's error, as if
ungrouped. Every error is the one-lane error: a stream raises the error
of its first failing unit in unit order, whichever lane hit it and
whenever.
Once a piece or a finish raises, no lane pulls another, but every earlier
unit, whose pieces were all pulled already, finishes, as on one lane; the
caller then re-runs the first failing unit on one lane (``alone``), which
raises its one-lane error.

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

- the arena, which holds a piece's zeta and phi rows (the term's largest
  piece) and the scratch of the stencil or gather apply (one shifted copy
  of x where the lattice is one slab, a gather's element-local values),
  then the law's temporaries (SCRATCH_PER_ROW floats per row of a law
  chunk, ``_evaluate``), or during a finish the weights over eps and the
  transposed apply's scratch (one shifted copy of its input where the
  lattice is one slab); so a finish takes no more than the pieces of
  its lane, and no law evaluation allocates an array of its rows. Only its
  own thread writes it, one piece or finish at a time, and nothing outlives
  either: a piece's phi is reduced before the piece ends, into one float
  per plane, which the unit keeps until its finish;
- the store of shifted copies of x of a small term of stencils
  (``_shifts``): one array the size of x per offset that two or more of
  the stencils its units apply read, in the workspace of the calling lane,
  which alone runs such a term. Only the
  staircase and cell stencils share offsets, the nonzero corners of a
  cell, since the exact bonds of a term have distinct directions; so a
  store holds at most 7 copies of an x of fewer than _MIN_LANE_ROWS rows
  (1.4 MB). A store serves one term of one call and is formed at once,
  before the term's first unit: the next call's store copies its shifts
  again;
- the unit slots, phi' of a unit from its start to its finish, which the
  law writes into, chunk by chunk; an energy-only unit's slot is empty, so
  no array of a term's rows outlives a piece. They belong to the workspace
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
  finished last, one array the size of x per pair of the unit (a repeated
  batch reads its pair's), read until the unit's results are added. A
  lane remembers which unit parked its contributions there, and if that
  unit is not yet added, because an earlier unit is still running on the
  other lane, it waits for that add
  before it finishes another unit: so at most one unit's results per lane
  wait to be added, and no workspace grows with the order in which the
  lanes happen to finish. The helper thread serves every caller's streams,
  so its lane returns only once its parked unit is added.

An energy-only call fills no unit slot and parks no contributions. A term
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

import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
import time
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache, reduce
from itertools import accumulate, product
from operator import add
from typing import Any

import numpy as np

from .geometry import PATH_PERMS, path_edge_offsets
from .lattice import Deformation, IntTriple, LatticeField
from .potentials import SCRATCH_PER_ROW, InteractionLaw, InteractionSet, PotentialDomainError


def _load_sparsetools():
    """scipy's compiled sparse routines, the ``_sparsetools`` extension of
    ``scipy.sparse``, loaded by its file path: importing the ``scipy.sparse``
    package around it would cost most of a cold command. The module is
    registered under its own name, so a later ``import scipy.sparse`` reuses
    it, and one that an earlier ``import scipy.sparse`` loaded is used here.
    The ``scipy`` package is found, not imported: its file path is all that
    is read of it."""
    name = "scipy.sparse._sparsetools"
    if name not in sys.modules:
        path = os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0], "sparse",
                            "_sparsetools" + importlib.machinery.EXTENSION_SUFFIXES[0])
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


_sparsetools = _load_sparsetools()


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
    and breakdown key, taken through the law in pieces (``_pieces``), with
    ``counts``, the batches each pair stands for (default one each).

    ``start(out)`` gives the unit its unit slot ``out``, ``slot_size``
    floats, for phi' of every row (none for an energy-only unit).
    ``run(k, ws)`` forms piece k's bond rows in the arena of the running
    lane's workspace ``ws``; the law writes phi into the arena and phi'
    into the piece's rows of the slot (``_evaluate``). The piece then
    writes w (phi - phi(F eta)) over its phi and sums each pair's rows
    plane by plane into ``plane_sums``, the pair's one float per plane (per
    axis-0 lattice plane of a stencil, one for a gather).
    phi(F eta) is taken before the first piece reduces, from the lone bond
    F eta (``_homogeneous_phi``), whose bits are those of that row in any
    batch (``potentials``), so the excess is exactly 0.0 wherever
    zeta = F eta.
    Pieces write disjoint rows and plane sums, so they may run in any
    order, on either lane.
    ``finish(ws)``, once every piece has run, takes each pair's excess as
    eps^3 ``math.fsum`` of its plane sums (``_excess``), which depends on
    the plane sums alone, forms its gradient from phi' with its
    temporaries in the finishing lane's arena and the gradient
    contributions in that lane's contribution array, and is
    the unit's last read of its slot. The unit holds no workspace array of
    its own: the order in which ``_term`` and ``_stream`` run units says
    which slot a unit may write and how long its contributions stay (module
    docstring, Memory). Its stencils read ``shifts``, the store of a small
    term that ``_term`` makes for the call (``_shifts``), if given. The law acts row by row, so the bits do not depend
    on the pieces or the lanes, and each pair's results are the bits of a
    group of that pair alone. ``w`` is a scalar or a ``_Weights`` with one
    weight per row, or a 2-D tile of one weight per row of each
    (w.size)-row block; its zero-weight rows are evaluated at F eta.

    Without ``gradient`` the unit is energy-only: the law is evaluated at
    order 0, and every gradient contribution is None. The energy and excess
    are the same bits, since phi does not depend on the order asked for;
    phi' is not computed, so only phi is checked for finiteness."""

    def __init__(self, pairs, law: InteractionLaw, key, base, x, eps, gradient: bool, shifts=None, counts=None):
        if isinstance(x, tuple):  # per-axis lines: each stencil's bond lines, before any piece runs
            if gradient:
                raise ValueError("per-axis displacement lines are read energy-only")
            x = {op: _bond_lines(op, x, eps, base) for op, _ in pairs}
        self.pairs, self.law, self.key, self.base, self.x, self.eps = pairs, law, key, base, x, eps
        self.shifts = shifts
        self.counts = counts or [1] * len(pairs)  # batches per pair (``_groups``)
        self.order = 1 if gradient else 0
        self.ends = list(accumulate(op.rows for op, _ in pairs))
        self.starts = [0, *self.ends[:-1]]
        self.n = self.ends[-1]
        self.pieces = _pieces(pairs, self.n)
        self.zeta_rows = max(hi - lo for lo, hi, _ in self.pieces)
        # Workspace floats: a unit slot, phi' of every row; the arena, a
        # piece's zeta and phi or the finish's weights over eps, then from
        # ``split`` on an apply's scratch or the law's; the contributions.
        self.slot_size = 3 * self.n * self.order
        self.split, scratch = 4 * self.zeta_rows, SCRATCH_PER_ROW * min(self.zeta_rows, _LAW_CHUNK)
        for op, w in pairs:
            scratch = max(scratch, op.scratch_size)
            if gradient and isinstance(w, _Weights):
                self.split = max(self.split, w.w.size)
        self.scratch_size = self.split + scratch
        self.contrib_size = len(pairs) * x.size if gradient else 0
        self.phi0 = None  # phi(F eta), from a piece's first run on
        self.dphi = None  # phi' (the unit slot), from ``start`` to ``finish``
        # per pair, the sums of its planes: a stencil's axis-0 lattice planes, a gather's one
        self.plane_sums = [np.empty(op.N[0] if isinstance(op, _Stencil) else 1) for op, _ in pairs]

    def start(self, out: np.ndarray) -> None:
        self.dphi = out.reshape(-1, 3) if self.order else None

    def run(self, k: int, ws: "_Workspace") -> None:
        """Piece k: its zeta and phi in the arena, phi' into the unit slot,
        and w (phi - phi(F eta)) of each pair's rows in the piece summed
        plane by plane, one ``np.add.reduce`` per plane, into the pair's
        slots of the planes the piece covers."""
        lo, hi, planes = self.pieces[k]
        m, zr = hi - lo, self.zeta_rows
        arena = ws.array("arena", self.scratch_size)
        z = _bond_rows(self.pairs, self.starts, self.x, self.eps, self.base, lo, hi, planes,
                       arena[: 3 * m].reshape(m, 3), arena[self.split:], self.shifts)
        phi = arena[3 * zr: 3 * zr + m]
        with np.errstate(over="ignore", invalid="ignore"):
            if self.phi0 is None:
                self.phi0 = _homogeneous_phi(self.law, self.base)
            _evaluate(self.law, z, self.order, [phi] if self.dphi is None else [phi, self.dphi[lo:hi]],
                      arena[self.split:])
            for (_, w), sums, s, e in zip(self.pairs, self.plane_sums, self.starts, self.ends):
                a, b = max(lo, s), min(hi, e)  # a group is one piece, and a piece of several has one pair
                p, q = planes or (0, len(sums))
                d = _excess_rows(phi[a - lo:b - lo], self.phi0, w, a - s, b - s)
                np.add.reduce(d.reshape(q - p, -1), axis=1, out=sums[p:q])

    def finish(self, ws: "_Workspace") -> list:
        """Each pair's (energy, excess, gradient contribution), once per
        batch of its count: the excess from the pair's plane sums
        (``_excess``), the gradient from phi' in the unit slot; a
        non-finite phi or phi' raises the error of the first pair that has
        one."""
        P, self.dphi = self.dphi, None
        phi0, eps, results = self.phi0, self.eps, []
        arena = ws.array("arena", self.scratch_size)
        scratch = arena[self.split:]
        if P is not None:
            contribs = ws.array("contrib", self.contrib_size).reshape(len(self.pairs), *self.x.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            # One sum finds a non-finite phi'; the row mask, built only then,
            # tells it apart from a sum of finite entries that overflowed.
            sums = [(_excess(plane_sums.tolist(), eps), P is None or math.isfinite(P[lo:hi].sum()))
                    for plane_sums, lo, hi in zip(self.plane_sums, self.starts, self.ends)]
        for j, ((op, w), lo, hi, (excess, finite)) in enumerate(zip(self.pairs, self.starts, self.ends, sums)):
            p = None if P is None else P[lo:hi]
            weights, total = (w.w, w.total) if isinstance(w, _Weights) else (w, w * op.rows)
            if not (finite and math.isfinite(excess)):
                self._raise_pair_error(j)
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
        return [r for r, count in zip(results, self.counts) for _ in range(count)]

    def _raise_pair_error(self, j: int) -> None:
        """Raises the domain error of pair j, (op, w), if it has one. The
        pair is evaluated again, whole, at the unit's order (the law's bits
        do not depend on the rows): a law call that raises, phi(F eta)'s
        included, names the pair's shortest bond; else the error names its
        first row whose phi or phi' is not finite; else, if its excess
        (``_excess``) overflowed, its row of largest |w (phi - phi(F eta))|.
        A phi' sum that overflowed on finite rows raises nothing."""
        op, w = self.pairs[j]
        z = _bond_rows([(op, w)], [0], self.x, self.eps, self.base, 0, op.rows, None, np.empty((op.rows, 3)))
        out = [np.empty(op.rows), np.empty((op.rows, 3))][: self.order + 1]
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                phi0 = _homogeneous_phi(self.law, self.base)
                _evaluate(self.law, z, self.order, out)
            except PotentialDomainError as exc:
                raise _site_error(exc, op.site(int(np.argmin(np.linalg.norm(z, axis=-1)))), self.law.eta) from exc
            bad = ~np.isfinite(np.column_stack(out)).all(axis=-1)
            if bad.any():
                row = int(np.argmax(bad))
            else:
                d = _excess_rows(out[0], phi0, w, 0, op.rows)
                sums = np.add.reduce(d.reshape(len(self.plane_sums[j]), -1), axis=1)
                if math.isfinite(_excess(sums.tolist(), self.eps)):  # the excess, as ``finish`` forms it
                    return
                row = int(np.argmax(np.abs(d)))
        raise _site_error(f"{self.law.kind} energy or force is not finite", op.site(row), self.law.eta)

    def alone(self, ws: "_Workspace") -> list:
        """The unit on the calling lane, with its workspace ``ws`` and unit
        slot 0 of it: its pieces in order, then its finish. A law call that
        raises gives the unit's one-lane error, the error of its first pair
        that has one (``_raise_pair_error``)."""
        self.start(ws.array(("unit", 0), self.slot_size))
        try:
            for k in range(len(self.pieces)):
                self.run(k, ws)
        except PotentialDomainError:
            for j in range(len(self.pairs)):
                self._raise_pair_error(j)
            raise
        return self.finish(ws)


# phi(F eta) per (law, F eta) asked for lately, each with its law, which
# keeps the law's id its own. A lone-bond call costs some 10 to 25 us, a
# few percent of a warm N=12 coupled call's nine units, and a solve, a
# sweep or a gradient check asks for the same F eta call after call.
# Emptied when it holds _HOMOGENEOUS_KEPT.
_homogeneous: dict = {}
_HOMOGENEOUS_KEPT = 64


def _homogeneous_phi(law: InteractionLaw, base: np.ndarray) -> float:
    """phi(F eta) at ``base`` = F eta: the law on the lone bond, whose bits
    are those of the row F eta in any batch (``potentials``), evaluated
    once while the pair (law, F eta) stays in ``_homogeneous``."""
    key = (id(law), base.tobytes())
    hit = _homogeneous.get(key)
    if hit is None:
        if len(_homogeneous) >= _HOMOGENEOUS_KEPT:
            _homogeneous.clear()
        hit = _homogeneous[key] = (law, float(law.evaluate(base, 0)[0]))
    return hit[1]


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


def _excess_rows(phi, phi0: float, w, a: int, b: int) -> np.ndarray:
    """w (phi - phi0), written over ``phi``, the rows a..b of a pair whose
    weights are ``w`` (a scalar or a ``_Weights``; a 2-D tile only over
    every row): the terms of its excess sum. The scalar weight 1.0
    multiplies nothing, since x 1.0 is x."""
    if isinstance(w, _Weights):
        d = _blocks(phi, w.w)
        np.subtract(d, phi0, out=d)
        np.multiply(d, w.w[a:b] if w.w.ndim == 1 else w.w, out=d)
    else:
        np.subtract(phi, phi0, out=phi)
        if w != 1.0:
            np.multiply(phi, w, out=phi)
    return phi


def _excess(plane_sums, eps: float) -> float:
    """A pair's excess from the sums of its planes: eps^3 times their
    correctly rounded sum (``math.fsum``), which is fixed by the planes
    alone, whatever pieces or lanes formed them (Demmel & Nguyen, ARITH 21,
    2013, on reproducible sums). A sum that overflows, or adds inf and -inf,
    is inf, which ``finish`` names as a domain error."""
    try:
        return eps**3 * math.fsum(plane_sums)
    except (OverflowError, ValueError):
        return math.inf


def _bond_rows(pairs, starts, x, eps, base, lo, hi, planes, z, scratch=None, shifts=None):
    """The group's bond vectors F eta + (op @ x) / eps at rows lo..hi, the
    rows of zero weight at F eta, written into z, of hi - lo rows, and
    returned. ``planes`` is None for every row of every pair,
    else the axis-0 plane range of the lone stencil that the rows cover.
    ``x`` is the flat field, or a dict of each stencil's bond lines
    (``_bond_lines``), which fill its rows by broadcasting. ``scratch`` is
    the operators' flat scratch array (see ``scratch_size``), or None to
    allocate it. ``shifts`` is the store of a small term of stencils
    (``_shifts``), which its applies read, or None."""
    if isinstance(x, dict):
        for (op, _), s in zip(pairs, starts):
            (a, b), (l0, l1, l2) = planes or (0, op.N[0]), x[op]
            rows = z[s:s + (b - a) * op.N[1] * op.N[2]].reshape(b - a, *op.N[1:], 3)
            rows[..., 0], rows[..., 1], rows[..., 2] = l0[a:b, None, None], l1[:, None], l2
    else:
        if planes is None:
            for (op, _), s in zip(pairs, starts):
                if not shifts:
                    op.apply(x, z[s:s + op.rows], scratch=scratch)
                else:
                    op.apply(x, z[s:s + op.rows], scratch=scratch, shifts=shifts)
        else:
            pairs[0][0].apply(x, z, *planes, scratch=scratch)
        np.divide(z, eps, out=z)
        for i in range(3):  # column by column: a (3,) broadcast along rows is slower
            z[:, i] += base[i]
    for (_, w), s in zip(pairs, starts):
        if isinstance(w, _Weights):
            zero = w.zero if planes is None else w.zero[slice(*np.searchsorted(w.zero, (lo, hi)))]
            z[zero + (s - lo)] = base
    return z


def _bond_lines(op, lines, eps, base) -> tuple:
    """The stencil ``op``'s bond vectors F eta + (op @ v) / eps for the
    displacement v whose component c at site l is ``lines[c][l_c]``: their
    component c depends on l_c alone, so per axis c one line of N_c
    values, summed from 0.0 over the terms in term order, as
    ``_Stencil.apply`` sums them, then divided by eps and shifted by
    (F eta)_c, as ``_bond_rows`` treats a field's rows; so every bit is
    that of the field's bond rows. A term adds x c, which for c = 1 or -1
    is exactly apply's x or -x (a - b is a + (-b) in floating point)."""
    if not isinstance(op, _Stencil):
        raise TypeError(f"per-axis displacement lines need stencil batches, got {type(op).__name__}")
    out = []
    for c, line in enumerate(lines):
        acc = np.zeros(len(line))
        for s, k in op.terms:
            acc += np.roll(line, -s[c]) * k  # at m, the term reads line[(m + s_c) mod N_c]
        out.append(acc / eps + base[c])
    return tuple(out)


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


def _evaluate(law: InteractionLaw, zeta, order: int, out, scratch=None) -> None:
    """Writes [phi, phi'][:order + 1] at the rows of ``zeta`` into ``out``:
    ``law.evaluate(., order, ., scratch)`` writes each chunk of at most
    _LAW_CHUNK rows into that chunk's rows of ``out``, which keeps the
    law's temporaries chunk-sized and copies nothing. ``scratch``, the
    law's temporaries, is a flat array of at least SCRATCH_PER_ROW floats
    per row of a chunk, or None to allocate them. The law's bits do not
    depend on the rows a call holds, so they are those of one call. Its
    callers hold the kernel's ``np.errstate``: a non-finite phi or phi' is
    a domain error that the kernel names, not a warning."""
    for lo in range(0, len(zeta), _LAW_CHUNK):
        law.evaluate(zeta[lo:lo + _LAW_CHUNK], order, [a[lo:lo + _LAW_CHUNK] for a in out], scratch)


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
    docstring, Memory): ``"arena"``, for a piece's zeta and phi and an
    apply's scratch or a finish's temporaries; ``"contrib"``, for the
    gradient contributions of the unit this lane finished last, until they
    are added; and ``("unit", s)`` for s < _LANES, the unit slots, for phi'
    of the units of the terms this lane calls, on either lane. Each
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


def _repeats(a, b) -> bool:
    """Whether the batch b = (op, w, law, key) has the results of the batch
    a: the same op, weights and law objects, and an equal key."""
    (op, w, law, key), (op_b, w_b, law_b, key_b) = a, b
    return op is op_b and w is w_b and law is law_b and key == key_b


def _groups(batches) -> list:
    """A term's (op, w, law, key) batches as units (pairs, counts, law,
    key), in batch order. A batch that repeats the batch just before it
    (``_repeats``) adds one to that batch's count: its pair is evaluated
    once, and the unit returns its results once per batch. Of the other
    batches, a run of consecutive ones that share the law and the key, each
    with fewer than _MIN_LANE_ROWS rows, is one unit (a group, one law
    evaluation for all its rows); any other batch is a unit of one (op, w)
    pair. Equal batches that are not adjacent stay apart, since adding one's
    results in the other's place would reorder the term's sums."""
    units: list = []
    for i, (op, w, law, key) in enumerate(batches):
        last = units[-1] if units else None
        if i and _repeats(batches[i - 1], batches[i]):
            last[1][-1] += 1
        elif last and last[2] is law and last[3] == key and max(op.rows, last[0][-1][0].rows) < _MIN_LANE_ROWS:
            last[0].append((op, w))
            last[1].append(1)
        else:
            units.append(([(op, w)], [1], law, key))
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
              scratch: np.ndarray | None = None, shifts: dict | None = None) -> np.ndarray:
        """B x at the sites of the axis-0 planes lo <= l_0 < hi (default:
        every plane) written into ``out``, a C-contiguous ((hi - lo) N_1 N_2,
        3) array, one slab of at most ``slab_planes`` planes at a time: each
        slab takes every term, in term order, before the next slab starts.
        Every row gets the adds of a term-by-term sweep of the whole array,
        in the same order, so the bits do not depend on the plane range or
        the slab size, and the slab stays in cache across the terms.
        ``scratch``, a flat array of at least ``scratch_size`` floats, holds
        the whole-array shifts and the products c x of a coefficient other
        than 1 or -1; None allocates it. ``shifts``, a small term's store
        (``_shifts``), gives the shifted copy of x at each offset it holds,
        which is added contiguously as a whole-array shift is: the same adds
        in the same order, so the same bits."""
        n0 = self.N[0]
        hi = n0 if hi is None else hi
        v = x.reshape(self.N + (3,))
        acc = out.reshape((hi - lo,) + v.shape[1:])
        planes = self.slab_planes
        scratch = np.empty(self.scratch_size) if scratch is None else scratch
        for a in range(lo, hi, planes):
            b = min(a + planes, hi)
            slab = acc[a - lo:b - lo]
            slab[...] = 0.0
            for s, c in self.terms:
                src, blocks = v, _shift_blocks(self.N, s, a, b)
                if shifts and s in shifts:
                    src, blocks = shifts[s][a:b], _WHOLE
                elif len(blocks) > 1 and b - a == n0:
                    # up to a slab, copying the blocks into one contiguous
                    # shifted array (no larger than a slab's temporary) and
                    # one contiguous add beat two, four or eight strided
                    # block adds, for which numpy allocates iterator buffers
                    src, blocks = _shifted(v, blocks, scratch[: v.size].reshape(v.shape)), _WHOLE
                for dst, sl in blocks:
                    if c == 1.0:
                        slab[dst] += src[sl]
                    elif c == -1.0:
                        slab[dst] -= src[sl]
                    else:  # c x in the scratch, in place if the shift is there: no fresh pages
                        term = src[sl]
                        slab[dst] += np.multiply(term, c, out=scratch[: term.size].reshape(term.shape))
        return out

    @property
    def slab_planes(self) -> int:
        """Axis-0 planes per slab: as many as fit in _SLAB_ROWS rows, at
        least one."""
        return max(1, _SLAB_ROWS // (self.N[1] * self.N[2]))

    @property
    def scratch_size(self) -> int:
        """Floats of scratch an apply may use: one slab of x, a shifted copy
        of the whole x where the lattice is one slab."""
        return 3 * min(self.N[0], self.slab_planes) * self.N[1] * self.N[2]

    @property
    def rows(self) -> int:
        return math.prod(self.N)

    @cached_property
    def T(self) -> "_Stencil":
        return _Stencil(self.N, tuple((tuple(-o for o in s), c) for s, c in self.terms))

    def site(self, row: int) -> IntTriple:
        return tuple(int(i) for i in np.unravel_index(row, self.N))


def _shifted(v: np.ndarray, blocks, out: np.ndarray) -> np.ndarray:
    """``v`` shifted into ``out``: v[src] at dst for each (dst, src) pair
    of ``blocks`` (``_shift_blocks``)."""
    for dst, src in blocks:
        out[dst] = v[src]
    return out


def _shifts(groups, x, ws: "_Workspace") -> dict | None:
    """The store of a term for this call, formed at once in ``ws``: x
    shifted by each nonzero offset that two or more of the operators
    applied by the units of ``groups`` (``_groups``) read, where every one
    is a stencil of fewer than _MIN_LANE_ROWS rows and x is a field; else
    None. Only the staircase and cell stencils share offsets, the
    nonzero corners of a cell, since the exact bonds of a term have
    distinct directions; so the store holds at most 7 shifted copies of an
    x of fewer than _MIN_LANE_ROWS rows."""
    ops = [op for pairs, *_ in groups for op, _ in pairs]
    if isinstance(x, tuple) or any(not isinstance(op, _Stencil) or op.rows >= _MIN_LANE_ROWS for op in ops):
        return None
    readers = Counter(s for op in ops for s, _ in op.terms if any(s))
    shared = [s for s, n in readers.items() if n > 1]
    N = ops[0].N
    data = ws.array("shifts", len(shared) * x.size).reshape(len(shared), *N, 3)
    return {s: _shifted(x.reshape(N + (3,)), _shift_blocks(N, s, 0, N[0]), out) for s, out in zip(shared, data)}


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
class _Csr:
    """A compressed sparse map: the index pointer, column (or, as CSC, row)
    indices and values of a ``shape`` matrix in ``format`` "csr" or "csc",
    the arrays scipy's sparse routines (``_sparsetools``) take. ``.T`` is the
    CSC view of the same arrays, a CSR map's row gather ``G[rows]`` and
    every product (``_spmv``) are scipy's own routines, so every bit is that
    of the ``scipy.sparse`` arrays with these fields."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]
    format: str = "csr"

    @property
    def T(self) -> "_Csr":
        return _Csr(self.indptr, self.indices, self.data, self.shape[::-1], "csc" if self.format == "csr" else "csr")

    def __getitem__(self, rows) -> "_Csr":
        """The CSR map of the rows ``rows`` of a CSR map, in that order."""
        idx = self.indptr.dtype
        rows = np.asarray(rows, dtype=idx).ravel()
        if self.format != "csr" or rows.size and not 0 <= rows.min() <= rows.max() < self.shape[0]:
            raise IndexError(f"rows of a {self.format} map of shape {self.shape} must be in [0, {self.shape[0]})")
        indptr = np.zeros(rows.size + 1, dtype=idx)
        np.cumsum(self.indptr[rows + 1] - self.indptr[rows], out=indptr[1:])
        indices, data = np.empty(indptr[-1], dtype=idx), np.empty(indptr[-1], dtype=self.data.dtype)
        _sparsetools.csr_row_index(rows.size, rows, self.indptr, self.indices, self.data, indices, data)
        return _Csr(indptr, indices, data, (rows.size, self.shape[1]))

    def __matmul__(self, x):
        """The product with an (n, 3) x, a new array."""
        if np.shape(x) != (self.shape[1], 3):
            raise ValueError(f"a sparse map of shape {self.shape} takes (n, 3) arrays of {self.shape[1]} rows")
        return _spmv(self, x, np.empty((self.shape[0], 3)))


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

    G: _Csr                 # (E' nloc, n_cols) element-local values, E' = E padded to whole blocks
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


def _spmv(A: _Csr, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """A @ x for a CSR or CSC map A and an (n, 3) x, written into ``out``,
    a C-contiguous array of A.shape[0] rows, and returned: scipy's own
    product routine (the one a ``scipy.sparse`` array's ``A @ x`` calls, so
    the same bits), without the result array it would allocate."""
    if not out.flags.c_contiguous:
        raise ValueError("the output of a sparse product must be C-contiguous")
    out[...] = 0.0
    getattr(_sparsetools, A.format + "_matvecs")(*A.shape, 3, A.indptr, A.indices, A.data,
                                                  np.ascontiguousarray(x).ravel(), out.ravel())
    return out


def _stencil(N, terms) -> _Stencil:
    """Stencil with equal offsets merged, zero coefficients dropped, and
    its first two terms in offset order. Every sum over the terms (``apply``,
    ``_bond_lines``, ``_hessian_symbol``) starts from a zero fill, and
    (0 + a) + b has the bits of (0 + b) + a: addition commutes, and the
    fill turns -0.0 into +0.0 in either order. So the order changes no bit,
    and templates that differ only there are equal (``_staircase_stencils``)."""
    merged: dict[IntTriple, float] = {}
    for s, c in terms:
        merged[s] = merged.get(s, 0.0) + c
    kept = [(s, c) for s, c in merged.items() if c != 0.0]
    return _Stencil(tuple(N), tuple(sorted(kept[:2]) + kept[2:]))


# The stencils of a direction on a lattice, kept per (eta, N) for the
# process, like the coupling blocks, with the transposes they build.
@lru_cache(maxsize=64)
def _bond_stencil(eta: IntTriple, N: IntTriple) -> _Stencil:
    """Exact bond: (B v)_l = v_{l+eta} - v_l."""
    return _stencil(N, [(tuple(eta), 1.0), ((0, 0, 0), -1.0)])


@lru_cache(maxsize=64)
def _staircase_stencils(eta: IntTriple, N: IntTriple) -> tuple[_Stencil, ...]:
    """Per staircase template (``PATH_PERMS`` order): the discrete gradient
    of the cell tet times eta, from the tet's own axis edges. Equal
    templates are one object, so ``_groups`` sees a template that repeats
    the one before it: all six of eta = (1, 1, 1), the exact bond along the
    cell diagonal that every tet holds."""
    out, seen = [], {}
    for perm in PATH_PERMS:
        terms = []
        for a, s in sorted(path_edge_offsets(perm).items()):
            up = tuple(s[k] + (k == a) for k in range(3))
            terms += [(up, float(eta[a])), (s, -float(eta[a]))]
        op = _stencil(N, terms)
        out.append(seen.setdefault(op.terms, op))
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
        w = 1.0 / 6.0  # one object, so equal templates repeat (``_repeats``)
        return [(op, w, law, f"eta={law.eta}") for law in R for op in _staircase_stencils(law.eta, N)]
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
    most lanes its units ran on, its law evaluations (one per unit, each in
    row chunks), the shifted copies of x its store formed (``_shifts``) and
    its batches that repeat the batch before them (``_groups``)."""

    name: str
    sums: dict[str, tuple[float, float]] = field(default_factory=dict)
    seconds: float = 0.0
    lanes: int = 1
    law_calls: int = 0
    shifts: int = 0
    repeats: int = 0

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
    (op, w, law, breakdown key) tuples, as the units of ``_groups``, which
    evaluate a batch that repeats the one before it once. On two
    lanes the term's pieces are streamed (``_stream``) when one of its
    batches has at least _MIN_LANE_ROWS rows and it has two pieces or more;
    otherwise the caller computes and adds one unit at a time. Every sum and
    every array in ``g_outs`` adds the batches' results in batch order, as
    on one lane and ungrouped, so the result is bitwise the same on one lane
    or two, grouped or not. With no ``g_outs`` the batches are energy-only.
    A small term of stencils, whose batches all have fewer than
    _MIN_LANE_ROWS rows and so never stream, reads one store of shifted
    copies of x in the caller's workspace (``_shifts``), formed for this
    call before its first unit."""
    t0 = time.perf_counter()
    out = _Term(name)
    ws = _workspace()
    groups = _groups(batches)
    shifts = _shifts(groups, x, ws)
    units = [_Unit(pairs, law, key, F @ law.eta_vec, x, eps, bool(g_outs), shifts, counts)
             for pairs, counts, law, key in groups]
    out.repeats = len(batches) - sum(len(u.pairs) for u in units)
    out.shifts = len(shifts or ())
    if _LANES > 1 and max(op.rows for op, *_ in batches) >= _MIN_LANE_ROWS and sum(len(u.pieces) for u in units) > 1:
        _stream(_helper(), units, lambda key, results: out.add(key, results, g_outs))
        out.lanes = 2
    else:
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
        units[i].alone(own)  # raises the unit's one-lane error
        raise errors[i]


def _report(model: str, gradient: LatticeField | None, terms, **diagnostics) -> EnergyReport:
    """The report of every model. A breakdown entry is the sum of its key
    over the terms, in term order, starting from the first term's value (so
    a negated zero stays -0.0); ``energy`` and ``excess`` are the
    left-to-right sums over the breakdown. Diagnostics get each term's wall
    time, law evaluations, stored shifts formed and repeated batches, and
    the most lanes any term ran on."""
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
                     "shifts": {t.name: t.shifts for t in terms},
                     "repeats": {t.name: t.repeats for t in terms},
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

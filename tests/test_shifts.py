"""A small term's store of shifted copies of its displacement: the
stencils of a term whose batches all have fewer than ``_MIN_LANE_ROWS``
rows read each nonzero offset that more than one of them reads from one
shifted copy of x, formed once per call (``energies._shifts``). Every
report keeps the bits of the plain stencil apply. An apply forms each
product c x in its scratch, and the law its row temporaries in the arena,
so a warm call takes no fresh memory pages for them."""
from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bvcouple import energies
from bvcouple.coupling import RegionPartition, coupled_energy_conforming, coupled_energy_dg, naive_coupling_energy
from bvcouple.energies import acb_cell_energy, acb_tetra_energy, atomistic_energy
from bvcouple.highorder import build_high_order_mesh, high_order_energy
from bvcouple.lattice import LatticeConfig, make_deformation
from bvcouple.potentials import InteractionLaw, InteractionSet, make_law
from test_lanes import README_LAWS, state

ROOT = Path(__file__).resolve().parents[1]

# Laws of covering width 1 and 2, whose coupled regions fit N=6; the toy
# law's eta has a component 2, so its stencils have coefficients other
# than 1 and -1.
SHORT_LAWS = InteractionSet([
    make_law((1, 1, 1), "harmonic"),
    make_law((1, -1, 1), "morse-radial"),
    make_law((-1, 1, 2), "anisotropic-toy"),
])
# The README laws and the flat direction (0, 2, 1), which the coupled
# models admit under the "reduce" policy.
REDUCED_LAWS = InteractionSet([*README_LAWS, make_law((0, 2, 1), "harmonic")])

# setting -> (N, laws, region corner, region extents, degenerate_eta policy)
SETTINGS = {
    "n6": (6, SHORT_LAWS, (2, 2, 2), (2, 2, 2), "reject"),
    "n12": (12, README_LAWS, (4, 4, 4), (4, 4, 4), "reject"),
    "n18": (18, README_LAWS, (6, 6, 6), (6, 6, 6), "reject"),
    "n12-reduce": (12, REDUCED_LAWS, (4, 4, 4), (4, 4, 4), "reduce"),
}
MODELS = ("atomistic", "acb-tetra", "acb-cell", "coupled", "coupled-dg", "naive", "coupled-ho(2)")


def calls(setting: str, seed: int = 1, gradient: bool = True, settings: dict = SETTINGS) -> dict:
    """Each model at a seeded state of ``settings[setting]``; the two-sided
    model with a second, distinct state on its continuum side, the
    high-order model with seeded free-node displacements."""
    N, R, corner, extents, policy = settings[setting]
    cfg = LatticeConfig(N=(N, N, N), epsilon=1.0 / N)
    part = RegionPartition(cfg, corner, extents)
    y = state(cfg, seed)
    y_plus = make_deformation(y.F, state(cfg, seed + 100).displacement)
    n_free = build_high_order_mesh(part, 2).n_free_nodes
    nodes = 0.05 * cfg.epsilon * np.random.default_rng(seed).standard_normal((n_free, 3))
    kw = {"gradient": gradient}
    return {
        "atomistic": lambda: atomistic_energy(y, R, **kw),
        "acb-tetra": lambda: acb_tetra_energy(y, R, **kw),
        "acb-cell": lambda: acb_cell_energy(y, R, **kw),
        "coupled": lambda: coupled_energy_conforming(y, R, part, policy, **kw),
        "coupled-dg": lambda: coupled_energy_dg(y, y_plus, R, part, policy, **kw),
        "naive": lambda: naive_coupling_energy(y, R, part, **kw),
        "coupled-ho(2)": lambda: high_order_energy(y, R, part, 2, nodes, policy, **kw),
    }


def no_store(monkeypatch) -> None:
    """Every term applies its stencils one by one, as without the store."""
    monkeypatch.setattr(energies, "_shifts", lambda batches, x, ws: None)


def report_bytes(rep) -> bytes:
    """The bytes of energy, excess, breakdown and every gradient block."""
    parts = [np.float64(v).tobytes() for v in (rep.energy, rep.excess, *rep.breakdown.values())]
    parts.append(repr(list(rep.breakdown)).encode())
    blocks = [rep.gradient] + [rep.diagnostics.get(k) for k in ("gradient_minus", "gradient_plus", "node_gradient")]
    for block in blocks:
        parts.append(b"-" if block is None else np.asarray(getattr(block, "values", block)).tobytes())
    return b"|".join(parts)


def shared_offsets(stencils) -> int:
    """The nonzero offsets that more than one of ``stencils`` reads, from
    their terms."""
    readers: dict = {}
    for op in stencils:
        for s in {s for s, _ in op.terms if s != (0, 0, 0)}:
            readers[s] = readers.get(s, 0) + 1
    return sum(1 for n in readers.values() if n > 1)


@pytest.mark.parametrize("gradient", [True, False], ids=["gradient", "energy"])
@pytest.mark.parametrize("setting", list(SETTINGS))
@pytest.mark.parametrize("model", MODELS)
def test_the_store_keeps_every_bit_of_the_plain_apply(monkeypatch, model, setting, gradient):
    """Energy, excess, breakdown and every gradient block, byte for byte,
    with and without the store, which runs second, on a workspace that the
    plain call has filled; a call with the store forms at least one shift
    in every model that has a term of staircase or cell stencils."""
    call = calls(setting, gradient=gradient)[model]
    with monkeypatch.context() as m:
        no_store(m)
        plain = call()
    with_store = call()
    assert report_bytes(with_store) == report_bytes(plain)
    assert set(plain.diagnostics["shifts"].values()) == {0}
    assert (sum(with_store.diagnostics["shifts"].values()) > 0) == (model != "atomistic")


@pytest.mark.parametrize("model", ["acb-tetra", "acb-cell", "coupled", "coupled-dg", "naive", "coupled-ho(2)"])
def test_a_second_call_never_reads_the_first_calls_shifts(monkeypatch, model):
    """A call at a second displacement, right after a call at the first,
    forms its own shifts: its report is the bytes of the second call
    without the store, and it forms as many shifts as the first."""
    with monkeypatch.context() as m:
        no_store(m)
        ref = calls("n12", seed=2)[model]()
    first = calls("n12", seed=1)[model]()
    second = calls("n12", seed=2)[model]()
    assert report_bytes(second) == report_bytes(ref)
    assert second.diagnostics["shifts"] == first.diagnostics["shifts"]


def test_shifts_count_the_offsets_that_stencils_share():
    """``shifts`` reads, per term, the offsets that two or more of the
    stencils its units apply read: 7 for the README continuum term at N=12, the
    seven corners of a cell, none for its atomistic bonds and cones, whose
    operators are gathers; 0 for acb-tetra with the harmonic (1, 1, 1) law
    alone at N=12, whose six equal templates are one unit that applies one
    stencil, since a repeated batch applies nothing, with the energy's bits
    unchanged; and 0 for every term at N=24, whose batches are too large
    for the store."""
    rep = calls("n12")["coupled"]()
    cb = [op for law in README_LAWS for op in energies._staircase_stencils(law.eta, (12, 12, 12))]
    assert shared_offsets(cb) == 7
    assert rep.diagnostics["shifts"] == {"atomistic": 0, "continuum": 7, "interface": 0}
    cfg = LatticeConfig(N=(12, 12, 12), epsilon=1.0 / 12)
    rep = acb_tetra_energy(state(cfg, 1), InteractionSet([make_law((1, 1, 1), "harmonic")]))
    assert (rep.diagnostics["shifts"], rep.diagnostics["repeats"]) == ({"acb-tetra": 0}, {"acb-tetra": 5})
    assert rep.energy.hex() == "0x1.9baf86ea56ee0p+0"
    cfg = LatticeConfig(N=(24, 24, 24), epsilon=1.0 / 24)
    part = RegionPartition(cfg, (8, 8, 8), (8, 8, 8))
    y = state(cfg, 1)
    for rep in (coupled_energy_conforming(y, README_LAWS, part), acb_tetra_energy(y, README_LAWS),
                acb_cell_energy(y, README_LAWS), naive_coupling_energy(y, README_LAWS, part)):
        assert set(rep.diagnostics["shifts"].values()) == {0}


@pytest.mark.parametrize("model", ["acb-tetra", "acb-cell", "naive"])
def test_lattice_terms_count_their_shared_offsets(model):
    """The stored shifts of each term at N=12 equal the shared offsets of
    its stencils, whatever cell stencil coefficients cancel."""
    rep = calls("n12")[model]()
    N = (12, 12, 12)
    if model == "naive":
        expected = {"atomistic": 0, "continuum": shared_offsets(
            [op for law in README_LAWS for op in energies._staircase_stencils(law.eta, N)])}
    else:
        expected = {model: shared_offsets(op for op, *_ in energies._lattice_batches(model, README_LAWS, N))}
    assert rep.diagnostics["shifts"] == expected


FAULTS_CHILD = """
import os, resource, statistics, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from bvcouple.energies import acb_tetra_energy
from bvcouple.lattice import LatticeConfig, LatticeField, make_deformation
from bvcouple.potentials import InteractionSet, make_law
R = InteractionSet([
    make_law((1, 1, 1), "harmonic"),
    make_law((2, 1, 3), "lennard-jones-radial", {"well_depth": 0.5, "sigma": 2.494438257849294}),
    make_law((1, -1, 2), "anisotropic-toy"),
])
cfg = LatticeConfig(N=(24, 24, 24), epsilon=1.0 / 24)
rng = np.random.default_rng(7)
F = np.eye(3) + 0.02 * rng.standard_normal((3, 3))
y = make_deformation(F, LatticeField(cfg, 1e-3 * rng.standard_normal(cfg.shape)))
for _ in range(3):
    acb_tetra_energy(y, R)
faults = []
for _ in range(10):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    acb_tetra_energy(y, R)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(" ".join(map(str, faults)))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_a_warm_staircase_call_takes_no_fresh_pages():
    """A fresh process pinned to one CPU before it imports bvcouple: after
    three warm-up calls of acb-tetra at N=24 with the README laws, the
    median of ten warm calls' minor page faults is 0. Whether a freed
    temporary's pages come back depends on glibc's dynamic thresholds, and
    so on what the process did before; the next two tests check the
    kernel's own temporaries, the stencil applies' and the law's, without
    that dependence."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                                     os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", FAULTS_CHILD], env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    faults = [int(f) for f in done.stdout.split()]
    assert len(faults) == 10 and statistics.median(faults) == 0, faults


def test_no_stencil_apply_allocates_an_array_the_size_of_x(monkeypatch):
    """On one lane, so that no other thread allocates meanwhile: in a warm
    acb-tetra call at N=36 with the README laws, full and energy-only, the
    traced memory of no forward or transposed stencil apply rises by half
    the bytes of x or more. The products c x of coefficients other than 1
    and -1 are formed in the apply's scratch, in the workspace; formed as
    fresh temporaries, one per block, the whole-array one (offset 0) takes
    all the bytes of x. Each of the 13 units (the six equal templates of
    eta = (1, 1, 1) are one) makes one forward apply, and one transposed
    apply in the full call."""
    monkeypatch.setattr(energies, "_LANES", 1)
    cfg = LatticeConfig(N=(36, 36, 36), epsilon=1.0 / 36)
    y = state(cfg, 1)
    for gradient in (True, False):
        acb_tetra_energy(y, README_LAWS, gradient=gradient)
    apply, rises = energies._Stencil.apply, []

    def traced(self, *args, **kw):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            return apply(self, *args, **kw)
        finally:
            rises.append(tracemalloc.get_traced_memory()[1] - start)

    monkeypatch.setattr(energies._Stencil, "apply", traced)
    tracemalloc.start()
    try:
        for gradient in (True, False):
            acb_tetra_energy(y, README_LAWS, gradient=gradient)
    finally:
        tracemalloc.stop()
    assert len(rises) == 13 * 2 + 13
    assert max(rises) < y.displacement.values.nbytes // 2, max(rises)


def test_no_stencil_apply_of_a_warm_coupled_call_allocates(monkeypatch):
    """On one lane: in a warm README coupled call at N=12, full and
    energy-only, the traced memory of no stencil apply rises by 2 KB or
    more. A shift that wraps on an axis is copied into the apply's scratch
    and added contiguously; added block by block, each strided in-place add
    of a transposed apply makes numpy allocate iterator buffers, some
    100 KB of them."""
    monkeypatch.setattr(energies, "_LANES", 1)
    call = calls("n12")["coupled"]
    energy_only = calls("n12", gradient=False)["coupled"]
    call(), energy_only()
    apply, rises = energies._Stencil.apply, []

    def traced(self, *args, **kw):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            return apply(self, *args, **kw)
        finally:
            rises.append(tracemalloc.get_traced_memory()[1] - start)

    monkeypatch.setattr(energies._Stencil, "apply", traced)
    tracemalloc.start()
    try:
        call(), energy_only()
    finally:
        tracemalloc.stop()
    assert max(rises) < 2048, sorted(rises)[-4:]
    assert len(rises) == 13 * 2 + 13


def test_no_law_evaluation_allocates_an_array_of_its_rows(monkeypatch):
    """On one lane: in a warm acb-tetra call at N=24 with the README laws
    (harmonic, Lennard-Jones and the toy law), full and energy-only, the
    traced memory of no law evaluation on the kernel's rows rises by the
    bytes of one float per row or more. The law's temporaries (the norm,
    (sigma / r)^6, exp(zeta . a), the toy's zeta M at order 0, ...) are
    views of the arena; formed as new arrays, a Lennard-Jones call holds
    five of them at once."""
    monkeypatch.setattr(energies, "_LANES", 1)
    cfg = LatticeConfig(N=(24, 24, 24), epsilon=1.0 / 24)
    y = state(cfg, 1)
    for gradient in (True, False):
        acb_tetra_energy(y, README_LAWS, gradient=gradient)
    evaluate, rises = InteractionLaw.evaluate, []

    def traced(self, zeta, order=2, out=None, scratch=None):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            return evaluate(self, zeta, order, out, scratch)
        finally:
            if out is not None and np.shape(zeta) != (3,):
                rises.append((tracemalloc.get_traced_memory()[1] - start, len(zeta), self.kind, order))

    monkeypatch.setattr(InteractionLaw, "evaluate", traced)
    tracemalloc.start()
    try:
        for gradient in (True, False):
            acb_tetra_energy(y, README_LAWS, gradient=gradient)
    finally:
        tracemalloc.stop()
    assert {(kind, order) for _, _, kind, order in rises} == {
        (law.kind, order) for law in README_LAWS for order in (0, 1)}
    assert all(rise < 8 * rows for rise, rows, *_ in rises), max(rises)

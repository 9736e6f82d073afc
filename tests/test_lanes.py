"""Two lanes, one result: the pieces of a term's bond batches stream
through the calling thread and one helper thread, the lane that completes a
unit's last piece finishes the unit, and the results are added in batch
order by whichever lane adds them, so every report is bitwise the report of
one lane. The lane count, the row threshold, the law chunk and the stencil
slab are private constants of ``energies``; these tests set them
directly."""
from __future__ import annotations

import hashlib
import os
import select
import subprocess
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from functools import reduce
from operator import add
from pathlib import Path

import numpy as np
import pytest

from bvcouple import coupling, energies
from bvcouple.coupling import (
    RegionPartition,
    coupled_energy_conforming,
    coupled_energy_dg,
    naive_coupling_energy,
)
from bvcouple.energies import acb_cell_energy, acb_tetra_energy, atomistic_energy
from bvcouple.highorder import build_high_order_mesh, high_order_energy
from bvcouple.lattice import LatticeConfig, LatticeField, make_deformation
from bvcouple.potentials import InteractionLaw, InteractionSet, PotentialDomainError, make_law

README_LAWS = InteractionSet([
    make_law((1, 1, 1), "harmonic"),
    make_law((2, 1, 3), "lennard-jones-radial", {"well_depth": 0.5, "sigma": 2.494438257849294}),
    make_law((1, -1, 2), "anisotropic-toy"),
])


def one_lane(monkeypatch):
    monkeypatch.setattr(energies, "_LANES", 1)


def two_lanes(monkeypatch):
    """Every term of two units or more streamed on two lanes, whatever its
    batches' sizes."""
    monkeypatch.setattr(energies, "_LANES", 2)
    monkeypatch.setattr(energies, "_MIN_LANE_ROWS", 0)


def chunks_and_slabs(monkeypatch):
    """Two lanes, law chunks of 864 rows (an N=12 stencil batch of 1,728
    rows is then two whole chunks, which leaves F eta alone in a third
    one-row call) and stencil slabs of two planes."""
    two_lanes(monkeypatch)
    monkeypatch.setattr(energies, "_LAW_CHUNK", 864)
    monkeypatch.setattr(energies, "_SLAB_ROWS", 300)


def state(cfg, seed, amplitude=0.05):
    rng = np.random.default_rng(seed)
    F = np.eye(3) + 0.05 * rng.standard_normal((3, 3))
    v = LatticeField(cfg, amplitude * cfg.epsilon * rng.standard_normal(cfg.shape))
    return make_deformation(F, v)


def bond_group(pairs, law, F, x, eps, gradient=True) -> list:
    """Quadrature-bond energies of a group of (op, w) pairs of one law, the
    batches of a term that ``energies._groups`` runs together, computed on
    the calling lane alone (``_Unit.alone``). Returns, pair by pair in
    order, the pair's energy eps^3 sum_q w_q phi(zeta_q) at the bond
    vectors zeta = F eta + (op @ x) / eps, summed as its excess over the
    homogeneous bond, eps^3 sum_q w_q (phi(zeta_q) - phi(F eta)), plus its
    homogeneous share eps^3 phi(F eta) sum_q w_q; the excess; and, if
    ``gradient``, the gradient contribution, scaled like the lattice inner
    product, op^T (w phi'(zeta) / eps), as an array of its own."""
    return energies._Unit(pairs, law, None, F @ law.eta_vec, x, eps, gradient).copied(energies._workspace())


# Laws whose covering widths divide N = 8.
N8_LAWS = InteractionSet([
    make_law((1, 1, 1), "harmonic"),
    make_law((2, 1, 1), "morse-radial"),
    make_law((1, -1, 2), "anisotropic-toy"),
])


def model_calls(N=12, **kw):
    """Every model at a seeded non-homogeneous state: at N=12 with the README
    laws on the region of side 4 at (4, 4, 4), at N=8 with ``N8_LAWS`` on
    the region of side 4 at (2, 2, 2). Each entry evaluates to a report,
    passing ``kw`` to the model."""
    cfg = LatticeConfig(N=(N, N, N), epsilon=1.0 / N)
    part = RegionPartition(cfg, (N // 2 - 2,) * 3, (4, 4, 4))
    y = state(cfg, 1)
    y_plus = make_deformation(y.F, state(cfg, 2).displacement)
    n_free = build_high_order_mesh(part, 2).n_free_nodes
    nodes = 0.05 * cfg.epsilon * np.random.default_rng(3).standard_normal((n_free, 3))
    R = README_LAWS if N == 12 else N8_LAWS
    y0 = make_deformation(y.F, LatticeField.zeros(cfg))
    return {
        "atomistic": lambda: atomistic_energy(y, R, **kw),
        "acb-tetra": lambda: acb_tetra_energy(y, R, **kw),
        "acb-cell": lambda: acb_cell_energy(y, R, **kw),
        "coupled": lambda: coupled_energy_conforming(y, R, part, **kw),
        "coupled-dg untied": lambda: coupled_energy_dg(y, y_plus, R, part, **kw),
        "coupled-dg tied": lambda: coupled_energy_dg(y, y, R, part, **kw),
        "naive": lambda: naive_coupling_energy(y, R, part, **kw),
        "coupled-ho(2)": lambda: high_order_energy(y, R, part, k=2, node_displacements=nodes, **kw),
        "homogeneous coupled": lambda: coupled_energy_conforming(y0, R, part, **kw),
    }


MODELS = ("atomistic", "acb-tetra", "acb-cell", "coupled", "coupled-dg untied", "coupled-dg tied", "naive",
          "coupled-ho(2)", "homogeneous coupled")


def assert_same_report(a, b):
    assert repr((a.energy, a.excess, a.breakdown)) == repr((b.energy, b.excess, b.breakdown))
    assert (a.gradient is None) == (b.gradient is None)
    if a.gradient is not None:
        assert np.array_equal(a.gradient.values, b.gradient.values)
    for key in ("gradient_minus", "gradient_plus"):
        assert (key in a.diagnostics) == (key in b.diagnostics)
        if key in a.diagnostics:
            assert np.array_equal(a.diagnostics[key].values, b.diagnostics[key].values)
    assert ("node_gradient" in a.diagnostics) == ("node_gradient" in b.diagnostics)
    if "node_gradient" in a.diagnostics:
        assert np.array_equal(a.diagnostics["node_gradient"], b.diagnostics["node_gradient"])


@pytest.mark.parametrize("setting", [two_lanes, chunks_and_slabs])
@pytest.mark.parametrize("model", MODELS)
def test_two_lanes_are_bitwise_one_lane(monkeypatch, model, setting):
    evaluate = model_calls()[model]
    one_lane(monkeypatch)
    ref = evaluate()
    assert ref.diagnostics["lanes"] == 1
    setting(monkeypatch)
    rep = evaluate()
    assert rep.diagnostics["lanes"] == 2
    assert_same_report(ref, rep)
    if model == "homogeneous coupled":
        assert rep.excess == 0.0


@pytest.mark.parametrize("model", MODELS)
def test_f_eta_alone_in_the_last_chunk_keeps_every_bit(monkeypatch, model):
    """With law chunks of 864 rows, every N=12 stencil batch (1,728 rows)
    and group (10,368) ends in a chunk that holds only the F eta row: on one
    lane, full and energy-only reports are bitwise the default chunk's."""
    one_lane(monkeypatch)
    calls = model_calls(), model_calls(gradient=False)
    refs = [c[model]() for c in calls]
    monkeypatch.setattr(energies, "_LAW_CHUNK", 864)
    for ref, c in zip(refs, calls):
        assert_same_report(ref, c[model]())


@pytest.mark.parametrize("gradient", [True, False])
@pytest.mark.parametrize("N", [8, 12])
def test_groups_are_bitwise_the_ungrouped_batches(monkeypatch, N, gradient):
    """At N=8 and 12 every staircase batch has fewer than _MIN_LANE_ROWS
    rows, so each law's six templates run as one group; with the threshold
    at 0 nothing is grouped. Every report, full and energy-only, is the
    same bits either way, with fewer law evaluations grouped."""
    one_lane(monkeypatch)
    grouped = {name: evaluate() for name, evaluate in model_calls(N, gradient=gradient).items()}
    monkeypatch.setattr(energies, "_MIN_LANE_ROWS", 0)
    for name, evaluate in model_calls(N, gradient=gradient).items():
        rep, ref = evaluate(), grouped[name]
        assert_same_report(ref, rep)
        calls, ungrouped = ref.diagnostics["law_calls"], rep.diagnostics["law_calls"]
        assert calls.keys() == ungrouped.keys(), name
        if name not in ("atomistic", "acb-cell"):
            assert sum(calls.values()) < sum(ungrouped.values()), name


def test_grouped_domain_error_is_the_ungrouped_one(monkeypatch):
    """A Lennard-Jones law's six staircase templates at N=12 run as one
    group. Template 4 (index 3) is squeezed to a bond of length about
    3.7e-13 at cell (2, 3, 4), and template 6 collapsed to about zero at
    cell (8, 7, 6); both are below the radial minimum of 1e-12, and no
    other bond is. The group's law call sees both, the shorter one later;
    the grouped call must raise the ungrouped one's error: template 4's
    bond, site and eta, and the same message."""
    cfg = LatticeConfig(N=(12, 12, 12), epsilon=1.0 / 12.0)
    law = make_law((2, 1, 3), "lennard-jones-radial")
    R = InteractionSet([law])
    ops = energies._staircase_stencils(law.eta, cfg.N)
    vals = np.zeros(cfg.shape)
    for template, cell, scale in ((3, (2, 3, 4), 1.0 - 1e-13), (5, (8, 7, 6), 1.0)):
        # v = -scale eps (l - cell) on the template's four vertices
        for s in {s for s, _ in ops[template].terms}:
            vals[tuple(np.add(cell, s))] = -scale * cfg.epsilon * np.asarray(s, dtype=float)
    y = make_deformation(np.eye(3), LatticeField(cfg, vals))
    x = y.displacement.values.reshape(-1, 3)
    short = {(t, op.site(int(row))) for t, op in enumerate(ops)
             for row in np.flatnonzero(np.linalg.norm(law.eta_vec + op @ x / cfg.epsilon, axis=-1) < 1e-12)}
    assert short == {(3, (2, 3, 4)), (5, (8, 7, 6))}

    one_lane(monkeypatch)
    assert len(energies._groups([(op, 1.0, law, "k") for op in ops])) == 1
    errors = []
    for threshold in (energies._MIN_LANE_ROWS, 0):  # grouped, then ungrouped
        monkeypatch.setattr(energies, "_MIN_LANE_ROWS", threshold)
        for gradient in (True, False):
            with pytest.raises(PotentialDomainError) as err:
                acb_tetra_energy(y, R, gradient=gradient)
            errors.append((type(err.value), str(err.value), err.value.site, err.value.eta))
    assert errors[0][2:] == ((2, 3, 4), (2, 1, 3))
    assert errors == [errors[0]] * 4


def test_coupled_reports_count_law_calls_per_term():
    """One law evaluation per unit: at N=12 each law's six staircase
    templates are one group, at N=36 (46,656 rows each) six units."""
    for N, continuum in ((12, 3), (36, 18)):
        cfg = LatticeConfig(N=(N, N, N), epsilon=1.0 / N)
        part = RegionPartition(cfg, (N // 3,) * 3, (N // 3,) * 3)
        rep = coupled_energy_conforming(state(cfg, 1, 0.01), README_LAWS, part, gradient=False)
        assert rep.diagnostics["law_calls"] == {"atomistic": 3, "continuum": continuum, "interface": 3}


GRADIENT_BLOCKS = {"gradient_minus", "gradient_plus", "node_gradient"}


@pytest.mark.parametrize("setting", [one_lane, chunks_and_slabs])
@pytest.mark.parametrize("model", MODELS)
def test_energy_only_call_is_the_full_call_without_gradients(monkeypatch, model, setting):
    """``gradient=False`` gives the bits of the full call's energy, excess
    and breakdown (``repr`` tells -0.0 from 0.0), the same terms and
    diagnostics (the term and setup timings by their keys), and no
    gradient; under ``chunks_and_slabs`` the law runs at order 0 on
    chunked rows."""
    setting(monkeypatch)
    full = model_calls()[model]()
    rep = model_calls(gradient=False)[model]()
    assert rep.gradient is None
    assert repr((rep.energy, rep.excess, rep.breakdown)) == repr((full.energy, full.excess, full.breakdown))
    assert rep.model == full.model
    for timings in ("term_s", "setup_s"):
        assert rep.diagnostics.get(timings, {}).keys() == full.diagnostics.get(timings, {}).keys()
    assert not GRADIENT_BLOCKS & rep.diagnostics.keys()
    drop = GRADIENT_BLOCKS | {"term_s", "setup_s"}
    assert repr({k: v for k, v in rep.diagnostics.items() if k not in drop}) == \
        repr({k: v for k, v in full.diagnostics.items() if k not in drop})


def test_chunked_homogeneous_batch_has_zero_excess(monkeypatch):
    """At zeta = F eta every row's phi must equal phi(F eta) to the bit, or
    the excess of y_F is not 0.0. A one-row matrix product of the toy law
    can round differently from a many-row one (in about one of fifteen of
    these F), so the law evaluates a lone row as a two-row batch: here the
    1,728 rows of one bond batch fill two chunks of 864 exactly, and the
    10,368 rows of a group of the six staircase templates twelve, which
    leaves F eta alone in the last chunk."""
    monkeypatch.setattr(energies, "_LAW_CHUNK", 864)
    law = make_law((1, -1, 2), "anisotropic-toy")
    N = (12, 12, 12)
    x = np.zeros((12**3, 3))
    rng = np.random.default_rng(7)
    for pairs in ([(energies._bond_stencil(law.eta, N), 1.0)],
                  [(op, 1.0 / 6.0) for op in energies._staircase_stencils(law.eta, N)]):
        for _ in range(200):
            F = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
            results = list(bond_group(pairs, law, F, x, 1.0 / 12.0))
            assert len(results) == len(pairs)
            assert all(excess == 0.0 for _, excess, _ in results)


def collapsing_state():
    """N=12, laws eta=(1,0,0) then eta=(0,1,0), both radial. Returns the
    laws and a deformation builder: ``collapse`` lists the (site, eta)
    bonds to shrink to zero length."""
    cfg = LatticeConfig(N=(12, 12, 12), epsilon=1.0 / 12.0)
    R = InteractionSet([make_law((1, 0, 0), "lennard-jones-radial"), make_law((0, 1, 0), "morse-radial")])

    def deformation(collapse):
        vals = np.zeros(cfg.shape)
        for site, eta in collapse:
            tip = tuple((s + e) % 12 for s, e in zip(site, eta))
            vals[tip] = -cfg.epsilon * np.asarray(eta, dtype=float)
        return make_deformation(np.eye(3), LatticeField(cfg, vals))

    return R, deformation


@pytest.mark.parametrize("collapse, site, eta", [
    # only the second unit fails, while the helper lane's unit is slow
    ([((5, 6, 7), (0, 1, 0))], (5, 6, 7), (0, 1, 0)),
    # both fail: the first in batch order is the one raised
    ([((2, 3, 4), (1, 0, 0)), ((5, 6, 7), (0, 1, 0))], (2, 3, 4), (1, 0, 0)),
])
def test_helper_lane_domain_error_is_the_serial_one(monkeypatch, collapse, site, eta):
    R, deformation = collapsing_state()
    y = deformation(collapse)
    one_lane(monkeypatch)
    with pytest.raises(PotentialDomainError) as serial:
        atomistic_energy(y, R)
    assert (serial.value.site, serial.value.eta) == (site, eta)

    two_lanes(monkeypatch)
    running = []
    run = energies._Unit.run

    def slow_helper(self, k, ws):
        running.append(1)
        try:
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.2)  # the caller's batch is done long before
            return run(self, k, ws)
        finally:
            running.pop()

    monkeypatch.setattr(energies._Unit, "run", slow_helper)
    with pytest.raises(PotentialDomainError) as lanes:
        atomistic_energy(y, R)
    assert not running, "helper work outlived the call"
    assert type(lanes.value) is type(serial.value)
    assert str(lanes.value) == str(serial.value)
    assert (lanes.value.site, lanes.value.eta) == (site, eta)


def test_one_lane_pair_adds_its_first_unit_before_it_computes_the_second(monkeypatch):
    """On one lane a term's units, here the README laws' three bond batches
    at N=12, are computed and added one unit at a time: when the kernel
    starts a unit, the gradient already holds every earlier unit's
    contribution, so one lane never holds two units' results."""
    one_lane(monkeypatch)
    cfg = LatticeConfig(N=(12, 12, 12), epsilon=1.0 / 12.0)
    y = state(cfg, 1)
    batches = [(energies._bond_stencil(law.eta, cfg.N), 1.0, law, f"eta={law.eta}") for law in README_LAWS]
    assert len(energies._groups(batches)) == 3
    g = np.zeros((cfg.n_sites, 3))
    at_start, contributions = [], []
    alone = energies._Unit.alone

    def spy(self, ws):
        at_start.append(g.copy())
        results = alone(self, ws)
        contributions.extend(contrib.copy() for _, _, contrib in results)  # the slot is reused
        return results

    monkeypatch.setattr(energies._Unit, "alone", spy)
    energies._term("atomistic", batches, y.F, y.displacement.values.reshape(-1, 3), cfg.epsilon, (g,))
    assert len(at_start) == 3
    assert not at_start[0].any()
    assert np.array_equal(at_start[1], contributions[0])
    assert np.array_equal(at_start[2], contributions[0] + contributions[1])


def recorded_pieces(monkeypatch, keep=lambda pairs: True) -> list:
    """Records the pieces of every group a ``_Unit`` runs whose pairs
    ``keep`` accepts, as (pairs, pieces)."""
    seen = []
    pieces = energies._pieces

    def recording(pairs, n):
        out = pieces(pairs, n)
        if keep(pairs):
            seen.append((pairs, out))
        return out

    monkeypatch.setattr(energies, "_pieces", recording)
    return seen


@pytest.mark.parametrize("lanes", [one_lane, two_lanes])
@pytest.mark.parametrize("gradient", [True, False])
@pytest.mark.parametrize("model", MODELS)
def test_two_plane_pieces_are_bitwise_default_slabs(monkeypatch, model, gradient, lanes):
    """At N=12 every group is one piece under the default slab. Under
    ``chunks_and_slabs`` a stencil batch of 1,728 rows runs through the law
    in six pieces of two planes (288 rows) each, one law call per piece.
    Every report, full and energy-only, on one lane and on two, is the same
    bits either way."""
    evaluate = model_calls(gradient=gradient)[model]
    lanes(monkeypatch)
    seen = recorded_pieces(monkeypatch)
    ref = evaluate()
    assert {len(pieces) for _, pieces in seen} == {1}
    seen.clear()
    chunks_and_slabs(monkeypatch)
    lanes(monkeypatch)
    rep = evaluate()
    assert 6 in {len(pieces) for _, pieces in seen}
    assert_same_report(ref, rep)


@pytest.mark.parametrize("gradient", [True, False])
def test_masked_pieces_at_n24_are_bitwise_default_slabs(monkeypatch, gradient):
    """Coupled at N=24 (README laws, region of side 8 at (8, 8, 8)): under
    ``chunks_and_slabs`` each masked continuum batch runs in 24 one-plane
    pieces, and only some of them hold zero-weight rows, which each piece
    sets to F eta itself. The reports, at a seeded state and at y_F, are
    the bits of the default slabs."""
    cfg = LatticeConfig(N=(24, 24, 24), epsilon=1.0 / 24.0)
    part = RegionPartition(cfg, (8, 8, 8), (8, 8, 8))
    y = state(cfg, 1)
    states = (y, make_deformation(y.F, LatticeField.zeros(cfg)))
    one_lane(monkeypatch)
    refs = [coupled_energy_conforming(s, README_LAWS, part, gradient=gradient) for s in states]
    chunks_and_slabs(monkeypatch)
    seen = recorded_pieces(monkeypatch, lambda pairs: isinstance(pairs[0][1], energies._Weights)
                           and pairs[0][1].zero.size and isinstance(pairs[0][0], energies._Stencil))
    reps = [coupled_energy_conforming(s, README_LAWS, part, gradient=gradient) for s in states]
    for ref, rep in zip(refs, reps):
        assert_same_report(ref, rep)
    assert reps[1].excess == 0.0
    assert seen
    for pairs, pieces in seen:
        zero = pairs[0][1].zero
        holding = sum(1 for lo, hi, _ in pieces if ((zero >= lo) & (zero < hi)).any())
        assert len(pieces) == 24 and 1 < holding < 24


def test_masked_collapsed_bond_in_a_late_piece_stays_masked(monkeypatch):
    """A Lennard-Jones bond collapsed at site (10, 3, 4), in the last of six
    two-plane pieces at N=12, with zero weight there: every piece sets its
    own zero-weight rows to F eta, so the batch gives the bits of one piece
    and raises nothing; with unit weights it raises."""
    law = make_law((1, 0, 0), "lennard-jones-radial")
    N = (12, 12, 12)
    x = np.zeros((12, 12, 12, 3))
    x[11, 3, 4] = -np.asarray(law.eta_vec) / 12.0  # tip of the bond at (10, 3, 4)
    x = x.reshape(-1, 3)
    mask = np.ones(N)
    mask[10, 3, 4] = 0.0
    pairs = [(energies._bond_stencil(law.eta, N), energies._weights(mask.ravel()))]

    def results():
        return [(e, de, g.tobytes()) for e, de, g in bond_group(pairs, law, np.eye(3), x, 1.0 / 12.0)]

    ref = results()
    chunks_and_slabs(monkeypatch)
    assert len(energies._pieces(pairs, 12**3)) == 6
    assert results() == ref
    with pytest.raises(PotentialDomainError):
        list(bond_group([(pairs[0][0], 1.0)], law, np.eye(3), x, 1.0 / 12.0))


@pytest.mark.parametrize("gradient", [True, False])
@pytest.mark.parametrize("bonds", [
    # one collapsed bond, in the last of six two-plane pieces
    (((10, 3, 4), 0.0),),
    # a short bond in the first piece raises there, with its length in the
    # message; the shortest bond, which the error names, is in the last
    (((1, 3, 4), 5e-13), ((10, 3, 4), 0.0)),
])
def test_domain_error_of_a_late_piece_is_the_one_piece_error(monkeypatch, bonds, gradient):
    """A collapsed radial bond (eta = (1, 0, 0), N=12) in a late piece
    raises the error of the batch run as one piece: the same message, and
    the site and eta of the batch's shortest bond, which the kernel finds
    on the whole batch's zeta."""
    cfg = LatticeConfig(N=(12, 12, 12), epsilon=1.0 / 12.0)
    law = make_law((1, 0, 0), "lennard-jones-radial")
    vals = np.zeros(cfg.shape)
    for site, length in bonds:
        vals[(site[0] + 1, *site[1:])] = -(1.0 - length) * cfg.epsilon * law.eta_vec
    y = make_deformation(np.eye(3), LatticeField(cfg, vals))
    errors = []
    for setting in (one_lane, chunks_and_slabs):
        setting(monkeypatch)
        with pytest.raises(PotentialDomainError) as err:
            atomistic_energy(y, InteractionSet([law]), gradient=gradient)
        errors.append((type(err.value), str(err.value), err.value.site, err.value.eta))
    assert errors[0][2:] == ((10, 3, 4), (1, 0, 0))
    assert errors[1] == errors[0]
    if len(bonds) == 2:
        assert "bond length 5" in errors[0][1], errors[0][1]


def stencil_spy(monkeypatch, hold=lambda op: None) -> list:
    """Records every stencil apply as (on the helper lane, terms, lo, hi),
    after calling ``hold`` on the applying lane."""
    seen = []
    apply = energies._Stencil.apply

    def recording(self, x, out, lo=0, hi=None, scratch=None):
        hold(self)
        seen.append((threading.current_thread() is not threading.main_thread(), self.terms, lo, hi))
        return apply(self, x, out, lo, hi, scratch)

    monkeypatch.setattr(energies._Stencil, "apply", recording)
    return seen


@pytest.mark.parametrize("slab_rows", [
    300,  # two-plane slabs: six pieces
    720,  # five-plane slabs: three pieces
])
@pytest.mark.parametrize("gradient", [True, False])
@pytest.mark.parametrize("n_laws", [1, 3])
@pytest.mark.parametrize("model, stencil", [(atomistic_energy, energies._bond_stencil),
                                            (acb_cell_energy, energies._cell_stencil)])
def test_lone_batch_split_over_two_lanes_is_bitwise_one_lane(monkeypatch, model, stencil, n_laws, gradient,
                                                            slab_rows):
    """At N=12 in pieces of ``slab_rows`` rows every law's batch is one
    stencil batch of several pieces. On two lanes, with the row threshold
    at 0, the term streams its pieces, a lone batch's (one law) as well as
    three laws' batches: the caller's first piece waits until the helper
    lane has applied one, so both lanes run pieces. The report, full and
    energy-only, is bitwise the one-lane report; every piece of every law's
    stencil was applied exactly once, on one lane or the other, and its
    transpose once, whole, by the lane that finished the unit."""
    cfg = LatticeConfig(N=(12, 12, 12), epsilon=1.0 / 12.0)
    y = state(cfg, 5)
    laws = list(README_LAWS)[-n_laws:]
    R = InteractionSet(laws)
    monkeypatch.setattr(energies, "_SLAB_ROWS", slab_rows)
    one_lane(monkeypatch)
    ref = model(y, R, gradient=gradient)
    assert ref.diagnostics["lanes"] == 1
    two_lanes(monkeypatch)
    forward = {stencil(law.eta, cfg.N).terms for law in laws}
    helper_applied = threading.Event()
    held = []

    def hold(op):
        if op.terms not in forward:
            return
        if on_helper_lane():
            helper_applied.set()
        elif not held:
            held.append(helper_applied.wait(30.0))

    seen = stencil_spy(monkeypatch, hold)
    rep = model(y, R, gradient=gradient)
    assert rep.diagnostics["lanes"] == 2
    assert_same_report(ref, rep)
    assert held == [True]

    lanes = set()
    for law in laws:
        op = stencil(law.eta, cfg.N)
        pieces = energies._pieces([(op, 1.0)], op.rows)
        assert len(pieces) == {300: 6, 720: 3}[slab_rows]
        applied = [(on_helper, lo, hi) for on_helper, terms, lo, hi in seen if terms == op.terms]
        assert sorted((lo, hi) for _, lo, hi in applied) == [planes for _, _, planes in pieces]
        lanes |= {on_helper for on_helper, _, _ in applied}
        transposed = [(lo, hi) for _, terms, lo, hi in seen if terms == op.T.terms]
        assert transposed == ([(0, None)] if gradient else [])
    assert lanes == {False, True}


def on_helper_lane() -> bool:
    return threading.current_thread() is not threading.main_thread()


def test_helper_lane_commits_while_the_callers_first_unit_is_held(monkeypatch):
    """acb-tetra at N=12 on two lanes, every staircase batch a unit of one
    piece: one stream of 18 units. The caller's first piece waits until the
    helper lane has finished a unit, whose results wait in their slot; the
    helper's next finish waits until they are added, since its contribution
    slot holds them, so the caller adds both units first. After that each
    helper piece takes 50 ms, so the helper finishes the stream's last unit
    and adds it itself. The results are added in unit order whichever lane
    adds them: the report is bitwise the one-lane report, and the helper
    lane made at least one of the 18 adds. The helper lane reserves its
    workspace, and so pulls its first piece, only once the caller has
    started unit 0: a helper thread made for this stream could otherwise
    pull unit 0 first."""
    evaluate = model_calls()["acb-tetra"]
    one_lane(monkeypatch)
    ref = evaluate()
    two_lanes(monkeypatch)
    run, finish, add = energies._Unit.run, energies._Unit.finish, energies._Term.add
    start, reserve = energies._Unit.start, energies._Workspace.reserve
    released, started = threading.Event(), threading.Event()
    helper_units, held, adds, adds_at_finish = [], [], [], []

    def spy_start(self, out):
        if not on_helper_lane():
            started.set()
        return start(self, out)

    def spy_reserve(self, units, slots):
        if on_helper_lane():
            assert started.wait(30.0)
        return reserve(self, units, slots)

    def spy_run(self, k, ws):
        if on_helper_lane():
            if released.is_set():
                time.sleep(0.05)
        elif not held:
            held.append(released.wait(30.0))
        return run(self, k, ws)

    def spy_finish(self, ws):
        if on_helper_lane():
            adds_at_finish.append(len(adds))
        results = finish(self, ws)
        if on_helper_lane():
            helper_units.append(1)
            if len(helper_units) == 1:
                released.set()
        return results

    def recording_add(self, key, results, g_outs):
        adds.append(on_helper_lane())
        return add(self, key, results, g_outs)

    monkeypatch.setattr(energies._Unit, "run", spy_run)
    monkeypatch.setattr(energies._Unit, "finish", spy_finish)
    monkeypatch.setattr(energies._Term, "add", recording_add)
    monkeypatch.setattr(energies._Unit, "start", spy_start)
    monkeypatch.setattr(energies._Workspace, "reserve", spy_reserve)
    rep = evaluate()
    assert held == [True] and len(helper_units) >= 2
    assert adds_at_finish[:2] == [0, 2] and adds[:2] == [False, False]
    assert len(adds) == 18 and any(adds)
    assert_same_report(ref, rep)


def test_earlier_units_error_wins_over_a_later_one_raised_first(monkeypatch):
    """Two laws at N=12 on two lanes in two-plane pieces, both with a
    collapsed bond in a middle piece: (2, 3, 4) in piece 1 of the first
    unit (eta = (1, 0, 0)), (5, 6, 7) in piece 2 of the second. Piece 1 of
    the first unit waits until the second unit has raised, on the other
    lane. The raised error is the first unit's, as on one lane: its type,
    message, site and eta. The caller gets it by re-running the first unit
    on one lane, which raises there once more."""
    R, deformation = collapsing_state()
    y = deformation([((2, 3, 4), (1, 0, 0)), ((5, 6, 7), (0, 1, 0))])
    one_lane(monkeypatch)
    with pytest.raises(PotentialDomainError) as serial:
        atomistic_energy(y, R)
    assert (serial.value.site, serial.value.eta) == ((2, 3, 4), (1, 0, 0))

    chunks_and_slabs(monkeypatch)
    run = energies._Unit.run
    raised = []
    later_raised = threading.Event()

    def spy(self, k, ws):
        if self.law.eta == (1, 0, 0) and k == 1:
            assert later_raised.wait(30.0)
        try:
            return run(self, k, ws)
        except PotentialDomainError:
            raised.append((self.law.eta, self.pieces[k][2]))
            later_raised.set()
            raise

    monkeypatch.setattr(energies._Unit, "run", spy)
    with pytest.raises(PotentialDomainError) as lanes:
        atomistic_energy(y, R)
    assert raised == [((0, 1, 0), (4, 6)), ((1, 0, 0), (2, 4)), ((1, 0, 0), (2, 4))]
    assert (type(lanes.value), str(lanes.value)) == (type(serial.value), str(serial.value))
    assert (lanes.value.site, lanes.value.eta) == (serial.value.site, serial.value.eta)


@pytest.mark.parametrize("collapse", [[], [((2, 3, 4), (1, 0, 0))]])
def test_helper_lane_is_done_when_the_term_returns_or_raises(monkeypatch, collapse):
    """The atomistic term of two laws at N=12 on two lanes, each helper piece
    200 ms slow, so the caller runs out of units first. When the term
    returns, or raises the first law's domain error, every future handed to
    the helper lane is done: no helper work outlives the call."""
    R, deformation = collapsing_state()
    y = deformation(collapse)
    two_lanes(monkeypatch)
    run, pool = energies._Unit.run, energies._helper()
    futures = []

    class Recording:
        @staticmethod
        def submit(fn, *args):
            futures.append(pool.submit(fn, *args))
            return futures[-1]

    def spy(self, k, ws):
        if on_helper_lane():
            time.sleep(0.2)
        return run(self, k, ws)

    monkeypatch.setattr(energies, "_helper", Recording)
    monkeypatch.setattr(energies._Unit, "run", spy)
    cfg = y.cfg
    batches = [(energies._bond_stencil(law.eta, cfg.N), 1.0, law, f"eta={law.eta}") for law in R]
    g = np.zeros((cfg.n_sites, 3))

    def term():
        return energies._term("atomistic", batches, y.F, y.displacement.values.reshape(-1, 3), cfg.epsilon, (g,))

    if collapse:
        with pytest.raises(PotentialDomainError):
            term()
    else:
        assert term().lanes == 2
    assert futures and all(f.done() for f in futures)


def test_only_the_caller_hands_out_the_helper_lane(monkeypatch):
    """Under ``chunks_and_slabs`` every N=12 stencil batch is six pieces and
    every gather one. In every model only the calling thread asks for the
    helper lane: the helper, a single worker, cannot hand work to itself.
    In the atomistic model's term of three six-piece units, the caller's
    first piece waits until the helper lane has finished a unit: the helper
    evaluates pieces of more than one unit and runs at least one finish,
    and the report is bitwise the one-lane report."""
    chunks_and_slabs(monkeypatch)
    helper = energies._helper
    asked = []

    def recording_helper():
        asked.append(on_helper_lane())
        return helper()

    monkeypatch.setattr(energies, "_helper", recording_helper)
    for name, evaluate in model_calls().items():
        assert evaluate().diagnostics["lanes"] == 2, name
    assert asked and not any(asked)

    y = state(LatticeConfig(N=(12, 12, 12), epsilon=1.0 / 12.0), 5)
    one_lane(monkeypatch)
    ref = atomistic_energy(y, README_LAWS)
    chunks_and_slabs(monkeypatch)
    run, finish = energies._Unit.run, energies._Unit.finish
    caller_started, finished = threading.Event(), threading.Event()
    held, helper_pieces, helper_finishes = [], [], []

    def spy_run(self, k, ws):
        if on_helper_lane():
            assert caller_started.wait(30.0)
            helper_pieces.append(self.law.eta)
        elif not held:
            caller_started.set()
            held.append(finished.wait(30.0))
        return run(self, k, ws)

    def spy_finish(self, ws):
        results = finish(self, ws)
        if on_helper_lane():
            helper_finishes.append(self.law.eta)
            finished.set()
        return results

    monkeypatch.setattr(energies._Unit, "run", spy_run)
    monkeypatch.setattr(energies._Unit, "finish", spy_finish)
    rep = atomistic_energy(y, README_LAWS)
    assert held == [True]
    assert len(set(helper_pieces)) > 1 and helper_finishes
    assert_same_report(ref, rep)


class ToyUnit:
    """A unit of ``_stream`` without a law and without workspace arrays:
    pieces of random small work, one of them possibly failing. Its finish
    checks that the unit was started before any of its pieces ran, and that
    every piece ran exactly once."""

    scratch_size = slot_size = contrib_size = 0

    def __init__(self, i, spins, failing):
        self.i, self.key, self.spins, self.failing = i, f"k{i}", spins, failing
        self.pieces = [None] * len(spins)
        self.ran = None

    def start(self, out):
        assert self.ran is None or self.failing is not None
        self.ran = []

    def run(self, k, ws):
        sum(range(self.spins[k]))
        if k == self.failing:
            raise ValueError(self.i)
        self.ran.append(k)

    def finish(self, ws):
        assert sorted(self.ran) == list(range(len(self.pieces)))
        self.ran = "finished"
        return [self.i]

    def alone(self, ws):
        self.start(ws.array(("unit", 0), self.slot_size))
        for k in range(len(self.pieces)):
            self.run(k, ws)
        return self.finish(ws)

    copied = alone


def test_stream_adds_each_unit_once_in_unit_order_under_fast_thread_switches(monkeypatch):
    """``_stream`` alone, 200 times, on 40 units of one to four pieces of
    random small work, with the interpreter switching threads every
    microsecond: every unit is started before its pieces run, finished once
    after all of them, and its results are added exactly once and in unit
    order; a stream with failing pieces adds exactly the units before the
    first unit with one and raises that unit's error. A lost or doubled
    update, or one out of order, breaks the list of adds. A stream runs on
    two lanes, whatever CPUs the process may use, so it has two unit
    slots."""
    monkeypatch.setattr(energies, "_LANES", 2)
    rng = np.random.default_rng(0)
    helper = energies._helper()
    n = 40
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(200):
            failing = set(rng.choice(n, size=rng.integers(0, 3), replace=False).tolist())
            units = []
            for i in range(n):
                spins = rng.integers(0, 300, rng.integers(1, 5))
                units.append(ToyUnit(i, spins, int(rng.integers(len(spins))) if i in failing else None))
            added = []

            def stream():
                energies._stream(helper, units, lambda key, results: added.append((key, results)))

            first = min(failing, default=n)
            if failing:
                with pytest.raises(ValueError) as err:
                    stream()
                assert err.value.args == (first,)
            else:
                stream()
            assert added == [(f"k{i}", [i]) for i in range(first)]
    finally:
        sys.setswitchinterval(interval)


def test_a_finish_overlaps_the_next_units_pieces(monkeypatch):
    """The atomistic term of the README laws at N=12 under
    ``chunks_and_slabs``: three units of six pieces. Each unit's finish
    waits until the other lane has started a piece of the next unit, and
    that piece waits until the finish is done, so one lane finishes a unit
    while the other evaluates the next one's piece; no lane idles through
    another's full-array passes. The report is bitwise the one-lane
    report."""
    y = state(LatticeConfig(N=(12, 12, 12), epsilon=1.0 / 12.0), 5)
    one_lane(monkeypatch)
    ref = atomistic_energy(y, README_LAWS)
    chunks_and_slabs(monkeypatch)
    etas = [law.eta for law in README_LAWS]
    run, finish = energies._Unit.run, energies._Unit.finish
    started = {eta: set() for eta in etas}  # threads that started a piece of the unit
    done = {eta: threading.Event() for eta in etas}
    changed = threading.Condition()
    overlapped = []

    def spy_run(self, k, ws):
        u = etas.index(self.law.eta)
        with changed:
            started[self.law.eta].add(threading.get_ident())
            changed.notify_all()
        if u > 0:
            assert done[etas[u - 1]].wait(30.0)
        return run(self, k, ws)

    def spy_finish(self, ws):
        u = etas.index(self.law.eta)
        if u + 1 < len(etas):
            with changed:
                overlapped.append(bool(changed.wait_for(lambda: started[etas[u + 1]] - {threading.get_ident()}, 30.0)))
        try:
            return finish(self, ws)
        finally:
            done[self.law.eta].set()

    monkeypatch.setattr(energies._Unit, "run", spy_run)
    monkeypatch.setattr(energies._Unit, "finish", spy_finish)
    rep = atomistic_energy(y, README_LAWS)
    assert overlapped == [True, True]
    assert_same_report(ref, rep)


class Ownership:
    """Spies on the order that lets lanes reuse their workspace arrays
    without marking them held (``_Workspace.array``, ``_Unit.start`` and
    ``finish``, ``_Term.add``), and records in ``problems`` each breach of
    it: a unit started in a unit slot that a started, unfinished unit has;
    a finish that writes the finishing lane's contribution array while the
    unit whose contributions that array holds is not yet added. ``units``
    lists the units in the order they started, and ``others`` how many
    other units were started and unfinished at each start. ``users`` maps
    each (workspace, role) to the threads that asked for that array, which
    ``check_owners`` compares with the thread each workspace belongs to."""

    def __init__(self, monkeypatch, handed):
        self.handed, self.book = handed, threading.Lock()
        self.users: dict = {}    # (id(workspace), role) -> threads that asked for the array
        self.slot_of: dict = {}  # id(unit) -> its unit slot, from its start to its finish
        self.parked: dict = {}   # thread -> its last finish's results with contributions
        self.added: dict = {}    # id(results) -> results, for every added unit
        self.units, self.others, self.problems = [], [], []
        array, start, finish, add = (energies._Workspace.array, energies._Unit.start, energies._Unit.finish,
                                     energies._Term.add)

        def spy_array(ws, role, size):
            with self.book:
                self.users.setdefault((id(ws), role), set()).add(threading.get_ident())
            return array(ws, role, size)

        def spy_start(unit, out):
            with self.book:
                self.others.append(len(self.slot_of))
                if any(np.shares_memory(out, slot) for slot in self.slot_of.values()):
                    self.problems.append(("started in a unit slot another unit has", unit.key))
                self.slot_of[id(unit)] = out
                self.units.append(unit)
            return start(unit, out)

        def spy_finish(unit, ws):
            me = threading.get_ident()
            with self.book:
                if me in self.parked and id(self.parked[me]) not in self.added:
                    self.problems.append(("contribution array reused before its unit was added", unit.key))
            results = finish(unit, ws)
            with self.book:
                del self.slot_of[id(unit)]
                if any(g is not None for _, _, g in results):
                    self.parked[me] = results
            return results

        def spy_add(term, key, results, g_outs):
            with self.book:
                self.added[id(results)] = results
            return add(term, key, results, g_outs)

        monkeypatch.setattr(energies._Workspace, "array", spy_array)
        monkeypatch.setattr(energies._Unit, "start", spy_start)
        monkeypatch.setattr(energies._Unit, "finish", spy_finish)
        monkeypatch.setattr(energies._Term, "add", spy_add)

    def check_owners(self) -> None:
        """Each workspace served one thread, and its arena and contribution
        array were asked for by that thread alone."""
        owner: dict = {}
        for ident, ws in self.handed:
            assert owner.setdefault(id(ws), ident) == ident, "a workspace served two threads"
        for (ws, role), threads in self.users.items():
            if role in ("arena", "contrib"):
                assert threads == {owner[ws]}, role


@pytest.mark.parametrize("lanes", [1, 2])
def test_unit_slots_are_held_from_the_first_piece_to_the_finish(monkeypatch, lanes):
    """acb-tetra at N=12 under ``chunks_and_slabs``, ungrouped: 18 units of
    six pieces each, on one lane and on two. Each unit is started in a unit
    slot of the calling lane's workspace once, when its first piece is
    pulled, and has it until its finish: no other unit is started in it
    meanwhile. When a unit starts, no other unit is started and unfinished
    on one lane, and at most one, the other lane's, on two. A lane's
    contribution array is written by no finish until the unit whose
    contributions it holds is added, and each workspace's arena and
    contribution array serve its own thread alone. The report is bitwise
    the one-lane report."""
    evaluate = model_calls()["acb-tetra"]
    one_lane(monkeypatch)
    ref = evaluate()
    chunks_and_slabs(monkeypatch)
    monkeypatch.setattr(energies, "_LANES", lanes)
    spy = Ownership(monkeypatch, fresh_workspaces(monkeypatch))
    rep = evaluate()
    assert rep.diagnostics["lanes"] == lanes
    assert len(spy.units) == len({id(u) for u in spy.units}) == 18
    assert max(spy.others) <= lanes - 1 and not spy.slot_of
    assert len(spy.added) == 18 and spy.problems == []
    spy.check_owners()
    assert_same_report(ref, rep)


@pytest.mark.parametrize("gradient", [True, False])
def test_domain_error_of_a_split_batch_is_the_one_lane_error(monkeypatch, gradient):
    """eta = (1, 0, 0) alone at N=12 in two-plane pieces, streamed on two
    lanes (the row threshold at 0): a radial bond of length 5e-13 at
    (2, 3, 4), in piece 1, and a collapsed one at (5, 3, 4), in piece 2.
    Either lane may raise first; the error is one lane's: piece 1's
    message, with its bond length, and the site and eta of the batch's
    shortest bond."""
    cfg = LatticeConfig(N=(12, 12, 12), epsilon=1.0 / 12.0)
    law = make_law((1, 0, 0), "lennard-jones-radial")
    vals = np.zeros(cfg.shape)
    for site, length in (((2, 3, 4), 5e-13), ((5, 3, 4), 0.0)):
        vals[(site[0] + 1, *site[1:])] = -(1.0 - length) * cfg.epsilon * law.eta_vec
    y = make_deformation(np.eye(3), LatticeField(cfg, vals))
    monkeypatch.setattr(energies, "_SLAB_ROWS", 300)
    monkeypatch.setattr(energies, "_MIN_LANE_ROWS", 0)
    pieces = energies._pieces([(energies._bond_stencil(law.eta, cfg.N), 1.0)], 12**3)
    assert [planes for _, _, planes in pieces[1:3]] == [(2, 4), (4, 6)]
    errors = []
    for lanes in (1, 2):
        monkeypatch.setattr(energies, "_LANES", lanes)
        with pytest.raises(PotentialDomainError) as err:
            atomistic_energy(y, InteractionSet([law]), gradient=gradient)
        errors.append((type(err.value), str(err.value), err.value.site, err.value.eta))
    assert errors[0][2:] == ((5, 3, 4), (1, 0, 0))
    assert "bond length 5" in errors[0][1], errors[0][1]
    assert errors[1] == errors[0]


def fresh_workspaces(monkeypatch) -> list:
    """Gives every thread a new workspace, as in a fresh process, and
    records each (thread, workspace) that ``_workspace`` hands out."""
    monkeypatch.setattr(energies, "_lanes", threading.local())
    workspace, handed = energies._workspace, []

    def recording():
        ws = workspace()
        handed.append((threading.get_ident(), ws))
        return ws

    monkeypatch.setattr(energies, "_workspace", recording)
    return handed


def all_buffers(handed) -> list:
    return [a for ws in {id(ws): ws for _, ws in handed}.values() for a in ws.arrays.values()]


def coupled_ho3_call(**kw):
    """coupled-ho(3) on the state and region of ``model_calls``, with seeded
    free-node displacements."""
    cfg = LatticeConfig(N=(12, 12, 12), epsilon=1.0 / 12.0)
    part = RegionPartition(cfg, (4, 4, 4), (4, 4, 4))
    y = state(cfg, 1)
    n_free = build_high_order_mesh(part, 3).n_free_nodes
    nodes = 0.05 * cfg.epsilon * np.random.default_rng(4).standard_normal((n_free, 3))
    return lambda: high_order_energy(y, README_LAWS, part, k=3, node_displacements=nodes, **kw)


@pytest.mark.parametrize("chunk", [None, 864])
@pytest.mark.parametrize("model", ["atomistic", "acb-tetra", "coupled", "coupled-ho(3)"])
def test_every_law_call_writes_into_a_unit_slot(monkeypatch, model, chunk):
    """The law writes phi and phi' straight into the unit slots: every law
    call of the model at N=12, full and energy-only, is given ``out``
    arrays that are views of a unit slot of a lane's workspace, and returns
    them; the reports keep every bit. So also with law chunks of 864 rows,
    where a unit of one stencil batch has 1,729 rows and its last chunk
    holds the F eta row alone."""
    calls = [coupled_ho3_call(gradient=g) if model == "coupled-ho(3)" else model_calls(gradient=g)[model]
             for g in (True, False)]
    refs = [call() for call in calls]
    if chunk:
        monkeypatch.setattr(energies, "_LAW_CHUNK", chunk)
    evaluate, rows, strays, inner = InteractionLaw.evaluate, [], [], threading.local()

    def spy(self, zeta, order=2, *given):  # ``out``, if given, positionally, as the kernel passes it
        if getattr(inner, "call", False):  # the law's own two-row call for a lone bond
            return evaluate(self, zeta, order, *given)
        slots = [a for ws in list(energies._every_workspace) for role, a in ws.arrays.items() if role[0] == "unit"]
        inner.call = True
        try:
            got = evaluate(self, zeta, order, *given)
        finally:
            inner.call = False
        rows.append(len(zeta))
        out = given[0] if given else None
        if out is None or not all(any(np.shares_memory(a, s) for s in slots) and a is b for a, b in zip(out, got)):
            strays.append((self.eta, order, len(zeta)))
        return got

    monkeypatch.setattr(InteractionLaw, "evaluate", spy)
    for ref, call in zip(refs, calls):
        assert_same_report(ref, call())
    assert rows and strays == []
    assert 1 in rows or not chunk


@pytest.mark.parametrize("model", ["coupled", "coupled-ho(3)", "acb-tetra"])
def test_a_second_warm_call_allocates_no_workspace_array(monkeypatch, model):
    """On two lanes with the row threshold at 0, so that every term of two
    units or more streams, from fresh workspaces: the first call of the
    model at N=12 allocates the lanes' workspace arrays (``_allocate``, the
    one allocation of every workspace array, whichever lane serves which
    unit); a second call, and then an energy-only one, allocate none. Both
    reports are the bits of one lane."""
    full = coupled_ho3_call() if model == "coupled-ho(3)" else model_calls()[model]
    energy = coupled_ho3_call(gradient=False) if model == "coupled-ho(3)" else model_calls(gradient=False)[model]
    one_lane(monkeypatch)
    refs = full(), energy()
    two_lanes(monkeypatch)
    handed = fresh_workspaces(monkeypatch)
    allocate, allocated = energies._allocate, []

    def counting(size):
        allocated.append(size)
        return allocate(size)

    monkeypatch.setattr(energies, "_allocate", counting)
    assert full().diagnostics["lanes"] == 2
    first = len(allocated)
    assert first > 0 and len({ident for ident, _ in handed}) == 2
    sizes = [a.size for a in all_buffers(handed)]
    reps = full(), energy()
    assert len(allocated) == first
    assert [a.size for a in all_buffers(handed)] == sizes
    for ref, rep in zip(refs, reps):
        assert_same_report(ref, rep)


def test_a_block_build_lets_go_of_every_workspace(monkeypatch):
    """On two lanes with the row threshold at 0, from fresh workspaces: a
    coupled call on a region whose blocks are cached builds nothing and
    keeps every buffer. A call on a region whose blocks are not cached
    builds its three blocks, each of which first lets go of every buffer
    (``_drop_workspaces``), and then reserves them again. Both reports are
    bitwise those of one lane."""
    cfg = LatticeConfig(N=(12, 12, 12), epsilon=1.0 / 12.0)
    y = state(cfg, 1)
    part_a, part_b = RegionPartition(cfg, (4, 4, 4), (4, 4, 4)), RegionPartition(cfg, (3, 4, 5), (4, 4, 4))
    one_lane(monkeypatch)
    refs = [coupled_energy_conforming(y, README_LAWS, part) for part in (part_a, part_b)]
    two_lanes(monkeypatch)
    handed = fresh_workspaces(monkeypatch)
    drop, dropped = energies._drop_workspaces, []

    def recording():
        drop()
        dropped.append(sum(a.size for a in all_buffers(handed)))

    monkeypatch.setattr(coupling, "_drop_workspaces", recording)
    coupled_energy_conforming(y, README_LAWS, part_a)
    assert_same_report(refs[0], coupled_energy_conforming(y, README_LAWS, part_a))
    assert dropped == [] and sum(a.size for a in all_buffers(handed)) > 0
    coupling._build_eta_block.cache_clear()
    assert_same_report(refs[1], coupled_energy_conforming(y, README_LAWS, part_b))
    assert dropped == [0] * len(README_LAWS)
    assert sum(a.size for a in all_buffers(handed)) > 0


# A good call after a failing one, run in this process and in a fresh one.
GOOD_CALL = """
import hashlib
import numpy as np
from bvcouple.coupling import RegionPartition, coupled_energy_conforming
from bvcouple.energies import atomistic_energy
from bvcouple.lattice import LatticeConfig, LatticeField, make_deformation
from bvcouple.potentials import InteractionSet, make_law

def good_reports():
    cfg = LatticeConfig(N=(12, 12, 12), epsilon=1.0 / 12.0)
    laws = InteractionSet([make_law((1, 0, 0), "lennard-jones-radial"), make_law((0, 1, 0), "morse-radial"),
                           make_law((0, 0, 1), "harmonic")])
    rng = np.random.default_rng(6)
    y = make_deformation(np.eye(3), LatticeField(cfg, 0.02 * cfg.epsilon * rng.standard_normal(cfg.shape)))
    readme = InteractionSet([make_law((1, 1, 1), "harmonic"),
                             make_law((2, 1, 3), "lennard-jones-radial", {"well_depth": 0.5, "sigma": 2.494438257849294}),
                             make_law((1, -1, 2), "anisotropic-toy")])
    part = RegionPartition(cfg, (4, 4, 4), (4, 4, 4))
    return [atomistic_energy(y, laws), atomistic_energy(y, laws, gradient=False),
            coupled_energy_conforming(y, readme, part)]

def digest(reports):
    h = hashlib.sha256()
    for rep in reports:
        h.update(repr((rep.energy, rep.excess, rep.breakdown)).encode())
        if rep.gradient is not None:
            h.update(rep.gradient.values.tobytes())
    return h.hexdigest()
"""


def test_a_call_after_a_failing_stream_is_bitwise_a_fresh_process(monkeypatch):
    """Three laws at N=12 on two lanes with the row threshold at 0: the
    atomistic term streams three units, and the middle one, eta = (0, 1,
    0), raises on a collapsed bond at (5, 6, 7). The call raises the
    one-lane error, on either lane. The good calls that follow on the same
    workspaces (atomistic, full and
    energy-only, and coupled on the README laws) are bitwise the reports
    of a fresh process."""
    ns: dict = {}
    exec(GOOD_CALL, ns)
    two_lanes(monkeypatch)
    handed = fresh_workspaces(monkeypatch)
    cfg = LatticeConfig(N=(12, 12, 12), epsilon=1.0 / 12.0)
    vals = np.zeros(cfg.shape)
    vals[5, 7, 7] = -cfg.epsilon * np.array([0.0, 1.0, 0.0])
    laws = InteractionSet([make_law((1, 0, 0), "lennard-jones-radial"), make_law((0, 1, 0), "morse-radial"),
                           make_law((0, 0, 1), "harmonic")])
    for gradient in (True, False):
        with pytest.raises(PotentialDomainError) as err:
            atomistic_energy(make_deformation(np.eye(3), LatticeField(cfg, vals)), laws, gradient=gradient)
        assert (err.value.site, err.value.eta) == ((5, 6, 7), (0, 1, 0))
        assert len({ident for ident, _ in handed}) == 2
    here = ns["digest"](ns["good_reports"]())
    src = str(Path(energies.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", GOOD_CALL + "\nprint(digest(good_reports()))"], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    assert done.stdout.strip() == here


@pytest.mark.parametrize("model", ["acb-tetra", "coupled", "coupled-ho(2)"])
def test_energy_only_and_gradient_calls_interleave_bitwise(monkeypatch, model):
    """On two lanes, row threshold 0 and ``chunks_and_slabs`` (units of
    several pieces, so both lanes' unit slots serve units): full and
    energy-only calls of the model, alternating on the same workspaces,
    where an energy-only call uses a shorter view of each buffer a full
    call filled, are bitwise the calls made each from fresh workspaces."""
    chunks_and_slabs(monkeypatch)
    full, energy = model_calls()[model], model_calls(gradient=False)[model]
    fresh_workspaces(monkeypatch)
    ref_full = full()
    fresh_workspaces(monkeypatch)
    ref_energy = energy()
    fresh_workspaces(monkeypatch)
    for evaluate, ref in [(energy, ref_energy), (full, ref_full)] * 2 + [(energy, ref_energy)]:
        rep = evaluate()
        assert rep.diagnostics["lanes"] == 2
        assert_same_report(ref, rep)


def test_two_lanes_never_hold_the_same_buffer_at_once(monkeypatch):
    """Every model at N=12 under ``chunks_and_slabs``, energy-only and then
    full, three times each, with the interpreter switching threads every
    microsecond. Each lane has its own workspace, checked first after the
    energy-only calls, which park no contributions and so never wait; its
    arena and contribution array serve that lane alone, and a unit slot, of
    the caller's workspace, either lane. No unit is started in a unit slot
    that a started, unfinished unit has, no finish writes a contribution
    array whose parked unit is not yet added, and every unit has finished
    by the end of its call. The reports are the bits of one lane."""
    refs = {}
    one_lane(monkeypatch)
    for gradient in (False, True):
        for name, evaluate in model_calls(gradient=gradient).items():
            refs[name, gradient] = evaluate()
    chunks_and_slabs(monkeypatch)
    handed = fresh_workspaces(monkeypatch)
    spy = Ownership(monkeypatch, handed)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for gradient in (False, True):
            for _ in range(3):
                for name, evaluate in model_calls(gradient=gradient).items():
                    rep = evaluate()
                    assert not spy.slot_of, name
                    assert_same_report(refs[name, gradient], rep)
            assert len({ident for ident, _ in handed}) == 2
            spy.check_owners()
    finally:
        sys.setswitchinterval(interval)
    assert spy.problems == []


def test_concurrent_callers_get_the_reports_of_sequential_calls(monkeypatch):
    """Two user threads on two lanes with the row threshold at 0, sharing
    the one helper lane. One streams acb-tetra at N=12 until the other is
    done, each of its adds 2 ms slow, so the helper lane often finishes
    that thread's last unit before the unit ahead of it is added; the other
    calls coupled on four regions, twice, clearing the block cache before
    the first call of each pair, so that it builds its blocks and lets go
    of every workspace (``_drop_workspaces``) while the first thread's
    units may hold views of theirs; both calls stream their terms through
    the same helper lane. Every report is bitwise the one made with no other caller."""
    cfg = LatticeConfig(N=(12, 12, 12), epsilon=1.0 / 12.0)
    y = state(cfg, 1)
    parts = [RegionPartition(cfg, corner, (4, 4, 4)) for corner in ((4, 4, 4), (3, 4, 5), (5, 4, 3), (3, 3, 3))]
    two_lanes(monkeypatch)
    tetra_ref = acb_tetra_energy(y, README_LAWS)
    coupled_refs = [coupled_energy_conforming(y, README_LAWS, part) for part in parts]
    tetra_reps, coupled_reps, failures = [], [], []
    coupled_done = threading.Event()
    add = energies._Term.add

    def slow_add(self, key, results, g_outs):
        if threading.current_thread().name == "tetra":
            time.sleep(0.002)
        return add(self, key, results, g_outs)

    def tetra():
        while not coupled_done.is_set() or not tetra_reps:
            tetra_reps.append(acb_tetra_energy(y, README_LAWS))

    def coupled():
        try:
            for part in parts * 2:
                coupling._build_eta_block.cache_clear()
                coupled_reps.append(coupled_energy_conforming(y, README_LAWS, part))
                coupled_reps.append(coupled_energy_conforming(y, README_LAWS, part))
        finally:
            coupled_done.set()

    def recording(fn):
        try:
            fn()
        except BaseException as exc:  # reported by the test thread
            failures.append(exc)

    monkeypatch.setattr(energies._Term, "add", slow_add)
    threads = [threading.Thread(target=recording, args=(fn,), name=fn.__name__) for fn in (tetra, coupled)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(120.0)
    assert not any(t.is_alive() for t in threads) and failures == []
    assert len(coupled_reps) == 4 * len(parts) and tetra_reps
    for ref, rep in zip([ref for ref in coupled_refs * 2 for _ in range(2)], coupled_reps):
        assert_same_report(ref, rep)
    for rep in tetra_reps:
        assert_same_report(tetra_ref, rep)


def test_threads_whose_first_calls_meet_make_one_helper_lane(monkeypatch):
    """Two threads ask for the helper lane at once, in a process that has
    none yet, and making the executor takes 50 ms: one executor is made,
    and both threads get it."""
    monkeypatch.setattr(energies, "_helper_pool", None)
    made, got = [], []
    barrier = threading.Barrier(2, timeout=30.0)

    def slow_executor(*args, **kw):
        time.sleep(0.05)
        made.append(ThreadPoolExecutor(*args, **kw))
        return made[-1]

    def first_call():
        barrier.wait()
        got.append(energies._helper())

    monkeypatch.setattr(energies, "ThreadPoolExecutor", slow_executor)
    threads = [threading.Thread(target=first_call) for _ in range(2)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        assert not any(t.is_alive() for t in threads)
    finally:
        for pool in made:
            pool.shutdown()
    assert len(made) == 1 and got == made * 2


def test_helper_lane_calls_no_public_function(monkeypatch):
    """Tracers wrap the public functions of bvcouple and the law's
    per-derivative views on one span stack; a call from the helper lane
    would land on the caller's stack. Records every bvcouple function
    called on a fresh helper thread, running whole units (``two_lanes``),
    and the pieces and finishes of units of several pieces too
    (``chunks_and_slabs``)."""
    monkeypatch.setattr(energies, "_helper_pool", None)  # a fresh thread picks up the profiler
    called = set()

    def profile(frame, event, arg):
        if event == "call" and threading.current_thread() is not threading.main_thread():
            code = frame.f_code
            module = frame.f_globals.get("__name__", "")
            if module.startswith("bvcouple"):
                fn = frame.f_globals.get(code.co_name)
                public = not code.co_name.startswith("_") and getattr(fn, "__code__", None) is code
                if public or code.co_name in ("values", "gradients", "hessians"):
                    called.add(f"{module}.{code.co_name}")

    threading.setprofile(profile)
    try:
        for setting in (two_lanes, chunks_and_slabs):
            setting(monkeypatch)
            for name, evaluate in model_calls().items():
                assert evaluate().diagnostics["lanes"] == 2, name
    finally:
        threading.setprofile(None)
    assert not called


def test_reports_time_their_terms(monkeypatch):
    one_lane(monkeypatch)
    keys = {
        "coupled": {"atomistic", "continuum", "interface"},
        "coupled-dg untied": {"atomistic", "continuum", "interface", "interface_jump"},
        "coupled-dg tied": {"atomistic", "continuum", "interface", "interface_jump"},
        "naive": {"atomistic", "continuum"},
        "coupled-ho(2)": {"atomistic", "continuum", "continuum_pk", "interface"},
        "atomistic": {"atomistic"},
        "acb-tetra": {"acb-tetra"},
        "acb-cell": {"acb-cell"},
        "homogeneous coupled": {"atomistic", "continuum", "interface"},
    }
    calls = model_calls()
    assert keys.keys() == calls.keys()
    for name, want in keys.items():
        diag = calls[name]().diagnostics
        assert set(diag["term_s"]) == want, name
        assert all(t >= 0.0 for t in diag["term_s"].values())
        assert diag["lanes"] == 1


def test_coupled_reports_count_cone_tets_and_jump_rows():
    """Every coupled report carries its blocks' cone tets and jump rows per
    direction, keyed like ``counts``, which gains no class; no other report
    carries them. At N=12 on the README region the jump rows are two fine
    triangles per covering on each unit face of Gamma."""
    from bvcouple.coupling import _build_eta_block

    calls = model_calls()
    cfg = LatticeConfig(N=(12, 12, 12), epsilon=1.0 / 12.0)
    part = RegionPartition(cfg, (4, 4, 4), (4, 4, 4))
    blocks = {str(law.eta): _build_eta_block(part, law.eta) for law in README_LAWS}
    want = {
        "cone_tets": {"(1, 1, 1)": 1104, "(2, 1, 3)": 3288, "(1, -1, 2)": 1672},
        "jump_rows": {"(1, 1, 1)": 192, "(2, 1, 3)": 1152, "(1, -1, 2)": 384},
    }
    assert want["cone_tets"] == {eta: b.volw.w.size for eta, b in blocks.items()}
    assert want["jump_rows"] == {eta: b.gamma.nu_eta.size for eta, b in blocks.items()}
    for name in MODELS:
        diag = calls[name]().diagnostics
        if name in ("coupled", "coupled-dg untied", "coupled-dg tied", "coupled-ho(2)", "homogeneous coupled"):
            assert {key: diag[key] for key in want} == want, name
            assert all(type(n) is int for key in want for n in diag[key].values()), name
            assert diag["counts"].keys() == want["cone_tets"].keys(), name
            assert all(c.keys() == {"atomistic", "interface", "continuum"} for c in diag["counts"].values())
        else:
            assert not want.keys() & diag.keys(), name


@pytest.mark.parametrize("model", MODELS)
def test_energy_is_the_in_order_sum_of_the_breakdown(model):
    """``energy`` and the breakdown come from one builder: the energy is the
    left-to-right sum of the breakdown values, to the bit."""
    rep = model_calls()[model]()
    assert np.float64(rep.energy).tobytes() == np.float64(reduce(add, rep.breakdown.values())).tobytes()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_makes_its_own_helper_lane(monkeypatch):
    """The parent evaluates at N=24 on two lanes, which starts its helper
    thread; a child forked after that inherits the executor but not the
    thread, and must still finish the same evaluation, bitwise, and exit 0."""

    def digest(rep):
        return hashlib.sha256(np.float64(rep.energy).tobytes() + rep.gradient.values.tobytes()).digest()

    monkeypatch.setattr(energies, "_LANES", 2)
    cfg = LatticeConfig(N=(24, 24, 24), epsilon=1.0 / 24.0)
    part = RegionPartition(cfg, (8, 8, 8), (8, 8, 8))
    y = state(cfg, 4)
    ref = coupled_energy_conforming(y, README_LAWS, part)
    assert ref.diagnostics["lanes"] == 2
    read_end, write_end = os.pipe()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # forking a process with threads
        pid = os.fork()
    if pid == 0:  # child: report the energy's bytes, never return into pytest
        code = 1
        try:
            rep = coupled_energy_conforming(y, README_LAWS, part)
            os.write(write_end, digest(rep))
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    deadline = time.monotonic() + 60.0
    status = None
    while status is None and time.monotonic() < deadline:
        done, status_word = os.waitpid(pid, os.WNOHANG)
        status = status_word if done else None
        if status is None:
            time.sleep(0.05)
    if status is None:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        os.close(read_end)
        pytest.fail("the forked child did not finish its evaluation within 60 s")
    ready, _, _ = select.select([read_end], [], [], 1.0)
    got = os.read(read_end, 4096) if ready else b""
    os.close(read_end)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
    assert got == digest(ref)

"""Two lanes, one result: a term's bond batches run in pairs on the calling
thread and one helper thread, a lone stencil batch of several pieces deals
its pieces and its transposed halves to both, and the results are reduced
in batch order, so every report is bitwise the report of one lane. The lane count, the row threshold,
the law chunk and the stencil slab are private constants of ``energies``;
these tests set them directly."""
from __future__ import annotations

import hashlib
import os
import select
import threading
import time
import warnings
from functools import reduce
from operator import add

import numpy as np
import pytest

from bvcouple import energies
from bvcouple.coupling import (
    RegionPartition,
    coupled_energy_conforming,
    coupled_energy_dg,
    naive_coupling_energy,
)
from bvcouple.energies import acb_cell_energy, acb_tetra_energy, atomistic_energy
from bvcouple.highorder import build_high_order_mesh, high_order_energy
from bvcouple.lattice import LatticeConfig, LatticeField, make_deformation
from bvcouple.potentials import InteractionSet, PotentialDomainError, make_law

README_LAWS = InteractionSet([
    make_law((1, 1, 1), "harmonic"),
    make_law((2, 1, 3), "lennard-jones-radial", {"well_depth": 0.5, "sigma": 2.494438257849294}),
    make_law((1, -1, 2), "anisotropic-toy"),
])


def one_lane(monkeypatch):
    monkeypatch.setattr(energies, "_LANES", 1)


def two_lanes(monkeypatch):
    """Every pair of batches on two lanes, whatever its size."""
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
    diagnostics, and no gradient; under ``chunks_and_slabs`` the law runs
    at order 0 on chunked rows."""
    setting(monkeypatch)
    full = model_calls()[model]()
    rep = model_calls(gradient=False)[model]()
    assert rep.gradient is None
    assert repr((rep.energy, rep.excess, rep.breakdown)) == repr((full.energy, full.excess, full.breakdown))
    assert rep.model == full.model
    assert rep.diagnostics["term_s"].keys() == full.diagnostics["term_s"].keys()
    assert not GRADIENT_BLOCKS & rep.diagnostics.keys()
    drop = GRADIENT_BLOCKS | {"term_s"}
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
            results = list(energies._bond_group(pairs, law, F, x, 1.0 / 12.0))
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
    # only the second batch of the pair fails: it ran on the helper lane
    ([((5, 6, 7), (0, 1, 0))], (5, 6, 7), (0, 1, 0)),
    # both fail: the first in batch order, the caller's, is the one raised
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
    group = energies._bond_group

    def slow_helper(*args, **kwargs):
        running.append(1)
        try:
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.2)  # the caller's batch is done long before
            return list(group(*args, **kwargs))
        finally:
            running.pop()

    monkeypatch.setattr(energies, "_bond_group", slow_helper)
    with pytest.raises(PotentialDomainError) as lanes:
        atomistic_energy(y, R)
    assert not running, "helper work outlived the call"
    assert type(lanes.value) is type(serial.value)
    assert str(lanes.value) == str(serial.value)
    assert (lanes.value.site, lanes.value.eta) == (site, eta)


def test_one_lane_pair_adds_its_first_unit_before_it_computes_the_second(monkeypatch):
    """On one lane a pair of units, here the first two of the README laws'
    bond batches at N=12, is computed and added one unit at a time: when
    the kernel starts a unit, the gradient already holds every earlier
    unit's contribution, so one lane never holds two units' results."""
    one_lane(monkeypatch)
    cfg = LatticeConfig(N=(12, 12, 12), epsilon=1.0 / 12.0)
    y = state(cfg, 1)
    batches = [(energies._bond_stencil(law.eta, cfg.N), 1.0, law, f"eta={law.eta}") for law in README_LAWS]
    assert len(energies._groups(batches)) == 3
    g = np.zeros((cfg.n_sites, 3))
    at_start, contributions = [], []
    group = energies._bond_group

    def spy(*args, **kwargs):
        at_start.append(g.copy())
        results = group(*args, **kwargs)
        contributions.extend(contrib for _, _, contrib in results)
        return results

    monkeypatch.setattr(energies, "_bond_group", spy)
    energies._term("atomistic", batches, y.F, y.displacement.values.reshape(-1, 3), cfg.epsilon, (g,))
    assert len(at_start) == 3
    assert not at_start[0].any()
    assert np.array_equal(at_start[1], contributions[0])
    assert np.array_equal(at_start[2], contributions[0] + contributions[1])


def recorded_pieces(monkeypatch, keep=lambda pairs: True) -> list:
    """Records the pieces of every group ``_bond_group`` runs whose pairs
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
        return [(e, de, g.tobytes()) for e, de, g in energies._bond_group(pairs, law, np.eye(3), x, 1.0 / 12.0)]

    ref = results()
    chunks_and_slabs(monkeypatch)
    assert len(energies._pieces(pairs, 12**3)) == 6
    assert results() == ref
    with pytest.raises(PotentialDomainError):
        list(energies._bond_group([(pairs[0][0], 1.0)], law, np.eye(3), x, 1.0 / 12.0))


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


def stencil_spy(monkeypatch) -> list:
    """Records every stencil apply as (on the helper lane, terms, lo, hi)."""
    seen = []
    apply = energies._Stencil.apply

    def recording(self, x, out, lo=0, hi=None):
        seen.append((threading.current_thread() is not threading.main_thread(), self.terms, lo, hi))
        return apply(self, x, out, lo, hi)

    monkeypatch.setattr(energies._Stencil, "apply", recording)
    return seen


@pytest.mark.parametrize("slab_rows", [
    300,  # two-plane slabs: six pieces, the last (with F eta) on the helper lane
    720,  # five-plane slabs: three pieces, the last on the caller
])
@pytest.mark.parametrize("gradient", [True, False])
@pytest.mark.parametrize("n_laws", [1, 3])
@pytest.mark.parametrize("model, stencil", [(atomistic_energy, energies._bond_stencil),
                                            (acb_cell_energy, energies._cell_stencil)])
def test_lone_batch_split_over_two_lanes_is_bitwise_one_lane(monkeypatch, model, stencil, n_laws, gradient,
                                                            slab_rows):
    """At N=12 under the default row threshold the batches of a pair run
    serially, and a term's lone unit (the last of three laws, or the only
    law) is one stencil batch in pieces of ``slab_rows`` rows. On two lanes
    it deals pieces 1, 3, ... to the helper lane and applies its transpose
    in two halves of six planes, the upper on the helper. The report, full
    and energy-only, is bitwise the one-lane report, and the helper ran
    exactly those pieces and that half."""
    cfg = LatticeConfig(N=(12, 12, 12), epsilon=1.0 / 12.0)
    y = state(cfg, 5)
    laws = list(README_LAWS)[-n_laws:]
    R = InteractionSet(laws)
    monkeypatch.setattr(energies, "_SLAB_ROWS", slab_rows)
    one_lane(monkeypatch)
    ref = model(y, R, gradient=gradient)
    assert ref.diagnostics["lanes"] == 1
    monkeypatch.setattr(energies, "_LANES", 2)
    seen = stencil_spy(monkeypatch)
    rep = model(y, R, gradient=gradient)
    assert rep.diagnostics["lanes"] == 2
    assert_same_report(ref, rep)

    op = stencil(laws[-1].eta, cfg.N)
    pieces = energies._pieces([(op, 1.0)], op.rows)
    assert len(pieces) == {300: 6, 720: 3}[slab_rows]
    helper = [(terms, lo, hi) for on_helper, terms, lo, hi in seen if on_helper]
    want = [(op.terms, *planes) for _, _, planes in pieces[1::2]]
    if gradient:
        want.append((op.T.terms, 6, 12))
        assert (False, op.T.terms, 0, 6) in seen
    assert helper == want


@pytest.mark.parametrize("gradient", [True, False])
def test_domain_error_of_a_split_batch_is_the_one_lane_error(monkeypatch, gradient):
    """eta = (1, 0, 0) alone at N=12 in two-plane pieces, dealt to two
    lanes: a radial bond of length 5e-13 at (2, 3, 4), in piece 1 (the
    helper's), and a collapsed one at (5, 3, 4), in piece 2 (the caller's).
    Both lanes raise; the error is one lane's: piece 1's message, with its
    bond length, and the site and eta of the batch's shortest bond."""
    cfg = LatticeConfig(N=(12, 12, 12), epsilon=1.0 / 12.0)
    law = make_law((1, 0, 0), "lennard-jones-radial")
    vals = np.zeros(cfg.shape)
    for site, length in (((2, 3, 4), 5e-13), ((5, 3, 4), 0.0)):
        vals[(site[0] + 1, *site[1:])] = -(1.0 - length) * cfg.epsilon * law.eta_vec
    y = make_deformation(np.eye(3), LatticeField(cfg, vals))
    monkeypatch.setattr(energies, "_SLAB_ROWS", 300)
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


def test_helper_lane_calls_no_public_function(monkeypatch):
    """Tracers wrap the public functions of bvcouple and the law's
    per-derivative views on one span stack; a call from the helper lane
    would land on the caller's stack. Records every bvcouple function
    called on a fresh helper thread, running whole units (``two_lanes``),
    and the pieces and transposed halves of lone stencil batches too
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

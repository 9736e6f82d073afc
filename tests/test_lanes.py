"""Two lanes, one result: a term's bond batches run in pairs on the calling
thread and one helper thread, and are reduced in batch order, so every
report is bitwise the report of one lane. The lane count, the row threshold,
the law chunk and the stencil slab are private constants of ``energies``;
these tests set them directly."""
from __future__ import annotations

import hashlib
import os
import select
import threading
import time
import warnings

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
    rows is then two whole chunks, which would leave F eta alone in a third
    one-row call) and stencil slabs of two planes."""
    two_lanes(monkeypatch)
    monkeypatch.setattr(energies, "_LAW_CHUNK", 864)
    monkeypatch.setattr(energies, "_SLAB_ROWS", 300)


def state(cfg, seed, amplitude=0.05):
    rng = np.random.default_rng(seed)
    F = np.eye(3) + 0.05 * rng.standard_normal((3, 3))
    v = LatticeField(cfg, amplitude * cfg.epsilon * rng.standard_normal(cfg.shape))
    return make_deformation(F, v)


def model_calls():
    """Every model at a seeded non-homogeneous state, at N=12 with the README
    laws; each entry evaluates to a report."""
    cfg = LatticeConfig(N=(12, 12, 12), epsilon=1.0 / 12.0)
    part = RegionPartition(cfg, (4, 4, 4), (4, 4, 4))
    y = state(cfg, 1)
    y_plus = make_deformation(y.F, state(cfg, 2).displacement)
    n_free = build_high_order_mesh(cfg, part, 2).n_free_nodes
    nodes = 0.05 * cfg.epsilon * np.random.default_rng(3).standard_normal((n_free, 3))
    R = README_LAWS
    return {
        "atomistic": lambda: atomistic_energy(y, R),
        "acb-tetra": lambda: acb_tetra_energy(y, R),
        "acb-cell": lambda: acb_cell_energy(y, R),
        "coupled": lambda: coupled_energy_conforming(y, R, part),
        "coupled-dg untied": lambda: coupled_energy_dg(y, y_plus, R, part),
        "coupled-dg tied": lambda: coupled_energy_dg(y, y, R, part),
        "naive": lambda: naive_coupling_energy(y, R, part),
        "coupled-ho(2)": lambda: high_order_energy(y, R, part, k=2, node_displacements=nodes),
        "homogeneous coupled": lambda: coupled_energy_conforming(make_deformation(y.F, LatticeField.zeros(cfg)), R, part),
    }


MODELS = ("atomistic", "acb-tetra", "acb-cell", "coupled", "coupled-dg untied", "coupled-dg tied", "naive",
          "coupled-ho(2)", "homogeneous coupled")


def assert_same_report(a, b):
    assert a.energy == b.energy
    assert a.excess == b.excess
    assert a.breakdown == b.breakdown
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


def test_chunked_homogeneous_batch_has_zero_excess(monkeypatch):
    """At zeta = F eta every row's phi must equal phi(F eta) to the bit, or
    the excess of y_F is not 0.0. A one-row call of the toy law can round
    its matrix products differently from a many-row one (in about one of
    fifteen of these F), so F eta must never be evaluated alone: here the
    1,728 rows fill two chunks of 864 exactly."""
    monkeypatch.setattr(energies, "_LAW_CHUNK", 864)
    law = make_law((1, -1, 2), "anisotropic-toy")
    op = energies._bond_stencil(law.eta, (12, 12, 12))
    x = np.zeros((12**3, 3))
    rng = np.random.default_rng(7)
    for _ in range(200):
        F = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
        _, excess, _, _ = energies._bond_batch(op, 1.0, law, F, x, 1.0 / 12.0)
        assert excess == 0.0


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
    batch = energies._bond_batch

    def slow_helper(*args, **kwargs):
        running.append(1)
        try:
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.2)  # the caller's batch is done long before
            return batch(*args, **kwargs)
        finally:
            running.pop()

    monkeypatch.setattr(energies, "_bond_batch", slow_helper)
    with pytest.raises(PotentialDomainError) as lanes:
        atomistic_energy(y, R)
    assert not running, "helper work outlived the call"
    assert type(lanes.value) is type(serial.value)
    assert str(lanes.value) == str(serial.value)
    assert (lanes.value.site, lanes.value.eta) == (site, eta)


def test_helper_lane_calls_no_public_function(monkeypatch):
    """Tracers wrap the public functions of bvcouple and the law's
    per-derivative views on one span stack; a call from the helper lane
    would land on the caller's stack. Records every bvcouple function
    called on a fresh helper thread."""
    two_lanes(monkeypatch)
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
        "naive": {"atomistic", "continuum"},
        "coupled-ho(2)": {"atomistic", "continuum_p1", "continuum_pk", "interface"},
        "atomistic": {"atomistic"},
    }
    calls = model_calls()
    for name, want in keys.items():
        diag = calls[name]().diagnostics
        assert set(diag["term_s"]) == want, name
        assert all(t >= 0.0 for t in diag["term_s"].values())
        assert diag["lanes"] == 1


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

"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line with the measured figure next to its threshold.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
summary lines on passing runs too).
"""
from __future__ import annotations

import time

import numpy as np
import pytest

from bvcouple.coupling import (
    BondClass,
    RegionPartition,
    coupled_energy_conforming,
    coupled_energy_dg,
    naive_coupling_energy,
    omega_star_mask,
)
from bvcouple.energies import acb_cell_energy, acb_tetra_energy, atomistic_energy
from bvcouple.geometry import lemma_residual
from bvcouple.harness import config_from_dict, consistency_sweep
from bvcouple.highorder import high_order_energy
from bvcouple.lattice import (
    LatticeConfig,
    LatticeField,
    diff_quotient,
    discrete_inner_product,
    make_deformation,
)
from bvcouple.potentials import (
    InteractionSet,
    cb_energy_density,
    make_law,
    piola_stress,
)
from geometry_oracle import classify_bond_volume, covering_interpolant, decompose_cell_type_a, p1_gradient


def _line(number: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"{status} criterion {number} ({name}): {detail}")


def cfg12() -> LatticeConfig:
    return LatticeConfig(N=(12, 12, 12), epsilon=1.0 / 12.0)


def part_4cubed(cfg) -> RegionPartition:
    return RegionPartition(cfg, (4, 4, 4), (4, 4, 4))


def mixed_laws() -> InteractionSet:
    """harmonic + Lennard-Jones radial + anisotropic toy on the three
    reference directions; the LJ sigma keeps bonds on the soft tail so
    finite differences stay well conditioned."""
    return InteractionSet([
        make_law((1, 1, 1), "harmonic"),
        make_law(
            (2, 1, 3), "lennard-jones-radial",
            {"well_depth": 0.5, "sigma": 2.494438257849294},
        ),
        make_law((1, -1, 2), "anisotropic-toy"),
    ])


def harmonic_laws() -> InteractionSet:
    return InteractionSet([
        make_law((1, 1, 1), "harmonic"),
        make_law((2, 1, 3), "harmonic"),
        make_law((1, -1, 2), "harmonic"),
    ])


def draw_F(rng, spread=0.08):
    F = np.eye(3) + spread * rng.standard_normal((3, 3))
    while np.linalg.det(F) <= 0.2:
        F = np.eye(3) + spread * rng.standard_normal((3, 3))
    return F


def scaled(residual: float, R: InteractionSet, F: np.ndarray, eps: float) -> float:
    return residual / max(1.0, float(np.abs(piola_stress(R, F)).max()) / eps)


@pytest.fixture(scope="module")
def homogeneous_runs():
    """Reports for every model at y_F for 10 random F, shared by the
    ghost-force and homogeneous-energy criteria."""
    cfg = cfg12()
    part = part_4cubed(cfg)
    R = mixed_laws()
    rng = np.random.default_rng(2024)
    runs = []
    for _ in range(10):
        F = draw_F(rng)
        y = make_deformation(F, LatticeField.zeros(cfg))
        reports = {
            "atomistic": atomistic_energy(y, R),
            "acb-tetra": acb_tetra_energy(y, R),
            "acb-cell": acb_cell_energy(y, R),
            "coupled": coupled_energy_conforming(y, R, part),
            "coupled-dg": coupled_energy_dg(y, y, R, part),
            "coupled-ho(2)": high_order_energy(y, R, part, k=2),
            "coupled-ho(3)": high_order_energy(y, R, part, k=3),
        }
        scale = max(1.0, float(np.abs(piola_stress(R, F)).max()) / cfg.epsilon)
        runs.append((F, reports, scale))
    return cfg, R, runs


def test_criterion_01_bond_volume_lemma():
    cfg = cfg12()
    rng = np.random.default_rng(31)
    u = LatticeField(cfg, rng.standard_normal(cfg.shape))
    eps = cfg.epsilon
    worst = 0.0
    for _ in range(100):
        eta = tuple(int(rng.integers(1, 4)) * int(rng.choice((-1, 1))) for _ in range(3))
        ell = tuple(int(x) for x in rng.integers(0, 12, size=3))
        res = lemma_residual(u, ell, eta)
        bond_end = tuple(ell[k] + eta[k] for k in range(3))
        denom = eps**2 * max(1.0, float(np.abs(u.at(bond_end) - u.at(ell)).max()))
        worst = max(worst, res / denom)

    A = np.array([[2.0, 1.0, -1.0], [0.0, 3.0, 1.0], [1.0, -2.0, 2.0]])
    idx = np.indices(cfg.N).astype(float)
    affine = LatticeField(cfg, np.einsum("ij,jabc->abci", A, idx))
    affine_res = max(
        lemma_residual(affine, ell, eta)
        for ell, eta in (((0, 0, 0), (1, 1, 1)), ((5, 2, 7), (2, 1, 3)),
                         ((3, 9, 4), (-3, 2, -1)), ((8, 9, 8), (1, -2, 3)))
    )
    ok = worst <= 1e-13 and affine_res == 0.0
    _line(1, "bond-volume lemma", ok,
          f"worst relative residual {worst:.3e} <= 1e-13 over 100 draws; "
          f"affine residual {affine_res!r} (exact zero required)")
    assert ok


def test_criterion_02_ghost_force_free_conforming(homogeneous_runs):
    cfg, R, runs = homogeneous_runs
    worst = max(
        reports["coupled"].gradient.max_norm() / scale for _, reports, scale in runs
    )
    ok = worst <= 1e-12
    _line(2, "ghost-force-freeness, conforming", ok,
          f"worst scaled gradient max-norm {worst:.3e} <= 1e-12 over 10 random F")
    assert ok


def test_criterion_03_ghost_force_free_dg_and_high_order(homogeneous_runs):
    cfg, R, runs = homogeneous_runs
    worst = 0.0
    for _, reports, scale in runs:
        dg = reports["coupled-dg"]
        worst = max(
            worst,
            dg.gradient.max_norm() / scale,
            dg.diagnostics["gradient_minus"].max_norm() / scale,
            dg.diagnostics["gradient_plus"].max_norm() / scale,
        )
        for key in ("coupled-ho(2)", "coupled-ho(3)"):
            rep = reports[key]
            worst = max(worst, rep.gradient.max_norm() / scale)
            node = rep.diagnostics["node_gradient"]
            if node.size:
                worst = max(worst, float(np.abs(node).max()) / scale)
    ok = worst <= 1e-11
    _line(3, "ghost-force-freeness, two-sided and high-order", ok,
          f"worst scaled residual {worst:.3e} <= 1e-11 "
          "(both trace blocks; lattice and element-node blocks, k = 2, 3)")
    assert ok


def test_criterion_04_naive_control_fires_and_is_local():
    cfg = cfg12()
    part = part_4cubed(cfg)
    R = InteractionSet([make_law((2, 1, 3), "anisotropic-toy")])
    y = make_deformation(np.eye(3), LatticeField.zeros(cfg))
    g = naive_coupling_energy(y, R, part).gradient.values
    scale = max(1.0, float(np.abs(piola_stress(R, np.eye(3))).max()) / cfg.epsilon)
    peak = float(np.abs(g).max()) / scale
    margin = 3  # max |eta_i|
    far_peak = 0.0
    for l0 in range(12):
        for l1 in range(12):
            for l2 in range(12):
                d = min(
                    min(abs(l - 4), abs(l - 8), abs(l - 4 - 12), abs(l - 8 + 12))
                    for l in (l0, l1, l2)
                )
                if d > margin:
                    far_peak = max(far_peak, float(np.abs(g[l0, l1, l2]).max()) / scale)
    ok = peak >= 1e-3 and far_peak <= 1e-12
    _line(4, "negative control", ok,
          f"naive scaled residual {peak:.3e} >= 1e-3, "
          f"residual beyond {margin} cells of the interface {far_peak:.3e} <= 1e-12")
    assert ok


def _fd_worst(model_eval, R, cfg, part, n_configs, seed, untied=False):
    """One central-difference probe per random configuration, along the
    model's own (zero-meaned, max-normalized) gradient direction."""
    rng = np.random.default_rng(seed)
    h = 1e-5
    worst = 0.0
    for _ in range(n_configs):
        F = np.eye(3) + 0.03 * rng.standard_normal((3, 3))
        while np.linalg.det(F) <= 0.2:
            F = np.eye(3) + 0.03 * rng.standard_normal((3, 3))
        v = LatticeField(cfg, 0.02 * cfg.epsilon * rng.standard_normal(cfg.shape))
        y = make_deformation(F, v)
        if untied:
            v2 = LatticeField(cfg, 0.02 * cfg.epsilon * rng.standard_normal(cfg.shape))
            y2 = make_deformation(F, v2)
            rep = model_eval(y, y2)

            def energy_at(t):
                ym = make_deformation(F, LatticeField(cfg, y.displacement.values + t))
                yp = make_deformation(F, LatticeField(cfg, y2.displacement.values + t))
                return model_eval(ym, yp).energy
        else:
            rep = model_eval(y)

            def energy_at(t):
                yt = make_deformation(F, LatticeField(cfg, y.displacement.values + t))
                return model_eval(yt).energy

        w = LatticeField(cfg, rep.gradient.values).zero_mean()
        wmax = float(np.abs(w.values).max())
        if wmax == 0.0:
            continue
        w = LatticeField(cfg, w.values / wmax)
        analytic = discrete_inner_product(rep.gradient, w)
        fd = (energy_at(h * w.values) - energy_at(-h * w.values)) / (2.0 * h)
        denom = max(abs(analytic), abs(fd), 1e-12)
        worst = max(worst, abs(analytic - fd) / denom)
    return worst


def test_criterion_05_gradients_match_finite_differences():
    cfg = cfg12()
    part = part_4cubed(cfg)
    evals = {
        "atomistic": lambda y, R: atomistic_energy(y, R),
        "acb-tetra": lambda y, R: acb_tetra_energy(y, R),
        "acb-cell": lambda y, R: acb_cell_energy(y, R),
        "coupled": lambda y, R: coupled_energy_conforming(y, R, part),
    }
    worst_mixed = 0.0
    worst_harm = 0.0
    for i, (name, fn) in enumerate(evals.items()):
        R = mixed_laws()
        worst_mixed = max(worst_mixed, _fd_worst(
            lambda y, R=R, fn=fn: fn(y, R), R, cfg, part, 20, seed=100 + i))
        Rh = harmonic_laws()
        worst_harm = max(worst_harm, _fd_worst(
            lambda y, R=Rh, fn=fn: fn(y, Rh), Rh, cfg, part, 20, seed=200 + i))
    R = mixed_laws()
    worst_mixed = max(worst_mixed, _fd_worst(
        lambda ym, yp, R=R: coupled_energy_dg(ym, yp, R, part),
        R, cfg, part, 20, seed=55, untied=True))
    Rh = harmonic_laws()
    worst_harm = max(worst_harm, _fd_worst(
        lambda ym, yp, R=Rh: coupled_energy_dg(ym, yp, Rh, part),
        Rh, cfg, part, 20, seed=56, untied=True))
    ok = worst_mixed <= 1e-6 and worst_harm <= 1e-9
    _line(5, "gradient correctness", ok,
          f"worst relative FD error {worst_mixed:.3e} <= 1e-6 "
          f"(5 models x 20 configurations, h = 1e-5); "
          f"purely harmonic {worst_harm:.3e} <= 1e-9")
    assert ok


def test_criterion_06_homogeneous_energy_identity(homogeneous_runs):
    cfg, R, runs = homogeneous_runs
    worst = 0.0
    for F, reports, _ in runs:
        expect = cfg.volume * cb_energy_density(R, F)
        for name, rep in reports.items():
            worst = max(worst, abs(rep.energy - expect) / abs(expect))
    ok = worst <= 1e-13
    _line(6, "homogeneous energy identity", ok,
          f"worst relative gap to |Omega| W_CB(F) {worst:.3e} <= 1e-13 "
          f"({len(runs[0][1])} models x 10 F)")
    assert ok


def test_criterion_07_locality():
    cfg = LatticeConfig(N=(16, 16, 16), epsilon=1.0 / 16.0)
    part = RegionPartition(cfg, (4, 4, 4), (8, 8, 8))
    R = InteractionSet([
        make_law((1, 1, 1), "harmonic"),
        make_law((2, 1, 1), "morse-radial"),
        make_law((1, -1, 2), "anisotropic-toy"),
    ])
    cutoff = 2 * 2  # 2 max|eta_i|
    rng = np.random.default_rng(77)
    v = LatticeField(cfg, 0.01 * cfg.epsilon * rng.standard_normal(cfg.shape))
    y = make_deformation(draw_F(rng), v)
    g_coupled = coupled_energy_conforming(y, R, part).gradient.values
    g_atom = atomistic_energy(y, R).gradient.values
    g_cb = acb_tetra_energy(y, R).gradient.values
    gscale = max(1.0, float(np.abs(g_coupled).max()))

    def gamma_distance(site):
        return min(
            min(abs(l - 4), abs(l - 12), abs(l - 4 - 16), abs(l - 12 + 16))
            for l in site
        )

    inside_sites = [(8, 8, 8)]
    outside_sites = [(0, 0, 0), (0, 8, 8), (8, 0, 8), (0, 0, 8)]
    for s in inside_sites + outside_sites:
        assert gamma_distance(s) >= cutoff
    worst = 0.0
    for s in inside_sites:
        worst = max(worst, float(np.abs(g_coupled[s] - g_atom[s]).max()) / gscale)
    for s in outside_sites:
        worst = max(worst, float(np.abs(g_coupled[s] - g_cb[s]).max()) / gscale)
    ok = worst <= 1e-13
    _line(7, "locality", ok,
          f"coupled gradient matches pure models {worst:.3e} <= 1e-13 at sites "
          f">= {cutoff} cells from the interface (16^3 torus)")
    assert ok


def test_criterion_08_covering_bookkeeping():
    eta = (2, 1, 3)
    n_eta = 6
    w = (2, 1, 3)
    etaf = np.asarray(eta, dtype=float)
    cfg = cfg12()
    part = RegionPartition(cfg, (3, 3, 3), (6, 6, 6))
    rng = np.random.default_rng(11)
    u = LatticeField(cfg, rng.standard_normal(cfg.shape))
    eps = cfg.epsilon
    covs = [covering_interpolant(m, eta, u, part) for m in range(n_eta)]
    gross = 0.0
    for c in covs:
        for p in c.pieces:
            gross += float(np.sum(
                p.volumes * np.abs(np.einsum("tij,j->ti", p.gradients, etaf)).sum(axis=1)
            ))

    # --- the bracketed rewrite: telescoped atomistic bonds + continuum
    # integral + cone integrals == covering-averaged whole-torus integral,
    # which vanishes by periodicity ---
    rhs = np.zeros(3)
    for c in covs:
        rhs += c.integral_gradient_eta() / n_eta
    group_atom = np.zeros(3)
    interface_cells = []
    for l0 in range(12):
        for l1 in range(12):
            for l2 in range(12):
                cls = classify_bond_volume(part, (l0, l1, l2), eta)
                if cls is BondClass.ATOMISTIC:
                    group_atom += eps**3 * diff_quotient(u, (l0, l1, l2), eta)
                elif cls is BondClass.INTERFACE:
                    m = (l0 % w[0] * w[1] + l1 % w[1]) * w[2] + l2 % w[2]
                    interface_cells.append((m, (l0, l1, l2)))
    group_cont = np.zeros(3)
    for cell in np.argwhere(omega_star_mask(part)):
        for tet in decompose_cell_type_a(tuple(int(c) for c in cell), cfg).tets:
            nodal = np.array([u.at(s) for s in tet.sites])
            group_cont += tet.volume * (p1_gradient(tet, nodal) @ etaf)
    cone_by_base = {(c.index, p.base): p
                    for c in covs for p in c.pieces if p.kind == "interface-cone"}
    group_intf = np.zeros(3)
    for m, ell in interface_cells:
        p = cone_by_base[(m, ell)]
        group_intf += np.einsum("t,tij,j->i", p.volumes, p.gradients, etaf) / n_eta
    lhs = group_atom + group_cont + group_intf
    rewrite_err = max(
        float(np.linalg.norm(lhs - rhs)), float(np.linalg.norm(lhs))
    ) / gross

    # --- per-tet bookkeeping: each lattice tet of a continuum-side cell is
    # covered by exactly one member per covering, and the covering-averaged
    # member integrals reproduce the fine piecewise-linear integral ---
    def tet_key(vertices):
        return tuple(sorted(
            tuple(int(round(vtx[d] / eps)) % 12 for d in range(3)) for vtx in vertices
        ))

    star_cells = [tuple(int(x) for x in c) for c in np.argwhere(omega_star_mask(part))]
    picks = rng.choice(len(star_cells), size=8, replace=False)
    per_tet_err = 0.0
    for idx in picks:
        cell = star_cells[int(idx)]
        for tet in decompose_cell_type_a(cell, cfg).tets:
            nodal = np.array([u.at(s) for s in tet.sites])
            fine = tet.volume * (p1_gradient(tet, nodal) @ etaf)
            key = tet_key(tet.vertices)
            acc = np.zeros(3)
            for c in covs:
                pieces = c.pieces_for_cell(cell)
                assert len({p.box for p in pieces}) == 1  # one member per covering
                hit = None
                for p in pieces:
                    if p.kind not in ("continuum", "interface-remainder"):
                        continue
                    for t in range(p.positions.shape[0]):
                        if tet_key(p.positions[t]) == key:
                            assert hit is None
                            hit = p.volumes[t] * (p.gradients[t] @ etaf)
                assert hit is not None
                acc += hit / n_eta
            per_tet_err = max(
                per_tet_err,
                float(np.linalg.norm(acc - fine)) / max(float(np.linalg.norm(fine)), 1.0),
            )

    ok = rewrite_err <= 1e-12 and per_tet_err <= 1e-12
    _line(8, "covering bookkeeping", ok,
          f"bracketed-rewrite residual {rewrite_err:.3e} <= 1e-12 (relative to "
          f"gross integral mass); per-tet regrouping residual {per_tet_err:.3e} <= 1e-12")
    assert ok


def test_criterion_09_consistency_sweep():
    config = config_from_dict({
        "lattice": {"N": [12, 12, 12], "epsilon": 1.0 / 12.0},
        "interactions": [
            {"eta": [1, 1, 1], "kind": "harmonic"},
            {"eta": [2, 1, 3], "kind": "lennard-jones-radial",
             "params": {"well_depth": 0.5, "sigma": 2.494438257849294}},
            {"eta": [1, -1, 2], "kind": "anisotropic-toy"},
        ],
        "model": "acb-cell",
        "seed": 1,
    })
    t0 = time.time()
    result = consistency_sweep(config)  # eps in {1/4, 1/8, 1/16, 1/32}, L = 4
    elapsed = time.time() - t0
    ok = (
        not result.exact
        and result.slope is not None
        and result.slope >= 1.9
        and elapsed <= 60.0
    )
    _line(9, "consistency sweep", ok,
          f"fitted log-log slope {result.slope:.4f} >= 1.9 over "
          f"eps in {{1/4, 1/8, 1/16, 1/32}}; runtime {elapsed:.1f}s <= 60s")
    assert ok


def test_criterion_10_dg_equals_conforming_on_continuous_data():
    cfg = cfg12()
    part = part_4cubed(cfg)
    R = mixed_laws()
    rng = np.random.default_rng(91)
    y = make_deformation(
        draw_F(rng), LatticeField(cfg, 0.02 * rng.standard_normal(cfg.shape))
    )
    ref = coupled_energy_conforming(y, R, part)
    two = coupled_energy_dg(y, y, R, part)
    ok = (
        two.energy == ref.energy
        and np.array_equal(two.gradient.values, ref.gradient.values)
        and two.breakdown["interface_jump"] == 0.0
    )
    _line(10, "two-sided = conforming on continuous data", ok,
          "energy and gradient agree bitwise; interface jump term exactly zero")
    assert ok

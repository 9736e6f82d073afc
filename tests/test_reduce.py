from __future__ import annotations

import numpy as np
import pytest

from bvcouple.coupling import (
    RegionPartition,
    coupled_energy_conforming,
    coupled_energy_dg,
    partition_violations,
)
from bvcouple.geometry import DegenerateEta, lemma_residual
from bvcouple.highorder import high_order_energy
from bvcouple.lattice import (
    LatticeConfig,
    LatticeField,
    discrete_inner_product,
    make_deformation,
)
from bvcouple.potentials import (
    InteractionSet,
    cb_energy_density,
    make_law,
    piola_stress,
)
from geometry_oracle import classify_bond_volume


def cfg12() -> LatticeConfig:
    return LatticeConfig(N=(12, 12, 12), epsilon=1.0 / 12.0)


def part_a(cfg) -> RegionPartition:
    return RegionPartition(cfg, (4, 4, 4), (4, 4, 4))


def laws_with_flat_directions() -> InteractionSet:
    """An interaction set whose last two directions have zero components and
    therefore no three-dimensional bond volume."""
    return InteractionSet([
        make_law((1, 1, 1), "harmonic"),
        make_law((0, 3, 0), "morse-radial"),
        make_law((1, 0, -2), "anisotropic-toy"),
    ])


def affine_field(cfg, A) -> LatticeField:
    idx = np.indices(cfg.N).astype(float)
    vals = np.einsum("ij,jabc->abci", np.asarray(A, dtype=float), idx)
    return LatticeField(cfg, vals)


# ----------------------------------------------------------------------
# Planar and linear forms of the bond-volume identity
# ----------------------------------------------------------------------

def test_rectangle_residual_zero_for_affine_fields():
    cfg = cfg12()
    A = np.array([[2.0, 1.0, -1.0], [0.0, 3.0, 1.0], [1.0, -2.0, 2.0]])
    u = affine_field(cfg, A)
    for eta in ((2, 3, 0), (0, 1, 2), (3, 0, -1), (-2, 0, 1)):
        assert lemma_residual(u, (5, 5, 5), eta) == 0.0


def test_rectangle_residual_small_for_random_fields():
    cfg = cfg12()
    rng = np.random.default_rng(7)
    u = LatticeField(cfg, rng.standard_normal(cfg.shape))
    for _ in range(50):
        zero_axis = int(rng.integers(3))
        eta = [int(rng.integers(1, 4)) * int(rng.choice((-1, 1))) for _ in range(3)]
        eta[zero_axis] = 0
        ell = tuple(int(x) for x in rng.integers(0, 12, size=3))
        res = lemma_residual(u, ell, tuple(eta))
        assert res <= 1e-13


def test_segment_residual_zero_for_affine_and_small_for_random():
    cfg = cfg12()
    A = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, -1.0], [2.0, 1.0, 1.0]])
    u_aff = affine_field(cfg, A)
    for eta in ((3, 0, 0), (0, -2, 0), (0, 0, 1)):
        assert lemma_residual(u_aff, (2, 9, 4), eta) == 0.0
    rng = np.random.default_rng(8)
    u = LatticeField(cfg, rng.standard_normal(cfg.shape))
    for _ in range(30):
        axis = int(rng.integers(3))
        eta = [0, 0, 0]
        eta[axis] = int(rng.integers(1, 4)) * int(rng.choice((-1, 1)))
        ell = tuple(int(x) for x in rng.integers(0, 12, size=3))
        assert lemma_residual(u, ell, tuple(eta)) <= 1e-13


# ----------------------------------------------------------------------
# Policy plumbing
# ----------------------------------------------------------------------

def test_reject_policy_raises_on_flat_directions():
    cfg = cfg12()
    part = part_a(cfg)
    R = laws_with_flat_directions()
    y = make_deformation(np.eye(3), LatticeField(cfg, np.zeros(cfg.shape)))
    with pytest.raises(DegenerateEta, match=r"\(0, 3, 0\)"):
        coupled_energy_conforming(y, R, part)
    with pytest.raises(DegenerateEta, match="zero component"):
        coupled_energy_dg(y, y, R, part)
    with pytest.raises(DegenerateEta, match="zero component"):
        high_order_energy(y, R, part, k=2)


def test_violation_messages_name_each_flat_direction():
    cfg = cfg12()
    part = part_a(cfg)
    etas = [(1, 1, 1), (0, 3, 0), (1, 0, -2)]
    msgs = partition_violations(part, etas, "reject")
    assert len(msgs) == 2
    assert any("(0, 3, 0)" in m for m in msgs)
    assert any("(1, 0, -2)" in m for m in msgs)
    assert partition_violations(part, etas, "reduce") == []


def test_classification_requires_full_rank_direction():
    cfg = cfg12()
    part = part_a(cfg)
    with pytest.raises(DegenerateEta, match="nonzero"):
        classify_bond_volume(part, (5, 5, 5), (0, 3, 0))


def test_unknown_policy_is_reported():
    cfg = cfg12()
    part = part_a(cfg)
    y = make_deformation(np.eye(3), LatticeField(cfg, np.zeros(cfg.shape)))
    R = InteractionSet([make_law((1, 1, 1), "harmonic")])
    with pytest.raises(ValueError, match="policy"):
        coupled_energy_conforming(y, R, part, degenerate_eta="drop")


# ----------------------------------------------------------------------
# Energies under the reduce policy
# ----------------------------------------------------------------------

def test_reduce_member_counts_frozen():
    cfg = cfg12()
    part = part_a(cfg)
    R = laws_with_flat_directions()
    y = make_deformation(np.eye(3), LatticeField(cfg, np.zeros(cfg.shape)))
    rep = coupled_energy_conforming(y, R, part, degenerate_eta="reduce")
    counts = rep.diagnostics["counts"]
    assert counts["(0, 3, 0)"] == {"atomistic": 0, "continuum": 1632, "interface": 96}
    assert counts["(1, 0, -2)"] == {"atomistic": 4, "continuum": 1648, "interface": 76}
    assert counts["(1, 1, 1)"] == {"atomistic": 8, "continuum": 1664, "interface": 56}
    for tally in counts.values():
        assert sum(tally.values()) == 12**3


def test_reduce_homogeneous_energy_matches_density():
    cfg = cfg12()
    part = part_a(cfg)
    R = laws_with_flat_directions()
    rng = np.random.default_rng(5)
    for _ in range(3):
        F = np.eye(3) + 0.05 * rng.standard_normal((3, 3))
        if np.linalg.det(F) <= 0.2:
            continue
        y = make_deformation(F, LatticeField(cfg, np.zeros(cfg.shape)))
        expect = cb_energy_density(R, F)  # |Omega| = 1
        for rep in (
            coupled_energy_conforming(y, R, part, degenerate_eta="reduce"),
            high_order_energy(y, R, part, k=2, degenerate_eta="reduce"),
        ):
            assert np.isclose(rep.energy, expect, rtol=1e-13, atol=0), rep.model


def test_reduce_homogeneous_state_has_no_forces():
    cfg = cfg12()
    part = part_a(cfg)
    R = laws_with_flat_directions()
    rng = np.random.default_rng(15)
    eps = cfg.epsilon
    F = np.eye(3) + 0.05 * rng.standard_normal((3, 3))
    y = make_deformation(F, LatticeField(cfg, np.zeros(cfg.shape)))
    scale = max(1.0, np.abs(piola_stress(R, F)).max() / eps)
    rep = coupled_energy_conforming(y, R, part, degenerate_eta="reduce")
    assert np.abs(rep.gradient.values).max() <= 1e-12 * scale
    rep_dg = coupled_energy_dg(y, y, R, part, degenerate_eta="reduce")
    assert np.abs(rep_dg.gradient.values).max() <= 1e-12 * scale
    assert np.abs(rep_dg.diagnostics["gradient_minus"].values).max() <= 1e-12 * scale
    assert np.abs(rep_dg.diagnostics["gradient_plus"].values).max() <= 1e-12 * scale
    rep_ho = high_order_energy(y, R, part, k=2, degenerate_eta="reduce")
    assert np.abs(rep_ho.gradient.values).max() <= 1e-12 * scale
    assert np.abs(rep_ho.diagnostics["node_gradient"]).max() <= 1e-12 * scale


def test_reduce_dg_matches_conforming_exactly():
    cfg = cfg12()
    part = part_a(cfg)
    R = laws_with_flat_directions()
    rng = np.random.default_rng(25)
    F = np.eye(3) + 0.05 * rng.standard_normal((3, 3))
    y = make_deformation(F, LatticeField(cfg, 0.01 * rng.standard_normal(cfg.shape)))
    ref = coupled_energy_conforming(y, R, part, degenerate_eta="reduce")
    two = coupled_energy_dg(y, y, R, part, degenerate_eta="reduce")
    assert two.energy == ref.energy
    assert np.array_equal(two.gradient.values, ref.gradient.values)
    assert two.breakdown["interface_jump"] == 0.0


def test_reduce_gradient_matches_finite_differences():
    cfg = cfg12()
    part = part_a(cfg)
    R = laws_with_flat_directions()
    rng = np.random.default_rng(35)
    F = np.eye(3) + 0.05 * rng.standard_normal((3, 3))
    v0 = LatticeField(cfg, 0.01 * rng.standard_normal(cfg.shape)).zero_mean()
    rep = coupled_energy_conforming(make_deformation(F, v0), R, part, degenerate_eta="reduce")
    h = 1e-5
    for _ in range(2):
        w = LatticeField(cfg, rng.standard_normal(cfg.shape)).zero_mean()
        w = LatticeField(cfg, w.values / np.abs(w.values).max())
        analytic = discrete_inner_product(rep.gradient, w)
        ep = coupled_energy_conforming(
            make_deformation(F, LatticeField(cfg, v0.values + h * w.values)),
            R, part, degenerate_eta="reduce",
        ).energy
        em = coupled_energy_conforming(
            make_deformation(F, LatticeField(cfg, v0.values - h * w.values)),
            R, part, degenerate_eta="reduce",
        ).energy
        fd = (ep - em) / (2.0 * h)
        denom = max(abs(analytic), abs(fd), 1e-12)
        assert abs(analytic - fd) / denom <= 1e-6

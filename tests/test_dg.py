from __future__ import annotations

import numpy as np
import pytest

from bvcouple.coupling import (
    RegionPartition,
    coupled_energy_conforming,
    coupled_energy_dg,
)
from bvcouple.lattice import (
    LatticeConfig,
    LatticeField,
    discrete_inner_product,
    make_deformation,
)
from bvcouple.potentials import InteractionSet, make_law, piola_stress


def cfg8() -> LatticeConfig:
    return LatticeConfig(N=(8, 8, 8), epsilon=1.0 / 8.0)


def part8(cfg) -> RegionPartition:
    return RegionPartition(cfg, (2, 2, 2), (4, 4, 4))


def laws() -> InteractionSet:
    # components within {1, 2} so every covering width divides N = 8
    return InteractionSet([
        make_law((1, 1, 1), "harmonic"),
        make_law((2, 1, 1), "morse-radial"),
        make_law((1, -1, 2), "anisotropic-toy"),
    ])


def random_F(rng, spread=0.08):
    F = np.eye(3) + spread * rng.standard_normal((3, 3))
    while np.linalg.det(F) <= 0.2:
        F = np.eye(3) + spread * rng.standard_normal((3, 3))
    return F


def random_deformation(cfg, F, seed, amplitude=0.01):
    rng = np.random.default_rng(seed)
    v = LatticeField(cfg, amplitude * rng.standard_normal(cfg.shape))
    return make_deformation(F, v)


def test_tied_sides_match_conforming_bitwise():
    """With identical traces on both sides the two-sided energy, gradient,
    and breakdown reproduce the conforming model exactly (not just to
    rounding)."""
    cfg = cfg8()
    part = part8(cfg)
    R = laws()
    rng = np.random.default_rng(3)
    y = random_deformation(cfg, random_F(rng), seed=5)

    ref = coupled_energy_conforming(y, R, part)
    two = coupled_energy_dg(y, y, R, part)

    assert two.energy == ref.energy
    assert two.excess == ref.excess
    assert np.array_equal(two.gradient.values, ref.gradient.values)
    assert two.breakdown["interface_jump"] == 0.0
    for key in ("atomistic", "continuum", "interface"):
        assert two.breakdown[key] == ref.breakdown[key]
    assert two.model == "coupled-dg"


def test_counts_match_conforming():
    """Both models read the same blocks, so the two-sided report carries
    the conforming model's member counts per direction."""
    cfg = cfg8()
    part = part8(cfg)
    R = laws()
    rng = np.random.default_rng(4)
    F = random_F(rng)
    ref = coupled_energy_conforming(random_deformation(cfg, F, seed=6), R, part)
    two = coupled_energy_dg(random_deformation(cfg, F, seed=6), random_deformation(cfg, F, seed=7), R, part)
    assert two.diagnostics["counts"] == ref.diagnostics["counts"]
    assert list(two.diagnostics["counts"]) == [str(law.eta) for law in R]


def test_jump_term_nonzero_for_discontinuous_data():
    cfg = cfg8()
    part = part8(cfg)
    R = laws()
    rng = np.random.default_rng(9)
    F = random_F(rng)
    y_minus = random_deformation(cfg, F, seed=10)
    y_plus = random_deformation(cfg, F, seed=11)
    rep = coupled_energy_dg(y_minus, y_plus, R, part)
    assert rep.breakdown["interface_jump"] != 0.0
    assert abs(rep.breakdown["interface_jump"]) > 1e-8


def test_repeated_evaluation_is_bitwise_reproducible():
    """Evaluating twice at one state gives bitwise-equal energies and
    gradients: the conforming model, and the two-sided model on untied data,
    where every part of the jump term contributes."""
    cfg = cfg8()
    part = part8(cfg)
    R = laws()
    rng = np.random.default_rng(13)
    F = random_F(rng)
    y_minus = random_deformation(cfg, F, seed=14)
    y_plus = random_deformation(cfg, F, seed=15)

    def same(a, b) -> bool:
        return np.asarray(a).tobytes() == np.asarray(b).tobytes()

    first = coupled_energy_conforming(y_minus, R, part)
    again = coupled_energy_conforming(y_minus, R, part)
    assert same(first.energy, again.energy)
    assert same(first.gradient.values, again.gradient.values)

    first = coupled_energy_dg(y_minus, y_plus, R, part)
    again = coupled_energy_dg(y_minus, y_plus, R, part)
    assert first.breakdown["interface_jump"] != 0.0
    assert same(first.energy, again.energy)
    assert all(same(first.breakdown[k], again.breakdown[k]) for k in first.breakdown)
    assert same(first.gradient.values, again.gradient.values)
    for side in ("gradient_minus", "gradient_plus"):
        assert same(first.diagnostics[side].values, again.diagnostics[side].values)


def test_tied_gradient_is_sum_of_side_gradients():
    """Perturbing both sides by the same direction must differentiate like
    the sum of the one-sided representers."""
    cfg = cfg8()
    part = part8(cfg)
    R = laws()
    rng = np.random.default_rng(21)
    F = random_F(rng)
    y_minus = random_deformation(cfg, F, seed=22)
    y_plus = random_deformation(cfg, F, seed=23)
    rep = coupled_energy_dg(y_minus, y_plus, R, part)
    g_sum = rep.diagnostics["gradient_minus"].values + rep.diagnostics["gradient_plus"].values
    scale = max(1.0, np.abs(rep.gradient.values).max())
    assert np.abs(rep.gradient.values - g_sum).max() <= 1e-12 * scale


def test_homogeneous_state_has_no_forces_on_either_side():
    cfg = cfg8()
    part = part8(cfg)
    R = laws()
    rng = np.random.default_rng(40)
    eps = cfg.epsilon
    for _ in range(3):
        F = random_F(rng)
        y = make_deformation(F, LatticeField(cfg, np.zeros(cfg.shape)))
        rep = coupled_energy_dg(y, y, R, part)
        scale = max(1.0, np.abs(piola_stress(R, F)).max() / eps)
        assert np.abs(rep.gradient.values).max() <= 1e-12 * scale
        assert np.abs(rep.diagnostics["gradient_minus"].values).max() <= 1e-12 * scale
        assert np.abs(rep.diagnostics["gradient_plus"].values).max() <= 1e-12 * scale


def test_side_gradients_match_finite_differences():
    """Central differences along random zero-mean directions, perturbing one
    side at a time; the discontinuous base state exercises the second
    derivative of the bond potential inside the interface term."""
    cfg = cfg8()
    part = part8(cfg)
    R = laws()
    rng = np.random.default_rng(50)
    F = random_F(rng)
    y_minus = random_deformation(cfg, F, seed=51)
    y_plus = random_deformation(cfg, F, seed=52)
    rep = coupled_energy_dg(y_minus, y_plus, R, part)
    h = 1e-5

    def energy(vm: LatticeField, vp: LatticeField) -> float:
        ym = make_deformation(F, vm)
        yp = make_deformation(F, vp)
        return coupled_energy_dg(ym, yp, R, part).energy

    vm0 = y_minus.displacement
    vp0 = y_plus.displacement
    for trial in range(3):
        w = LatticeField(cfg, rng.standard_normal(cfg.shape)).zero_mean()
        w = LatticeField(cfg, w.values / np.abs(w.values).max())

        # minus side only
        analytic = discrete_inner_product(rep.diagnostics["gradient_minus"], w)
        ep = energy(LatticeField(cfg, vm0.values + h * w.values), vp0)
        em = energy(LatticeField(cfg, vm0.values - h * w.values), vp0)
        fd = (ep - em) / (2.0 * h)
        denom = max(abs(analytic), abs(fd), 1e-12)
        assert abs(analytic - fd) / denom <= 1e-6, f"minus side, trial {trial}"

        # plus side only
        analytic = discrete_inner_product(rep.diagnostics["gradient_plus"], w)
        ep = energy(vm0, LatticeField(cfg, vp0.values + h * w.values))
        em = energy(vm0, LatticeField(cfg, vp0.values - h * w.values))
        fd = (ep - em) / (2.0 * h)
        denom = max(abs(analytic), abs(fd), 1e-12)
        assert abs(analytic - fd) / denom <= 1e-6, f"plus side, trial {trial}"

        # both sides together
        analytic = discrete_inner_product(rep.gradient, w)
        ep = energy(
            LatticeField(cfg, vm0.values + h * w.values),
            LatticeField(cfg, vp0.values + h * w.values),
        )
        em = energy(
            LatticeField(cfg, vm0.values - h * w.values),
            LatticeField(cfg, vp0.values - h * w.values),
        )
        fd = (ep - em) / (2.0 * h)
        denom = max(abs(analytic), abs(fd), 1e-12)
        assert abs(analytic - fd) / denom <= 1e-6, f"tied, trial {trial}"


def test_mismatched_inputs_are_rejected():
    R = laws()
    cfg = cfg8()
    part = part8(cfg)
    other_cfg = LatticeConfig(N=(16, 16, 16), epsilon=1.0 / 16.0)
    F = np.eye(3)
    y8 = make_deformation(F, LatticeField(cfg, np.zeros(cfg.shape)))
    y16 = make_deformation(F, LatticeField(other_cfg, np.zeros(other_cfg.shape)))
    with pytest.raises(ValueError, match="lattice config"):
        coupled_energy_dg(y8, y16, R, part)

    y_other_F = make_deformation(np.eye(3) * 1.1, LatticeField(cfg, np.zeros(cfg.shape)))
    with pytest.raises(ValueError, match="deformation gradient"):
        coupled_energy_dg(y8, y_other_F, R, part)


def test_one_law_evaluation_per_bond_batch(monkeypatch):
    """The kernel evaluates each unit of a term with one
    ``evaluate(zeta, 1)`` call: at N=8 per law one atomistic CSR, one group
    of the six staircase templates (512 rows each) and one cone CSR. Each
    law's phi(F eta) is evaluated once, on the lone bond F eta at order 0,
    and then kept for later units and calls. The untied two-sided call adds
    one ``evaluate(avg, 2)`` per law for the jump. The per-derivative views
    are not called at all, and every report counts its law evaluations per
    term."""
    from bvcouple.potentials import InteractionLaw

    calls, lone, inner = [], [], []
    evaluate = InteractionLaw.evaluate

    def counting(self, zeta, order=2, out=None, scratch=None):
        if inner:  # the law's own two-row call for a lone bond
            return evaluate(self, zeta, order, out, scratch)
        if np.shape(zeta) == (3,):
            lone.append((self.eta, order, tuple(zeta)))
            inner.append(1)
            try:
                return evaluate(self, zeta, order, out, scratch)
            finally:
                inner.clear()
        calls.append((self.eta, order))
        return evaluate(self, zeta, order, out, scratch)

    def forbidden(self, zeta):
        raise AssertionError("per-derivative view called inside an energy")

    monkeypatch.setattr(InteractionLaw, "evaluate", counting)
    for name in ("values", "gradients", "hessians"):
        monkeypatch.setattr(InteractionLaw, name, forbidden)
    cfg = cfg8()
    part = part8(cfg)
    R = laws()
    F = random_F(np.random.default_rng(2))
    y_minus = random_deformation(cfg, F, seed=12)
    y_plus = random_deformation(cfg, F, seed=13)

    rep = coupled_energy_conforming(y_minus, R, part)
    assert sorted(calls) == sorted((law.eta, 1) for law in R for _ in range(3))
    assert sorted(lone) == sorted((law.eta, 0, tuple(F @ law.eta_vec)) for law in R)
    assert rep.diagnostics["law_calls"] == {"atomistic": len(R), "continuum": len(R), "interface": len(R)}
    calls.clear()
    rep = coupled_energy_dg(y_minus, y_plus, R, part)
    assert rep.breakdown["interface_jump"] != 0.0
    expected = [(law.eta, 1) for law in R for _ in range(3)] + [(law.eta, 2) for law in R]
    assert sorted(calls) == sorted(expected)
    assert len(lone) == len(R)
    assert rep.diagnostics["law_calls"]["interface_jump"] == len(R)


def test_collapsed_jump_bond_names_its_triangle():
    """The jump term evaluates phi at the average of the inner and outer
    trace bonds. With y_minus = y_F and y_plus = -2 eps (l - c) on the
    cells around the outer cell c of the first fine triangle of eta =
    (1, 1, 1), the outer bond there is -eta, the same length as eta (so the
    continuum term passes), and the average is the zero bond: the domain
    error must name the triangle's min-corner lattice site and eta, like a
    collapsed bond of any other term."""
    from bvcouple.coupling import _build_eta_block
    from bvcouple.potentials import PotentialDomainError

    cfg = LatticeConfig(N=(12, 12, 12), epsilon=1.0 / 12.0)
    part = RegionPartition(cfg, (4, 4, 4), (4, 4, 4))
    R = InteractionSet([make_law((1, 1, 1), "lennard-jones-radial")])
    gamma = _build_eta_block(part, (1, 1, 1)).gamma
    c = gamma.cell[0]
    sites = np.moveaxis(np.indices(cfg.N), 0, -1)
    patch = np.all(np.abs(sites - c) <= 1, axis=-1)[..., None]
    y_minus = make_deformation(np.eye(3), LatticeField.zeros(cfg))
    y_plus = make_deformation(np.eye(3), LatticeField(cfg, np.where(patch, -2.0 * cfg.epsilon * (sites - c), 0.0)))
    corner = tuple(int(i) for i in np.mod(gamma.sites[0, 0], 12))
    assert corner == (4, 4, 4)
    for gradient in (True, False):
        with pytest.raises(PotentialDomainError) as err:
            coupled_energy_dg(y_minus, y_plus, R, part, gradient=gradient)
        assert (err.value.site, err.value.eta) == (corner, (1, 1, 1))
        assert str(err.value).endswith("(offending bond: site (4, 4, 4), eta=(1, 1, 1))")

from __future__ import annotations

import numpy as np
import pytest

from bvcouple.lattice import (
    LatticeConfig,
    LatticeField,
    canonicalize,
    diff_quotient,
    discrete_inner_product,
    make_deformation,
    sample_field,
)
from geometry_oracle import diff_quotient_field


def small_cfg() -> LatticeConfig:
    return LatticeConfig(N=(8, 8, 8), epsilon=0.25)


def test_canonicalize_basic():
    cfg = small_cfg()
    assert canonicalize((0, 0, 0), cfg) == (0, 0, 0)
    assert canonicalize((-1, 9, 8), cfg) == (7, 1, 0)
    assert canonicalize((16, -16, 5), cfg) == (0, 0, 5)


def test_canonicalize_periodicity():
    cfg = small_cfg()
    rng = np.random.default_rng(3)
    for _ in range(20):
        ell = tuple(int(x) for x in rng.integers(-30, 30, size=3))
        shifted = tuple(ell[i] + cfg.N[i] for i in range(3))
        assert canonicalize(ell, cfg) == canonicalize(shifted, cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        LatticeConfig(N=(1, 8, 8), epsilon=0.25)
    with pytest.raises(ValueError):
        LatticeConfig(N=(8, 8, 8), epsilon=0.0)


def test_volume_and_sites():
    cfg = LatticeConfig(N=(4, 6, 8), epsilon=0.5)
    assert cfg.n_sites == 4 * 6 * 8
    assert np.isclose(cfg.volume, 4 * 6 * 8 * 0.5**3)


def test_diff_quotient_homogeneous():
    """For y = Fx the deformed bond F eta + D_eta v is exactly F eta."""
    cfg = small_cfg()
    F = np.array([[1.0, 0.2, 0.0], [0.0, 1.1, 0.3], [0.1, 0.0, 0.9]])
    y = make_deformation(F, LatticeField.zeros(cfg))
    eta = (1, 2, 1)
    expect = F @ np.array(eta, dtype=float)
    for ell in [(0, 0, 0), (3, 5, 7), (7, 7, 7)]:
        got = y.F @ np.array(eta, dtype=float) + diff_quotient(y.displacement, ell, eta)
        assert np.allclose(got, expect, rtol=0, atol=1e-14)


def test_diff_quotient_constant_field():
    cfg = small_cfg()
    u = LatticeField.constant(cfg, (0.3, -1.2, 2.0))
    assert np.allclose(diff_quotient(u, (2, 2, 2), (1, -2, 3)), 0.0)


def test_diff_quotient_sine_oracle():
    # v_l = sin(2 pi l1 / N1) e1 at eps = 1/4: the quotient at the origin
    # along e1 is (sin(pi/4) - 0) / eps = 4 sin(pi/4).
    cfg = small_cfg()
    vals = np.zeros(cfg.shape)
    for l1 in range(8):
        vals[l1, :, :, 0] = np.sin(2.0 * np.pi * l1 / 8.0)
    u = LatticeField(cfg, vals)
    got = diff_quotient(u, (0, 0, 0), (1, 0, 0))
    assert np.isclose(got[0], 2.8284271247461903, rtol=0, atol=1e-14)
    assert got[1] == 0.0 and got[2] == 0.0


def test_diff_quotient_wraparound():
    """The bond from the last site wraps to the first."""
    cfg = small_cfg()
    rng = np.random.default_rng(0)
    u = LatticeField(cfg, rng.standard_normal(cfg.shape))
    got = diff_quotient(u, (7, 0, 0), (1, 0, 0))
    expect = (u.at((0, 0, 0)) - u.at((7, 0, 0))) / cfg.epsilon
    assert np.allclose(got, expect, rtol=0, atol=0)


def test_torus_consistency_identity():
    # D_eta u at l equals -D_{-eta} u at l + eta, site by site.
    cfg = small_cfg()
    rng = np.random.default_rng(12)
    u = LatticeField(cfg, rng.standard_normal(cfg.shape))
    for eta in [(1, 0, 0), (2, 1, 3), (-1, 2, -2)]:
        for _ in range(10):
            ell = tuple(int(x) for x in rng.integers(0, 8, size=3))
            lhs = diff_quotient(u, ell, eta)
            rhs = -diff_quotient(u, tuple(ell[i] + eta[i] for i in range(3)),
                                 tuple(-e for e in eta))
            assert np.allclose(lhs, rhs, rtol=0, atol=0)


def test_translation_invariance_of_differences():
    cfg = small_cfg()
    rng = np.random.default_rng(7)
    u = LatticeField(cfg, rng.standard_normal(cfg.shape))
    shifted = u + LatticeField.constant(cfg, (1.5, -0.5, 2.0))
    field_a = diff_quotient_field(u, (2, -1, 1))
    field_b = diff_quotient_field(shifted, (2, -1, 1))
    assert np.allclose(field_a, field_b, rtol=0, atol=1e-13)


def test_periodic_telescoping():
    """Site sum of any difference-quotient field vanishes on the torus."""
    cfg = small_cfg()
    rng = np.random.default_rng(5)
    u = LatticeField(cfg, rng.standard_normal(cfg.shape))
    for eta in [(1, 0, 0), (2, 1, 3), (0, -2, 1)]:
        d = diff_quotient_field(u, eta)
        total = cfg.epsilon**3 * d.reshape(-1, 3).sum(axis=0)
        scale = np.abs(u.values).sum()
        assert np.all(np.abs(total) <= 1e-13 * scale)


def test_diff_quotient_zero_eta_rejected():
    cfg = small_cfg()
    u = LatticeField.zeros(cfg)
    with pytest.raises(ValueError):
        diff_quotient(u, (0, 0, 0), (0, 0, 0))


def test_inner_product_counting():
    cfg = LatticeConfig(N=(4, 4, 4), epsilon=0.25)
    u = LatticeField.constant(cfg, (1.0, 0.0, 0.0))
    assert np.isclose(discrete_inner_product(u, u), 1.0, rtol=0, atol=1e-15)
    z = LatticeField.zeros(cfg)
    assert discrete_inner_product(z, u) == 0.0


def test_inner_product_fourier_orthogonality():
    cfg = small_cfg()
    vals1 = np.zeros(cfg.shape)
    vals2 = np.zeros(cfg.shape)
    for l1 in range(8):
        vals1[l1, :, :, 0] = np.sin(2.0 * np.pi * l1 / 8.0)
        vals2[l1, :, :, 0] = np.sin(2.0 * np.pi * 2 * l1 / 8.0)
    ip = discrete_inner_product(LatticeField(cfg, vals1), LatticeField(cfg, vals2))
    assert abs(ip) <= 1e-13


def test_inner_product_config_mismatch():
    a = LatticeField.zeros(LatticeConfig(N=(4, 4, 4), epsilon=0.25))
    b = LatticeField.zeros(LatticeConfig(N=(8, 8, 8), epsilon=0.25))
    with pytest.raises(ValueError):
        discrete_inner_product(a, b)


def test_make_deformation_mean_removal():
    cfg = small_cfg()
    y = make_deformation(np.eye(3), LatticeField.constant(cfg, (1.0, 2.0, 3.0)))
    assert np.allclose(y.displacement.values, 0.0, rtol=0, atol=0)


@pytest.mark.parametrize("N", [(2, 2, 2), (3, 5, 7), (12, 12, 12), (16, 9, 11), (64, 64, 64)])
def test_mean_has_the_bits_of_numpys_axis_0_mean(N):
    """``mean`` adds each column as a running sum; these are the bits of
    numpy's mean along the sites, which adds the rows in site order, for
    values of mixed magnitude and sign."""
    rng = np.random.default_rng(sum(N))
    cfg = LatticeConfig(N=N, epsilon=1.0 / N[0])
    vals = rng.standard_normal(cfg.shape) * 10.0 ** rng.uniform(-3, 3, cfg.shape) + (1.0, -2.0, 3.0)
    mean = LatticeField(cfg, vals).mean()
    assert mean.shape == (3,)
    assert mean.tobytes() == vals.reshape(-1, 3).mean(axis=0).tobytes()


def test_make_deformation_rejects_singular():
    cfg = small_cfg()
    F = np.eye(3)
    F[2, 2] = 0.0
    with pytest.raises(ValueError):
        make_deformation(F, LatticeField.zeros(cfg))
    with pytest.raises(ValueError):
        make_deformation(-np.eye(3), LatticeField.zeros(cfg))


def test_non_finite_deformation_gradient_and_spacing_rejected():
    cfg = small_cfg()
    for bad in (np.nan, np.inf, -np.inf):
        F = np.eye(3)
        F[0, 1] = bad
        with pytest.raises(ValueError, match="F must be finite"):
            make_deformation(F, LatticeField.zeros(cfg))
    with pytest.raises(ValueError, match="spacing"):
        LatticeConfig(N=(8, 8, 8), epsilon=np.inf)


def test_make_deformation_zero_mean_and_reconstruction():
    cfg = small_cfg()
    rng = np.random.default_rng(9)
    raw = rng.standard_normal(cfg.shape)
    F = np.eye(3) + 0.05 * rng.standard_normal((3, 3))
    if np.linalg.det(F) <= 0:
        F = np.eye(3)
    y = make_deformation(F, LatticeField(cfg, raw))
    mean = y.displacement.values.reshape(-1, 3).mean(axis=0)
    assert np.all(np.abs(mean) <= 1e-14)
    # y values reproduce F x + (raw - mean(raw))
    raw_mean = raw.reshape(-1, 3).mean(axis=0)
    for ell in [(0, 0, 0), (3, 1, 6)]:
        x = cfg.epsilon * np.array(ell, dtype=float)
        expect = F @ x + raw[ell] - raw_mean
        assert np.allclose(F @ x + y.displacement.at(ell), expect, rtol=0, atol=1e-13)


def test_sample_field_zero_and_constant():
    cfg = LatticeConfig(N=(4, 4, 4), epsilon=0.25)
    z = sample_field(np.zeros_like, cfg)
    assert np.all(z.values == 0.0)
    c = sample_field(lambda x: np.stack([np.full_like(x[0], value) for value in (1.0, -2.0, 0.5)]), cfg)
    assert np.all(c.values[..., 0] == 1.0)
    assert np.all(c.values[..., 1] == -2.0)


def test_sample_field_pointwise_oracle():
    cfg = LatticeConfig(N=(8, 8, 8), epsilon=0.125)
    L = cfg.N[0] * cfg.epsilon

    def f(x):
        return np.stack([np.sin(2.0 * np.pi * x[0] / L), 0.0 * x[1], 0.0 * x[2]])

    u = sample_field(f, cfg)
    for ell in [(0, 0, 0), (1, 2, 3), (5, 0, 7)]:
        x = cfg.epsilon * np.array(ell, dtype=float)
        assert np.allclose(u.at(ell), f(x), rtol=0, atol=0)


def test_sample_field_stacked_call_matches_the_site_loop():
    """An elementwise closure is called once on the stacked positions, and
    its samples are bitwise those of one call per site."""
    cfg = LatticeConfig(N=(4, 6, 5), epsilon=0.25)
    calls = []

    def f(x):
        calls.append(np.shape(x))
        return 0.05 * np.sin(2.0 * np.pi * np.stack([x[1], x[2], x[0]]) / 1.5) + x * x

    u = sample_field(f, cfg)
    assert calls == [(3, 4, 6, 5)]
    assert u.values.flags.c_contiguous
    expect = np.empty(cfg.shape)
    for ell in np.ndindex(cfg.N):
        expect[ell] = f(cfg.epsilon * np.array(ell, dtype=float))
    assert np.array_equal(u.values, expect)


def test_sample_field_rejects_a_closure_of_another_shape():
    """A closure that does not return the stacked (3, N1, N2, N3) samples
    is called once and rejected with the shape it returned; one that
    raises on the stacked positions raises its own error."""
    cfg = LatticeConfig(N=(3, 2, 2), epsilon=0.5)
    calls = []

    def constant(x):
        calls.append(np.shape(x))
        return np.array([1.0, 0.0, -1.0])

    with pytest.raises(ValueError, match=r"stacked shape \(3, 3, 2, 2\), got \(3,\)"):
        sample_field(constant, cfg)
    assert calls == [(3, 3, 2, 2)]
    with pytest.raises(ValueError, match=r"got \(3, 2, 2\)"):
        sample_field(lambda x: x[0], cfg)
    with pytest.raises(TypeError):
        sample_field(lambda x: float(x[0]), cfg)


def test_field_shape_validation():
    cfg = small_cfg()
    with pytest.raises(ValueError):
        LatticeField(cfg, np.zeros((8, 8, 8)))


def test_deformation_frozen_inputs():
    """The stored F must not alias the caller's array."""
    cfg = small_cfg()
    F = np.eye(3)
    y = make_deformation(F, LatticeField.zeros(cfg))
    F[0, 0] = 99.0
    assert y.F[0, 0] == 1.0
    with pytest.raises(ValueError):
        y.F[0, 0] = 5.0

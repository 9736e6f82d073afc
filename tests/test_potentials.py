from __future__ import annotations

import re

import numpy as np
import pytest

from bvcouple.coupling import required_clearance
from bvcouple.potentials import (
    _RADIAL_RMIN,
    InteractionSet,
    PotentialDomainError,
    cb_energy_density,
    make_law,
    piola_stress,
)

H = 1e-5
FD_TOL = 1e-6


def all_kind_laws():
    """One law of each built-in kind with generic parameters."""
    return [
        make_law((1, 1, 1), "harmonic"),
        make_law((2, 1, 3), "morse-radial"),
        make_law((1, -1, 2), "lennard-jones-radial"),
        make_law((2, -1, 1), "anisotropic-toy"),
    ]


def test_evaluate_harmonic_basics():
    law = make_law((1, 0, 1), "harmonic")
    val, grad, hess = law.evaluate((1.0, 0.0, 0.0), 2)
    assert val == 0.5
    assert np.allclose(grad, (1.0, 0.0, 0.0), rtol=0, atol=0)
    assert np.allclose(hess, np.eye(3), rtol=0, atol=0)
    val0, grad0, hess0 = law.evaluate((0.0, 0.0, 0.0), 2)
    assert val0 == 0.0
    assert np.all(grad0 == 0.0)
    assert np.allclose(hess0, np.eye(3))


def test_morse_equilibrium_radius():
    """At r = r0 the Morse radial derivative vanishes, so the full gradient
    (which is phi'(r) times the unit vector) vanishes too."""
    law = make_law((2, 1, 3), "morse-radial")
    r0 = dict(law.params)["r0"]
    zeta = r0 * np.array([1.0, 0.0, 0.0])
    _, grad, _ = law.evaluate(zeta, 2)
    assert np.all(np.abs(grad) <= 1e-12)


def test_lj_minimum_radius():
    law = make_law((1, 1, 1), "lennard-jones-radial",
                   {"well_depth": 0.7, "sigma": 1.1})
    rmin = 1.1 * 2.0 ** (1.0 / 6.0)
    zeta = rmin * np.array([0.0, 1.0, 0.0])
    val, grad, _ = law.evaluate(zeta, 2)
    assert np.isclose(val, -0.7, rtol=0, atol=1e-12)
    assert np.all(np.abs(grad) <= 1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(101)
    for law in all_kind_laws():
        for _ in range(6):
            zeta = np.asarray(law.eta, dtype=float) + 0.15 * rng.standard_normal(3)
            val, grad, _ = law.evaluate(zeta, 2)
            for i in range(3):
                zp = zeta.copy()
                zm = zeta.copy()
                zp[i] += H
                zm[i] -= H
                fd = (law.evaluate(zp, 2)[0] - law.evaluate(zm, 2)[0]) / (2.0 * H)
                denom = max(abs(fd), abs(grad[i]), 1.0)
                assert abs(grad[i] - fd) / denom <= FD_TOL, (law.kind, i)


def test_hessian_matches_finite_differences():
    rng = np.random.default_rng(55)
    for law in all_kind_laws():
        zeta = np.asarray(law.eta, dtype=float) + 0.1 * rng.standard_normal(3)
        _, _, hess = law.evaluate(zeta, 2)
        for i in range(3):
            zp = zeta.copy()
            zm = zeta.copy()
            zp[i] += H
            zm[i] -= H
            fd_col = (law.evaluate(zp, 2)[1] - law.evaluate(zm, 2)[1]) / (2.0 * H)
            for j in range(3):
                denom = max(abs(fd_col[j]), abs(hess[j, i]), 1.0)
                assert abs(hess[j, i] - fd_col[j]) / denom <= FD_TOL
        assert np.allclose(hess, hess.T, rtol=0, atol=1e-12)


def test_radial_domain_error():
    law = make_law((1, 1, 1), "lennard-jones-radial")
    with pytest.raises(PotentialDomainError):
        law.evaluate((0.0, 0.0, 0.0), 2)
    with pytest.raises(PotentialDomainError):
        make_law((1, 1, 1), "morse-radial").values(np.zeros((1, 3)))


def test_anisotropic_toy_has_no_inversion_symmetry():
    # The ghost-force tests rely on phi(zeta) != phi(-zeta) generically.
    law = make_law((1, -1, 2), "anisotropic-toy")
    zeta = np.array([0.9, 0.4, -1.3])
    va = law.evaluate(zeta, 0)[0]
    vb = law.evaluate(-zeta, 0)[0]
    assert abs(va - vb) > 1e-3


def test_make_law_rejections():
    with pytest.raises(ValueError):
        make_law((0, 0, 0), "harmonic")
    with pytest.raises(ValueError):
        make_law((1, 1, 1), "no-such-kind")
    with pytest.raises(ValueError):
        make_law((1, 1, 1), "lennard-jones-radial", {"sigma": 1.0, "bogus": 2.0})
    with pytest.raises(ValueError):
        make_law((1, 1, 1), "anisotropic-toy",
                 {"M": [[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]})


def test_interaction_set_rejects_duplicates():
    with pytest.raises(ValueError):
        InteractionSet([make_law((1, 1, 1), "harmonic"),
                        make_law((1, 1, 1), "morse-radial")])


def test_interaction_set_rejects_an_empty_set():
    """An empty set breaks a rule of its own: it is rejected when it is
    made, by a message that names the rule, not later by each model with
    an unrelated one."""
    with pytest.raises(ValueError, match="an interaction set needs at least one law"):
        InteractionSet(())


def test_interaction_set_max_abs_component():
    R = InteractionSet([make_law((1, 1, 1), "harmonic"),
                        make_law((2, -1, 3), "harmonic")])
    assert required_clearance([law.eta for law in R]) == 3


def test_cb_density_single_law():
    R = InteractionSet([make_law((1, 1, 1), "harmonic")])
    assert np.isclose(cb_energy_density(R, np.eye(3)), 1.5, rtol=0, atol=0)
    assert cb_energy_density(R, np.zeros((3, 3))) == 0.0


def test_cb_density_two_laws_closed_form():
    # F = diag(1,2,1): 0.5*(1+4+1) + 0.5*(4+4+1) = 7.5
    R = InteractionSet([make_law((1, 1, 1), "harmonic"),
                        make_law((2, 1, 1), "harmonic")])
    F = np.diag([1.0, 2.0, 1.0])
    assert np.isclose(cb_energy_density(R, F), 7.5, rtol=0, atol=1e-14)


def test_piola_single_harmonic_closed_form():
    """For one harmonic law, W(F) = |F eta|^2 / 2 so S = (F eta) eta^T."""
    eta = (2, 1, 3)
    R = InteractionSet([make_law(eta, "harmonic")])
    rng = np.random.default_rng(2)
    F = np.eye(3) + 0.1 * rng.standard_normal((3, 3))
    S = piola_stress(R, F)
    expect = np.outer(F @ np.array(eta, dtype=float), np.array(eta, dtype=float))
    assert np.allclose(S, expect, rtol=0, atol=1e-13)


def test_piola_zero_at_critical_point():
    R = InteractionSet([make_law((1, 1, 1), "harmonic"),
                        make_law((1, 0, 2), "harmonic")])
    S = piola_stress(R, np.zeros((3, 3)))
    assert np.all(S == 0.0)


def test_piola_matches_fd_of_density():
    """Central differences of W_CB in each F entry reproduce the stress,
    over 20 random draws mixing all law kinds."""
    rng = np.random.default_rng(77)
    etas = [(1, 1, 1), (2, 1, 3), (1, -1, 2), (1, 0, 1), (0, 2, 1)]
    kinds = ["harmonic", "morse-radial", "lennard-jones-radial", "anisotropic-toy"]
    for trial in range(20):
        chosen = rng.choice(len(etas), size=2, replace=False)
        R = InteractionSet([
            make_law(etas[int(chosen[0])], kinds[trial % 4], None),
            make_law(etas[int(chosen[1])], "harmonic", None),
        ])
        F = np.eye(3) + 0.08 * rng.standard_normal((3, 3))
        S = piola_stress(R, F)
        for i in range(3):
            for a in range(3):
                Fp = F.copy()
                Fm = F.copy()
                Fp[i, a] += H
                Fm[i, a] -= H
                fd = (cb_energy_density(R, Fp) - cb_energy_density(R, Fm)) / (2.0 * H)
                denom = max(abs(fd), abs(S[i, a]), 1.0)
                assert abs(S[i, a] - fd) / denom <= FD_TOL


def test_law_params_are_frozen():
    law = make_law((1, 1, 1), "lennard-jones-radial", {"well_depth": 0.5})
    params = dict(law.params)
    assert params["well_depth"] == 0.5
    assert "sigma" in params  # default filled in
    with pytest.raises((TypeError, AttributeError)):
        law.kind = "harmonic"


def test_evaluate_orders_are_prefixes_of_order_two():
    """For every kind and for a single bond and a batch, evaluate(zeta, k)
    is bitwise the first k + 1 entries of evaluate(zeta, 2), and the thin
    views values/gradients/hessians are its entries."""
    rng = np.random.default_rng(5)
    for law in all_kind_laws():
        for shape in ((3,), (7, 3)):
            zeta = law.eta_vec + 0.2 * rng.standard_normal(shape)
            full = law.evaluate(zeta, 2)
            assert [a.shape for a in full] == [shape[:-1], shape, shape[:-1] + (3, 3)]
            for k in range(3):
                part = law.evaluate(zeta, k)
                assert len(part) == k + 1
                for a, b in zip(part, full):
                    assert a.dtype == b.dtype and np.array_equal(a, b), (law.kind, shape, k)
            for view, ref in zip((law.values, law.gradients, law.hessians), full):
                assert np.array_equal(view(zeta), ref)


def test_evaluate_domain_error_at_every_order():
    for kind in ("morse-radial", "lennard-jones-radial"):
        law = make_law((1, 1, 1), kind)
        zeta = np.ones((4, 3))
        zeta[2] = 0.0
        for order in range(3):
            with pytest.raises(PotentialDomainError, match="below admissible minimum"):
                law.evaluate(zeta, order)
            with pytest.raises(PotentialDomainError):
                law.evaluate(np.zeros(3), order)


@pytest.mark.parametrize("kind, params, key", [
    ("lennard-jones-radial", {"well_depth": float("nan")}, "well_depth"),
    ("morse-radial", {"alpha": float("inf")}, "alpha"),
    ("anisotropic-toy", {"a": (0.1, float("nan"), 0.2)}, "a"),
    ("anisotropic-toy", {"a": (0.1, 0.2)}, "a"),
    ("anisotropic-toy", {"M": ((1.0, 0.0), (0.0, 1.0))}, "M"),
])
def test_make_law_rejects_non_finite_and_misshaped_params(kind, params, key):
    with pytest.raises(ValueError, match=f"parameter '{key}'"):
        make_law((1, 1, 1), kind, params)


def test_make_law_copies_array_params():
    a = np.array([0.1, 0.2, 0.3])
    law = make_law((1, 1, 1), "anisotropic-toy", {"a": a})
    assert a.flags.writeable
    assert not dict(law.params)["a"].flags.writeable


# ----------------------------------------------------------------------
# The row contract the kernel's exact-zero excess and ghost-force checks
# rely on: a row's bits do not depend on the batch it is evaluated in.
# ----------------------------------------------------------------------

def _oracle_evaluate(law, zeta):
    """[phi, phi', phi''] by the norm and axis-sum formulas (np.linalg.norm,
    np.sum(..., axis=-1), broadcast outer products) that evaluate's
    column-wise arithmetic replaces."""
    zeta = np.asarray(zeta, dtype=float)
    p = dict(law.params)
    if law.kind == "harmonic":
        return [0.5 * np.sum(zeta * zeta, axis=-1), zeta.copy(),
                np.broadcast_to(np.eye(3), zeta.shape + (3,)).copy()]
    if law.kind == "anisotropic-toy":
        a, M = p["a"], p["M"]
        e = np.exp(zeta @ a)
        zM = zeta @ M
        return [e + 0.5 * np.sum(zM * zeta, axis=-1), e[..., None] * a + zM,
                np.multiply.outer(e, np.outer(a, a)) + M]
    r = np.linalg.norm(zeta, axis=-1)
    if law.kind == "morse-radial":
        D, al, r0 = p["D"], p["alpha"], p["r0"]
        e = np.exp(-al * (r - r0))
        phi = D * (1.0 - e) ** 2
        d1 = 2.0 * D * al * e * (1.0 - e)
        d2 = 2.0 * D * al * al * (2.0 * e * e - e)
    else:
        e4 = 4.0 * p["well_depth"]
        s6 = (p["sigma"] / r) ** 6
        s12 = s6 * s6
        phi = e4 * (s12 - s6)
        d1 = e4 * (-12.0 * s12 + 6.0 * s6) / r
        d2 = e4 * (156.0 * s12 - 42.0 * s6) / (r * r)
    rhat = zeta / r[..., None]
    proj = rhat[..., :, None] * rhat[..., None, :]
    return [phi, (d1 / r)[..., None] * zeta,
            d2[..., None, None] * proj + (d1 / r)[..., None, None] * (np.eye(3) - proj)]


def _bonds(law, n, rng):
    return law.eta_vec + 0.3 * rng.standard_normal((n, 3))


def test_a_row_has_the_same_bits_in_batches_of_any_size():
    """Every kind, every order: a row gives the same bits inside batches of
    2, 7 and 16,385 rows, wherever it sits in the batch."""
    rng = np.random.default_rng(21)
    for law in all_kind_laws():
        zeta = _bonds(law, 16385, rng)
        for order in range(3):
            full = law.evaluate(zeta, order)
            for lo, hi in ((0, 2), (5, 7), (0, 7), (9, 16), (16383, 16385)):
                for a, b in zip(law.evaluate(zeta[lo:hi], order), full):
                    assert np.array_equal(a, b[lo:hi]), (law.kind, order, lo, hi)


def test_a_row_alone_has_its_batch_bits():
    """Every kind, every order: 2,000 random bonds evaluated one at a time,
    alternately as a (3,) and a (1, 3) array, give the bits of one joint
    call. A lone bond is evaluated as a two-row batch: the toy's one-row
    ``zeta @ a`` and ``zeta @ M`` may round differently from the same row
    in a batch."""
    rng = np.random.default_rng(22)
    for law in all_kind_laws():
        zeta = _bonds(law, 2000, rng)
        for order in range(3):
            full = law.evaluate(zeta, order)
            for i in range(len(zeta)):
                one = law.evaluate(zeta[i] if i % 2 else zeta[i:i + 1], order)
                assert all(np.array_equal(a, b[i] if i % 2 else b[i:i + 1]) for a, b in zip(one, full)), \
                    (law.kind, order, i)


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("shape", [(3,), (1, 3), (2, 3), (17, 3)])
def test_evaluate_writes_into_the_given_arrays(shape, order):
    """Every kind, for one bond (as a (3,) and a (1, 3) array), two bonds
    and 17: ``evaluate(zeta, order, out)`` writes phi (and phi') into the
    arrays ``out`` and returns them, with the bits that ``evaluate(zeta,
    order)`` returns in arrays of its own; at order 2 phi'' follows them,
    a new array."""
    rng = np.random.default_rng(24)
    for law in all_kind_laws():
        zeta = law.eta_vec + 0.3 * rng.standard_normal(shape)
        ref = law.evaluate(zeta, order)
        out = [np.full(shape[:-1], np.nan), np.full(shape, np.nan)][: order + 1]
        got = law.evaluate(zeta, order, out)
        assert len(got) == order + 1 and all(a is b for a, b in zip(got, out)), (law.kind, shape, order)
        for a, b in zip(got, ref):
            assert a.shape == np.shape(b) and a.tobytes() == np.asarray(b).tobytes(), (law.kind, shape, order)


def test_cb_density_and_stress_have_the_bits_of_a_batch_row():
    """W(F) and S(F) are the sums of phi(F eta) and phi'(F eta) eta^T, law
    by law, with the bits of the row F eta inside a many-row batch, which
    is how the energy kernel evaluates it: 300 random F."""
    rng = np.random.default_rng(23)
    R = InteractionSet(all_kind_laws())
    for _ in range(300):
        F = np.eye(3) + 0.1 * rng.standard_normal((3, 3))
        W, S = 0.0, np.zeros((3, 3))
        for law in R:
            zeta = _bonds(law, 9, rng)
            zeta[4] = F @ law.eta_vec
            phi, dphi = law.evaluate(zeta, 1)
            W += float(phi[4])
            S += np.outer(dphi[4], law.eta_vec)
        assert cb_energy_density(R, F) == W
        assert np.array_equal(piola_stress(R, F), S)


def test_evaluate_agrees_with_the_norm_formulas():
    """Values, gradients and Hessians agree with the norm and axis-sum
    formulas to 1e-15 relative, row by row, for |zeta| from 1e-6 to 1e3."""
    rng = np.random.default_rng(23)
    n = 4000
    direction = rng.standard_normal((n, 3))
    direction /= np.linalg.norm(direction, axis=-1, keepdims=True)
    zeta = direction * np.logspace(-6, 3, n)[:, None]
    for law in all_kind_laws():
        for k, (a, b) in enumerate(zip(law.evaluate(zeta, 2), _oracle_evaluate(law, zeta))):
            assert a.shape == b.shape and np.all(np.isfinite(b)), (law.kind, k)
            axes = tuple(range(1, b.ndim))
            scale = np.max(np.abs(b), axis=axes, keepdims=True) if axes else np.abs(b)
            assert np.all(np.abs(a - b) <= 1e-15 * scale), (law.kind, k)


def test_radial_domain_error_names_the_short_bond():
    """Below _RADIAL_RMIN the radial laws raise, naming the first short
    bond's length, its kind and eta; at twice the minimum they do not."""
    for kind in ("morse-radial", "lennard-jones-radial"):
        law = make_law((2, 1, 3), kind)
        zeta = np.ones((5, 3))
        zeta[3] = (0.3 * _RADIAL_RMIN, 0.2 * _RADIAL_RMIN, 0.0)
        zeta[4] = 0.0
        r = float(np.linalg.norm(zeta[3:4], axis=-1)[0])
        message = f"bond length {r!r} below admissible minimum for {kind} potential (eta=(2, 1, 3))"
        for order in range(3):
            with pytest.raises(PotentialDomainError, match=f"^{re.escape(message)}$") as info:
                law.evaluate(zeta, order)
            assert info.value.eta == (2, 1, 3)
            with pytest.raises(PotentialDomainError, match=f"^{re.escape(message)}$"):
                law.evaluate(zeta[3], order)
        assert np.all(np.isfinite(law.values(np.full((1, 3), 2.0 * _RADIAL_RMIN))))


def test_readme_laws_fail_legendre_hadamard_at_the_identity():
    """The README laws are not rank-one convex at F = I: the Lennard-Jones
    bond (2, 1, 3), at sigma below its length, has a negative curvature
    along itself, and the acoustic tensor A(k) = sum_eta (k . eta)^2
    phi_eta''(eta) has a negative eigenvalue. The homogeneous state is
    then not a stable minimum of the Cauchy-Born energy, which is why the
    README solve can stop at a saddle point."""
    R = InteractionSet([
        make_law((1, 1, 1), "harmonic"),
        make_law((2, 1, 3), "lennard-jones-radial", {"well_depth": 0.5, "sigma": 2.494438257849294}),
        make_law((1, -1, 2), "anisotropic-toy"),
    ])
    F = np.eye(3)
    hessians = {law.eta: law.evaluate(F @ law.eta_vec, 2)[2] for law in R}
    assert np.allclose(np.linalg.eigvalsh(hessians[(2, 1, 3)]), [-0.355, 0.062, 0.062], atol=1e-3)

    def smallest_acoustic(k):
        k = np.asarray(k, dtype=float) / np.linalg.norm(k)
        return np.linalg.eigvalsh(sum((k @ law.eta_vec) ** 2 * hessians[law.eta] for law in R))[0]

    # k is orthogonal to (1, 1, 1) and (1, -1, 2): only (2, 1, 3) acts
    # along it, with (k . eta)^2 = 1/14
    assert smallest_acoustic((3, -1, -2)) == pytest.approx(-0.355 / 14, abs=1e-4)
    # the minimizer over unit directions
    assert smallest_acoustic((0.374, -0.682, -0.629)) == pytest.approx(-0.211, abs=1e-3)

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from bvcouple.coupling import (
    BondClass,
    RegionPartition,
    coupled_energy_conforming,
    naive_coupling_energy,
    omega_star_mask,
    partition_violations,
    required_clearance,
)
from bvcouple.energies import acb_tetra_energy, atomistic_energy
from bvcouple.geometry import DegenerateEta, covering_widths
from bvcouple.lattice import (
    LatticeConfig,
    LatticeField,
    diff_quotient,
    make_deformation,
)
from bvcouple.potentials import InteractionSet, make_law, piola_stress
from geometry_oracle import (
    classify_bond_volume,
    covering_interpolant,
    decompose_cell_type_a,
    oracle_block_mismatches,
    oracle_placements,
    p1_gradient,
    scipy_csr,
)


def cfg12() -> LatticeConfig:
    return LatticeConfig(N=(12, 12, 12), epsilon=1.0 / 12.0)


def part_a(cfg) -> RegionPartition:
    return RegionPartition(cfg, (4, 4, 4), (4, 4, 4))


def laws_full() -> InteractionSet:
    return InteractionSet([
        make_law((1, 1, 1), "harmonic"),
        make_law((2, 1, 3), "lennard-jones-radial"),
        make_law((1, -1, 2), "anisotropic-toy"),
    ])


def residual_scale(F, R, eps) -> float:
    return max(1.0, np.abs(piola_stress(R, F)).max() / eps)


def random_F(rng, spread=0.08):
    F = np.eye(3) + spread * rng.standard_normal((3, 3))
    while np.linalg.det(F) <= 0.2:
        F = np.eye(3) + spread * rng.standard_normal((3, 3))
    return F


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_three_cases():
    cfg = cfg12()
    part = part_a(cfg)
    assert classify_bond_volume(part, (5, 5, 5), (1, 1, 1)) is BondClass.ATOMISTIC
    assert classify_bond_volume(part, (0, 0, 0), (1, 1, 1)) is BondClass.CONTINUUM
    # box inside the region but closure touching the interface plane
    assert classify_bond_volume(part, (4, 4, 4), (1, 1, 1)) is BondClass.INTERFACE
    # open box of a unit bond just outside the region: continuum even though
    # its closure grazes the interface plane from the outside
    assert classify_bond_volume(part, (3, 5, 5), (1, 1, 1)) is BondClass.CONTINUUM
    # wider box straddling the interface plane
    assert classify_bond_volume(part, (3, 5, 5), (2, 1, 3)) is BondClass.INTERFACE


def test_classify_degenerate_eta_rejected():
    cfg = cfg12()
    with pytest.raises(DegenerateEta):
        classify_bond_volume(part_a(cfg), (0, 0, 0), (1, 0, 1))


def test_classification_counts_frozen():
    """Bond-volume class tallies for two region geometries, frozen from an
    independent enumeration of all 12^3 base sites per direction."""
    cfg = cfg12()
    y = make_deformation(np.eye(3), LatticeField.zeros(cfg))
    R = laws_full()
    expected = {
        ((4, 4, 4), (4, 4, 4)): {
            "(1, 1, 1)": {"atomistic": 8, "continuum": 1664, "interface": 56},
            "(2, 1, 3)": {"atomistic": 0, "continuum": 1608, "interface": 120},
            "(1, -1, 2)": {"atomistic": 4, "continuum": 1648, "interface": 76},
        },
        ((3, 3, 3), (5, 5, 5)): {
            "(1, 1, 1)": {"atomistic": 27, "continuum": 1603, "interface": 98},
            "(2, 1, 3)": {"atomistic": 6, "continuum": 1518, "interface": 204},
            "(1, -1, 2)": {"atomistic": 18, "continuum": 1578, "interface": 132},
        },
    }
    for (corner, ext), want in expected.items():
        part = RegionPartition(cfg, corner, ext)
        rep = coupled_energy_conforming(y, R, part)
        assert rep.diagnostics["counts"] == want
        # cross-check one tally against classify_bond_volume directly
        tally = {"atomistic": 0, "continuum": 0, "interface": 0}
        for l0 in range(12):
            for l1 in range(12):
                for l2 in range(12):
                    cls = classify_bond_volume(part, (l0, l1, l2), (2, 1, 3))
                    tally[cls.name.lower()] += 1
        assert tally == want["(2, 1, 3)"]


def test_required_clearance():
    assert required_clearance([(1, 1, 1), (2, 1, 3)]) == 3
    assert required_clearance([(1, -1, 1)]) == 1


def test_partition_violations_collects_all():
    cfg = cfg12()
    part = RegionPartition(cfg, (1, 4, 10), (4, 4, 1))
    msgs = partition_violations(part, [(2, 1, 3)], "bogus-policy")
    assert len(msgs) >= 3  # bad policy + clearance on two axes
    assert any("policy" in m for m in msgs)
    assert any("clearance" in m or "needs" in m for m in msgs)


def test_region_partition_constructor_errors():
    cfg = cfg12()
    with pytest.raises(ValueError):
        RegionPartition(cfg, (0, 4, 4), (4, 4, 4))   # touches the boundary
    with pytest.raises(ValueError):
        RegionPartition(cfg, (4, 4, 4), (8, 4, 4))   # reaches the far edge
    with pytest.raises(ValueError):
        RegionPartition(cfg, (4, 4, 4), (0, 4, 4))   # empty extent


# ---------------------------------------------------------------------------
# conforming coupled energy
# ---------------------------------------------------------------------------

def test_homogeneous_energy_partition():
    """At y_F the coupled energy equals the volume times W_CB(F): the
    interface weights 1/|eta1 eta2 eta3| recover each cell exactly once."""
    from bvcouple.potentials import cb_energy_density
    cfg = cfg12()
    part = part_a(cfg)
    R = laws_full()
    rng = np.random.default_rng(40)
    for _ in range(3):
        F = random_F(rng)
        y = make_deformation(F, LatticeField.zeros(cfg))
        rep = coupled_energy_conforming(y, R, part)
        expect = cfg.volume * cb_energy_density(R, F)
        assert np.isclose(rep.energy, expect, rtol=1e-13, atol=0)


def test_ghost_force_free_conforming():
    cfg = cfg12()
    part = part_a(cfg)
    R = laws_full()
    rng = np.random.default_rng(17)
    for _ in range(2):
        F = random_F(rng)
        y = make_deformation(F, LatticeField.zeros(cfg))
        rep = coupled_energy_conforming(y, R, part)
        scale = residual_scale(F, R, cfg.epsilon)
        assert np.abs(rep.gradient.values).max() <= 1e-12 * scale


def test_interface_term_equals_cone_interpolant_integral():
    """The assembled interface term is the bond-volume integral of the cone
    interpolants: over every covering of every direction, the sum over
    interface-cone tets of |T| phi_eta(F eta + grad(I v)|_T eta) / n_eta,
    with the README's laws, at two region placements and a random state."""
    cfg = cfg12()
    R = InteractionSet([
        make_law((1, 1, 1), "harmonic"),
        make_law((2, 1, 3), "lennard-jones-radial",
                 {"well_depth": 0.5, "sigma": 2.494438257849294}),
        make_law((1, -1, 2), "anisotropic-toy"),
    ])
    rng = np.random.default_rng(31)
    F = random_F(rng, spread=0.05)
    v = LatticeField(cfg, 0.02 * cfg.epsilon * rng.standard_normal(cfg.shape))
    y = make_deformation(F, v)
    for corner, ext in (((4, 4, 4), (4, 4, 4)), ((3, 4, 3), (6, 4, 5))):
        part = RegionPartition(cfg, corner, ext)
        assembled = coupled_energy_conforming(y, R, part).breakdown["interface"]
        direct = 0.0
        n_cones = 0
        for law in R:
            n_eta = abs(law.eta[0] * law.eta[1] * law.eta[2])
            for m in range(n_eta):
                for p in covering_interpolant(m, law.eta, v, part).pieces:
                    if p.kind != "interface-cone":
                        continue
                    zeta = F @ law.eta_vec + p.gradients @ law.eta_vec
                    direct += float(np.sum(p.volumes * law.values(zeta))) / n_eta
                    n_cones += 1
        assert n_cones > 0
        assert abs(assembled - direct) <= 1e-12 * abs(direct), (corner, assembled, direct)


def test_naive_coupling_has_ghost_forces():
    """Negative control: the uncorrected splice shows interface forces well
    above the coupled scheme's residual, concentrated near the interface."""
    cfg = cfg12()
    part = part_a(cfg)
    R = InteractionSet([make_law((2, 1, 3), "anisotropic-toy")])
    F = np.eye(3)
    y = make_deformation(F, LatticeField.zeros(cfg))
    rep = naive_coupling_energy(y, R, part)
    scale = residual_scale(F, R, cfg.epsilon)
    g = rep.gradient.values
    assert np.abs(g).max() >= 1e-3 * scale
    # localized: sites further than max|eta_i| cells from the interface
    # planes carry no force
    margin = 3
    lo, hi = 4, 8
    for l0 in range(12):
        for l1 in range(12):
            for l2 in range(12):
                d = min(
                    min(abs(l - lo), abs(l - hi), abs(l - lo - 12), abs(l - hi + 12))
                    for l in (l0, l1, l2)
                )
                if d > margin:
                    assert np.abs(g[l0, l1, l2]).max() <= 1e-12 * scale


def test_locality_of_coupled_gradient():
    """Away from the interface the coupled gradient matches the pure models:
    atomistic inside the region, tetrahedral Cauchy-Born outside."""
    cfg = cfg12()
    part = part_a(cfg)
    R = InteractionSet([
        make_law((1, 1, 1), "harmonic"),
        make_law((1, -1, 1), "anisotropic-toy"),
    ])
    rng = np.random.default_rng(9)
    v = LatticeField(cfg, 0.01 * cfg.epsilon * rng.standard_normal(cfg.shape))
    y = make_deformation(random_F(rng), v)
    g_coupled = coupled_energy_conforming(y, R, part).gradient.values
    g_atom = atomistic_energy(y, R).gradient.values
    g_acb = acb_tetra_energy(y, R).gradient.values
    scale = max(1.0, np.abs(g_atom).max())
    # (6,6,6) sits 2 = 2*max|eta_i| cells from every interface plane
    assert np.abs(g_coupled[6, 6, 6] - g_atom[6, 6, 6]).max() <= 1e-13 * scale
    # (0,*,*) sits 4 cells outside the region
    for site in [(0, 0, 0), (0, 6, 6), (11, 1, 0)]:
        assert np.abs(g_coupled[site] - g_acb[site]).max() <= 1e-13 * scale


# ---------------------------------------------------------------------------
# covering interpolants: the bookkeeping identities
# ---------------------------------------------------------------------------

ETA = (2, 1, 3)
N_ETA = 6


def build_interpolants(u, part):
    return [covering_interpolant(m, ETA, u, part) for m in range(N_ETA)]


def gross_scale(covs):
    etaf = np.asarray(ETA, dtype=float)
    total = 0.0
    for c in covs:
        for p in c.pieces:
            total += float(np.sum(
                p.volumes * np.abs(np.einsum("tij,j->ti", p.gradients, etaf)).sum(axis=1)))
    return total


def test_covering_interpolant_affine_reproduction():
    """Affine data: every piece of every covering (coarse box tets, fine
    cell tets, interface cones) reproduces the constant gradient, for
    members whose box does not wrap around the torus."""
    cfg = cfg12()
    part = RegionPartition(cfg, (3, 3, 3), (6, 6, 6))
    A = np.array([[1.0, 0.5, -0.25], [0.0, 2.0, 1.0], [0.5, 0.0, 1.5]])
    vals = np.zeros(cfg.shape)
    for l0 in range(12):
        for l1 in range(12):
            for l2 in range(12):
                vals[l0, l1, l2] = A @ (cfg.epsilon * np.array([l0, l1, l2]))
    u = LatticeField(cfg, vals)
    checked = 0
    for m in range(N_ETA):
        cov = covering_interpolant(m, ETA, u, part)
        for p in cov.pieces:
            mu, w = p.box
            if any(mu[d] < 0 or mu[d] + w[d] >= 12 for d in range(3)):
                continue  # members touching the wrap see the periodic jump
            assert np.allclose(p.gradients, A, rtol=0, atol=1e-10), p.kind
            checked += 1
    assert checked > 100


def test_covering_interpolant_interpolates_on_region_boundary():
    """Cone pieces read off nodal values on the boundary planes of the
    atomistic region.  Triangles of the cone fan that lie in one of those
    planes are unit lattice triangles, so all three of their vertices sit
    on lattice points and must carry the field values there.  (Interior fan
    vertices are allowed to carry averaged values; global continuity is
    covered separately by the vanishing-integral test.)"""
    cfg = cfg12()
    part = part_a(cfg)
    rng = np.random.default_rng(6)
    u = LatticeField(cfg, rng.standard_normal(cfg.shape))
    cov = covering_interpolant(0, ETA, u, part)
    eps = cfg.epsilon
    lo = np.asarray(part.corner, dtype=float)
    hi = lo + np.asarray(part.extents, dtype=float)
    cones = [p for p in cov.pieces if p.kind == "interface-cone"]
    assert cones
    verts_checked = 0
    for p in cones:
        lam = p.positions / eps  # (T, 4, 3) in lattice units
        for t in range(lam.shape[0]):
            tri = lam[t, 1:, :]  # apex sits in slot 0
            on_gamma = False
            for axis in range(3):
                for plane in (lo[axis], hi[axis]):
                    if np.abs(tri[:, axis] - plane).max() > 1e-9:
                        continue
                    others = [d for d in range(3) if d != axis]
                    inside = all(
                        lo[d] - 1e-9 <= tri[:, d].min()
                        and tri[:, d].max() <= hi[d] + 1e-9
                        for d in others
                    )
                    if inside:
                        on_gamma = True
            if not on_gamma:
                continue
            snapped = np.round(tri)
            assert np.abs(tri - snapped).max() < 1e-9
            for q in range(3):
                site = tuple(int(s) for s in snapped[q])
                assert np.allclose(
                    p.vertex_values[t, 1 + q], u.at(site), rtol=0, atol=1e-12
                )
                verts_checked += 1
    assert verts_checked > 50


def test_per_covering_integral_vanishes():
    """Each covering interpolant is continuous and periodic, so its gradient
    integrates to zero over the torus."""
    cfg = cfg12()
    part = part_a(cfg)
    rng = np.random.default_rng(11)
    u = LatticeField(cfg, rng.standard_normal(cfg.shape))
    covs = build_interpolants(u, part)
    gross = gross_scale(covs)
    for c in covs:
        assert np.linalg.norm(c.integral_gradient_eta()) <= 1e-12 * gross


def test_class_group_identity():
    """The three class-grouped sums (telescoped atomistic bonds, continuum
    integral, interface cone integrals) add up to the covering-averaged
    whole-torus integral, which vanishes."""
    cfg = cfg12()
    part = RegionPartition(cfg, (3, 3, 3), (6, 6, 6))
    rng = np.random.default_rng(11)
    u = LatticeField(cfg, rng.standard_normal(cfg.shape))
    w = covering_widths(ETA)
    etaf = np.asarray(ETA, dtype=float)
    eps = cfg.epsilon
    covs = build_interpolants(u, part)
    gross = gross_scale(covs)

    rhs = np.zeros(3)
    for c in covs:
        rhs += c.integral_gradient_eta() / N_ETA

    group_atom = np.zeros(3)
    interface_owner: dict = {}
    n_atom = 0
    for l0 in range(12):
        for l1 in range(12):
            for l2 in range(12):
                cls = classify_bond_volume(part, (l0, l1, l2), ETA)
                if cls is BondClass.ATOMISTIC:
                    group_atom += eps**3 * diff_quotient(u, (l0, l1, l2), ETA)
                    n_atom += 1
                elif cls is BondClass.INTERFACE:
                    m = (l0 % w[0] * w[1] + l1 % w[1]) * w[2] + l2 % w[2]
                    interface_owner.setdefault(m, []).append((l0, l1, l2))
    assert n_atom > 0  # the region is large enough to hold interior boxes

    group_cont = np.zeros(3)
    for cell in np.argwhere(omega_star_mask(part)):
        for tet in decompose_cell_type_a(tuple(int(c) for c in cell), cfg).tets:
            nodal = np.array([u.at(s) for s in tet.sites])
            group_cont += tet.volume * (p1_gradient(tet, nodal) @ etaf)

    cone_by_base = {(c.index, p.base): p
                    for c in covs for p in c.pieces if p.kind == "interface-cone"}
    n_interface = sum(len(v) for v in interface_owner.values())
    assert len(cone_by_base) == n_interface
    group_intf = np.zeros(3)
    for m, ells in interface_owner.items():
        for ell in ells:
            p = cone_by_base[(m, ell)]
            group_intf += np.einsum("t,tij,j->i", p.volumes, p.gradients, etaf) / N_ETA

    lhs = group_atom + group_cont + group_intf
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * gross
    assert np.linalg.norm(lhs) <= 1e-12 * gross


def test_interface_regrouping_identity():
    """Summing the interface cone integrals bond volume by bond volume equals
    regrouping them per covering."""
    cfg = cfg12()
    part = part_a(cfg)
    rng = np.random.default_rng(23)
    u = LatticeField(cfg, rng.standard_normal(cfg.shape))
    w = covering_widths(ETA)
    etaf = np.asarray(ETA, dtype=float)
    covs = build_interpolants(u, part)
    gross = gross_scale(covs)

    cone_by_base = {(c.index, p.base): p
                    for c in covs for p in c.pieces if p.kind == "interface-cone"}
    lhs = np.zeros(3)
    n_direct = 0
    for l0 in range(12):
        for l1 in range(12):
            for l2 in range(12):
                if classify_bond_volume(part, (l0, l1, l2), ETA) is BondClass.INTERFACE:
                    m = (l0 % w[0] * w[1] + l1 % w[1]) * w[2] + l2 % w[2]
                    p = cone_by_base[(m, (l0, l1, l2))]
                    lhs += np.einsum("t,tij,j->i", p.volumes, p.gradients, etaf) / N_ETA
                    n_direct += 1

    rhs = np.zeros(3)
    n_regrouped = 0
    for c in covs:
        for p in c.pieces:
            if p.kind == "interface-cone":
                rhs += np.einsum("t,tij,j->i", p.volumes, p.gradients, etaf) / N_ETA
                n_regrouped += 1
    assert n_direct == n_regrouped
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * gross


def test_per_tet_regrouping_identity():
    """Every lattice tet of a continuum-side cell is covered by exactly one
    member per covering; averaging the member interpolants' gradient
    integrals over that tet reproduces the fine p1 integral."""
    cfg = cfg12()
    part = part_a(cfg)
    rng = np.random.default_rng(5)
    u = LatticeField(cfg, rng.standard_normal(cfg.shape))
    etaf = np.asarray(ETA, dtype=float)
    eps = cfg.epsilon
    covs = build_interpolants(u, part)

    def tet_key(vertices):
        ks = []
        for vtx in vertices:
            ks.append(tuple(int(round(vtx[d] / eps)) % 12 for d in range(3)))
        return tuple(sorted(ks))

    star_cells = [tuple(int(x) for x in c) for c in np.argwhere(omega_star_mask(part))]
    picks = rng.choice(len(star_cells), size=10, replace=False)
    for idx in picks:
        cell = star_cells[int(idx)]
        for tet in decompose_cell_type_a(cell, cfg).tets:
            nodal = np.array([u.at(s) for s in tet.sites])
            lhs = tet.volume * (p1_gradient(tet, nodal) @ etaf)
            key = tet_key(tet.vertices)
            rhs = np.zeros(3)
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
                rhs += hit / N_ETA
            assert np.linalg.norm(rhs - lhs) <= 1e-12 * max(np.linalg.norm(lhs), 1.0)


def test_masked_out_collapsed_bond_is_ignored_and_continuum_errors_name_the_site():
    """A staircase Cauchy-Born bond collapses to zero in one cell tet when a
    single site moves by -eps (1, 1/2, 1/2) against eta = (2, 1, 1). Inside
    the atomistic region that cell carries no continuum energy, so every
    coupled model must stay finite (as the atomistic energy does); in the
    continuum the models must raise with the offending cell and direction."""
    from bvcouple.coupling import coupled_energy_dg
    from bvcouple.highorder import high_order_energy
    from bvcouple.potentials import PotentialDomainError

    cfg = LatticeConfig(N=(16, 16, 16), epsilon=1.0 / 16.0)
    part = RegionPartition(cfg, (2, 2, 2), (12, 12, 12))
    R = InteractionSet([make_law((2, 1, 1), "lennard-jones-radial")])

    def displaced(site):
        vals = np.zeros(cfg.shape)
        vals[site] = -cfg.epsilon * np.array([1.0, 0.5, 0.5])
        return make_deformation(np.eye(3), LatticeField(cfg, vals))

    y = displaced((8, 8, 8))
    assert np.isfinite(atomistic_energy(y, R).energy)
    assert np.isfinite(coupled_energy_conforming(y, R, part).energy)
    assert np.isfinite(coupled_energy_dg(y, y, R, part).energy)
    assert np.isfinite(high_order_energy(y, R, part, k=2).energy)

    y = displaced((0, 8, 8))
    for evaluate in (
        lambda: coupled_energy_conforming(y, R, part),
        lambda: coupled_energy_dg(y, y, R, part),
    ):
        with pytest.raises(PotentialDomainError) as err:
            evaluate()
        assert err.value.site == (15, 7, 7)
        assert err.value.eta == (2, 1, 1)


def test_sparse_bond_domain_errors_name_the_site():
    """Moving site (8,8,8) by -eps (2, 1, 1) collapses the atomistic bond of
    eta = (2, 1, 1) based at (6, 7, 7), deep inside the atomistic region.
    The atomistic model names that site; the coupled models evaluate the bond
    through their sparse atomistic-bond operator and must name the same site
    and direction."""
    from bvcouple.coupling import coupled_energy_dg
    from bvcouple.highorder import high_order_energy
    from bvcouple.potentials import PotentialDomainError

    cfg = LatticeConfig(N=(16, 16, 16), epsilon=1.0 / 16.0)
    part = RegionPartition(cfg, (2, 2, 2), (12, 12, 12))
    R = InteractionSet([make_law((2, 1, 1), "lennard-jones-radial")])
    vals = np.zeros(cfg.shape)
    vals[8, 8, 8] = -cfg.epsilon * np.array([2.0, 1.0, 1.0])
    y = make_deformation(np.eye(3), LatticeField(cfg, vals))

    for evaluate in (
        lambda: atomistic_energy(y, R),
        lambda: coupled_energy_conforming(y, R, part),
        lambda: coupled_energy_dg(y, y, R, part),
        lambda: high_order_energy(y, R, part, k=2),
    ):
        with pytest.raises(PotentialDomainError) as err:
            evaluate()
        assert err.value.site == (6, 7, 7)
        assert err.value.eta == (2, 1, 1)


def test_non_finite_law_values_name_the_site():
    """Moving site (8,8,8) by 800 eps a / |a|^2 puts zeta . a near 800 on the
    anisotropic-toy bond of eta = (1, -1, 2) based at (7, 9, 6), deep inside
    the atomistic region, where exp(zeta . a) overflows. Every model must
    raise a domain error naming that site and direction, not return an
    infinite energy."""
    from bvcouple.coupling import coupled_energy_dg
    from bvcouple.potentials import PotentialDomainError

    cfg = LatticeConfig(N=(16, 16, 16), epsilon=1.0 / 16.0)
    part = RegionPartition(cfg, (2, 2, 2), (12, 12, 12))
    law = make_law((1, -1, 2), "anisotropic-toy")
    R = InteractionSet([make_law((1, 1, 1), "harmonic"), law])
    a = dict(law.params)["a"]
    vals = np.zeros(cfg.shape)
    vals[8, 8, 8] = 800.0 * cfg.epsilon * a / (a @ a)
    y = make_deformation(np.eye(3), LatticeField(cfg, vals))

    for evaluate in (
        lambda: atomistic_energy(y, R),
        lambda: coupled_energy_conforming(y, R, part),
        lambda: coupled_energy_dg(y, y, R, part),
    ):
        with pytest.raises(PotentialDomainError, match=r"not finite") as err:
            evaluate()
        assert err.value.site == (7, 9, 6)
        assert err.value.eta == (1, -1, 2)
        assert "site (7, 9, 6)" in str(err.value) and "eta=(1, -1, 2)" in str(err.value)


@pytest.mark.parametrize("case", ["collapsed bond", "overflowing law"])
def test_energy_only_calls_raise_the_same_domain_errors(case):
    """The states of the two tests above, on the atomistic model (a
    stencil) and the conforming model (its atomistic bonds a gather): the
    energy-only call, which checks phi only, raises the domain error of the
    full call, with the same message, site and direction."""
    from bvcouple.potentials import PotentialDomainError

    cfg = LatticeConfig(N=(16, 16, 16), epsilon=1.0 / 16.0)
    part = RegionPartition(cfg, (2, 2, 2), (12, 12, 12))
    vals = np.zeros(cfg.shape)
    if case == "collapsed bond":
        R = InteractionSet([make_law((2, 1, 1), "lennard-jones-radial")])
        vals[8, 8, 8] = -cfg.epsilon * np.array([2.0, 1.0, 1.0])
    else:
        law = make_law((1, -1, 2), "anisotropic-toy")
        R = InteractionSet([make_law((1, 1, 1), "harmonic"), law])
        a = dict(law.params)["a"]
        vals[8, 8, 8] = 800.0 * cfg.epsilon * a / (a @ a)
    y = make_deformation(np.eye(3), LatticeField(cfg, vals))

    for evaluate in (
        lambda gradient: atomistic_energy(y, R, gradient=gradient),
        lambda gradient: coupled_energy_conforming(y, R, part, gradient=gradient),
    ):
        errors = []
        for gradient in (True, False):
            with pytest.raises(PotentialDomainError) as err:
                evaluate(gradient)
            errors.append((str(err.value), err.value.site, err.value.eta))
        assert errors[0] == errors[1]


@pytest.mark.parametrize("gradient", [True, False])
def test_naive_model_names_a_collapsed_bond(gradient):
    """Moving the tip of the bond of eta = (1, 1, 1) at l by -eps (1, 1, 1)
    collapses it to zero length. At l = (5, 5, 5) its midpoint lies in the
    atomistic box, and the naive model's atomistic term names it; at
    l = (0, 0, 0) the bond is the continuum's, and every staircase template
    of the cell at l collapses with it, so the continuum term names l."""
    from bvcouple.potentials import PotentialDomainError

    cfg = cfg12()
    part = RegionPartition(cfg, (4, 4, 4), (4, 4, 4))
    R = InteractionSet([make_law((1, 1, 1), "lennard-jones-radial")])
    for site in ((5, 5, 5), (0, 0, 0)):
        vals = np.zeros(cfg.shape)
        vals[tuple(np.add(site, 1))] = -cfg.epsilon * np.ones(3)
        y = make_deformation(np.eye(3), LatticeField(cfg, vals))
        with pytest.raises(PotentialDomainError) as err:
            naive_coupling_energy(y, R, part, gradient=gradient)
        assert err.value.site == site
        assert err.value.eta == (1, 1, 1)
        assert f"site {site}" in str(err.value)


def test_covering_interpolant_rejects_out_of_range_index():
    """A covering index outside [0, n_eta) is an error, not a wrapped or
    bare IndexError lookup: m = -1 must not silently return the last
    covering."""
    cfg = cfg12()
    part = part_a(cfg)
    u = LatticeField(cfg, np.zeros(cfg.shape))
    for m in (-1, N_ETA, N_ETA + 3):
        with pytest.raises(ValueError, match=r"\[0, 6\)"):
            covering_interpolant(m, ETA, u, part)
    assert covering_interpolant(N_ETA - 1, ETA, u, part).index == N_ETA - 1


# ---------------------------------------------------------------------------
# per-direction block operators, row by row
# ---------------------------------------------------------------------------

BLOCK_ETAS = ((1, 1, 1), (2, 1, 3), (1, -1, 2), (0, 2, 1), (0, 0, 3), (-2, 1, -1))
BLOCK_PLACEMENTS = (((4, 4, 4), (4, 4, 4)), ((3, 5, 4), (5, 3, 4)))


def _blocks_under_test():
    from bvcouple.coupling import _build_eta_block

    cfg = cfg12()
    for corner, ext in BLOCK_PLACEMENTS:
        part = RegionPartition(cfg, corner, ext)
        for eta in BLOCK_ETAS:
            yield part, eta, _build_eta_block(part, eta)


def test_block_operators_reproduce_affine_fields_row_by_row():
    """For v_l = G l (integer G, lattice points l unwrapped: no row of these
    operators reaches across the torus), every atomistic bond, cone tet and
    both interface-jump sides must give exactly G eta. Weighted column sums,
    which homogeneous-state checks see, cannot catch a wrong single row."""
    cfg = cfg12()
    ell = np.indices(cfg.N).reshape(3, -1).T.astype(float)
    rng = np.random.default_rng(12)
    for part, eta, block in _blocks_under_test():
        G = rng.integers(-3, 4, size=(3, 3)).astype(float)
        v = ell @ G.T
        expected = G @ np.asarray(eta, dtype=float)
        tol = 1e-13 * np.abs(v).max()
        for name, op in (
            ("atom_op", block.atom_op.G),
            ("cone_op", block.cone_op.G),
            ("minus_op", block.jump.minus_op),
            ("plus_op", block.jump.plus_op),
        ):
            assert op.shape[0] > 0 or name == "atom_op", (name, eta)
            err = np.abs(op @ v - expected).max(initial=0.0)
            assert err <= tol, (name, part.corner, eta, err)


def test_cone_volumes_fill_each_interface_member():
    """Each interface member's cone tets (rows tagged with its site) have
    total lattice volume |B ^ Omega_a|, the member box clipped to the
    atomistic region; every interface member has a cone."""
    cfg = cfg12()
    for part, eta, block in _blocks_under_test():
        sites = block.cone_op.sites
        vol = np.bincount(sites, weights=block.volw.w * block.n_eta, minlength=cfg.n_sites)
        members = np.unique(sites)
        assert len(members) == block.counts["interface"], eta
        ell = np.stack(np.unravel_index(members, cfg.N), axis=1)
        mu = ell + np.minimum(eta, 0)
        w = np.where(np.asarray(eta) != 0, np.abs(eta), 1)
        lo = np.maximum(mu, part.corner)
        hi = np.minimum(mu + w, part.top)
        clipped = np.prod(hi - lo, axis=1).astype(float)
        assert np.all(clipped > 0)
        err = np.abs(vol[members] - clipped) / clipped
        assert err.max() <= 1e-13, (part.corner, eta, err.max())


def test_jump_rows_are_two_per_covering_on_each_gamma_face():
    """The two-sided model's jump term has 2 n_eta rows (two fine triangles
    per covering) on each unit face of Gamma whose axis has eta_axis != 0,
    and none on the others; a row's nu_a . eta is the atomistic side's
    outward normal (-1 on the lower plane, +1 on the upper) times eta_axis."""
    from bvcouple.coupling import _build_eta_block

    cfg = cfg12()
    cases = [law.eta for law in laws_full()] + [(1, 0, 2)]
    for corner, ext, readme_rows in (((4, 4, 4), (4, 4, 4), [192, 1152, 384]),
                                     ((3, 4, 5), (5, 4, 3), [188, 1128, 376])):
        part = RegionPartition(cfg, corner, ext)
        rows = []
        for eta in cases:
            block = _build_eta_block(part, eta)
            gam = block.gamma
            n_eta = int(np.prod([abs(e) for e in eta if e]))
            sites = np.stack(np.unravel_index(block.jump.trace_op.indices, cfg.N), axis=-1).reshape(-1, 3, 3)
            faces = Counter()
            for tri, nu_eta in zip(sites, gam.nu_eta):
                (axis,) = [a for a in range(3) if len(set(tri[:, a])) == 1]
                plane = int(tri[0, axis])
                assert plane in (part.corner[axis], part.top[axis]), (eta, tri)
                sign = -1 if plane == part.corner[axis] else 1
                assert nu_eta == sign * eta[axis], (eta, tri)
                faces[axis, plane] += 1
            expected = {
                (a, plane): 2 * n_eta * ext[(a + 1) % 3] * ext[(a + 2) % 3]
                for a in range(3) if eta[a] != 0 for plane in (part.corner[a], part.top[a])
            }
            assert faces == expected, (corner, eta)
            rows.append(len(gam.nu_eta))
        assert rows[:3] == readme_rows


def test_both_policies_share_one_cached_block():
    """A block does not read the degenerate-eta policy: evaluating one
    config under "reject" and then "reduce" builds its block once, and both
    reports are bitwise equal."""
    from bvcouple.coupling import _build_eta_block

    cfg = cfg12()
    part = part_a(cfg)
    R = InteractionSet([make_law((1, 1, 1), "harmonic")])
    rng = np.random.default_rng(15)
    y = make_deformation(np.eye(3), LatticeField(cfg, 0.01 * cfg.epsilon * rng.standard_normal(cfg.shape)))
    _build_eta_block.cache_clear()
    reports = [coupled_energy_conforming(y, R, part, policy) for policy in ("reject", "reduce")]
    info = _build_eta_block.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    assert reports[0].energy == reports[1].energy
    assert np.array_equal(reports[0].gradient.values, reports[1].gradient.values)


@pytest.mark.parametrize("N", [12, 24])
def test_blocks_equal_the_per_member_builder_byte_for_byte(N):
    """Cones built once per shape and placed by translation give every
    block field (CSR data, indices and indptr, gather sites, weights, the
    jump rows' operators, counts) with the dtype and bytes of the builder
    that calls ``_build_member_cone`` for every interface member, for
    every direction here, centred and off-centre, under both policies."""
    assert oracle_placements(12) == BLOCK_PLACEMENTS
    assert oracle_block_mismatches(N, BLOCK_ETAS) == []


def test_blocks_at_the_clearance_margin_equal_the_per_member_builder():
    """Member copies are their shape's CSR rows with the columns shifted by
    a flat offset, which holds because the wrapped ravel is linear on the
    closed atomistic box. On a region whose faces sit at the clearance
    margin of every direction here (corner 3, extents 6 at N=12), the
    blocks still have every byte of the per-member builder's under both
    policies, and every CSR a block builds reports canonical format
    (sorted columns, no duplicates), as the COO-built ones do."""
    from bvcouple.coupling import _build_eta_block

    margin = required_clearance(BLOCK_ETAS)
    corner, ext = (margin,) * 3, (12 - 2 * margin,) * 3
    assert (corner, ext) == ((3, 3, 3), (6, 6, 6))
    assert oracle_block_mismatches(12, BLOCK_ETAS, placements=((corner, ext),)) == []
    part = RegionPartition(cfg12(), corner, ext)
    for eta in BLOCK_ETAS:
        block = _build_eta_block(part, eta)
        for name, op in (("atom_op", block.atom_op.G), ("cone_op", block.cone_op.G),
                         ("minus_op", block.jump.minus_op), ("plus_op", block.jump.plus_op),
                         ("trace_op", block.jump.trace_op)):
            assert scipy_csr(op).has_canonical_format, (eta, name)


@pytest.mark.parametrize("N", [24, 36])
def test_cones_are_built_once_per_shape(monkeypatch, N):
    """Up to translation, the README directions' interface members take
    26, 104 and 44 cone shapes on a region of side N/3, centred or not,
    and the builder makes the cones of all of a direction's shapes in one
    pass, one cone per shape: the count does not grow with N, while the
    members grow as N^2."""
    from bvcouple import coupling

    shapes, built = [], []
    cone_shapes, cone_tets = coupling._cone_shapes, coupling._cone_tets

    def counted_shapes(mu, w, part):
        first, shape = cone_shapes(mu, w, part)
        shapes.append(len(first))
        return first, shape

    def counted_tets(mu, w, eta, *args):
        built.append((tuple(eta), len(mu)))
        return cone_tets(mu, w, eta, *args)

    monkeypatch.setattr(coupling, "_cone_shapes", counted_shapes)
    monkeypatch.setattr(coupling, "_cone_tets", counted_tets)
    cfg = LatticeConfig(N=(N, N, N), epsilon=1.0 / N)
    for corner, ext in oracle_placements(N):
        part = RegionPartition(cfg, corner, ext)
        shapes.clear()
        built.clear()
        for law in laws_full():
            coupling._build_eta_block.__wrapped__(part, law.eta)
        assert shapes == [26, 104, 44], (N, corner)
        assert built == [((1, 1, 1), 26), ((2, 1, 3), 104), ((1, -1, 2), 44)], (N, corner)


@pytest.mark.parametrize("N", [12, 18, 24])
def test_cone_shape_fixes_the_neighbour_classes(N):
    """The cone shape key holds no neighbour classes because it fixes them:
    on seeded random off-centre partitions, every interface member's six
    face-neighbour classes equal those of its shape's first member, for
    the README directions, two reduce directions and one with every
    component negative but one."""
    from bvcouple.coupling import _cone_shapes, _member_box, _member_classes, _neighbour_classes

    rng = np.random.default_rng(N)
    cfg = LatticeConfig(N=(N, N, N), epsilon=1.0 / N)
    ells = np.indices(cfg.N).reshape(3, -1).T
    margin = required_clearance(BLOCK_ETAS)
    for _ in range(20):
        corner = rng.integers(margin, N - margin, size=3)
        part = RegionPartition(cfg, corner, [rng.integers(1, N - margin - c + 1) for c in corner])
        for eta in BLOCK_ETAS:
            mu, w = _member_box(ells, eta)
            mu = mu[_member_classes(mu, w, part) == 1]
            first, shape = _cone_shapes(mu, w, part)
            nb = _neighbour_classes(mu, w, part)
            assert np.array_equal(nb, nb[first][shape]), (part.corner, part.extents, eta)


def test_only_the_two_sided_model_builds_jump_operators(monkeypatch):
    """On fresh blocks, coupled and coupled-ho(2) calls build no jump
    operator; the first coupled-dg call builds them once per block, and
    later calls reuse them."""
    from bvcouple import coupling
    from bvcouple.highorder import high_order_energy

    built = []
    jump_ops = coupling._jump_ops

    def counted(block):
        built.append(block.eta)
        return jump_ops(block)

    monkeypatch.setattr(coupling, "_jump_ops", counted)
    cfg = cfg12()
    part = part_a(cfg)
    R = laws_full()
    rng = np.random.default_rng(17)
    y = make_deformation(random_F(rng), LatticeField(cfg, 0.01 * cfg.epsilon * rng.standard_normal(cfg.shape)))
    coupling._build_eta_block.cache_clear()
    coupled_energy_conforming(y, R, part)
    high_order_energy(y, R, part, 2)
    assert built == []
    for _ in range(2):
        coupling.coupled_energy_dg(y, y, R, part)
    assert built == [law.eta for law in R]


def test_reports_time_every_block_and_name_the_ones_they_built():
    """Coupled reports carry ``setup_s``, the seconds the call spent
    fetching or building each direction's block (and the mesh of
    coupled-ho(k), k > 1), and ``built``, those it built: a cold
    coupled-ho(2) call builds every block and the mesh, later calls build
    none, and the conforming and two-sided models time no mesh."""
    from bvcouple import coupling, highorder

    cfg = cfg12()
    part = part_a(cfg)
    R = laws_full()
    y = make_deformation(np.eye(3), LatticeField.zeros(cfg))
    keys = [str(law.eta) for law in R]
    coupling._build_eta_block.cache_clear()
    highorder._build_mesh.cache_clear()
    calls = [lambda: highorder.high_order_energy(y, R, part, 2)] * 2 + [
        lambda: coupled_energy_conforming(y, R, part), lambda: coupling.coupled_energy_dg(y, y, R, part),
        lambda: highorder.high_order_energy(y, R, part, 1)]
    for i, call in enumerate(calls):
        diag = call().diagnostics
        timed = keys + ["mesh"] * (i < 2)
        assert list(diag["setup_s"]) == timed and all(t > 0.0 for t in diag["setup_s"].values())
        assert diag["built"] == (timed if i == 0 else [])


@pytest.mark.parametrize("model", ["coupled", "coupled-dg", "coupled-ho(2)", "naive"])
def test_state_off_the_partition_lattice_is_rejected_before_any_build(model):
    """A 12^3 state with a partition of the 24^3 lattice: every coupled
    model and the naive control raise one ValueError naming both extents,
    before a block or a mesh is built."""
    from bvcouple import coupling
    from bvcouple.highorder import _build_mesh, high_order_energy

    part = RegionPartition(LatticeConfig(N=(24, 24, 24), epsilon=1.0 / 24.0), (8, 8, 8), (8, 8, 8))
    cfg = cfg12()
    y = make_deformation(np.eye(3), LatticeField(cfg, 1e-3 * np.random.default_rng(5).standard_normal(cfg.shape)))
    call = {
        "coupled": lambda: coupled_energy_conforming(y, laws_full(), part),
        "coupled-dg": lambda: coupling.coupled_energy_dg(y, y, laws_full(), part),
        "coupled-ho(2)": lambda: high_order_energy(y, laws_full(), part, 2),
        "naive": lambda: naive_coupling_energy(y, laws_full(), part),
    }[model]
    coupling._build_eta_block.cache_clear()
    meshes = _build_mesh.cache_info().currsize
    with pytest.raises(ValueError, match=r"\(12, 12, 12\).*\(24, 24, 24\)"):
        call()
    assert coupling._build_eta_block.cache_info().currsize == 0
    assert _build_mesh.cache_info().currsize == meshes

from __future__ import annotations

import numpy as np
import pytest

from bvcouple.coupling import (
    BondClass,
    GammaFace,
    RegionPartition,
    classify_bond_volume,
    coupled_energy_conforming,
    covering_interpolant,
    jump_average,
    naive_coupling_energy,
    omega_star_mask,
    partition_violations,
    required_clearance,
)
from bvcouple.energies import acb_tetra_energy, atomistic_energy
from bvcouple.geometry import (
    DegenerateEta,
    covering_widths,
    decompose_cell_type_a,
    p1_gradient,
)
from bvcouple.lattice import (
    LatticeConfig,
    LatticeField,
    diff_quotient,
    make_deformation,
)
from bvcouple.potentials import InteractionSet, make_law, piola_stress


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
# jump/average algebra
# ---------------------------------------------------------------------------

def test_jump_average_continuous_trace():
    face = GammaFace(axis=0, plane=4, square=(4, 5, 5), nu_sign=-1)
    w = np.array([1.0, 2.0, 3.0])
    jump, avg = jump_average(face, w, w, (2, 1, 3))
    assert np.allclose(jump, 0.0, rtol=0, atol=0)
    assert np.allclose(avg, w, rtol=0, atol=0)


def test_jump_average_direct_substitution():
    face = GammaFace(axis=2, plane=8, square=(5, 5, 8), nu_sign=+1)
    a = np.array([0.5, -1.0, 2.0])
    eta = (2, 1, 3)
    n = face.nu_sign * eta[2]
    jump, avg = jump_average(face, a, np.zeros(3), eta)
    assert np.allclose(jump, n * a, rtol=0, atol=0)
    assert np.allclose(avg, 0.5 * a, rtol=0, atol=0)


def test_jump_average_orientation_algebra():
    """Flipping the normal negates the jump; swapping the traces negates the
    jump; doing both restores it. The average never changes."""
    face = GammaFace(axis=1, plane=4, square=(6, 4, 6), nu_sign=-1)
    flipped = GammaFace(axis=1, plane=4, square=(6, 4, 6), nu_sign=+1)
    eta = (1, -2, 1)
    rng = np.random.default_rng(3)
    wm, wp = rng.standard_normal(3), rng.standard_normal(3)
    j0, a0 = jump_average(face, wm, wp, eta)
    j1, a1 = jump_average(flipped, wm, wp, eta)
    j2, a2 = jump_average(face, wp, wm, eta)
    j3, a3 = jump_average(flipped, wp, wm, eta)
    assert np.allclose(j1, -j0) and np.allclose(j2, -j0) and np.allclose(j3, j0)
    assert np.allclose(a0, a1) and np.allclose(a2, a3)
    assert np.allclose(a2, 0.5 * (wm + wp))


def test_gamma_faces_closed_surface():
    cfg = cfg12()
    part = part_a(cfg)
    faces = part.gamma_faces()
    assert len(faces) == 6 * 4 * 4  # six sides of a 4x4x4 cell box
    # normals: outward on each side
    for f in faces:
        if f.plane == part.corner[f.axis]:
            assert f.nu_sign == -1
        else:
            assert f.nu_sign == +1


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

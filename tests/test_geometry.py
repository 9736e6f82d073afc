from __future__ import annotations

import numpy as np
import pytest

from bvcouple import cli, geometry
from bvcouple.geometry import (
    CoveringMismatch,
    DegenerateEta,
    covering_widths,
    enumerate_coverings,
    lemma_residual,
)
from bvcouple.lattice import LatticeConfig, LatticeField, canonicalize, diff_quotient
from geometry_oracle import (
    averaged_gradient,
    decompose_bond_volume_type_a,
    decompose_cell_type_a,
    p1_gradient,
    tilde_gradient,
)


def cfg6() -> LatticeConfig:
    return LatticeConfig(N=(6, 6, 6), epsilon=1.0 / 6.0)


def random_field(cfg, seed=0):
    rng = np.random.default_rng(seed)
    return LatticeField(cfg, rng.standard_normal(cfg.shape))


def edge_set(tets):
    """Unordered site pairs over all edges of all tets."""
    out = set()
    for tet in tets:
        for a, b in tet.edge_site_pairs():
            out.add(frozenset((a, b)))
    return out


# ---------------------------------------------------------------------------
# cell decomposition
# ---------------------------------------------------------------------------

def test_cell_decomposition_volumes():
    cfg = cfg6()
    deco = decompose_cell_type_a((2, 3, 1), cfg)
    assert len(deco.tets) == 6
    eps3 = cfg.epsilon**3
    for tet in deco.tets:
        assert np.isclose(tet.volume, eps3 / 6.0, rtol=1e-14, atol=0)
    assert np.isclose(sum(t.volume for t in deco.tets), eps3, rtol=1e-14, atol=0)


def test_cell_decomposition_diagonals():
    """The two diagonals that make the template globally conforming."""
    cfg = cfg6()
    ell = (1, 4, 2)
    deco = decompose_cell_type_a(ell, cfg)
    edges = edge_set(deco.tets)
    d1 = frozenset((ell, (ell[0] + 1, ell[1], ell[2] + 1)))
    d2 = frozenset(((ell[0], ell[1] + 1, ell[2]),
                    (ell[0] + 1, ell[1] + 1, ell[2] + 1)))
    assert d1 in edges
    assert d2 in edges


def test_cell_tets_have_three_cell_edges():
    cfg = cfg6()
    deco = decompose_cell_type_a((0, 0, 0), cfg)
    for tet in deco.tets:
        unit_edges = 0
        for a, b in tet.edge_site_pairs():
            diff = np.abs(np.array(a) - np.array(b))
            if diff.sum() == 1:
                unit_edges += 1
        assert unit_edges == 3


def test_cell_partition_point_location():
    """Random interior points of the cell lie in exactly one tetrahedron."""
    cfg = cfg6()
    deco = decompose_cell_type_a((3, 3, 3), cfg)
    rng = np.random.default_rng(8)
    eps = cfg.epsilon
    for _ in range(60):
        x = eps * (np.array([3.0, 3.0, 3.0]) + rng.random(3))
        inside = 0
        for tet in deco.tets:
            A = (tet.vertices[1:] - tet.vertices[0]).T
            lam = np.linalg.solve(A, x - tet.vertices[0])
            lam0 = 1.0 - lam.sum()
            if np.all(lam > 1e-9) and lam0 > 1e-9:
                inside += 1
        assert inside <= 1
        # on the boundary between tets the strict count can be 0; nudge those
        if inside == 0:
            continue


def test_torus_mesh_conformity():
    """Applying the single template to every cell of a small torus yields a
    conforming mesh: each triangular face is shared by exactly two tets."""
    cfg = LatticeConfig(N=(4, 4, 4), epsilon=0.25)
    faces: dict = {}
    for l0 in range(4):
        for l1 in range(4):
            for l2 in range(4):
                for tet in decompose_cell_type_a((l0, l1, l2), cfg).tets:
                    canon = [canonicalize(s, cfg) for s in tet.sites]
                    for skip in range(4):
                        tri = frozenset(canon[i] for i in range(4) if i != skip)
                        faces[tri] = faces.get(tri, 0) + 1
    counts = set(faces.values())
    assert counts == {2}, f"face multiplicities {counts}"


# ---------------------------------------------------------------------------
# bond-volume decomposition
# ---------------------------------------------------------------------------

def test_unit_bond_volume_matches_cell_template():
    cfg = cfg6()
    ell = (2, 2, 2)
    cell = decompose_cell_type_a(ell, cfg)
    bv = decompose_bond_volume_type_a(ell, (1, 1, 1), cfg)
    cell_sites = sorted(tuple(sorted(t.sites)) for t in cell.tets)
    bv_sites = sorted(tuple(sorted(t.sites)) for t in bv.decomposition.tets)
    assert cell_sites == bv_sites


def test_bond_volume_total_volume():
    cfg = LatticeConfig(N=(12, 12, 12), epsilon=1.0)
    bv = decompose_bond_volume_type_a((0, 0, 0), (2, 1, 3), cfg)
    assert len(bv.decomposition.tets) == 6
    assert np.isclose(sum(t.volume for t in bv.decomposition.tets), 6.0,
                      rtol=1e-13, atol=0)


def test_bond_volume_diagonals():
    cfg = LatticeConfig(N=(12, 12, 12), epsilon=1.0)
    ell = (1, 2, 3)
    eta = (2, 1, 3)
    bv = decompose_bond_volume_type_a(ell, eta, cfg)
    edges = edge_set(bv.decomposition.tets)
    d1 = frozenset((ell, (ell[0] + 2, ell[1], ell[2] + 3)))
    d2 = frozenset(((ell[0], ell[1] + 1, ell[2]),
                    (ell[0] + 2, ell[1] + 1, ell[2] + 3)))
    assert d1 in edges
    assert d2 in edges
    # the main diagonal is the bond itself
    bond = frozenset((ell, (ell[0] + 2, ell[1] + 1, ell[2] + 3)))
    assert bond in edges


def test_bond_volume_negative_components():
    """Negative eta components reflect the box to the componentwise min
    corner; the bond is still the main diagonal."""
    cfg = LatticeConfig(N=(12, 12, 12), epsilon=1.0)
    ell = (5, 5, 5)
    eta = (2, -1, 3)
    bv = decompose_bond_volume_type_a(ell, eta, cfg)
    sites = {s for t in bv.decomposition.tets for s in t.sites}
    mins = np.min(np.array(sorted(sites)), axis=0)
    maxs = np.max(np.array(sorted(sites)), axis=0)
    assert tuple(mins) == (5, 4, 5)
    assert tuple(maxs) == (7, 5, 8)
    edges = edge_set(bv.decomposition.tets)
    assert frozenset((ell, (7, 4, 8))) in edges


def test_bond_volume_rejects_degenerate_eta():
    cfg = cfg6()
    with pytest.raises(DegenerateEta):
        decompose_bond_volume_type_a((0, 0, 0), (1, 0, 2), cfg)


# ---------------------------------------------------------------------------
# gradients on tets
# ---------------------------------------------------------------------------

def test_p1_gradient_affine_reproduction():
    cfg = cfg6()
    A = np.array([[1.0, 2.0, -0.5], [0.0, 3.0, 1.0], [2.0, -1.0, 0.5]])
    for tet in decompose_cell_type_a((1, 1, 1), cfg).tets:
        nodal = tet.vertices @ A.T
        G = p1_gradient(tet, nodal)
        assert np.allclose(G, A, rtol=0, atol=1e-12)
    constant = np.tile([1.0, 2.0, 3.0], (4, 1))
    tet = decompose_cell_type_a((1, 1, 1), cfg).tets[0]
    assert np.allclose(p1_gradient(tet, constant), 0.0, rtol=0, atol=1e-13)


def test_p1_gradient_indicator_oracle():
    """Indicator data at each vertex reproduces the shape-function gradient
    from an explicit 4x4 linear solve for the affine coefficients."""
    cfg = cfg6()
    tet = decompose_cell_type_a((2, 0, 4), cfg).tets[3]
    M = np.hstack([np.ones((4, 1)), tet.vertices])
    for v in range(4):
        rhs = np.zeros(4)
        rhs[v] = 1.0
        coef = np.linalg.solve(M, rhs)      # [c, gx, gy, gz]
        nodal = np.zeros((4, 3))
        nodal[v, 0] = 1.0
        G = p1_gradient(tet, nodal)
        assert np.allclose(G[0], coef[1:], rtol=0, atol=1e-10)
        assert np.allclose(G[1:], 0.0, rtol=0, atol=1e-12)


def test_tilde_gradient_homogeneous():
    cfg = cfg6()
    F = np.array([[1.0, 0.3, 0.0], [0.2, 0.9, 0.1], [0.0, 0.0, 1.2]])
    vals = np.zeros(cfg.shape)
    for l0 in range(6):
        for l1 in range(6):
            for l2 in range(6):
                x = cfg.epsilon * np.array([l0, l1, l2], dtype=float)
                vals[l0, l1, l2] = F @ x
    # remove the periodic wrap effect by checking an interior cell only
    u = LatticeField(cfg, vals)
    for tet in decompose_cell_type_a((2, 2, 2), cfg).tets:
        assert np.allclose(tilde_gradient(tet, u), F, rtol=0, atol=1e-12)


def test_tilde_gradient_edge_quotient_relation():
    """On the tet visiting e3, e1, e2 the column for e2 is the difference
    quotient based at ell + e1 + e3 and the column for e3 is based at ell."""
    cfg = cfg6()
    u = random_field(cfg, seed=21)
    ell = (1, 2, 3)
    want_sites = {
        ell,
        (ell[0], ell[1], ell[2] + 1),
        (ell[0] + 1, ell[1], ell[2] + 1),
        (ell[0] + 1, ell[1] + 1, ell[2] + 1),
    }
    deco = decompose_cell_type_a(ell, cfg)
    tet = next(t for t in deco.tets if set(t.sites) == want_sites)
    G = tilde_gradient(tet, u)
    assert np.allclose(G[:, 1], diff_quotient(u, (ell[0] + 1, ell[1], ell[2] + 1),
                                              (0, 1, 0)), rtol=0, atol=0)
    assert np.allclose(G[:, 2], diff_quotient(u, ell, (0, 0, 1)), rtol=0, atol=0)
    assert np.allclose(G[:, 0], diff_quotient(u, (ell[0], ell[1], ell[2] + 1),
                                              (1, 0, 0)), rtol=0, atol=0)


def test_tilde_equals_p1_on_every_tet():
    cfg = cfg6()
    u = random_field(cfg, seed=4)
    for ell in [(0, 0, 0), (3, 1, 4), (5, 5, 5)]:
        for tet in decompose_cell_type_a(ell, cfg).tets:
            nodal = np.array([u.at(s) for s in tet.sites])
            assert np.allclose(tilde_gradient(tet, u), p1_gradient(tet, nodal),
                               rtol=0, atol=1e-13)


def test_averaged_gradient_homogeneous():
    cfg = cfg6()
    rng = np.random.default_rng(15)
    F = np.eye(3) + 0.1 * rng.standard_normal((3, 3))
    vals = np.zeros(cfg.shape)
    for l0 in range(6):
        for l1 in range(6):
            for l2 in range(6):
                vals[l0, l1, l2] = F @ (cfg.epsilon * np.array([l0, l1, l2]))
    u = LatticeField(cfg, vals)
    assert np.allclose(averaged_gradient((2, 2, 2), u), F, rtol=0, atol=1e-12)


def test_averaged_gradient_literal_transcription():
    """Column a averages the four parallel-edge difference quotients of the
    cell; transcribe that definition directly and compare."""
    cfg = cfg6()
    u = random_field(cfg, seed=33)
    ell = (4, 1, 2)
    G = averaged_gradient(ell, u)
    for a in range(3):
        others = [d for d in range(3) if d != a]
        e_a = tuple(1 if d == a else 0 for d in range(3))
        col = np.zeros(3)
        for s1 in (0, 1):
            for s2 in (0, 1):
                base = list(ell)
                base[others[0]] += s1
                base[others[1]] += s2
                col += diff_quotient(u, tuple(base), e_a)
        col /= 4.0
        assert np.allclose(G[:, a], col, rtol=0, atol=1e-14)


def test_averaged_gradient_single_site():
    """Only u at ell + e1 is nonzero: column 1 picks it up with weight
    +1/(4 eps) once, the parallel edges elsewhere contribute nothing."""
    cfg = cfg6()
    vals = np.zeros(cfg.shape)
    c = np.array([2.0, -1.0, 0.5])
    ell = (2, 2, 2)
    vals[3, 2, 2] = c
    u = LatticeField(cfg, vals)
    G = averaged_gradient(ell, u)
    eps = cfg.epsilon
    # column 1: ell+e1 tops the edge based at ell, weight +1/4
    assert np.allclose(G[:, 0], c / (4.0 * eps), rtol=0, atol=1e-14)
    # columns 2 and 3: ell+e1 is the base of one parallel edge each
    assert np.allclose(G[:, 1], -c / (4.0 * eps), rtol=0, atol=1e-14)
    assert np.allclose(G[:, 2], -c / (4.0 * eps), rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# coverings
# ---------------------------------------------------------------------------

def test_single_covering_for_unit_eta():
    cfg = cfg6()
    covs = enumerate_coverings((1, 1, 1), cfg)
    assert len(covs) == 1
    assert len(covs[0].base_sites) == 6 * 6 * 6


def test_covering_count_and_widths():
    cfg = cfg6()
    assert covering_widths((2, 1, 3)) == (2, 1, 3)
    assert covering_widths((-2, 1, 3)) == (2, 1, 3)
    covs = enumerate_coverings((2, 1, 3), cfg)
    assert len(covs) == 6


def test_covering_exhaustive_tiling():
    """On a 6x6x6 torus, every cell lies in exactly one member per covering
    and member volumes sum to the torus volume."""
    cfg = cfg6()
    eta = (2, -1, 3)
    w = covering_widths(eta)
    covs = enumerate_coverings(eta, cfg)
    vol_member = cfg.epsilon**3 * w[0] * w[1] * w[2]
    for cov in covs:
        hits = np.zeros(cfg.N, dtype=int)
        for base in cov.base_sites:
            mu = tuple(base[d] + min(eta[d], 0) for d in range(3))
            for i in range(w[0]):
                for j in range(w[1]):
                    for k in range(w[2]):
                        cell = canonicalize((mu[0] + i, mu[1] + j, mu[2] + k), cfg)
                        hits[cell] += 1
        assert np.all(hits == 1)
        assert np.isclose(len(cov.base_sites) * vol_member, cfg.volume,
                          rtol=1e-13, atol=0)


def test_cell_belongs_to_one_member_per_covering():
    # across all coverings a fixed cell is claimed |eta1 eta2 eta3| times
    cfg = cfg6()
    eta = (2, 1, 3)
    w = covering_widths(eta)
    covs = enumerate_coverings(eta, cfg)
    cell = (4, 2, 5)
    owners = 0
    for cov in covs:
        mine = 0
        for base in cov.base_sites:
            mu = tuple(base[d] + min(eta[d], 0) for d in range(3))
            if all((cell[d] - mu[d]) % cfg.N[d] < w[d] for d in range(3)):
                mine += 1
        assert mine == 1
        owners += mine
    assert owners == 6


def test_covering_divisibility_error():
    cfg = LatticeConfig(N=(8, 8, 8), epsilon=0.125)
    with pytest.raises(CoveringMismatch) as err:
        enumerate_coverings((2, 1, 3), cfg)
    assert "2" in str(err.value)  # offending dimension named


# ---------------------------------------------------------------------------
# bond-volume lemma
# ---------------------------------------------------------------------------

def test_lemma_affine_is_exact_zero():
    cfg = LatticeConfig(N=(12, 12, 12), epsilon=1.0 / 12.0)
    A = np.array([[2.0, 1.0, -1.0], [0.0, 3.0, 1.0], [1.0, -2.0, 2.0]])
    vals = np.zeros(cfg.shape)
    for l0 in range(12):
        for l1 in range(12):
            for l2 in range(12):
                vals[l0, l1, l2] = A @ np.array([l0, l1, l2], dtype=float)
    u = LatticeField(cfg, vals)
    # interior bond volume, no wrap: the interpolant of integer-affine data
    # has the same telescoped edge differences on both sides bit for bit
    assert lemma_residual(u, (3, 3, 3), (2, 1, 3)) == 0.0
    assert lemma_residual(u, (4, 5, 4), (1, -1, 2)) == 0.0


def test_lemma_random_draws():
    cfg = LatticeConfig(N=(12, 12, 12), epsilon=1.0 / 12.0)
    rng = np.random.default_rng(2024)
    u = LatticeField(cfg, rng.standard_normal(cfg.shape))
    scale = max(np.abs(u.values).max() / cfg.epsilon, 1.0)
    for _ in range(100):
        ell = tuple(int(x) for x in rng.integers(0, 12, size=3))
        eta = tuple(int(s) * int(m) for s, m in
                    zip(rng.choice([-1, 1], size=3), rng.integers(1, 4, size=3)))
        res = lemma_residual(u, ell, eta)
        assert res <= 1e-13 * np.linalg.norm(eta) * scale


def test_lemma_rhs_monte_carlo_oracle():
    """Estimate (1/|e1 e2 e3|) integral of grad(I_B u) eta over the bond
    volume by locating uniform sample points in the staircase tets; the
    estimate must approach eps^3 D_eta u."""
    cfg = LatticeConfig(N=(12, 12, 12), epsilon=1.0 / 12.0)
    rng = np.random.default_rng(19)
    u = LatticeField(cfg, rng.standard_normal(cfg.shape))
    ell = (2, 3, 1)
    eta = (2, 1, 3)
    etaf = np.array(eta, dtype=float)
    bv = decompose_bond_volume_type_a(ell, eta, cfg)
    grads = []
    for tet in bv.decomposition.tets:
        nodal = np.array([u.at(s) for s in tet.sites])
        grads.append(p1_gradient(tet, nodal) @ etaf)
    eps = cfg.epsilon
    lo = eps * np.array([ell[d] + min(eta[d], 0) for d in range(3)], dtype=float)
    widths = eps * np.abs(etaf)
    n_samples = 40000
    acc = np.zeros(3)
    located = 0
    for _ in range(n_samples):
        x = lo + widths * rng.random(3)
        for tet, g in zip(bv.decomposition.tets, grads):
            A = (tet.vertices[1:] - tet.vertices[0]).T
            lam = np.linalg.solve(A, x - tet.vertices[0])
            if np.all(lam > -1e-12) and 1.0 - lam.sum() > -1e-12:
                acc += g
                located += 1
                break
    assert located == n_samples
    box_volume = float(np.prod(widths))
    estimate = acc / n_samples * box_volume / abs(eta[0] * eta[1] * eta[2])
    exact = eps**3 * diff_quotient(u, ell, eta)
    assert np.linalg.norm(estimate - exact) <= 5e-2 * np.linalg.norm(exact)


def test_lemma_rejects_degenerate_direction():
    """Every nonzero eta has a bond volume, of dimension its count of
    nonzero components; eta = 0 has none."""
    cfg = cfg6()
    u = random_field(cfg, seed=1)
    with pytest.raises(DegenerateEta, match="must be nonzero"):
        lemma_residual(u, (0, 0, 0), (0, 0, 0))


# The lemma check must read the decomposition: a staircase table without its
# orientation flip, or with one corner moved off the staircase path, makes
# `verify lemma` fail in the dimension it was mutated in.

def _unflipped(sites, corners, eta):
    """Undo the orientation swap: put the far corner back last."""
    far = np.asarray(corners)[..., None, :] + np.asarray(eta)
    flipped = np.any(sites[..., -1, :] != far, axis=-1)
    n = sites.shape[-2]
    sites[flipped] = sites[flipped][:, [*range(n - 2), n - 1, n - 2]]
    return sites


def _off_path(sites, corners, eta):
    """Move the second vertex of the first simplex one site further along
    the first nonzero axis of eta, off the box corners. (A move parallel to
    a later edge of the walk would shear the simplex and keep its volume and
    its diagonal edge, which is all the identity depends on.)"""
    sites[..., 0, 1, np.flatnonzero(eta)[0]] += 1
    return sites


@pytest.mark.parametrize("mutate", [_unflipped, _off_path])
@pytest.mark.parametrize("dim, check", [(3, "lemma-random"), (2, "lemma-reduced"), (1, "lemma-reduced")])
def test_verify_lemma_fails_on_a_mutated_decomposition(monkeypatch, tmp_path, capsys, mutate, dim, check):
    table = geometry._staircase_simplices

    def mutated(corners, eta):
        sites = table(corners, eta).copy()
        return mutate(sites, corners, eta) if np.count_nonzero(eta) == dim else sites

    monkeypatch.setattr(geometry, "_staircase_simplices", mutated)
    code = cli.main(["verify", "lemma", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1, out
    assert f"FAIL {check}" in out
    if dim < 3:
        assert "PASS lemma-random" in out and "PASS lemma-affine-exact" in out

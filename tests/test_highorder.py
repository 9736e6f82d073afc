from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from bvcouple import highorder
from bvcouple.coupling import RegionPartition, coupled_energy_conforming, omega_star_mask
from bvcouple.geometry import PATH_PERMS, path_corner_offsets
from bvcouple.highorder import (
    SUPPORTED_DEGREES,
    build_high_order_mesh,
    conical_quadrature,
    high_order_energy,
    simplex_multi_indices,
    _silvester_eval,
)
from bvcouple.lattice import (
    LatticeConfig,
    LatticeField,
    discrete_inner_product,
    make_deformation,
)
from bvcouple.potentials import InteractionSet, cb_energy_density, make_law, piola_stress
from geometry_oracle import mesh_mismatches, oracle_placements, row_unique_keys, scipy_csr


def cfg8() -> LatticeConfig:
    return LatticeConfig(N=(8, 8, 8), epsilon=1.0 / 8.0)


def part8(cfg) -> RegionPartition:
    return RegionPartition(cfg, (2, 2, 2), (4, 4, 4))


def laws() -> InteractionSet:
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


# ----------------------------------------------------------------------
# Reference-element machinery
# ----------------------------------------------------------------------

def test_conical_quadrature_integrates_monomials_exactly():
    """Exactness to total degree 2n-1 against the closed form
    int_T u^a v^b w^c = a! b! c! / (a+b+c+3)!."""
    for n in (1, 2, 3, 4):
        pts, wts = conical_quadrature(n)
        assert pts.shape == (n**3, 3)
        assert wts.shape == (n**3,)
        assert np.all(wts > 0)
        assert np.isclose(wts.sum(), 1.0 / 6.0, rtol=1e-14, atol=0)
        deg = 2 * n - 1
        for a in range(deg + 1):
            for b in range(deg + 1 - a):
                for c in range(deg + 1 - a - b):
                    got = float(
                        np.sum(wts * pts[:, 0] ** a * pts[:, 1] ** b * pts[:, 2] ** c)
                    )
                    exact = (
                        math.factorial(a)
                        * math.factorial(b)
                        * math.factorial(c)
                        / math.factorial(a + b + c + 3)
                    )
                    assert np.isclose(got, exact, rtol=1e-13, atol=1e-16), (n, a, b, c)


def test_quadrature_points_inside_reference_tet():
    for n in (1, 2, 3):
        pts, _ = conical_quadrature(n)
        assert np.all(pts > 0)
        assert np.all(pts.sum(axis=1) < 1)


def test_importing_the_cli_does_not_load_scipy_special():
    """``conical_quadrature`` imports scipy.special when a high-order model
    first builds its rule: a fresh interpreter that imports bvcouple.cli
    has not loaded it, and has once a rule is built."""
    src = str(Path(highorder.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, bvcouple.cli; before = 'scipy.special' in sys.modules; "
            "bvcouple.highorder.conical_quadrature(2); print(before, 'scipy.special' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["False", "True"]


# Run in a fresh interpreter, with scipy.sparse imported where {first} says:
# which of the scipy.sparse package, scipy's array-API shim and numpy.f2py
# importing bvcouple.cli loaded, whether bvcouple's _sparsetools is the
# module and the file that scipy.sparse imports, and a product of each.
_SPARSE_IMPORT_CHECK = """
import importlib.machinery, json, os, sys
import numpy as np
{first}
import bvcouple.cli
loaded = [m for m in ("scipy", "scipy.sparse", "scipy._lib._array_api", "numpy.f2py") if m in sys.modules]
from bvcouple import energies
from bvcouple.coupling import _csr
import scipy.sparse
from scipy.sparse import _sparsetools
spec = importlib.machinery.PathFinder.find_spec("_sparsetools", scipy.sparse.__path__)
entries = ([1.0, 2.0, 3.0], ([0, 1, 0], [1, 0, 1]))
print(json.dumps([loaded, energies._sparsetools is _sparsetools, os.path.samefile(_sparsetools.__file__, spec.origin),
                  (scipy.sparse.csr_array(entries, shape=(2, 2)) @ np.ones((2, 3))).tolist(),
                  (_csr(*entries[1], entries[0], (2, 2)) @ np.ones((2, 3))).tolist()]))
"""


@pytest.mark.parametrize("first", ["", "import scipy.sparse"])
def test_importing_the_cli_does_not_load_scipy_sparse(first):
    """bvcouple loads scipy's compiled sparse routines by their file path
    (``energies._load_sparsetools``), found without importing scipy. A
    fresh interpreter that imports bvcouple.cli has loaded none of the
    scipy package, scipy.sparse and what its import pulls in, scipy's
    array-API shim and numpy.f2py; the routines it loaded are the module
    and the file that scipy.sparse imports; and a product of scipy.sparse
    and one of bvcouple work whether scipy.sparse is imported after
    bvcouple or before it."""
    src = str(Path(highorder.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = _SPARSE_IMPORT_CHECK.format(first=first)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded, same_module, same_file, product, ours = json.loads(done.stdout)
    assert loaded == [] or first
    assert same_module and same_file
    assert product == ours == [[4.0] * 3, [2.0] * 3]


def test_simplex_multi_indices_count_and_sums():
    for k in (1, 2, 3, 4):
        idx = simplex_multi_indices(k)
        assert len(idx) == math.comb(k + 3, 3)
        assert len(set(idx)) == len(idx)
        for m in idx:
            assert len(m) == 4
            assert sum(m) == k
            assert all(mi >= 0 for mi in m)


def test_silvester_lagrange_basis_is_nodal():
    """The product of Silvester factors is 1 at its own node and 0 at every
    other node of the degree-k simplex lattice."""
    for k in (1, 2, 3):
        nodes = simplex_multi_indices(k)
        for m in nodes:
            for n in nodes:
                lam = np.array(n, dtype=float) / k
                val = 1.0
                for i in range(4):
                    v, _ = _silvester_eval(m[i], k, np.array([lam[i]]))
                    val *= float(v[0])
                expect = 1.0 if m == n else 0.0
                assert np.isclose(val, expect, rtol=0, atol=1e-12), (k, m, n)


def test_silvester_derivative_matches_finite_difference():
    h = 1e-6
    for k in (2, 3):
        for r in range(k + 1):
            for lam in (0.13, 0.48, 0.77):
                vp, _ = _silvester_eval(r, k, np.array([lam + h]))
                vm, _ = _silvester_eval(r, k, np.array([lam - h]))
                _, d = _silvester_eval(r, k, np.array([lam]))
                fd = (float(vp[0]) - float(vm[0])) / (2 * h)
                assert np.isclose(float(d[0]), fd, rtol=1e-6, atol=1e-9)


# ----------------------------------------------------------------------
# Mesh structure
# ----------------------------------------------------------------------

def test_interface_layer_is_degree_one():
    """Every staircase tet with a vertex on the boundary of the atomistic
    region is flagged degree-one, and no other tet is."""
    cfg = cfg8()
    part = part8(cfg)
    mesh = build_high_order_mesh(part, 2)
    a, top = part.corner, part.top

    def on_gamma(p):
        inside = all(a[i] <= p[i] <= top[i] for i in range(3))
        return inside and any(p[i] == a[i] or p[i] == top[i] for i in range(3))

    mask = omega_star_mask(part)
    for cell in np.argwhere(mask):
        for p, perm in enumerate(PATH_PERMS):
            verts = cell[None, :] + np.asarray(path_corner_offsets(perm))
            expect = any(on_gamma(v) for v in verts)
            assert mesh.p1_masks[(p,) + tuple(cell)] == expect
    # no cell outside the continuum region carries an element flag
    assert not mesh.p1_masks[:, ~mask].any()


def test_free_node_count_matches_edge_midpoint_recount():
    """Degree 2: free nodes are exactly the edge midpoints of the degree-k
    elements that are not lattice sites and do not lie on an edge of the
    degree-one layer (those are slaved for continuity)."""
    cfg = cfg8()
    part = part8(cfg)
    mesh = build_high_order_mesh(part, 2)
    N = cfg.N
    a, top = part.corner, part.top

    def on_gamma(p):
        inside = all(a[i] <= p[i] <= top[i] for i in range(3))
        return inside and any(p[i] == a[i] or p[i] == top[i] for i in range(3))

    pk_mid, p1_mid = set(), set()
    for cell in np.argwhere(omega_star_mask(part)):
        for perm in PATH_PERMS:
            verts = cell[None, :] + np.asarray(path_corner_offsets(perm))
            is_p1 = any(on_gamma(v) for v in verts)
            for i, j in combinations(range(4), 2):
                key = tuple(int(verts[i][d] + verts[j][d]) % (2 * N[d]) for d in range(3))
                (p1_mid if is_p1 else pk_mid).add(key)
    extra = {m for m in pk_mid if any(c % 2 for c in m)}
    slaved = {m for m in extra if m in p1_mid}
    assert mesh.n_free_nodes == len(extra) - len(slaved) == 1898


def test_mesh_sizes_frozen():
    cfg = cfg8()
    part = part8(cfg)
    m2 = build_high_order_mesh(part, 2)
    m3 = build_high_order_mesh(part, 3)
    assert m2.n_elements == m3.n_elements == 6 * (8**3 - 4**3)
    assert m2.n_p1_elements == m3.n_p1_elements == 816
    assert m2.n_free_nodes == 1898
    assert m3.n_free_nodes == 7360


# ----------------------------------------------------------------------
# Energies
# ----------------------------------------------------------------------

@pytest.mark.parametrize("N", [12, 24])
def test_mesh_equals_the_row_unique_slaving_byte_for_byte(monkeypatch, N):
    """The slaving step keys each row of sorted sub-simplex sites by one
    integer (``highorder._row_keys``); the mesh has every field and byte of
    the one keyed by the rows' ``np.unique(axis=0)`` ids, for k = 2 and 3
    on the centred and the off-centre region of side N/3."""
    cfg = LatticeConfig(N=(N, N, N), epsilon=1.0 / N)
    for corner, ext in oracle_placements(N):
        part = RegionPartition(cfg, corner, ext)
        for k in (2, 3):
            mesh = highorder._build_mesh.__wrapped__(part, k)
            with monkeypatch.context() as m:
                m.setattr(highorder, "_row_keys", row_unique_keys)
                ref = highorder._build_mesh.__wrapped__(part, k)
            assert mesh.n_free_nodes > 0
            assert mesh_mismatches(mesh, ref) == [], (corner, k)


def test_row_keys_do_not_overflow_on_large_lattices():
    """Three site columns as plain mixed-radix digits fill int64 exactly at
    N = 128 (2^21 sites) and overflow beyond it. ``_row_keys`` ranks the
    two-column prefixes first: at N = 160, on rows drawn from the whole
    site range, top sites included, its keys stay non-negative and sort
    and group the rows as their row-wise unique ids do."""
    n = 160**3
    assert n**3 > np.iinfo(np.int64).max
    rng = np.random.default_rng(160)
    pool = np.concatenate([rng.integers(0, n, size=(200, 3)), n - 1 - rng.integers(0, 4, size=(50, 3))])
    for s in (2, 3):
        rows = np.sort(pool[rng.integers(0, len(pool), size=3000), :s], axis=1)
        keys = highorder._row_keys(rows, n)
        assert keys.dtype == np.int64 and keys.min() >= 0
        assert np.array_equal(np.unique(keys, return_inverse=True)[1].ravel(), row_unique_keys(rows, n))


def test_degree_one_delegates_to_conforming():
    cfg = cfg8()
    part = part8(cfg)
    R = laws()
    rng = np.random.default_rng(2)
    F = random_F(rng)
    v = LatticeField(cfg, 0.01 * rng.standard_normal(cfg.shape))
    y = make_deformation(F, v)
    ref = coupled_energy_conforming(y, R, part)
    rep = high_order_energy(y, R, part, k=1)
    assert rep.energy == ref.energy
    assert np.array_equal(rep.gradient.values, ref.gradient.values)
    assert rep.model == "coupled-ho(1)"
    assert rep.diagnostics["node_gradient"].shape == (0, 3)
    with pytest.raises(ValueError, match="degree-1"):
        high_order_energy(y, R, part, k=1, node_displacements=np.zeros((4, 3)))


@pytest.mark.parametrize("k", [2, 3])
def test_atomistic_and_interface_terms_match_conforming(k):
    """The high-order model changes only the continuum: its atomistic bonds
    and interface cones are the conforming model's, bit for bit, whatever
    the free nodes carry."""
    cfg = cfg8()
    part = part8(cfg)
    R = laws()
    rng = np.random.default_rng(8)
    F = random_F(rng)
    y = make_deformation(F, LatticeField(cfg, 0.01 * rng.standard_normal(cfg.shape)))
    nodes = 0.005 * rng.standard_normal((build_high_order_mesh(part, k).n_free_nodes, 3))
    ref = coupled_energy_conforming(y, R, part)
    rep = high_order_energy(y, R, part, k=k, node_displacements=nodes)
    assert rep.breakdown["atomistic"] == ref.breakdown["atomistic"]
    assert rep.breakdown["interface"] == ref.breakdown["interface"]
    assert rep.breakdown["continuum"] != ref.breakdown["continuum"]
    assert rep.diagnostics["counts"] == ref.diagnostics["counts"]


def test_unsupported_degree_rejected():
    cfg = cfg8()
    part = part8(cfg)
    R = laws()
    y = make_deformation(np.eye(3), LatticeField(cfg, np.zeros(cfg.shape)))
    for bad in (0, 4, -1):
        with pytest.raises(ValueError, match="degree"):
            high_order_energy(y, R, part, k=bad)
        if bad > 0:
            with pytest.raises(ValueError, match="degree"):
                build_high_order_mesh(part, bad)
    assert SUPPORTED_DEGREES == (1, 2, 3)


def test_node_displacement_shape_rejected():
    cfg = cfg8()
    part = part8(cfg)
    R = laws()
    y = make_deformation(np.eye(3), LatticeField(cfg, np.zeros(cfg.shape)))
    with pytest.raises(ValueError, match="node_displacements"):
        high_order_energy(y, R, part, k=2, node_displacements=np.zeros((7, 3)))


@pytest.mark.parametrize("corner, extents, etas, error", [
    # (2,1,1) needs two cells of clearance: a corner at 1 lacks it
    ((1, 1, 1), (5, 5, 5), [(1, 1, 1), (2, 1, 1)], "clearance"),
    # a zero component under the default reject policy
    ((3, 2, 2), (2, 4, 4), [(1, 1, 1), (1, 0, 1)], "zero component"),
])
def test_bad_partition_is_rejected_before_the_mesh_is_built(corner, extents, etas, error):
    from bvcouple.highorder import _build_mesh

    cfg = cfg8()
    part = RegionPartition(cfg, corner, extents)
    R = InteractionSet([make_law(eta, "harmonic") for eta in etas])
    y = make_deformation(np.eye(3), LatticeField(cfg, np.zeros(cfg.shape)))
    before = _build_mesh.cache_info()
    for k in (2, 3):
        with pytest.raises(ValueError, match=error):
            high_order_energy(y, R, part, k=k)
    assert _build_mesh.cache_info() == before


def test_bad_degree_is_rejected_before_the_blocks_are_built():
    from bvcouple.coupling import _build_eta_block

    cfg = cfg8()
    part = RegionPartition(cfg, (2, 2, 2), (3, 3, 3))
    y = make_deformation(np.eye(3), LatticeField(cfg, np.zeros(cfg.shape)))
    before = _build_eta_block.cache_info()
    for bad in (0, 4):
        with pytest.raises(ValueError, match="degree"):
            high_order_energy(y, laws(), part, k=bad)
    assert _build_eta_block.cache_info() == before


def test_pk_domain_error_names_the_element_cell():
    """A huge displacement of one free node makes phi non-finite at the
    quadrature points of every Pk element around it. The node is taken on
    an edge or face inside one cell, so every such element is a tet of that
    cell, and the domain error must name it."""
    from bvcouple.potentials import PotentialDomainError

    cfg = cfg8()
    part = part8(cfg)
    R = InteractionSet([make_law((1, -1, 2), "anisotropic-toy")])
    y = make_deformation(np.eye(3), LatticeField.zeros(cfg))
    for k in (2, 3):
        mesh = build_high_order_mesh(part, k)
        nloc = len(simplex_multi_indices(k))
        cells_of: dict[int, set] = {}
        for op, cells in zip(mesh.elem_ops, mesh.elem_cells):
            coo = scipy_csr(op).tocoo()
            free = coo.col >= cfg.n_sites
            for row, col in zip(coo.row[free], coo.col[free]):
                # row (block b, node j, element i) is element b * block + i
                elem = row // (nloc * mesh.block) * mesh.block + row % mesh.block
                cells_of.setdefault(int(col) - cfg.n_sites, set()).add(int(cells[elem]))
        node, cell = max((j, c) for j, (c, *more) in cells_of.items() if not more)
        nodes = np.zeros((mesh.n_free_nodes, 3))
        nodes[node] = 1e200
        with pytest.raises(PotentialDomainError) as err:
            high_order_energy(y, R, part, k=k, node_displacements=nodes)
        assert err.value.site == np.unravel_index(cell, cfg.N), k
        assert err.value.eta == (1, -1, 2)


def test_homogeneous_energy_is_cell_average():
    """At y = y_F every element integrates the constant density W_CB(F)."""
    cfg = cfg8()
    part = part8(cfg)
    R = laws()
    rng = np.random.default_rng(14)
    F = random_F(rng)
    y = make_deformation(F, LatticeField(cfg, np.zeros(cfg.shape)))
    expect = cb_energy_density(R, F)  # |Omega| = 1
    for k in (2, 3):
        rep = high_order_energy(y, R, part, k=k)
        assert np.isclose(rep.energy, expect, rtol=1e-13, atol=0)


def test_homogeneous_state_has_no_forces():
    """Both dof blocks vanish at homogeneous deformations for k = 2, 3."""
    cfg = cfg8()
    part = part8(cfg)
    R = laws()
    rng = np.random.default_rng(33)
    eps = cfg.epsilon
    for k in (2, 3):
        for _ in range(2):
            F = random_F(rng)
            y = make_deformation(F, LatticeField(cfg, np.zeros(cfg.shape)))
            rep = high_order_energy(y, R, part, k=k)
            scale = max(1.0, np.abs(piola_stress(R, F)).max() / eps)
            assert np.abs(rep.gradient.values).max() <= 1e-11 * scale, k
            assert np.abs(rep.diagnostics["node_gradient"]).max() <= 1e-11 * scale, k


def test_gradient_matches_finite_differences_over_all_dofs():
    """Joint central-difference check: lattice sites and free element nodes
    perturbed together, then each block alone."""
    cfg = cfg8()
    part = part8(cfg)
    R = laws()
    # the degree-3 reference basis is stiffer, so its truncation error at
    # h = 1e-5 sits just above the target; one decade smaller fixes that
    # while staying far from roundoff (energies are O(10))
    for (k, n_trials), h in (((2, 2), 1e-5), ((3, 1), 1e-6)):
        mesh = build_high_order_mesh(part, k)
        rng = np.random.default_rng(60 + k)
        F = random_F(rng)
        v0 = LatticeField(cfg, 0.01 * rng.standard_normal(cfg.shape)).zero_mean()
        n0 = 0.01 * rng.standard_normal((mesh.n_free_nodes, 3))
        y0 = make_deformation(F, v0)
        rep = high_order_energy(y0, R, part, k=k, node_displacements=n0)
        eps = cfg.epsilon

        def energy(v: LatticeField, n: np.ndarray) -> float:
            return high_order_energy(
                make_deformation(F, v), R, part, k=k, node_displacements=n
            ).energy

        for _ in range(n_trials):
            w = LatticeField(cfg, rng.standard_normal(cfg.shape)).zero_mean()
            w = LatticeField(cfg, w.values / np.abs(w.values).max())
            wn = rng.standard_normal((mesh.n_free_nodes, 3))
            wn /= np.abs(wn).max()

            analytic = discrete_inner_product(rep.gradient, w) + eps**3 * float(
                np.sum(rep.diagnostics["node_gradient"] * wn)
            )
            ep = energy(LatticeField(cfg, v0.values + h * w.values), n0 + h * wn)
            em = energy(LatticeField(cfg, v0.values - h * w.values), n0 - h * wn)
            fd = (ep - em) / (2.0 * h)
            denom = max(abs(analytic), abs(fd), 1e-12)
            assert abs(analytic - fd) / denom <= 1e-6, ("joint", k)

            # node block alone
            analytic = eps**3 * float(np.sum(rep.diagnostics["node_gradient"] * wn))
            ep = energy(v0, n0 + h * wn)
            em = energy(v0, n0 - h * wn)
            fd = (ep - em) / (2.0 * h)
            denom = max(abs(analytic), abs(fd), 1e-12)
            assert abs(analytic - fd) / denom <= 1e-6, ("nodes", k)

            # lattice block alone
            analytic = discrete_inner_product(rep.gradient, w)
            ep = energy(LatticeField(cfg, v0.values + h * w.values), n0)
            em = energy(LatticeField(cfg, v0.values - h * w.values), n0)
            fd = (ep - em) / (2.0 * h)
            denom = max(abs(analytic), abs(fd), 1e-12)
            assert abs(analytic - fd) / denom <= 1e-6, ("lattice", k)


def test_report_diagnostics_carry_mesh_sizes():
    cfg = cfg8()
    part = part8(cfg)
    R = laws()
    y = make_deformation(np.eye(3), LatticeField(cfg, np.zeros(cfg.shape)))
    rep = high_order_energy(y, R, part, k=2)
    assert rep.diagnostics["n_elements"] == 6 * (8**3 - 4**3)
    assert rep.diagnostics["n_p1_elements"] == 816
    assert rep.diagnostics["n_free_nodes"] == 1898
    assert rep.model == "coupled-ho(2)"


def test_block_and_mesh_caches_are_bounded():
    """Building more placements than a cache holds leaves it at its bound."""
    from bvcouple.coupling import _BLOCK_CACHE_SIZE, _build_eta_block
    from bvcouple.highorder import _MESH_CACHE_SIZE, _build_mesh

    cfg = cfg8()
    corners = [(a, b, c) for a in (1, 2, 3) for b in (1, 2, 3) for c in (1, 2, 3)]
    assert len(corners) > _BLOCK_CACHE_SIZE > _MESH_CACHE_SIZE
    for corner in corners[: _BLOCK_CACHE_SIZE + 1]:
        _build_eta_block(RegionPartition(cfg, corner, (2, 2, 2)), (1, 1, 1))
    assert _build_eta_block.cache_info().currsize == _BLOCK_CACHE_SIZE
    for corner in corners[: _MESH_CACHE_SIZE + 1]:
        build_high_order_mesh(RegionPartition(cfg, corner, (2, 2, 2)), 2)
    assert _build_mesh.cache_info().currsize == _MESH_CACHE_SIZE


def test_a_warm_call_builds_no_pk_gather(monkeypatch):
    """A direction's Pk gathers, and the transposes they build, are kept
    with the mesh: a second coupled-ho(3) call at N=12 builds no
    ``_Gather`` and gives the first call's bits."""
    from bvcouple import energies

    cfg = LatticeConfig(N=(12, 12, 12), epsilon=1.0 / 12.0)
    part = RegionPartition(cfg, (4, 4, 4), (4, 4, 4))
    rng = np.random.default_rng(8)
    y = make_deformation(random_F(rng), LatticeField(cfg, 0.05 * cfg.epsilon * rng.standard_normal(cfg.shape)))
    nodes = 0.05 * cfg.epsilon * rng.standard_normal((build_high_order_mesh(part, 3).n_free_nodes, 3))
    first = high_order_energy(y, laws(), part, k=3, node_displacements=nodes)
    built = []
    init = energies._Gather.__init__
    monkeypatch.setattr(energies._Gather, "__init__", lambda self, *a, **kw: built.append(a) or init(self, *a, **kw))
    again = high_order_energy(y, laws(), part, k=3, node_displacements=nodes)
    assert built == []
    assert again.energy == first.energy and again.excess == first.excess
    assert np.array_equal(again.gradient.values, first.gradient.values)
    assert np.array_equal(again.diagnostics["node_gradient"], first.diagnostics["node_gradient"])


# ----------------------------------------------------------------------
# Block layout of the Pk gathers
# ----------------------------------------------------------------------

def element_major(G, coef, x):
    """Oracle of a Pk gather on element-major node rows (row e * nloc + j
    is node j of element e): each element's nq rows, one ``np.matmul`` of
    the coefficient block with its gathered values."""
    nloc = coef.shape[1]
    u = G @ x
    return np.concatenate([np.matmul(coef, u[e * nloc:(e + 1) * nloc]) for e in range(len(u) // nloc)])


def element_major_T(G, coef, p):
    """The transpose of ``element_major``: one ``np.matmul`` of the
    transposed coefficient block per element, then G^T."""
    nq = coef.shape[0]
    return G.T @ np.concatenate([np.matmul(coef.T, p[e * nq:(e + 1) * nq]) for e in range(len(p) // nq)])


def pk_gathers(monkeypatch, part, k, block):
    """The mesh's Pk gathers of one law, built with ``block`` elements per
    block, with their weights."""
    monkeypatch.setattr(highorder, "_PK_BLOCK", block)
    mesh = highorder._build_mesh.__wrapped__(part, k)
    assert mesh.block == block
    law = make_law((2, 1, 1), "morse-radial")
    return mesh, [(op, w) for op, w, *_ in mesh.pk_batches(InteractionSet([law]))], law


def oracle_rows(E, nq, block):
    """Per row of a blocked gather, (block b, point q, element i), its row
    e * nq + q of the element-major oracle, or -1 for a padding row."""
    b, q, i = np.indices((-(-E // block), nq, block)).reshape(3, -1)
    e = b * block + i
    return np.where(e < E, e * nq + q, -1)


@pytest.mark.parametrize("k", [2, 3])
def test_blocks_of_one_are_the_per_element_products_bitwise(monkeypatch, k):
    """With one element per block the gather's node rows are element-major,
    and ``op @ x`` and ``op.T @ p`` are the per-element products of the
    oracle, bit for bit."""
    cfg = cfg8()
    mesh, gathers, _ = pk_gathers(monkeypatch, part8(cfg), k, 1)
    rng = np.random.default_rng(k)
    x = rng.standard_normal((cfg.n_sites + mesh.n_free_nodes, 3))
    for op, _ in gathers:
        p = rng.standard_normal((op.rows, 3))
        assert op.rows == op.sites.size * op.coef.shape[0]
        assert np.array_equal(op @ x, element_major(op.G, op.coef, x))
        assert np.array_equal(op.T @ p, element_major_T(op.G, op.coef, p))


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("corner, extents", [
    ((2, 2, 2), (4, 4, 4)),  # 312 elements per template: four blocks and a partial fifth
    ((1, 1, 1), (6, 6, 6)),  # 22 elements per template: one partial block
])
def test_blocked_gathers_match_the_element_major_oracle(monkeypatch, k, corner, extents):
    """At the default block every row of ``op @ x`` and of ``op.T @ p`` is
    the element-major oracle's within 1e-14 of its magnitude bound (the
    same products of absolute values), for element counts above and below
    one block, neither a multiple of it."""
    cfg = cfg8()
    part = RegionPartition(cfg, corner, extents)
    block = highorder._PK_BLOCK
    mesh, gathers, _ = pk_gathers(monkeypatch, part, k, block)
    _, oracle, _ = pk_gathers(monkeypatch, part, k, 1)
    rng = np.random.default_rng(10 * k + extents[0])
    x = rng.standard_normal((cfg.n_sites + mesh.n_free_nodes, 3))
    for (op, _), (ref, _) in zip(gathers, oracle, strict=True):
        E, (nq, nloc) = op.sites.size, op.coef.shape
        assert E % block and op.G.shape[0] == -(-E // block) * block * nloc
        rows = oracle_rows(E, nq, block)
        real = rows >= 0
        want = element_major(ref.G, ref.coef, x)
        bound = element_major(abs(scipy_csr(ref.G)), abs(ref.coef), abs(x))
        got = op @ x
        assert np.all(np.abs(got[real] - want[rows[real]]) <= 1e-14 * bound[rows[real]])
        p = rng.standard_normal((op.rows, 3))
        p_ref = np.empty((ref.rows, 3))
        p_ref[rows[real]] = p[real]
        want_T = element_major_T(ref.G, ref.coef, p_ref)
        bound_T = element_major_T(abs(scipy_csr(ref.G)), abs(ref.coef), abs(p_ref))
        assert np.all(np.abs(op.T @ p - want_T) <= 1e-14 * bound_T)


@pytest.mark.parametrize("k", [2, 3])
def test_padding_rows_add_nothing(monkeypatch, k):
    """The padding elements of the last block gather the empty node row:
    their rows of the CSR map are empty, their bonds are exactly F eta, their
    excess contributions exactly 0.0, whatever their phi' they leave the
    lattice and the node gradient blocks bit for bit as they are, and a
    domain error at one of them names the block's last real element."""
    from bvcouple.energies import _blocks, _bond_rows

    cfg = cfg8()
    mesh, gathers, law = pk_gathers(monkeypatch, part8(cfg), k, highorder._PK_BLOCK)
    rng = np.random.default_rng(k)
    F = random_F(rng)
    base = F @ law.eta_vec
    x = rng.standard_normal((cfg.n_sites + mesh.n_free_nodes, 3))
    for op, w in gathers:
        E, (nq, nloc) = op.sites.size, op.coef.shape
        pad = oracle_rows(E, nq, mesh.block) < 0
        assert pad.any()
        node_rows = np.diff(op.G.indptr).reshape(-1, nloc, mesh.block)
        assert not node_rows[-1][:, E % mesh.block:].any()
        z = _bond_rows([(op, w)], [0], x, cfg.epsilon, base, 0, op.rows, None, np.empty((op.rows, 3)))
        assert np.array_equal(z[pad], np.broadcast_to(base, (pad.sum(), 3)))
        phi, dphi = law.evaluate(z, 1)
        excess = _blocks(phi, w.w) - law.evaluate(base, 0)[0]
        excess *= w.w
        assert np.all(excess.ravel()[pad] == 0.0)
        p = dphi.copy()
        g = op.T @ p
        p[pad] = 1e6 * rng.standard_normal((pad.sum(), 3))
        assert np.array_equal(op.T @ p, g)
        assert op.site(int(np.flatnonzero(pad)[-1])) == np.unravel_index(op.sites[-1], cfg.N)

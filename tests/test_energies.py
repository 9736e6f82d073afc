from __future__ import annotations

import numpy as np
import pytest

from bvcouple.energies import acb_cell_energy, acb_tetra_energy, atomistic_energy
from bvcouple.lattice import (
    LatticeConfig,
    LatticeField,
    diff_quotient,
    discrete_inner_product,
    make_deformation,
)
from bvcouple.potentials import InteractionSet, cb_energy_density, make_law
from geometry_oracle import averaged_gradient, decompose_cell_type_a, p1_gradient

MODELS = [atomistic_energy, acb_tetra_energy, acb_cell_energy]


def cfg8() -> LatticeConfig:
    return LatticeConfig(N=(8, 8, 8), epsilon=0.125)


def laws_mixed() -> InteractionSet:
    return InteractionSet([
        make_law((1, 1, 1), "harmonic"),
        make_law((2, 1, 3), "morse-radial"),
        make_law((1, -1, 2), "anisotropic-toy"),
    ])


def random_deformation(cfg, seed=0, amp=None):
    rng = np.random.default_rng(seed)
    F = np.eye(3) + 0.05 * rng.standard_normal((3, 3))
    while np.linalg.det(F) <= 0.2:
        F = np.eye(3) + 0.05 * rng.standard_normal((3, 3))
    if amp is None:
        amp = 0.05 * cfg.epsilon
    v = LatticeField(cfg, amp * rng.standard_normal(cfg.shape))
    return make_deformation(F, v)


def test_homogeneous_energy_counting_oracle():
    """At y_F every bond sees F eta, so the energy is the site count times
    eps^3 W_CB(F); W_CB is recomputed here with an explicit loop."""
    cfg = cfg8()
    R = laws_mixed()
    rng = np.random.default_rng(14)
    F = np.eye(3) + 0.1 * rng.standard_normal((3, 3))
    y = make_deformation(F, LatticeField.zeros(cfg))
    w_cb = 0.0
    for law in R:
        zeta = F @ np.asarray(law.eta, dtype=float)
        w_cb += float(law.values(zeta[None, :])[0])
    expect = cfg.n_sites * cfg.epsilon**3 * w_cb
    for model in MODELS:
        rep = model(y, R)
        assert np.isclose(rep.energy, expect, rtol=1e-13, atol=0), rep.model


def test_homogeneous_gradient_vanishes():
    cfg = cfg8()
    R = laws_mixed()
    F = np.array([[1.05, 0.02, 0.0], [0.0, 0.98, -0.03], [0.01, 0.0, 1.1]])
    y = make_deformation(F, LatticeField.zeros(cfg))
    for model in MODELS:
        rep = model(y, R)
        scale = max(1.0, abs(rep.energy))
        assert np.abs(rep.gradient.values).max() <= 1e-13 * scale / cfg.epsilon**3


def test_atomistic_literal_transcription():
    """Explicit-loop recomputation of eps^3 sum_l sum_eta phi(D_eta y_l)."""
    cfg = LatticeConfig(N=(4, 4, 4), epsilon=0.25)
    R = InteractionSet([
        make_law((1, 1, 1), "harmonic"),
        make_law((1, -1, 1), "anisotropic-toy"),
    ])
    y = random_deformation(cfg, seed=3)
    total = 0.0
    for l0 in range(4):
        for l1 in range(4):
            for l2 in range(4):
                for law in R:
                    zeta = y.F @ law.eta_vec + diff_quotient(y.displacement, (l0, l1, l2), law.eta)
                    total += float(law.values(zeta[None, :])[0])
    total *= cfg.epsilon**3
    rep = atomistic_energy(y, R)
    assert np.isclose(rep.energy, total, rtol=1e-13, atol=0)


def test_acb_tetra_p1_cross_assembly():
    """The tetrahedral model equals a slow per-tet assembly that interpolates
    the deformation on each cell tet and evaluates W_CB of its p1 gradient."""
    cfg = LatticeConfig(N=(4, 4, 4), epsilon=0.25)
    R = InteractionSet([
        make_law((1, 1, 1), "harmonic"),
        make_law((1, 1, -1), "morse-radial"),
    ])
    y = random_deformation(cfg, seed=8)
    v = y.displacement
    total = 0.0
    for l0 in range(4):
        for l1 in range(4):
            for l2 in range(4):
                for tet in decompose_cell_type_a((l0, l1, l2), cfg).tets:
                    nodal = np.array([
                        y.F @ (cfg.epsilon * np.asarray(s, dtype=float)) + v.at(s)
                        for s in tet.sites
                    ])
                    G = p1_gradient(tet, nodal)
                    total += tet.volume * cb_energy_density(R, G)
    rep = acb_tetra_energy(y, R)
    assert np.isclose(rep.energy, total, rtol=1e-12, atol=0)


def test_acb_cell_literal_transcription():
    """Cell model equals eps^3 sum_l W_CB(F + averaged gradient of v at l)."""
    cfg = LatticeConfig(N=(4, 4, 4), epsilon=0.25)
    R = laws_mixed()
    y = random_deformation(cfg, seed=5)
    total = 0.0
    for l0 in range(4):
        for l1 in range(4):
            for l2 in range(4):
                G = y.F + averaged_gradient((l0, l1, l2), y.displacement)
                total += cb_energy_density(R, G)
    total *= cfg.epsilon**3
    rep = acb_cell_energy(y, R)
    assert np.isclose(rep.energy, total, rtol=1e-12, atol=0)


def test_single_site_perturbation_energy_change():
    """Perturbing one site changes the atomistic energy by exactly the bonds
    that touch it; recount those bonds directly."""
    cfg = cfg8()
    R = InteractionSet([make_law((1, 1, 1), "harmonic"),
                        make_law((2, 1, 3), "harmonic")])
    y = random_deformation(cfg, seed=11)
    site = (3, 4, 2)
    delta = np.array([0.004, -0.002, 0.001])
    vals = y.displacement.values.copy()
    vals[site] += delta
    y2 = make_deformation(y.F, LatticeField(cfg, vals))

    def bonds_touching(yy):
        total = 0.0
        for law in R:
            eta = law.eta
            back = tuple(site[d] - eta[d] for d in range(3))
            for ell in (site, back):
                zeta = yy.F @ law.eta_vec + diff_quotient(yy.displacement, ell, eta)
                total += float(law.values(zeta[None, :])[0])
        return cfg.epsilon**3 * total

    lhs = atomistic_energy(y2, R).energy - atomistic_energy(y, R).energy
    # make_deformation re-centers the mean, which shifts every site equally
    # and cancels in all difference quotients; only the touched bonds change
    rhs = bonds_touching(y2) - bonds_touching(y)
    assert np.isclose(lhs, rhs, rtol=1e-10, atol=1e-14)


def test_gradient_matches_finite_differences():
    """Central-difference check of <g, w> along random zero-mean directions
    for each model, mixed smooth laws."""
    cfg = cfg8()
    R = laws_mixed()
    h = 1e-5
    for model in MODELS:
        y = random_deformation(cfg, seed=31)
        rep = model(y, R)
        rng = np.random.default_rng(101)
        for _ in range(5):
            w = LatticeField(cfg, rng.standard_normal(cfg.shape)).zero_mean()
            w = LatticeField(cfg, w.values / np.abs(w.values).max())
            analytic = discrete_inner_product(rep.gradient, w)
            vp = LatticeField(cfg, y.displacement.values + h * w.values)
            vm = LatticeField(cfg, y.displacement.values - h * w.values)
            ep = model(make_deformation(y.F, vp), R).energy
            em = model(make_deformation(y.F, vm), R).energy
            fd = (ep - em) / (2.0 * h)
            denom = max(abs(analytic), abs(fd), 1e-12)
            assert abs(analytic - fd) / denom <= 1e-6, model.__name__


def test_gradient_zero_mean():
    cfg = cfg8()
    R = laws_mixed()
    y = random_deformation(cfg, seed=77)
    for model in MODELS:
        g = model(y, R).gradient
        mean = g.values.reshape(-1, 3).mean(axis=0)
        assert np.all(np.abs(mean) <= 1e-12 * max(1.0, np.abs(g.values).max()))


def test_model_tags_and_breakdown():
    cfg = cfg8()
    R = InteractionSet([make_law((1, 1, 1), "harmonic")])
    y = random_deformation(cfg, seed=1)
    assert atomistic_energy(y, R).model == "atomistic"
    assert acb_tetra_energy(y, R).model == "acb-tetra"
    assert acb_cell_energy(y, R).model == "acb-cell"


def test_potential_domain_violation_propagates():
    """A collapsed bond puts a radial law outside its domain."""
    from bvcouple.potentials import PotentialDomainError
    cfg = LatticeConfig(N=(4, 4, 4), epsilon=0.25)
    R = InteractionSet([make_law((1, 0, 1), "lennard-jones-radial")])
    vals = np.zeros(cfg.shape)
    # drag site (1,0,1) onto site (0,0,0): the bond vector becomes zero
    vals[1, 0, 1] = -0.25 * np.array([1.0, 0.0, 1.0])
    y = make_deformation(np.eye(3), LatticeField(cfg, vals))
    with pytest.raises(PotentialDomainError):
        atomistic_energy(y, R)


# ----------------------------------------------------------------------
# Shift stencils against np.roll
# ----------------------------------------------------------------------

README_ETAS = [(1, 1, 1), (2, 1, 3), (1, -1, 2)]


def roll_oracle(terms, v):
    """sum_k c_k v_{l + s_k}, one whole-array roll per term, in term order."""
    acc = np.zeros_like(v)
    for s, c in terms:
        acc += c * np.roll(v, tuple(-o for o in s), axis=(0, 1, 2))
    return acc


@pytest.mark.parametrize("N, slab_rows", [
    ((11, 12, 10), 300),     # two-plane slabs, the last one a single plane
    ((11, 12, 10), 720),     # slabs of six and five planes
    ((12, 12, 12), None),    # one slab: the roll branch
    ((64, 64, 64), None),    # two slabs of the default size
])
def test_stencils_equal_the_roll_oracle_bitwise(monkeypatch, N, slab_rows):
    """The bond, cell and six staircase stencils of the README directions
    and their transposes: ``apply`` and ``@`` give the roll oracle's bits,
    however the rows are cut into slabs, including slabs whose source
    wraps around the torus."""
    from bvcouple import energies

    if slab_rows is not None:
        monkeypatch.setattr(energies, "_SLAB_ROWS", slab_rows)
    v = np.random.default_rng(0).standard_normal(N + (3,))
    x = v.reshape(-1, 3)
    for eta in README_ETAS:
        stencils = [energies._bond_stencil(eta, N), energies._cell_stencil(eta, N),
                    *energies._staircase_stencils(eta, N)]
        for op in stencils:
            transposed = tuple((tuple(-o for o in s), c) for s, c in op.terms)
            for B, terms in ((op, op.terms), (op.T, transposed)):
                want = roll_oracle(terms, v).reshape(-1, 3)
                out = np.full_like(x, np.nan)
                assert B.apply(x, out) is out
                assert np.array_equal(out, want)
                assert np.array_equal(B @ x, want)


@pytest.mark.parametrize("model", ["atomistic", "acb-cell", "naive"])
def test_a_warm_call_builds_no_stencil(monkeypatch, model):
    """The bond and cell stencils, and the transposes they build, are kept
    per (eta, N): a second call of the atomistic, acb-cell or naive model
    builds no ``_Stencil`` and gives the first call's bits."""
    from bvcouple import energies
    from bvcouple.coupling import RegionPartition, naive_coupling_energy

    cfg = cfg8()
    part = RegionPartition(cfg, (2, 2, 2), (4, 4, 4))
    call = {"atomistic": atomistic_energy, "acb-cell": acb_cell_energy,
            "naive": lambda y, R: naive_coupling_energy(y, R, part)}[model]
    y, R = random_deformation(cfg, seed=3), laws_mixed()
    first = call(y, R)
    built = []
    init = energies._Stencil.__init__
    monkeypatch.setattr(energies._Stencil, "__init__", lambda self, *a: built.append(a) or init(self, *a))
    again = call(y, R)
    assert built == []
    assert again.energy == first.energy and again.excess == first.excess
    assert np.array_equal(again.gradient.values, first.gradient.values)


# ----------------------------------------------------------------------
# Per-axis displacement lines
# ----------------------------------------------------------------------

def line_field(lines) -> np.ndarray:
    """The (N1, N2, N3, 3) field whose component c at site l is
    ``lines[c][l_c]``."""
    N = tuple(len(line) for line in lines)
    v = np.empty(N + (3,))
    for c, line in enumerate(lines):
        v[..., c] = line.reshape([n if a == c else 1 for a, n in enumerate(N)])
    return v


@pytest.mark.parametrize("n, lanes", [(8, 1), (64, 1), (64, 2)])
def test_per_axis_lines_give_the_bits_of_their_field(monkeypatch, n, lanes):
    """Stencil batches given three per-axis lines sum every key to the bits
    of the same batches given the field of the lines: the bond, cell and
    six staircase stencils of all four law kinds under a sheared F, with
    scalar weights and with row weights, the toy's zero exactly where the
    lines make it overflow, so those rows must be evaluated at F eta; at n=64 every batch is two pieces, on one lane and streamed."""
    from bvcouple import energies

    monkeypatch.setattr(energies, "_LANES", lanes)
    cfg = LatticeConfig(N=(n, n, n), epsilon=4.0 / n)
    rng = np.random.default_rng(n)
    lines = tuple(0.01 * rng.standard_normal(n) for _ in range(3))
    lines[0][3] = 3000.0  # the toy's exp(zeta . a) overflows on the bonds that read it
    x = line_field(lines).reshape(-1, 3)
    F = np.array([[1.02, 0.01, 0.0], [0.0, 0.99, 0.03], [0.0, 0.0, 1.01]])
    laws = [make_law((1, 1, 1), "harmonic"), make_law((2, 1, 1), "morse-radial"),
            make_law((2, 1, 3), "lennard-jones-radial", {"well_depth": 0.5, "sigma": 2.494438257849294}),
            make_law((1, -1, 2), "anisotropic-toy")]
    batches = []
    for law in laws:
        for op in (energies._bond_stencil(law.eta, cfg.N), energies._cell_stencil(law.eta, cfg.N),
                   *energies._staircase_stencils(law.eta, cfg.N)):
            w = 1.0 + rng.random(op.rows)
            if law.kind == "anisotropic-toy":
                z = np.empty((op.rows, 3))
                energies._bond_rows([(op, 1.0)], [0], x, cfg.epsilon, F @ law.eta_vec, 0, op.rows, None, z)
                with np.errstate(over="ignore"):
                    w[~np.isfinite(law.evaluate(z, 0)[0])] = 0.0
                assert (w == 0.0).any()
            masked = law.kind == "anisotropic-toy" or len(batches) % 2
            batches.append((op, energies._weights(w) if masked else 0.5, law, f"eta={law.eta}"))
    got = energies._term("t", batches, F, lines, cfg.epsilon, ())
    want = energies._term("t", batches, F, x, cfg.epsilon, ())
    assert got.sums == want.sums and got.law_calls == want.law_calls
    assert all(np.isfinite(e) for e, _ in got.sums.values())
    assert got.lanes == want.lanes == lanes


def test_per_axis_lines_are_refused_by_gathers_and_gradients():
    """Lines fill stencil rows only: a gather given lines raises, and so
    does a gradient call, whose contributions are fields."""
    from bvcouple import energies
    from bvcouple.coupling import RegionPartition, _build_eta_block

    cfg = cfg8()
    lines = tuple(np.zeros(8) for _ in range(3))
    law = make_law((1, 1, 1), "harmonic")
    gather = energies._Gather(energies._Csr(np.zeros(2, dtype=np.int32), np.zeros(0, dtype=np.int32),
                                            np.zeros(0), (1, cfg.n_sites)), energies._ONE, np.zeros(1, dtype=int), cfg.N)
    with pytest.raises(TypeError, match="stencil batches"):
        energies._term("t", [(gather, 1.0, law, "k")], np.eye(3), lines, cfg.epsilon, ())
    stencil = energies._bond_stencil(law.eta, cfg.N)
    with pytest.raises(ValueError, match="energy-only"):
        energies._term("t", [(stencil, 1.0, law, "k")], np.eye(3), lines, cfg.epsilon, (np.zeros((cfg.n_sites, 3)),))


def spread_values(rng, n) -> np.ndarray:
    """n values of both signs and magnitudes 1e-5 to 1e5, about one in ten
    of them +0.0 or -0.0."""
    v = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-5.0, 5.0, n)
    zero = rng.random(n) < 0.1
    v[zero] = rng.choice(np.array([0.0, -0.0]), zero.sum())
    return v


def tree_sum_in_pieces(values, cuts) -> float:
    """The kernel's sum of ``values`` taken in the pieces between ``cuts``:
    each piece gives its tree nodes from a copy of its own values, as a
    piece's arena rows, and the nodes are added in tree order."""
    from bvcouple import energies

    nodes: dict = {}
    bounds = [0, *cuts, len(values)]
    for lo, hi in zip(bounds, bounds[1:]):
        energies._tree_nodes(nodes, values[lo:hi].copy(), lo, 0, len(values))
    return energies._tree_sum(nodes, 0, len(values))


def test_pairwise_tree_gives_the_bits_of_add_reduce():
    """Summed in pieces through numpy's pairwise tree, values of magnitudes
    1e-5 to 1e5 with +0.0 and -0.0 among them give the bits of one
    ``np.add.reduce`` (``repr`` tells -0.0 from 0.0): every length from 1 to
    300, whole, cut at one random row and cut every 7 rows (so up to 19
    fragments make one leaf); 2^17 - 1 and 2^17 + 1 rows cut at three rows;
    216,000 rows cut at 129,600, the pieces of an N=60 lattice batch, where
    the cut falls inside a leaf; 3,000,001 rows cut every 131,072; and all
    -0.0, whose sum is 0.0."""
    rng = np.random.default_rng(36)
    cases = []
    for n in range(1, 301):
        v = spread_values(rng, n)
        cases += [(v, []), (v, [int(rng.integers(0, n + 1))]), (v, list(range(7, n, 7)))]
        cases.append((np.full(n, -0.0), list(range(5, n, 5))))
    for n in (2**17 - 1, 2**17 + 1):
        cases.append((spread_values(rng, n), [1000, 2**16 + 3, n - 129]))
    cases.append((spread_values(rng, 216_000), [129_600]))
    cases.append((spread_values(rng, 3_000_001), list(range(131_072, 3_000_001, 131_072))))
    for v, cuts in cases:
        assert repr(tree_sum_in_pieces(v, cuts)) == repr(float(np.add.reduce(v))), (len(v), cuts)


def sweep_like_state(N, seed):
    """A sheared F and a small seeded displacement on the N^3 lattice of
    side 1."""
    rng = np.random.default_rng(seed)
    F = np.array([[1.02, 0.01, 0.0], [0.0, 0.99, 0.03], [0.0, 0.0, 1.01]])
    cfg = LatticeConfig(N=(N, N, N), epsilon=1.0 / N)
    return make_deformation(F, LatticeField(cfg, 1e-3 * rng.standard_normal(cfg.shape)))


README_LAWS = InteractionSet([
    make_law((1, 1, 1), "harmonic"),
    make_law((2, 1, 3), "lennard-jones-radial", {"well_depth": 0.5, "sigma": 2.494438257849294}),
    make_law((1, -1, 2), "anisotropic-toy"),
])


@pytest.mark.parametrize("lanes", [1, 2])
@pytest.mark.parametrize("N", [60, 64])
def test_pieces_reduce_to_the_bits_of_one_full_array_sum(monkeypatch, N, lanes):
    """At N=60 (each lattice batch two pieces, of 129,600 and 86,400 rows,
    the cut inside a 104-row leaf) and N=64 (two pieces of 131,072), on one
    lane and on two: every model's energy-only call has the bits of its
    gradient call's energy, excess and breakdown, and each atomistic key
    has the bits of the excess summed over the whole batch at once,
    eps^3 np.add.reduce(phi - phi(F eta)) with phi(F eta) from an extra row
    of the batch, plus its homogeneous share."""
    from bvcouple import energies

    monkeypatch.setattr(energies, "_LANES", lanes)
    y = sweep_like_state(N, N)
    eps = y.cfg.epsilon
    assert [(lo, hi) for lo, hi, _ in energies._pieces([(energies._bond_stencil((1, 1, 1), y.cfg.N), 1.0)],
                                                        N**3)] == \
        ([(0, 129_600), (129_600, 216_000)] if N == 60 else [(0, 2**17), (2**17, 2**18)])
    for model in MODELS:
        full, energy = model(y, README_LAWS), model(y, README_LAWS, gradient=False)
        assert repr((full.energy, full.excess, full.breakdown)) == \
            repr((energy.energy, energy.excess, energy.breakdown)), model.__name__
        assert full.diagnostics["lanes"] == energy.diagnostics["lanes"] == lanes
    energy = atomistic_energy(y, README_LAWS, gradient=False)
    x = y.displacement.values.reshape(-1, 3)
    for law in README_LAWS:
        op = energies._bond_stencil(law.eta, y.cfg.N)
        zeta = np.concatenate([op @ x / eps + y.F @ law.eta_vec, (y.F @ law.eta_vec)[None]])
        phi = law.evaluate(zeta, 0)[0]
        excess = float(eps**3 * np.add.reduce(phi[:-1] - phi[-1]))
        assert repr(energy.breakdown[f"eta={law.eta}"]) == repr(excess + float(eps**3 * phi[-1] * (1.0 * op.rows)))


def test_homogeneous_phi_is_kept_for_a_bounded_set_of_bonds():
    """phi(F eta) is evaluated on the lone bond once per law and F eta and
    then kept, with the bits of a batch row: a call at y_F has excess 0.0.
    Over 150 deformation gradients the kept values never number more than
    ``_HOMOGENEOUS_KEPT``, so a long-lived process keeps a bounded set."""
    from bvcouple import energies

    cfg = LatticeConfig(N=(4, 4, 4), epsilon=0.25)
    rng = np.random.default_rng(5)
    sizes = []
    for _ in range(150):
        y = make_deformation(np.eye(3) + 0.1 * rng.standard_normal((3, 3)), LatticeField.zeros(cfg))
        assert atomistic_energy(y, laws_mixed(), gradient=False).excess == 0.0
        sizes.append(len(energies._homogeneous))
    assert max(sizes) <= energies._HOMOGENEOUS_KEPT < 150 * len(laws_mixed())

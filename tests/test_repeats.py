"""Equal batches evaluated once: a batch that repeats the batch just before
it (the same stencil, law, key and weights) is a count of that batch's
pair, whose results the kernel adds once per batch (``energies._groups``).
Every report keeps the bits of the batches evaluated one by one. Equal
staircase templates are one stencil because ``energies._stencil`` puts a
stencil's first two terms in offset order, which changes no bit of an
apply."""
from __future__ import annotations

import itertools

import numpy as np
import pytest

from bvcouple import energies
from bvcouple.coupling import RegionPartition, coupled_energy_conforming
from bvcouple.geometry import PATH_PERMS, path_edge_offsets
from bvcouple.lattice import LatticeConfig
from bvcouple.potentials import InteractionSet, make_law
from test_lanes import README_LAWS, one_lane, state, two_lanes
from test_shifts import calls, report_bytes

# The README laws, a Morse law along (2, 1, 1), whose templates 0 and 1
# are equal and adjacent and templates 3 and 5 equal but apart, and the
# flat direction (1, 0, 0), which the coupled models admit under "reduce".
KINDS_LAWS = InteractionSet([*README_LAWS, make_law((2, 1, 1), "morse-radial"), make_law((1, 0, 0), "harmonic")])

# setting -> (N, laws, region corner, region extents, degenerate_eta policy)
SETTINGS = {
    "n12": (12, README_LAWS, (4, 4, 4), (4, 4, 4), "reject"),
    "n24": (24, README_LAWS, (8, 8, 8), (8, 8, 8), "reject"),
    "n12-kinds-reduce": (12, KINDS_LAWS, (4, 4, 4), (4, 4, 4), "reduce"),
}
MODELS = ("atomistic", "acb-tetra", "acb-cell", "coupled", "coupled-dg", "naive", "coupled-ho(2)")
LANES = {"one-lane": one_lane, "two-lanes": two_lanes}


def no_repeats(monkeypatch) -> None:
    """Every batch evaluated on its own, as if no two were equal."""
    monkeypatch.setattr(energies, "_repeats", lambda a, b: False)


@pytest.mark.parametrize("lanes", list(LANES))
@pytest.mark.parametrize("gradient", [True, False], ids=["gradient", "energy"])
@pytest.mark.parametrize("setting", list(SETTINGS))
@pytest.mark.parametrize("model", MODELS)
def test_repeated_batches_keep_every_bit(monkeypatch, model, setting, gradient, lanes):
    """Energy, excess, breakdown and every gradient block, byte for byte,
    with equal adjacent batches evaluated once and with every batch
    evaluated on its own; the unmerged call reports no repeats."""
    LANES[lanes](monkeypatch)
    call = calls(setting, gradient=gradient, settings=SETTINGS)[model]
    with monkeypatch.context() as m:
        no_repeats(m)
        plain = call()
    merged = call()
    assert report_bytes(merged) == report_bytes(plain)
    assert set(plain.diagnostics["repeats"].values()) == {0}
    assert merged.diagnostics["law_calls"].keys() == plain.diagnostics["law_calls"].keys()


def test_repeats_count_the_batches_that_reuse_a_result():
    """``repeats`` reads 5 for the README continuum term at every N (the
    six equal templates of eta = (1, 1, 1)) and 0 for every other term; at
    N=36, where every template is a unit of its own, the continuum term
    makes 13 law evaluations, not 18. The high-order model's templates have
    weights of their own, so none of them repeats."""
    for N in (12, 24, 36):
        cfg = LatticeConfig(N=(N, N, N), epsilon=1.0 / N)
        part = RegionPartition(cfg, (N // 3,) * 3, (N // 3,) * 3)
        rep = coupled_energy_conforming(state(cfg, 1, 0.01), README_LAWS, part, gradient=False)
        assert rep.diagnostics["repeats"] == {"atomistic": 0, "continuum": 5, "interface": 0}
        assert rep.diagnostics["law_calls"]["continuum"] == (3 if N == 12 else 13)
    reps = {name: call() for name, call in calls("n12-kinds-reduce", gradient=False, settings=SETTINGS).items()}
    # (1, 1, 1): 5; (2, 1, 1): templates 0 and 1; (1, 0, 0): templates 0 and 1
    assert reps["acb-tetra"].diagnostics["repeats"] == {"acb-tetra": 7}
    assert reps["naive"].diagnostics["repeats"] == {"atomistic": 0, "continuum": 7}
    assert reps["coupled-dg"].diagnostics["repeats"] == {
        "atomistic": 0, "continuum": 7, "interface": 0, "interface_jump": 0}
    assert set(reps["coupled-ho(2)"].diagnostics["repeats"].values()) == {0}
    assert set(reps["atomistic"].diagnostics["repeats"].values()) == {0}


def test_equal_templates_are_one_stencil():
    """The six staircase templates of eta = (1, 1, 1) are one object, the
    exact bond along the cell diagonal; those of (2, 1, 1) are four objects,
    with templates 0 and 1 one, and 3 and 5 one."""
    N = (12, 12, 12)
    ops = energies._staircase_stencils((1, 1, 1), N)
    assert len({id(op) for op in ops}) == 1
    assert ops[0].terms == energies._bond_stencil((1, 1, 1), N).terms == (((0, 0, 0), -1.0), ((1, 1, 1), 1.0))
    ops = energies._staircase_stencils((2, 1, 1), N)
    assert [ops.index(op) for op in ops] == [0, 0, 2, 3, 4, 3]


def raw_terms(eta, perm) -> list:
    """A staircase template's terms merged in the order of its
    ``path_edge_offsets``, with no term moved."""
    merged: dict = {}
    for a, s in sorted(path_edge_offsets(perm).items()):
        up = tuple(s[k] + (k == a) for k in range(3))
        for o, c in ((up, float(eta[a])), (s, -float(eta[a]))):
            merged[o] = merged.get(o, 0.0) + c
    return [(o, c) for o, c in merged.items() if c != 0.0]


def fields(N) -> list:
    """Fields on N holding +0.0 and -0.0, +1 and -1, and random entries."""
    rng = np.random.default_rng(5)
    shape = (int(np.prod(N)), 3)
    signs = rng.choice([0.0, -0.0, 1.0, -1.0], size=shape)
    return [signs, np.where(rng.random(shape) < 0.5, -0.0, 0.0), rng.standard_normal(shape),
            np.where(rng.random(shape) < 0.3, signs, rng.standard_normal(shape))]


def applies(op, x) -> bytes:
    """The bytes of op @ x and of op^T @ x."""
    return (op @ x).tobytes() + (op.T @ x).tobytes()


@pytest.mark.parametrize("coefs", [(1.0, -1.0), (-1.0, 1.0), (2.0, -3.0), (0.5, -0.5), (-2.0, 1.0)])
def test_the_first_two_terms_commute(coefs):
    """A stencil's first two terms swapped give the bytes of the stencil,
    on fields holding +-0.0, +-1 and random entries, whatever the offsets'
    wraps and the coefficients."""
    N = (6, 5, 4)
    for a, b in itertools.combinations([(0, 0, 0), (1, 1, 1), (0, 1, 0), (-1, 0, 2), (1, -1, 1)], 2):
        terms = ((a, coefs[0]), (b, coefs[1]))
        op, swapped = energies._Stencil(N, terms), energies._Stencil(N, terms[::-1])
        for x in fields(N):
            assert applies(op, x) == applies(swapped, x), (a, b)


def test_templates_in_path_order_are_the_canonical_bits():
    """Every staircase template of 2, 3 and 4 terms, applied with its terms
    in ``path_edge_offsets`` order, gives the bytes of the canonical
    stencil, whose first two terms are in offset order and whose others
    keep their order: so do its per-axis bond lines and its Hessian
    symbol."""
    N = (6, 6, 6)
    F = np.eye(3) + 0.05 * np.random.default_rng(6).standard_normal((3, 3))
    sizes = set()
    for eta in ((1, 1, 1), (2, 1, 1), (2, 1, 3), (1, -1, 2)):
        law = make_law(eta, "harmonic")
        for perm, op in zip(PATH_PERMS, energies._staircase_stencils(eta, N)):
            raw = energies._Stencil(N, tuple(raw_terms(eta, perm)))
            for x in fields(N):
                assert applies(raw, x) == applies(op, x), (eta, perm)
                lines = tuple(x[:6, c] for c in range(3))
                base = np.array([0.25, -0.5, 1.0])
                assert np.array_equal(np.stack(energies._bond_lines(raw, lines, 0.125, base)).view(np.uint64),
                                      np.stack(energies._bond_lines(op, lines, 0.125, base)).view(np.uint64))
            assert energies._hessian_symbol([(raw, 1.0 / 6.0, law)], F, N, 1.0 / 6.0).tobytes() == \
                energies._hessian_symbol([(op, 1.0 / 6.0, law)], F, N, 1.0 / 6.0).tobytes()
            assert sorted(raw.terms) == sorted(op.terms) and raw.terms[2:] == op.terms[2:]
            sizes.add(len(op.terms))
    assert sizes == {2, 3, 4}

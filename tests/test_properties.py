"""Property tests over random region placements and direction sets: every
homogeneous state of the coupled models reproduces the Cauchy-Born energy
exactly and is free of ghost forces, wherever the atomistic box sits,
whatever its shape and whichever directions interact."""
from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bvcouple.coupling import RegionPartition, coupled_energy_conforming, coupled_energy_dg, required_clearance
from bvcouple.highorder import high_order_energy
from bvcouple.lattice import LatticeConfig, LatticeField, make_deformation
from bvcouple.potentials import KINDS, InteractionSet, cb_energy_density, make_law, piola_stress

CFG = LatticeConfig(N=(12, 12, 12), epsilon=1.0 / 12.0)
README_LAWS = [
    make_law((1, 1, 1), "harmonic"),
    make_law((2, 1, 3), "lennard-jones-radial", {"well_depth": 0.5, "sigma": 2.494438257849294}),
    make_law((1, -1, 2), "anisotropic-toy"),
]
CLEARANCE = 3


@st.composite
def placements(draw, clearance=CLEARANCE):
    """Region boxes with the given clearance (by default the README laws')."""
    corner = [draw(st.integers(clearance, CFG.N[i] - clearance - 1)) for i in range(3)]
    extents = [draw(st.integers(1, CFG.N[i] - clearance - corner[i])) for i in range(3)]
    return RegionPartition(CFG, tuple(corner), tuple(extents))


# Directions with |eta_i| <= 3, which divide N = 12, zero components included.
directions = st.tuples(*[st.integers(-3, 3)] * 3).filter(any)


@st.composite
def direction_sets(draw):
    """One to three laws of any kind along distinct random directions."""
    etas = draw(st.lists(directions, min_size=1, max_size=3, unique=True))
    return InteractionSet([make_law(eta, draw(st.sampled_from(KINDS))) for eta in etas])


near_identity = st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9).map(
    lambda a: np.eye(3) + 0.05 * np.reshape(a, (3, 3))
)


def check_homogeneous(rep, R, F, tol, blocks=()):
    expect = CFG.volume * cb_energy_density(R, F)
    assert abs(rep.energy - expect) <= 1e-12 * abs(expect)
    scale = max(1.0, np.abs(piola_stress(R, F)).max() / CFG.epsilon)
    for g in (rep.gradient.values, *blocks):
        assert np.abs(g).max(initial=0.0) / scale <= tol


@settings(max_examples=10, derandomize=True, deadline=None, database=None)
@given(part=placements(), F=near_identity)
def test_homogeneous_states_are_exact_and_force_free_at_any_placement(part, F):
    y = make_deformation(F, LatticeField.zeros(CFG))
    R = InteractionSet(README_LAWS)
    check_homogeneous(coupled_energy_conforming(y, R, part), R, F, 1e-12)
    dg = coupled_energy_dg(y, y, R, part)
    check_homogeneous(
        dg, R, F, 1e-11, (dg.diagnostics["gradient_minus"].values, dg.diagnostics["gradient_plus"].values)
    )
    flat = InteractionSet(README_LAWS + [make_law((0, 2, 1), "morse-radial")])
    check_homogeneous(
        coupled_energy_conforming(y, flat, part, degenerate_eta="reduce"), flat, F, 1e-12
    )


@settings(max_examples=10, derandomize=True, deadline=None, database=None)
@given(data=st.data(), R=direction_sets(), F=near_identity)
def test_homogeneous_states_are_exact_and_force_free_for_any_directions(data, R, F):
    part = data.draw(placements(required_clearance([law.eta for law in R])))
    policy = "reduce" if any(0 in law.eta for law in R) else "reject"
    y = make_deformation(F, LatticeField.zeros(CFG))
    check_homogeneous(coupled_energy_conforming(y, R, part, degenerate_eta=policy), R, F, 1e-12)
    dg = coupled_energy_dg(y, y, R, part, degenerate_eta=policy)
    check_homogeneous(
        dg, R, F, 1e-11, (dg.diagnostics["gradient_minus"].values, dg.diagnostics["gradient_plus"].values)
    )
    ho = high_order_energy(y, R, part, k=2, degenerate_eta=policy)
    check_homogeneous(ho, R, F, 1e-11, (ho.diagnostics["node_gradient"],))

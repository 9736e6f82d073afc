"""Property tests over random region placements: every homogeneous state of
the coupled models reproduces the Cauchy-Born energy exactly and is free of
ghost forces, wherever the atomistic box sits and whatever its shape."""
from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bvcouple.coupling import RegionPartition, coupled_energy_conforming, coupled_energy_dg
from bvcouple.lattice import LatticeConfig, LatticeField, make_deformation
from bvcouple.potentials import InteractionSet, cb_energy_density, make_law, piola_stress

CFG = LatticeConfig(N=(12, 12, 12), epsilon=1.0 / 12.0)
README_LAWS = [
    make_law((1, 1, 1), "harmonic"),
    make_law((2, 1, 3), "lennard-jones-radial", {"well_depth": 0.5, "sigma": 2.494438257849294}),
    make_law((1, -1, 2), "anisotropic-toy"),
]
CLEARANCE = 3


@st.composite
def placements(draw):
    """Region boxes with the clearance the README laws need."""
    corner = [draw(st.integers(CLEARANCE, CFG.N[i] - CLEARANCE - 1)) for i in range(3)]
    extents = [draw(st.integers(1, CFG.N[i] - CLEARANCE - corner[i])) for i in range(3)]
    return RegionPartition(CFG, tuple(corner), tuple(extents))


near_identity = st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9).map(
    lambda a: np.eye(3) + 0.05 * np.reshape(a, (3, 3))
)


def check_homogeneous(rep, R, F, tol, blocks=()):
    expect = CFG.volume * cb_energy_density(R, F)
    assert abs(rep.energy - expect) <= 1e-12 * abs(expect)
    scale = max(1.0, np.abs(piola_stress(R, F)).max() / CFG.epsilon)
    for g in (rep.gradient, *blocks):
        assert g.max_norm() / scale <= tol


@settings(max_examples=10, derandomize=True, deadline=None, database=None)
@given(part=placements(), F=near_identity)
def test_homogeneous_states_are_exact_and_force_free_at_any_placement(part, F):
    y = make_deformation(F, LatticeField.zeros(CFG))
    R = InteractionSet(README_LAWS)
    check_homogeneous(coupled_energy_conforming(y, R, part), R, F, 1e-12)
    dg = coupled_energy_dg(y, y, R, part)
    check_homogeneous(
        dg, R, F, 1e-11, (dg.diagnostics["gradient_minus"], dg.diagnostics["gradient_plus"])
    )
    flat = InteractionSet(README_LAWS + [make_law((0, 2, 1), "morse-radial")])
    check_homogeneous(
        coupled_energy_conforming(y, flat, part, degenerate_eta="reduce"), flat, F, 1e-12
    )

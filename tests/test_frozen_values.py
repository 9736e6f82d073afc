"""Frozen energies and gradient norms of every model at one seeded,
non-homogeneous state each.

Finite-difference checks cannot catch a change that moves the energy and its
gradient consistently, and the homogeneous checks only see y_F. These values
were recorded from the models as they stood when the test was added; any
change beyond rounding (1e-12 relative) to an energy or to the max-norm of a
gradient block fails here.
"""
from __future__ import annotations

import numpy as np
import pytest

from bvcouple.coupling import (
    RegionPartition,
    coupled_energy_conforming,
    coupled_energy_dg,
    naive_coupling_energy,
)
from bvcouple.energies import acb_cell_energy, acb_tetra_energy, atomistic_energy
from bvcouple.highorder import build_high_order_mesh, high_order_energy
from bvcouple.lattice import LatticeConfig, LatticeField, make_deformation
from bvcouple.potentials import InteractionSet, make_law

CFG = LatticeConfig(N=(8, 8, 8), epsilon=1.0 / 8.0)
PART = RegionPartition(CFG, (2, 2, 2), (4, 4, 4))
LAWS = InteractionSet([
    make_law((1, 1, 1), "harmonic"),
    make_law((2, 1, 1), "lennard-jones-radial", {"well_depth": 0.5}),
    make_law((1, -1, 2), "anisotropic-toy"),
])

MODELS = (
    "atomistic", "acb-tetra", "acb-cell", "coupled", "coupled-dg", "naive",
    "coupled-ho(2)", "coupled-ho(3)",
)

# energy, then the max-norm of each gradient block
FROZEN = {
    "atomistic": {
        "energy": 8.068877365766312,
        "gradient": 15.82132385698899,
    },
    "acb-tetra": {
        "energy": 8.283838498633763,
        "gradient": 136.9631930706943,
    },
    "acb-cell": {
        "energy": 8.121115285792449,
        "gradient": 91.45511687340527,
    },
    "coupled": {
        "energy": 8.052941749453842,
        "gradient": 764.6709029216601,
    },
    "coupled-dg": {
        "energy": 7.5481012724456935,
        "gradient": 159.36241414808543,
        "gradient_minus": 98.0843928900232,
        "gradient_plus": 159.36241414808543,
    },
    "naive": {
        "energy": 8.34292968954863,
        "gradient": 206.60028670213487,
    },
    "coupled-ho(2)": {
        "energy": 7.7025142579236645,
        "gradient": 134.09515464046186,
        "node_gradient": 72.32394523910072,
    },
    "coupled-ho(3)": {
        "energy": 7.804153206036368,
        "gradient": 2282.443246534776,
        "node_gradient": 1357.6034531456871,
    },
}


def _state(seed: int):
    rng = np.random.default_rng(seed)
    F = np.eye(3) + 0.05 * rng.standard_normal((3, 3))
    amp = 0.05 * CFG.epsilon
    y = make_deformation(F, LatticeField(CFG, amp * rng.standard_normal(CFG.shape)))
    y_plus = make_deformation(F, LatticeField(CFG, amp * rng.standard_normal(CFG.shape)))
    return y, y_plus, rng


def evaluate(model: str) -> dict[str, float]:
    y, y_plus, rng = _state(MODELS.index(model))
    if model == "atomistic":
        rep = atomistic_energy(y, LAWS)
    elif model == "acb-tetra":
        rep = acb_tetra_energy(y, LAWS)
    elif model == "acb-cell":
        rep = acb_cell_energy(y, LAWS)
    elif model == "coupled":
        rep = coupled_energy_conforming(y, LAWS, PART)
    elif model == "coupled-dg":
        rep = coupled_energy_dg(y, y_plus, LAWS, PART)
    elif model == "naive":
        rep = naive_coupling_energy(y, LAWS, PART)
    else:
        k = int(model[-2])
        n_free = build_high_order_mesh(PART, k).n_free_nodes
        nodes = 0.01 * CFG.epsilon * rng.standard_normal((n_free, 3))
        rep = high_order_energy(y, LAWS, PART, k, node_displacements=nodes)
    out = {"energy": rep.energy, "gradient": rep.gradient.max_norm()}
    for key in ("gradient_minus", "gradient_plus"):
        if key in rep.diagnostics:
            out[key] = rep.diagnostics[key].max_norm()
    if "node_gradient" in rep.diagnostics:
        out["node_gradient"] = float(np.max(np.abs(rep.diagnostics["node_gradient"])))
    return out


@pytest.mark.parametrize("model", MODELS)
def test_frozen_energy_and_gradient_norms(model):
    got = evaluate(model)
    want = FROZEN[model]
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert abs(got[key] - value) <= 1e-12 * abs(value), (key, got[key], value)

"""Bond-volume coupled atomistic/continuum energies on periodic lattices.

The package provides the exact atomistic energy, two atomistic Cauchy-Born
comparison models, a conforming interface-coupled energy without spurious
equilibrium forces, a two-field variant with an interface jump penalty, a
high-order continuum variant, and the verification harness used by the
``bvcouple`` command-line tool.
"""
from .coupling import (
    BondClass,
    RegionPartition,
    coupled_energy_conforming,
    coupled_energy_dg,
    naive_coupling_energy,
    omega_star_mask,
    partition_violations,
    required_clearance,
)
from .energies import (
    EnergyReport,
    acb_cell_energy,
    acb_tetra_energy,
    atomistic_energy,
)
from .geometry import (
    Covering,
    CoveringMismatch,
    DegenerateEta,
    enumerate_coverings,
    lemma_residual,
)
from .harness import (
    ConfigError,
    RunConfig,
    SweepResult,
    config_from_dict,
    consistency_sweep,
    default_config,
    evaluate_model,
    fd_gradient_check,
    ghost_force_residual,
    load_config,
    minimize,
    run,
)
from .highorder import HighOrderMesh, build_high_order_mesh, high_order_energy
from .lattice import (
    Deformation,
    LatticeConfig,
    LatticeField,
    diff_quotient,
    discrete_inner_product,
    make_deformation,
    sample_field,
)
from .potentials import (
    InteractionLaw,
    InteractionSet,
    PotentialDomainError,
    cb_energy_density,
    make_law,
    piola_stress,
)

__all__ = [
    "BondClass",
    "ConfigError",
    "Covering",
    "CoveringMismatch",
    "Deformation",
    "DegenerateEta",
    "EnergyReport",
    "HighOrderMesh",
    "InteractionLaw",
    "InteractionSet",
    "LatticeConfig",
    "LatticeField",
    "PotentialDomainError",
    "RegionPartition",
    "RunConfig",
    "SweepResult",
    "acb_cell_energy",
    "acb_tetra_energy",
    "atomistic_energy",
    "build_high_order_mesh",
    "cb_energy_density",
    "config_from_dict",
    "consistency_sweep",
    "coupled_energy_conforming",
    "coupled_energy_dg",
    "default_config",
    "diff_quotient",
    "discrete_inner_product",
    "enumerate_coverings",
    "evaluate_model",
    "fd_gradient_check",
    "ghost_force_residual",
    "high_order_energy",
    "lemma_residual",
    "load_config",
    "make_deformation",
    "make_law",
    "minimize",
    "naive_coupling_energy",
    "omega_star_mask",
    "partition_violations",
    "piola_stress",
    "required_clearance",
    "run",
    "sample_field",
]

__version__ = "0.1.0"

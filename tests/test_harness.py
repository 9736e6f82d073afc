from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator, cg

from bvcouple import cli, energies, harness
from bvcouple.energies import EnergyReport, acb_cell_energy, acb_tetra_energy, atomistic_energy
from bvcouple.harness import (
    MODEL_NAMES,
    ConfigError,
    config_from_dict,
    default_config,
    evaluate_model,
    fd_gradient_check,
    ghost_force_residual,
    load_config,
    minimize,
    parse_model,
    residual_scale,
    run,
    write_csv,
)
from bvcouple.lattice import (
    LatticeConfig,
    LatticeField,
    discrete_inner_product,
    make_deformation,
    sample_field,
)
from bvcouple.potentials import InteractionLaw, PotentialDomainError, cb_energy_density


def small_config_dict(model="coupled", **overrides) -> dict:
    data = {
        "lattice": {"N": [8, 8, 8], "epsilon": 0.125},
        "interactions": [
            {"eta": [1, 1, 1], "kind": "harmonic"},
            {"eta": [2, 1, 1], "kind": "morse-radial"},
            {"eta": [1, -1, 2], "kind": "anisotropic-toy"},
        ],
        "region": {"corner": [2, 2, 2], "extents": [4, 4, 4]},
        "model": model,
        "seed": 7,
    }
    data.update(overrides)
    return data


# ----------------------------------------------------------------------
# Configuration parsing
# ----------------------------------------------------------------------

def test_parse_model_names():
    assert MODEL_NAMES == ("atomistic", "acb-tetra", "acb-cell", "coupled", "coupled-dg", "naive")
    for name in MODEL_NAMES:
        assert parse_model(name) == (name, None)
    assert parse_model("coupled-ho(2)") == ("coupled-ho", 2)
    assert parse_model("coupled-ho(1)") == ("coupled-ho", 1)
    with pytest.raises(ValueError, match="unknown model"):
        parse_model("coupled-ho")
    with pytest.raises(ValueError, match="unknown model"):
        parse_model("continuum")


def test_default_config_valid():
    config = default_config()
    assert config.model == "coupled"
    assert config.cfg.N == (12, 12, 12)
    assert config.region is not None
    assert config.ghost_force_tolerance == 1e-12
    assert config.gradient_fd_tolerance == 1e-6  # mixed laws


def test_config_error_collects_every_violation():
    data = {
        "lattice": {"N": [8, 8], "epsilon": -1, "spacing": 2},
        "interactions": [
            {"eta": [1, 1, 1], "kind": "harmonic"},
            {"eta": [1, 1, 1], "kind": "harmonic"},
            {"eta": [0, 0, 0], "kind": "harmonic"},
            {"eta": [1, 2, 1], "kind": "quartic"},
            {"eta": [2, 1, 1], "kind": "harmonic", "weight": 2.0},
        ],
        "F": [[1, 0], [0, 1]],
        "model": "continuum",
        "degenerate_eta": "drop",
        "seed": -4,
        "deterministic": "yes",
        "tolerances": {"lemma": -1e-13, "spurious": 1},
        "sweep": {"epsilons": [0.25, 0.125, 0.3]},
        "solve": {"max_iters": 0},
        "out": 7,
        "verbose": True,
    }
    with pytest.raises(ConfigError) as exc_info:
        config_from_dict(data)
    messages = exc_info.value.messages
    text = "\n".join(messages)
    for needle in (
        "unknown key",              # 'verbose' at top level, 'spacing', 'weight'
        "lattice.N",
        "lattice.epsilon",
        "duplicate interaction direction",
        "eta must be nonzero",
        "kind must be one of",
        "F must be a 3x3 matrix",
        "unknown model",
        "degenerate_eta must be",
        "seed must be",
        "deterministic must be a boolean",
        "tolerances.lemma must be a positive number",
        "must divide the domain period",
        "solve.max_iters must be a positive integer",
        "out must be a path string",
    ):
        assert needle in text, needle
    assert len(messages) >= 15


def test_a_config_without_laws_reports_it_once():
    """A config whose interactions list is empty, or whose every law is
    rejected, reports that alone: the empty interaction set it leads to is
    not a second violation."""
    for interactions, message in (
        ([], "config requires a non-empty 'interactions' list"),
        ([{"eta": [1, 1, 1], "kind": "quartic"}], "interactions[0]: kind must be one of"),
    ):
        with pytest.raises(ConfigError) as exc_info:
            config_from_dict(small_config_dict(model="atomistic", interactions=interactions))
        assert len(exc_info.value.messages) == 1
        assert exc_info.value.messages[0].startswith(message)


def test_coupled_models_require_region():
    data = small_config_dict()
    del data["region"]
    for model in ("coupled", "coupled-dg", "coupled-ho(2)", "naive"):
        data["model"] = model
        with pytest.raises(ConfigError, match="requires a region"):
            config_from_dict(data)
    data["model"] = "atomistic"
    assert config_from_dict(data).region is None


def test_covering_violations_surface_in_config():
    # eta = (2,1,3): 8 is not divisible by 3
    data = small_config_dict()
    data["interactions"].append({"eta": [2, 1, 3], "kind": "harmonic"})
    with pytest.raises(ConfigError, match="divisible"):
        config_from_dict(data)


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)


def test_all_harmonic_tightens_fd_tolerance():
    data = small_config_dict()
    data["interactions"] = [{"eta": [1, 1, 1], "kind": "harmonic"}]
    config = config_from_dict(data)
    assert config.gradient_fd_tolerance == 1e-9
    data["model"] = "coupled-dg"
    assert config_from_dict(data).ghost_force_tolerance == 1e-11


# ----------------------------------------------------------------------
# Model dispatch
# ----------------------------------------------------------------------

def test_evaluate_model_dispatch():
    expected_tags = {
        "atomistic": "atomistic",
        "acb-tetra": "acb-tetra",
        "acb-cell": "acb-cell",
        "coupled": "coupled",
        "coupled-dg": "coupled-dg",
        "coupled-ho(2)": "coupled-ho(2)",
        "naive": "naive",
    }
    for model, tag in expected_tags.items():
        config = config_from_dict(small_config_dict(model=model))
        y = make_deformation(config.F, LatticeField.zeros(config.cfg))
        report = evaluate_model(config, y)
        assert report.model == tag, model


def test_ghost_force_residual_smoke():
    config = config_from_dict(small_config_dict(model="coupled"))
    assert ghost_force_residual(config) <= 1e-12
    naive = config_from_dict(small_config_dict(model="naive"))
    assert ghost_force_residual(naive) >= 1e-3


@pytest.mark.parametrize("block", ["gradient_minus", "gradient_plus", "node_gradient"])
def test_ghost_force_residual_reads_every_gradient_block(monkeypatch, block):
    """A report whose lattice gradient is zero at y_F but one other
    gradient block is not: the residual is that block's max over
    residual_scale, so no block can go unread."""
    config = config_from_dict(small_config_dict(model="coupled-dg"))
    zero = LatticeField.zeros(config.cfg)
    rng = np.random.default_rng(9)
    shape = (5, 3) if block == "node_gradient" else config.cfg.shape
    values = rng.standard_normal(shape)

    def one_nonzero_block(*args, **kwargs):
        diagnostics = {"gradient_minus": zero, "gradient_plus": zero, "node_gradient": np.zeros((5, 3))}
        diagnostics[block] = values if block == "node_gradient" else LatticeField(config.cfg, values)
        return EnergyReport(energy=0.0, gradient=zero, model="coupled-dg", excess=0.0, diagnostics=diagnostics)

    monkeypatch.setattr(harness, "evaluate_model", one_nonzero_block)
    assert ghost_force_residual(config) == float(np.max(np.abs(values))) / residual_scale(config)


def test_gradient_check_probes_the_free_node_block(monkeypatch):
    monkeypatch.setattr(harness, "_FD_TRIALS", 2)
    config = config_from_dict(small_config_dict(model="coupled-ho(2)"))
    tol = config.gradient_fd_tolerance
    assert fd_gradient_check(config) <= tol

    def doubled_node_gradient(*args, **kwargs):
        report = evaluate_model(*args, **kwargs)
        if "node_gradient" in report.diagnostics:  # energy-only probe reports carry no gradient
            report.diagnostics["node_gradient"] = 2.0 * report.diagnostics["node_gradient"]
        return report

    monkeypatch.setattr(harness, "evaluate_model", doubled_node_gradient)
    assert fd_gradient_check(config) > tol


def record_law_orders(monkeypatch) -> list[int]:
    """The orders passed to ``InteractionLaw.evaluate``, in call order."""
    orders: list[int] = []
    evaluate = InteractionLaw.evaluate

    def recording(self, zeta, order=2, out=None, scratch=None):
        orders.append(order)
        return evaluate(self, zeta, order, out, scratch)

    monkeypatch.setattr(InteractionLaw, "evaluate", recording)
    return orders


@pytest.mark.parametrize("model", ["coupled", "coupled-ho(2)"])
def test_gradient_check_probes_evaluate_phi_only(monkeypatch, model):
    """Each trial makes one full call and two finite-difference probes,
    which read only the energy: the probes evaluate the laws at order 0.
    (The two-sided model's jump term needs phi' for its energy, so it is
    not among these.)"""
    orders = record_law_orders(monkeypatch)
    calls = []

    def recording_model(*args, **kwargs):
        orders.clear()
        report = evaluate_model(*args, **kwargs)
        calls.append(set(orders))
        return report

    monkeypatch.setattr(harness, "evaluate_model", recording_model)
    monkeypatch.setattr(harness, "_FD_TRIALS", 2)
    config = config_from_dict(small_config_dict(model=model))
    assert fd_gradient_check(config) <= config.gradient_fd_tolerance
    assert len(calls) == 6
    assert all(1 in full for full in calls[0::3])
    assert calls[1::3] + calls[2::3] == [{0}] * 4


@pytest.mark.parametrize("model", ["acb-cell", "acb-tetra"])
def test_consistency_sweep_evaluates_phi_only(monkeypatch, model):
    """The sweep reads each model's energy and excess only: every law
    evaluation is of order 0, and no transposed operator is applied (the
    kernel applies a stencil forward through ``apply``, and, at these
    sizes, where no batch is split over two lanes, its transpose through
    ``@``)."""
    orders = record_law_orders(monkeypatch)
    matmuls = []
    matmul = energies._Stencil.__matmul__

    def recording_matmul(self, x):
        matmuls.append(self)
        return matmul(self, x)

    monkeypatch.setattr(energies._Stencil, "__matmul__", recording_matmul)
    data = small_config_dict(model=model)
    data["sweep"] = {"epsilons": [0.5, 0.25, 0.125], "period": 4.0}
    result = harness.consistency_sweep(config_from_dict(data))
    assert result.slope is not None
    assert orders and set(orders) == {0}
    assert matmuls == []


def test_sweep_displacement_is_the_sampled_field_at_the_readme_spacings(monkeypatch):
    """The sweep builds amplitude sin(2 pi x / L) from one profile per
    axis, as three mean-free lines: at each README spacing (N = 16 to 128)
    the field of the lines has the bytes of ``sample_field`` on the stacked
    positions with its mean removed, which the sweep no longer calls."""
    amplitude, period = 0.05, 4.0  # the README config's sweep

    def displacement(x):
        return amplitude * np.sin(2.0 * np.pi * x / period)

    for eps in (0.25, 0.125, 0.0625, 0.03125):
        n = round(period / eps)
        cfg = LatticeConfig(N=(n, n, n), epsilon=eps)
        want = sample_field(displacement, cfg).zero_mean().values
        lines = harness._sweep_lines(displacement, cfg)
        for c, line in enumerate(lines):
            got = np.broadcast_to(line.reshape([n if a == c else 1 for a in range(3)]), cfg.N)
            assert got.tobytes() == np.ascontiguousarray(want[..., c]).tobytes(), (n, c)
        del want

    def no_sample_field(*args):
        raise AssertionError("the sweep sampled a field on the stacked positions")

    monkeypatch.setattr(harness, "sample_field", no_sample_field)
    data = small_config_dict(model="acb-cell")
    data["sweep"] = {"epsilons": [0.5, 0.25, 0.125], "period": 4.0}
    assert len(harness.consistency_sweep(config_from_dict(data)).rows) == 3


# ----------------------------------------------------------------------
# Minimization
# ----------------------------------------------------------------------

def harmonic_solver_config(max_iters=400, g_tol=1e-8):
    data = {
        "lattice": {"N": [6, 6, 6], "epsilon": 1.0 / 6.0},
        "interactions": [{"eta": [1, 1, 1], "kind": "harmonic"}],
        "model": "atomistic",
        "seed": 3,
        "solve": {"max_iters": max_iters, "g_tol": g_tol},
    }
    return config_from_dict(data)


def sine_force(cfg, amplitude=0.01) -> LatticeField:
    def fn(x):
        return amplitude * np.array([
            np.sin(2 * np.pi * x[1]),
            np.sin(2 * np.pi * x[2]),
            np.sin(2 * np.pi * x[0]),
        ])
    return sample_field(fn, cfg).zero_mean()


def test_minimize_converges_immediately_at_equilibrium():
    config = harmonic_solver_config()
    y, report, trace = minimize(config)
    assert report.diagnostics["converged"] is True
    assert report.diagnostics["iterations"] == 0
    assert len(trace) == 1
    assert trace[0]["iteration"] == 0
    assert np.abs(y.displacement.values).max() == 0.0


def test_minimize_matches_conjugate_gradient_solution():
    """The harmonic force problem is linear; steepest descent must land on
    the same displacement as a matrix-free CG solve of gradient(v) = f."""
    config = harmonic_solver_config()
    cfg = config.cfg
    f = sine_force(cfg)
    y, report, trace = minimize(config, f)
    assert report.diagnostics["converged"] is True

    n = int(np.prod(cfg.shape))

    def apply_hessian(x):
        v = LatticeField(cfg, x.reshape(cfg.shape))
        rep = evaluate_model(config, make_deformation(config.F, v))
        return rep.gradient.values.reshape(-1)

    A = LinearOperator((n, n), matvec=apply_hessian)
    x, info = cg(A, f.values.reshape(-1), rtol=1e-12, atol=0.0)
    assert info == 0
    v_cg = LatticeField(cfg, x.reshape(cfg.shape)).zero_mean()
    # descent stops at scaled gradient norm 1e-8; the smallest nonzero
    # Hessian eigenvalue is 4 sin^2(pi/6)/eps^2 = 36, which bounds the
    # displacement error well below 1e-6
    diff = np.abs(y.displacement.values - v_cg.values).max()
    assert diff <= 1e-6

    rep_cg = evaluate_model(config, make_deformation(config.F, v_cg))
    obj_cg = rep_cg.energy - discrete_inner_product(f, v_cg)
    obj_sd = trace[-1]["objective"]
    assert abs(obj_sd - obj_cg) <= 1e-10 * max(1.0, abs(obj_cg))


def test_minimize_trace_is_monotone():
    config = harmonic_solver_config()
    f = sine_force(config.cfg)
    _, report, trace = minimize(config, f)
    objectives = [row["objective"] for row in trace]
    assert all(b <= a + 1e-15 for a, b in zip(objectives, objectives[1:]))
    assert report.diagnostics["iterations"] == len(trace) - 1 > 0
    assert trace[-1]["gnorm"] <= config.solve["g_tol"]


def readme_solver_config(model="coupled", **solve) -> harness.RunConfig:
    """The README configuration: its laws and region at N=12."""
    data = json.loads(json.dumps(harness.DEFAULT_CONFIG))
    data["model"] = model
    data["solve"] = {"max_iters": 200, "g_tol": 1e-8, **solve}
    return config_from_dict(data)


def test_solve_at_a_large_force_amplitude_runs_to_its_summary(tmp_path, capsys):
    """At force amplitude 1e6 the zero-mean sine force keeps a rounding
    residue of about 1e-9 in its mean, which the force check bounds
    relative to |f|: the README solve runs to its summary line."""
    config = replace(readme_solver_config(max_iters=3, force_amplitude=1e6), out=str(tmp_path))
    code = run("solve", config)
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("FAIL solve: stopped (")
    assert (tmp_path / "solve_trace.csv").exists()


def test_minimize_iteration_cap_is_flagged():
    # The harmonic problem's preconditioner is its own inverse Hessian, so
    # the first step solves it; the README coupled solve takes more than two.
    config = readme_solver_config(max_iters=2)
    f = sine_force(config.cfg)
    _, report, trace = minimize(config, f)
    assert report.diagnostics["converged"] is False
    assert report.diagnostics["iterations"] == 2
    assert len(trace) == 3
    assert report.diagnostics["stop_reason"] == "iteration-cap"


# Evaluations of the README solve per model with the symbol preconditioner
# (iterations: 2 for the uncoupled models, 16 coupled, 90 naive). With the
# scalar Laplacian for every model they were 13, 13, 16, 36, 36, 36 and 115.
README_SOLVE_EVALUATIONS = {"atomistic": 3, "acb-tetra": 3, "acb-cell": 3, "coupled": 18, "coupled-dg": 18,
                            "coupled-ho(1)": 18, "naive": 97}


@pytest.mark.parametrize(
    "model", ["atomistic", "acb-tetra", "acb-cell", "coupled", "coupled-dg", "coupled-ho(1)", "naive"]
)
def test_minimize_converges_on_the_readme_example(model):
    """The README solve (force amplitude 0.01) reaches the tolerance within
    the iteration cap for every lattice-state model, in no more evaluations
    than ``README_SOLVE_EVALUATIONS`` names."""
    config = readme_solver_config(model)
    f = sine_force(config.cfg)
    _, report, trace = minimize(config, f)
    diag = report.diagnostics
    assert diag["stop_reason"] == "converged" and diag["converged"] is True
    assert trace[-1]["gnorm"] <= 1e-8
    assert diag["iterations"] == len(trace) - 1 <= 200
    assert len(trace) <= diag["evaluations"] <= README_SOLVE_EVALUATIONS[model]


def readme_symbol(model):
    """The README laws' Hessian symbol at y_F, N=12, of the stencils of an
    uncoupled model."""
    config = readme_solver_config(model)
    cfg = config.cfg
    return config, energies._hessian_symbol(energies._lattice_batches(model, config.laws, cfg.N), config.F,
                                            cfg.N, cfg.epsilon)


@pytest.mark.parametrize("model", ["atomistic", "acb-tetra"])
def test_the_symbol_is_the_hessian_on_plane_waves(model):
    """On the plane wave v_l = cos(theta . l) u, central differences of the
    model's gradient at y_F (h = 1e-6) are H(theta) u cos(theta . l) to
    1e-6 relative, at the atomistic minimum k = (6, 6, 0) and three other
    wavevectors of the rfftn grid."""
    config, H = readme_symbol(model)
    cfg = config.cfg
    l = np.indices(cfg.N, dtype=float)
    u = np.array([0.3, -0.5, 0.8])
    h = 1e-6
    for k in [(6, 6, 0), (1, 2, 3), (5, 0, 4), (3, 11, 6)]:
        wave = np.cos(sum(2 * np.pi * k[a] * l[a] / cfg.N[a] for a in range(3)))[..., None]

        def grad(t):
            y = make_deformation(config.F, LatticeField(cfg, t * wave * u))
            return evaluate_model(config, y).gradient.values

        fd = (grad(h) - grad(-h)) / (2 * h)
        want = wave * (H[k] @ u)
        assert np.abs(fd - want).max() <= 1e-6 * np.abs(want).max(), k


def test_the_atomistic_symbol_of_the_readme_laws_has_its_baseline_minimum():
    """The README laws' atomistic symbol at F = I and N=12 is indefinite:
    its smallest eigenvalue is -204.47, at k = (6, 6, 0). The Jacobi
    eigenpairs agree with LAPACK's eigenvalues and rebuild every block, for
    the three uncoupled stencils."""
    for model in ("atomistic", "acb-tetra", "acb-cell"):
        config, H = readme_symbol(model)
        assert np.array_equal(config.F, np.eye(3))
        lam, V = harness._jacobi(H)
        scale = np.abs(H).max()
        assert np.abs(np.sort(lam, axis=-1) - np.linalg.eigvalsh(H)).max() <= 1e-14 * scale
        assert np.abs(np.einsum("...ik,...k,...jk->...ij", V, lam, V) - H).max() <= 1e-14 * scale
        if model == "atomistic":
            assert round(float(lam.min()), 2) == -204.47
            assert np.unravel_index(np.argmin(lam.min(axis=-1)), lam.shape[:-1]) == (6, 6, 0)


@pytest.mark.parametrize("model", ["atomistic", "acb-cell", "coupled"])
def test_the_preconditioner_is_the_floored_inverse_of_the_symbol(model):
    """Per wavevector the preconditioner applies V diag(1 / mu) V^T, with
    (lam, V) LAPACK's eigenpairs of the model's symbol and
    mu = max(|lam|, 1e-3 max |lam|), and drops the zero mode. The atomistic
    and acb-cell symbols are indefinite, and the acb-cell symbol has
    eigenvalues below the floor (its checkerboard modes), so both the |.|
    and the floor act. The coupled models take the staircase symbol of
    acb-tetra, which is positive here. The input has a nonzero mean, which
    the output must not carry."""
    config = readme_solver_config(model)
    cfg = config.cfg
    _, H = readme_symbol("acb-tetra" if model == "coupled" else model)
    lam, V = np.linalg.eigh(H)
    mu = np.abs(lam)
    floor = 1e-3 * mu.max()
    assert bool(lam.min() < 0.0) is (model != "coupled")
    assert bool(np.sum(mu < floor) > 3) is (model == "acb-cell")  # more than the zero mode's three
    mu = np.maximum(mu, floor)
    inverse = np.einsum("...ik,...k,...jk->...ij", V, 1.0 / mu, V)
    inverse[0, 0, 0] = 0.0
    g = np.random.default_rng(5).standard_normal(cfg.shape) + 0.25
    want = np.fft.irfftn(np.einsum("...ij,...j->...i", inverse, np.fft.rfftn(g, axes=(0, 1, 2))), s=cfg.N,
                         axes=(0, 1, 2))
    got = harness._symbol_inverse(config)(g)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert np.abs(got.mean(axis=(0, 1, 2))).max() <= 1e-15 * np.abs(want).max()


def test_the_naive_preconditioner_is_the_lattice_laplacian_inverse():
    """The naive control's symbol is three harmonic axis bonds: the lattice
    Laplacian sum_a 4 sin^2(pi k_a / N_a) / eps^2 times the identity, far
    above the floor on N=12."""
    config = readme_solver_config("naive")
    cfg = config.cfg
    k = [np.fft.fftfreq(n) for n in cfg.N[:2]] + [np.fft.rfftfreq(cfg.N[2])]
    symbol = sum((4.0 * np.sin(np.pi * q) ** 2).reshape([-1 if a == i else 1 for a in range(3)])
                 for i, q in enumerate(k)) / cfg.epsilon**2
    symbol[0, 0, 0] = np.inf
    g = np.random.default_rng(6).standard_normal(cfg.shape)
    want = np.fft.irfftn(np.fft.rfftn(g, axes=(0, 1, 2)) / symbol[..., None], s=cfg.N, axes=(0, 1, 2))
    got = harness._symbol_inverse(config)(g)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_an_unforced_solve_builds_no_symbol(monkeypatch):
    """The symbol is built at the first preconditioner call, once: an
    unforced README solve stops at iteration 0 and builds none; a forced
    one builds one."""
    built = []
    symbol = harness._hessian_symbol

    def recording(*args):
        built.append(1)
        return symbol(*args)

    monkeypatch.setattr(harness, "_hessian_symbol", recording)
    config = readme_solver_config("coupled")
    _, report, _ = minimize(config)
    assert report.diagnostics["iterations"] == 0 and report.diagnostics["converged"] is True
    assert built == []
    minimize(config, sine_force(config.cfg))
    assert built == [1]


_PRECONDITIONER_DIGESTS = """
import hashlib, json
import numpy as np
from bvcouple import harness
for model in ("atomistic", "acb-cell", "coupled"):
    data = json.loads(json.dumps(harness.DEFAULT_CONFIG))
    data["model"] = model
    config = harness.config_from_dict(data)
    g = np.random.default_rng(5).standard_normal(config.cfg.shape)
    print(model, hashlib.sha256(harness._symbol_inverse(config)(g).tobytes()).hexdigest())
"""


def _openblas_cores() -> list[str]:
    """The OpenBLAS kernels this CPU can run, from its /proc/cpuinfo flags."""
    try:
        flags = set(next(line for line in Path("/proc/cpuinfo").read_text().splitlines()
                         if line.startswith("flags")).split())
    except (OSError, StopIteration):
        return []
    return ["Prescott", "Sandybridge"] + ["Haswell"] * ("avx2" in flags) + ["SkylakeX"] * ("avx512f" in flags)


@pytest.mark.skipif(len(_openblas_cores()) < 2, reason="needs an x86 CPU that reports its flags")
def test_the_preconditioner_bits_do_not_depend_on_the_blas_kernel():
    """The preconditioner of the atomistic, acb-cell and coupled models on
    the README config, applied to one seeded field, in child processes
    under each OpenBLAS kernel the CPU runs (``OPENBLAS_CORETYPE``, set for
    the child only): one digest per model. A build by LAPACK's ``eigh`` and
    ``@`` phases gave three digests under five kernels."""
    src = str(Path(harness.__file__).resolve().parents[1])
    outputs = set()
    for core in _openblas_cores():
        env = {**os.environ, "OPENBLAS_CORETYPE": core,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", _PRECONDITIONER_DIGESTS], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout.count("\n") == 3
        outputs.add(done.stdout)
    assert len(outputs) == 1


_N24_TRACE = """
import json
import numpy as np
from bvcouple import harness
from bvcouple.lattice import sample_field
data = json.loads(json.dumps(harness.DEFAULT_CONFIG))
data["lattice"] = {"N": [24, 24, 24], "epsilon": 1 / 24}
data["region"] = {"corner": [8, 8, 8], "extents": [8, 8, 8]}
data["solve"] = {"max_iters": 4}
config = harness.config_from_dict(data)
f = sample_field(lambda x: 0.01 * np.sin(2 * np.pi * np.stack([x[1], x[2], x[0]])), config.cfg).zero_mean()
print(repr(harness.minimize(config, f)[2]))
"""


@pytest.mark.skipif(energies._lane_count() < 2, reason="needs two CPUs for two BLAS threads")
def test_minimize_trace_does_not_depend_on_the_blas_thread_count():
    """The README solve at N=24 has vectors long enough for OpenBLAS to
    split a dot product over two threads, which changed the last digits of
    the trace from iteration 3 on when the minimizer summed with np.vdot;
    its sums now run in numpy's fixed order."""
    src = str(Path(harness.__file__).resolve().parents[1])
    traces = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", _N24_TRACE], env=env, capture_output=True, text=True,
                              check=True)
        traces.append(done.stdout)
    assert traces[0].count("'iteration'") == 5
    assert traces[0] == traces[1]


def test_minimize_halves_a_step_that_leaves_the_domain(monkeypatch):
    """A trial state whose evaluation raises a domain error is a rejected
    step: the harmonic problem, solved by step 1, is solved at step 1/2
    after the first trial fails; when every trial fails the solve stops
    with reason line-search at the start state."""
    config = harmonic_solver_config()
    f = sine_force(config.cfg)
    evaluate = harness.evaluate_model
    calls = []
    fails = [lambda call: call == 1]

    def failing(config, y, *args, **kwargs):
        calls.append(len(calls))
        if fails[0](calls[-1]):
            raise PotentialDomainError("trial out of domain")
        return evaluate(config, y, *args, **kwargs)

    monkeypatch.setattr(harness, "evaluate_model", failing)
    _, report, trace = minimize(config, f)
    assert report.diagnostics["stop_reason"] == "converged"
    assert trace[1]["step"] == 0.5
    assert report.diagnostics["evaluations"] == len(calls)

    calls.clear()
    fails[0] = lambda call: call >= 1
    y, report, trace = minimize(config, f)
    assert report.diagnostics["stop_reason"] == "line-search"
    assert report.diagnostics["converged"] is False
    assert report.diagnostics["iterations"] == 0 and len(trace) == 1
    assert report.diagnostics["evaluations"] == len(calls) > 2
    assert np.abs(y.displacement.values).max() == 0.0


@pytest.mark.parametrize(
    "model", [*MODEL_NAMES, "coupled-ho(1)", "coupled-ho(2)", "coupled-ho(3)"]
)
def test_excess_is_exactly_zero_at_homogeneous_states(model):
    """The energy measured from the homogeneous bond is exactly 0.0 at y_F
    for a random F. Every model but the naive control, which drops the
    interface bonds, has the energy |Omega| W(F) there up to rounding."""
    config = readme_solver_config(model)
    F = np.eye(3) + 0.03 * np.random.default_rng(11).standard_normal((3, 3))
    report = evaluate_model(config, make_deformation(F, LatticeField.zeros(config.cfg)))
    assert report.excess == 0.0
    exact = config.cfg.volume * cb_energy_density(config.laws, F)
    assert (abs(report.energy - exact) <= 1e-12 * exact) is (model != "naive")


def test_minimize_stops_when_an_accepted_step_changes_nothing():
    """With g_tol = 0 the harmonic solve reaches its float floor after one
    step; the first accepted step that leaves the objective and the
    gradient bitwise unchanged ends the solve instead of the Armijo test
    accepting such steps until the line search fails. The config parser
    rightly rejects g_tol = 0, so the config is edited after parsing."""
    config = harmonic_solver_config()
    config = replace(config, solve={**config.solve, "g_tol": 0.0})
    _, report, trace = minimize(config, sine_force(config.cfg))
    assert report.diagnostics["stop_reason"] == "line-search"
    assert report.diagnostics["evaluations"] <= 20
    assert trace[1]["gnorm"] < 1e-15


SHEARED_F = [[1.02, 0.01, 0.0], [0.0, 0.99, 0.03], [0.0, 0.0, 1.01]]


def sweep_config(model, epsilons=(0.25, 0.125, 0.0625), amplitude=0.05, F=SHEARED_F):
    """The README sweep (period 4) at ``epsilons`` with all four law kinds:
    the README laws and a Morse bond, under the deformation gradient F."""
    data = json.loads(json.dumps(harness.DEFAULT_CONFIG))
    data["interactions"].append({"eta": [2, 1, 1], "kind": "morse-radial"})
    data.update(model=model, F=F, sweep={"epsilons": list(epsilons), "amplitude": amplitude, "period": 4.0})
    return config_from_dict(data)


def sampled_sweep_state(config, eps):
    """``make_deformation`` of ``sample_field`` of the sweep's profile on
    the sweep lattice of spacing ``eps``: the whole displacement field."""
    amplitude, period = config.sweep["amplitude"], config.sweep["period"]
    n = round(period / eps)
    cfg = LatticeConfig(N=(n, n, n), epsilon=eps)
    return make_deformation(config.F, sample_field(lambda x: amplitude * np.sin(2.0 * np.pi * x / period), cfg))


def full_field_sweep(config) -> harness.SweepResult:
    """The sweep's rows and slope recomputed from the public models, called
    energy-only on the sampled field at each spacing."""
    acb = acb_tetra_energy if config.model_family == "acb-tetra" else acb_cell_energy
    rows = []
    for eps in config.sweep["epsilons"]:
        y = sampled_sweep_state(config, eps)
        exact, cb = atomistic_energy(y, config.laws, gradient=False), acb(y, config.laws, gradient=False)
        vol = y.cfg.volume
        gap = abs(exact.excess - cb.excess) / vol
        scale = max(sum(map(abs, rep.breakdown.values())) for rep in (exact, cb))
        rows.append({
            "epsilon": eps, "energy_atomistic": exact.energy, "energy_acb": cb.energy, "gap": gap,
            "residual": gap / max(1.0, abs(exact.energy) / vol),
            "share_ulps": abs((exact.energy - exact.excess) - (cb.energy - cb.excess)) / math.ulp(scale),
        })
    fit = [(math.log(r["epsilon"]), math.log(r["gap"])) for r in rows]
    slope = float(np.polyfit([p[0] for p in fit], [p[1] for p in fit], 1)[0])
    return harness.SweepResult(rows=rows, slope=slope, exact=False)


@pytest.mark.parametrize("model", ["acb-cell", "acb-tetra"])
def test_sweep_from_axis_profiles_equals_the_full_field_models(monkeypatch, model):
    """The sweep hands the models its displacement as three per-axis lines
    and builds no field of it: no ``LatticeField`` is constructed while it
    runs. Its result, every row and the slope, has the bits recomputed from
    ``atomistic_energy`` and the configured Cauchy-Born model on
    ``make_deformation(F, sample_field(profile, cfg))``, at N = 16, 32 and 64
    (where each bond batch runs in two pieces), under a sheared F and with
    all four law kinds."""
    config = sweep_config(model)
    built = []
    init = LatticeField.__init__

    def spy(self, cfg, values):
        built.append(cfg)
        init(self, cfg, values)

    monkeypatch.setattr(LatticeField, "__init__", spy)
    result = harness.consistency_sweep(config)
    assert built == []
    want = full_field_sweep(config)
    assert built  # the spy sees the oracle's fields
    assert repr(result) == repr(want)
    assert [r["epsilon"] for r in result.rows] == [0.25, 0.125, 0.0625]


@pytest.mark.parametrize("epsilons, amplitude, streamed", [
    ((0.25, 0.125, 0.0625), 500.0, False),   # N=16, one lane
    ((0.0625, 0.125, 0.25), 484.0, True),    # N=64, every batch two pieces on two lanes
])
def test_sweep_raises_the_full_field_models_domain_error(monkeypatch, epsilons, amplitude, streamed):
    """At an amplitude where an anisotropic-toy bond overflows on the first
    spacing, the sweep raises the error that the atomistic model raises on
    the sampled field: the same message, site and eta."""
    monkeypatch.setattr(energies, "_LANES", 2)
    streams = []
    stream = energies._stream
    monkeypatch.setattr(energies, "_stream", lambda *a: streams.append(1) or stream(*a))
    config = sweep_config("acb-cell", epsilons, amplitude, F=np.eye(3).tolist())
    with pytest.raises(PotentialDomainError) as got:
        harness.consistency_sweep(config)
    assert bool(streams) is streamed
    with pytest.raises(PotentialDomainError) as want:
        atomistic_energy(sampled_sweep_state(config, epsilons[0]), config.laws, gradient=False)
    assert "anisotropic-toy energy or force is not finite" in str(got.value)
    assert (str(got.value), got.value.site, got.value.eta) == (str(want.value), want.value.site, want.value.eta)


@pytest.mark.parametrize("lanes", [1, 2])
def test_an_overflowing_excess_names_its_largest_bond(monkeypatch, lanes):
    """At amplitude 480 on the README laws (F = I), the sweep's N=64
    spacing gives anisotropic-toy phi up to about 5e307, every one finite,
    whose excess sum overflows; each atomistic batch there is two pieces.
    The sweep raises a domain error that names the bond of largest
    |phi - phi(F eta)| (the weight is 1), the same error as the atomistic
    model on the sampled field, on one lane and on two; no overflow
    warning escapes (the suite turns RuntimeWarnings into errors)."""
    monkeypatch.setattr(energies, "_LANES", lanes)
    data = json.loads(json.dumps(harness.DEFAULT_CONFIG))
    data.update(model="acb-cell", F=np.eye(3).tolist(),
                sweep={"epsilons": [0.25, 0.125, 0.0625], "amplitude": 480.0, "period": 4.0})
    config = config_from_dict(data)
    with pytest.raises(PotentialDomainError) as got:
        harness.consistency_sweep(config)
    y = sampled_sweep_state(config, 0.0625)
    with pytest.raises(PotentialDomainError) as want:
        atomistic_energy(y, config.laws, gradient=False)
    assert (str(got.value), got.value.site, got.value.eta) == (str(want.value), want.value.site, want.value.eta)
    law = next(law for law in config.laws if law.kind == "anisotropic-toy")
    op = energies._bond_stencil(law.eta, y.cfg.N)
    with np.errstate(over="ignore"):
        phi = law.evaluate(op @ y.displacement.values.reshape(-1, 3) / y.cfg.epsilon + law.eta_vec, 0)[0]
    assert np.isfinite(phi).all() and phi.max() > 1e307
    row = int(np.argmax(np.abs(phi - law.evaluate(law.eta_vec, 0)[0])))
    assert (got.value.site, got.value.eta) == (op.site(row), law.eta)
    assert str(got.value).startswith("anisotropic-toy energy or force is not finite (offending bond: site ")


def test_an_energy_only_sweep_term_keeps_no_array_of_its_rows():
    """The N=128 atomistic sweep term (2,097,152 rows per law, sixteen
    pieces), run from let-go workspaces under tracemalloc, peaks below one
    N^3 float array (16 MiB): each piece reduces its phi as it runs, so the
    lanes' arenas (a piece's zeta and phi) and the law's chunk temporaries
    are all the term allocates, and no unit keeps phi for a whole batch."""
    import tracemalloc

    config = sweep_config("acb-cell")
    cfg = LatticeConfig(N=(128, 128, 128), epsilon=4.0 / 128)
    lines = harness._sweep_lines(lambda x: 0.05 * np.sin(2.0 * np.pi * x / 4.0), cfg)
    energies._drop_workspaces()
    tracemalloc.start()
    try:
        report = harness._sweep_energy("atomistic", lines, config, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(report.excess)
    assert peak < 128**3 * 8, peak


def test_sweep_gap_keeps_its_digits_at_small_amplitude():
    """At amplitude 5e-7 the finest gap is about one ulp of the two
    energies (~534), so it must come from the excesses to fit the
    second-order slope."""
    data = json.loads(json.dumps(harness.DEFAULT_CONFIG))
    data["sweep"] = {"epsilons": [0.5, 0.25, 0.125, 0.0625], "amplitude": 5e-7, "period": 4.0}
    config = config_from_dict(data)
    result = harness.consistency_sweep(config)
    assert result.slope >= config.tolerances["sweep_slope"] + 0.05


def test_minimize_input_validation():
    config = harmonic_solver_config()
    bad_force = LatticeField(config.cfg, np.full(config.cfg.shape, 0.3))
    with pytest.raises(ValueError, match="zero average"):
        minimize(config, bad_force)
    # a mean of 1e-6 max|f| is no rounding residue, whatever the size of f
    for amplitude in (1.0, 1e6):
        f = sine_force(config.cfg, amplitude)
        vals = f.values.copy()
        vals[..., 2] += 1e-6 * f.max_norm()
        with pytest.raises(ValueError, match="force field must have zero average, got mean"):
            minimize(config, LatticeField(config.cfg, vals))
    ho = config_from_dict(small_config_dict(model="coupled-ho(2)"))
    with pytest.raises(ConfigError, match="solve supports"):
        minimize(ho)


# ----------------------------------------------------------------------
# Reports and CLI
# ----------------------------------------------------------------------

def test_write_csv_header_and_values(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(path, ("a", "b"), [(1, 0.1), (2, 1e-17)], seed=99)
    lines = path.read_text().splitlines()
    assert lines[0] == "# seed=99 generator=PCG64"
    assert lines[1] == "a,b"
    assert float(lines[2].split(",")[1]) == 0.1
    assert float(lines[3].split(",")[1]) == 1e-17


def test_cli_ghost_forces_passes(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(small_config_dict()))
    out = tmp_path / "reports"
    code = cli.main(["verify", "ghost-forces", "--config", str(cfg_path), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "PASS ghost-forces" in captured.out
    assert (out / "summary.txt").exists()
    head = (out / "ghost_forces.csv").read_text().splitlines()[0]
    assert head == "# seed=7 generator=PCG64"


def test_cli_naive_control_is_expected_fail(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(small_config_dict(model="naive")))
    out = tmp_path / "reports"
    code = cli.main(["verify", "ghost-forces", "--config", str(cfg_path), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert "EXPECTED-FAIL" in captured.out


def test_cli_config_errors_exit_2(tmp_path, capsys):
    bad = small_config_dict(model="bogus")
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(bad))
    code = cli.main(["verify", "gradient", "--config", str(cfg_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "config error" in captured.err

    code = cli.main(["verify", "gradient", "--config", str(tmp_path / "missing.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert "config error" in captured.err

    # a command that refuses its configuration reports it the same way
    cfg_path.write_text(json.dumps(small_config_dict()))
    for degree in (2, 3):
        code = cli.main(["solve", "--model", f"coupled-ho({degree})", "--config", str(cfg_path),
                         "--out", str(tmp_path / "solve")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("config error: solve supports lattice-state models"), captured.err
        assert "Traceback" not in captured.err


def test_refused_command_leaves_no_report_directory(tmp_path, capsys):
    """``solve`` refuses a high-order model before it writes a report, so
    ``run`` makes no report directory, and one that existed before stays."""
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(small_config_dict()))
    existing = tmp_path / "existing"
    existing.mkdir()
    for out in (tmp_path / "X", tmp_path / "a" / "b", existing):
        code = cli.main(["solve", "--model", "coupled-ho(2)", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        capsys.readouterr()
    assert not (tmp_path / "X").exists()
    assert not (tmp_path / "a").exists()
    assert existing.is_dir()


def test_cli_usage_errors_exit_2(capsys):
    assert cli.main(["frobnicate"]) == 2
    capsys.readouterr()


def test_cli_gradient_and_lemma_and_coverings_pass(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(small_config_dict()))
    for check, report_file in (
        ("gradient", "gradient_fd.csv"),
        ("lemma", "lemma.csv"),
        ("coverings", "coverings.csv"),
    ):
        out = tmp_path / f"reports-{check}"
        code = cli.main(["verify", check, "--config", str(cfg_path), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0, (check, captured.out)
        assert "PASS" in captured.out
        assert (out / report_file).exists(), check


def test_cli_solve_writes_trace(tmp_path, capsys):
    data = {
        "lattice": {"N": [6, 6, 6], "epsilon": 1.0 / 6.0},
        "interactions": [{"eta": [1, 1, 1], "kind": "harmonic"}],
        "model": "atomistic",
        "seed": 3,
        "solve": {"max_iters": 400, "g_tol": 1e-8, "force_amplitude": 0.01},
    }
    cfg_path = tmp_path / "solve.json"
    cfg_path.write_text(json.dumps(data))
    out = tmp_path / "reports"
    code = cli.main(["solve", "--config", str(cfg_path), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "PASS solve" in captured.out
    lines = (out / "solve_trace.csv").read_text().splitlines()
    assert lines[1] == "iteration,objective,gnorm,step"
    assert len(lines) > 3


def test_cli_solve_on_the_built_in_config_runs_the_minimizer(tmp_path, capsys):
    """The built-in configuration carries the README's sine force, so its
    coupled solve passes after taking steps, not at the start state."""
    code = cli.main(["solve", "--model", "coupled", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0, out
    assert out.startswith("PASS solve: stopped (converged) at iteration ")
    assert int(out.split(" at iteration ")[1].split()[0]) > 0


def test_cli_solve_fails_on_a_gradient_off_by_a_fixed_offset(tmp_path, monkeypatch, capsys):
    """The README solve passes; with one gradient entry off by a fixed 0.1
    (ten times the force amplitude), the gradient no longer belongs to the
    energy the line search compares, and the solve must end in a FAIL solve
    line and exit 1."""
    config = replace(readme_solver_config(force_amplitude=0.01), out=str(tmp_path))
    assert run("solve", config) == 0
    assert capsys.readouterr().out.startswith("PASS solve: ")
    evaluate = harness.evaluate_model

    def offset_gradient(config, y, *args, **kwargs):
        report = evaluate(config, y, *args, **kwargs)
        values = report.gradient.values.copy()
        values[1, 2, 3, 0] += 0.1
        report.gradient = LatticeField(config.cfg, values)
        return report

    monkeypatch.setattr(harness, "evaluate_model", offset_gradient)
    code = run("solve", config)
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert lines[-1].startswith("FAIL solve: "), lines


def test_cli_solve_summary_names_the_stop_reason(tmp_path, capsys):
    config = replace(readme_solver_config(max_iters=3, force_amplitude=0.01), out=str(tmp_path))
    code = run("solve", config)
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("FAIL solve: stopped (iteration-cap) at iteration 3 after ")
    evaluations = int(out.split(" after ")[1].split()[0])
    assert evaluations >= 4
    rows = (tmp_path / "solve_trace.csv").read_text().splitlines()[2:]
    assert [int(r.split(",")[0]) for r in rows] == [0, 1, 2, 3]


def test_cli_deterministic_reports_are_byte_identical(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(small_config_dict()))
    outs = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        code = cli.main([
            "verify", "gradient", "--config", str(cfg_path),
            "--seed", "123", "--out", str(out),
        ])
        assert code == 0
        outs.append(out)
    a = (outs[0] / "gradient_fd.csv").read_bytes()
    b = (outs[1] / "gradient_fd.csv").read_bytes()
    assert a == b
    assert (outs[0] / "summary.txt").read_bytes() == (outs[1] / "summary.txt").read_bytes()


def test_run_rejects_unknown_command(capsys):
    config = default_config()
    assert run("verify-everything", config) == 2
    capsys.readouterr()


def test_model_override_via_cli(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(small_config_dict()))
    out = tmp_path / "reports"
    code = cli.main([
        "verify", "ghost-forces", "--config", str(cfg_path),
        "--model", "coupled-ho(2)", "--out", str(out),
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "coupled-ho(2)" in captured.out


def test_cli_overrides_apply_before_validation(tmp_path, monkeypatch, capsys):
    """--model and --seed replace the file's values before the one parse
    of the run, so a value they replace is no error; without them the
    file's invalid model is a config error."""
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(small_config_dict(model="coupled-ho(5)", seed=-1)))
    parsed = []
    monkeypatch.setattr(cli, "config_from_dict", lambda data: parsed.append(data) or config_from_dict(data))
    code = cli.main([
        "verify", "ghost-forces", "--config", str(cfg_path),
        "--model", "coupled", "--seed", "3", "--out", str(tmp_path / "reports"),
    ])
    assert code == 0
    assert len(parsed) == 1 and parsed[0]["model"] == "coupled" and parsed[0]["seed"] == 3
    capsys.readouterr()
    code = cli.main(["verify", "ghost-forces", "--config", str(cfg_path), "--seed", "3",
                     "--out", str(tmp_path / "refused")])
    assert code == 2 and len(parsed) == 2
    assert capsys.readouterr().err == "config error: coupled-ho degree must be one of (1, 2, 3), got 5\n"
    # an empty override is a value like any other, not an absent one
    code = cli.main(["verify", "ghost-forces", "--model", "", "--out", str(tmp_path / "empty")])
    assert code == 2 and parsed[-1]["model"] == ""
    assert "unknown model ''" in capsys.readouterr().err


def test_cli_out_under_a_regular_file_exits_2(tmp_path, capsys):
    blocker = tmp_path / "report"
    blocker.write_text("not a directory\n")
    code = cli.main(["verify", "coverings", "--out", str(blocker / "sub")])
    captured = capsys.readouterr()
    assert code == 2
    assert "I/O error" in captured.err


def test_tolerances_g_tol_must_match_solve_g_tol():
    data = small_config_dict(tolerances={"g_tol": 1e-2})
    with pytest.raises(ConfigError) as exc_info:
        config_from_dict(data)
    text = "\n".join(exc_info.value.messages)
    assert "tolerances.g_tol" in text and "solve.g_tol" in text
    data["solve"] = {"g_tol": 1e-2}
    assert config_from_dict(data).solve["g_tol"] == 1e-2
    assert config_from_dict(small_config_dict(solve={"g_tol": 1e-6})).solve["g_tol"] == 1e-6


@pytest.mark.parametrize("solve, message", [
    ({"g_tol": -1}, "solve.g_tol must be a positive number, got -1"),
    (5, "solve must be an object"),
])
def test_a_solve_g_tol_that_breaks_its_rule_is_one_error(solve, message):
    """A given solve.g_tol that is not a positive number, or a solve section
    that is not an object, is reported once; tolerances.g_tol is not
    compared with the default that replaced it."""
    data = small_config_dict(tolerances={"g_tol": 1e-6}, solve=solve)
    with pytest.raises(ConfigError) as exc_info:
        config_from_dict(data)
    assert exc_info.value.messages == [message]


def _with_interaction_params(data, kind, params):
    item = next(it for it in data["interactions"] if it["kind"] == kind)
    item["params"] = {**item.get("params", {}), **params}
    return data


# json accepts NaN and Infinity; each must be a config error naming the key
# (exit 2), not a PASS at an infinite tolerance or a FAIL at a NaN residual.
@pytest.mark.parametrize("key, edit", [
    ("tolerances.ghost_force", lambda d: {**d, "tolerances": {"ghost_force": float("inf")}}),
    ("lattice.epsilon", lambda d: {**d, "lattice": {**d["lattice"], "epsilon": float("inf")}}),
    ("F must be finite", lambda d: {**d, "F": [[1.0, 0.0, 0.0], [0.0, float("nan"), 0.0], [0.0, 0.0, 1.0]]}),
    ("sweep.amplitude", lambda d: {**d, "sweep": {"amplitude": float("nan")}}),
    ("solve.force_amplitude", lambda d: {**d, "solve": {"force_amplitude": float("-inf")}}),
    ("'well_depth'", lambda d: _with_interaction_params(d, "lennard-jones-radial", {"well_depth": float("nan")})),
    ("'a'", lambda d: _with_interaction_params(d, "anisotropic-toy", {"a": [0.1, 0.2]})),
    ("'M'", lambda d: _with_interaction_params(d, "anisotropic-toy", {"M": [[1.0, 0.0], [0.0, 1.0]]})),
    ("coupled-ho degree", lambda d: {**d, "model": "coupled-ho(4)"}),
    ("domain period 1.1", lambda d: {**d, "sweep": {"period": 1.1}}),
])
def test_non_finite_or_misshaped_numbers_are_config_errors(tmp_path, capsys, key, edit):
    data = edit(json.loads(json.dumps(harness.DEFAULT_CONFIG)))
    with pytest.raises(ConfigError) as exc_info:
        config_from_dict(data)
    assert any(key in m for m in exc_info.value.messages), exc_info.value.messages

    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(data))
    code = cli.main(["verify", "ghost-forces", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2, captured.out
    assert key in captured.err


@pytest.mark.parametrize("sweep, n_errors", [
    ({"period": 1.1}, 4),                                    # the four default spacings
    ({"period": 1.1, "epsilons": [0.55, 0.275, 0.1375]}, 0),
    ({"period": -1.0, "epsilons": [0.3, 0.15, 0.075]}, 1),   # the period alone
    ({"period": 1.1, "epsilons": [0.55, 0.275]}, 1),         # the list alone
])
def test_sweep_spacings_are_checked_against_the_period(sweep, n_errors):
    data = {**json.loads(json.dumps(harness.DEFAULT_CONFIG)), "sweep": sweep}
    if n_errors == 0:
        assert config_from_dict(data).sweep["period"] == 1.1
        return
    with pytest.raises(ConfigError) as exc_info:
        config_from_dict(data)
    assert len(exc_info.value.messages) == n_errors, exc_info.value.messages


def test_lemma_csv_rows_are_relative_to_the_identity_scale(tmp_path, capsys):
    """Every row's ``relative`` is residual / (eps^d max|D_eta u|), d the
    number of nonzero components of eta, and the rows cover the full 3D
    directions and all six zero patterns of the reduced forms."""
    config = default_config()
    assert cli.main(["verify", "lemma", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    lines = (tmp_path / "lemma.csv").read_text().splitlines()
    assert lines[1] == "case,eta,ell,residual,relative"
    u = LatticeField(config.cfg, np.random.default_rng(config.seed).random(config.cfg.shape))
    eps = config.cfg.epsilon
    patterns = set()
    for line in lines[2:]:
        case, rest = line.split(",", 1)
        eta_s, rest = rest.split("),", 1)
        ell_s, residual, rel = rest.rsplit(",", 2)
        eta = tuple(int(e) for e in eta_s.strip("()").split(","))
        ell = tuple(int(e) for e in ell_s.strip("()").split(","))
        d = sum(1 for e in eta if e)
        bond = np.abs(u.at(np.add(ell, eta)) - u.at(ell)) / eps
        assert float(rel) == pytest.approx(float(residual) / (eps**d * float(np.max(bond))), rel=1e-12, abs=0)
        patterns.add(tuple(e != 0 for e in eta))
    assert len(patterns) == 7


# ----------------------------------------------------------------------
# Checks that can fail: each check, fed one defect in the code it
# certifies, must report FAIL and exit 1
# ----------------------------------------------------------------------

def run_check(tmp_path, capsys, command, data) -> tuple[int, str]:
    code = run(command, config_from_dict({**data, "out": str(tmp_path / command)}))
    return code, capsys.readouterr().out


def test_sweep_fails_on_a_first_order_comparison_model(tmp_path, capsys, monkeypatch):
    """The sweep's comparison model, made first order: its energy and excess
    carry an extra eps |Omega|, so the gap falls like eps and the fitted
    slope, near 1, is below the 1.9 floor."""
    data = small_config_dict(model="acb-cell")
    data["sweep"] = {"epsilons": [0.5, 0.25, 0.125], "period": 4.0}
    code, out = run_check(tmp_path, capsys, "sweep-consistency", data)
    assert code == 0 and out.startswith("PASS sweep-consistency"), out
    sweep_energy = harness._sweep_energy

    def first_order(model, lines, config, cfg):
        rep = sweep_energy(model, lines, config, cfg)
        if model != "acb-cell":
            return rep
        error = cfg.volume * cfg.epsilon
        return replace(rep, energy=rep.energy + error, excess=rep.excess + error)

    monkeypatch.setattr(harness, "_sweep_energy", first_order)
    code, out = run_check(tmp_path, capsys, "sweep-consistency", data)
    assert code == 1
    assert out.startswith("FAIL sweep-consistency: fitted log-log slope 1.0"), out


def test_lemma_affine_check_fails_on_a_residual_of_1e_15(tmp_path, capsys, monkeypatch):
    """A residual of 1e-15 on the affine integer data, and on it only, fails
    ``lemma-affine-exact``, which must be exactly 0.0; the random and
    reduced checks still pass."""
    residual = harness.lemma_residual

    def off_on_affine(u, ell, eta):
        affine = bool(np.all(u.values == np.round(u.values)))
        return residual(u, ell, eta) + (1e-15 if affine else 0.0)

    monkeypatch.setattr(harness, "lemma_residual", off_on_affine)
    code, out = run_check(tmp_path, capsys, "verify-lemma", small_config_dict())
    assert code == 1
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines] == \
        ["PASS lemma-random", "FAIL lemma-affine-exact", "PASS lemma-reduced"], out
    assert "1e-15" in lines[1]


def test_coverings_check_fails_on_a_shifted_base_site(tmp_path, capsys, monkeypatch):
    """One base site of the first covering of each direction, moved by one
    cell along axis 0: the covering counts are right, but the moved box
    covers one cell twice and leaves another bare, so every direction
    fails. (Moving all of a covering's base sites by one cell would still
    tile the torus.)"""
    coverings = harness.enumerate_coverings

    def shifted(eta, cfg):
        covs = coverings(eta, cfg)
        sites = list(covs[0].base_sites)
        sites[0] = (sites[0][0] + 1, *sites[0][1:])
        return [replace(covs[0], base_sites=tuple(sites)), *covs[1:]]

    monkeypatch.setattr(harness, "enumerate_coverings", shifted)
    code, out = run_check(tmp_path, capsys, "verify-coverings", small_config_dict())
    assert code == 1
    assert [line.split(":")[0] for line in out.splitlines()] == \
        ["FAIL coverings-(1, 1, 1)", "FAIL coverings-(2, 1, 1)", "FAIL coverings-(1, -1, 2)"], out
    rows = (tmp_path / "verify-coverings" / "coverings.csv").read_text().splitlines()[2:]
    assert [row.split(",")[-3] for row in rows] == ["broken"] * 3


def test_coverings_check_names_and_writes_a_mismatched_direction(tmp_path, capsys):
    """eta = (5, 1, 1) at N=12: its coverings cannot tile the torus, since
    5 does not divide 12. The failed check is named like every other,
    ``coverings-(5, 1, 1)``, and ``coverings.csv`` has a ``mismatch`` row
    for it, with no coverings of the 5 expected."""
    data = small_config_dict(model="atomistic", lattice={"N": [12, 12, 12], "epsilon": 1.0 / 12.0})
    data["interactions"] = [*data["interactions"], {"eta": [5, 1, 1], "kind": "harmonic"}]
    code, out = run_check(tmp_path, capsys, "verify-coverings", data)
    assert code == 1
    assert [line.split(":")[0] for line in out.splitlines()] == [
        "PASS coverings-(1, 1, 1)", "PASS coverings-(2, 1, 1)", "PASS coverings-(1, -1, 2)",
        "FAIL coverings-(5, 1, 1)"], out
    rows = (tmp_path / "verify-coverings" / "coverings.csv").read_text().splitlines()[2:]
    assert rows == ["(1, 1, 1),ok,1,1", "(2, 1, 1),ok,2,2", "(1, -1, 2),ok,2,2", "(5, 1, 1),mismatch,0,5"]


def test_sweep_fails_when_a_model_misses_the_homogeneous_share(tmp_path, capsys, monkeypatch):
    """eps |Omega| added to the comparison model's energy alone, not to its
    excess: the gap, taken from the excesses, keeps its second-order slope
    (1.93), but energy less excess is no longer the atomistic model's
    homogeneous share, so the sweep fails."""
    data = small_config_dict(model="acb-cell")
    data["sweep"] = {"epsilons": [0.5, 0.25, 0.125], "period": 4.0}
    sweep_energy = harness._sweep_energy

    def energy_off(model, lines, config, cfg):
        rep = sweep_energy(model, lines, config, cfg)
        if model != "acb-cell":
            return rep
        return replace(rep, energy=rep.energy + cfg.volume * cfg.epsilon)

    monkeypatch.setattr(harness, "_sweep_energy", energy_off)
    assert harness.consistency_sweep(config_from_dict(data)).slope >= 1.9
    code, out = run_check(tmp_path, capsys, "sweep-consistency", data)
    assert code == 1
    assert out.startswith("FAIL sweep-consistency: homogeneous shares differ by "), out
    assert out.endswith(f" ulps at epsilon 0.5 (bound {harness._SHARE_ULPS})\n"), out


def coupled_with(monkeypatch, edit):
    """``harness.coupled_energy_conforming`` with ``edit`` applied to the
    values of every gradient it reports."""
    model = harness.coupled_energy_conforming

    def edited(*args, **kwargs):
        rep = model(*args, **kwargs)
        if rep.gradient is not None:
            edit(rep.gradient.values)
        return rep

    monkeypatch.setattr(harness, "coupled_energy_conforming", edited)


def test_ghost_force_check_fails_on_one_offset_gradient_entry(tmp_path, capsys, monkeypatch):
    """One entry of the coupled gradient at y_F offset by ten times the
    tolerance, in the residual's scale."""
    config = config_from_dict(small_config_dict())
    offset = 10.0 * config.ghost_force_tolerance * residual_scale(config)

    def offset_one(g):
        g[3, 2, 1, 0] += offset

    coupled_with(monkeypatch, offset_one)
    code, out = run_check(tmp_path, capsys, "verify-ghost-forces", small_config_dict())
    assert code == 1
    assert out.startswith("FAIL ghost-forces: model coupled: scaled residual 1.000e-11"), out


def test_gradient_check_fails_on_a_gradient_scaled_by_1_plus_1e_5(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(harness, "_FD_TRIALS", 2)
    coupled_with(monkeypatch, lambda g: g.__imul__(1.0 + 1e-5))
    code, out = run_check(tmp_path, capsys, "verify-gradient", small_config_dict())
    assert code == 1
    assert out.startswith("FAIL gradient-fd: model coupled: max relative FD error "), out
    assert float(out.split(" error ")[1].split()[0]) == pytest.approx(1e-5, rel=1e-3)


def test_lemma_checks_fail_on_two_swapped_simplex_vertices(tmp_path, capsys, monkeypatch):
    """The first two vertices of the first staircase simplex of every box
    swapped: that simplex's orientation flips, so the random, affine and
    reduced (rectangle and segment) residuals all fail."""
    from bvcouple import geometry

    simplices = geometry._staircase_simplices

    def swapped(corners, eta):
        sites = simplices(corners, eta)
        sites[..., 0, :2, :] = sites[..., 0, 1::-1, :].copy()
        return sites

    monkeypatch.setattr(geometry, "_staircase_simplices", swapped)
    code, out = run_check(tmp_path, capsys, "verify-lemma", small_config_dict())
    assert code == 1
    assert [line.split(":")[0] for line in out.splitlines()] == \
        ["FAIL lemma-random", "FAIL lemma-affine-exact", "FAIL lemma-reduced"], out


def test_gradient_check_moves_the_free_nodes_on_every_trial(monkeypatch):
    """Every model call of every coupled-ho(2) trial, the full call and both
    probes, gets free-node displacements of the mesh's shape, none zero."""
    from bvcouple.highorder import build_high_order_mesh

    config = config_from_dict(small_config_dict(model="coupled-ho(2)"))
    n_free = build_high_order_mesh(config.region, 2).n_free_nodes
    nodes = []

    def recording(config, y, y_plus=None, node_displacements=None, **kwargs):
        nodes.append(node_displacements)
        return evaluate_model(config, y, y_plus, node_displacements, **kwargs)

    monkeypatch.setattr(harness, "evaluate_model", recording)
    monkeypatch.setattr(harness, "_FD_TRIALS", 2)
    assert fd_gradient_check(config) <= config.gradient_fd_tolerance
    assert len(nodes) == 6
    assert all(n.shape == (n_free, 3) and np.all(n != 0.0) for n in nodes)


def test_minimize_keeps_only_positive_curvature_pairs_and_descends(monkeypatch):
    """The README laws are phonon-unstable for the atomistic model at N=12:
    under a force of amplitude 0.1 the solve takes steps whose curvature
    <s, y> is not positive. Every pair the L-BFGS recursion is handed must
    have <s, y> > 0 all the same, and every direction searched must be a
    descent direction."""
    config = readme_solver_config("atomistic", max_iters=30)
    f = sine_force(config.cfg, 0.1)
    states, directions = [], []
    evaluate, lbfgs = harness.evaluate_model, harness._lbfgs_direction

    def recording_model(config, y, *args, **kwargs):
        rep = evaluate(config, y, *args, **kwargs)
        states.append((y.displacement.values, rep.gradient.values - f.values))
        return rep

    def recording_direction(g, pairs, precondition):
        r = lbfgs(g, pairs, precondition)
        directions.append((g.copy(), list(pairs), r))
        return r

    monkeypatch.setattr(harness, "evaluate_model", recording_model)
    monkeypatch.setattr(harness, "_lbfgs_direction", recording_direction)
    minimize(config, f)
    # the iterates: the states a direction starts from, each once
    starts = [g for i, (g, _, _) in enumerate(directions) if i == 0 or not np.array_equal(g, directions[i - 1][0])]
    iterates = [next(s for s in states if np.array_equal(s[1], g)) for g in starts]
    curvatures = [np.sum((b[0] - a[0]) * (b[1] - a[1])) for a, b in zip(iterates, iterates[1:])]
    assert min(curvatures) <= 0.0
    for g, pairs, r in directions:
        assert all(np.sum(s * y) > 0.0 and rho > 0.0 for s, y, rho in pairs)
        assert np.sum(g * -r) < 0.0

"""Configuration ingestion, verification suites, consistency sweeps, a
minimization driver, and CSV/summary report emission."""
from __future__ import annotations

import csv
import json
import math
import re
from collections import deque
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from .coupling import (
    DEGENERATE_POLICIES,
    RegionPartition,
    clearance_violations,
    coupled_energy_conforming,
    coupled_energy_dg,
    naive_coupling_energy,
    partition_violations,
)
from .energies import (
    EnergyReport,
    _hessian_symbol,
    _lattice_batches,
    _report,
    _term,
    acb_cell_energy,
    acb_tetra_energy,
    atomistic_energy,
)
from .geometry import CoveringMismatch, DegenerateEta, enumerate_coverings, lemma_residual, nondegenerate_eta
from .highorder import _check_degree, build_high_order_mesh, high_order_energy
from .lattice import (
    Deformation,
    LatticeConfig,
    LatticeField,
    deformation_gradient,
    diff_quotient,
    discrete_inner_product,
    _dot,
    make_deformation,
    sample_field,
)
from .potentials import InteractionLaw, InteractionSet, PotentialDomainError, make_law, piola_stress

MODEL_NAMES = ("atomistic", "acb-tetra", "acb-cell", "coupled", "coupled-dg", "naive")
_HO_RE = re.compile(r"coupled-ho\((0|[1-9][0-9]*)\)")  # ASCII digits, no leading zero
COUPLED_MODELS = ("coupled", "coupled-dg", "coupled-ho", "naive")


class ConfigError(ValueError):
    """Raised on invalid run configurations; carries every violation."""

    def __init__(self, messages: Sequence[str]):
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


def parse_model(name: str) -> tuple[str, int | None]:
    """Split a model selector into (family, degree); degree only for the
    high-order family, one of ``highorder.SUPPORTED_DEGREES``."""
    if name in MODEL_NAMES:
        return name, None
    m = _HO_RE.fullmatch(name)
    if not m:
        raise ValueError(
            f"unknown model {name!r}; expected one of {MODEL_NAMES} or coupled-ho(k)"
        )
    k = int(m.group(1))
    _check_degree(k)
    return "coupled-ho", k


@dataclass
class RunConfig:
    """Validated run description: lattice, interactions, F, optional region
    partition, model selector (which gives the family and degree), policies,
    seed, tolerances, sweep and solve settings, and output directory."""

    cfg: LatticeConfig
    laws: InteractionSet
    F: np.ndarray
    region: RegionPartition | None
    model: str
    degenerate_eta: str
    seed: int
    tolerances: dict
    sweep: dict
    solve: dict
    out: str | None

    @property
    def model_family(self) -> str:
        return parse_model(self.model)[0]

    @property
    def ho_degree(self) -> int | None:
        return parse_model(self.model)[1]

    @property
    def ghost_force_tolerance(self) -> float:
        tol = self.tolerances.get("ghost_force")
        if tol is not None:
            return tol
        return 1e-11 if self.model_family in ("coupled-dg", "coupled-ho") else 1e-12

    @property
    def gradient_fd_tolerance(self) -> float:
        tol = self.tolerances.get("gradient_fd")
        if tol is not None:
            return tol
        all_harmonic = all(law.kind == "harmonic" for law in self.laws)
        return 1e-9 if all_harmonic else 1e-6


def _check_keys(d: dict, allowed, where: str, errors: list[str]) -> None:
    for key in d:
        if key not in allowed:
            errors.append(f"unknown key {key!r} in {where} (allowed: {sorted(allowed)})")


def _as_int_triple(x, where, errors):
    if (
        not isinstance(x, (list, tuple))
        or len(x) != 3
        or not all(isinstance(v, int) and not isinstance(v, bool) for v in x)
    ):
        errors.append(f"{where} must be a list of 3 integers, got {x!r}")
        return None
    return tuple(x)


def _build(errors: list[str], make: Callable, *args, where: str = ""):
    """``make(*args)``, or None with the ValueError it raises appended to
    ``errors`` (prefixed with ``where`` when given)."""
    try:
        return make(*args)
    except ValueError as exc:
        errors.append(f"{where}: {exc}" if where else str(exc))
        return None


def _number(x, positive: bool = False) -> float | None:
    """``x`` as a float if it is a finite JSON number (and positive when
    asked), else None. Booleans are not numbers; ``json`` accepts NaN and
    Infinity, which are rejected here."""
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        return None
    try:
        x = float(x)
    except OverflowError:
        return None
    if not math.isfinite(x) or (positive and x <= 0):
        return None
    return x


_EPSILONS = "a list of >= 3 positive numbers"

# Numeric config sections: {section: {key: (default, rule)}}, each rule
# worded as its error message states it.
_SECTIONS = {
    "tolerances": {
        "ghost_force": (None, "a positive number"),   # resolved per model (1e-12 conforming, 1e-11 dg/ho)
        "gradient_fd": (None, "a positive number"),   # resolved per laws (1e-9 all-harmonic, else 1e-6)
        "fd_step": (1e-5, "a positive number"),
        "g_tol": (1e-8, "a positive number"),
        "sweep_slope": (1.9, "a positive number"),
        "lemma": (1e-13, "a positive number"),
    },
    "sweep": {
        "epsilons": ([0.25, 0.125, 0.0625, 0.03125], _EPSILONS),
        "amplitude": (0.05, "a number"),
        "period": (4.0, "a positive number"),
    },
    "solve": {
        "max_iters": (200, "a positive integer"),
        "g_tol": (1e-8, "a positive number"),
        "force_amplitude": (0.0, "a number"),
    },
}


def _parse(rule: str, x):
    """``x`` parsed under a section rule, or None when it breaks the rule."""
    if rule == "a positive integer":
        return x if isinstance(x, int) and not isinstance(x, bool) and x >= 1 else None
    if rule == _EPSILONS:
        vals = [_number(e, positive=True) for e in x] if isinstance(x, list) and len(x) >= 3 else [None]
        return None if None in vals else vals
    return _number(x, positive=rule == "a positive number")


def _read_section(data: dict, name: str, errors: list[str]) -> tuple[dict, set]:
    """One numeric section: its defaults overridden by the given keys that
    pass their rule, and the set of those keys."""
    spec = _SECTIONS[name]
    out = {key: default for key, (default, _) in spec.items()}
    given = data.get(name, {})
    if not isinstance(given, dict):
        errors.append(f"{name} must be an object")
        given = {}
    valid = set()
    for key, val in given.items():
        if key not in spec:
            errors.append(f"unknown key {key!r} in {name} (allowed: {sorted(spec)})")
        elif (parsed := _parse(spec[key][1], val)) is None:
            errors.append(f"{name}.{key} must be {spec[key][1]}, got {val!r}")
        else:
            out[key] = parsed
            valid.add(key)
    return out, valid


def _broken(data: dict, name: str, valid: set) -> set:
    """The keys of section ``name`` that were given and broke their rule,
    every key of a section that is not an object (already reported), so no
    check compares their defaults instead."""
    given = data.get(name, {})
    return (set(given) if isinstance(given, dict) else set(_SECTIONS[name])) - valid


def _sweep_cells(period: float, eps: float) -> int:
    """Cells per axis, period / eps, when that is an integer >= 2 (to 1e-9)."""
    n = period / eps
    if not (math.isfinite(n) and abs(n - round(n)) <= 1e-9 and round(n) >= 2):
        raise ValueError(
            f"sweep epsilon {eps!r} must divide the domain period {period!r} "
            f"into an integer number >= 2 of cells"
        )
    return round(n)


def config_from_dict(data: dict) -> RunConfig:
    """Parse and validate a configuration mapping, collecting every
    violation before raising. Only the JSON shapes are checked here; each
    value is validated by the library object built from it, whose
    ValueError message becomes the violation."""
    errors: list[str] = []
    if not isinstance(data, dict):
        raise ConfigError([f"config root must be an object, got {type(data).__name__}"])
    allowed_top = {
        "lattice", "interactions", "F", "region", "model", "degenerate_eta",
        "seed", "deterministic", "tolerances", "sweep", "solve", "out",
    }
    _check_keys(data, allowed_top, "config", errors)

    cfg = None
    lat = data.get("lattice")
    if not isinstance(lat, dict):
        errors.append("config requires a 'lattice' object with keys N and epsilon")
    else:
        _check_keys(lat, {"N", "epsilon"}, "lattice", errors)
        N = _as_int_triple(lat.get("N"), "lattice.N", errors)
        eps = _number(lat.get("epsilon"), positive=True)
        if eps is None:
            errors.append(f"lattice.epsilon must be a positive number, got {lat.get('epsilon')!r}")
        if N and eps:
            cfg = _build(errors, LatticeConfig, N, eps)

    built: list[InteractionLaw] = []
    inter = data.get("interactions")
    if not isinstance(inter, list) or not inter:
        errors.append("config requires a non-empty 'interactions' list")
    else:
        for i, item in enumerate(inter):
            where = f"interactions[{i}]"
            if not isinstance(item, dict):
                errors.append(f"{where} must be an object with keys eta, kind, params")
                continue
            _check_keys(item, {"eta", "kind", "params"}, where, errors)
            eta = _as_int_triple(item.get("eta"), f"{where}.eta", errors)
            params = item.get("params", {})
            if not isinstance(params, dict):
                errors.append(f"{where}.params must be an object")
            elif eta:
                built.append(_build(errors, make_law, eta, item.get("kind"), params, where=where))
    built = [law for law in built if law]
    # no laws at all is reported once, above or by the laws' own errors
    laws = _build(errors, InteractionSet, tuple(built)) if built else None

    F = np.eye(3)
    if "F" in data:
        F = _build(errors, deformation_gradient, data["F"])

    model = data.get("model")
    family = None
    if not isinstance(model, str):
        errors.append("config requires a 'model' string")
    else:
        family, _ = _build(errors, parse_model, model) or (None, None)

    policy = data.get("degenerate_eta", "reject")
    if policy not in DEGENERATE_POLICIES:
        errors.append(f"degenerate_eta must be one of {DEGENERATE_POLICIES}, got {policy!r}")
        policy = "reject"  # reported once here, not again by partition_violations

    region = None
    reg = data.get("region", "none")
    if reg not in ("none", None):
        if not isinstance(reg, dict):
            errors.append("region must be an object {corner, extents} or \"none\"")
        else:
            _check_keys(reg, {"corner", "extents"}, "region", errors)
            corner = _as_int_triple(reg.get("corner"), "region.corner", errors)
            extents = _as_int_triple(reg.get("extents"), "region.extents", errors)
            if cfg and corner and extents:
                region = _build(errors, RegionPartition, cfg, corner, extents)
    if family in COUPLED_MODELS and region is None:
        errors.append(f"model {model!r} requires a region partition")
    if region and built and family in COUPLED_MODELS:
        etas = [law.eta for law in built]
        # the naive control needs no coverings, only clearance
        errors.extend(
            clearance_violations(region, etas) if family == "naive"
            else partition_violations(region, etas, policy)
        )

    seed = data.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0 or seed >= 2**64:
        errors.append(f"seed must be an unsigned 64-bit integer, got {seed!r}")
    if not isinstance(data.get("deterministic", False), bool):
        errors.append(f"deterministic must be a boolean, got {data['deterministic']!r}")

    tolerances, tolerances_set = _read_section(data, "tolerances", errors)
    sweep, sweep_set = _read_section(data, "sweep", errors)
    solve_cfg, solve_set = _read_section(data, "solve", errors)
    # the spacings, given or default, must divide the period, unless either
    # was given and broke its rule
    if not {"epsilons", "period"} & _broken(data, "sweep", sweep_set):
        for e in sweep["epsilons"]:
            _build(errors, _sweep_cells, sweep["period"], e)
    if "g_tol" in tolerances_set - _broken(data, "solve", solve_set) and tolerances["g_tol"] != solve_cfg["g_tol"]:
        errors.append(f"tolerances.g_tol ({tolerances['g_tol']!r}) differs from solve.g_tol "
                      f"({solve_cfg['g_tol']!r}), the tolerance solve stops at; set them equal")

    out = data.get("out")
    if out is not None and not isinstance(out, str):
        errors.append(f"out must be a path string or null, got {out!r}")

    if errors:
        raise ConfigError(errors)
    return RunConfig(
        cfg=cfg,
        laws=laws,
        F=F,
        region=region,
        model=model,
        degenerate_eta=policy,
        seed=seed,
        tolerances=tolerances,
        sweep=sweep,
        solve=solve_cfg,
        out=out,
    )


DEFAULT_CONFIG: dict = {
    "lattice": {"N": [12, 12, 12], "epsilon": 1.0 / 12.0},
    "interactions": [
        {"eta": [1, 1, 1], "kind": "harmonic"},
        # sigma below the bond length keeps bonds on the soft tail of the
        # well, where finite differences of the energy are well conditioned
        {
            "eta": [2, 1, 3],
            "kind": "lennard-jones-radial",
            "params": {"well_depth": 0.5, "sigma": 2.494438257849294},
        },
        {"eta": [1, -1, 2], "kind": "anisotropic-toy"},
    ],
    "region": {"corner": [4, 4, 4], "extents": [4, 4, 4]},
    "model": "coupled",
    "seed": 20240817,
    # a sine force, so that the built-in solve runs the minimizer
    "solve": {"force_amplitude": 0.01},
}


def load_config(path: str | Path | None = None, **overrides) -> RunConfig:
    """The run configuration of the JSON file ``path``, or of the built-in
    ``DEFAULT_CONFIG`` when ``path`` is None, with each override that is not
    None (``seed``, ``out``, ``model``, ...) put in place before the one
    validation by ``config_from_dict``, so a value it replaces is no error.
    ConfigError if the file is not valid JSON; OSError if it cannot be read."""
    try:
        data = json.loads(Path(path).read_text() if path is not None else json.dumps(DEFAULT_CONFIG))
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config is not valid JSON: {exc}"]) from exc
    if isinstance(data, dict):  # config_from_dict reports any other root
        data.update((key, value) for key, value in overrides.items() if value is not None)
    return config_from_dict(data)


# ----------------------------------------------------------------------
# Model evaluation
# ----------------------------------------------------------------------

def evaluate_model(
    config: RunConfig,
    y: Deformation,
    y_plus: Deformation | None = None,
    node_displacements: np.ndarray | None = None,
    *,
    gradient: bool = True,
) -> EnergyReport:
    """Assemble the configured model's energy report at a state. With
    ``gradient=False`` the model computes the same energy, excess and
    breakdown and no gradient: the report's ``gradient`` is None and its
    diagnostics carry no gradient block. The finite-difference probes of
    ``fd_gradient_check`` read nothing else."""
    fam = config.model_family
    if fam == "atomistic":
        return atomistic_energy(y, config.laws, gradient=gradient)
    if fam == "acb-tetra":
        return acb_tetra_energy(y, config.laws, gradient=gradient)
    if fam == "acb-cell":
        return acb_cell_energy(y, config.laws, gradient=gradient)
    if fam == "coupled":
        return coupled_energy_conforming(y, config.laws, config.region, config.degenerate_eta, gradient=gradient)
    if fam == "coupled-dg":
        if y_plus is None:
            y_plus = y
        return coupled_energy_dg(y, y_plus, config.laws, config.region, config.degenerate_eta, gradient=gradient)
    if fam == "coupled-ho":
        return high_order_energy(
            y, config.laws, config.region, config.ho_degree,
            node_displacements=node_displacements,
            degenerate_eta=config.degenerate_eta,
            gradient=gradient,
        )
    if fam == "naive":
        return naive_coupling_energy(y, config.laws, config.region, gradient=gradient)
    raise ValueError(f"unhandled model family {fam!r}")


def residual_scale(config: RunConfig) -> float:
    """max(1, ||S(F)||_inf / eps): the size of one bond's force contribution."""
    S = piola_stress(config.laws, config.F)
    return max(1.0, float(np.max(np.abs(S))) / config.cfg.epsilon)


def homogeneous_state(config: RunConfig) -> Deformation:
    return make_deformation(config.F, LatticeField.zeros(config.cfg))


def ghost_force_residual(config: RunConfig) -> float:
    """Scaled max-norm of the configured model's gradient at y_F, over
    every gradient block its report carries: the per-side representers of
    the two-sided model and the free-node block of the high-order one
    too."""
    report = evaluate_model(config, homogeneous_state(config))
    diag = report.diagnostics
    blocks = [report.gradient.values]
    blocks += [diag[key].values for key in ("gradient_minus", "gradient_plus") if key in diag]
    if "node_gradient" in diag:
        blocks.append(diag["node_gradient"])
    gmax = max(float(np.max(np.abs(g), initial=0.0)) for g in blocks)
    return gmax / residual_scale(config)


def _random_displacement(rng: np.random.Generator, cfg: LatticeConfig, amplitude: float) -> LatticeField:
    values = amplitude * rng.standard_normal(cfg.shape)
    return LatticeField(cfg, values).zero_mean()


def _random_gradient_matrix(rng: np.random.Generator, F0: np.ndarray) -> np.ndarray:
    while True:
        F = F0 + 0.03 * rng.standard_normal((3, 3))
        if np.linalg.det(F) > 0.2:
            return F


# Random states per finite-difference gradient check of ``verify gradient``.
_FD_TRIALS = 5


def fd_gradient_check(config: RunConfig) -> float:
    """Max relative error of <gradient, w>_eps against the central finite
    difference of the energy, over ``_FD_TRIALS`` trials.

    Each trial draws a random deformation gradient near the configured one
    and a random small zero-mean displacement, then probes along the
    normalized analytic gradient: the steepest direction maximizes the
    directional derivative, so the comparison is not drowned by the O(h^-1)
    cancellation noise of differencing a large constant energy. For the
    two-sided model the base state is discontinuous and the direction tied,
    which drives the interface second-derivative term. For the high-order
    model of degree k the free nodes get random displacements too (of 1/k
    the lattice amplitude), and the probe direction and the inner
    product include the free-node block. The difference step is
    ``tolerances.fd_step``. The two probes of a trial read only the energy,
    so they call the model with ``gradient=False``: the same energy bits,
    at no gradient cost."""
    step = config.tolerances["fd_step"]
    rng = np.random.default_rng(config.seed)
    cfg = config.cfg
    eps = cfg.epsilon
    amp = 0.02 * eps
    k = config.ho_degree
    n_nodes = build_high_order_mesh(config.region, k).n_free_nodes if k else 0
    two_sided = config.model_family == "coupled-dg"
    worst = 0.0
    for _ in range(_FD_TRIALS):
        F = _random_gradient_matrix(rng, config.F)
        v = _random_displacement(rng, cfg, amp)
        v_plus = _random_displacement(rng, cfg, amp) if two_sided else v
        # Nodes are eps/k apart, so amplitude amp/k strains the elements as
        # much as amp strains the lattice bonds.
        nodes = amp / k * rng.standard_normal((n_nodes, 3)) if n_nodes else np.zeros((0, 3))
        report = evaluate_model(
            config, make_deformation(F, v), y_plus=make_deformation(F, v_plus) if two_sided else None,
            node_displacements=nodes,
        )
        grad = report.gradient
        g_nodes = report.diagnostics["node_gradient"] if n_nodes else np.zeros((0, 3))
        scale = max(grad.max_norm(), float(np.abs(g_nodes).max(initial=0.0)))
        w = LatticeField(cfg, grad.values / scale).zero_mean()
        w_nodes = g_nodes / scale
        analytic = discrete_inner_product(grad, w) + float(eps**3 * np.sum(g_nodes * w_nodes))

        def energy_at(t: float) -> float:
            yp = make_deformation(F, v_plus + t * w) if two_sided else None
            return evaluate_model(
                config, make_deformation(F, v + t * w), y_plus=yp, node_displacements=nodes + t * w_nodes,
                gradient=False,
            ).energy

        fd = (energy_at(step) - energy_at(-step)) / (2.0 * step)
        denom = max(abs(analytic), abs(fd), 1e-12)
        worst = max(worst, abs(analytic - fd) / denom)
    return worst


# ----------------------------------------------------------------------
# Consistency sweep
# ----------------------------------------------------------------------

@dataclass
class SweepResult:
    """Per-epsilon energy gaps between the exact and Cauchy-Born models and
    the fitted log-log slope (None when undefined)."""

    rows: list[dict]
    slope: float | None
    exact: bool


def _sweep_lines(profile: Callable[[np.ndarray], np.ndarray], cfg: LatticeConfig) -> tuple:
    """The sweep's displacement as three lines, its component c at site l
    being ``lines[c][l_c]``: profile(eps m) at the N_c positions m of axis
    c, less the mean of the field they make. The mean has the bits of
    ``LatticeField.mean`` of that field, each component's running sum in
    site order over the sites, here summed one axis-0 plane at a time, so
    no field is built."""
    N = cfg.N
    lines = [profile(cfg.epsilon * np.arange(n, dtype=float)) for n in N]
    plane = np.empty(N[1] * N[2])
    sums = []
    for c, line in enumerate(lines):
        total = -0.0  # adding -0.0 changes no float, so the first plane's sum is its own
        for values in np.broadcast_to(line.reshape([n if a == c else 1 for a, n in enumerate(N)]), N):
            plane.reshape(N[1:])[...] = values
            plane[0] += total
            total = np.cumsum(plane, out=plane)[-1]
        sums.append(total)
    return tuple(line - m for line, m in zip(lines, np.array(sums) / cfg.n_sites))


def _sweep_energy(model: str, lines: tuple, config: RunConfig, cfg: LatticeConfig) -> EnergyReport:
    """The energy-only report of the atomistic, acb-tetra or acb-cell model
    at the per-axis displacement ``lines`` (``_sweep_lines``) on ``cfg``:
    the model's one term through the kernel, which broadcasts each stencil's
    bond lines into its rows (``energies._bond_lines``). Every bit is that
    of the model called with ``gradient=False`` on the field of the lines."""
    term = _term(model, _lattice_batches(model, config.laws, cfg.N), config.F, lines, cfg.epsilon, ())
    return _report(model, None, [term])


def consistency_sweep(config: RunConfig) -> SweepResult:
    """Atomistic vs Cauchy-Born energy gap per volume for the smooth
    periodic displacement amplitude * sin(2 pi x / L), sampled on the
    lattices of spacings ``sweep.epsilons`` spanning a torus of period
    L = ``sweep.period`` (N = L/eps cells per axis) one axis at a time.
    The displacement is handed to the models as it is defined, one
    mean-free line per axis (``_sweep_lines``), and no field of it is
    built: each model's term forms every stencil's three bond lines once
    and fills its bond rows from them (``_sweep_energy``), with the bits of
    the model on ``make_deformation(F, sample_field(profile, cfg))``.

    The comparison model follows the config when it is an uncoupled
    Cauchy-Born variant and defaults to the cell-averaged one. Both models
    are evaluated energy-only: the sweep reads only their energy and
    excess, so no law is evaluated past phi and no transposed operator is
    applied."""
    amplitude, period = config.sweep["amplitude"], config.sweep["period"]

    def displacement(x: np.ndarray) -> np.ndarray:
        return amplitude * np.sin(2.0 * math.pi * x / period)

    acb = "acb-tetra" if config.model_family == "acb-tetra" else "acb-cell"

    rows = []
    for eps in config.sweep["epsilons"]:
        n = _sweep_cells(period, eps)
        cfg = LatticeConfig(N=(n, n, n), epsilon=eps)
        lines = _sweep_lines(displacement, cfg)
        exact, cb = (_sweep_energy(model, lines, config, cfg) for model in ("atomistic", acb))
        vol = cfg.volume
        # At equal F both models carry the same homogeneous share, so the
        # gap is the difference of the excesses, which keeps the digits that
        # differencing two energies of size |Omega| W(F) loses; energy less
        # excess may differ by rounding alone, in ulps of the larger sum of
        # |breakdown entries| (the laws' shares may cancel in the energy).
        gap = abs(exact.excess - cb.excess) / vol
        scale = max(sum(map(abs, rep.breakdown.values())) for rep in (exact, cb))
        rows.append(
            {
                "epsilon": eps,
                "energy_atomistic": exact.energy,
                "energy_acb": cb.energy,
                "gap": gap,
                "residual": gap / max(1.0, abs(exact.energy) / vol),
                "share_ulps": abs((exact.energy - exact.excess) - (cb.energy - cb.excess)) / math.ulp(scale),
            }
        )
    gaps = [r["gap"] for r in rows]
    if all(g == 0.0 for g in gaps):
        return SweepResult(rows=rows, slope=None, exact=True)
    fit_rows = [(math.log(r["epsilon"]), math.log(r["gap"])) for r in rows if r["gap"] > 0]
    if len(fit_rows) < 3:
        return SweepResult(rows=rows, slope=None, exact=False)
    xs = np.asarray([p[0] for p in fit_rows])
    ys = np.asarray([p[1] for p in fit_rows])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return SweepResult(rows=rows, slope=slope, exact=False)


# ----------------------------------------------------------------------
# Minimization driver
# ----------------------------------------------------------------------

# Curvature pairs kept by the L-BFGS recursion.
LBFGS_MEMORY = 10
# Armijo sufficient-decrease constant and the number of step halvings
# before a search direction is given up.
_ARMIJO_C1 = 1e-4
_MAX_HALVINGS = 40


# Cyclic Jacobi sweeps per 3x3 symbol block: four reach rounding on the
# README symbols and on 20,000 random symmetric blocks; one more is margin.
_JACOBI_SWEEPS = 5
# Share of the symbol's largest |eigenvalue| below which the preconditioner
# raises an |eigenvalue|.
_SYMBOL_FLOOR = 1e-3


def _jacobi(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (..., 3) and eigenvectors (..., 3, 3), in columns, of
    the symmetric 3x3 blocks of H (..., 3, 3), by ``_JACOBI_SWEEPS`` cyclic
    sweeps of Jacobi rotations, each of angle at most pi/4 from ``arctan2``,
    elementwise over the blocks: no BLAS or LAPACK call, so the bits do not
    depend on the BLAS kernel."""
    A = np.moveaxis(H, (-2, -1), (0, 1)).copy()
    V = np.zeros_like(A)
    for i in range(3):
        V[i, i] = 1.0
    for _ in range(_JACOBI_SWEEPS):
        for p, q in ((0, 1), (0, 2), (1, 2)):
            d = A[q, q] - A[p, p]  # the angle t zeroes A[p, q]: tan 2t = 2 A[p, q] / d
            t = 0.5 * np.arctan2(np.where(d < 0.0, -2.0, 2.0) * A[p, q], np.abs(d))
            c, s = np.cos(t), np.sin(t)
            for X in (A, V):
                X[:, p], X[:, q] = c * X[:, p] - s * X[:, q], s * X[:, p] + c * X[:, q]
            A[p], A[q] = c * A[p] - s * A[q], s * A[p] + c * A[q]
    return np.diagonal(A, axis1=0, axis2=1), np.moveaxis(V, (0, 1), (-2, -1))


def _symbol_inverse(config: RunConfig) -> Callable[[np.ndarray], np.ndarray]:
    """The preconditioner of ``minimize``, applied by ``numpy.fft`` to an
    (N1, N2, N3, 3) array: per wavevector, the inverse of |H|, H the
    Fourier symbol of the configured model's Hessian at y_F
    (``energies._hessian_symbol``) with every |eigenvalue| raised to at
    least ``_SYMBOL_FLOOR`` times the largest, and the zero mode dropped,
    so the result has zero mean. The symbol reads the model's own stencil
    batches: the exact bond for atomistic, the cell-averaged bond for
    acb-cell, the six staircase templates for acb-tetra and the coupled
    models, and for the naive control three harmonic axis bonds, whose
    symbol is the lattice Laplacian's. It is built at the first call."""
    cfg, axes = config.cfg, (0, 1, 2)

    @cache
    def columns() -> list[np.ndarray]:
        fam, laws = config.model_family, config.laws
        if fam == "naive":
            fam, laws = "atomistic", InteractionSet(tuple(make_law(e, "harmonic") for e in np.eye(3, dtype=int)))
        batches = _lattice_batches(fam if fam in ("atomistic", "acb-cell") else "acb-tetra", laws, cfg.N)
        lam, V = _jacobi(_hessian_symbol(batches, config.F, cfg.N, cfg.epsilon))
        mu = np.abs(lam)
        mu = np.maximum(mu, _SYMBOL_FLOOR * mu.max())
        mu[0, 0, 0] = np.inf
        W = V / mu[..., None, :]
        # column j of the inverse: sum_k (V_ik / mu_k) V_jk, in k order
        return [W[..., 0] * V[..., j, 0, None] + W[..., 1] * V[..., j, 1, None] + W[..., 2] * V[..., j, 2, None]
                for j in range(3)]

    def apply(g: np.ndarray) -> np.ndarray:
        c0, c1, c2 = columns()
        gh = np.fft.rfftn(g, axes=axes)
        return np.fft.irfftn(c0 * gh[..., :1] + c1 * gh[..., 1:2] + c2 * gh[..., 2:], s=cfg.N, axes=axes)

    return apply


def _lbfgs_direction(g: np.ndarray, pairs, precondition) -> np.ndarray:
    """Two-loop recursion: the L-BFGS inverse-Hessian estimate applied to g,
    from the curvature pairs (s, y, 1 / <s, y>), oldest first, and the
    initial estimate gamma P^-1 with P the preconditioner and
    gamma = <s, y> / <y, P^-1 y> of the newest pair (1 without pairs)."""
    q = g.copy()
    alphas = []
    for s_k, y_k, rho in reversed(pairs):
        alphas.append(rho * _dot(s_k, q))
        q -= alphas[-1] * y_k
    r = precondition(q)
    if pairs:
        _, y_k, rho = pairs[-1]
        r /= rho * _dot(y_k, precondition(y_k))
    for (s_k, y_k, rho), a in zip(pairs, reversed(alphas)):
        r += (a - rho * _dot(y_k, r)) * s_k
    return r


def minimize(config: RunConfig, f: LatticeField | None = None) -> tuple[Deformation, EnergyReport, list[dict]]:
    """Minimize E(y) - <f, v>_eps over zero-mean displacements v by L-BFGS
    (the last ``LBFGS_MEMORY`` curvature pairs) with Armijo backtracking
    from step 1, preconditioned with the configured model's own Hessian at
    y_F (``_symbol_inverse``): per wavevector the inverse of |H|, H the
    3x3 Fourier symbol of the model's stencils (the exact bond, the
    cell-averaged bond, or the six staircase templates for acb-tetra and
    the coupled models; the lattice Laplacian for the naive control), its
    |eigenvalues| floored. The symbol is built at the first direction, so a
    solve that converges at v = 0 builds none.

    The line search compares ``report.excess`` - <f, v>_eps, the objective
    measured from the homogeneous bond, whose differences are not lost in
    the last digits of |Omega| W(F). A trial state that leaves a law's
    domain is a rejected step, and the step is halved. When a direction
    admits no decrease the memory is dropped and the preconditioned
    gradient is tried once more. Every state is evaluated by
    ``evaluate_model``.

    Stops when the scaled gradient max-norm falls to ``solve.g_tol``, at the
    iteration cap ``solve.max_iters``, or when the line search fails.
    report.diagnostics carries "converged", "iterations", "evaluations" and
    "stop_reason" ("converged", "iteration-cap" or "line-search"). The
    trace rows carry (iteration, objective, gnorm, step), the objective
    being the absolute E(y) - <f, v>_eps and step the accepted line-search
    factor."""
    if config.ho_degree:
        raise ConfigError(
            ["solve supports lattice-state models; pick atomistic, acb-tetra, "
             "acb-cell, coupled, coupled-dg or naive"]
        )
    cfg = config.cfg
    if f is None:
        f = LatticeField.zeros(cfg)
    if f.cfg != cfg:
        raise ValueError("force field must live on the config lattice")
    # relative to |f|: zero_mean leaves a rounding residue that grows with it
    if np.max(np.abs(f.mean())) > 1e-10 * max(1.0, f.max_norm()):
        raise ValueError(f"force field must have zero average, got mean {f.mean()}")
    max_iters, g_tol = config.solve["max_iters"], config.solve["g_tol"]
    scale = residual_scale(config)
    precondition = _symbol_inverse(config)
    eps3 = cfg.epsilon**3
    evaluations = 0

    def eval_state(v: np.ndarray):
        """State, report, work <f, v>_eps and gradient of the objective at v."""
        nonlocal evaluations
        evaluations += 1
        y = make_deformation(config.F, LatticeField(cfg, v))
        report = evaluate_model(config, y)
        return y, report, discrete_inner_product(f, y.displacement), report.gradient.values - f.values

    y, report, work, g = eval_state(np.zeros(cfg.shape))
    gnorm = float(np.max(np.abs(g))) / scale
    trace = [{"iteration": 0, "objective": report.energy - work, "gnorm": gnorm, "step": 0.0}]
    pairs: deque = deque(maxlen=LBFGS_MEMORY)
    it = 0
    stop = "converged" if gnorm <= g_tol else None
    while stop is None:
        if it == max_iters:
            stop = "iteration-cap"
            break
        d = -_lbfgs_direction(g, pairs, precondition)
        slope = eps3 * _dot(g, d)
        obj = report.excess - work
        v = y.displacement.values
        step, accepted = 1.0, None
        for _ in range(_MAX_HALVINGS if slope < 0.0 else 0):
            try:
                trial = eval_state(v + step * d)
            except PotentialDomainError:
                trial = None
            if trial is not None and trial[1].excess - trial[2] <= obj + _ARMIJO_C1 * step * slope:
                accepted = trial
                break
            step *= 0.5
        if accepted is None:
            if pairs:
                pairs.clear()
                continue
            stop = "line-search"
            break
        y_new, rep_new, work_new, g_new = accepted
        if rep_new.energy - work_new == report.energy - work and np.array_equal(g_new, g):
            # a step below the float resolution of the state: no progress
            stop = "line-search"
            break
        it += 1
        report, work = rep_new, work_new
        s_k = y_new.displacement.values - v
        y_k = g_new - g
        sy = _dot(s_k, y_k)
        if sy > 0.0:
            pairs.append((s_k, y_k, 1.0 / sy))
        y, g = y_new, g_new
        gnorm = float(np.max(np.abs(g))) / scale
        trace.append({"iteration": it, "objective": report.energy - work, "gnorm": gnorm, "step": step})
        if gnorm <= g_tol:
            stop = "converged"
    report.diagnostics["converged"] = stop == "converged"
    report.diagnostics["iterations"] = it
    report.diagnostics["evaluations"] = evaluations
    report.diagnostics["stop_reason"] = stop
    return y, report, trace


# ----------------------------------------------------------------------
# Verification suites and report emission
# ----------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: Path, columns: Sequence[str], rows: Sequence[Sequence], seed: int) -> None:
    """A ``# seed=`` line, then the header and the rows as CSV: a field
    that holds a comma, like an eta tuple, is quoted."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as f:
        f.write(f"# seed={seed} generator=PCG64\n")
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_fmt(x) for x in row] for row in rows)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    expected_fail: bool = False

    def line(self) -> str:
        if self.expected_fail:
            status = "EXPECTED-FAIL"
        else:
            status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.detail}"


# Nonzero-component masks of the reduced directions: one zero component
# (rectangle form), then two (segment form).
_REDUCED_PATTERNS = ((0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))


def verify_lemma(config: RunConfig, out_dir: Path) -> list[CheckResult]:
    """Random bond-volume lemma residuals (100 draws with every component of
    eta nonzero, 60 over the six zero patterns of the rectangle and segment
    forms) plus the exact-zero affine case. Each residual sums
    |T| grad(I u)|_T eta over the staircase simplices of the geometry
    module's decomposition and compares it with the bond difference; it is
    reported relative to eps^d max|D_eta u|, the size of the identity's left
    side (d nonzero components)."""
    rng = np.random.default_rng(config.seed)
    cfg = config.cfg
    eps = cfg.epsilon
    u = LatticeField(cfg, rng.random(cfg.shape))
    rows = []
    tol = config.tolerances["lemma"]

    def draw_eta(mask=(1, 1, 1)):
        return tuple(int(rng.integers(1, 4)) * int(rng.choice((-1, 1))) if m else 0 for m in mask)

    def draw_ell():
        return tuple(int(rng.integers(0, cfg.N[d])) for d in range(3))

    def relative(case, eta, ell) -> float:
        res = lemma_residual(u, ell, eta)
        d = sum(1 for e in eta if e != 0)
        scale = max(eps**d * float(np.max(np.abs(diff_quotient(u, ell, eta)))), 1e-30)
        rows.append((case, str(eta), str(ell), res, res / scale))
        return res / scale

    worst = 0.0
    for case in range(100):
        worst = max(worst, relative(case, draw_eta(), draw_ell()))
    # affine field with integer coefficients: exactly zero residual
    A = np.array([[2.0, 1.0, -1.0], [0.0, 3.0, 1.0], [1.0, -2.0, 2.0]])
    idx = np.indices(cfg.N).astype(float)
    affine_vals = np.einsum("cd,dxyz->xyzc", A, idx)
    u_affine = LatticeField(cfg, affine_vals)
    affine_worst = 0.0
    for case in range(20):
        eta = draw_eta()
        affine_worst = max(affine_worst, lemma_residual(u_affine, draw_ell(), eta))
    # reduced forms for degenerate directions
    reduced_worst = 0.0
    for i in range(60):
        reduced_worst = max(reduced_worst, relative(100 + i, draw_eta(_REDUCED_PATTERNS[i % 6]), draw_ell()))
    write_csv(out_dir / "lemma.csv", ("case", "eta", "ell", "residual", "relative"), rows, config.seed)
    return [
        CheckResult(
            "lemma-random", worst <= tol,
            f"max relative residual {worst:.3e} (tolerance {tol:.1e}) over 100 draws",
        ),
        CheckResult(
            "lemma-affine-exact", affine_worst == 0.0,
            f"affine integer data residual {affine_worst!r} (must be exactly 0.0)",
        ),
        CheckResult(
            "lemma-reduced", reduced_worst <= tol,
            f"max relative rectangle/segment residual {reduced_worst:.3e} (tolerance {tol:.1e}) "
            f"over 60 draws",
        ),
    ]


def verify_ghost_forces(config: RunConfig, out_dir: Path) -> list[CheckResult]:
    res = ghost_force_residual(config)
    tol = config.ghost_force_tolerance
    write_csv(
        out_dir / "ghost_forces.csv",
        ("model", "residual", "tolerance"),
        [(config.model, res, tol)],
        config.seed,
    )
    if config.model_family == "naive":
        # the control must NOT vanish: it demonstrates test sensitivity, and
        # one that has lost its interface forces is a plain FAIL
        sensitive = res >= 1e-3
        return [
            CheckResult(
                "ghost-forces-naive-control", False,
                f"scaled residual {res:.3e} {'>=' if sensitive else '<'} 1e-3 "
                f"(spurious interface forces are expected for the naive model)",
                expected_fail=sensitive,
            )
        ]
    return [
        CheckResult(
            "ghost-forces", res <= tol,
            f"model {config.model}: scaled residual {res:.3e} (tolerance {tol:.1e})",
        )
    ]


def verify_gradient(config: RunConfig, out_dir: Path) -> list[CheckResult]:
    step = config.tolerances["fd_step"]
    tol = config.gradient_fd_tolerance
    err = fd_gradient_check(config)
    write_csv(
        out_dir / "gradient_fd.csv",
        ("model", "trials", "step", "max_relative_error", "tolerance"),
        [(config.model, _FD_TRIALS, step, err, tol)],
        config.seed,
    )
    return [
        CheckResult(
            "gradient-fd", err <= tol,
            f"model {config.model}: max relative FD error {err:.3e} "
            f"(h={step:g}, tolerance {tol:.1e})",
        )
    ]


def verify_coverings(config: RunConfig, out_dir: Path) -> list[CheckResult]:
    """Each nondegenerate direction's coverings tile the torus exactly."""
    cfg = config.cfg
    results = []
    rows = []
    for law in config.laws:
        eta = law.eta
        n_eta = abs(eta[0] * eta[1] * eta[2])
        try:
            covs = enumerate_coverings(nondegenerate_eta(eta), cfg)
        except DegenerateEta:
            rows.append((str(eta), "degenerate", 0, 0))
            continue
        except CoveringMismatch as exc:
            rows.append((str(eta), "mismatch", 0, n_eta))
            results.append(CheckResult(f"coverings-{eta}", False, str(exc)))
            continue
        ok = len(covs) == n_eta
        # member cells: base sites plus the offsets of a |eta_0|x|eta_1|x|eta_2| box
        cells = np.concatenate([cov.base_sites for cov in covs])[:, None, :] + \
            np.indices(np.abs(eta)).reshape(3, -1).T
        tile_counts = np.bincount(
            np.ravel_multi_index(np.moveaxis(cells, -1, 0), cfg.N, mode="wrap").ravel(),
            minlength=cfg.n_sites,
        )
        # every covering tiles once: total count per cell == number of coverings
        ok = ok and bool(np.all(tile_counts == n_eta))
        rows.append((str(eta), "ok" if ok else "broken", len(covs), n_eta))
        results.append(
            CheckResult(
                f"coverings-{eta}", ok,
                f"{len(covs)} coverings of {n_eta} expected; each tiles the torus once",
            )
        )
    write_csv(out_dir / "coverings.csv", ("eta", "status", "count", "expected"), rows, config.seed)
    if not results:
        results.append(
            CheckResult("coverings", True, "no nondegenerate directions to check")
        )
    return results


_SHARE_ULPS = 16


def sweep_consistency(config: RunConfig, out_dir: Path) -> list[CheckResult]:
    """The gap's fitted slope, once both models carry the same homogeneous
    share at every spacing: their energies less excesses may differ by at
    most ``_SHARE_ULPS`` ulps of the larger sum of |breakdown entries|
    (rounding)."""
    result = consistency_sweep(config)
    rows = [
        (r["epsilon"], r["energy_atomistic"], r["energy_acb"], r["gap"], r["residual"])
        for r in result.rows
    ]
    write_csv(
        out_dir / "sweep.csv",
        ("epsilon", "energy_atomistic", "energy_acb", "gap", "residual"),
        rows,
        config.seed,
    )
    floor = config.tolerances["sweep_slope"]
    for r in result.rows:
        if r["share_ulps"] > _SHARE_ULPS:
            return [CheckResult("sweep-consistency", False, f"homogeneous shares differ by {r['share_ulps']:.3g} "
                                f"ulps at epsilon {r['epsilon']!r} (bound {_SHARE_ULPS})")]
    if result.exact:
        return [CheckResult("sweep-consistency", True, "all gaps exactly zero (slope exact)")]
    if result.slope is None:
        return [CheckResult("sweep-consistency", False, "not enough nonzero gaps to fit a slope")]
    return [
        CheckResult(
            "sweep-consistency", result.slope >= floor,
            f"fitted log-log slope {result.slope:.4f} (floor {floor})",
        )
    ]


def solve_command(config: RunConfig, out_dir: Path) -> list[CheckResult]:
    cfg = config.cfg
    amp = config.solve["force_amplitude"]
    if amp != 0.0:
        def force_fn(x: np.ndarray) -> np.ndarray:
            return amp * np.sin(2.0 * math.pi * np.stack([x[1], x[2], x[0]]))

        f = sample_field(force_fn, cfg).zero_mean()
    else:
        f = LatticeField.zeros(cfg)
    _, report, trace = minimize(config, f)
    write_csv(
        out_dir / "solve_trace.csv",
        ("iteration", "objective", "gnorm", "step"),
        [(r["iteration"], r["objective"], r["gnorm"], r["step"]) for r in trace],
        config.seed,
    )
    diag = report.diagnostics
    final = trace[-1]
    return [
        CheckResult(
            "solve", diag["converged"],
            f"stopped ({diag['stop_reason']}) at iteration {final['iteration']} after "
            f"{diag['evaluations']} evaluations, objective {final['objective']!r}, "
            f"scaled gnorm {final['gnorm']:.3e} (tol {config.solve['g_tol'] :g})",
        )
    ]


COMMANDS = {
    "verify-lemma": verify_lemma,
    "verify-ghost-forces": verify_ghost_forces,
    "verify-gradient": verify_gradient,
    "verify-coverings": verify_coverings,
    "sweep-consistency": sweep_consistency,
    "solve": solve_command,
}


def run(command: str, config: RunConfig) -> int:
    """Execute one verification command: write CSV reports and a PASS/FAIL
    summary into ``config.out`` (default bvcouple_reports), made when the
    first report is written, so a command that refuses its config leaves no
    directory behind; print the summary and return the exit code (0 all
    passed, 1 a check failed, 2 bad usage)."""
    if command not in COMMANDS:
        print(f"unknown command {command!r}; expected one of {sorted(COMMANDS)}")
        return 2
    out = Path(config.out or "bvcouple_reports")
    results = COMMANDS[command](config, out)
    lines = [result.line() for result in results]
    summary = "\n".join(lines) + "\n"
    out.mkdir(parents=True, exist_ok=True)
    (out / "summary.txt").write_text(summary)
    print(summary, end="")
    return 0 if all(r.passed and not r.expected_fail for r in results) else 1

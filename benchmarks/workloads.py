"""The benchmark workloads, their output checks and their metrics.

Every workload is closed-loop with one client: the next operation starts
only after the previous one returned, and CLI commands run one at a time,
each in its own child process. The package is driven from outside through
its public names only.

``coupled-n36`` and ``highorder-p3-n12`` build the model cold at a few
seeded region placements and time warm energy+gradient calls at seeded
states for the measured seconds, at least MIN_WARM_SAMPLES of them. Between
the warm calls, for about the measured seconds again, they run the short
CLI commands in turn on the README lattice (with a three-spacing sweep and
an unforced solve), so that every end-to-end metric exists on every
workload; each command is reported as the median of its runs.
``cli-readme`` runs the six documented commands on the README's complete
example config, verbatim, and times warm calls of that config's model in
process for a third of the measured seconds.

Every time in the end-to-end metrics is a wall time scaled to a reference
host speed (see ``speed``); the notes give each raw wall time beside it.
CLI commands run through ``launcher.py``, which imports bvcouple.cli once
(per placement on the evaluation workloads, per run on ``cli-readme``) and
forks a process per command, in which it times and scales the command.
"""
from __future__ import annotations

import copy
import functools
import hashlib
import itertools
import json
import os
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import bvcouple as bv
from speed import bracketed, reference_time, scaled
from tracing import Tracer, layer_of, layer_totals, self_times

BENCH_DIR = Path(__file__).resolve().parent

# The "complete example" of the README's configuration section, verbatim.
README_CONFIG = {
    "lattice": {"N": [12, 12, 12], "epsilon": 0.08333333333333333},
    "interactions": [
        {"eta": [1, 1, 1], "kind": "harmonic"},
        {"eta": [2, 1, 3], "kind": "lennard-jones-radial",
         "params": {"well_depth": 0.5, "sigma": 2.494438257849294}},
        {"eta": [1, -1, 2], "kind": "anisotropic-toy"},
    ],
    "region": {"corner": [4, 4, 4], "extents": [4, 4, 4]},
    "model": "coupled",
    "seed": 20240817,
    "deterministic": False,
    "degenerate_eta": "reject",
    "tolerances": {
        "ghost_force": 1e-12,
        "gradient_fd": 1e-6,
        "fd_step": 1e-5,
        "g_tol": 1e-8,
        "sweep_slope": 1.9,
        "lemma": 1e-13,
    },
    "sweep": {"epsilons": [0.25, 0.125, 0.0625, 0.03125],
              "amplitude": 0.05, "period": 4.0},
    "solve": {"max_iters": 200, "g_tol": 1e-8, "force_amplitude": 0.01},
}

# The short session of the evaluation workloads: the README config with a
# three-spacing sweep (N = 8, 16, 32) and an unforced solve, which must stop
# at iteration 0 because homogeneous states carry no ghost forces.
SHORT_CLI_CONFIG = copy.deepcopy(README_CONFIG)
SHORT_CLI_CONFIG["sweep"]["epsilons"] = [0.5, 0.25, 0.125]
SHORT_CLI_CONFIG["solve"]["force_amplitude"] = 0.0

CLI_COMMANDS = (
    ("verify_lemma", ("verify", "lemma")),
    ("verify_coverings", ("verify", "coverings")),
    ("verify_ghost_forces", ("verify", "ghost-forces")),
    ("verify_gradient", ("verify", "gradient")),
    ("sweep_consistency", ("sweep", "consistency")),
    ("solve", ("solve",)),
)
CLI_TIMEOUT_S = 120.0
# Enough warm calls for a tail percentile at about a second per call
# (highorder-p3-n12: p33); more would not fit the run time of the benchmark.
MIN_WARM_SAMPLES = 15
# Fresh-process imports of bvcouple.cli on cli-readme, one after each of
# the first commands.
IMPORT_LAUNCHES = 5
# The evaluation workloads run the short CLI commands in turn: the four
# verify commands once, then the sweep and the solve SHORT_REPEATS times
# each, since a sub-second command needs many runs for a steady median.
SHORT_REPEATS = 3
STATE_AMPLITUDE = 0.02


class Run:
    """What one benchmark run attempted, what failed, and what it measured."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, root: Path, workdir: Path,
                 out_dir: Path, source_sha256: str):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.source_sha256 = source_sha256
        self.root = root
        self.workdir = workdir
        self.out_dir = out_dir
        self.tracer = Tracer() if trace else None
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.counts: dict[str, int] = {}
        self.digests: dict[str, str] = {}
        self.other_sources: dict[str, dict[str, list[str]]] = {}
        self.configs: dict[str, dict] = {}
        self.cli_spans: list[tuple[str, list]] = []  # of the first run of each command
        self.cli_import_s: list[float] = []
        self.cli_runs = 0
        self.dg_s = 0.0
        self.solve_gnorm = 0.0

    def note(self, line: str) -> None:
        self.notes.append(line)

    def op(self, ok: bool, what: str, output_check: bool = False) -> bool:
        """Count one operation; an output check that fails also makes the
        run incorrect."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.note(f"FAILED {what}")
            if output_check:
                self.correct = False
        return ok

    def guarded(self, what: str, fn, *args, **kwargs):
        """Call fn; an exception counts as a failed operation and gives None."""
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a raising call is a failed operation, not a crash
            self.op(False, f"{what}: {type(exc).__name__}: {exc}")
            return None

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def mark(self) -> int:
        return len(self.tracer.spans) if self.tracer else 0

    def spans(self, start: int, stop: int | None = None) -> list[list]:
        return self.tracer.spans[start:stop] if self.tracer else []


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------

def model_config(N: int, side: int, corner, model: str, F, seed: int) -> dict:
    return {
        "lattice": {"N": [N, N, N], "epsilon": 1.0 / N},
        "interactions": copy.deepcopy(README_CONFIG["interactions"]),
        "F": np.asarray(F).tolist(),
        "region": {"corner": list(corner), "extents": [side, side, side]},
        "model": model,
        "seed": seed,
    }


def seeded_corners(rng: np.random.Generator, N: int, side: int, count: int) -> list[tuple[int, int, int]]:
    """Distinct region corners that keep the clearance the laws need."""
    etas = [tuple(law["eta"]) for law in README_CONFIG["interactions"]]
    lo = bv.required_clearance(etas)
    hi = N - lo - side
    corners: list[tuple[int, int, int]] = []
    while len(corners) < count:
        c = tuple(int(x) for x in rng.integers(lo, hi + 1, size=3))
        if c not in corners:
            corners.append(c)
    return corners


def seeded_F(rng: np.random.Generator) -> np.ndarray:
    return np.eye(3) + STATE_AMPLITUDE * rng.standard_normal((3, 3))


def seeded_state(rng: np.random.Generator, cfg, n_free: int):
    F = seeded_F(rng)
    amp = STATE_AMPLITUDE * cfg.epsilon
    v = bv.LatticeField(cfg, amp * rng.standard_normal(cfg.shape)).zero_mean()
    nodes = amp * rng.standard_normal((n_free, 3)) if n_free else None
    return bv.make_deformation(F, v), nodes


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------

def member_counts(report) -> dict[str, int]:
    out = {"members_atomistic": 0, "members_interface": 0, "members_continuum": 0}
    for per_class in report.diagnostics.get("counts", {}).values():
        for cls, n in per_class.items():
            out[f"members_{cls}"] += int(n)
    for key in ("n_elements", "n_p1_elements", "n_free_nodes"):
        if key in report.diagnostics:
            out[key] = int(report.diagnostics[key])
    return out


def check_homogeneous(run: Run, config, report, where: str) -> None:
    """Exact homogeneous energy and the scaled ghost-force residual."""
    expect = config.cfg.volume * bv.cb_energy_density(config.laws, config.F)
    rel = abs(report.energy - expect) / abs(expect)
    run.op(rel <= 1e-12, f"{where}: homogeneous energy off by {rel:.3e} relative (limit 1e-12)", True)
    gmax = report.gradient.max_norm()
    node_grad = report.diagnostics.get("node_gradient")
    if node_grad is not None and node_grad.size:
        gmax = max(gmax, float(np.max(np.abs(node_grad))))
    res = gmax / bv.harness.residual_scale(config)
    tol = config.ghost_force_tolerance
    run.op(res <= tol, f"{where}: scaled ghost-force residual {res:.3e} (limit {tol:.0e})", True)


def same_report(a, b) -> bool:
    """Bitwise equal energy, gradient and free-node gradient."""
    if a.energy != b.energy or not np.array_equal(a.gradient.values, b.gradient.values):
        return False
    na, nb = a.diagnostics.get("node_gradient"), b.diagnostics.get("node_gradient")
    return (na is None) == (nb is None) and (na is None or np.array_equal(na, nb))


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its
    value; the workloads take at least MIN_WARM_SAMPLES samples."""
    s = sorted(samples)
    n = len(s)
    return 100.0 * (n - 10) / n, s[n - 11]


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# In-process evaluation
# ----------------------------------------------------------------------

class Warm:
    """Warm-call samples gathered over the chunks of one run."""

    def __init__(self) -> None:
        self.plain: list[float] = []  # scaled, untraced
        self.plain_wall: list[float] = []
        self.traced: list[float] = []  # scaled
        self.atom: list[float] = []
        self.traced_spans: list[list] = []
        self.first = None
        self.calls = 0


def tracing(run: Run, on: bool) -> None:
    if run.tracer is not None:
        (run.tracer.install if on else run.tracer.uninstall)()


def cold_call(run: Run, config, where: str, cold_spans: list) -> float | None:
    """First energy+gradient call at a fresh placement, at its homogeneous
    state, with the homogeneous-state checks and the member counts, which
    must not depend on the placement. Returns its scaled time, or None if
    it raised."""
    y = bv.make_deformation(config.F, bv.LatticeField.zeros(config.cfg))
    tracing(run, True)
    mark = run.mark()
    report, dt, took = bracketed(run.guarded, f"cold call at {where}", bv.evaluate_model, config, y)
    cold_spans.append(run.spans(mark))
    if report is None:
        return None
    run.op(True, "cold call")
    check_homogeneous(run, config, report, where)
    counts = member_counts(report)
    first = {k: run.counts.setdefault(k, v) for k, v in counts.items()}
    run.op(counts == first, f"{where}: counts {counts} differ from {first}", True)
    run.note(f"cold call at {where}: {dt:.3f} s wall, {took:.3f} s scaled")
    return took


def warm_chunk(run: Run, rng, config, seconds: float, warm: Warm, min_calls: int = 1, between=None,
               share: float = 1.0) -> None:
    """Warm energy+gradient calls at seeded states for ``seconds`` and at
    least ``min_calls`` calls, each followed by the atomistic yardstick;
    one operation, failed if any call raised. After each call,
    ``between``, if given, is called until it has taken, by the wall times
    it returns, ``share`` times as long as the calls so far; so its samples
    spread over the chunk like the calls' own. In a traced run every other
    call is untraced, which gives the tracing overhead; so it makes twice
    the calls and halves the share."""
    n_free = run.counts.get("n_free_nodes", 0)
    if run.tracer is not None:
        min_calls *= 2  # only every other call gives an untraced sample
        share /= 2
    warm_s = between_s = 0.0
    errors = []
    for call in itertools.count(1):
        t_call = time.perf_counter()
        y, nodes = seeded_state(rng, config.cfg, n_free)
        on = run.tracer is not None and warm.calls % 2 == 1
        warm.calls += 1
        tracing(run, on)
        mark = run.mark()
        try:
            report, dt, took = bracketed(bv.evaluate_model, config, y, node_displacements=nodes)
            stop = run.mark()
            t0 = time.perf_counter()
            bv.atomistic_energy(y, config.laws)
            da = time.perf_counter() - t0
        except Exception as exc:  # a raising call fails the chunk, not the run
            errors.append(f"{type(exc).__name__}: {exc}")
        else:
            (warm.traced if on else warm.plain).append(took)
            if on:
                warm.traced_spans.append(run.spans(mark, stop))
            else:
                warm.plain_wall.append(dt)
            warm.atom.append(da)
            if warm.first is None:
                warm.first = (config, y, nodes, report)
        finally:
            tracing(run, False)
        warm_s += time.perf_counter() - t_call
        while between is not None and between_s < share * warm_s:
            between_s += between()
        if call >= min_calls and warm_s >= seconds:
            break
    run.op(not errors, f"warm chunk: {len(errors)} calls raised, the first {errors[:1]}")


def model_checks(run: Run, first) -> None:
    """Repeatability of the first warm state, and the two-sided model on
    tied data against the conforming one."""
    config, y, nodes, report = first
    tracing(run, True)
    again = run.guarded("re-evaluation", bv.evaluate_model, config, y, node_displacements=nodes)
    if again is not None:
        run.op(same_report(report, again), "re-evaluating the first warm state is not bitwise equal", True)
    mark = run.mark()
    t0 = time.perf_counter()
    dg = run.guarded("two-sided call", bv.coupled_energy_dg, y, y, config.laws, config.region, config.degenerate_eta)
    dg_s = time.perf_counter() - t0
    run.dg_s = top_span_s(run.spans(mark), dg_s)
    conf = run.guarded("conforming call", bv.coupled_energy_conforming, y, config.laws, config.region,
                       config.degenerate_eta)
    tracing(run, False)
    if dg is not None and conf is not None:
        ok = dg.energy == conf.energy and np.array_equal(dg.gradient.values, conf.gradient.values)
        run.op(ok, "coupled_energy_dg(y, y) is not bitwise equal to coupled_energy_conforming(y)", True)


def top_span_s(spans: list[list], fallback: float) -> float:
    return spans[0][4] - spans[0][3] if spans else fallback


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def child_env(run: Run) -> dict:
    env = dict(os.environ)
    src = str(run.root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Launcher:
    """A ``launcher.py`` process, which imports bvcouple.cli once and then
    forks one process per command; ``import_s`` is the time it took to
    start and import, scaled by the kernel's times right before and after
    it. Samples of the kernel in a process that is still importing vary far
    more than the import itself, so none are taken there. Leaving the
    ``with`` block ends it, and on a timeout every process it started."""

    def __init__(self, run: Run, trace: bool):
        argv = [sys.executable, str(BENCH_DIR / "launcher.py"), str(int(trace))]
        before = reference_time()
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv, cwd=run.root, env=child_env(run), stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, start_new_session=True)
        imported = self._reply()
        self.wall_s = time.perf_counter() - t0
        self.import_s = scaled(self.wall_s, before, [], reference_time())
        run.cli_import_s.append(imported["import_s"])

    def __enter__(self) -> Launcher:
        return self

    def __exit__(self, *exc) -> None:
        self.close(kill=exc[0] is not None)

    def _reply(self) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], CLI_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.close(kill=True)
            raise RuntimeError(f"the CLI launcher gave no reply within {CLI_TIMEOUT_S:.0f} s")
        return json.loads(line)

    def command(self, args, log: Path, result: Path) -> tuple[int, dict]:
        """Run one command in a new process; its exit code and what it wrote
        to ``result`` (empty if nothing)."""
        self.proc.stdin.write(json.dumps({"args": list(args), "log": str(log), "result": str(result)}) + "\n")
        self.proc.stdin.flush()
        code = self._reply()["exit_code"]
        return code, json.loads(result.read_text()) if result.exists() else {}

    def close(self, kill: bool = False) -> None:
        if not kill and self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=CLI_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                kill = True
        if kill and self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait()


def import_launch(run: Run, setup: list) -> None:
    """Time of a fresh process that starts and imports bvcouple.cli."""
    with Launcher(run, False) as fresh:
        run.note(f"import launch: {fresh.wall_s:.3f} s wall, {fresh.import_s:.3f} s scaled")
        setup.append(fresh.import_s)
    run.op(fresh.proc.returncode == 0, f"import launch exited {fresh.proc.returncode}")


def cli_command(run: Run, launcher: Launcher, name: str, args, cfg_path: Path, walls: dict) -> float:
    """One documented command in its own process; it is expected to exit 0
    and, when repeated, to write the same reports byte for byte. The time of
    the command itself, from the call of ``bvcouple.cli.main`` to its
    return, scaled in its process, is appended to ``walls[name]`` (if the
    process wrote nothing, the wall time the parent waited for it): process
    start and import would make up most of a sub-second command and vary
    with the host beyond what the kernel follows, and setup_s covers them.
    Returns the wall time the parent waited for the command."""
    stem = run.workdir / f"{run.cli_runs}-{name}"
    run.cli_runs += 1
    log, result = stem.with_suffix(".log"), stem.with_suffix(".json")
    t0 = time.perf_counter()
    code, child = launcher.command([*args, "--config", str(cfg_path), "--out", str(stem)], log, result)
    waited = time.perf_counter() - t0
    first = name not in walls
    took = child.get("command_scaled_s", waited)
    walls.setdefault(name, []).append(took)
    run.note(f"cli {name}: {child.get('command_s', waited):.3f} s wall, {took:.3f} s scaled")
    ok = run.op(code == 0, f"cli {' '.join(args)} exited {code} (expected 0)")
    if first or not ok:
        for line in (log.read_text() if log.exists() else "").strip().splitlines():
            run.note(f"  {name}: {line}")
    digests = {f"{name}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(stem.glob("*.csv")) + sorted(stem.glob("summary.txt"))}
    if any(key in run.digests for key in digests):
        same = all(run.digests.get(key) == digest for key, digest in digests.items())
        run.op(same, f"cli {' '.join(args)}: reports differ between launches", True)
    run.digests.update(digests)
    if run.tracer is not None and first:
        run.cli_spans.append((name, child.get("spans", [])))
    trace_csv = stem / "solve_trace.csv"
    if trace_csv.exists():
        rows = [line.split(",") for line in trace_csv.read_text().splitlines()[2:] if line]
        if rows:
            run.counts["solve_iters"] = int(rows[-1][0])
            run.solve_gnorm = float(rows[-1][2])
    return waited


def write_config(run: Run, data: dict) -> Path:
    run.configs["cli"] = data
    path = run.workdir / "config.json"
    path.write_text(json.dumps(data, indent=2))
    return path


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
# Measurements are interleaved over the whole run, so that each metric's
# samples see the same spread of machine load rather than one stretch of it.

def evaluation_workload(run: Run, *, N: int, side: int, model: str, placements: int, cli_share: float) -> None:
    """Per placement a cold call, then warm calls that alternate with the
    short CLI commands, in turn, for ``cli_share`` times as long as the warm
    calls take; then the checks. Each placement has its own launcher, so
    the commands of a run do not all share one process's memory layout."""
    rng = np.random.default_rng(run.seed)
    cfg_path = write_config(run, SHORT_CLI_CONFIG)
    cold, cold_spans, warm = [], [], Warm()
    walls: dict[str, list[float]] = {}
    short_commands = CLI_COMMANDS[:4] + CLI_COMMANDS[4:] * SHORT_REPEATS
    rotation = itertools.cycle(short_commands)

    def short_cli(launcher: Launcher) -> float:
        return cli_command(run, launcher, *next(rotation), cfg_path, walls)

    for corner in seeded_corners(rng, N, side, placements):
        data = model_config(N, side, corner, model, seeded_F(rng), run.seed)
        run.configs[f"placement{corner}"] = data
        config = bv.config_from_dict(data)
        dt = cold_call(run, config, f"corner {corner}", cold_spans)
        if dt is not None:
            cold.append(dt)
        with Launcher(run, run.tracer is not None) as launcher:
            warm_chunk(run, rng, config, run.seconds / placements, warm, -(-MIN_WARM_SAMPLES // placements),
                       between=functools.partial(short_cli, launcher), share=cli_share)
            for _ in short_commands:  # a run too short for a whole round finishes it
                if len(walls) == len(CLI_COMMANDS):
                    break
                short_cli(launcher)
    if warm.first is not None:
        model_checks(run, warm.first)
    finish(run, setup=cold, warm=warm, peak=peak_rss_mb(resource.RUSAGE_SELF), walls=walls,
           cold_spans=cold_spans)


def cli_workload(run: Run) -> None:
    """A cold call of the README model, then per documented command: the
    command, for the first IMPORT_LAUNCHES commands a fresh-process import,
    and a warm chunk of the README model."""
    rng = np.random.default_rng(run.seed)
    config = bv.config_from_dict(README_CONFIG)
    cfg_path = write_config(run, README_CONFIG)
    setup, cold_spans, warm = [], [], Warm()
    cold_call(run, config, "README config", cold_spans)
    walls: dict[str, list[float]] = {}
    with Launcher(run, run.tracer is not None) as launcher:
        for i, (name, args) in enumerate(CLI_COMMANDS):
            cli_command(run, launcher, name, args, cfg_path, walls)
            if i < IMPORT_LAUNCHES:
                import_launch(run, setup)
            warm_chunk(run, rng, config, run.seconds / 3 / len(CLI_COMMANDS), warm,
                       -(-MIN_WARM_SAMPLES // len(CLI_COMMANDS)))
    if warm.first is not None:
        model_checks(run, warm.first)
    finish(run, setup=setup, warm=warm, peak=peak_rss_mb(resource.RUSAGE_CHILDREN), walls=walls,
           cold_spans=cold_spans)


WORKLOADS = {
    # The shares give both about the measured seconds of CLI commands: the
    # warm calls of highorder-p3-n12 take longer, MIN_WARM_SAMPLES of about
    # a second each.
    "coupled-n36": lambda run: evaluation_workload(run, N=36, side=12, model="coupled", placements=3,
                                                   cli_share=1.0),
    "highorder-p3-n12": lambda run: evaluation_workload(run, N=12, side=4, model="coupled-ho(3)", placements=3,
                                                        cli_share=0.6),
    "cli-readme": cli_workload,
}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def finish(run: Run, *, setup, warm, peak, walls, cold_spans) -> None:
    samples = warm.plain
    pct, tail_s = tail(samples)
    p50_wall, (_, tail_wall) = statistics.median(warm.plain_wall), tail(warm.plain_wall)
    run.note(f"warm calls: {len(samples)} untraced samples; eval_ms_tail is p{pct:.1f}; scaled p50 "
             f"{statistics.median(samples) * 1e3:.3f} ms, tail {tail_s * 1e3:.3f} ms; wall p50 "
             f"{p50_wall * 1e3:.3f} ms, tail {tail_wall * 1e3:.3f} ms")
    atom_ms = statistics.median(warm.atom) * 1e3
    run.note(f"atomistic yardstick: p50 {atom_ms:.3f} ms wall; model/yardstick {p50_wall * 1e3 / atom_ms:.1f}x")
    run.metric("setup_s", statistics.median(setup), "s")
    run.metric("eval_ms_p50", statistics.median(samples) * 1e3, "ms")
    run.metric("eval_ms_tail", tail_s * 1e3, "ms")
    run.metric("peak_rss_mb", peak, "MB")
    wall = {name: statistics.median(times) for name, times in walls.items()}
    run.metric("cli_verify_s", sum(t for name, t in wall.items() if name.startswith("verify_")), "s")
    run.metric("cli_sweep_s", wall["sweep_consistency"], "s")
    run.metric("cli_solve_s", wall["solve"], "s")
    if run.tracer is not None:
        for name, (value, unit) in run.metrics.items():
            run.note(f"traced {name} = {value:.6g} {unit}")
        run.metrics = {}
        layer_metrics(run, warm, cold_spans)
    check_repeats(run)
    if run.tracer is None:
        run.metric("ok_frac", (run.attempted - run.failed) / run.attempted, "fraction")


def check_repeats(run: Run) -> None:
    """Counts and report digests must repeat exactly across runs of one
    seed on the same sources; the first such run records them. Records of
    other sources, whose reports a change to the program may rightly
    change, are only compared for the manifest, in ``run.other_sources``."""
    run.out_dir.mkdir(exist_ok=True)
    prefix = f"{run.workload}-seed{run.seed}-"
    path = run.out_dir / f"{prefix}{run.source_sha256[:16]}.json"
    before = json.loads(path.read_text()) if path.exists() else {}
    now = {"counts": run.counts, "report_sha256": run.digests}
    for section, new in now.items():
        old = before.get(section, {})
        changed = sorted(k for k in old.keys() & new.keys() if old[k] != new[k])
        run.op(not changed, f"{section} differ from an earlier run of this seed and these sources: {changed}",
               True)
        now[section] = {**old, **new}
    now["source_sha256"] = run.source_sha256
    path.write_text(json.dumps(now, indent=1, sort_keys=True))
    for other in sorted(run.out_dir.glob(f"{prefix}*.json")):
        if other == path:
            continue
        record = json.loads(other.read_text())
        run.other_sources[record["source_sha256"]] = {
            section: sorted(k for k in record[section].keys() & now[section].keys()
                            if record[section][k] != now[section][k])
            for section in ("counts", "report_sha256")}


def layer_metrics(run: Run, warm, cold_spans) -> None:
    """Per-layer figures from the spans of this process and of the first run
    of each CLI command; later runs of a command repeat its work, and how
    many there are depends on the time they take."""
    spans_by_process = [run.tracer.spans] + [spans for _, spans in run.cli_spans]
    totals: dict[str, dict] = {}
    for spans in spans_by_process:
        for layer, entry in layer_totals(spans).items():
            acc = totals.setdefault(layer, {"self_s": 0.0, "rows": 0})
            acc["self_s"] += entry["self_s"]
            acc["rows"] += entry["rows"]
    traced = warm.traced_spans
    warm_rows = {sum(s[5] for s in spans if layer_of(s[2]) == "potentials") for spans in traced}
    run.op(len(warm_rows) <= 1, f"potentials rows differ between warm calls: {sorted(warm_rows)}", True)
    run.counts["potentials.rows"] = warm_rows.pop() if warm_rows else 0
    run.counts["potentials.cli_rows"] = sum(s[5] for _, spans in run.cli_spans for s in spans
                                            if layer_of(s[2]) == "potentials")
    pot = totals.get("potentials", {"self_s": 0.0, "rows": 0})
    run.metric("potentials.rows", run.counts["potentials.rows"], "count")
    run.metric("potentials.cli_rows", run.counts["potentials.cli_rows"], "count")
    run.metric("potentials.self_s", pot["self_s"], "s")
    run.metric("potentials.rows_per_s", pot["rows"] / pot["self_s"] if pot["self_s"] else 0.0, "1/s")

    warm_top = statistics.median(top_span_s(s, 0.0) for s in traced) if traced else 0.0
    mesh = [sum(s[4] - s[3] for s in spans if s[2] == "highorder.build_high_order_mesh") for spans in cold_spans]
    cold = [top_span_s(spans, 0.0) - m for spans, m in zip(cold_spans, mesh)]
    run.metric("coupling.setup_s", statistics.median(cold) - warm_top if cold else 0.0, "s")
    run.metric("coupling.self_s", totals.get("coupling", {}).get("self_s", 0.0), "s")
    run.metric("coupling.dg_ms", run.dg_s * 1e3, "ms")
    for cls in ("atomistic", "interface", "continuum"):
        run.metric(f"coupling.members_{cls}", run.counts.get(f"members_{cls}", 0), "count")

    run.metric("highorder.mesh_build_s", statistics.median(mesh) if mesh else 0.0, "s")
    run.metric("highorder.self_s", totals.get("highorder", {}).get("self_s", 0.0), "s")
    for key in ("n_elements", "n_p1_elements", "n_free_nodes"):
        run.metric(f"highorder.{key}", run.counts.get(key, 0), "count")

    atom = [s[4] - s[3] for s in run.tracer.spans if s[2] == "energies.atomistic_energy"]
    run.metric("energies.atomistic_ms", statistics.median(atom) * 1e3 if atom else 0.0, "ms")
    run.metric("energies.self_s", totals.get("energies", {}).get("self_s", 0.0), "s")

    sample = [s for spans in spans_by_process for s in spans if s[2] == "lattice.sample_field"]
    run.counts["lattice.sample_field_sites"] = sum(s[5] for s in sample)
    run.metric("lattice.sample_field_s", sum(s[4] - s[3] for s in sample), "s")
    run.metric("lattice.sample_field_sites", run.counts["lattice.sample_field_sites"], "count")
    run.metric("geometry.self_s", totals.get("geometry", {}).get("self_s", 0.0), "s")

    solve_spans = dict(run.cli_spans).get("solve", [])
    minimize_self = sum(own for s, own in zip(solve_spans, self_times(solve_spans)) if s[2] == "harness.minimize")
    run.counts["solve_evals"] = sum(1 for s in solve_spans if s[2] == "harness.evaluate_model")
    run.metric("harness.solve_iters", run.counts.get("solve_iters", 0), "count")
    run.metric("harness.solve_evals", run.counts["solve_evals"], "count")
    run.metric("harness.solve_gnorm", run.solve_gnorm, "1")
    run.metric("harness.minimize.self_s", minimize_self, "s")

    run.metric("cli.import_s", statistics.median(run.cli_import_s) if run.cli_import_s else 0.0, "s")
    child_spans = dict(run.cli_spans)
    for name, _ in CLI_COMMANDS:
        main = [s[4] - s[3] for s in child_spans.get(name, []) if s[2] == "cli.main"]
        run.metric(f"cli.{name}_s", main[0] if main else 0.0, "s")

    overhead = (statistics.median(warm.traced) - statistics.median(warm.plain)) * 1e3 if warm.traced else 0.0
    run.note(f"tracing overhead on eval_ms_p50: {overhead:.3f} ms "
             f"({len(warm.traced)} traced vs {len(warm.plain)} untraced warm calls)")
    run.metric("trace.overhead_eval_ms", overhead, "ms")

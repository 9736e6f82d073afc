"""bvcouple benchmark: one workload per invocation.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload coupled-n36 --seed 1 --seconds 10 --trace 0

Prints notes, a run manifest and every metric with its unit, then, as the
last line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` reports the per-layer metrics from spans around the public
functions of each module, in this process and in the CLI children. The
end-to-end times are wall times scaled to a reference host speed by a
fixed kernel timed around each operation and, but for process start and
import, during it (``speed``); the notes print each raw wall time beside
its scaled one.

Counts and the sha256 digests of the CLI reports are kept per workload,
seed and digest of the sources (``src/`` and this benchmark) in
``.perfbench_out/``; a later run with the same seed on the same sources
must repeat them exactly, else it fails. Records of other sources are only
compared, in the manifest's ``other_sources``: for each source digest, the
counts and reports that differ. A traced run also writes its spans there.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
RUN_DIR = ROOT / ".perfbench_runs"
WORKLOAD_NAMES = ("coupled-n36", "highorder-p3-n12", "cli-readme")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout's own repository; None outside one."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def digest_json(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def sources_sha256() -> str:
    """Digest of the program's and the benchmark's own Python sources."""
    sources = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *Path(__file__).parent.glob("*.py")]):
        sources.update(path.relative_to(ROOT).as_posix().encode())
        sources.update(path.read_bytes())
    return sources.hexdigest()


def manifest(run) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": run.tracer is not None,
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
        "source_sha256": run.source_sha256,
        "config_sha256": digest_json(run.configs),
        "report_sha256": run.digests,
        "counts": run.counts,
        "other_sources": run.other_sources,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "bvcouple" / "__init__.py").is_file():
        print(f"no bvcouple sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    RUN_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUN_DIR))
    try:
        run = workloads.Run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT, workdir, OUT_DIR,
                            sources_sha256())
        workloads.WORKLOADS[args.workload](run)
        if run.tracer is not None:
            spans = {"benchmark": run.tracer.spans, **dict(run.cli_spans)}
            (OUT_DIR / f"{args.workload}-seed{args.seed}.spans.json").write_text(json.dumps(spans))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in run.notes:
        print(line)
    print("manifest: " + json.dumps(manifest(run), sort_keys=True))
    for name, (value, unit) in run.metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in run.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

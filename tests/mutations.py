"""Mutation check of the tier-1 suite: each entry breaks the package one way
and names the tier-1 test that must catch it.

Run from anywhere, with the test requirements installed::

    python tests/mutations.py

An entry is (source file under ``src/bvcouple``, a snippet that must occur
exactly once in it, its replacement, the test node expected to fail). The
script copies ``src/``, ``tests/`` and ``pyproject.toml`` into a temporary
directory, runs every named test there once unmutated (each must pass),
then applies one entry at a time to the copy's ``src/`` and runs its test
against the copy. A mutation survives when its test passes. The exit
status is 1 if any mutation survives, any snippet is not found exactly
once, or a named test fails unmutated; else 0. The checkout is never
modified. The file name keeps this script out of the tier-1 collection.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

MUTATIONS = [
    # zero-weight rows left at zeta instead of F eta
    ("energies.py",
     "            z[zero + (s - lo)] = base\n",
     "            pass\n",
     "tests/test_coupling.py::test_masked_out_collapsed_bond_is_ignored_and_continuum_errors_name_the_site"),
    # the ghost-force scale multiplied by 1000
    ("harness.py",
     "    return max(1.0, float(np.max(np.abs(S))) / config.cfg.epsilon)\n",
     "    return max(1.0, float(np.max(np.abs(S))) / config.cfg.epsilon) * 1000.0\n",
     "tests/test_harness.py::test_ghost_force_residual_smoke"),
    # the free-node block dropped from the ghost-force residual
    ("harness.py",
     '        blocks.append(diag["node_gradient"])\n',
     "        pass\n",
     "tests/test_harness.py::test_ghost_force_residual_reads_every_gradient_block"),
    # verify coverings without its tiling check
    ("harness.py",
     "        ok = ok and bool(np.all(tile_counts == n_eta))\n",
     "        ok = ok\n",
     "tests/test_harness.py::test_coverings_check_fails_on_a_shifted_base_site"),
    # lemma-affine-exact loosened from == 0.0
    ("harness.py",
     '"lemma-affine-exact", affine_worst == 0.0,',
     '"lemma-affine-exact", affine_worst <= 1e-6,',
     "tests/test_harness.py::test_lemma_affine_check_fails_on_a_residual_of_1e_15"),
    # L-BFGS keeping curvature pairs with <s, y> < 0
    ("harness.py",
     "        if sy > 0.0:\n",
     "        if sy != 0.0:\n",
     "tests/test_harness.py::test_minimize_keeps_only_positive_curvature_pairs_and_descends"),
    # fd_gradient_check leaving the free nodes at zero
    ("harness.py",
     "        nodes = amp / k * rng.standard_normal((n_nodes, 3)) if n_nodes else np.zeros((0, 3))\n",
     "        nodes = np.zeros((n_nodes, 3))\n",
     "tests/test_harness.py::test_gradient_check_moves_the_free_nodes_on_every_trial"),
    # a lone bond evaluated as a one-row batch again
    ("potentials.py",
     "        if zeta.shape in ((3,), (1, 3)):  # one bond, as a two-row batch (see the module docstring)\n"
     "            rows = self.evaluate(np.concatenate([zeta.reshape(1, 3)] * 2), order)\n",
     "        if zeta.ndim == 1:\n"
     "            rows = self.evaluate(zeta[None], order)\n",
     "tests/test_potentials.py::test_a_row_alone_has_its_batch_bits"),
    # the state's extents no longer compared with the partition's lattice
    ("coupling.py",
     "    if y.cfg.N != part.cfg.N:\n",
     "    if False:\n",
     "tests/test_coupling.py::test_state_off_the_partition_lattice_is_rejected_before_any_build"),
    # translated cone rows that drop the member offset
    ("coupling.py",
     "(shape_op.indices[entry] + shift).astype(idx)",
     "shape_op.indices[entry].astype(idx)",
     "tests/test_coupling.py::test_blocks_equal_the_per_member_builder_byte_for_byte"),
    # a lone stencil batch split over two lanes: the helper lane's pieces skipped
    ("energies.py",
     "lambda: run(pieces[1::2])",
     "lambda: None",
     "tests/test_lanes.py::test_lone_batch_split_over_two_lanes_is_bitwise_one_lane"),
    # the helper lane's half of a split transposed apply shifted by one plane
    ("energies.py",
     "lambda: T.apply(p, g[cut:], mid, n0)",
     "lambda: T.apply(p, g[cut:], mid - 1, n0 - 1)",
     "tests/test_lanes.py::test_lone_batch_split_over_two_lanes_is_bitwise_one_lane"),
    # a split batch's domain error raised as its lanes give it, without the one-lane re-run
    ("energies.py",
     "if len(pairs) > 1 or two:",
     "if len(pairs) > 1:",
     "tests/test_lanes.py::test_domain_error_of_a_split_batch_is_the_one_lane_error"),
    # a two-lane pair with its lanes swapped: the caller computes the second unit
    ("energies.py",
     "_on_two_lanes(_helper(), lambda: unit(*pair[0]), lambda: unit(*pair[1]))\n",
     "_on_two_lanes(_helper(), lambda: unit(*pair[1]), lambda: unit(*pair[0]))[::-1]\n",
     "tests/test_lanes.py::test_helper_lane_domain_error_is_the_serial_one"),
    # the sweep's homogeneous-share check removed
    ("harness.py",
     '        if r["share_ulps"] > _SHARE_ULPS:',
     '        if False:',
     "tests/test_harness.py::test_sweep_fails_when_a_model_misses_the_homogeneous_share"),
]


def run_test(tree: Path, *nodes: str) -> bool:
    """Whether the test nodes pass against the package in ``tree``."""
    # no bytecode: a restored source may keep the mutant's mtime and size
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *nodes],
                          cwd=tree, env=env, capture_output=True, text=True)
    return done.returncode == 0


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory(prefix="bvcouple-mutations-") as tmp:
        tree = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tree / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", tree)
        if not run_test(tree, *dict.fromkeys(m[3] for m in MUTATIONS)):
            print("BROKEN: a named test fails without a mutation")
            bad += 1
        for i, (file, snippet, mutant, node) in enumerate(MUTATIONS, 1):
            path = tree / "src" / "bvcouple" / file
            source = path.read_text()
            if source.count(snippet) != 1:
                print(f"MISSING {i} {file}: snippet found {source.count(snippet)} times: {snippet.strip()!r}")
                bad += 1
                continue
            path.write_text(source.replace(snippet, mutant))
            try:
                caught = not run_test(tree, node)
            finally:
                path.write_text(source)
            print(f"{'CAUGHT' if caught else 'SURVIVED'} {i} {file}: {snippet.strip()!r} by {node}")
            bad += not caught
    print(f"{len(MUTATIONS)} mutations, {bad} problems")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())

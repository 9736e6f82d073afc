"""Mutation check of the tier-1 suite: each entry breaks the package one way
and names the tier-1 test that must catch it.

Run from anywhere, with the test requirements installed::

    python tests/mutations.py

An entry is (source file under ``src/bvcouple``, a snippet that must occur
exactly once in it, its replacement, the test node expected to fail). The
script copies ``src/``, ``tests/`` and ``pyproject.toml`` into a temporary
directory, runs every named test there once unmutated (each must pass),
then applies one entry at a time to the copy's ``src/`` and runs its test
against the copy. A mutation survives when its test passes; a test that
runs longer than ``TIMEOUT_S`` is stopped and does not pass. The exit
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
# Seconds a named test may run: every one takes a few, unmutated.
TIMEOUT_S = 300

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
    # the cone pass splitting every square along the other half first
    ("coupling.py",
     "_HALVES = np.array([[0, 1, 2], [0, 2, 3]])",
     "_HALVES = np.array([[0, 2, 3], [0, 1, 2]])",
     "tests/test_coupling.py::test_blocks_equal_the_per_member_builder_byte_for_byte"),
    # the cone pass dropping the lattice breakpoints of fan sides on the region's planes
    ("coupling.py",
     "span[:, [0, 1, 0, 1]], 1)",
     "1, 1)",
     "tests/test_coupling.py::test_blocks_equal_the_per_member_builder_byte_for_byte"),
    # mesh slaving keys as plain mixed-radix digits, which overflow past N = 128
    ("highorder.py",
     "        if c > 1:\n",
     "        if False:\n",
     "tests/test_highorder.py::test_row_keys_do_not_overflow_on_large_lattices"),
    # padding elements of a Pk block gathering node row 0 instead of the empty row
    ("highorder.py",
     "nloc), empty, dtype=node_of.dtype)",
     "nloc), 0, dtype=node_of.dtype)",
     "tests/test_highorder.py::test_padding_rows_add_nothing"),
    # a unit finished once all but one of its pieces have run
    ("energies.py",
     "                    last = not left[i]\n",
     "                    last = left[i] <= 1\n",
     "tests/test_lanes.py::test_lone_batch_split_over_two_lanes_is_bitwise_one_lane"),
    # every piece written from the first row of the unit's arrays
    ("energies.py",
     "[a[lo:lo + len(z)] for a in self.out]",
     "[a[:len(z)] for a in self.out]",
     "tests/test_lanes.py::test_two_plane_pieces_are_bitwise_default_slabs"),
    # every law chunk written into the first chunk's rows of the unit's arrays
    ("energies.py",
     "[a[lo:lo + _LAW_CHUNK] for a in out]",
     "[a[:min(_LAW_CHUNK, len(zeta) - lo)] for a in out]",
     "tests/test_lanes.py::test_f_eta_alone_in_the_last_chunk_keeps_every_bit"),
    # a unit's slot fixed by its place in the term, as if taken when the unit is built
    ("energies.py",
     "                    taken[i] = free.pop()\n",
     "                    taken[i] = i % _LANES\n",
     "tests/test_lanes.py::test_two_lanes_never_hold_the_same_buffer_at_once"),
    # every stream's units started in unit slot 0
    ("energies.py",
     "                    taken[i] = free.pop()\n",
     "                    taken[i] = 0\n",
     "tests/test_lanes.py::test_energy_only_and_gradient_calls_interleave_bitwise"),
    # a stream whose caller returns without waiting for the helper lane
    ("energies.py",
     "    ahead = helper.submit(guarded)\n"
     "    try:\n"
     "        guarded()\n"
     "    finally:\n"
     "        ahead.exception()  # waits, so no helper work outlives the call\n"
     "        drain()\n"
     "    ahead.result()\n",
     "    helper.submit(guarded)\n"
     "    try:\n"
     "        guarded()\n"
     "    finally:\n"
     "        drain()\n",
     "tests/test_lanes.py::test_helper_lane_is_done_when_the_term_returns_or_raises"),
    # a stream's results added in completion order rather than unit order
    ("energies.py",
     "                    slots[i] = units[i].finish(ws)\n"
     "                    free.append(taken[i])\n"
     "                    if units[i].contrib_size:\n"
     "                        parked = i\n",
     "                    got = units[i].finish(ws)\n"
     "                    free.append(taken[i])\n"
     "                    with commit:\n"
     "                        add(units[i].key, got)\n",
     "tests/test_lanes.py::test_helper_lane_commits_while_the_callers_first_unit_is_held"),
    # a stream raising its first failing piece's own error, without the one-lane re-run
    ("energies.py",
     "        units[i].copied(own)  # raises the unit's one-lane error\n",
     "        pass\n",
     "tests/test_lanes.py::test_domain_error_of_a_split_batch_is_the_one_lane_error"),
    # one workspace for every thread, so a lane takes the other lane's
    ("energies.py",
     "    ws = getattr(_lanes, \"ws\", None)\n"
     "    if ws is None:\n"
     "        ws = _lanes.ws = _Workspace()\n",
     "    ws = getattr(_Workspace, \"shared\", None)\n"
     "    if ws is None:\n"
     "        ws = _Workspace.shared = _Workspace()\n",
     "tests/test_lanes.py::test_two_lanes_never_hold_the_same_buffer_at_once"),
    # a lane that forgets the unit whose contributions it parked, as if they were added at its finish
    ("energies.py",
     "                        parked = i\n",
     "                        parked = -1\n",
     "tests/test_lanes.py::test_helper_lane_commits_while_the_callers_first_unit_is_held"),
    # a lane finishing a unit without waiting for its parked unit's add
    ("energies.py",
     "                    with added:\n"
     "                        added.wait_for(lambda: head > parked or errors)\n"
     "                    if head <= parked:  # an earlier unit raised, so this one is never added\n"
     "                        return\n",
     "",
     "tests/test_lanes.py::test_helper_lane_commits_while_the_callers_first_unit_is_held"),
    # the helper lane returning with its parked unit not yet added
    ("energies.py",
     "        if ws is not own:  # the helper's next stream may be another caller's\n",
     "        if False:\n",
     "tests/test_lanes.py::test_concurrent_callers_get_the_reports_of_sequential_calls"),
    # the sweep's homogeneous-share check removed
    ("harness.py",
     '        if r["share_ulps"] > _SHARE_ULPS:',
     '        if False:',
     "tests/test_harness.py::test_sweep_fails_when_a_model_misses_the_homogeneous_share"),
    # the preconditioner inverting lam, not |lam|, below the floor
    ("harness.py",
     "        mu = np.abs(lam)\n",
     "        mu = lam.copy()\n",
     "tests/test_harness.py::test_the_preconditioner_is_the_floored_inverse_of_the_symbol[atomistic]"),
    # a stencil's first term dropped from its symbol
    ("energies.py",
     "        for s, c in op.terms:\n            b += c",
     "        for s, c in op.terms[1:]:\n            b += c",
     "tests/test_harness.py::test_the_symbol_is_the_hessian_on_plane_waves[atomistic]"),
    # two Jacobi sweeps, short of rounding
    ("harness.py",
     "_JACOBI_SWEEPS = 5\n",
     "_JACOBI_SWEEPS = 2\n",
     "tests/test_harness.py::test_the_atomistic_symbol_of_the_readme_laws_has_its_baseline_minimum"),
    # the zero mode kept, at the floor
    ("harness.py",
     "        mu[0, 0, 0] = np.inf\n",
     "        pass\n",
     "tests/test_harness.py::test_the_preconditioner_is_the_floored_inverse_of_the_symbol[acb-cell]"),
    # the coupled models preconditioned with the exact bond's symbol
    ("harness.py",
     'fam if fam in ("atomistic", "acb-cell") else "acb-tetra"',
     'fam if fam in ("atomistic", "acb-cell") else "atomistic"',
     "tests/test_harness.py::test_the_preconditioner_is_the_floored_inverse_of_the_symbol[coupled]"),
    # the naive control preconditioned with its laws' staircase symbol
    ("harness.py",
     '        if fam == "naive":\n',
     "        if False:\n",
     "tests/test_harness.py::test_the_naive_preconditioner_is_the_lattice_laplacian_inverse"),
    # the symbol built with the preconditioner, not at its first call
    ("harness.py",
     "    def apply(g: np.ndarray) -> np.ndarray:\n        c0, c1, c2 = columns()\n",
     "    columns()\n\n    def apply(g: np.ndarray) -> np.ndarray:\n        c0, c1, c2 = columns()\n",
     "tests/test_harness.py::test_an_unforced_solve_builds_no_symbol"),
]


def run_test(tree: Path, *nodes: str) -> bool:
    """Whether the test nodes pass against the package in ``tree`` within
    ``TIMEOUT_S``: a mutant that makes two lanes wait for each other hangs
    its test, which then does not pass."""
    # no bytecode: a restored source may keep the mutant's mtime and size
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *nodes],
                              cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
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

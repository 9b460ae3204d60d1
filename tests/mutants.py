"""Mutation check: each mutant below changes one source line, and every
test named with it must fail on the changed copy (DeMillo, Lipton and
Sayward, "Hints on test data selection", 1978).

Run from the repository root:

    python tests/mutants.py           # every mutant
    python tests/mutants.py NAME ...  # the named mutants

Each mutant runs in its own temporary copy of ``src/``, ``tests/``,
``pyproject.toml`` and ``suite.cfg``.  The
named tests are first run once on an unchanged copy, where they must pass.
The script exits 1 if a mutant survives (one of its tests passes), or if
its source line is no longer found exactly once.  It uses the standard
library only, and pytest does not collect it; it stays out of tier-1
because each mutant pays for its own test run.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    line: str  # the source line as it stands, without its indentation
    replacement: str  # put in its place, at the same indentation
    killers: tuple[str, ...]  # pytest node ids that must each fail


MUTANTS = (
    Mutant("constant-exit-bit", "src/dimerforge/trees.py",
           "return 1 if dy > 0 else 0", "return 1",
           ("tests/test_trees.py::test_sampled_independence_tables_are_pinned",
            "tests/test_trees.py::test_independence_exit_side_enumerated",
            "tests/test_cli.py::test_sampled_exit_side_independence_passes",
            "tests/test_acceptance.py::test_criterion_13_independence",
            "tests/test_report.py::test_default_suite_report_is_byte_identical")),
    Mutant("across-centre-to-itself", "src/dimerforge/refine.py",
           "across[m][c] = (far, h)", "across[m][c] = (c, h)",
           ("tests/test_refine.py::test_across_map_matches_the_faces",
            "tests/test_bijections.py::test_phi_images_are_pinned",
            "tests/test_bijections.py::test_transport_images_are_pinned",
            "tests/test_report.py::test_default_suite_report_is_byte_identical",
            "tests/test_census.py::test_section2_identities_hold_on_every_drawing")),
    Mutant("search-row-bisect-left", "src/dimerforge/planar.py",
           "from bisect import bisect_right", "from bisect import bisect_left as bisect_right",
           ("tests/test_trees.py::test_walk_rows_match_the_exit_scan_and_hold_at_most_the_cap",)),
    Mutant("phi-count-dropped", "src/dimerforge/report.py",
           'or _count_fault("matching counts differ", plus, inst.minus, ("plus", "minus")))',
           ")",
           ("tests/test_report.py::test_phi_fault_fails_when_the_minus_side_has_another_count",)),
    Mutant("cut-vertices-no-root-rule", "src/dimerforge/generators.py",
           "if root_children > 1:", "if False:",
           ("tests/test_planar.py::test_cut_vertices_are_the_removals_that_disconnect",
            "tests/test_generators.py::test_cut_vertices_agree_with_removing_each_point",
            "tests/test_generators.py::test_random_plane_and_symmetric_draws_are_pinned")),
    Mutant("workers-unbounded", "src/dimerforge/report.py",
           "with ProcessPoolExecutor(max_workers=workers) as pool:",
           "with ProcessPoolExecutor(max_workers=jobs) as pool:",
           ("tests/test_report.py::test_jobs_bounds_the_worker_count_by_the_items",)),
    # workers forked before the check modules are imported import them again
    Mutant("prefork-imports-dropped", "src/dimerforge/report.py",
           "from . import aztec, bijections, generators, parity  # noqa: F401", "pass",
           ("tests/test_hygiene.py::test_worker_processes_are_forked_with_every_check_module",)),
    # an import nested in a block that nothing reads
    Mutant("nested-import-unused", "src/dimerforge/report.py",
           "from concurrent.futures import ProcessPoolExecutor",
           "from concurrent.futures import ProcessPoolExecutor, wait",
           ("tests/test_hygiene.py::test_no_unused_imports[report.py]",)),
    # a kept table built again on every call
    Mutant("kept-table-rebuilt", "src/dimerforge/planar.py",
           "made = g._tables.get(build)", "made = None",
           ("tests/test_tables.py::test_a_second_pass_of_the_section2_checks_builds_no_table",
            "tests/test_planar.py::test_kept_tables_are_built_once_per_graph")),
    # a sampled report whose generator is not reseeded per sample
    Mutant("sample-reseed-dropped", "src/dimerforge/trees.py",
           "rng.seed(split_seed(seed, k))", "pass",
           ("tests/test_trees.py::test_sampled_independence_tallies_the_trees_of_ust_sample",
            "tests/test_trees.py::test_sampled_independence_tables_are_pinned")),
    # a square grid past the limit counted for seconds before it is refused
    Mutant("grid-count-log10-bound-dropped", "src/dimerforge/cli.py",
           "or _log10_grid_count(m, n) >= limit * (1 + 1e-9)):", "or False):",
           ("tests/test_cli.py::test_grid_count_refuses_a_square_past_the_limit_before_counting",
            "tests/test_cli.py::test_grid_count_refuses_what_the_ladder_bound_proves_too_long")),
    # the two below read a vertex id where the walk keeps positions; they
    # differ only on graphs whose ids are not 0..n-1
    Mutant("walk-root-by-id", "src/dimerforge/trees.py",
           "in_tree[g.vertex_order()[1][root]] = True", "in_tree[root] = True",
           ("tests/test_trees.py::test_ust_sample_draws_the_trees_of_the_randrange_walk",
            "tests/test_trees.py::test_ust_sample_and_sampled_reports_follow_a_monotone_relabelling")),
    Mutant("readout-by-id", "src/dimerforge/trees.py",
           "ones = [(position[v], frozenset(exits[v][1])) for v in variables]",
           "ones = [(v, frozenset(exits[v][1])) for v in variables]",
           ("tests/test_trees.py::test_ust_sample_and_sampled_reports_follow_a_monotone_relabelling",)),
    # the enumerator's exclude step and forcing rule; a branch includes its
    # edge through the forcing rule, so every chosen edge is a forced one
    Mutant("exclude-drops-next-edge", "src/dimerforge/matchings.py",
           "usable ^= low", "usable &= ~(low | low << 1)",
           ("tests/test_matchings.py::test_enumeration_matches_set_oracle_on_every_family",
            "tests/test_matchings.py::test_enumerated_matching_sequence_is_pinned",
            "tests/test_census.py::test_section2_identities_hold_on_every_drawing")),
    Mutant("forced-edge-unrecorded", "src/dimerforge/matchings.py",
           "chosen = (edge_ids[k], chosen)", "pass",
           ("tests/test_matchings.py::test_enumeration_matches_set_oracle_on_every_family",
            "tests/test_matchings.py::test_enumerated_matching_sequence_is_pinned",
            "tests/test_census.py::test_section2_identities_hold_on_every_drawing")),
    Mutant("forcing-rule-dropped", "src/dimerforge/matchings.py",
           "if not left & (left - 1):", "if False:",
           ("tests/test_matchings.py::test_enumeration_matches_set_oracle_on_every_family",
            "tests/test_matchings.py::test_enumerated_matching_sequence_is_pinned",
            "tests/test_census.py::test_section2_identities_hold_on_every_drawing")),
    # the section-2 construction: refinement midpoints on the lattice, and
    # both leaves of the augmented graph drawn in its infinite face
    Mutant("midpoint-denominator-halved", "src/dimerforge/refine.py",
           "half = 2 * lat.scale", "half = lat.scale",
           ("tests/test_generators.py::test_random_section2_derived_graphs_are_pinned",
            "tests/test_census.py::test_section2_identities_hold_on_every_drawing")),
    Mutant("leaf1-accepted-anywhere", "src/dimerforge/refine.py",
           "if leaf1 in onb:", "if True:",
           ("tests/test_refine.py::test_augmented_leaves_lie_on_the_infinite_face",)),
    Mutant("leaf0-exit-dropped", "src/dimerforge/refine.py",
           "if leaf0 not in onb:", "if False:",
           ("tests/test_refine.py::test_augmented_leaves_lie_on_the_infinite_face",)),
    # each construction is built once, where its inputs are known: the
    # Temperley host, the trimmed graph that symmetrize reads, the forced
    # pairs read off the across-map, and the banded forests' price
    Mutant("temperley-host-keeps-root", "src/dimerforge/bijections.py",
           "return TemperleyInstance(ref, root, remove_vertices(ref.graph, [root]))",
           "return TemperleyInstance(ref, root, ref.graph)",
           ("tests/test_bijections.py::test_temperley_matchings_are_pinned",)),
    Mutant("forced-pairs-shifted", "src/dimerforge/bijections.py",
           "for a, b in zip(seq[0::2], seq[1::2]))",
           "for a, b in zip(seq[1::2], seq[2::2]))",
           ("tests/test_bijections.py::test_transport_rejects_exactly_the_matchings_missing_forced_edges",)),
    Mutant("symmetrize-untrimmed", "src/dimerforge/refine.py",
           "mids, trimmed = inst.mids, inst.trimmed",
           "mids, trimmed = inst.mids, inst.refinement.graph",
           ("tests/test_refine.py::test_symmetrize_square_instance",
            "tests/test_refine.py::test_symmetrized_graphs_are_pinned",
            "tests/test_census.py::test_section2_identities_hold_on_every_drawing")),
    Mutant("banded-priced-without-dual-weights", "src/dimerforge/report.py",
           "partial(banded_forest_weight, inst)))",
           'methodcaller("weight", inst.forest_graph)))',
           ("tests/test_report.py::test_banded_check_prices_forests_with_their_dual_weights",)),
    # transport and gliding read what the instance and the dual forest
    # recorded once.  A dual edge's face pair read the other way round is an
    # equivalent mutant for the maps, which walk the pair both ways, so only
    # the record's own test kills it; dropping the pair's reverse reading
    # changes the images
    Mutant("tea-starts-from-the-deleted-run", "src/dimerforge/bijections.py",
           "starts, expected_ends = instance.plain_removal, instance.prime_removal",
           "starts, expected_ends = instance.prime_removal, instance.prime_removal",
           ("tests/test_bijections.py::test_transport_images_are_pinned",
            "tests/test_report.py::test_default_suite_report_is_byte_identical")),
    Mutant("dual-face-pair-reversed", "src/dimerforge/trees.py",
           "pairs.append((fa, fb))", "pairs.append((fb, fa))",
           ("tests/test_trees.py::test_dual_forest_records_the_faces_of_each_dual_edge",)),
    Mutant("dual-face-pair-read-one-way", "src/dimerforge/trees.py",
           "dual_adj.setdefault(fb, []).append((eid, fa))",
           "dual_adj.setdefault(fa, []).append((eid, fb))",
           ("tests/test_bijections.py::test_temperley_matchings_are_pinned",
            "tests/test_trees.py::test_tec_forests_and_round_trips_are_pinned",
            "tests/test_report.py::test_default_suite_report_is_byte_identical")),
    # one each for the class-weights, aztec and cycle-parity checks.  The
    # swap below takes its matching edge back where it should take the
    # mirror edge, and so becomes the identity; the class-weights check
    # kills it, as a matching holding the marked edge must come back
    # holding its mirror image
    Mutant("reflect-swap-without-the-mirror", "src/dimerforge/bijections.py",
           "e = mirror_cover[v]", "e = cover[v]",
           ("tests/test_bijections.py::test_reflect_swap_diamond",
            "tests/test_bijections.py::test_reflect_swap_class_transition",
            "tests/test_report.py::test_default_suite_report_is_byte_identical")),
    Mutant("aztec-constraint-index-off-by-one", "src/dimerforge/aztec.py",
           "constraints = {len(inst.plain): cpath}",
           "constraints = {len(inst.plain) - 1: cpath}",
           ("tests/test_aztec.py::test_bijection_roundtrip",
            "tests/test_report.py::test_default_suite_report_is_byte_identical")),
    # the lift without the staircase and strip edges an odd order forces
    Mutant("aztec-lift-drops-fixed", "src/dimerforge/aztec.py",
           "return Matching(instance.host.graph_id, instance.fixed_edges | images)",
           "return Matching(instance.host.graph_id, images)",
           ("tests/test_aztec.py::test_bijection_roundtrip",)),
    # the command line's one check that each constrained index has a path
    Mutant("tea-cli-missing-constraint-unchecked", "src/dimerforge/cli.py",
           "if mus and constraints.keys() != set(subset):", "if False:",
           ("tests/test_cli.py::test_tea_transport_needs_a_path_for_each_constrained_index",)),
    # the library's refusal of a constraint that names no mark or does not
    # run between its marks
    Mutant("tea-constraint-marks-unchecked", "src/dimerforge/bijections.py",
           "for i, want in constraints.items():", "for i, want in {}.items():",
           ("tests/test_cli.py::test_tea_transport_refuses_a_constraint_off_its_marks",
            "tests/test_bijections.py::"
            "test_transport_refuses_constraints_off_the_marks_before_gliding")),
    Mutant("interior-count-takes-the-cycle", "src/dimerforge/parity.py",
           "v_in = 0", "v_in = len(cycle)",
           ("tests/test_parity.py::test_square_cycle_itself",
            "tests/test_parity.py::test_all_cycles_odd_everywhere",
            "tests/test_report.py::test_default_suite_report_is_byte_identical")),
    # one each for the grid-kasteleyn, trimmed-squarish, tree-swap and exact
    # independence checks: the closed form's first diagonal entry, the
    # mirror half of a trimmed square, the backward exit of the root swap
    # and the diagonal grid's horizontal/vertical bit
    Mutant("kasteleyn-first-diagonal-two", "src/dimerforge/matchings.py",
           "return [[y + (c + 1 + (i > 0)) * x + z for y, x, z in zip(*padded[i:i + 3])]",
           "return [[y + (c + 2) * x + z for y, x, z in zip(*padded[i:i + 3])]",
           ("tests/test_matchings.py::test_kasteleyn_small_values",
            "tests/test_matchings.py::test_kasteleyn_agrees_with_direct_count",
            "tests/test_acceptance.py::test_criterion_01_kasteleyn_grid_identity",
            "tests/test_report.py::test_default_suite_report_is_byte_identical")),
    Mutant("trimmed-square-unmirrored", "src/dimerforge/generators.py",
           "return _trimmed_graph(2 * n, frozenset(_mirrored(present))), n, removals",
           "return _trimmed_graph(2 * n, frozenset(present)), n, removals",
           ("tests/test_generators.py::test_random_trimmed_draws_and_stages_are_pinned",
            "tests/test_acceptance.py::test_criterion_05_trimmed_squares_squarish",
            "tests/test_report.py::test_default_suite_report_is_byte_identical")),
    Mutant("tree-swap-backward-exit-forward", "src/dimerforge/report.py",
           "rhs = _forced_tree_weight(g0, path[0], {path[j]: [edges[j - 1]] for j in odd})",
           "rhs = _forced_tree_weight(g0, path[0], {path[j]: [edges[j]] for j in odd})",
           ("tests/test_trees.py::test_tree_swap_weights_match_enumeration",
            "tests/test_acceptance.py::test_criterion_07_root_swap_tree_counts",
            "tests/test_report.py::test_default_suite_report_is_byte_identical",
            "tests/test_census.py::test_section2_identities_hold_on_every_drawing")),
    Mutant("hv-bit-from-dx-alone", "src/dimerforge/trees.py",
           "return 1 if (dx > 0) != (dyv > 0) else 0", "return 1 if dx > 0 else 0",
           ("tests/test_trees.py::test_independence_hv_diagonal_grid",
            "tests/test_trees.py::test_independence_hv_table_matches_enumeration",
            "tests/test_acceptance.py::test_criterion_13_independence",
            "tests/test_report.py::test_default_suite_report_is_byte_identical")),
    # the rotation ranked over the distinct edge directions, with east and
    # north swapped (and west and south), and the trimmed-square corner
    # rule that forgets the point above the peak
    Mutant("lattice-directions-swapped", "src/dimerforge/planar.py",
           "for step in sorted(darts, key=ccw_direction_key):",
           "for step in sorted(darts, key=lambda d: ccw_direction_key((d[1], d[0]))):",
           ("tests/test_lattice.py::test_builders_give_the_rotation_and_lattice_of_the_fraction_route",)),
    Mutant("corner-peak-ignores-the-point-above", "src/dimerforge/refine.py",
           "and (i, j + 1) not in present)", ")",
           ("tests/test_refine.py::test_corner_peaks_are_the_removals_the_validator_accepts",)),
    # the exact independence verdict, which every valid input passes, so
    # only a perturbed table decides it; and the tree determinant forcing
    # the exits a vertex does not list.  The suite's checks do not see the
    # second: check_tree_swap(30, split_seed(2026, 7)) still passes, since
    # the other exit of a degree-two path vertex is its other path edge and
    # the swapped identity holds too; check_class_weights(10, 2026) and
    # check_independence(10, 2026) pass with it as well
    Mutant("exact-independence-always-passes", "src/dimerforge/trees.py",
           "passed = len(set(cells.values())) == 1", "passed = True",
           ("tests/test_trees.py::test_exact_independence_fails_a_table_with_one_perturbed_cell",)),
    Mutant("forced-tree-weight-complement", "src/dimerforge/trees.py",
           "if listed is None or eid in listed:", "if listed is None or eid not in listed:",
           ("tests/test_trees.py::test_forced_tree_weight_with_mixed_denominators_matches_enumeration",)),
    # the section-2 build cache keyed by the bottom row alone (its length),
    # so drawings that differ only in their peeled rows share one instance
    Mutant("section2-cache-keyed-by-bottom-row", "src/dimerforge/generators.py",
           "@lru_cache(maxsize=None)",
           "@lambda f: lambda points, edges, cols, memo={}: "
           "memo.get(cols) or memo.setdefault(cols, f(points, edges, cols))",
           ("tests/test_generators.py::test_random_section2_draws_are_pinned",
            "tests/test_generators.py::test_random_section2_shares_each_drawing_built_as_from_scratch",
            "tests/test_census.py::test_section2_family_holds_every_pinned_draw")),
    # the one seeded-instance loop of the suite's checks: the index it names
    # in a fault, and the tally the summaries print
    Mutant("instance-named-one-later", "src/dimerforge/report.py",
           'return False, f"instance {k}: {out[0]}", out[1]',
           'return False, f"instance {k + 1}: {out[0]}", out[1]',
           ("tests/test_report.py::test_every_seeded_comparison_can_fail",
            "tests/test_report.py::test_transport_check_fails_when_constrained_weights_differ")),
    Mutant("instance-tally-dropped", "src/dimerforge/report.py",
           "tally += out or 0", "pass",
           ("tests/test_report.py::test_banded_check_prices_forests_with_their_dual_weights",
            "tests/test_report.py::test_default_suite_report_is_byte_identical")),
    # the glide and shift tables: a host's hop table read under another
    # refinement, a hop onto a vertex the host lacks taken as open, and a
    # shift that no longer checks alternation
    Mutant("hop-table-ignores-the-refinement", "src/dimerforge/gliding.py",
           "if kept is None or kept[0] is not ref:", "if kept is None:",
           ("tests/test_tables.py::test_a_host_glided_under_a_second_refinement_reads_that_refinement",)),
    Mutant("blocked-hop-continues", "src/dimerforge/gliding.py",
           "hops[eid] = mid, far, ref.across[mid][far][1] if far in host.vertices else None",
           "hops[eid] = mid, far, ref.across[mid][far][1] if far is not None else None",
           ("tests/test_bijections.py::test_glide_on_minimal_instance",
            "tests/test_bijections.py::test_phi_images_are_pinned",
            "tests/test_bijections.py::test_transport_images_are_pinned",
            "tests/test_census.py::test_section2_identities_hold_on_every_drawing",
            "tests/test_tables.py::test_section2_tables_change_no_result",
            "tests/test_report.py::test_default_suite_report_is_byte_identical")),
    Mutant("shift-skips-the-alternation-check", "src/dimerforge/gliding.py",
           "or mu_edges.isdisjoint(even) and mu_edges.issuperset(odd)):", "or True):",
           ("tests/test_stress.py::test_shift_rejects_non_alternating_path",
            "tests/test_tables.py::test_shift_accepts_exactly_the_alternating_paths")),
    # a state holding two vertices that can wait no longer pairs one of them
    Mutant("must-pairs-one-of-two", "src/dimerforge/matchings.py",
           "if not m & (m - 1):", "if True:",
           ("tests/test_matchings.py::test_count_examples",
            "tests/test_matchings.py::test_count_matches_enumeration_on_every_untested_family",
            "tests/test_matchings.py::test_kasteleyn_agrees_with_direct_count")),
    # a vertex that can wait no longer may still wait, or pair elsewhere
    Mutant("must-pairing-optional", "src/dimerforge/matchings.py",
           "continue", "pass",
           ("tests/test_matchings.py::test_count_examples",
            "tests/test_matchings.py::test_count_matches_enumeration_on_random_graphs",
            "tests/test_matchings.py::test_count_matches_enumeration_on_every_untested_family")),
    # no slot is reused: every count stays right, but each waiting vertex
    # takes a slot of its own, so the plans widen past the limit
    Mutant("slots-never-freed", "src/dimerforge/matchings.py",
           "used ^= must", "pass",
           ("tests/test_matchings.py::test_count_plan_width_of_the_square_grid_is_its_side",
            "tests/test_matchings.py::test_count_reaches_the_16x16_grid")),
)


def _copy(dest: str) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for d in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, d), os.path.join(dest, d), ignore=skip)
    for f in ("pyproject.toml", "suite.cfg"):
        shutil.copy(os.path.join(ROOT, f), dest)


def _mutate(root: str, m: Mutant) -> str | None:
    """Apply ``m`` under ``root``; a problem message if its line is not
    found exactly once."""
    path = os.path.join(root, m.path)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    hits = [i for i, s in enumerate(lines) if s.strip() == m.line]
    if len(hits) != 1:
        return f"{m.path}: source line found {len(hits)} times: {m.line}"
    s = lines[hits[0]]
    lines[hits[0]] = s[:len(s) - len(s.lstrip())] + m.replacement
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
    return None


def _failed(root: str, node_ids) -> set[str]:
    """The node ids among ``node_ids`` that fail or error in the copy at
    ``root``: a test fails when one of its parameter cases does, a node id
    naming one case fails when that case does, and a test file that fails
    to import fails all of its tests."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
                          *node_ids], cwd=root, env=env, capture_output=True, text=True)
    bad = {b for f in re.findall(r"^(?:FAILED|ERROR) (\S+)", out.stdout, re.M)
           for b in (f, f.split("[")[0])}
    return {n for n in node_ids if n in bad or n.split("::")[0] in bad}


def main(argv: list[str]) -> int:
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {' '.join(sorted(unknown))}")
        return 1
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    killed = 0
    with tempfile.TemporaryDirectory(prefix="dimerforge-mutants-") as tmp:
        clean = os.path.join(tmp, "clean")
        _copy(clean)
        broken = sorted(_failed(clean, sorted({k for m in chosen for k in m.killers})))
        for k in broken:
            print(f"fails without a mutant: {k}")
        for i, m in enumerate(chosen):
            root = os.path.join(tmp, str(i))
            _copy(root)
            problem = _mutate(root, m)
            if problem is None:
                survived = [k for k in m.killers if k not in _failed(root, m.killers)]
                problem = f"survives {' '.join(survived)}" if survived else None
            killed += problem is None
            print(f"{m.name}: {problem or f'killed by all {len(m.killers)} of its tests'}")
            shutil.rmtree(root)
    print(f"{killed} of {len(chosen)} mutants killed")
    return 1 if broken or killed < len(chosen) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

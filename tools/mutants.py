"""Mutation check: every listed one-line edit of the package fails a test.

    python tools/mutants.py [NAME ...]

Each mutant names a file under src/, a text that must occur there
exactly once, its replacement, and the tests that should catch the edit.
For each mutant the script copies src/ to a temporary directory, applies
the edit and runs the named tests against the copy (PYTHONPATH points at
it, and pytest's own `pythonpath = ["src"]` is switched off).  A failing
run kills the mutant; a passing one survives.  The unedited copy must
first pass every named test, so that a kill means the edit was caught.
Exits 0 only if every mutant is killed.  Standard library and pytest
only; the tests run with one BLAS thread, as in CI.
"""

from dataclasses import dataclass
import os
from pathlib import Path
import shutil
import subprocess
import sys
import tempfile

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to src/echodex
    old: str
    new: str
    tests: tuple


INDEX, CORE = "tests/test_index.py::", "tests/test_core.py::"

EXPERIMENTS = "tests/test_experiments.py::"

CONTRACTION = "tests/test_contraction.py::"

SEQUENCES = "tests/test_sequences.py::"

MUTANTS = [
    # the thread pool (core._run_groups) and member groups on it
    # (core._advance_groups)
    Mutant("groups concatenated in reverse", "core.py",
           "np.concatenate(_run_groups(run, groups), axis=1)",
           "np.concatenate(_run_groups(run, groups)[::-1], axis=1)",
           (CORE + "test_member_groups_leave_no_thread_behind",
            INDEX + "test_member_groups_give_the_bits_of_one_run")),
    Mutant("a helper's result() dropped", "core.py",
           "[h.result() for h in helpers]",
           "[h.result() for h in helpers[1:]]",
           (CORE + "test_member_groups_leave_no_thread_behind",
            INDEX + "test_pair_groups_leave_no_thread_behind")),
    # a lane's bit-identical members stepped once in a tail-free run
    # (core._distinct_rows, core._advance)
    Mutant("the early exit taken when keys are shared", "core.py",
           "if np.count_nonzero(same) == lanes * r:",
           "if np.count_nonzero(same) >= lanes * r:",
           (CORE + "test_a_lanes_bit_identical_members_keep_their_own_bits",)),
    Mutant("members merged by value, not by bits", "core.py",
           "bits = x.view(np.int64)",
           "bits = x",
           (CORE + "test_a_lanes_bit_identical_members_keep_their_own_bits",)),
    Mutant("a shared key merged unconfirmed", "core.py",
           "first[i[differ], j[differ]] = j[differ]",
           "pass",
           (CORE + "test_a_lanes_bit_identical_members_keep_their_own_bits",)),
    Mutant("every lane merged onto lane 0's rows", "core.py",
           "kept = x[lane, kept_rows]",
           "kept = x[0, kept_rows]",
           (CORE + "test_lanes_with_the_same_members_never_merge_across_lanes",)),
    Mutant("merged rows returned unexpanded", "core.py",
           "return x if inverse is None else x[lane, inverse]",
           "return x",
           (CORE + "test_a_lanes_bit_identical_members_keep_their_own_bits",)),
    Mutant("members merged in a run that writes tails", "core.py",
           "_distinct_rows(x) if tails is None and x.shape[1] > 1 else None",
           "_distinct_rows(x) if x.shape[1] > 1 else None",
           (CORE + "test_a_lanes_bit_identical_members_keep_their_own_bits",)),
    # the drive block (core._drive) and its rows widened to the states'
    # shape (core._widened)
    Mutant("a widened sub-block that starts one row late", "core.py",
           "part = block[s0:s0 + per]",
           "part = block[s0 + 1:s0 + 1 + per]",
           (CORE + "test_widened_drive_rows_step_like_solo_orbits",)),
    Mutant("lane 0's inputs mapped into every lane", "core.py",
           "np.stack(inputs, out=u[:, :n])",
           "np.stack(inputs[:1] * lanes, out=u[:, :n])",
           (CORE + "test_network_drive_maps_each_lanes_own_inputs",)),
    # the row map (core._matvec_rows): rows of networks up to n = 300 as
    # rows of 4-row GEMMs, a solo state padded with three zero rows
    Mutant("step maps an unpadded single row", "core.py",
           "return _update(params.alpha, x, _preactivation(params, u, x))",
           "return _update(params.alpha, x, _preactivation(params, u, x, _rows_gemm))",
           (CORE + "test_leak_one_is_pure_activation_update",
            CORE + "test_widened_drive_rows_step_like_solo_orbits")),
    Mutant("blocks of 8 rows, not 4", "core.py",
           "_BLOCK = 4",
           "_BLOCK = 8",
           (CORE + "test_a_rows_bits_in_a_4_row_gemm_depend_on_no_other_row",)),
    # the tails rule (core._advance): the start state at index 0, the
    # state after step k at index k
    Mutant("a tail written one index early", "core.py",
           "tails[:, :, k] = x",
           "tails[:, :, k - 1] = x",
           (CORE + "test_advance_steps_a_copy_and_leaves_its_states_unchanged",
            CORE + "test_orbit_consumes_inputs_at_arrival_times")),
    Mutant("the start state left out of the tails", "core.py",
           "tails[:, :, 0] = x",
           "pass",
           (CORE + "test_advance_steps_a_copy_and_leaves_its_states_unchanged",)),
    # the one squared-distance loop (index._squared_distances) and the
    # pair kernel's row groups on it (index._pair_distances)
    Mutant("a group's rows dealt off by one", "index.py",
           "for i in range(g, m - 1, groups):",
           "for i in range(g + 1, m - 1, groups):",
           (INDEX + "test_pair_distances_match_the_explicit_formula",)),
    Mutant("thirds cut one step late", "index.py",
           "cuts = [window - (3 - p) * third for p in range(3)]",
           "cuts = [window - (3 - p) * third + 1 for p in range(3)]",
           (INDEX + "test_pair_distances_match_the_explicit_formula",)),
    Mutant("distances to the first row, not the reference", "index.py",
           "diff = np.subtract(xs[j0:j1], ref, out=buf[:j1 - j0])",
           "diff = np.subtract(xs[j0:j1], xs[0], out=buf[:j1 - j0])",
           (INDEX + "test_pair_distances_match_the_explicit_formula",
            INDEX + "test_rung_verdict_decides_tight_clusters_without_the_exact_pass")),
    Mutant("a scratch block per group", "index.py",
           "_PAIR_SCRATCH_BYTES // (groups * window * d * 8)",
           "_PAIR_SCRATCH_BYTES // (window * d * 8)",
           (INDEX + "test_pair_distances_scratch_is_bounded",)),
    Mutant("every clustering split", "index.py",
           "_MIN_PAIR_WORK = 2 ** 22",
           "_MIN_PAIR_WORK = 1",
           (EXPERIMENTS + "test_small_presets_never_build_a_thread_pool",)),
    # each seed's ICs drawn once per ladder (index._ladder_ics), a rung
    # taking the first ic_counts[r] of them (index._ladder_rung)
    Mutant("a rung given the last rows of its seed's ICs", "index.py",
           "firsts = table[:, :count]",
           "firsts = table[:, -count:]",
           (INDEX + "test_a_ladder_draws_each_seeds_ics_once",)),
    # continued rungs (index._Rung.carry)
    Mutant("carry index off by one", "index.py",
           "tails[:, :, s - self.transient].copy(), s",
           "tails[:, :, s - self.transient - 1].copy(), s",
           (INDEX + "test_continued_rung_is_bit_exact_on_the_scalar_path",
            INDEX + "test_continued_rung_is_bit_exact_under_the_default_protocol")),
    Mutant("shrinking-transient guard removed", "index.py",
           "if transient < self.transient:",
           "if False:",
           (INDEX + "test_shrinking_transient_falls_back_to_fresh_evolution",)),
    # the ladder's one window buffer (index.estimate_echo_indices): the
    # shift lanes' window is read before the main lanes' overwrites it
    Mutant("a shift verdict read from a main lane", "index.py",
           "rung.window(slice(m, None), tails)",
           "rung.window(slice(0, m), tails)",
           (INDEX + "test_shift_lanes_reproduce_the_two_phase_ladder",
            INDEX + "test_many_input_ladder_matches_one_input_ladders")),
    Mutant("early shift verdict's condition inverted", "index.py",
           "if history[i] and history[i][-1] is not None:",
           "if history[i] and history[i][-1] is None:",
           (INDEX + "test_shift_lanes_reproduce_the_two_phase_ladder",)),
    Mutant("a kept view left uncopied before the buffer is reused", "index.py",
           "_owned(runs[row]) if m > 1 or rows else runs[row]",
           "_owned(runs[row]) if m > 1 else runs[row]",
           (INDEX + "test_kept_rung_equals_a_fresh_run",)),
    # the ladder's stabilisation rule (index._stable) and shift check
    # (index._final_report)
    Mutant("stable only after three rungs", "index.py",
           "len(verdicts) >= 2",
           "len(verdicts) >= 3",
           (INDEX + "test_shift_lanes_reproduce_the_two_phase_ladder",)),
    Mutant("stable without two agreeing rungs", "index.py",
           "verdicts[-2] == verdicts[-1]",
           "True",
           (INDEX + "test_estimate_never_stabilizes_on_an_isometry",)),
    Mutant("shift disagreement ignored", "index.py",
           "if shifted != final.index:",
           "if False:",
           (INDEX + "test_many_input_ladder_matches_one_input_ladders",
            INDEX + "test_shift_lanes_reproduce_the_two_phase_ladder")),
    # the certified verdict's bounds (index._rung_verdict)
    Mutant("verdict bounds without eps", "index.py",
           "eps, eta = (d + 4) * 2.0 ** -52, 1e-150",
           "eps, eta = 0.0, 1e-150",
           (INDEX + "test_rung_verdict_falls_back_at_the_band_edges",)),
    Mutant("verdict links below tol/2", "index.py",
           "upper * (1 + eps) + eta < cluster_tol / 4",
           "upper * (1 + eps) + eta < cluster_tol / 2",
           (INDEX + "test_rung_verdict_falls_back_at_the_band_edges",)),
    Mutant("verdict fallback skipped", "index.py",
           "if (joined | apart).all():",
           "if True:",
           (INDEX + "test_rung_verdict_sees_a_cross_pair_within_tol_at_one_step",)),
    Mutant("verdict lower bound from the sup", "index.py",
           "(sigma * (1 - eps) - eta)[:, None] - hi",
           "(rho * (1 - eps) - eta)[:, None] - hi",
           (INDEX + "test_rung_verdict_sees_a_cross_pair_within_tol_at_one_step",)),
    # the certifiers' comparisons (contraction): a norm exactly at mu
    # certifies, and an image on a face stays inside
    Mutant("region contraction strictly below mu", "contraction.py",
           "certified=bool(worst <= mu), grid_resolution=counts",
           "certified=bool(worst < mu), grid_resolution=counts",
           (CONTRACTION + "test_a_worst_norm_exactly_at_mu_is_certified",)),
    Mutant("global certificate strictly below mu", "contraction.py",
           "certified=bool(worst <= mu), grid_resolution=(1,)",
           "certified=bool(worst < mu), grid_resolution=(1,)",
           (CONTRACTION + "test_a_worst_norm_exactly_at_mu_is_certified",)),
    Mutant("certified report strictly below mu", "contraction.py",
           "not self.worst_norm <= self.mu",
           "not self.worst_norm < self.mu",
           (CONTRACTION + "test_contraction_report_margin_consistency",)),
    Mutant("invariance off the lower face", "contraction.py",
           "(images >= region.lo[None, :])",
           "(images > region.lo[None, :])",
           (CONTRACTION + "test_region_invariance_keeps_an_image_on_a_face",)),
    Mutant("invariance off the upper face", "contraction.py",
           "(images <= region.hi[None, :])",
           "(images < region.hi[None, :])",
           (CONTRACTION + "test_region_invariance_keeps_an_image_on_a_face",)),
    # separatrix rounds (index._bisect_round) and the commit rule
    # (index._commit_steps)
    Mutant("bisection tree children swapped", "index.py",
           "brackets += [(mid, y), (x, mid)]",
           "brackets += [(x, mid), (mid, y)]",
           (INDEX + "test_bisect_round_matches_full_horizon",
            INDEX + "test_separatrix_rounds_of_any_depth_match_full_horizon")),
    Mutant("bisection path walked one level short", "index.py",
           "for _ in range(levels):",
           "for _ in range(levels - 1):",
           (INDEX + "test_separatrix_rounds_cut_the_kernel_steps",)),
    Mutant("commit ties go to b", "index.py",
           '("a", ha) if ha <= hb',
           '("a", ha) if ha < hb',
           (INDEX + "test_bisect_round_matches_full_horizon",)),
    # verdict gates (index.cluster_asymptotics)
    Mutant("separation gate dropped", "index.py",
           "definite = ambiguous_pairs == 0 and min_separation > cluster_tol",
           "definite = ambiguous_pairs == 0",
           (INDEX + "test_cross_pair_within_tol_at_one_step_degrades_to_indefinite",)),
    Mutant("band gate dropped", "index.py",
           "definite = ambiguous_pairs == 0 and min_separation > cluster_tol",
           "definite = min_separation > cluster_tol",
           (INDEX + "test_band_edges_in_units_of_tol",)),
    Mutant("lower band edge at tol/2", "index.py",
           "(d_max >= cluster_tol / 4)",
           "(d_max >= cluster_tol / 2)",
           (INDEX + "test_band_edges_in_units_of_tol",)),
    Mutant("upper band edge at 2 tol", "index.py",
           "(d_max <= 4 * cluster_tol)",
           "(d_max <= 2 * cluster_tol)",
           (INDEX + "test_band_edges_in_units_of_tol",)),
    Mutant("member 0 as medoid", "index.py",
           "medoid = members[int(np.argmin(sub.max(axis=1)))]",
           "medoid = members[0]",
           (INDEX + "test_representative_is_the_cluster_medoid",)),
    Mutant("linkage strictly below tol", "index.py",
           "_component_labels(d_max <= cluster_tol)",
           "_component_labels(d_max < cluster_tol)",
           (INDEX + "test_linkage_joins_a_pair_exactly_tol_apart",)),
    # refusals of values that are not positive, or not finite
    Mutant("a zero tol accepted", "index.py",
           "if not 0.0 < cluster_tol < np.inf:",
           "if not 0.0 <= cluster_tol < np.inf:",
           (INDEX + "test_clustering_and_bisection_refuse_a_tol_that_is_not_positive",)),
    Mutant("clustering tol unchecked", "index.py",
           "    _check_tol(cluster_tol)\n    tails_full",
           "    tails_full",
           (INDEX + "test_clustering_and_bisection_refuse_a_tol_that_is_not_positive",)),
    Mutant("bisection tol unchecked", "index.py",
           "    _check_tol(cluster_tol)\n    lo = np.asarray",
           "    lo = np.asarray",
           (INDEX + "test_clustering_and_bisection_refuse_a_tol_that_is_not_positive",)),
    Mutant("Hausdorff points unchecked", "index.py",
           "if not (np.isfinite(a).all() and np.isfinite(b).all()):",
           "if False:",
           (INDEX + "test_hausdorff_semidistance_refuses_points_that_are_not_finite",)),
    Mutant("region bounds unchecked", "contraction.py",
           "if not (np.isfinite(lo).all() and np.isfinite(hi).all()):",
           "if False:",
           (CONTRACTION + "test_region_refuses_bounds_that_are_not_finite",
            EXPERIMENTS + "test_cli_certify_refuses_a_region_bound_that_is_not_finite")),
    # the CSV writers (sequences.write_csv, write_member_csv): a block of
    # lines per % call
    Mutant("a table's last partial block dropped", "sequences.py",
           "for block in iter(lambda: list(islice(rows, _CSV_BLOCK)), []))",
           "for block in iter(lambda: list(islice(rows, _CSV_BLOCK)), [])\n"
           "        if len(block) == _CSV_BLOCK)",
           (SEQUENCES + "test_write_csv_formats_every_column_kind",)),
    Mutant("the member template's k column one step late", "sequences.py",
           '",%d" % k + ",%.17g" * d',
           '",%d" % (k + 1) + ",%.17g" * d',
           (INDEX + "test_ensemble_csv_format",
            SEQUENCES + "test_write_member_csv_spells_what_write_csv_does")),
    # the one JSON writer (sequences.json_text)
    Mutant("nan and inf in a float list spelled by repr", "sequences.py",
           'if "n" not in text:',
           "if True:",
           (SEQUENCES + "test_json_text_spells_what_json_dumps_does",)),
    # presets' config: typed where it enters (experiments.resolve_config),
    # and context_task's refusals before training
    Mutant("every override cast to float", "experiments.py",
           "cast = type(default[0] if isinstance(default, list) else default)",
           "cast = float",
           (EXPERIMENTS + "test_overrides_take_their_defaults_types",
            EXPERIMENTS + "test_manifest_records_each_override_in_its_defaults_type")),
    Mutant("an override its type cannot hold let through", "experiments.py",
           "except OverflowError:",
           "except ZeroDivisionError:",
           (EXPERIMENTS + "test_cli_override_out_of_its_types_range_exits_two",)),
    Mutant("two rungs whatever the transients", "experiments.py",
           '(cfg["ic_count"],) * len(cfg["transients"])',
           '(cfg["ic_count"],) * 2',
           (EXPERIMENTS + "test_ladder_presets_take_one_rung_per_transient",)),
    Mutant("training keys below zero accepted", "experiments.py",
           "if not 0 <= cfg[key] < math.inf:",
           "if not cfg[key] < math.inf:",
           (EXPERIMENTS + "test_context_task_refuses_training_keys_that_would_change_the_run",)),
    Mutant("infinite training keys accepted", "experiments.py",
           "if not 0 <= cfg[key] < math.inf:",
           "if not 0 <= cfg[key]:",
           (EXPERIMENTS + "test_context_task_refuses_training_keys_that_would_change_the_run",)),
    Mutant("an input one step short of the reach refused", "experiments.py",
           "if total < protocol.reach:",
           "if total <= protocol.reach:",
           (EXPERIMENTS + "test_context_task_refuses_an_input_short_of_the_ladder_reach",)),
    Mutant("a test with no scored step trained", "experiments.py",
           "if not scored.any():",
           "if False:",
           (EXPERIMENTS + "test_context_task_refuses_an_exclusion_that_scores_no_step",)),
]


def run_tests(src, tests):
    """pytest's exit code for `tests` against the package under `src`."""
    # no bytecode: an edit and its undo can share a size and an mtime second
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "-o", "pythonpath=", *tests]
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main(names):
    mutants = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        sys.exit(f"unknown mutants: {sorted(unknown)}")
    with tempfile.TemporaryDirectory(prefix="echodex-mutants-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        tests = sorted({t for m in mutants for t in m.tests})
        if run_tests(src, tests) != 0:
            sys.exit("the unedited copy fails the named tests; nothing to measure")
        survivors = []
        for m in mutants:
            path = src / "echodex" / m.path
            text = path.read_text()
            if text.count(m.old) != 1:
                sys.exit(f"{m.name}: {m.old!r} occurs {text.count(m.old)} times "
                         f"in {m.path}, not once")
            path.write_text(text.replace(m.old, m.new))
            try:
                code = run_tests(src, m.tests)
            finally:
                path.write_text(text)
            if code not in (0, 1):
                sys.exit(f"{m.name}: pytest exited {code}")
            print(f"{'survived' if code == 0 else 'killed':8}  {m.name}", flush=True)
            if code == 0:
                survivors.append(m.name)
    print(f"{len(mutants) - len(survivors)} of {len(mutants)} killed; "
          f"survivors: {survivors or 'none'}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

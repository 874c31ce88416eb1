#!/usr/bin/env python3
"""Keep retired names retired.

Every answered A/B (DESIGN.md) deleted code; this guard fails when a
name from one of them comes back.  One table: a regular expression, the
files or directories (relative to the repository root) it must not
occur in — a root written ``!path`` is a file the row spares — and
which removal it protects.  Run by the CI lint job and by
``tests/test_retired_names.py``::

    python tools/check_retired_names.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from re import _constants as sre, _parser as sre_parse

REPO = Path(__file__).resolve().parent.parent

EVERYWHERE = ("src", "tests", "benchmarks", "examples")
#: every tree a caller can live in, the two documents that show calls included;
#: this file itself is skipped
CALLERS = (*EVERYWHERE, "tools", ".github", "README.md", "DESIGN.md")
TREEFORCE = ("src/repro/gravity/treeforce.py",)

#: (pattern, roots, what was retired)
RETIRED = [
    (
        r"traverse_cell_cell|FMMGravity|FMMConfig|CellCellLists|segment_sum_bincount"
        r'|_scatter_add_vec|traversal="leaf"|repro\.gravity\.fmm',
        EVERYWHERE,
        "PR 15: the leaf walk, the flat-list evaluator, gravity/fmm.py, the scatter kernels",
    ),
    (
        r"particle_chunks|_corner_sum|make_axis",
        ("src",),
        "PR 16: the per-row pp/prism expansion and the four prism closures",
    ),
    (
        r"_acc_columns|compiled_dtensor_function\(p \+ 1\)|_contract_tile|_cell_weights"
        r"|compiled_dtensor_function\(p, levels\)",
        TREEFORCE,
        "PRs 18, 20: no order-(p+1) tensor, no per-row recurrence, no weight table",
    ),
    (
        r"lacc_|np\.repeat\(a_(src|off)",
        ("src/repro/tree/traversal.py",),
        "PR 20: an accept stays at its sink cell; no per-leaf repeat of the entries",
    ),
    (
        r"prism_passes",
        ("src",),
        "PR 21: one prism pass over the merged boxes (the per-cube pass is a test reference)",
    ),
    (
        r"astype\(np\.float64",
        TREEFORCE,
        "PR 22: no float64 copy of a block; segment_sum alone widens",
    ),
    (
        r"numba|REPRO_FORCE_BACKEND|REPRO_FORCE_PYKERNEL|resolve_backend|run_csr_kernel"
        r"|kernel_threads|cell_emit|cell_leaf_csr",
        ("src", "examples"),
        "PR 23: the compiled force backend, its options and the per-leaf view it walked",
    ),
    (
        r"def _jsonable|_INT_KEYS|_FLOAT_KEYS|_STR_KEYS|gridmcmc",
        ("src",),
        "one JSONL module, one fault grammar",
    ),
    (
        r"m2l_matrix_scatter|_displacement_keys|local_expansions",
        ("src",),
        "M2L by reflection class: no per-signed-class dense matrix",
    ),
    (
        r"repro\.service|repro-serve|REPRO_SERVICE_FAULTS|ServiceFaultPlan|JobService|ClausePlan",
        (*EVERYWHERE, "pyproject.toml", ".github"),
        "the job service, its CLI and the fault grammar's second plan",
    ),
    (
        r"repro-diag|repro\.diagnose\.cli|python -m repro\.diagnose|compare_records|make_baseline"
        r"|timeline_calls|REPRO_WORKERS|REPRO_HEALTH",
        (*EVERYWHERE, "pyproject.toml", ".github"),
        "one observability CLI (repro-obs); the frozen-baseline judge, compare and two env knobs",
    ),
    (
        r"merge_kernel_counters|parallel_forces|_run_local|_merge_stats",
        (*EVERYWHERE, ".github"),
        "one force-call accounting: one stats merge, kernel counters derived from the counts",
    ),
    (
        r"\b(checkpoint_dir|checkpoint_every_steps|checkpoint_interval_s|checkpoint_mtbf_h"
        r"|checkpoint_keep|_make_checkpointer|_config_from_metadata|_SIMCFG_OPERATIONAL"
        r"|min_interval_s)\b",
        (*EVERYWHERE, ".github"),
        "one restart path: checkpoints are asked for only through run(checkpointer=)",
    ),
    (
        r"get_observer|set_observer|use_observer|NULL_OBSERVER|NullObserver|ObserveConfig"
        r"|measure_disabled_overhead|StageProfiler|NULL_PROFILER|NullProfiler|REPRO_OBS_MEMORY"
        r"|speedscope_from_profiler|perfmodel_crosscheck|emit_spans|\.run\([^)]*jsonl=",
        (*EVERYWHERE, ".github"),
        "one recorder: the tracer carries the run registry and the stage profiler",
    ),
    (
        r"direct_potential_energy",
        (*EVERYWHERE, ".github"),
        "a public function earns a caller or goes: the uncalled direct-sum energy",
    ),
    (
        r"\b(NullHealth|NULL_HEALTH|make_health|check_finite|emit_info|probe_samples|p_lattice)\b"
        r"|SimulationConfig\([^)]*\bhealth=",
        (*EVERYWHERE, ".github", "README.md"),
        "one health switch, Simulation(health=), and one non-finite guard on every solve",
    ),
    (
        r"repro\.instrument|from \.\.instrument|JsonlSink|TimerStat|Metrics\(|count_vec|add_vec"
        r"|step_summary_table|append_record|load_manifest",
        (*EVERYWHERE, ".github", "README.md", "DESIGN.md"),
        "one observability package (repro.observe): one JSONL appender, one timer store",
    ),
    (
        r"\bshards_per_(worker)\b",  # grouped, so a grep for the bare name finds none left
        (*EVERYWHERE, ".github", "README.md"),
        "one shard per worker: the pool cuts its sink leaves with parallel.domain.sfc_cut",
    ),
    (
        r"\b(isodensity_halos|knn_density|IsodensityResult|counts_in_spheres_variance"
        r"|TabulatedBackground|write_background_table|read_background_table"
        r"|PseudoParticleCell|fit_pseudo_masses|sphere_nodes)\b"
        r"|analysis\.(isodensity|spheres)\b|cosmology\.tabulated\b|multipoles\.pseudoparticle\b"
        r"|from \.(isodensity|spheres|tabulated|pseudoparticle) import",
        CALLERS,
        "a public name earns a caller or goes: isodensity, spheres, tabulated, pseudo-particles",
    ),
    (
        r"\b(press_schechter_f|potential_error_bound|n_coeffs_order|tophat_window_deriv"
        r"|children_keys|cube_interior_acceleration|checkpoint_write_time|return_permutation)\b"
        r"|\bexpansion\.l2l\b|(?<![\w.\"'])l2l\b",  # not sweep_l2l, not the "gravity.l2l" span
        CALLERS,
        "a public name earns a caller or goes: eight functions and sample_sort's option",
    ),
    (
        r"\.(enclosed_mass|remote_fraction|load_factor|half_kick_state|hubble_distance"
        r"|rho_crit_a|conformal_time)\b|def (enclosed_mass|remote_fraction|load_factor"
        r"|half_kick_state|hubble_distance|rho_crit_a|conformal_time|hubble)\(|\.hubble\(",
        CALLERS,
        "a public name earns a caller or goes: nine methods nothing referenced",
    ),
    (
        r"\bG=|\.G\b|\bG: float",
        ("src", "tests"),
        "G is 1 in code units: no config, spec or function takes it",
    ),
    (
        r"TreePMConfig\([^)]*\btraversal=",
        CALLERS,
        "TreePM's short-range walk is hierarchical: TreePMConfig has no traversal",
    ),
    (
        r"\btraversal[:=]|\b(cfg|spec)\.traversal\b|\bm2l_",
        ("src/repro/gravity/pm.py",),
        "TreePM's short-range walk is hierarchical: no traversal, no M2L pruning",
    ),
    (
        r"\b(max_retries|max_respawns|retry_backoff_s)\b|\bstart_method[:=]|\bfaults="
        r"|\bfaults: (str|FaultPlan)|ForceExecutor\([^)]*\bshard_timeout=",
        ("src/repro/parallel/executor.py", "src/repro/resilience/checkpoint.py",
         "tests", "benchmarks", "examples", "tools"),
        "a setting earns a caller: the pool's knobs are constants or REPRO_* variables",
    ),
    (
        r"\b(cell_chunk|pp_chunk|prism_chunk)\b",
        TREEFORCE,
        "a setting earns a caller: the evaluator's row budgets are module constants",
    ),
    (
        r"evaluate_forces\([^)]*\b(cell|pp)_chunk=",
        CALLERS,
        "a setting earns a caller: tests patch the row budgets instead of passing them",
    ),
    (
        r"\b(dt_divider|pm_grid|adaptive|eta_acc|eta_vel)\s*[:=]"
        r"|\.(dt_divider|pm_grid|adaptive|eta_acc|eta_vel)\b|\bcfg\.transfer\b"
        r"|\btransfer: str|ICConfig\([^)]*\btransfer=",
        CALLERS,
        "a setting earns a caller: SimulationConfig, StepController and ICConfig lose theirs",
    ),
    (
        r"\bblock: int|\bblock=",
        ("src/repro/gravity/direct.py", "src/repro/gravity/ewald.py",
         "src/repro/diagnose/probe.py"),
        "a setting earns a caller: the direct and Ewald block sizes are constants",
    ),
    (
        r"\biters\b",
        ("src/repro/multipoles/bounds.py",),
        "a setting earns a caller: the critical-radius bisection has a fixed step count",
    ),
    (
        r"\bchunk: int|\bchunk=",
        ("src/repro/gravity/localexp.py",),
        "a setting earns a caller: the L2P block size is a constant",
    ),
    (
        r"\b(r_max_frac|rel_step|min_ratio|DEFAULT_MIN_RATIO|n_probe|max_wall_h|osts_requested"
        r"|max_events|moved_fraction|neighbor_spread|bytes_per_particle|buffer_bytes"
        r"|detail_levels|hcell_bytes)\b",
        CALLERS,
        "a setting earns a caller: one-value analysis, model and exchange parameters",
    ),
    (
        r"\.(omega_de_a|omega_r_a|lookback_gyr|a_of_t|z_equality|age_gyr|a_equality|omega_c"
        r"|is_flat|de_density_ratio|growth_ratio|mass_of_radius|time_interval|potential_energy"
        r"|current_path)\b|def (omega_de_a|omega_r_a|lookback_gyr|a_of_t|z_equality|age_gyr"
        r"|a_equality|omega_c|is_flat|de_density_ratio|growth_ratio|mass_of_radius"
        r"|time_interval|potential_energy|current_path)\(",
        CALLERS,
        "a public name earns a caller: sixteen methods only tests called, and two they left",
    ),
    (
        r"force_stage_table|FORCE_STAGE_LABELS|\b(extra_rows|sub_rows)\b"
        r"|stage_breakdown_table\([^)]*\b(total|labels)=",
        CALLERS,
        "a public name earns a caller: the force-stats table only tests rendered",
    ),
]

RETIRED.append((
    r"autotune_chunks|_CELL_CHUNK|_PP_CHUNK|_CELL_PANEL|_CELL_SHIFT_CHUNK|_CELL_MONO_CHUNK"
    r"|_cell_panels|_scaled_monomials|_lowered_columns|_evaluate_cells|\b_runs\("
    r"|compiled_shift_function|generate_shift_source|shift_plan|cell_seconds"
    r"|flops_per_cell_entry|CELL_PARTS|interpreted_shift|force_and_potential",
    # benchmarks/step/run.py still asks for autotune_chunks (and gets None)
    ("src", "tests", "examples", "tools", ".github", "benchmarks/check_step_record.py",
     "README.md"),
    "the compiled evaluator: no numpy cell panels, no polynomial shift, no pp block loop",
))

RETIRED.append((
    r"_leaf_blocks|_PRISM_CHUNK|reduce_into|\bprism_chunk\b|release_scratch|_BUF_POOL"
    r"|util import[^#]*\bscratch\b",
    CALLERS,
    "the compiled prism: no numpy sink-leaf x box tiles, row budget, reduction or scratch pool",
))
RETIRED.append((
    r"_chain_output|\.in_units\b|def in_units\(self|radial_derivs\([^)]*\bout=",
    CALLERS,
    "radial chains in float64 only: the evaluator's C computes its own",
))
RETIRED.append((
    r"\b(m2m|l2p)\(|import[^#]*\b(m2m|l2p)\b|\bexpansion\.(m2m|l2p)\b|np\.add\.at\(moments\b"
    r"|\b_comb\(",
    ("src", "benchmarks", "tools", "examples"),
    "the compiled upward pass and lattice L2P: numpy's m2m, l2p and M2M loop are test references",
))

RETIRED.append((
    r"\.ctypes\.data|_SIGNATURES|native\._bind",
    ("src", "tests", "benchmarks", "examples", "tools", "!src/repro/gravity/native.py"),
    "one declared boundary: the compiled units are called by keyword through native.Unit",
))
RETIRED.append((
    r"SimulationConfig\([^)]*\bws=",
    CALLERS,
    "a setting earns a caller: a simulation traverses the near images |n| <= 1",
))
RETIRED.append((
    r"\bws[:=]|\.ws\b",
    ("src/repro/simulation", "src/repro/pipeline"),
    "a setting earns a caller: a simulation traverses the near images |n| <= 1",
))

RETIRED.append((
    r"bench_force_e2e|bench_force_gate|BENCH_force_gate|bench_parallel_speedup|BENCH_parallel\b"
    r"|REPRO_BENCH_PAR_|REPRO_BENCH_FORCE_ERRTOL|REPRO_BENCH_WORKERS",
    # the historical receipt names the script that wrote it
    (*CALLERS, "!benchmarks/BENCH_force.json"),
    "one evolved-run gate: the answered force A/B and a workers=1 'speedup' curve went",
))

RETIRED.append((
    r"\b(_pair_geometry|_decide)\b",
    ("src",),
    "the compiled walk: numpy's pair geometry and MAC decision are a test reference",
))
RETIRED.append((
    r"\b(WalkRecord|_replay_plan|last_interactions)\b|solve_forces\([^)]*\bprevious=",
    (*CALLERS,),
    "the compiled walk: a fresh walk costs less than replaying the last one",
))
RETIRED.append((
    r"\b(_coalesce_boxes|_background_boxes)\b",
    ("src",),
    "the compiled box merge: numpy's run-merge of the background's cubes is a test reference",
))

SKYMAP, LIGHTCONE = "src/repro/analysis/skymap.py", "src/repro/simulation/lightcone.py"
Z0 = ("src/repro/cosmology/growth.py", "src/repro/cosmology/power.py",
      "src/repro/cosmology/params.py", "src/repro/analysis/massfunction.py")
ONE_VALUE = ("src/repro/gravity/solver.py", "src/repro/observe/registry.py",
             "src/repro/observe/profiler.py", "src/repro/perfmodel/flops.py",
             "src/repro/gravity/ewald.py")

# the second settings sweep, one setting (or a family of them) a row:
# its definition in its module, or a call that set it
RETIRED += [
    (
        r"from_env\((?!cls\)|\))",
        ("src/repro/resilience", "tests", "benchmarks", "examples", "tools"),
        "a setting earns a caller: the fault plan is read from the process environment",
    ),
    (
        r"\bn_bins\b|\bmass: np\.ndarray \| None",
        ("src/repro/analysis/power.py",),
        "a setting earns a caller: P(k) of equal masses in ngrid // 2 bins",
    ),
    (
        r"\b(box|rho_mean)\s*[:=]|[/%*] box\b",
        ("src/repro/analysis/halos.py", SKYMAP),
        "a setting earns a caller: halos are found, and the sky seen, in the unit box",
    ),
    (
        r"\b(observer|iterations)\s*[:=]|\.observer\b",
        (SKYMAP, LIGHTCONE),
        "a setting earns a caller: the observer sits at the box centre; the cone is projected whole",
    ),
    (
        r"\br_(min|max)\b",
        (LIGHTCONE,),
        "a setting earns a caller: the observer sits at the box centre; the cone is projected whole",
    ),
    (
        r"project_to_sky\([^)]*(\[0\.5, 0\.5, 0\.5\]|\bobs\b)|mollweide_xy\([^)]*\biterations="
        r"|LightConeRecorder\([^)]*\bobserver=|\.sky_map\([^)]*,",
        CALLERS,
        "a setting earns a caller: the observer sits at the box centre; the cone is projected whole",
    ),
    (
        r"growth_heath\([^)]*normalize|def (sigma_m|sigma_r|delta2|dn_dlnm)\([^)]*\ba:"
        r"|include_radiation=include_radiation|\*\*kw\) -> CosmologyParams",
        Z0,
        "a setting earns a caller: D(a) normalized to 1 today; sigma and dn/dlnM at z = 0",
    ),
    (
        r"growth_heath\([^)]*normalize=|(sigma_m|sigma_r|delta2|dn_dlnm)\([^)]*\ba=",
        CALLERS,
        "a setting earns a caller: D(a) normalized to 1 today; sigma and dn/dlnM at z = 0",
    ),
    (
        r"def positions_from_keys\([^)]*box|cell = box /|box: float = 1\.0, bits|\(1 << bits\) / box"
        r"|% box\b|partner, box\)|\bbox: float = 1\.0,$|\brng: np\.random|rng or\b",
        ("src/repro/keys/morton.py", "src/repro/keys/hilbert.py", "src/repro/parallel/domain.py"),
        "a setting earns a caller: keys and domains of the unit box, one probe seed",
    ),
    (
        r"mean_density: float \| None|if mean_density is None|key: str \| None = None, limit: int"
        r"|default=DEFAULT_DIR|n: int = 15|rows\[:n\]|interaction_mix: dict, want_potential"
        r"|targets: np\.ndarray \| None = None|self_field",
        ONE_VALUE,
        "a setting earns a caller: one background density, registry window, profile depth,"
        " flop count and Ewald target set",
    ),
    (
        r"\.compute\([^)]*mean_density=|\.series\([^)]*limit=|registry_dir\([^)]*default="
        r"|top_functions\([^)]*\bn=|flops_per_particle\([^)]*want_potential"
        r"|\.accelerations\([^)]*targets=",
        CALLERS,
        "a setting earns a caller: one background density, registry window, profile depth,"
        " flop count and Ewald target set",
    ),
]

#: the one line PR 23 leaves for benchmarks/step/run.py's env stamp
ALLOWED = re.compile(r"^NUMBA_AVAILABLE = False\b")


def needed_literals(items) -> set[str] | None:
    """Strings one of which every match of the parsed pattern ``items``
    contains, or ``None`` when no such set is known."""
    choices, run = [], ""
    for op, arg in items:
        if op is sre.LITERAL:
            run += chr(arg)
            continue
        choices.append({run})
        run, sub = "", None
        if op is sre.SUBPATTERN:
            sub = needed_literals(arg[-1])
        elif op is sre.BRANCH:
            alternatives = [needed_literals(alt) for alt in arg[1]]
            sub = set().union(*alternatives) if all(alternatives) else None
        elif op in (sre.MAX_REPEAT, sre.MIN_REPEAT) and arg[0] >= 1:
            sub = needed_literals(arg[2])
        choices.append(sub)
    choices = [c for c in (*choices, {run}) if c and "" not in c]
    # the choice whose shortest string is longest is the rarest
    return max(choices, key=lambda c: min(map(len, c)), default=None)


def candidate_lines(lines: list[str], text: str, needed: set[str] | None):
    """``(number, line)`` of the ``lines`` (``text``: joined by newlines) holding
    one of ``needed``, or all: ``str.find`` skips the rest faster than a regex."""
    if needed is None:
        return enumerate(lines, 1)
    found = set()
    for s in needed:
        at = text.find(s)
        while at != -1:
            found.add(text.count("\n", 0, at))
            at = text.find("\n", at)
            at = -1 if at == -1 else text.find(s, at)
    return ((n + 1, lines[n]) for n in sorted(found))


def find_retired(repo: Path = REPO) -> list[str]:
    """``path:line: text  [what]`` for every retired name found under ``repo``."""
    this = repo / "tools" / Path(__file__).name
    files_of, lines_of = {}, {}  # each tree listed and each file read once

    def files(root: str) -> list[Path]:
        if root not in files_of:
            top = repo / root
            found = [top] if top.is_file() else sorted(top.rglob("*")) if top.is_dir() else []
            files_of[root] = [f for f in found if f.is_file() and "__pycache__" not in f.parts
                              and f != this]
        return files_of[root]

    def lines(path: Path) -> tuple[list[str], str]:
        if path not in lines_of:
            try:
                split = path.read_text(encoding="utf-8").splitlines()
            except UnicodeDecodeError:
                split = []  # binary: grep -I
            lines_of[path] = split, "\n".join(split)
        return lines_of[path]

    hits = []
    for pattern, roots, what in RETIRED:
        rx = re.compile(pattern)
        # a line that matches holds one of these: only such lines are searched
        parsed = sre_parse.parse(pattern)
        needed = None if parsed.state.flags & re.IGNORECASE else needed_literals(parsed)
        spared = {repo / root[1:] for root in roots if root.startswith("!")}
        for root in roots:
            for path in files(root) if not root.startswith("!") else []:
                if path in spared:
                    continue
                for n, line in candidate_lines(*lines(path), needed):
                    if rx.search(line) and not ALLOWED.match(line):
                        hits.append(f"{path.relative_to(repo)}:{n}: {line.strip()}  [{what}]")
    return hits


def main() -> int:
    hits = find_retired()
    for hit in hits:
        print(hit)
    if hits:
        print(f"{len(hits)} retired name(s) are back", file=sys.stderr)
    return 1 if hits else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Keep retired names retired.

Every answered A/B (DESIGN.md) deleted code; this guard fails when a
name from one of them comes back.  One table: a regular expression, the
files or directories (relative to the repository root) it must not
occur in, and which removal it protects.  Run by the CI lint job and by
``tests/test_retired_names.py``::

    python tools/check_retired_names.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

EVERYWHERE = ("src", "tests", "benchmarks", "examples")
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
]

#: the one line PR 23 leaves for benchmarks/step/run.py's env stamp
ALLOWED = re.compile(r"^NUMBA_AVAILABLE = False\b")


def find_retired(repo: Path = REPO) -> list[str]:
    """``path:line: text  [what]`` for every retired name found under ``repo``."""
    hits = []
    for pattern, roots, what in RETIRED:
        rx = re.compile(pattern)
        for root in roots:
            top = repo / root
            files = [top] if top.is_file() else sorted(top.rglob("*")) if top.is_dir() else []
            for path in files:
                if not path.is_file() or "__pycache__" in path.parts:
                    continue
                try:
                    text = path.read_text(encoding="utf-8")
                except UnicodeDecodeError:
                    continue  # binary: grep -I
                for n, line in enumerate(text.splitlines(), 1):
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

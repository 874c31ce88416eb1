"""§2.2.2 design-choice ablations: cell-cell O(N) and pseudo-particles.

The paper investigated, and rejected, two alternatives to its coded
Cartesian cell-body kernels:

* **cell-cell (O(N)) interactions** — rejected because "the behavior
  of the errors near the outer regions of local expansions are highly
  correlated", forcing extra local order / smaller scales "to the
  point where the benefit of the O(N) method is questionable";
* **pseudo-particle / kernel-independent kernels** — "not as
  efficient as a well-coded multipole interaction routine ... at
  least up to order p = 8".

Regenerated here through the production walk's two modes
(``traversal="fmm-hybrid"`` with the MAC radius collapsed, so the
geometric cell-cell criterion alone decides, against
``"hierarchical"``): the scaling exponents of both, the
edge-of-expansion error growth, and the flop comparison of pseudo vs
Cartesian kernels order by order.
"""

import numpy as np
import pytest

from _simlib import once, print_table
from repro.gravity import (
    TreecodeConfig,
    TreecodeGravity,
    direct_accelerations,
    make_softening,
)
from repro.perfmodel import FLOPS_PER_MONOPOLE_PP, flops_per_cell_interaction
from repro.tree import build_tree, compute_moments, traverse_lists


def test_scaling_on_vs_onlogn(benchmark):
    """Interaction-count growth: cell-cell pair counts grow ~linearly in
    N, the cell-body counts grow ~N log N (per-particle counts grow
    ~log N)."""

    def run():
        rows = []
        rng = np.random.default_rng(0)
        for n in (2048, 8192, 32768):
            pos = rng.random((n, 3))
            mass = np.full(n, 1.0 / n)
            tree = build_tree(pos, mass, nleaf=16)
            # tol=1e30 collapses r_crit: bmax_a + bmax_b < cc_xmax * dist decides
            moms = compute_moments(tree, p=2, tol=1e30)
            cc = traverse_lists(tree, moms, traversal="fmm-hybrid", cc_xmax=0.5)
            moms2 = compute_moments(tree, p=2, tol=1e-4)
            cb = traverse_lists(tree, moms2, traversal="hierarchical")
            rows.append(
                (n, len(cc.m2l_src), cb.n_cell_interactions(tree))
            )
        return rows

    rows = once(benchmark, run)
    print_table(
        "§2.2.2 scaling: M2L pairs (O(N)) vs cell-body interactions (O(N log N))",
        ["N", "M2L pairs", "cell-body interactions"],
        rows,
    )
    n_ratio = rows[-1][0] / rows[0][0]
    m2l_exp = np.log(rows[-1][1] / rows[0][1]) / np.log(n_ratio)
    cb_exp = np.log(rows[-1][2] / rows[0][2]) / np.log(n_ratio)
    print(f"growth exponents: M2L {m2l_exp:.2f} (O(N): 1.0), "
          f"cell-body {cb_exp:.2f} (O(N log N): ~1.1)")
    assert m2l_exp < 1.25
    assert cb_exp > m2l_exp - 0.15


def test_local_expansion_edge_errors(benchmark):
    """Error vs position inside the local-expansion cell: the paper's
    correlated outer-region errors."""

    def run():
        rng = np.random.default_rng(4)
        pos = rng.random((4096, 3))
        mass = np.full(4096, 1.0 / 4096)
        ref = direct_accelerations(pos, mass, softening=make_softening("plummer", 1e-3))
        solver = TreecodeGravity(TreecodeConfig(
            traversal="fmm-hybrid", errtol=1e30, cc_xmax=0.6, p=3,
            background=False, softening="plummer", eps=1e-3,
        ))
        res = solver.compute(pos, mass)
        err = np.linalg.norm(res.acc - ref, axis=1)
        from repro.keys import ancestor_key, cell_geometry, keys_from_positions

        k = keys_from_positions(pos)
        anc = ancestor_key(k, 3)
        c, s = cell_geometry(anc)
        u = np.abs(pos - c).max(axis=1) / (s / 2)
        bins = np.linspace(0, 1, 6)
        med = [
            float(np.median(err[(u >= a) & (u < b)]))
            for a, b in zip(bins[:-1], bins[1:])
        ]
        return bins, med

    bins, med = once(benchmark, run)
    print_table(
        "§2.2.2: FMM error vs normalized distance from local-expansion center",
        ["cell-center distance", "median |err|"],
        [(f"{a:.1f}-{b:.1f}", m) for a, b, m in zip(bins[:-1], bins[1:], med)],
    )
    assert med[-1] > 1.2 * med[0]


def test_pseudo_particle_cost(benchmark):
    """Flops per far-field evaluation: K monopoles vs one Cartesian
    multipole interaction (the paper's efficiency verdict)."""

    def run():
        rows = []
        for p in (2, 4, 6, 8):
            k = 2 * (p + 1) ** 2
            rows.append(
                (p, k, FLOPS_PER_MONOPOLE_PP * k, flops_per_cell_interaction(p))
            )
        return rows

    rows = once(benchmark, run)
    print_table(
        "§2.2.2: pseudo-particle vs Cartesian kernel cost",
        ["order p", "pseudo K", "pseudo flops", "Cartesian flops"],
        rows,
    )
    for p, k, pf, cf in rows:
        assert pf > cf  # "not as efficient ... at least up to order p = 8"
    # the gap does not close with order
    gaps = [pf / cf for _p, _k, pf, cf in rows]
    assert gaps[-1] > 1.0

"""Workloads of the whole-step benchmark: seeded inputs and the config each runs under.

The benchmark generates every input from ``--seed``; the program under
test only ever sees the resulting arrays (a :class:`ParticleSet`) and a
:class:`SimulationConfig`.  Two input families, each run under two
configurations, so every optimisation has a workload that exercises its
mechanism and one that bypasses it (see README.md for the full table).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

#: particles per dimension of the full-size runs, and of ``--quick``
#: (tests only).  As large as the driver's cap allows (92 runs in 3,420 s,
#: so ~30 s a run with slack): a run is K + 2 force solves with K >= 2, a
#: second set-up and 48 reference forces, and one solve costs about
#: 4 / 2 / 5.5 / 3 s on the 2-core, numba-free reference host at this size.
N_PER_DIM = 14
QUICK_N_PER_DIM = 8

#: clump-size spectrum of the clustered input: Pareto quantiles
#: (size_k ~ k^-1/alpha), fixed rather than sampled so that the amount
#: of small-scale work does not depend on the seed
N_CLUMPS = 16
PARETO_ALPHA = 1.5
CLUSTERED_FRACTION = 0.7
#: central overdensity of every clump (a virialised-halo value): the
#: clumps' dynamical time stays resolved by the factor-of-two step ladder
CLUMP_OVERDENSITY = 200.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    inputs: str  # "early" | "clustered"
    #: SimulationConfig fields that differ from the defaults
    overrides: dict = field(default_factory=dict)
    #: workload whose final state this one must reproduce bit for bit
    same_state_as: str | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "early_hier",
            "2LPT lattice at a=0.02, default config: tree depth 3, no ghosts, cell+pp evaluate 83% and "
            "prism 13% of a step; particles barely move, so cross-step reuse must show here",
            "early",
        ),
        Workload(
            "early_hybrid",
            "same inputs, traversal=fmm-hybrid nleaf=8: cell family empty; prism 38%, M2L 35%, pp evaluate "
            "18%, traversal 5% of a step; a cell-kernel gain must read no change here",
            "early",
            {"traversal": "fmm-hybrid", "nleaf": 8},
        ),
        Workload(
            "clustered_hier",
            "70% of the particles in 16 Plummer clumps at a=0.5, default config: tree depth 5 (lattice 3), "
            "ghosts present, tile occupancy 0.24 (lattice 0.67), particles move",
            "clustered",
        ),
        Workload(
            "clustered_hier_w2",
            "same clustered inputs, workers=2: the only workload where parallel.executor works (98% of a "
            "step, 35% of MAC tests re-walked, 1.7x serial); state bit-identical to clustered_hier",
            "clustered",
            {"workers": 2},
            same_state_as="clustered_hier",
        ),
    )
}


#: per input family: the scale factor the run starts at, and the ceiling on
#: |delta Layzer-Irvine| / |W| between the run's first two steps (measured:
#: 2e-4 and 5e-4)
A_INIT = {"early": 0.02, "clustered": 0.5}
LI_CEILING = {"early": 1e-3, "clustered": 2e-2}


def make_config(workload: Workload, quick: bool = False):
    """The :class:`SimulationConfig` a workload runs under.

    Only ``n_per_dim``/``a_init`` (they describe the inputs) and the
    workload's overrides differ from the program's defaults, so the
    default production path is what the ``*_hier`` workloads time.
    """
    from repro.simulation import SimulationConfig

    return SimulationConfig(
        n_per_dim=QUICK_N_PER_DIM if quick else N_PER_DIM,
        a_init=A_INIT[workload.inputs],
        **workload.overrides,
    )


def _plummer_offsets(rng, n: int, scale: float) -> np.ndarray:
    """``n`` displacement vectors drawn from a Plummer sphere."""
    # inverse CDF of the Plummer mass profile, truncated at ~10 scale radii
    u = rng.uniform(0.0, 0.99, n)
    r = scale / np.sqrt(u ** (-2.0 / 3.0) - 1.0)
    cos_t = rng.uniform(-1.0, 1.0, n)
    sin_t = np.sqrt(1.0 - cos_t * cos_t)
    phi = rng.uniform(0.0, 2.0 * np.pi, n)
    return r[:, None] * np.stack(
        [sin_t * np.cos(phi), sin_t * np.sin(phi), cos_t], axis=1
    )


def clump_sizes(n_clustered: int) -> np.ndarray:
    """Particles per clump: Pareto quantiles summing to ``n_clustered``."""
    w = np.arange(1, N_CLUMPS + 1, dtype=np.float64) ** (-1.0 / PARETO_ALPHA)
    sizes = np.floor(w / w.sum() * n_clustered).astype(np.int64)
    sizes[0] += n_clustered - sizes.sum()
    return sizes


def clustered_positions(n: int, seed: int) -> np.ndarray:
    """``n`` positions in the unit box: Plummer clumps over a uniform floor.

    Where the clumps sit is part of the workload, like the lattice of the
    early input: the seed draws the particles, not the geometry, so the
    tree's shape and the interaction counts barely move between seeds.
    """
    centres = np.random.default_rng(0xC1).uniform(0.0, 1.0, (N_CLUMPS, 3))
    rng = np.random.default_rng([seed, 0xC1])
    sizes = clump_sizes(int(round(CLUSTERED_FRACTION * n)))
    parts = [rng.uniform(0.0, 1.0, (n - int(sizes.sum()), 3))]
    for c, m in zip(centres, sizes):
        # Plummer central density 3M / (4 pi b^3) at the chosen overdensity
        scale = (3.0 * (m / n) / (4.0 * np.pi * CLUMP_OVERDENSITY)) ** (1.0 / 3.0)
        parts.append(c + _plummer_offsets(rng, int(m), scale))
    return np.mod(np.concatenate(parts), 1.0)


def make_inputs(inputs: str, n: int, seed: int):
    """Seeded :class:`ParticleSet` of ``n**3`` particles for an input family."""
    from repro.cosmology import PLANCK2013, code_particle_mass
    from repro.simulation import ICConfig, ParticleSet, generate_ic

    if inputs not in A_INIT:
        raise ValueError(f"unknown input family {inputs!r}")
    a = A_INIT[inputs]
    if inputs == "early":
        return generate_ic(PLANCK2013, ICConfig(n_per_dim=n, a_init=a, seed=seed))
    npart = n**3
    return ParticleSet(
        pos=clustered_positions(npart, seed),
        mom=np.zeros((npart, 3)),
        mass=np.full(npart, code_particle_mass(PLANCK2013, npart)),
        ids=np.arange(npart, dtype=np.int64),
        a=a,
        a_mom=a,
    )


def input_hash(particles) -> str:
    """sha256 over the generated positions and masses."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(particles.pos).tobytes())
    h.update(np.ascontiguousarray(particles.mass).tobytes())
    return h.hexdigest()

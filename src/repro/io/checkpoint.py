"""Checkpointing with leapfrog-offset preservation (paper §2.3, §3.4.2).

2HOT's checkpoint files "maintain the leapfrog offset between position
and velocity", so a restart keeps 2nd-order accuracy instead of
degrading to a 1st-order initial step.  A checkpoint here is one SDF
file whose metadata records both epochs (a for positions, a_mom for
momenta) plus the cosmology and box, and whose body holds the particle
arrays.

Restart safety (GADGET-2 treats restart-file correctness as a
first-class contract; Springel 2005 §5.4): ``sim_config=`` records the
*full* :class:`~repro.simulation.driver.SimulationConfig` — engine,
errtol, expansion order, seed, softening, worker count, stepping knobs
— as ``simcfg_*`` metadata, and :func:`load_checkpoint` verifies those
entries against the resuming configuration, raising
:class:`CheckpointConfigMismatch` so a restart can never silently
change the physics.  Durable writes (atomic replace + per-column
checksums) are the only kind; see :mod:`repro.io.sdf`.

This module is the restart record's one codec: :func:`save_checkpoint`
encodes the cosmology and the ``simcfg_*`` entries, and
:func:`cosmology_from_metadata` / :func:`restart_config` decode them.
``simcfg_*`` keys that name no current field (options since retired)
are skipped, so older files still load — unless the field is in
:data:`_RETIRED_SIMCFG` and the file holds a value other than the one
the code now behaves as: that run cannot be continued, and
:class:`CheckpointConfigMismatch` names the field.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..cosmology import PLANCK2013, CosmologyParams
from ..simulation.particles import ParticleSet
from .sdf import read_sdf, write_sdf

__all__ = [
    "CheckpointConfigMismatch",
    "cosmology_from_metadata",
    "save_checkpoint",
    "load_checkpoint",
    "restart_config",
    "sim_config_metadata",
    "verify_sim_config",
]

#: SimulationConfig fields excluded from ``simcfg_*`` metadata: the
#: cosmology is stored through ``params=`` (flat, self-describing).
_SIMCFG_SKIP = frozenset({"cosmology"})

#: retired SimulationConfig fields whose every other value changed the
#: physics -> the value the code now behaves as
_RETIRED_SIMCFG = {"adaptive": True, "dt_divider": 1, "pm_grid": 0, "ws": 1}


def _cosmology_key(field_name: str) -> str:
    """Metadata key of a CosmologyParams field (``name`` is qualified)."""
    return "cosmology_name" if field_name == "name" else field_name


class CheckpointConfigMismatch(ValueError):
    """The resuming configuration disagrees with the checkpoint's."""


def _retired_mismatches(metadata: dict) -> list[str]:
    """The :data:`_RETIRED_SIMCFG` entries ``metadata`` holds at another value."""
    out = []
    for name, value in _RETIRED_SIMCFG.items():
        stored = metadata.get(f"simcfg_{name}")
        if stored is not None and _coerce(stored, value) != value:
            out.append(f"{name}: checkpoint={stored!r}, retired; runs as {value!r}")
    return out


def sim_config_metadata(config) -> dict:
    """Flatten a SimulationConfig into ``simcfg_*`` metadata entries."""
    md = {}
    for f in dataclasses.fields(config):
        if f.name in _SIMCFG_SKIP:
            continue
        v = getattr(config, f.name)
        if v is None:
            continue
        md[f"simcfg_{f.name}"] = v
    return md


def _coerce(stored, reference):
    """Parse a metadata value back to the type of the config field."""
    if reference is None:
        return stored
    if isinstance(reference, bool):
        return bool(int(stored)) if not isinstance(stored, str) else stored == "True"
    return type(reference)(stored)


def cosmology_from_metadata(metadata: dict) -> CosmologyParams:
    """The :class:`CosmologyParams` that ``save_checkpoint(params=)`` recorded."""
    kw = {}
    for f in dataclasses.fields(CosmologyParams):
        key = _cosmology_key(f.name)
        if key in metadata:
            # PLANCK2013 supplies each field's type (four have no default)
            kw[f.name] = _coerce(metadata[key], getattr(PLANCK2013, f.name))
    return CosmologyParams(**kw)


def restart_config(metadata: dict):
    """The full SimulationConfig that ``save_checkpoint(sim_config=)`` recorded."""
    from ..simulation.driver import SimulationConfig

    retired = _retired_mismatches(metadata)
    if retired:
        raise CheckpointConfigMismatch(
            "checkpoint was written with a retired setting: " + "; ".join(retired)
        )
    kw = {}
    for f in dataclasses.fields(SimulationConfig):
        key = f"simcfg_{f.name}"
        if f.name not in _SIMCFG_SKIP and key in metadata:
            kw[f.name] = _coerce(metadata[key], f.default)
    return SimulationConfig(cosmology=cosmology_from_metadata(metadata), **kw)


def verify_sim_config(metadata: dict, config) -> None:
    """Raise :class:`CheckpointConfigMismatch` if ``config`` disagrees
    with the ``simcfg_*`` entries stored in ``metadata``.

    A deliberate change goes through ``Simulation.resume(overrides=)``.
    """
    fields = {f.name for f in dataclasses.fields(config)}
    mismatches = _retired_mismatches(metadata)
    for key, stored in metadata.items():
        if not key.startswith("simcfg_"):
            continue
        name = key[len("simcfg_"):]
        if name not in fields:
            continue
        current = getattr(config, name)
        if _coerce(stored, current) != current:
            mismatches.append(f"{name}: checkpoint={stored!r} != run={current!r}")
    if mismatches:
        raise CheckpointConfigMismatch(
            "resuming configuration would change physics vs checkpoint: "
            + "; ".join(mismatches)
        )


def save_checkpoint(
    path,
    particles: ParticleSet,
    params: CosmologyParams | None = None,
    box_mpc_h: float | None = None,
    git_tag: str | None = None,
    extra_metadata: dict | None = None,
    sim_config=None,
) -> None:
    """Write a restartable snapshot, preserving any leapfrog offset.

    ``sim_config`` records the full simulation configuration (verified
    on load).  The write is atomic with per-column checksums, so a torn
    or bit-flipped file is detected at restart.
    """
    md = {
        "a": particles.a,
        "a_mom": particles.a_mom,
    }
    if params is not None:
        md.update(
            (_cosmology_key(k), v) for k, v in dataclasses.asdict(params).items()
        )
    if box_mpc_h is not None:
        md["box_mpc_h"] = box_mpc_h
    if sim_config is not None:
        md.update(sim_config_metadata(sim_config))
    md.update(extra_metadata or {})
    write_sdf(
        path,
        columns={
            "pos": particles.pos,
            "mom": particles.mom,
            "mass": particles.mass,
            "ident": particles.ids,
        },
        metadata=md,
        git_tag=git_tag,
        checksums=True,
        atomic=True,
    )


def load_checkpoint(path, expect_config=None):
    """Read a checkpoint; returns (ParticleSet, metadata dict).

    Column checksums (when recorded) are always re-verified.  With
    ``expect_config`` the stored ``simcfg_*`` entries are checked
    against it and a disagreement raises
    :class:`CheckpointConfigMismatch`.
    """
    sdf = read_sdf(path)
    cols = sdf.columns
    pos = np.stack([cols["pos_x"], cols["pos_y"], cols["pos_z"]], axis=1)
    mom = np.stack([cols["mom_x"], cols["mom_y"], cols["mom_z"]], axis=1)
    ps = ParticleSet(
        pos=pos,
        mom=mom,
        mass=cols["mass"],
        ids=cols["ident"],
        a=float(sdf.metadata["a"]),
        a_mom=float(sdf.metadata["a_mom"]),
    )
    if expect_config is not None:
        verify_sim_config(sdf.metadata, expect_config)
    return ps, sdf.metadata

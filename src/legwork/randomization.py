"""Declarative domain-randomization ranges and seeded per-episode sampling.

Low-level training randomizes joint damping, joint dry friction, total mass,
surface friction, actuator gain, and the terrain height field, and applies
sticky actions plus periodic torso wrenches. High-level training perturbs
high-level actions with uniform noise; the two-agent task also rescales the
block dimensions. Sticky actions, wrenches and the high-level noise are
drawn as whole-episode schedules up front: the first two from sub-streams
that nothing else reads, the high-level noise from the episode's rollout
generator at a fixed place in its draw order (see
policy.hierarchical_episode).

Every sampler takes an explicit numpy Generator. Distinct concerns use
distinct sub-streams derived from the episode seed with fixed spawn keys
(see substream), so no consumer can disturb another's draws.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigurationError
from .world import DynamicsParams, HeightField

HFIELD_N = 32
HFIELD_WIDTH = 10.0


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (seed, key); fixed keys give fixed streams."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


@dataclass
class RandomizationConfig:
    """Ranges and per-item switches for all randomized quantities."""

    damping_range: tuple = (0.9, 1.1)
    joint_friction_range: tuple = (0.001, 0.005)
    mass_range: tuple = (1.6, 2.0)
    surface_friction_range: tuple = (0.8, 1.2)
    gain_range: tuple = (4.0, 6.0)
    hfield_amplitude_range: tuple = (0.0, 0.050)
    sticky_prob: float = 0.2
    wrench_period: int = 10
    # Shove forces are calibrated against the ~0.6 m/s top walking speed: a
    # 3 N force deflects the nominal agent by ~0.17 m/s (a quarter of top
    # speed). Much larger ranges overpower locomotion entirely and no gait
    # signal survives training.
    wrench_force_range: tuple = (-3.0, 3.0)
    wrench_torque_range: tuple = (-0.3, 0.3)
    highlevel_noise_range: tuple = (-1.0, 1.0)
    object_dim_scale_range: tuple = (0.8, 1.2)

    damping_on: bool = True
    joint_friction_on: bool = True
    mass_on: bool = True
    surface_friction_on: bool = True
    gain_on: bool = True
    height_field_on: bool = True
    sticky_on: bool = True
    wrench_on: bool = True
    highlevel_noise_on: bool = True
    object_dims_on: bool = True

    def __post_init__(self):
        for f in fields(self):
            if f.name.endswith("_range"):
                lo, hi = getattr(self, f.name)
                if not lo <= hi:
                    raise ConfigurationError(f"{f.name}: low {lo} > high {hi}")
        if not 0.0 <= self.sticky_prob <= 1.0:
            raise ConfigurationError("sticky_prob must be in [0, 1]")
        if self.wrench_period < 1:
            raise ConfigurationError("wrench_period must be >= 1")

    @property
    def dynamics_on(self) -> bool:
        """Whether sample_dynamics draws anything."""
        return (self.damping_on or self.joint_friction_on or self.mass_on
                or self.surface_friction_on or self.gain_on)

    @classmethod
    def all_off(cls) -> "RandomizationConfig":
        flags = {f.name: False for f in fields(cls) if f.name.endswith("_on")}
        return cls(**flags)


def _draw(rng, lo, hi, on):
    return float(rng.uniform(lo, hi)) if on else (lo + hi) / 2.0


def sample_dynamics(config: RandomizationConfig, rng: np.random.Generator) -> DynamicsParams:
    """One dynamics realization; disabled items take range midpoints.

    Draw order is fixed (damping, joint friction, mass, surface friction,
    gain) and part of the reproducibility contract. Unless
    config.dynamics_on, rng is never read and may be None.
    """
    damping = _draw(rng, *config.damping_range, config.damping_on)
    friction = _draw(rng, *config.joint_friction_range, config.joint_friction_on)
    mass = _draw(rng, *config.mass_range, config.mass_on)
    surface = _draw(rng, *config.surface_friction_range, config.surface_friction_on)
    gain = _draw(rng, *config.gain_range, config.gain_on)
    return DynamicsParams(joint_damping=damping, joint_friction=friction,
                          actuator_gain=gain, total_mass=mass, surface_friction=surface)


def sample_height_field(config: RandomizationConfig, rng: np.random.Generator) -> HeightField:
    """Random terrain: amplitude drawn from its range, node heights iid
    uniform(0, amplitude). Disabled: flat."""
    if not config.height_field_on:
        return HeightField.flat(HFIELD_N, HFIELD_WIDTH)
    lo, hi = config.hfield_amplitude_range
    amplitude = float(rng.uniform(lo, hi))
    grid = rng.uniform(0.0, amplitude, (HFIELD_N, HFIELD_N))
    return HeightField(grid, width=HFIELD_WIDTH, amplitude=amplitude)


def sticky_schedule(prob: float, rng: np.random.Generator, horizon: int) -> np.ndarray:
    """Which steps of an episode repeat the previous action, shape (horizon,).

    Step 0 never sticks. Each later step t sticks when the t-th uniform draw
    of rng is below prob, so the draws of an episode are one per step, in
    order. prob 0: never sticks, and draws nothing.
    """
    out = np.zeros(horizon, dtype=bool)
    if prob > 0.0:
        out[1:] = rng.uniform(size=horizon - 1) < prob
    return out


def wrench_schedule(config: RandomizationConfig, rng: np.random.Generator,
                    horizon: int) -> np.ndarray:
    """Torso wrench (fx, fy, torque) of every step, shape (horizon, 3): a
    fresh draw every wrench_period steps from step 0, held constant in
    between. Each draw takes fx, fy, then torque. Disabled: zeros, no draws."""
    if not config.wrench_on:
        return np.zeros((horizon, 3))
    n_draws = -(-horizon // config.wrench_period)
    flo, fhi = config.wrench_force_range
    tlo, thi = config.wrench_torque_range
    draws = rng.uniform((flo, flo, tlo), (fhi, fhi, thi), (n_draws, 3))
    return np.repeat(draws, config.wrench_period, axis=0)[:horizon]


def highlevel_noise_schedule(config: RandomizationConfig, rng: np.random.Generator,
                             decisions: int, size: int) -> np.ndarray:
    """Uniform noise added to every high-level action of an episode, shape
    (decisions, size), drawn in one call in row-major order. Disabled:
    zeros, no draws."""
    if not config.highlevel_noise_on:
        return np.zeros((decisions, size))
    lo, hi = config.highlevel_noise_range
    return rng.uniform(lo, hi, (decisions, size))


def sample_object_dims(nominal, rng: np.random.Generator,
                       config: RandomizationConfig):
    """Scale each block half extent by an independent uniform draw."""
    hx, hy = nominal
    if hx <= 0 or hy <= 0:
        raise ConfigurationError("nominal half extents must be positive")
    if not config.object_dims_on:
        return (hx, hy)
    lo, hi = config.object_dim_scale_range
    return (hx * float(rng.uniform(lo, hi)), hy * float(rng.uniform(lo, hi)))

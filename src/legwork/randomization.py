"""Domain-randomization ranges and seeded per-episode sampling.

Randomization is switched on or off per level, never per item
(RandomizationConfig). The low level's randomizations (dynamics) are joint
damping, joint dry friction, total mass, surface friction, actuator gain,
the terrain height field, sticky actions and periodic torso wrenches. The
high level's (task) are uniform noise on its actions and, on the
two-agent task, rescaled block dimensions. The ranges are module
constants. Each range's midpoint is the DynamicsParams default, so a row
with dynamics off takes DynamicsParams() and draws nothing.

Sticky actions, wrenches and the high-level noise are drawn as
whole-episode schedules up front: the first two from sub-streams that
nothing else reads, the high-level noise from the episode's rollout
generator at a fixed place in its draw order (see
policy.hierarchical_episode).

Every sampler takes an explicit numpy Generator. Distinct concerns use
distinct sub-streams derived from the episode seed with fixed spawn keys
(see substream), so no consumer can disturb another's draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .world import DynamicsParams, HeightField

HFIELD_N = 32
HFIELD_WIDTH = 10.0

DAMPING_RANGE = (0.9, 1.1)
JOINT_FRICTION_RANGE = (0.001, 0.005)
MASS_RANGE = (1.6, 2.0)
SURFACE_FRICTION_RANGE = (0.8, 1.2)
GAIN_RANGE = (4.0, 6.0)
HFIELD_AMPLITUDE_RANGE = (0.0, 0.050)
STICKY_PROB = 0.2
WRENCH_PERIOD = 10
# Shove forces are calibrated against the ~0.6 m/s top walking speed: a
# 3 N force deflects the nominal agent by ~0.17 m/s (a quarter of top
# speed). Much larger ranges overpower locomotion entirely and no gait
# signal survives training.
WRENCH_FORCE_RANGE = (-3.0, 3.0)
WRENCH_TORQUE_RANGE = (-0.3, 0.3)
HIGHLEVEL_NOISE_RANGE = (-1.0, 1.0)
OBJECT_DIM_SCALE_RANGE = (0.8, 1.2)


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (seed, key); fixed keys give fixed streams."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


@dataclass
class RandomizationConfig:
    """Which levels' randomizations are on: dynamics (the low level's) and
    task (the high level's)."""

    dynamics: bool = True
    task: bool = True


def sample_dynamics(rng: np.random.Generator) -> DynamicsParams:
    """One dynamics realization. Draw order is fixed (damping, joint
    friction, mass, surface friction, gain) and part of the
    reproducibility contract. One rng.random call gives the values that one
    rng.uniform call per item would: uniform is low + (high - low) * u."""
    ranges = (DAMPING_RANGE, JOINT_FRICTION_RANGE, MASS_RANGE,
              SURFACE_FRICTION_RANGE, GAIN_RANGE)
    damping, friction, mass, surface, gain = (
        lo + (hi - lo) * u for (lo, hi), u in zip(ranges, rng.random(5).tolist()))
    return DynamicsParams(joint_damping=damping, joint_friction=friction,
                          actuator_gain=gain, total_mass=mass, surface_friction=surface)


def sample_height_field(rng: np.random.Generator) -> HeightField:
    """Random terrain: amplitude drawn from its range, node heights iid
    uniform(0, amplitude)."""
    amplitude = float(rng.uniform(*HFIELD_AMPLITUDE_RANGE))
    grid = rng.uniform(0.0, amplitude, (HFIELD_N, HFIELD_N))
    return HeightField(grid, width=HFIELD_WIDTH)


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


def wrench_schedule(rng: np.random.Generator, horizon: int) -> np.ndarray:
    """Torso wrench (fx, fy, torque) of every step, shape (horizon, 3): a
    fresh draw every WRENCH_PERIOD steps from step 0, held constant in
    between. Each draw takes fx, fy, then torque, as rng.uniform with the
    three ranges as bounds would, without its broadcasting overhead."""
    n_draws = -(-horizon // WRENCH_PERIOD)
    flo, fhi = WRENCH_FORCE_RANGE
    tlo, thi = WRENCH_TORQUE_RANGE
    low, high = np.array((flo, flo, tlo)), np.array((fhi, fhi, thi))
    draws = low + (high - low) * rng.random((n_draws, 3))
    return np.repeat(draws, WRENCH_PERIOD, axis=0)[:horizon]


def highlevel_noise_schedule(rng: np.random.Generator, decisions: int,
                             size: int) -> np.ndarray:
    """Uniform noise added to every high-level action of an episode, shape
    (decisions, size), drawn in one call in row-major order."""
    return rng.uniform(*HIGHLEVEL_NOISE_RANGE, (decisions, size))


def sample_object_dims(nominal, rng: np.random.Generator):
    """Scale each block half extent by an independent uniform draw."""
    hx, hy = nominal
    if hx <= 0 or hy <= 0:
        raise ConfigurationError("nominal half extents must be positive")
    lo, hi = OBJECT_DIM_SCALE_RANGE
    return (hx * float(rng.uniform(lo, hi)), hy * float(rng.uniform(lo, hi)))

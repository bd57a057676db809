"""Domain-randomization ranges and seeded per-episode sampling.

Randomization is switched on or off per level, never per item
(RandomizationConfig). The low level's randomizations (dynamics) are joint
damping, joint dry friction, total mass, surface friction, actuator gain
(DRAWN_DYNAMICS), the terrain height field, sticky actions, periodic torso
wrenches and, on every task kind that observes a torso pose (all but
low_goal), uniform +-TORSO_OBS_NOISE on its torso x, y observation slots.
The high level's (task) are uniform noise on its actions and, on the
two-agent task, rescaled block dimensions. The ranges are module
constants. Each range's midpoint is the DynamicsParams default, so a row
with dynamics off takes DynamicsParams() and draws nothing.

Sticky actions, wrenches, the torso noise and the high-level noise are
drawn as whole-episode schedules up front, and an undrawn one is None:
the first three from sub-streams that nothing else reads, the high-level
noise from the episode's rollout generator at a fixed place in its draw
order (see policy.hierarchical_episode).

Every sampler takes an explicit numpy Generator. Distinct concerns use
distinct sub-streams derived from the episode seed with fixed spawn keys,
so no consumer can disturb another's draws, and switching one
randomization off changes no other stream's draws. Sub-stream (seed, key)
is the generator np.random.default_rng(np.random.SeedSequence(seed,
spawn_key=key)), for a seed in [0, 2**64) and key words in [0, 2**32).

substreams builds every generator that an episode batch needs in one pass
over an array of (seed, key) pairs. Building each through SeedSequence
costs about 20 us, most of it in SeedSequence's hash, which runs word by
word; a batch needs about five per row. So seed_state mirrors that hash
(numpy's bit_generator.pyx, whose constants it copies) in uint32 array
arithmetic, which wraps as the hash does, and each pair's state words go to
PCG64 through a seed sequence that returns them. Every stream then draws
exactly what the SeedSequence-built one draws, at about 2 us a generator.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

HFIELD_N = 32

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
TORSO_OBS_NOISE = 0.1  # uniform +- noise on each torso x, y observation slot
# The DynamicsParams fields that sample_dynamics draws, in draw order.
DRAWN_DYNAMICS = {"joint_damping": DAMPING_RANGE, "joint_friction": JOINT_FRICTION_RANGE,
                  "total_mass": MASS_RANGE, "surface_friction": SURFACE_FRICTION_RANGE,
                  "actuator_gain": GAIN_RANGE}


# numpy's SeedSequence hash: a pool of four uint32 words, mixed by
# multiplier chains that start at INIT and step by MULT.
POOL_SIZE = 4
HASH_INIT_A, HASH_MULT_A = 0x43B0D7E5, 0x931E8875  # mixing the entropy in
HASH_INIT_B, HASH_MULT_B = 0x8B51F9DD, 0x58F38DED  # drawing the state out
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _multipliers(init: int, mult: int, n: int) -> np.ndarray:
    """The n + 1 values a multiplier chain takes, (n + 1,) uint32: the hash's
    k-th step xors with entry k and multiplies by entry k + 1. They depend
    on no data."""
    chain = [init]
    for _ in range(n):
        chain.append(chain[-1] * mult & 0xFFFFFFFF)
    return np.array(chain, dtype=np.uint32)


def _hash(words: np.ndarray, chain: np.ndarray) -> np.ndarray:
    """One hash step per column: column k takes the chain's entries k and
    k + 1 (len(chain) is one more than the column count)."""
    out = words ^ chain[:-1]
    out *= chain[1:]
    out ^= out >> 16
    return out


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.uint32(MIX_MULT_L) * x - np.uint32(MIX_MULT_R) * y
    out ^= out >> 16
    return out


def seed_state(seeds, keys, n_words: int) -> np.ndarray:
    """np.random.SeedSequence(seeds[p], spawn_key=keys[p]).generate_state(
    n_words) of every pair p, (pairs, n_words) uint32.

    seeds: (pairs,) or one seed for every pair, each in [0, 2**64); keys:
    (pairs, key words), at least one word, each in [0, 2**32). The entropy
    is the seed's two little-endian words, zero-padded to the pool size (a
    spawn key is given), then the key words.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    keys = np.asarray(keys, dtype=np.uint32)
    n_pairs, n_key = keys.shape
    chain = _multipliers(HASH_INIT_A, HASH_MULT_A, POOL_SIZE * (POOL_SIZE + n_key))
    pool = np.zeros((n_pairs, POOL_SIZE), dtype=np.uint32)
    pool[:, 0] = seeds & 0xFFFFFFFF
    pool[:, 1] = seeds >> 32
    pool = _hash(pool, chain[:POOL_SIZE + 1])
    k = POOL_SIZE  # hash steps taken
    for src in range(POOL_SIZE):  # every entry into every other one
        dst = [d for d in range(POOL_SIZE) if d != src]
        pool[:, dst] = _mix(pool[:, dst],
                            _hash(pool[:, src:src + 1], chain[k:k + POOL_SIZE]))
        k += POOL_SIZE - 1
    for w in range(n_key):  # each key word into every entry
        pool = _mix(pool, _hash(keys[:, w:w + 1], chain[k:k + POOL_SIZE + 1]))
        k += POOL_SIZE
    return _hash(pool[:, np.arange(n_words) % POOL_SIZE],
                 _multipliers(HASH_INIT_B, HASH_MULT_B, n_words))


class _StateWords(np.random.bit_generator.ISeedSequence):
    """A seed sequence whose state is given: PCG64 reads its four uint64
    words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def substreams(seeds, keys) -> Iterator[np.random.Generator]:
    """The generator np.random.default_rng(np.random.SeedSequence(seeds[p],
    spawn_key=keys[p])) of every pair p, in pair order (seed_state takes the
    same seeds and keys). The state words of all pairs come from one pass;
    each generator is built when the iterator reaches it, so a caller that
    drops each one after use keeps few alive."""
    words = np.ascontiguousarray(seed_state(seeds, keys, 8), dtype="<u4").view("<u8")
    return (np.random.Generator(np.random.PCG64(_StateWords(w))) for w in words)


@dataclass(frozen=True)
class RandomizationConfig:
    """Which levels' randomizations are on: dynamics (the low level's) and
    task (the high level's). Each switch is a bool."""

    dynamics: bool = True
    task: bool = True

    def __post_init__(self):
        for name in ("dynamics", "task"):
            value = getattr(self, name)
            if not isinstance(value, (bool, np.bool_)):
                raise ConfigurationError(f"{name} must be a bool, got {value!r}")


def sample_dynamics(rng: np.random.Generator) -> np.ndarray:
    """One dynamics realization: the values of the DRAWN_DYNAMICS fields,
    (5,), in that order, which is the draw order and part of the
    reproducibility contract. One rng.random call gives the values that one
    rng.uniform call per field would: uniform is low + (high - low) * u."""
    low, high = np.array(list(DRAWN_DYNAMICS.values())).T
    return low + (high - low) * rng.random(len(DRAWN_DYNAMICS))


def sample_height_field(rng: np.random.Generator) -> np.ndarray:
    """Random terrain: the (HFIELD_N, HFIELD_N) node heights, iid uniform(0,
    amplitude) with the amplitude drawn from its range; finite and square,
    they go straight into a batch's grid column."""
    amplitude = float(rng.uniform(*HFIELD_AMPLITUDE_RANGE))
    return rng.uniform(0.0, amplitude, (HFIELD_N, HFIELD_N))


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


def sample_object_dims(rng: np.random.Generator) -> np.ndarray:
    """The scales of a block's two half extents, (2,): independent uniform
    draws from OBJECT_DIM_SCALE_RANGE, x's first."""
    return rng.uniform(*OBJECT_DIM_SCALE_RANGE, 2)

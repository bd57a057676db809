"""Task definitions: goal sampling, rewards, initializations, observations,
success predicates, and the episode environment built on the planar world.

Four task kinds. low_goal trains the low level: one agent walks for 40 steps
towards a goal drawn in its spawn frame, sees only its joints and the goal
(mask_low_level_obs), and the episode ends early if it falls. The other
three run 200 steps and never end early: Avoid (reach a target without
disturbing a block), Push (shove a block onto a target), and Coordinate (two
agents move a long block so both of its ends land on their targets). The
kind fixes the agent count, the horizon and the observation size.

Initializations describe one episode (a WorldState and a TaskInstance).
Observations, rewards and success are computed for many episodes at once,
on the rows of a world.Worlds and the matching rows of targets (E, k, 2).

One environment class, TaskEnv, runs E episodes of one kind in lockstep,
one seed per row. Row e draws all its randomness from seeds[e], so its
episode is the same bit for bit whatever rows run beside it. Sub-stream
keys (see substream): 0 terrain, 10+i agent-i dynamics, 20+i agent-i
sticky, 30+i agent-i wrench, 40 initialization geometry (the low_goal
goal), 50 object dimensions, 60 observation noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .policy import LOW_LEVEL_OBS_DIM, mask_low_level_obs
from .randomization import (
    RandomizationConfig,
    sample_dynamics,
    sample_height_field,
    sample_object_dims,
    sticky_schedule,
    substream,
    wrench_schedule,
)
from .world import (
    N_JOINTS,
    AgentState,
    BlockState,
    DynamicsParams,
    HeightField,
    Worlds,
    WorldState,
    hypot,
    step_worlds,
)

TASK_KINDS = ("low_goal", "avoid", "push", "coordinate")

PUSH_BLOCK_HALF = (0.3, 0.3)  # 0.6 x 0.6 footprint
PUSH_BLOCK_MASS = 4.0
COORD_BLOCK_HALF = (0.15, 0.7)  # 0.3 x 1.4 footprint, long axis = body y
COORD_BLOCK_MASS = 8.0
COORD_END_OFFSET = 0.55  # m from center to each tracked block end
COORD_AGENT_GAP = 1.2  # m between the two agents at spawn
COORD_BLOCK_AHEAD = 0.8  # m from the spawn line to the block center

# Below this torso-height proxy the upright penalty fires. 0.12 marks an
# agent genuinely close to the fall threshold; under persistent wrench and
# terrain disturbance the proxy rarely sits near its 0.3 nominal, so higher
# cutoffs penalize every step of ordinary walking and poison training.
UPRIGHT_Z_MIN = 0.12

AGENT_CORE_DIM = 28  # q(12) + qdot(12) + x, y, cos yaw, sin yaw
TASK_OBS_DIM = {"low_goal": LOW_LEVEL_OBS_DIM, "avoid": 32, "push": 32,
                "coordinate": 70}


@dataclass
class TaskSpec:
    """Task kind plus the reward weights and success thresholds. The kind
    fixes the agent count, the horizon and the observation size."""

    kind: str
    bonus: float = 10.0
    avoid_penalty: float = 10.0
    w_upright: float = 5.0
    w_heading: float = 1.0
    bonus_radius: float = 0.5  # target/goal bonus distance
    avoid_block_radius: float = 0.5
    avoid_max_block_move: float = 0.05
    coord_radius: float = 0.3

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise ConfigurationError(f"unknown task kind {self.kind!r}")

    @property
    def n_agents(self) -> int:
        return 2 if self.kind == "coordinate" else 1

    @property
    def horizon(self) -> int:
        return 40 if self.kind == "low_goal" else 200

    @property
    def obs_dim(self) -> int:
        return TASK_OBS_DIM[self.kind]


@dataclass
class TaskInstance:
    """One episode's task: the spec plus this episode's target points."""

    spec: TaskSpec
    targets: np.ndarray  # (1, 2) for low_goal/avoid/push, (2, 2) for coordinate


def _rel_body(x, y, yaw, px, py) -> tuple:
    """(px, py) in the body frame of the agent posed at (x, y, yaw)."""
    c, s = np.cos(yaw), np.sin(yaw)
    dx, dy = px - x, py - y
    return (c * dx + s * dy, -s * dx + c * dy)


def block_ends(x, y, yaw, offset: float = COORD_END_OFFSET) -> np.ndarray:
    """The two tracked end points of blocks posed at (x, y, yaw), at
    +-offset along the long axis: shape (..., 2 ends, 2)."""
    ux, uy = -np.sin(yaw), np.cos(yaw)
    return np.stack([np.stack([x + offset * ux, y + offset * uy], axis=-1),
                     np.stack([x - offset * ux, y - offset * uy], axis=-1)],
                    axis=-2)


# -- observations ----------------------------------------------------------

def agent_core_obs(world: Worlds) -> np.ndarray:
    """(E, A, 28): q, qdot, x, y, cos yaw, sin yaw of every agent."""
    pose = np.stack([world.x, world.y, np.cos(world.yaw), np.sin(world.yaw)],
                    axis=-1)
    return np.concatenate([world.q, world.qdot, pose], axis=-1)


def observe_task(world: Worlds, spec: TaskSpec, targets: np.ndarray) -> np.ndarray:
    """The observation of every row, (E, obs_dim), by task kind.

    low_goal (32): mask_low_level_obs of the agent and its goal.
    avoid, push (32): [agent core (28), target rel. agent body (2),
    block center rel. agent body (2)].
    coordinate (70): [both agent cores (56), block orientation cos/sin (2),
    each target rel. its block end, block frame (4), each block end rel.
    each agent body (8)].
    """
    kind = spec.kind
    if kind == "low_goal":
        return mask_low_level_obs(world, targets)[:, 0]
    if kind in ("avoid", "push"):
        # _rel_body's formulas, written into one array with one cos/sin
        x, y = world.x[:, 0], world.y[:, 0]
        c, s = np.cos(world.yaw[:, 0]), np.sin(world.yaw[:, 0])
        obs = np.empty((len(x), TASK_OBS_DIM[kind]))
        obs[:, 0:12] = world.q[:, 0]
        obs[:, 12:24] = world.qdot[:, 0]
        obs[:, 24], obs[:, 25], obs[:, 26], obs[:, 27] = x, y, c, s
        for col, (px, py) in ((28, (targets[:, 0, 0], targets[:, 0, 1])),
                              (30, (world.bx[:, 0], world.by[:, 0]))):
            dx, dy = px - x, py - y
            obs[:, col] = c * dx + s * dy
            obs[:, col + 1] = -s * dx + c * dy
        return obs
    core = agent_core_obs(world)
    n_rows = len(core)
    if kind == "coordinate":
        byaw = world.byaw[:, 0]
        ends = block_ends(world.bx[:, 0], world.by[:, 0], byaw)  # (E, 2, 2)
        c, s = np.cos(byaw)[:, None], np.sin(byaw)[:, None]
        dx = targets[..., 0] - ends[..., 0]
        dy = targets[..., 1] - ends[..., 1]
        rel_block = np.stack([c * dx + s * dy, -s * dx + c * dy], axis=-1)
        # each agent (axis 1) against each end (axis 2)
        rel_agents = np.stack(_rel_body(world.x[:, :, None], world.y[:, :, None],
                                        world.yaw[:, :, None], ends[:, None, :, 0],
                                        ends[:, None, :, 1]), axis=-1)
        return np.concatenate([core.reshape(n_rows, -1), c, s,
                               rel_block.reshape(n_rows, -1),
                               rel_agents.reshape(n_rows, -1)], axis=-1)
    raise ConfigurationError(f"no task observation for kind {kind!r}")


def torso_xy_slots(n_agents: int) -> list:
    """Observation indices of the torso x, y entries (noise targets)."""
    slots = []
    for i in range(n_agents):
        base = AGENT_CORE_DIM * i
        slots.extend([base + 24, base + 25])
    return slots


# -- rewards ------------------------------------------------------------------
# Each *_reward_terms function returns its terms in a fixed order, each an
# (E,) array; task_reward sums them in that order.

def _upright(z_proxy: np.ndarray, spec: TaskSpec) -> np.ndarray:
    return np.where(z_proxy < UPRIGHT_Z_MIN, -spec.w_upright, 0.0)


def low_level_reward_terms(world: Worlds, spec: TaskSpec, targets: np.ndarray) -> dict:
    x, y, yaw = world.x[:, 0], world.y[:, 0], world.yaw[:, 0]
    dx = targets[:, 0, 0] - x
    dy = targets[:, 0, 1] - y
    d = hypot(dx, dy)
    away = d > 0.0  # direction undefined exactly at the goal
    heading = spec.w_heading * (dx * np.cos(yaw) + dy * np.sin(yaw)) / np.where(away, d, 1.0)
    return {
        "distance": -d,
        "upright": _upright(world.z_proxy[:, 0], spec),
        "heading": np.where(away, heading, 0.0),
        "bonus": np.where(d < spec.bonus_radius, spec.bonus, 0.0),
    }


def avoid_reward_terms(world: Worlds, spec: TaskSpec, targets: np.ndarray) -> dict:
    x, y = world.x[:, 0], world.y[:, 0]
    d_target = hypot(targets[:, 0, 0] - x, targets[:, 0, 1] - y)
    d_block = hypot(world.bx[:, 0] - x, world.by[:, 0] - y)
    return {
        "distance": -d_target,
        "bonus": np.where(d_target < spec.bonus_radius, spec.bonus, 0.0),
        "block_penalty": np.where(d_block < spec.avoid_block_radius,
                                  -spec.avoid_penalty, 0.0),
        "upright": _upright(world.z_proxy[:, 0], spec),
    }


def push_reward_terms(world: Worlds, spec: TaskSpec, targets: np.ndarray) -> dict:
    bx, by = world.bx[:, 0], world.by[:, 0]
    d_ab = hypot(bx - world.x[:, 0], by - world.y[:, 0])
    d_bt = hypot(targets[:, 0, 0] - bx, targets[:, 0, 1] - by)
    return {
        "agent_block": -d_ab,
        "block_target": -d_bt,
        "bonus": np.where(d_bt < spec.bonus_radius, spec.bonus, 0.0),
        "upright": _upright(world.z_proxy[:, 0], spec),
    }


def _end_distances(world: Worlds, targets: np.ndarray) -> tuple:
    ends = block_ends(world.bx[:, 0], world.by[:, 0], world.byaw[:, 0])
    diff = targets - ends
    return (hypot(diff[:, 0, 0], diff[:, 0, 1]), hypot(diff[:, 1, 0], diff[:, 1, 1]))


def coordinate_reward_terms(world: Worlds, spec: TaskSpec, targets: np.ndarray) -> dict:
    d0, d1 = _end_distances(world, targets)
    both = (d0 < spec.coord_radius) & (d1 < spec.coord_radius)
    return {
        "end_0": -d0,
        "end_1": -d1,
        "bonus": np.where(both, spec.bonus, 0.0),
        "upright": _upright(world.z_proxy, spec).sum(axis=1),
    }


REWARD_TERMS = {"low_goal": low_level_reward_terms, "avoid": avoid_reward_terms,
                "push": push_reward_terms, "coordinate": coordinate_reward_terms}


def task_reward(world: Worlds, spec: TaskSpec, targets: np.ndarray) -> np.ndarray:
    """The sum of the kind's reward terms, in their listed order, per row."""
    return sum(REWARD_TERMS[spec.kind](world, spec, targets).values())


# -- initializations ---------------------------------------------------------

def _nominal_world(agents, blocks):
    return WorldState(agents, blocks, HeightField.flat(),
                      [DynamicsParams.nominal()] * len(agents))


def sample_low_level_goal(rng: np.random.Generator) -> np.ndarray:
    """Goal point (u cos v, u sin v), u ~ U(1, 2), v ~ U(-0.5, 0.5), in the
    agent's spawn frame, shape (2,). Draw order: u then v."""
    u = rng.uniform(1.0, 2.0)
    v = rng.uniform(-0.5, 0.5)
    return np.array([u * math.cos(v), u * math.sin(v)])


def init_low_goal(rng: np.random.Generator):
    """low_goal start: one agent at rest at the origin facing +x, no blocks;
    the goal from sample_low_level_goal is the single target."""
    goal = sample_low_level_goal(rng)
    world = _nominal_world([AgentState.at_rest()], [])
    return world, TaskInstance(TaskSpec("low_goal"), goal[None])


def init_avoid(rng: np.random.Generator):
    """Avoid start: agent at the origin facing +x. Draw order: r_T, theta_T,
    the block radius factor U(0.3, 0.8), then the block angle offset."""
    r_t = rng.uniform(1.5, 2.5)
    th_t = rng.uniform(-1.0, 1.0)
    r_b = max(0.6, r_t * rng.uniform(0.3, 0.8))
    th_b = th_t + rng.uniform(-0.5, 0.5)
    target = np.array([[r_t * math.cos(th_t), r_t * math.sin(th_t)]])
    block = BlockState(r_b * math.cos(th_b), r_b * math.sin(th_b), 0.0,
                       PUSH_BLOCK_HALF, PUSH_BLOCK_MASS)
    world = _nominal_world([AgentState.at_rest()], [block])
    return world, TaskInstance(TaskSpec("avoid"), target)


def init_push(rng: np.random.Generator, max_attempts: int = 100):
    """Push start: block placed around the target, re-drawn while it sits
    within 0.5 m of the agent. Draw order: r_T, theta_T, then (r_B, theta_B)
    pairs until accepted."""
    r_t = rng.uniform(1.5, 2.5)
    th_t = rng.uniform(-1.0, 1.0)
    tx, ty = r_t * math.cos(th_t), r_t * math.sin(th_t)
    for _ in range(max_attempts):
        r_b = rng.uniform(0.6, 1.2)
        th_b = rng.uniform(math.pi / 3, 5 * math.pi / 3)
        bx = tx + r_b * math.cos(th_b)
        by = ty + r_b * math.sin(th_b)
        if math.hypot(bx, by) >= 0.5:  # agent spawns at the origin
            block = BlockState(bx, by, 0.0, PUSH_BLOCK_HALF, PUSH_BLOCK_MASS)
            world = _nominal_world([AgentState.at_rest()], [block])
            return world, TaskInstance(TaskSpec("push"),
                                       np.array([[tx, ty]]))
    raise ConfigurationError(
        f"push initialization failed to separate block and agent in {max_attempts} draws")


def init_coordinate(rng: np.random.Generator, half_extents=COORD_BLOCK_HALF):
    """Coordinate start: two agents side by side facing a long block lying
    across their path. Draw order: r_T, theta_T, theta_B offset."""
    r_t = rng.uniform(1.0, 1.5)
    th_t = rng.uniform(-1.0, 1.0)
    th_b = th_t + math.pi / 2 + rng.uniform(-0.5, 0.5)
    cx, cy = r_t * math.cos(th_t), r_t * math.sin(th_t)
    off = COORD_END_OFFSET
    targets = np.array([
        [cx + off * math.cos(th_b), cy + off * math.sin(th_b)],
        [cx - off * math.cos(th_b), cy - off * math.sin(th_b)],
    ])
    agents = [AgentState.at_rest(y=COORD_AGENT_GAP / 2),
              AgentState.at_rest(y=-COORD_AGENT_GAP / 2)]
    block = BlockState(COORD_BLOCK_AHEAD, 0.0, 0.0, half_extents, COORD_BLOCK_MASS)
    world = _nominal_world(agents, [block])
    return world, TaskInstance(TaskSpec("coordinate"), targets)


def fixed_eval_init(kind: str, variant: str = "+"):
    """Fixed evaluation starts mirroring the hardware protocol.

    avoid, push: agent at the origin facing +x, block 1 m ahead, target at
    (2, +0.5) or (2, -0.5) by variant. coordinate: targets are the 1.5 m
    forward translation of the block ends.
    """
    if kind in ("avoid", "push"):
        sign = 1.0 if variant == "+" else -1.0
        block = BlockState(1.0, 0.0, 0.0, PUSH_BLOCK_HALF, PUSH_BLOCK_MASS)
        world = _nominal_world([AgentState.at_rest()], [block])
        targets = np.array([[2.0, sign * 0.5]])
        return world, TaskInstance(TaskSpec(kind), targets)
    if kind == "coordinate":
        agents = [AgentState.at_rest(y=COORD_AGENT_GAP / 2),
                  AgentState.at_rest(y=-COORD_AGENT_GAP / 2)]
        block = BlockState(COORD_BLOCK_AHEAD, 0.0, 0.0, COORD_BLOCK_HALF,
                           COORD_BLOCK_MASS)
        world = _nominal_world(agents, [block])
        targets = block_ends(block.x, block.y, block.yaw) + np.array([1.5, 0.0])
        return world, TaskInstance(TaskSpec("coordinate"), targets)
    raise ConfigurationError(f"no fixed initialization for kind {kind!r}")


# -- success ------------------------------------------------------------------

def target_reached(world: Worlds, spec: TaskSpec, targets: np.ndarray) -> np.ndarray:
    """Whether agent 0 is within bonus_radius of the first target, per row."""
    return hypot(world.x[:, 0] - targets[:, 0, 0],
                 world.y[:, 0] - targets[:, 0, 1]) < spec.bonus_radius


def success(spec: TaskSpec, targets: np.ndarray, start: Worlds, end: Worlds,
            reached: np.ndarray) -> np.ndarray:
    """Success of every row, (E,) bool, from the worlds at the start and at
    the end of the episodes and whether target_reached held at any step.

    low_goal: the agent's final position is within 0.5 m of the goal.
    avoid: the agent came within 0.5 m of the target at some step and the
    block's net displacement stayed below 0.05 m. push: the block's final
    center is within 0.5 m of the target. coordinate: both final block ends
    are within 0.3 m of their targets.
    """
    tx, ty = targets[:, 0, 0], targets[:, 0, 1]
    if spec.kind == "low_goal":
        return hypot(tx - end.x[:, 0], ty - end.y[:, 0]) < spec.bonus_radius
    if spec.kind == "avoid":
        moved = hypot(end.bx[:, 0] - start.bx[:, 0], end.by[:, 0] - start.by[:, 0])
        return reached & (moved < spec.avoid_max_block_move)
    if spec.kind == "push":
        return hypot(end.bx[:, 0] - tx, end.by[:, 0] - ty) < spec.bonus_radius
    d0, d1 = _end_distances(end, targets)
    return (d0 < spec.coord_radius) & (d1 < spec.coord_radius)


# -- environment ----------------------------------------------------------------

@dataclass
class EnvOverrides:
    """Fixed episode conditions used by evaluation environments."""

    params: DynamicsParams
    terrain: HeightField
    sticky_prob: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.sticky_prob <= 1.0:
            raise ConfigurationError("sticky_prob must be in [0, 1]")


@dataclass
class TaskEnvConfig:
    """How a task episode is randomized and initialized. Dynamics, terrain,
    sticky actions and wrenches are drawn under rand's switches (nominal
    when switched off) unless overrides pin them."""

    kind: str
    rand: RandomizationConfig = field(default_factory=RandomizationConfig.all_off)
    torso_obs_noise: float = 0.0  # uniform +-noise on torso xy observation slots
    fixed_init: str | None = None  # None = random init, else "+" or "-"
    overrides: EnvOverrides | None = None

    def __post_init__(self):
        if not 0.0 <= self.torso_obs_noise < math.inf:
            raise ConfigurationError("torso_obs_noise must be finite and >= 0")
        if self.fixed_init not in (None, "+", "-"):
            raise ConfigurationError(
                f"fixed_init must be None, '+' or '-', got {self.fixed_init!r}")


class TaskEnv:
    """E episodes of one task kind, one per seed, stepped in lockstep; joint
    actions are (E, n_agents, 12).

    A low_goal episode ends early when its agent falls. The 200-step tasks
    never end early; fallen agents freeze in place. done marks the rows
    whose episode has ended: they keep their state and are not stepped
    again. obs holds the latest observation of every row, world the latest
    state and start the first, and reached whether target_reached has held
    at any step; construction leaves every episode at its start. sticky
    (E, n_agents, horizon) and wrench
    (E, n_agents, horizon, 3) are each episode's sticky-action and torso
    wrench schedules.
    """

    def __init__(self, config: TaskEnvConfig, seeds):
        spec = TaskSpec(config.kind)
        self.config = config
        self.spec = spec
        self.seeds = list(seeds)
        if not self.seeds:
            raise ConfigurationError("a TaskEnv needs at least one seed")
        self.n_agents = spec.n_agents
        self.horizon = spec.horizon
        starts = [self._episode_start(seed) for seed in self.seeds]
        self.world = Worlds.stack(s[0] for s in starts)
        self.targets, self.sticky, self.wrench = (
            np.stack([s[k] for s in starts]) for k in (1, 2, 3))
        self._obs_noise = (np.stack([s[4] for s in starts])
                           if config.torso_obs_noise > 0.0 else None)
        self._prev_actions = None
        self.t = 0
        self.done = np.zeros(len(self.seeds), dtype=bool)
        self.start = self.world
        self.reached = target_reached(self.world, spec, self.targets)
        self.obs = self._obs()

    def _episode_start(self, seed: int) -> tuple:
        """One episode's start world, targets, sticky and wrench schedules
        and observation noise, each drawn from its own sub-stream of seed."""
        cfg = self.config
        n, horizon = self.n_agents, self.horizon
        rng_init = substream(seed, 40)
        if cfg.fixed_init is not None:
            world, task = fixed_eval_init(cfg.kind, cfg.fixed_init)
        elif cfg.kind == "low_goal":
            world, task = init_low_goal(rng_init)
        elif cfg.kind == "avoid":
            world, task = init_avoid(rng_init)
        elif cfg.kind == "push":
            world, task = init_push(rng_init)
        else:
            half = COORD_BLOCK_HALF
            if cfg.rand.object_dims_on:
                half = sample_object_dims(half, substream(seed, 50), cfg.rand)
            world, task = init_coordinate(rng_init, half_extents=half)

        ov = cfg.overrides
        if ov is not None:
            params, terrain, sticky_prob = [ov.params] * n, ov.terrain, ov.sticky_prob
            wrench = np.zeros((n, horizon, 3))
        else:
            params = [sample_dynamics(cfg.rand, substream(seed, 10 + i))
                      for i in range(n)]
            terrain = sample_height_field(cfg.rand, substream(seed, 0))
            sticky_prob = cfg.rand.sticky_prob if cfg.rand.sticky_on else 0.0
            wrench = np.stack([wrench_schedule(cfg.rand, substream(seed, 30 + i), horizon)
                               for i in range(n)])
        sticky = np.stack([sticky_schedule(sticky_prob, substream(seed, 20 + i), horizon)
                           for i in range(n)])
        noise = None
        if cfg.torso_obs_noise > 0.0:
            eps = cfg.torso_obs_noise
            # one draw per torso slot of every observation, reset included
            noise = substream(seed, 60).uniform(-eps, eps, (horizon + 1, 2 * n))
        return (WorldState(world.agents, world.blocks, terrain, params),
                task.targets, sticky, wrench, noise)

    def _obs(self) -> np.ndarray:
        obs = observe_task(self.world, self.spec, self.targets)
        if self._obs_noise is not None:
            obs[:, torso_xy_slots(self.n_agents)] += self._obs_noise[:, self.t]
        return obs

    def step(self, actions):
        """Advance every row whose episode is running. Returns (obs, rewards,
        done), one entry per row; the rewards of rows that had already
        finished carry no meaning."""
        if self.done.all():
            raise ConfigurationError("every episode already finished")
        acts = np.minimum(np.maximum(np.asarray(actions, dtype=float), -1.0), 1.0)
        shape = (len(self.seeds), self.n_agents, N_JOINTS)
        if acts.shape != shape:
            raise ConfigurationError(f"actions must be {shape}, got {acts.shape}")
        t = self.t
        if t > 0:
            acts = np.where(self.sticky[:, :, t, None], self._prev_actions, acts)
        self._prev_actions = acts
        self.world = step_worlds(self.world, acts, self.wrench[:, :, t], ~self.done)
        reward = task_reward(self.world, self.spec, self.targets)
        self.reached = self.reached | target_reached(self.world, self.spec, self.targets)
        self.t += 1
        done = self.done | (self.t >= self.horizon)
        if self.spec.kind == "low_goal":
            done = done | self.world.fallen[:, 0]
        self.done = done
        self.obs = self._obs()
        return self.obs, reward, self.done

    def episode_success(self) -> np.ndarray:
        return success(self.spec, self.targets, self.start, self.world, self.reached)

"""Task definitions: goal sampling, rewards, initializations, observations,
success predicates, and the episode environment built on the planar world.

Four task kinds. low_goal trains the low level: one agent walks for 40 steps
towards a goal drawn in its spawn frame, sees only its joints and the goal
(mask_low_level_obs), and the episode ends early if it falls. The other
three run 200 steps and never end early: Avoid (reach a target without
disturbing a block), Push (shove a block onto a target), and Coordinate (two
agents move a long block so both of its ends land on their targets). The
kind fixes the agent count, the horizon and the observation size.

One environment class, TaskEnv, runs every kind. It is a one-episode
object: all randomness is derived from the seed passed at construction, so
reset() always rebuilds the identical episode. Sub-stream keys (see
substream): 0 terrain, 10+i agent-i dynamics, 20+i agent-i sticky, 30+i
agent-i wrench, 40 initialization geometry (the low_goal goal), 50 object
dimensions, 60 observation noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .policy import LOW_LEVEL_OBS_DIM, Goal, mask_low_level_obs
from .randomization import (
    RandomizationConfig,
    apply_sticky,
    sample_dynamics,
    sample_height_field,
    sample_object_dims,
    sample_wrench,
    substream,
)
from .world import (
    AgentState,
    BlockState,
    DynamicsParams,
    ExternalWrench,
    HeightField,
    WorldState,
    world_step,
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


@dataclass
class EpisodeTrace:
    """The world after reset and after every step, for success evaluation
    and replay. Stepping never mutates a world state (see world.py), so the
    trace holds the states themselves, not copies."""

    worlds: list = field(default_factory=list)
    rewards: list = field(default_factory=list)  # one fewer than worlds

    def record(self, world: WorldState):
        self.worlds.append(world)


def _rel_body(agent: AgentState, px: float, py: float) -> tuple:
    c, s = math.cos(agent.yaw), math.sin(agent.yaw)
    dx, dy = px - agent.x, py - agent.y
    return (c * dx + s * dy, -s * dx + c * dy)


def block_ends(block: BlockState, offset: float = COORD_END_OFFSET) -> np.ndarray:
    """The two tracked end points, at +-offset along the block's long axis."""
    ux, uy = -math.sin(block.yaw), math.cos(block.yaw)
    return np.array([[block.x + offset * ux, block.y + offset * uy],
                     [block.x - offset * ux, block.y - offset * uy]])


# -- observations ----------------------------------------------------------

def agent_core_obs(agent: AgentState) -> np.ndarray:
    return np.concatenate([agent.q, agent.qdot,
                           [agent.x, agent.y,
                            math.cos(agent.yaw), math.sin(agent.yaw)]])


def observe_task(world: WorldState, task: TaskInstance) -> np.ndarray:
    """The observation of each task kind.

    low_goal (32): mask_low_level_obs of the agent and its goal.
    avoid, push (32): [agent core (28), target rel. agent body (2),
    block center rel. agent body (2)].
    coordinate (70): [both agent cores (56), block orientation cos/sin (2),
    each target rel. its block end, block frame (4), each block end rel.
    each agent body (8)].
    """
    kind = task.spec.kind
    if kind == "low_goal":
        # Python floats: numpy scalars would slow every per-step use
        return mask_low_level_obs(world.agents[0], Goal(*task.targets[0].tolist()))
    if kind in ("avoid", "push"):
        agent = world.agents[0]
        block = world.blocks[0]
        tx, ty = task.targets[0]
        return np.concatenate([
            agent_core_obs(agent),
            _rel_body(agent, tx, ty),
            _rel_body(agent, block.x, block.y),
        ])
    if kind == "coordinate":
        a0, a1 = world.agents
        block = world.blocks[0]
        ends = block_ends(block)
        c, s = math.cos(block.yaw), math.sin(block.yaw)
        rel_block = []
        for k in range(2):
            dx = task.targets[k][0] - ends[k][0]
            dy = task.targets[k][1] - ends[k][1]
            rel_block.extend([c * dx + s * dy, -s * dx + c * dy])
        rel_agents = []
        for ag in (a0, a1):
            for k in range(2):
                rel_agents.extend(_rel_body(ag, ends[k][0], ends[k][1]))
        return np.concatenate([
            agent_core_obs(a0), agent_core_obs(a1),
            [c, s], rel_block, rel_agents,
        ])
    raise ConfigurationError(f"no task observation for kind {kind!r}")


def torso_xy_slots(n_agents: int) -> list:
    """Observation indices of the torso x, y entries (noise targets)."""
    slots = []
    for i in range(n_agents):
        base = AGENT_CORE_DIM * i
        slots.extend([base + 24, base + 25])
    return slots


# -- rewards ------------------------------------------------------------------

def _upright(agent: AgentState, spec: TaskSpec) -> float:
    return -spec.w_upright if agent.z_proxy < UPRIGHT_Z_MIN else 0.0


def low_level_reward_terms(world: WorldState, task: TaskInstance) -> dict:
    agent = world.agents[0]
    spec = task.spec
    gx, gy = task.targets[0].tolist()
    d = math.hypot(gx - agent.x, gy - agent.y)
    terms = {
        "distance": -d,
        "upright": _upright(agent, spec),
        "heading": 0.0,
        "bonus": spec.bonus if d < spec.bonus_radius else 0.0,
    }
    if d > 0.0:  # direction undefined exactly at the goal
        hx, hy = math.cos(agent.yaw), math.sin(agent.yaw)
        terms["heading"] = spec.w_heading * ((gx - agent.x) * hx
                                             + (gy - agent.y) * hy) / d
    return terms


def avoid_reward_terms(world: WorldState, task: TaskInstance) -> dict:
    agent = world.agents[0]
    block = world.blocks[0]
    spec = task.spec
    d_target = math.hypot(task.targets[0][0] - agent.x, task.targets[0][1] - agent.y)
    d_block = math.hypot(block.x - agent.x, block.y - agent.y)
    return {
        "distance": -d_target,
        "bonus": spec.bonus if d_target < spec.bonus_radius else 0.0,
        "block_penalty": -spec.avoid_penalty if d_block < spec.avoid_block_radius else 0.0,
        "upright": _upright(agent, spec),
    }


def push_reward_terms(world: WorldState, task: TaskInstance) -> dict:
    agent = world.agents[0]
    block = world.blocks[0]
    spec = task.spec
    d_ab = math.hypot(block.x - agent.x, block.y - agent.y)
    d_bt = math.hypot(task.targets[0][0] - block.x, task.targets[0][1] - block.y)
    return {
        "agent_block": -d_ab,
        "block_target": -d_bt,
        "bonus": spec.bonus if d_bt < spec.bonus_radius else 0.0,
        "upright": _upright(agent, spec),
    }


def coordinate_reward_terms(world: WorldState, task: TaskInstance) -> dict:
    spec = task.spec
    ends = block_ends(world.blocks[0])
    d0 = math.hypot(*(task.targets[0] - ends[0]))
    d1 = math.hypot(*(task.targets[1] - ends[1]))
    return {
        "end_0": -d0,
        "end_1": -d1,
        "bonus": spec.bonus if (d0 < spec.coord_radius and d1 < spec.coord_radius) else 0.0,
        "upright": sum(_upright(a, spec) for a in world.agents),
    }


REWARD_TERMS = {"low_goal": low_level_reward_terms, "avoid": avoid_reward_terms,
                "push": push_reward_terms, "coordinate": coordinate_reward_terms}


def task_reward(world: WorldState, task: TaskInstance) -> float:
    """The sum of the kind's reward terms, in their listed order."""
    return sum(REWARD_TERMS[task.spec.kind](world, task).values())


# -- initializations ---------------------------------------------------------

def _nominal_world(agents, blocks):
    return WorldState(agents, blocks, HeightField.flat(),
                      [DynamicsParams.nominal()] * len(agents))


def sample_low_level_goal(rng: np.random.Generator) -> Goal:
    """Goal = (u cos v, u sin v), u ~ U(1, 2), v ~ U(-0.5, 0.5), in the
    agent's spawn frame. Draw order: u then v."""
    u = rng.uniform(1.0, 2.0)
    v = rng.uniform(-0.5, 0.5)
    return Goal(u * math.cos(v), u * math.sin(v))


def init_low_goal(rng: np.random.Generator):
    """low_goal start: one agent at rest at the origin facing +x, no blocks;
    the goal from sample_low_level_goal is the single target."""
    goal = sample_low_level_goal(rng)
    world = _nominal_world([AgentState.at_rest()], [])
    return world, TaskInstance(TaskSpec("low_goal"), np.array([[goal.gx, goal.gy]]))


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
        targets = block_ends(block) + np.array([1.5, 0.0])
        return world, TaskInstance(TaskSpec("coordinate"), targets)
    raise ConfigurationError(f"no fixed initialization for kind {kind!r}")


# -- success ------------------------------------------------------------------

def success(task: TaskInstance, trace: EpisodeTrace) -> bool:
    """Success predicates per task.

    low_goal: the agent's final position is within 0.5 m of the goal.
    avoid: the agent came within 0.5 m of the target at some step and the
    block's net displacement stayed below 0.05 m. push: the block's final
    center is within 0.5 m of the target. coordinate: both final block ends
    are within 0.3 m of their targets.
    """
    spec = task.spec
    tx, ty = task.targets[0]
    last = trace.worlds[-1]
    if spec.kind == "low_goal":
        agent = last.agents[0]
        return math.hypot(tx - agent.x, ty - agent.y) < spec.bonus_radius
    if spec.kind == "avoid":
        reached = any(
            math.hypot(w.agents[0].x - tx, w.agents[0].y - ty) < spec.bonus_radius
            for w in trace.worlds)
        b0 = trace.worlds[0].blocks[0]
        b1 = last.blocks[0]
        moved = math.hypot(b1.x - b0.x, b1.y - b0.y)
        return reached and moved < spec.avoid_max_block_move
    if spec.kind == "push":
        b = last.blocks[0]
        return math.hypot(b.x - tx, b.y - ty) < spec.bonus_radius
    ends = block_ends(last.blocks[0])
    d0 = math.hypot(*(task.targets[0] - ends[0]))
    d1 = math.hypot(*(task.targets[1] - ends[1]))
    return d0 < spec.coord_radius and d1 < spec.coord_radius


# -- environment ----------------------------------------------------------------

@dataclass
class EnvOverrides:
    """Fixed episode conditions used by evaluation environments."""

    params: DynamicsParams
    terrain: HeightField
    sticky_prob: float = 0.0


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


class TaskEnv:
    """One episode of any task kind; joint actions are (n_agents, 12).

    A low_goal episode ends early when its agent falls. The 200-step tasks
    never end early; fallen agents freeze in place. obs holds the latest
    observation; construction leaves the env reset.
    """

    def __init__(self, config: TaskEnvConfig, seed: int):
        spec = TaskSpec(config.kind)
        self.config = config
        self.seed = seed
        self.n_agents = spec.n_agents
        self.horizon = spec.horizon
        self.reset()

    def reset(self) -> np.ndarray:
        cfg = self.config
        rng_init = substream(self.seed, 40)
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
                half = sample_object_dims(half, substream(self.seed, 50), cfg.rand)
            world, task = init_coordinate(rng_init, half_extents=half)
        self.task = task

        ov = cfg.overrides
        if ov is not None:
            params = [ov.params] * self.n_agents
            terrain = ov.terrain
            self.sticky_prob = ov.sticky_prob
            self.wrench_on = False
        else:
            params = [sample_dynamics(cfg.rand, substream(self.seed, 10 + i))
                      for i in range(self.n_agents)]
            terrain = sample_height_field(cfg.rand, substream(self.seed, 0))
            self.sticky_prob = cfg.rand.sticky_prob if cfg.rand.sticky_on else 0.0
            self.wrench_on = cfg.rand.wrench_on
        self.world = WorldState(world.agents, world.blocks, terrain, params)

        self._rng_sticky = [substream(self.seed, 20 + i) for i in range(self.n_agents)]
        self._rng_wrench = [substream(self.seed, 30 + i) for i in range(self.n_agents)]
        self._rng_obs = (substream(self.seed, 60) if cfg.torso_obs_noise > 0.0
                         else None)
        self._prev_actions = [None] * self.n_agents
        self._wrenches = [ExternalWrench.zero()] * self.n_agents
        self.t = 0
        self.done = False
        self.trace = EpisodeTrace()
        self.trace.record(self.world)
        self.obs = self._obs()
        return self.obs

    def _obs(self) -> np.ndarray:
        obs = observe_task(self.world, self.task)
        if self._rng_obs is not None:
            eps = self.config.torso_obs_noise
            for slot in torso_xy_slots(self.n_agents):
                obs[slot] += self._rng_obs.uniform(-eps, eps)
        return obs

    def agent_states(self):
        return self.world.agents

    def step(self, actions):
        if self.done:
            raise ConfigurationError("episode already finished")
        acts = np.asarray(actions, dtype=float).clip(-1.0, 1.0)
        if acts.shape != (self.n_agents, 12):
            raise ConfigurationError(
                f"actions must be ({self.n_agents}, 12), got {acts.shape}")
        stepped = []
        for i in range(self.n_agents):
            a = acts[i]
            if self.sticky_prob > 0.0:
                a = apply_sticky(a, self._prev_actions[i], self._rng_sticky[i],
                                 self.sticky_prob)
            self._prev_actions[i] = a
            if self.wrench_on:
                self._wrenches[i] = sample_wrench(self.t, self._rng_wrench[i],
                                                  self.config.rand,
                                                  self._wrenches[i])
            stepped.append(a)
        self.world = world_step(self.world, stepped, self._wrenches)
        reward = task_reward(self.world, self.task)
        self.trace.record(self.world)
        self.trace.rewards.append(reward)
        self.t += 1
        self.done = self.t >= self.horizon or (
            self.config.kind == "low_goal" and self.world.agents[0].fallen)
        self.obs = self._obs()
        return self.obs, reward, self.done, {}

    def episode_success(self) -> bool:
        return success(self.task, self.trace)

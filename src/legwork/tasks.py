"""Task definitions: goal sampling, rewards, initializations, observations,
and the episode environment built on the planar world.

Four task kinds. low_goal trains the low level: one agent walks for 40 steps
towards a goal drawn in its spawn frame, sees only its joints and the goal
(mask_low_level_obs), and the episode ends early if it falls. The other
three run 200 steps and never end early: Avoid (reach a target without
disturbing a block), Push (shove a block onto a target), and Coordinate (two
agents move a long block so both of its ends land on their targets). The
kind fixes the agent count, the horizon and the observation size (the
tables N_AGENTS, HORIZON and TASK_OBS_DIM); the reward weights and goal
radii are module constants, the same for every kind.

Initializations return one episode's numbers: its targets and its block's
center; the fixed evaluation starts are one read-only table of them,
FIXED_STARTS[(kind, variant)], whose variants TaskEnvConfig.fixed_init
names. Observations and rewards are computed for many episodes at once,
on the rows of a world.Worlds and the matching rows of targets (E, k, 2).
observe_task is one writer for avoid, push and coordinate: it fills one
(E, obs_dim) array, computes each agent's cos and sin of yaw once, and
turns every point into a body frame with world.body_frame, the rotation
the low level's goal (mask_low_level_obs) goes through too.

One environment class, TaskEnv, runs E episodes of one kind in lockstep,
one seed per row. Row e draws all its randomness from seeds[e], so its
episode is the same bit for bit whatever rows run beside it. Sub-stream
keys (see substreams): 0 terrain, 10+i agent-i dynamics, 20+i agent-i
sticky, 30+i agent-i wrench, 40 initialization geometry, 50 object
dimensions, 60 torso observation noise. A sub-stream is built only where
a randomization is switched on, so switched-off ones cost nothing: with
rand.dynamics off no row builds 0, 10+i, 20+i, 30+i or 60 (60 only on a
kind that observes a torso pose, not low_goal), and with rand.task off
none builds 50. Construction builds every row's sub-streams in one
substreams call; a schedule that no row draws is None.

The work sits at the two ends of an episode batch. Construction allocates
each state column once for all rows, and each row writes its draws into
its slots. Stepping advances the dynamics only: the observation is
computed when first read at a step, and TaskEnv.score() gives the
rewards of all steps and each row's success from one task_reward call
after the last. Its formulas are elementwise per row, so they give the
bits that scoring each step would. Each kind's goal test is written once,
as the condition of its reward's bonus term.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from types import SimpleNamespace

import numpy as np

from .errors import ConfigurationError, check_real, check_word
from .policy import LOW_LEVEL_OBS_DIM, mask_low_level_obs
from .randomization import (
    DRAWN_DYNAMICS,
    HFIELD_N,
    STICKY_PROB,
    TORSO_OBS_NOISE,
    RandomizationConfig,
    sample_dynamics,
    sample_height_field,
    sample_object_dims,
    sticky_schedule,
    substreams,
    wrench_schedule,
)
from .world import (
    N_JOINTS,
    Z0,
    DynamicsParams,
    Worlds,
    body_frame,
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

# reward weights and goal radii (a goal is met where its bonus is paid)
BONUS = 10.0
AVOID_PENALTY = 10.0
W_UPRIGHT = 5.0
W_HEADING = 1.0
BONUS_RADIUS = 0.5  # target/goal bonus distance
AVOID_BLOCK_RADIUS = 0.5
AVOID_MAX_BLOCK_MOVE = 0.05
COORD_RADIUS = 0.3

AGENT_CORE_DIM = 28  # q(12) + qdot(12) + x, y, cos yaw, sin yaw
N_AGENTS = {"low_goal": 1, "avoid": 1, "push": 1, "coordinate": 2}
HORIZON = {"low_goal": 40, "avoid": 200, "push": 200, "coordinate": 200}
TASK_OBS_DIM = {"low_goal": LOW_LEVEL_OBS_DIM, "avoid": 32, "push": 32,
                "coordinate": 70}


def block_ends(x, y, yaw) -> np.ndarray:
    """The two tracked end points of blocks posed at (x, y, yaw), at
    +-COORD_END_OFFSET along the long axis: shape (..., 2 ends, 2)."""
    offset = COORD_END_OFFSET
    ux, uy = -np.sin(yaw), np.cos(yaw)
    return np.stack([np.stack([x + offset * ux, y + offset * uy], axis=-1),
                     np.stack([x - offset * ux, y - offset * uy], axis=-1)],
                    axis=-2)


# -- observations ----------------------------------------------------------

def observe_task(world: Worlds, kind: str, targets: np.ndarray) -> np.ndarray:
    """The observation of every row, (E, obs_dim), by task kind.

    low_goal (32): mask_low_level_obs of the agent and its goal.
    The others start with each agent's core (28): q (12), qdot (12), x, y,
    cos yaw, sin yaw. Then:
    avoid, push (32): the target and the block center, each in the agent's
    body frame (2 + 2).
    coordinate (70): the block's cos yaw, sin yaw (2); each target rel.
    its block end, in the block frame (4); each block end in each agent's
    body frame, agent by agent (8).
    """
    if kind == "low_goal":
        return mask_low_level_obs(world, targets)[:, 0]
    if kind not in ("avoid", "push", "coordinate"):
        raise ConfigurationError(f"no task observation for kind {kind!r}")
    n_rows, n = world.x.shape
    c, s = np.cos(world.yaw), np.sin(world.yaw)
    obs = np.empty((n_rows, TASK_OBS_DIM[kind]))
    col = AGENT_CORE_DIM * n
    core = obs[:, :col].reshape(n_rows, n, AGENT_CORE_DIM)
    core[..., 0:12] = world.q
    core[..., 12:24] = world.qdot
    core[..., 24], core[..., 25], core[..., 26], core[..., 27] = world.x, world.y, c, s
    if kind == "coordinate":
        byaw = world.byaw[:, 0]
        ends = block_ends(world.bx[:, 0], world.by[:, 0], byaw)  # (E, 2, 2)
        bc, bs = np.cos(byaw), np.sin(byaw)
        obs[:, col], obs[:, col + 1] = bc, bs
        rel_block = obs[:, col + 2:col + 6].reshape(n_rows, 2, 2)
        rel_block[..., 0], rel_block[..., 1] = body_frame(
            bc[:, None], bs[:, None],
            targets[..., 0] - ends[..., 0], targets[..., 1] - ends[..., 1])
        col += 6
        points = [(ends[:, None, j, 0], ends[:, None, j, 1]) for j in range(2)]
    else:  # the target, then the block center
        points = [(targets[..., 0], targets[..., 1]), (world.bx, world.by)]
    # each point (E, 1) against every agent (E, A)
    rel = obs[:, col:].reshape(n_rows, n, len(points), 2)
    for j, (px, py) in enumerate(points):
        rel[:, :, j, 0], rel[:, :, j, 1] = body_frame(c, s, px - world.x, py - world.y)
    return obs


def torso_xy_slots(n_agents: int) -> list:
    """Observation indices of the torso x, y entries (noise targets)."""
    return [AGENT_CORE_DIM * i + j for i in range(n_agents) for j in (24, 25)]


# -- rewards ------------------------------------------------------------------
# Each *_reward_terms function returns its terms in a fixed order, each an
# (E,) array; task_reward sums them in that order, and the bonus term is
# paid exactly where the kind's goal is met. world is a Worlds, or
# any object that holds the kind's SCORED columns (TaskEnv.score).

def _upright(z_proxy: np.ndarray) -> np.ndarray:
    return np.where(z_proxy < UPRIGHT_Z_MIN, -W_UPRIGHT, 0.0)


def low_level_reward_terms(world: Worlds, targets: np.ndarray) -> dict:
    x, y, yaw = world.x[:, 0], world.y[:, 0], world.yaw[:, 0]
    dx = targets[:, 0, 0] - x
    dy = targets[:, 0, 1] - y
    d = hypot(dx, dy)
    away = d > 0.0  # direction undefined exactly at the goal
    heading = W_HEADING * (dx * np.cos(yaw) + dy * np.sin(yaw)) / np.where(away, d, 1.0)
    return {
        "distance": -d,
        "upright": _upright(world.z_proxy[:, 0]),
        "heading": np.where(away, heading, 0.0),
        "bonus": np.where(d < BONUS_RADIUS, BONUS, 0.0),
    }


def avoid_reward_terms(world: Worlds, targets: np.ndarray) -> dict:
    x, y = world.x[:, 0], world.y[:, 0]
    d_target = hypot(targets[:, 0, 0] - x, targets[:, 0, 1] - y)
    d_block = hypot(world.bx[:, 0] - x, world.by[:, 0] - y)
    return {
        "distance": -d_target,
        "bonus": np.where(d_target < BONUS_RADIUS, BONUS, 0.0),
        "block_penalty": np.where(d_block < AVOID_BLOCK_RADIUS, -AVOID_PENALTY, 0.0),
        "upright": _upright(world.z_proxy[:, 0]),
    }


def push_reward_terms(world: Worlds, targets: np.ndarray) -> dict:
    bx, by = world.bx[:, 0], world.by[:, 0]
    d_ab = hypot(bx - world.x[:, 0], by - world.y[:, 0])
    d_bt = hypot(targets[:, 0, 0] - bx, targets[:, 0, 1] - by)
    return {
        "agent_block": -d_ab,
        "block_target": -d_bt,
        "bonus": np.where(d_bt < BONUS_RADIUS, BONUS, 0.0),
        "upright": _upright(world.z_proxy[:, 0]),
    }


def coordinate_reward_terms(world: Worlds, targets: np.ndarray) -> dict:
    diff = targets - block_ends(world.bx[:, 0], world.by[:, 0], world.byaw[:, 0])
    d0 = hypot(diff[:, 0, 0], diff[:, 0, 1])
    d1 = hypot(diff[:, 1, 0], diff[:, 1, 1])
    both = (d0 < COORD_RADIUS) & (d1 < COORD_RADIUS)
    return {
        "end_0": -d0,
        "end_1": -d1,
        "bonus": np.where(both, BONUS, 0.0),
        "upright": _upright(world.z_proxy).sum(axis=1),
    }


REWARD_TERMS = {"low_goal": low_level_reward_terms, "avoid": avoid_reward_terms,
                "push": push_reward_terms, "coordinate": coordinate_reward_terms}


def task_reward(world: Worlds, kind: str, targets: np.ndarray) -> tuple:
    """(reward, goal_met) per row: the sum of the kind's reward terms, in
    their listed order, and whether the row's state meets the kind's goal
    (its bonus term is paid), (E,) each."""
    terms = REWARD_TERMS[kind](world, targets)
    return sum(terms.values()), terms["bonus"] > 0.0


# -- initializations ---------------------------------------------------------
# Each returns one episode's targets (k, 2) and its block's center (x, y),
# None for low_goal, which has no block. Agents start at rest: one at the
# origin facing +x, or for coordinate two side by side at y = +-0.6; the
# blocks start with yaw 0 (TaskEnv writes these into a batch's rows).

def init_low_goal(rng: np.random.Generator):
    """low_goal start: the single target is the goal point (u cos v,
    u sin v), u ~ U(1, 2), v ~ U(-0.5, 0.5), in the agent's spawn frame; no
    block. Draw order: u then v."""
    u = rng.uniform(1.0, 2.0)
    v = rng.uniform(-0.5, 0.5)
    return np.array([[u * math.cos(v), u * math.sin(v)]]), None


def init_avoid(rng: np.random.Generator):
    """Avoid start. Draw order: r_T, theta_T, the block radius factor
    U(0.3, 0.8), then the block angle offset."""
    r_t = rng.uniform(1.5, 2.5)
    th_t = rng.uniform(-1.0, 1.0)
    r_b = max(0.6, r_t * rng.uniform(0.3, 0.8))
    th_b = th_t + rng.uniform(-0.5, 0.5)
    target = np.array([[r_t * math.cos(th_t), r_t * math.sin(th_t)]])
    return target, (r_b * math.cos(th_b), r_b * math.sin(th_b))


PUSH_INIT_ATTEMPTS = 100  # block draws before init_push gives up


def init_push(rng: np.random.Generator):
    """Push start: block placed around the target, re-drawn while it sits
    within 0.5 m of the agent. Draw order: r_T, theta_T, then (r_B, theta_B)
    pairs until accepted, at most PUSH_INIT_ATTEMPTS of them."""
    r_t = rng.uniform(1.5, 2.5)
    th_t = rng.uniform(-1.0, 1.0)
    tx, ty = r_t * math.cos(th_t), r_t * math.sin(th_t)
    for _ in range(PUSH_INIT_ATTEMPTS):
        r_b = rng.uniform(0.6, 1.2)
        th_b = rng.uniform(math.pi / 3, 5 * math.pi / 3)
        bx = tx + r_b * math.cos(th_b)
        by = ty + r_b * math.sin(th_b)
        if math.hypot(bx, by) >= 0.5:  # agent spawns at the origin
            return np.array([[tx, ty]]), (bx, by)
    raise ConfigurationError(
        "push initialization failed to separate block and agent in "
        f"{PUSH_INIT_ATTEMPTS} draws")


def init_coordinate(rng: np.random.Generator):
    """Coordinate start: a long block lying across the agents' path,
    COORD_BLOCK_AHEAD in front of them. Draw order: r_T, theta_T, theta_B
    offset."""
    r_t = rng.uniform(1.0, 1.5)
    th_t = rng.uniform(-1.0, 1.0)
    th_b = th_t + math.pi / 2 + rng.uniform(-0.5, 0.5)
    cx, cy = r_t * math.cos(th_t), r_t * math.sin(th_t)
    off = COORD_END_OFFSET
    targets = np.array([
        [cx + off * math.cos(th_b), cy + off * math.sin(th_b)],
        [cx - off * math.cos(th_b), cy - off * math.sin(th_b)],
    ])
    return targets, (COORD_BLOCK_AHEAD, 0.0)


def _fixed_starts() -> dict:
    """Read-only starts mirroring the hardware protocol, keyed by (kind,
    variant). avoid, push: block 1 m ahead of the agent, target at (2, +0.5)
    or (2, -0.5). coordinate: the block ends moved 1.5 m forward, for both."""
    ends = block_ends(COORD_BLOCK_AHEAD, 0.0, 0.0) + np.array([1.5, 0.0])
    table = {}
    for variant, sign in (("+", 1.0), ("-", -1.0)):
        table["avoid", variant] = table["push", variant] = (
            np.array([[2.0, sign * 0.5]]), (1.0, 0.0))
        table["coordinate", variant] = ends, (COORD_BLOCK_AHEAD, 0.0)
    for targets, _ in table.values():
        targets.flags.writeable = False
    return table


FIXED_STARTS = _fixed_starts()
INITS = {"low_goal": init_low_goal, "avoid": init_avoid, "push": init_push,
         "coordinate": init_coordinate}


# -- environment ----------------------------------------------------------------

@dataclass(frozen=True)
class EnvOverrides:
    """Fixed episode conditions for evaluation environments; each field
    defaults to the nominal condition. grid holds the terrain's n x n node
    heights, as world.terrain_at reads them, in a read-only copy of the
    caller's array: like the fields, it cannot change after validation."""

    params: DynamicsParams = field(default_factory=DynamicsParams)
    grid: np.ndarray = field(default_factory=lambda: np.zeros((HFIELD_N, HFIELD_N)))
    sticky_prob: float = 0.0

    def __post_init__(self):
        if not isinstance(self.params, DynamicsParams):
            raise ConfigurationError(f"params must be a DynamicsParams, "
                                     f"got a {type(self.params).__name__}")
        try:
            grid = np.array(self.grid)
        except ValueError as err:  # ragged nesting
            raise ConfigurationError(f"the terrain grid is not an array: {err}") from None
        if grid.dtype.kind not in "iuf":  # not bool, complex, str or object
            raise ConfigurationError(f"terrain heights must be real, got {grid.dtype}")
        grid = grid.astype(float, copy=False)
        grid.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        if grid.ndim != 2 or grid.shape[0] != grid.shape[1]:
            raise ConfigurationError("the terrain grid must be square")
        if grid.shape[0] < 2:
            raise ConfigurationError("the terrain grid needs at least 2x2 nodes")
        if not np.isfinite(grid).all():
            raise ConfigurationError("terrain heights must be finite")
        check_real(self.sticky_prob, "sticky_prob")
        if not 0.0 <= self.sticky_prob <= 1.0:
            raise ConfigurationError("sticky_prob must be in [0, 1]")


@dataclass(frozen=True)
class TaskEnvConfig:
    """How a task episode is randomized and initialized. Dynamics, terrain,
    sticky actions, wrenches and torso observation noise are drawn when
    rand.dynamics holds and no overrides are given; otherwise the episode
    runs under the overrides' conditions, the nominal ones (EnvOverrides())
    when none are given, without wrenches or noise. Coordinate's block
    dimensions are drawn for random starts when rand.task holds."""

    kind: str
    rand: RandomizationConfig = field(
        default_factory=lambda: RandomizationConfig(dynamics=False, task=False))
    fixed_init: str | None = None  # None = random init, else a FIXED_STARTS variant
    overrides: EnvOverrides | None = None

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise ConfigurationError(f"unknown task kind {self.kind!r}")
        if not isinstance(self.rand, RandomizationConfig):
            raise ConfigurationError(
                f"rand must be a RandomizationConfig, got {self.rand!r}")
        if not isinstance(self.overrides, (EnvOverrides, type(None))):
            raise ConfigurationError(
                f"overrides must be None or an EnvOverrides, got {self.overrides!r}")
        fixed = self.fixed_init  # a str first: a key must hash
        if fixed is not None and not (isinstance(fixed, str)
                                      and (self.kind, fixed) in FIXED_STARTS):
            raise ConfigurationError(f"fixed_init must be None or a FIXED_STARTS variant "
                                     f"of kind {self.kind!r}, got {fixed!r}")


# The state columns that each kind's reward and success read: all that a
# TaskEnv keeps of the states its episodes pass through.
SCORED = {"low_goal": ("x", "y", "yaw", "z_proxy"),
          "avoid": ("x", "y", "z_proxy", "bx", "by"),
          "push": ("x", "y", "z_proxy", "bx", "by"),
          "coordinate": ("z_proxy", "bx", "by", "byaw")}


class TaskEnv:
    """E episodes of one task kind, one per seed, stepped in lockstep; joint
    actions are (E, n_agents, 12).

    A low_goal episode ends early when its agent falls. The 200-step tasks
    never end early; fallen agents freeze in place. done marks the rows
    whose episode has ended: they keep their state and are not stepped
    again. world holds the latest state; construction leaves every episode
    at its start. obs is the latest observation of every row, computed
    when it is first read at each step, so a caller that reads it on some
    steps only (the hierarchical executor reads it once per decision) pays
    for those alone. sticky (E, n_agents, horizon) and wrench (E, n_agents,
    horizon, 3) are each episode's sticky-action and torso wrench
    schedules, None where not drawn: each step passes its rows' wrenches
    to the world, or None. With the dynamics, every kind but low_goal draws
    noise on the torso x, y slots of every observation.

    Stepping computes no reward. The env keeps a reference to each SCORED
    column of the start and of every later state, and score() reads the
    rewards and success of all of them from one task_reward call. The
    columns are kept, not copied: writing into env.world's arrays changes
    what is scored for the step that made them.
    """

    def __init__(self, config: TaskEnvConfig, seeds):
        self.config = config
        self.kind = config.kind
        self.seeds = list(seeds)
        if not self.seeds:
            raise ConfigurationError("a TaskEnv needs at least one seed")
        for seed in self.seeds:
            check_word(seed, 64, "seed")
        self.n_agents = N_AGENTS[self.kind]
        self.horizon = HORIZON[self.kind]
        self._build_starts()
        self._prev_actions = None
        self._obs, self._obs_t = None, None
        self.t = 0
        self.done = np.zeros(len(self.seeds), dtype=bool)
        self._columns = {name: [getattr(self.world, name)] for name in SCORED[self.kind]}

    def _build_starts(self) -> None:
        """Set world, targets, sticky, wrench and the observation noise of
        every row. Each column is allocated once for all rows, holding
        agents at rest under the conditions of the overrides, or of
        EnvOverrides() when none are given; each row then writes what it
        draws into its slots, from the sub-streams of its seed whose
        randomization is on, all built in one substreams call."""
        cfg = self.config
        kind, n, horizon = self.kind, self.n_agents, self.horizon
        rows = len(self.seeds)
        # dynamics, terrain, wrenches, sticky actions and torso noise
        draw = cfg.overrides is None and cfg.rand.dynamics
        base = cfg.overrides or EnvOverrides()  # drawn rows overwrite its values
        params = {name: np.full((rows, n), value)
                  for name, value in asdict(base.params).items()}
        grid = np.repeat(base.grid[None], rows, axis=0)
        sticky_prob = STICKY_PROB if draw else base.sticky_prob
        sticks = sticky_prob > 0.0
        draw_dims = kind == "coordinate" and cfg.fixed_init is None and cfg.rand.task

        coordinate = kind == "coordinate"
        targets = np.empty((rows, 2 if coordinate else 1, 2))
        n_blocks = 0 if kind == "low_goal" else 1
        bx, by = np.zeros((rows, n_blocks)), np.zeros((rows, n_blocks))
        half_extents = np.empty((rows, n_blocks, 2))
        half_extents[:] = COORD_BLOCK_HALF if coordinate else PUSH_BLOCK_HALF
        self.wrench = np.empty((rows, n, horizon, 3)) if draw else None
        self.sticky = np.empty((rows, n, horizon), dtype=bool) if sticks else None
        # one draw per torso slot of every observation, reset included
        noisy = draw and kind != "low_goal"
        self._obs_noise = np.empty((rows, horizon + 1, 2 * n)) if noisy else None
        fixed = None if cfg.fixed_init is None else FIXED_STARTS[kind, cfg.fixed_init]

        keys = []  # the sub-streams of every row, in build order
        if fixed is None:
            keys.append(40)
        if draw_dims:
            keys.append(50)
        if draw:
            keys += [10 + i for i in range(n)] + [30 + i for i in range(n)] + [0]
        if sticks:
            keys += [20 + i for i in range(n)]
        if noisy:
            keys.append(60)
        built = substreams(np.repeat(np.asarray(self.seeds, dtype=np.uint64), len(keys)),
                           np.tile(keys, rows)[:, None])
        for e in range(rows):
            rng = {key: next(built) for key in keys}
            targets[e], block = INITS[kind](rng[40]) if fixed is None else fixed
            if block is not None:
                bx[e, 0], by[e, 0] = block
            if draw_dims:
                half_extents[e, 0] *= sample_object_dims(rng[50])
            for i in range(n):
                if draw:
                    for name, value in zip(DRAWN_DYNAMICS, sample_dynamics(rng[10 + i])):
                        params[name][e, i] = value
                    self.wrench[e, i] = wrench_schedule(rng[30 + i], horizon)
                if sticks:
                    self.sticky[e, i] = sticky_schedule(sticky_prob, rng[20 + i], horizon)
            if draw:
                grid[e] = sample_height_field(rng[0])
            if noisy:
                self._obs_noise[e] = rng[60].uniform(-TORSO_OBS_NOISE, TORSO_OBS_NOISE,
                                                     (horizon + 1, 2 * n))
        self.targets = targets

        x, y = np.zeros((rows, n)), np.zeros((rows, n))
        if coordinate:
            y[:, 0], y[:, 1] = COORD_AGENT_GAP / 2, -COORD_AGENT_GAP / 2
        mass = COORD_BLOCK_MASS if coordinate else PUSH_BLOCK_MASS
        self.world = Worlds(
            x=x, y=y, yaw=np.zeros((rows, n)), z_proxy=np.full((rows, n), Z0),
            q=np.zeros((rows, n, N_JOINTS)), qdot=np.zeros((rows, n, N_JOINTS)),
            fallen=np.zeros((rows, n), dtype=bool),
            bx=bx, by=by, byaw=np.zeros((rows, n_blocks)),
            half_extents=half_extents, block_mass=np.full((rows, n_blocks), mass),
            params=params, grid=grid)

    @property
    def obs(self) -> np.ndarray:
        """The observation of every row at step t, (E, obs_dim)."""
        if self._obs_t != self.t:
            obs = observe_task(self.world, self.kind, self.targets)
            if self._obs_noise is not None:
                obs[:, torso_xy_slots(self.n_agents)] += self._obs_noise[:, self.t]
            self._obs, self._obs_t = obs, self.t
        return self._obs

    def step(self, actions) -> np.ndarray:
        """Advance every row whose episode is running; returns done, one
        entry per row. The world clamps the actions."""
        if self.done.all():
            raise ConfigurationError("every episode already finished")
        acts = np.asarray(actions, dtype=float)
        shape = (len(self.seeds), self.n_agents, N_JOINTS)
        if acts.shape != shape:
            raise ConfigurationError(f"actions must be {shape}, got {acts.shape}")
        t = self.t
        if self.sticky is not None:
            # step 0 never sticks, so np.where then copies the actions: the
            # caller may reuse its buffer
            prev = self._prev_actions if t > 0 else acts
            acts = np.where(self.sticky[:, :, t, None], prev, acts)
            self._prev_actions = acts
        wrench = None if self.wrench is None else self.wrench[:, :, t]
        self.world = step_worlds(self.world, acts, wrench, ~self.done)
        for name, column in self._columns.items():
            column.append(getattr(self.world, name))
        self.t += 1
        done = self.done | (self.t >= self.horizon)
        if self.kind == "low_goal":
            done = done | self.world.fallen[:, 0]
        self.done = done
        return self.done

    def score(self) -> tuple:
        """(rewards (E, t), success (E,)) of the steps so far, from one
        task_reward call over the kept columns of every state. Rewards of
        rows that had already finished carry no meaning. Success is the
        kind's goal test, the one that pays its bonus term. low_goal: the
        latest agent position is within BONUS_RADIUS of the goal. avoid:
        the agent was within BONUS_RADIUS of the target at some state, the
        start included, and the block center moved less than
        AVOID_MAX_BLOCK_MOVE. push: the latest block center is within
        BONUS_RADIUS of the target. coordinate: both latest block ends are
        within COORD_RADIUS of their targets."""
        states = self.t + 1
        cols = SimpleNamespace(**{name: np.concatenate(column)
                                  for name, column in self._columns.items()})
        targets = np.tile(self.targets, (states, 1, 1))
        rewards, goal_met = task_reward(cols, self.kind, targets)
        goal_met = goal_met.reshape(states, -1)
        if self.kind == "avoid":
            bx, by = self._columns["bx"], self._columns["by"]
            moved = hypot(bx[-1][:, 0] - bx[0][:, 0], by[-1][:, 0] - by[0][:, 0])
            success = goal_met.any(axis=0) & (moved < AVOID_MAX_BLOCK_MOVE)
        else:
            success = goal_met[-1]
        return rewards.reshape(states, -1)[1:].T, success

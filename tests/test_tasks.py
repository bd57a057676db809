import math
from collections import Counter, namedtuple
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import legwork.tasks
from legwork.errors import ConfigurationError, NumericsError
from legwork.policy import mask_low_level_obs
from legwork.randomization import TORSO_OBS_NOISE, RandomizationConfig, substreams
from legwork.tasks import (
    AVOID_MAX_BLOCK_MOVE,
    BONUS_RADIUS,
    COORD_AGENT_GAP,
    COORD_BLOCK_HALF,
    COORD_BLOCK_MASS,
    COORD_RADIUS,
    PUSH_BLOCK_HALF,
    PUSH_BLOCK_MASS,
    PUSH_INIT_ATTEMPTS,
    SCORED,
    TASK_KINDS,
    EnvOverrides,
    TaskEnv,
    TaskEnvConfig,
    avoid_reward_terms,
    block_ends,
    coordinate_reward_terms,
    fixed_eval_init,
    init_avoid,
    init_coordinate,
    init_low_goal,
    init_push,
    low_level_reward_terms,
    observe_task,
    push_reward_terms,
    task_reward,
    torso_xy_slots,
)
from legwork.world import DynamicsParams, hypot
from helpers import AgentState, BlockState, Row, flat_terrain, make_worlds, reference_stream

# One episode's task: its kind plus its target points, (1, 2) for
# low_goal/avoid/push and (2, 2) for coordinate.
TaskInstance = namedtuple("TaskInstance", "kind targets")


def ks_statistic(samples, cdf):
    x = np.sort(np.asarray(samples))
    n = len(x)
    f = cdf(x)
    return max(np.max(np.arange(1, n + 1) / n - f),
               np.max(f - np.arange(0, n) / n))


class _QueueRng:
    def __init__(self, values):
        self.values = list(values)

    def uniform(self, lo=0.0, hi=1.0, size=None):
        return self.values.pop(0)


def _world(agents, blocks):
    return Row(list(agents), list(blocks))


def _start(kind, start):
    """An init_* or fixed_eval_init result, (targets, block center), as the
    world and task of its episode: agents at rest, the block at yaw 0."""
    targets, block = start
    if kind == "coordinate":
        agents = [AgentState.at_rest(y=COORD_AGENT_GAP / 2),
                  AgentState.at_rest(y=-COORD_AGENT_GAP / 2)]
        blocks = [BlockState(*block, 0.0, COORD_BLOCK_HALF, COORD_BLOCK_MASS)]
    else:
        agents = [AgentState.at_rest()]
        blocks = ([] if block is None else
                  [BlockState(*block, 0.0, PUSH_BLOCK_HALF, PUSH_BLOCK_MASS)])
    return _world(agents, blocks), TaskInstance(kind, targets)


def _row(world, task):
    """One episode as the one-row arguments of the batched task functions:
    (Worlds, kind, targets)."""
    return make_worlds([world]), task.kind, task.targets[None]


def _reward(world, task) -> float:
    reward, _ = task_reward(*_row(world, task))
    return float(reward[0])


def _terms(terms_fn, world, task) -> dict:
    terms = terms_fn(make_worlds([world]), task.targets[None])
    return {k: float(v[0]) for k, v in terms.items()}


def _observe(world, task) -> np.ndarray:
    return observe_task(*_row(world, task))[0]


# The reference for TaskEnv.episode_success: each kind's success predicate
# written on its own, apart from the reward's bonus terms that the
# environment derives success from.

def _reference_target_reached(world, targets):
    """Whether agent 0 is within BONUS_RADIUS of the first target, per row."""
    return hypot(world.x[:, 0] - targets[:, 0, 0],
                 world.y[:, 0] - targets[:, 0, 1]) < BONUS_RADIUS


def _reference_success(kind, targets, start, end, reached):
    """Success of every row, (E,) bool, from the worlds at the start and at
    the end of the episodes and whether _reference_target_reached held at
    any state (read for avoid only; the other kinds accept None)."""
    tx, ty = targets[:, 0, 0], targets[:, 0, 1]
    if kind == "low_goal":
        return hypot(tx - end.x[:, 0], ty - end.y[:, 0]) < BONUS_RADIUS
    if kind == "avoid":
        moved = hypot(end.bx[:, 0] - start.bx[:, 0], end.by[:, 0] - start.by[:, 0])
        return reached & (moved < AVOID_MAX_BLOCK_MOVE)
    if kind == "push":
        return hypot(end.bx[:, 0] - tx, end.by[:, 0] - ty) < BONUS_RADIUS
    diff = targets - block_ends(end.bx[:, 0], end.by[:, 0], end.byaw[:, 0])
    d0 = hypot(diff[:, 0, 0], diff[:, 0, 1])
    d1 = hypot(diff[:, 1, 0], diff[:, 1, 1])
    return (d0 < COORD_RADIUS) & (d1 < COORD_RADIUS)


def _succeeds(task, worlds) -> bool:
    """episode_success of a one-row episode whose kept states are the given
    worlds, written into a TaskEnv's state step by step; it must equal the
    reference's."""
    env = TaskEnv(TaskEnvConfig(task.kind), seeds=[0])
    env.targets[:] = task.targets
    rows = [make_worlds([w]) for w in worlds]
    for t, row in enumerate(rows):
        if t > 0:
            env.step(np.zeros((1, env.n_agents, 12)))
        for name in SCORED[task.kind]:  # the kept columns of this state
            getattr(env.world, name)[:] = getattr(row, name)
    targets = task.targets[None]
    reached = np.any([_reference_target_reached(r, targets) for r in rows], axis=0)
    expected = _reference_success(task.kind, targets, rows[0], rows[-1], reached)
    assert env.episode_success().tolist() == expected.tolist()
    return bool(expected[0])


def _low_level_goal(rng) -> np.ndarray:
    """The single target of an init_low_goal start, (2,); it has no block."""
    targets, block = init_low_goal(rng)
    assert targets.shape == (1, 2) and block is None
    return targets[0]


class TestGoalSampling:
    def test_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            gx, gy = _low_level_goal(rng)
            r = math.hypot(gx, gy)
            v = math.atan2(gy, gx)
            assert 1.0 <= r <= 2.0
            assert -0.5 <= v <= 0.5

    def test_radius_distribution(self):
        rng = np.random.default_rng(1)
        radii = [math.hypot(*_low_level_goal(rng)) for _ in range(10_000)]
        assert ks_statistic(radii, lambda r: r - 1.0) < 0.02

    def test_forced_draw(self):
        g = _low_level_goal(_QueueRng([1.0, 0.0]))
        assert g.shape == (2,) and tuple(g) == (1.0, 0.0)


def _low_goal(agent, goal):
    """The world and task of a low_goal episode with agent and goal (x, y)."""
    return (_world([agent], []),
            TaskInstance("low_goal", np.array([goal], dtype=float)))


class TestLowLevelReward:
    def test_at_goal_upright(self):
        agent = AgentState.at_rest(x=1.0, y=1.0, yaw=0.3)
        r = _reward(*_low_goal(agent, (1.0, 1.0)))
        assert r == pytest.approx(10.0)

    def test_facing_goal_two_meters(self):
        agent = AgentState.at_rest()
        r = _reward(*_low_goal(agent, (2.0, 0.0)))
        assert r == pytest.approx(-2.0 + 1.0)

    def test_fallen_facing_away(self):
        agent = AgentState.at_rest(yaw=math.pi)
        agent.z_proxy = 0.1
        r = _reward(*_low_goal(agent, (1.0, 0.0)))
        assert r == pytest.approx(-1.0 - 5.0 - 1.0)

    def test_terms_sum_to_reward(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            agent = AgentState.at_rest(x=rng.uniform(-2, 2), y=rng.uniform(-2, 2),
                                       yaw=rng.uniform(-3, 3))
            agent.z_proxy = rng.uniform(0, 0.3)
            world, task = _low_goal(agent, rng.uniform(-2, 2, 2))
            terms = _terms(low_level_reward_terms, world, task)
            assert _reward(world, task) == sum(terms.values())


class TestInitializations:
    def test_avoid_forced_block_radius_floor(self):
        # draws: r_T=1.5, theta_T=0, block factor 0.3, angle offset 0
        world, task = _start("avoid", init_avoid(_QueueRng([1.5, 0.0, 0.3, 0.0])))
        assert math.hypot(world.blocks[0].x, world.blocks[0].y) == pytest.approx(0.6)
        assert task.targets[0][0] == pytest.approx(1.5)
        assert task.targets[0][1] == pytest.approx(0.0)

    def test_avoid_laws(self):
        rng = np.random.default_rng(2)
        r_ts, th_ts, offs = [], [], []
        for _ in range(10_000):
            world, task = _start("avoid", init_avoid(rng))
            tx, ty = task.targets[0]
            r_ts.append(math.hypot(tx, ty))
            th_ts.append(math.atan2(ty, tx))
            b = world.blocks[0]
            offs.append(math.atan2(b.y, b.x) - math.atan2(ty, tx))
        assert ks_statistic(r_ts, lambda r: (r - 1.5) / 1.0) < 0.02
        assert ks_statistic(th_ts, lambda t: (t + 1) / 2) < 0.02
        assert ks_statistic(offs, lambda t: (t + 0.5) / 1.0) < 0.02

    def test_push_gives_up_after_max_attempts(self):
        # r_T = 1.5, theta_T = 0, then every block draw r_B = 1.2,
        # theta_B = pi puts the block at (0.3, 0), within 0.5 m of the agent
        rng = _QueueRng([1.5, 0.0] + [1.2, math.pi] * PUSH_INIT_ATTEMPTS)
        with pytest.raises(ConfigurationError):
            init_push(rng)
        assert rng.values == []  # it gave up after the last allowed draw

    def test_push_never_starts_in_contact_margin(self):
        rng = np.random.default_rng(3)
        for _ in range(10_000):
            world, _ = _start("push", init_push(rng))
            b = world.blocks[0]
            assert math.hypot(b.x, b.y) >= 0.5

    def test_push_laws(self):
        rng = np.random.default_rng(4)
        r_bs, th_bs = [], []
        for _ in range(10_000):
            world, task = _start("push", init_push(rng))
            tx, ty = task.targets[0]
            b = world.blocks[0]
            r_bs.append(math.hypot(b.x - tx, b.y - ty))
            a = math.atan2(b.y - ty, b.x - tx)
            th_bs.append(a if a >= math.pi / 3 - 1e-9 else a + 2 * math.pi)
        assert ks_statistic(r_bs, lambda r: (r - 0.6) / 0.6) < 0.02
        assert ks_statistic(th_bs,
                            lambda t: (t - math.pi / 3) / (4 * math.pi / 3)) < 0.02

    def test_coordinate_targets_apart(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            _, task = _start("coordinate", init_coordinate(rng))
            gap = math.hypot(*(task.targets[0] - task.targets[1]))
            assert gap == pytest.approx(1.1, abs=1e-12)

    def test_coordinate_geometry(self):
        env = TaskEnv(TaskEnvConfig("coordinate"), [0])
        assert env.n_agents == 2
        world = env.world
        assert world.y[0, 0] - world.y[0, 1] == pytest.approx(1.2)
        assert world.bx[0, 0] == pytest.approx(0.8)


class TestTaskRewards:
    def test_avoid_at_target_far_from_block(self):
        world = _world([AgentState.at_rest(x=2.0, y=0.5)],
                       [BlockState(-3.0, 0.0, 0.0, (0.3, 0.3), 4.0)])
        task = TaskInstance("avoid", np.array([[2.0, 0.5]]))
        assert _reward(world, task) == pytest.approx(10.0)

    def test_push_contact_at_target(self):
        # block centered on the target, agent touching its -x face:
        # center distance = agent radius + half extent = 0.6
        world = _world([AgentState.at_rest(x=0.4)],
                       [BlockState(1.0, 0.0, 0.0, (0.3, 0.3), 4.0)])
        task = TaskInstance("push", np.array([[1.0, 0.0]]))
        assert _reward(world, task) == pytest.approx(-0.6 + 0.0 + 10.0 + 0.0)

    def test_coordinate_both_ends_at_targets(self):
        block = BlockState(0.0, 0.0, 0.0, COORD_BLOCK_HALF, COORD_BLOCK_MASS)
        world = _world([AgentState.at_rest(), AgentState.at_rest(y=-1.2)], [block])
        task = TaskInstance("coordinate", block_ends(block.x, block.y, block.yaw))
        assert _reward(world, task) == pytest.approx(10.0)

    def test_terms_sum_to_rewards(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            world, task = _start("push", init_push(rng))
            terms = _terms(push_reward_terms, world, task)
            assert _reward(world, task) == sum(terms.values())
            world, task = _start("avoid", init_avoid(rng))
            terms = _terms(avoid_reward_terms, world, task)
            assert _reward(world, task) == sum(terms.values())
            world, task = _start("coordinate", init_coordinate(rng))
            terms = _terms(coordinate_reward_terms, world, task)
            assert _reward(world, task) == sum(terms.values())


class TestSuccess:
    def test_avoid_fails_when_block_moves(self):
        task = TaskInstance("avoid", np.array([[2.0, 0.5]]))
        w0 = _world([AgentState.at_rest()], [BlockState(1.0, 0.0, 0.0, (0.3, 0.3), 4.0)])
        w1 = _world([AgentState.at_rest(x=2.0, y=0.5)],
                    [BlockState(1.2, 0.0, 0.0, (0.3, 0.3), 4.0)])  # moved 0.2 m
        assert not _succeeds(task, [w0, w1])
        w1_clean = _world([AgentState.at_rest(x=2.0, y=0.5)],
                          [BlockState(1.0, 0.0, 0.0, (0.3, 0.3), 4.0)])
        assert _succeeds(task, [w0, w1_clean])

    def test_push_boundary(self):
        task = TaskInstance("push", np.array([[2.0, 0.0]]))
        w0 = _world([AgentState.at_rest()], [BlockState(1.0, 0.0, 0.0, (0.3, 0.3), 4.0)])
        w_049 = _world([AgentState.at_rest()],
                       [BlockState(1.51, 0.0, 0.0, (0.3, 0.3), 4.0)])
        assert _succeeds(task, [w0, w_049])
        w_051 = _world([AgentState.at_rest()],
                       [BlockState(1.49, 0.0, 0.0, (0.3, 0.3), 4.0)])
        assert not _succeeds(task, [w0, w_051])

    def test_coordinate_needs_both_ends(self):
        block = BlockState(0.0, 0.0, 0.0, COORD_BLOCK_HALF, COORD_BLOCK_MASS)
        ends = block_ends(block.x, block.y, block.yaw)
        targets = ends + np.array([[0.29, 0.0], [0.31, 0.0]])  # 0.29 and 0.31 away
        task = TaskInstance("coordinate", targets)
        w = _world([AgentState.at_rest(), AgentState.at_rest(y=-1.2)], [block])
        assert not _succeeds(task, [w, w])
        targets_ok = ends + np.array([[0.29, 0.0], [0.29, 0.0]])
        task_ok = TaskInstance("coordinate", targets_ok)
        assert _succeeds(task_ok, [w, w])

    @settings(max_examples=50)
    @given(d_succ=st.floats(0.0, 0.499), d_less=st.floats(0.0, 1.0))
    def test_push_success_monotone(self, d_succ, d_less):
        # any final distance strictly below a succeeding one also succeeds
        d2 = min(d_succ, d_less)
        task = TaskInstance("push", np.array([[0.0, 0.0]]))
        w0 = _world([AgentState.at_rest()], [BlockState(3.0, 0.0, 0.0, (0.3, 0.3), 4.0)])
        w_a = _world([AgentState.at_rest()], [BlockState(d_succ, 0.0, 0.0, (0.3, 0.3), 4.0)])
        w_b = _world([AgentState.at_rest()], [BlockState(d2, 0.0, 0.0, (0.3, 0.3), 4.0)])
        assert _succeeds(task, [w0, w_a])
        assert _succeeds(task, [w0, w_b])


class TestFixedEvalInit:
    def test_avoid_variants(self):
        _, task_p = _start("avoid", fixed_eval_init("avoid", "+"))
        _, task_m = _start("avoid", fixed_eval_init("avoid", "-"))
        assert tuple(task_p.targets[0]) == (2.0, 0.5)
        assert tuple(task_m.targets[0]) == (2.0, -0.5)

    def test_push_block_one_meter_ahead(self):
        world, _ = _start("push", fixed_eval_init("push", "+"))
        assert (world.blocks[0].x, world.blocks[0].y) == (1.0, 0.0)

    def test_coordinate_targets_are_translated_ends(self):
        world, task = _start("coordinate", fixed_eval_init("coordinate", "+"))
        b = world.blocks[0]
        ends = block_ends(b.x, b.y, b.yaw)
        assert np.allclose(task.targets, ends + np.array([1.5, 0.0]))
        assert task.targets[0][0] == pytest.approx(2.3)
        assert abs(task.targets[0][1]) == pytest.approx(0.55)

    @pytest.mark.parametrize("kind, variant", [("avoid", "x"), ("push", None)])
    def test_unknown_variant_rejected(self, kind, variant):
        with pytest.raises(ConfigurationError):
            fixed_eval_init(kind, variant)


# The per-kind observation formulas that observe_task and
# mask_low_level_obs replaced with one writer and one body-frame rotation
# (world.body_frame), kept as the reference they match bit for bit.

def _ref_rel_body(x, y, yaw, px, py) -> tuple:
    c, s = np.cos(yaw), np.sin(yaw)
    dx, dy = px - x, py - y
    return (c * dx + s * dy, -s * dx + c * dy)


def _ref_agent_core_obs(world):
    pose = np.stack([world.x, world.y, np.cos(world.yaw), np.sin(world.yaw)],
                    axis=-1)
    return np.concatenate([world.q, world.qdot, pose], axis=-1)


def _ref_mask_low_level_obs(world, goals):
    c, s = np.cos(world.yaw), np.sin(world.yaw)
    dx = goals[..., 0] - world.x
    dy = goals[..., 1] - world.y
    obs = np.zeros(world.x.shape + (32,))
    obs[..., 0:12] = world.q
    obs[..., 12:24] = world.qdot
    obs[..., 30] = c * dx + s * dy
    obs[..., 31] = -s * dx + c * dy
    return obs


def _ref_observe_task(world, kind, targets):
    if kind == "low_goal":
        return _ref_mask_low_level_obs(world, targets)[:, 0]
    if kind in ("avoid", "push"):
        x, y = world.x[:, 0], world.y[:, 0]
        c, s = np.cos(world.yaw[:, 0]), np.sin(world.yaw[:, 0])
        obs = np.empty((len(x), 32))
        obs[:, 0:12] = world.q[:, 0]
        obs[:, 12:24] = world.qdot[:, 0]
        obs[:, 24], obs[:, 25], obs[:, 26], obs[:, 27] = x, y, c, s
        for col, (px, py) in ((28, (targets[:, 0, 0], targets[:, 0, 1])),
                              (30, (world.bx[:, 0], world.by[:, 0]))):
            dx, dy = px - x, py - y
            obs[:, col] = c * dx + s * dy
            obs[:, col + 1] = -s * dx + c * dy
        return obs
    core = _ref_agent_core_obs(world)
    n_rows = len(core)
    byaw = world.byaw[:, 0]
    ends = block_ends(world.bx[:, 0], world.by[:, 0], byaw)
    c, s = np.cos(byaw)[:, None], np.sin(byaw)[:, None]
    dx = targets[..., 0] - ends[..., 0]
    dy = targets[..., 1] - ends[..., 1]
    rel_block = np.stack([c * dx + s * dy, -s * dx + c * dy], axis=-1)
    rel_agents = np.stack(_ref_rel_body(world.x[:, :, None], world.y[:, :, None],
                                        world.yaw[:, :, None], ends[:, None, :, 0],
                                        ends[:, None, :, 1]), axis=-1)
    return np.concatenate([core.reshape(n_rows, -1), c, s,
                           rel_block.reshape(n_rows, -1),
                           rel_agents.reshape(n_rows, -1)], axis=-1)


@st.composite
def observed_rows(draw):
    """A task kind and 1-5 rows of it: agents and blocks posed anywhere,
    blocks at any yaw, targets anywhere, joint states at random."""
    kind = draw(st.sampled_from(TASK_KINDS))
    n_rows = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_agents = 2 if kind == "coordinate" else 1
    half = COORD_BLOCK_HALF if kind == "coordinate" else PUSH_BLOCK_HALF
    rows = []
    for _ in range(n_rows):
        agents = [AgentState(*rng.uniform(-8.0, 8.0, 2), rng.uniform(-7.0, 7.0), 0.3,
                             rng.uniform(-1.5, 1.5, 12), rng.uniform(-12.0, 12.0, 12))
                  for _ in range(n_agents)]
        blocks = ([] if kind == "low_goal" else
                  [BlockState(*rng.uniform(-8.0, 8.0, 2), rng.uniform(-7.0, 7.0),
                              half, 4.0)])
        rows.append(Row(agents, blocks))
    targets = rng.uniform(-20.0, 20.0, (n_rows, 2 if kind == "coordinate" else 1, 2))
    return make_worlds(rows), kind, targets


class TestOneObservationWriter:
    @settings(max_examples=80, deadline=None)
    @given(case=observed_rows())
    def test_equals_the_per_kind_formulas(self, case):
        world, kind, targets = case
        got = observe_task(world, kind, targets)
        ref = _ref_observe_task(world, kind, targets)
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(case=observed_rows(), seed=st.integers(0, 2**32 - 1))
    def test_mask_low_level_obs_equals_its_formula(self, case, seed):
        # every agent, one or two per row, against goals anywhere
        world, _, _ = case
        goals = np.random.default_rng(seed).uniform(-20.0, 20.0,
                                                    world.x.shape + (2,))
        got = mask_low_level_obs(world, goals)
        assert got.tobytes() == _ref_mask_low_level_obs(world, goals).tobytes()


class TestObservations:
    def test_dimensions(self):
        w, t = _start("push", init_push(np.random.default_rng(0)))
        assert _observe(w, t).shape == (32,)
        w, t = _start("avoid", init_avoid(np.random.default_rng(0)))
        assert _observe(w, t).shape == (32,)
        w, t = _start("coordinate", init_coordinate(np.random.default_rng(0)))
        assert _observe(w, t).shape == (70,)

    def test_relative_slots_match_independent_recomputation(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            world, task = _start("push", init_push(rng))
            agent = world.agents[0]
            agent.x, agent.y, agent.yaw = rng.uniform(-2, 2, 3)
            obs = _observe(world, task)
            c, s = math.cos(agent.yaw), math.sin(agent.yaw)
            R = np.array([[c, s], [-s, c]])
            tgt = R @ (task.targets[0] - np.array([agent.x, agent.y]))
            blk = R @ (np.array([world.blocks[0].x, world.blocks[0].y])
                       - np.array([agent.x, agent.y]))
            assert np.allclose(obs[28:30], tgt, atol=1e-9)
            assert np.allclose(obs[30:32], blk, atol=1e-9)
            assert np.allclose(obs[:12], agent.q)
            assert obs[24] == agent.x and obs[25] == agent.y

    def test_coordinate_layout(self):
        world, task = _start("coordinate", init_coordinate(np.random.default_rng(1)))
        world.agents[0].yaw, world.agents[1].yaw = 0.4, -1.1
        obs = _observe(world, task)
        block = world.blocks[0]
        assert obs[56] == pytest.approx(math.cos(block.yaw))
        assert obs[57] == pytest.approx(math.sin(block.yaw))
        # each agent's core: q, qdot, x, y, cos yaw, sin yaw
        for i, agent in enumerate(world.agents):
            core = np.concatenate([agent.q, agent.qdot, [agent.x, agent.y],
                                   np.cos([agent.yaw]), np.sin([agent.yaw])])
            assert np.array_equal(obs[28 * i:28 * (i + 1)], core)

    def test_torso_slots(self):
        assert torso_xy_slots(1) == [24, 25]
        assert torso_xy_slots(2) == [24, 25, 52, 53]


class TestLowGoalKind:
    """The low_goal kind of TaskEnv."""

    def test_deterministic_episode(self):
        def run(seed):
            env = TaskEnv(TaskEnvConfig("low_goal", rand=RandomizationConfig()), [seed])
            rng = np.random.default_rng(0)
            total = 0.0
            for _ in range(env.horizon):
                done = env.step(rng.uniform(-1, 1, (1, 1, 12)))
                if done[0]:
                    break
            for r in env.rewards()[0]:
                total += r
            return total, env.obs

        t1, o1 = run(7)
        t2, o2 = run(7)
        assert t1 == t2
        assert np.array_equal(o1, o2)

    def test_terminates_on_fall(self):
        env = TaskEnv(TaskEnvConfig("low_goal"), [0])
        env.world.qdot[0, 0, :] = 0.0
        env.world.q[0, 0, :] = -1.4
        env.world.qdot[0, 0, 1] = 20.0  # will trip the stability check
        done = env.step(np.zeros((1, 1, 12)))
        assert done[0] and env.world.fallen[0, 0]

    def test_goal_within_law(self):
        env = TaskEnv(TaskEnvConfig("low_goal", rand=RandomizationConfig()), range(50))
        r = np.hypot(env.targets[:, 0, 0], env.targets[:, 0, 1])
        assert np.all((1.0 <= r) & (r <= 2.0))

    def test_overrides_pin_dynamics(self):
        ov = EnvOverrides(params=DynamicsParams(),
                          grid=flat_terrain(), sticky_prob=0.0)
        env = TaskEnv(TaskEnvConfig("low_goal", rand=RandomizationConfig(),
                                    overrides=ov), [3])
        assert env.world.params["total_mass"][0, 0] == 1.8
        assert not env.world.grid.any()
        assert env.wrench is None and env.sticky is None


class TestTaskEnv:
    def test_reset_is_reproducible(self):
        cfg = TaskEnvConfig(kind="push", rand=RandomizationConfig())
        e1 = TaskEnv(cfg, seeds=[11])
        e2 = TaskEnv(cfg, seeds=[11])
        assert np.array_equal(e1.obs, e2.obs)
        assert all(np.array_equal(e1.world.params[k], e2.world.params[k])
                   for k in e1.world.params)
        rng = np.random.default_rng(0)
        acts = rng.uniform(-1, 1, (200, 1, 1, 12))
        for t in range(50):
            e1.step(acts[t])
            e2.step(acts[t])
        tot1, tot2 = sum(e1.rewards()[0]), sum(e2.rewards()[0])
        assert tot1 == tot2

    def test_never_terminates_early(self):
        cfg = TaskEnvConfig(kind="push")
        env = TaskEnv(cfg, seeds=[0])
        done_flags = []
        for t in range(200):
            done = env.step(np.zeros((1, 1, 12)))
            done_flags.append(done[0])
        assert not any(done_flags[:-1])
        assert done_flags[-1]

    def test_step_after_every_episode_finished_rejected(self):
        env = TaskEnv(TaskEnvConfig(kind="low_goal"), seeds=[0, 1])
        for _ in range(env.horizon):
            env.step(np.zeros((2, 1, 12)))
        assert env.done.all()
        with pytest.raises(ConfigurationError):
            env.step(np.zeros((2, 1, 12)))

    def test_finished_rows_are_not_stepped(self):
        env = TaskEnv(TaskEnvConfig(kind="low_goal"), seeds=[0, 1])
        env.world.q[0, 0, :] = -1.4
        env.world.qdot[0, 0, 1] = 20.0  # row 0 falls on its first step
        env.step(np.zeros((2, 1, 12)))
        assert env.done.tolist() == [True, False]
        frozen = env.world
        env.step(np.ones((2, 1, 12)))
        assert env.world.x[0, 0] == frozen.x[0, 0]
        assert np.array_equal(env.world.q[0], frozen.q[0])
        assert not np.array_equal(env.world.q[1], frozen.q[1])

    def test_no_seeds_rejected(self):
        with pytest.raises(ConfigurationError):
            TaskEnv(TaskEnvConfig(kind="push"), seeds=[])

    @pytest.mark.parametrize("seed", [-3, 1.5, "7", None, np.float64(2.0), True,
                                      False, np.bool_(True), 2**64])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ConfigurationError):
            TaskEnv(TaskEnvConfig(kind="push"), seeds=[0, seed])

    def test_largest_seed_accepted(self):
        env = TaskEnv(TaskEnvConfig("push", rand=RandomizationConfig()),
                      seeds=[2**64 - 1])
        expected, _ = legwork.tasks.init_push(reference_stream(2**64 - 1, 40))
        assert env.targets[0].tobytes() == expected.tobytes()

    def test_numpy_integer_seeds_accepted(self):
        a = TaskEnv(TaskEnvConfig("push", rand=RandomizationConfig()), seeds=[0, 5])
        b = TaskEnv(TaskEnvConfig("push", rand=RandomizationConfig()),
                    seeds=np.array([0, 5], dtype=np.uint32))
        assert a.obs.tobytes() == b.obs.tobytes()

    def test_fixed_init_variant(self):
        env = TaskEnv(TaskEnvConfig(kind="avoid", fixed_init="-"), seeds=[0])
        assert tuple(env.targets[0, 0]) == (2.0, -0.5)
        assert env.world.bx[0, 0] == 1.0

    @pytest.mark.parametrize("make", [
        lambda: TaskEnvConfig("avoid", fixed_init="x"),
        lambda: TaskEnvConfig("low_goal", fixed_init="+"),
        lambda: TaskEnvConfig("bogus"),
        lambda: EnvOverrides(DynamicsParams(), flat_terrain(), 1.7),
        lambda: EnvOverrides(DynamicsParams(), flat_terrain(), -0.1),
        lambda: EnvOverrides(DynamicsParams(), flat_terrain(), math.nan),
        lambda: EnvOverrides(DynamicsParams(), flat_terrain(), "0.1"),
        lambda: EnvOverrides(DynamicsParams(), flat_terrain(), True),
        lambda: EnvOverrides({"total_mass": 2.0}, flat_terrain()),
        lambda: EnvOverrides(DynamicsParams(), np.zeros((32, 31))),
        lambda: EnvOverrides(grid=np.zeros((1, 1))),
        lambda: TaskEnvConfig("push", rand=None),
        lambda: TaskEnvConfig("push", rand=True),
        lambda: TaskEnvConfig("push", overrides={"sticky_prob": 0.1}),
        lambda: TaskEnvConfig("push", overrides="rough"),
    ], ids=["fixed_init_x", "fixed_init_low_goal", "kind_unknown",
            "sticky_above_one", "sticky_negative", "sticky_nan", "sticky_str",
            "sticky_bool",
            "params_dict", "grid_not_square", "grid_one_node", "rand_none",
            "rand_bool", "overrides_dict", "overrides_str"])
    def test_bad_env_settings_rejected(self, make):
        with pytest.raises(ConfigurationError):
            make()

    def test_overrides_keep_a_read_only_copy_of_the_grid(self):
        grid = np.zeros((32, 32))
        ov = EnvOverrides(grid=grid)
        grid[3, 3] = math.nan  # after validation, in the caller's array
        env = TaskEnv(TaskEnvConfig("push", overrides=ov), seeds=[0])
        assert np.isfinite(env.world.grid).all()
        with pytest.raises(ValueError):
            ov.grid[3, 3] = 1.0

    def test_validated_conditions_cannot_change(self):
        params = DynamicsParams()
        ov = EnvOverrides(params=params)
        with pytest.raises(FrozenInstanceError):
            params.total_mass = 0.0  # a step divides by it
        with pytest.raises(FrozenInstanceError):
            ov.sticky_prob = 5.0
        assert (ov.params.total_mass, ov.sticky_prob) == (DynamicsParams().total_mass, 0.0)

    def test_object_dims_randomized_only_when_enabled(self):
        rand_on = RandomizationConfig()
        rand_off = RandomizationConfig(dynamics=False, task=False)
        e_on = TaskEnv(TaskEnvConfig(kind="coordinate", rand=rand_on), seeds=[5])
        e_off = TaskEnv(TaskEnvConfig(kind="coordinate", rand=rand_off), seeds=[5])
        assert tuple(e_off.world.half_extents[0, 0]) == COORD_BLOCK_HALF
        hx, hy = e_on.world.half_extents[0, 0]
        assert 0.12 <= hx <= 0.18 and 0.56 <= hy <= 0.84

    def test_obs_noise_touches_only_torso_slots(self):
        # at reset the drawn dynamics have moved nothing yet: switching them
        # on changes only the torso slots, by the noise
        cfg_clean = TaskEnvConfig(kind="push", rand=RandomizationConfig(dynamics=False))
        cfg_noisy = TaskEnvConfig(kind="push", rand=RandomizationConfig())
        clean = TaskEnv(cfg_clean, seeds=[9]).obs[0]
        noisy = TaskEnv(cfg_noisy, seeds=[9]).obs[0]
        diff = np.nonzero(clean != noisy)[0]
        assert set(diff) == {24, 25}
        assert np.abs(clean[[24, 25]] - noisy[[24, 25]]).max() <= TORSO_OBS_NOISE
        # overrides pin the dynamics, and draw no noise either
        pinned = TaskEnvConfig(kind="push", rand=RandomizationConfig(),
                               overrides=EnvOverrides(DynamicsParams(), flat_terrain()))
        assert TaskEnv(pinned, seeds=[9]).obs[0].tobytes() == clean.tobytes()

    @pytest.mark.parametrize("kind", TASK_KINDS)
    def test_default_overrides_are_the_nominal_conditions(self, kind):
        # EnvOverrides() runs an episode as switching the dynamics off does
        nominal = TaskEnv(TaskEnvConfig(kind, rand=RandomizationConfig(dynamics=False)),
                          seeds=[4, 5])
        pinned = TaskEnv(TaskEnvConfig(kind, rand=RandomizationConfig(),
                                       overrides=EnvOverrides()), seeds=[4, 5])
        rng = np.random.default_rng(2)
        for _ in range(12):
            acts = rng.uniform(-1.0, 1.0, (2, nominal.n_agents, 12))
            nominal.step(acts)
            pinned.step(acts)
            assert pinned.obs.tobytes() == nominal.obs.tobytes()
        assert pinned.rewards().tobytes() == nominal.rewards().tobytes()
        assert pinned.world.grid.tobytes() == nominal.world.grid.tobytes()
        assert all(pinned.world.params[k].tobytes() == nominal.world.params[k].tobytes()
                   for k in nominal.world.params)

    def test_bad_action_shape(self):
        env = TaskEnv(TaskEnvConfig(kind="coordinate"), seeds=[0])
        with pytest.raises(ConfigurationError):
            env.step(np.zeros((1, 12)))
        with pytest.raises(ConfigurationError):
            env.step(np.zeros((2, 2, 12)))  # one row too many

    def test_infinite_action_rejected(self):
        # the world clamps the actions, after its finiteness check
        env = TaskEnv(TaskEnvConfig(kind="push"), seeds=[0])
        with pytest.raises(NumericsError):
            env.step(np.full((1, 1, 12), np.inf))

    def test_success_via_trace(self):
        env = TaskEnv(TaskEnvConfig(kind="push", fixed_init="+"), seeds=[0])
        for _ in range(200):
            env.step(np.zeros((1, 1, 12)))
        assert not env.episode_success()[0]  # nothing moved the block


def _meet_goal(env, rows) -> None:
    """Write a state that meets the kind's goal into the given rows of
    env.world, the kept latest state: the agent onto its target (low_goal,
    avoid), the block onto it (push), or the block ends onto theirs
    (coordinate)."""
    w, tg = env.world, env.targets[rows]
    if env.kind in ("low_goal", "avoid"):
        w.x[rows, 0], w.y[rows, 0] = tg[:, 0, 0], tg[:, 0, 1]
    elif env.kind == "push":
        w.bx[rows, 0], w.by[rows, 0] = tg[:, 0, 0], tg[:, 0, 1]
    else:  # targets 2 * COORD_END_OFFSET apart, like the block's ends
        d = tg[:, 0] - tg[:, 1]
        w.bx[rows, 0], w.by[rows, 0] = tg[:, :, 0].mean(axis=1), tg[:, :, 1].mean(axis=1)
        w.byaw[rows, 0] = np.arctan2(-d[:, 0], d[:, 1])


class TestStepWork:
    """What a step computes: the observation on demand. Success, like the
    rewards, comes from the scoring pass."""

    def test_avoid_tracks_reached_on_every_step(self):
        env = TaskEnv(TaskEnvConfig("avoid", fixed_init="+"), seeds=[0, 1])
        start = env.world
        expected = _reference_target_reached(env.world, env.targets)
        assert expected.tolist() == [False, False]
        assert env.episode_success().tolist() == _reference_success(
            "avoid", env.targets, start, env.world, expected).tolist() == [False, False]
        for t in range(12):
            if t == 4:  # row 1's agent onto its target for two steps
                env.world.x[1, 0], env.world.y[1, 0] = env.targets[1, 0]
            if t == 6:
                env.world.x[1, 0], env.world.y[1, 0] = 0.0, 0.0
            env.step(np.zeros((2, 1, 12)))
            expected = expected | _reference_target_reached(env.world, env.targets)
            assert env.episode_success().tolist() == _reference_success(
                "avoid", env.targets, start, env.world, expected).tolist()
        assert env.episode_success().tolist() == [False, True]

    @pytest.mark.parametrize("kind", ["low_goal", "push", "coordinate"])
    def test_reached_is_not_tracked_where_success_ignores_it(self, kind):
        # the goal is met at the start, not at the end: only the latest
        # state counts, as the reference says without any reached
        env = TaskEnv(TaskEnvConfig(kind), seeds=[0])
        start = env.world
        _meet_goal(env, [0])
        assert env.episode_success().tolist() == [True]
        env.step(np.zeros((1, env.n_agents, 12)))
        if kind == "low_goal":
            env.world.x[0, 0] += 5.0
        else:
            env.world.bx[0, 0] += 5.0
        expected = _reference_success(kind, env.targets, start, env.world, None)
        assert env.episode_success().tolist() == expected.tolist() == [False]

    def test_on_demand_obs_equals_the_eager_observation(self):
        seeds, eps = (3, 4), TORSO_OBS_NOISE
        env = TaskEnv(TaskEnvConfig("coordinate", rand=RandomizationConfig()), seeds)
        # the documented schedule: sub-stream 60, one draw per torso slot
        # of every observation, reset included
        noise = np.stack([reference_stream(s, 60).uniform(-eps, eps, (env.horizon + 1, 4))
                          for s in seeds])
        rng = np.random.default_rng(0)
        for t in range(env.horizon + 1):
            eager = observe_task(env.world, env.kind, env.targets)
            eager[:, torso_xy_slots(2)] += noise[:, t]
            assert env.obs.tobytes() == eager.tobytes()
            if t < env.horizon:
                env.step(rng.uniform(-1.0, 1.0, (2, 2, 12)))

    @pytest.mark.parametrize("kind, rand, overrides, pushed", [
        ("low_goal", RandomizationConfig(), None, True),
        ("push", RandomizationConfig(dynamics=False), None, False),
        ("push", RandomizationConfig(),
         EnvOverrides(DynamicsParams(), flat_terrain()), False),
    ], ids=["drawn", "dynamics_off", "overrides"])
    def test_rows_pass_a_wrench_at_every_step_or_at_none(self, kind, rand, overrides,
                                                         pushed, monkeypatch):
        passed = []
        step_worlds = legwork.tasks.step_worlds

        def recording(world, actions, wrench, live):
            passed.append(wrench)
            return step_worlds(world, actions, wrench, live)

        monkeypatch.setattr(legwork.tasks, "step_worlds", recording)
        env = TaskEnv(TaskEnvConfig(kind, rand=rand, overrides=overrides), seeds=[1, 2])
        for _ in range(12):
            env.step(np.zeros((2, 1, 12)))
        if pushed:
            assert all(w is not None and w.tobytes() == env.wrench[:, :, t].tobytes()
                       for t, w in enumerate(passed))
        else:
            assert passed == [None] * 12


# Setups whose per-step rewards the scoring pass must reproduce: every
# kind, randomized starts, object dimensions with observation noise, a
# fixed start, and overrides with rough terrain and a lateral bias force.
_ROUGH = EnvOverrides(
    DynamicsParams(total_mass=2.1, lateral_bias_force=0.8),
    np.random.default_rng(3).uniform(0.0, 0.1, (32, 32)),
    sticky_prob=0.3)
SCORED_SETUPS = {
    "low_goal/rand": TaskEnvConfig("low_goal", rand=RandomizationConfig()),
    "avoid/rand": TaskEnvConfig("avoid", rand=RandomizationConfig()),
    "push/rand": TaskEnvConfig("push", rand=RandomizationConfig()),
    "coordinate/dims/noise": TaskEnvConfig("coordinate", rand=RandomizationConfig()),
    "avoid/fixed": TaskEnvConfig("avoid", fixed_init="+"),
    "push/overrides": TaskEnvConfig("push", rand=RandomizationConfig(), overrides=_ROUGH),
    "low_goal/overrides": TaskEnvConfig("low_goal", overrides=_ROUGH),
}


class TestScoringPass:
    """Rewards and success come from one pass after the last step, bit for
    bit what scoring each step's world would give."""

    @pytest.mark.parametrize("name", sorted(SCORED_SETUPS))
    def test_one_pass_equals_scoring_every_step(self, name):
        env = TaskEnv(SCORED_SETUPS[name], seeds=[3, 4, 5, 6])
        start = env.world
        rng = np.random.default_rng(1)
        per_step = []
        reached = _reference_target_reached(env.world, env.targets)
        while not env.done.all():
            env.step(rng.uniform(-1.0, 1.0, (4, env.n_agents, 12)))
            per_step.append(task_reward(env.world, env.kind, env.targets)[0])
            reached = reached | _reference_target_reached(env.world, env.targets)
        assert env.rewards().shape == (4, env.t)
        assert env.rewards().tobytes() == np.stack(per_step, axis=1).tobytes()
        # avoid reads reached; the reference ignores it for the other kinds
        expected = _reference_success(env.kind, env.targets, start, env.world,
                                      reached if env.kind == "avoid" else None)
        assert env.episode_success().tolist() == expected.tolist()

    @pytest.mark.parametrize("name", sorted(SCORED_SETUPS))
    def test_success_equals_the_reference_after_every_step(self, name):
        # rows 1 and 2 are put on their goals at step 3 and row 3 at the
        # start, so both answers of every kind's test are met
        env = TaskEnv(SCORED_SETUPS[name], seeds=[3, 4, 5, 6])
        start = env.world
        rng = np.random.default_rng(2)
        reached = np.zeros(4, dtype=bool)
        seen = np.zeros(4, dtype=bool)
        while True:
            if env.t in (0, 3):
                _meet_goal(env, [3] if env.t == 0 else [1, 2])
            reached = reached | _reference_target_reached(env.world, env.targets)
            expected = _reference_success(env.kind, env.targets, start, env.world,
                                          reached)
            assert env.episode_success().tolist() == expected.tolist()
            seen |= expected
            if env.done.all():
                break
            env.step(rng.uniform(-1.0, 1.0, (4, env.n_agents, 12)))
        assert seen.any() and not seen.all()

    def test_rewards_so_far(self):
        env = TaskEnv(TaskEnvConfig("push"), seeds=[0, 1])
        assert env.rewards().shape == (2, 0)
        for _ in range(3):
            env.step(np.ones((2, 1, 12)))
        first = env.rewards()
        env.step(np.ones((2, 1, 12)))
        assert env.rewards().shape == (2, 4)
        assert env.rewards()[:, :3].tobytes() == first.tobytes()

    def test_task_reward_runs_once_per_read(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(1)
            return task_reward(*args)

        monkeypatch.setattr(legwork.tasks, "task_reward", counting)
        env = TaskEnv(TaskEnvConfig("avoid"), seeds=[0, 1])
        for _ in range(env.horizon):
            env.step(np.zeros((2, 1, 12)))
        assert calls == []  # stepping scores nothing
        env.rewards()
        env.episode_success()  # success comes from the same pass
        assert len(calls) == 1


def _recording_substreams(monkeypatch) -> Counter:
    """Count the sub-stream keys that TaskEnv builds from here on, one per
    (seed, key) pair given to substreams."""
    keys = Counter()

    def recording(seeds, pair_keys):
        keys.update(tuple(int(w) for w in key) for key in pair_keys)
        return substreams(seeds, pair_keys)

    monkeypatch.setattr(legwork.tasks, "substreams", recording)
    return keys


class TestArrayStarts:
    @pytest.mark.parametrize("kind", TASK_KINDS)
    def test_switched_off_randomization_leaves_rows_nominal(self, kind, monkeypatch):
        keys = _recording_substreams(monkeypatch)
        off = RandomizationConfig(dynamics=False, task=False)
        env = TaskEnv(TaskEnvConfig(kind, rand=off), seeds=[0, 1, 2])
        nominal = DynamicsParams()
        for f in fields(DynamicsParams):
            column = env.world.params[f.name]
            assert column.shape == (3, env.n_agents)
            assert (column == getattr(nominal, f.name)).all()
        assert env.world.grid.shape == (3, 32, 32)
        assert not env.world.grid.any() and env.world.constants["all_flat"]
        assert env.sticky is None and env.wrench is None
        # only the initialization draws
        assert keys == {(40,): 3}

    @pytest.mark.parametrize("kind", TASK_KINDS)
    def test_each_switch_builds_only_its_own_substreams(self, kind, monkeypatch):
        keys = _recording_substreams(monkeypatch)
        n = 2 if kind == "coordinate" else 1
        dynamics = {(0,)} | {(k + i,) for k in (10, 20, 30) for i in range(n)}
        if kind != "low_goal":  # the torso noise of a kind that observes a torso
            dynamics |= {(60,)}
        task = {(50,)} if kind == "coordinate" else set()
        for rand, expected in [
                (RandomizationConfig(), dynamics | task),
                (RandomizationConfig(dynamics=False), task),
                (RandomizationConfig(task=False), dynamics)]:
            keys.clear()
            TaskEnv(TaskEnvConfig(kind, rand=rand), seeds=[0, 1, 2])
            # 40 is the initialization, drawn whatever the switches say
            assert keys == {key: 3 for key in expected | {(40,)}}

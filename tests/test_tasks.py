import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from legwork.errors import ConfigurationError
from legwork.policy import Goal
from legwork.randomization import RandomizationConfig
from legwork.tasks import (
    COORD_BLOCK_HALF,
    COORD_BLOCK_MASS,
    EpisodeTrace,
    EnvOverrides,
    TaskEnv,
    TaskEnvConfig,
    TaskInstance,
    TaskSpec,
    agent_core_obs,
    avoid_reward_terms,
    block_ends,
    coordinate_reward_terms,
    fixed_eval_init,
    init_avoid,
    init_coordinate,
    init_push,
    low_level_reward_terms,
    observe_task,
    push_reward_terms,
    sample_low_level_goal,
    success,
    task_reward,
    torso_xy_slots,
)
from legwork.world import AgentState, BlockState, DynamicsParams, HeightField, WorldState


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


def _trace_from(world_seq, rewards=None):
    trace = EpisodeTrace()
    for w in world_seq:
        trace.record(w)
    trace.rewards = rewards or [0.0] * (len(world_seq) - 1)
    return trace


def _world(agents, blocks):
    return WorldState(list(agents), list(blocks), HeightField.flat(),
                      [DynamicsParams.nominal()] * len(agents))


class TestGoalSampling:
    def test_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            g = sample_low_level_goal(rng)
            r = math.hypot(g.gx, g.gy)
            v = math.atan2(g.gy, g.gx)
            assert 1.0 <= r <= 2.0
            assert -0.5 <= v <= 0.5

    def test_radius_distribution(self):
        rng = np.random.default_rng(1)
        radii = [math.hypot(g.gx, g.gy)
                 for g in (sample_low_level_goal(rng) for _ in range(10_000))]
        assert ks_statistic(radii, lambda r: r - 1.0) < 0.02

    def test_forced_draw(self):
        g = sample_low_level_goal(_QueueRng([1.0, 0.0]))
        assert (g.gx, g.gy) == (1.0, 0.0)


def _low_goal(agent, goal):
    """The world and task of a low_goal episode with agent and goal."""
    return (_world([agent], []),
            TaskInstance(TaskSpec("low_goal"), np.array([[goal.gx, goal.gy]])))


class TestLowLevelReward:
    def test_at_goal_upright(self):
        agent = AgentState.at_rest(x=1.0, y=1.0, yaw=0.3)
        r = task_reward(*_low_goal(agent, Goal(1.0, 1.0)))
        assert r == pytest.approx(10.0)

    def test_facing_goal_two_meters(self):
        agent = AgentState.at_rest()
        r = task_reward(*_low_goal(agent, Goal(2.0, 0.0)))
        assert r == pytest.approx(-2.0 + 1.0)

    def test_fallen_facing_away(self):
        agent = AgentState.at_rest(yaw=math.pi)
        agent.z_proxy = 0.1
        r = task_reward(*_low_goal(agent, Goal(1.0, 0.0)))
        assert r == pytest.approx(-1.0 - 5.0 - 1.0)

    def test_terms_sum_to_reward(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            agent = AgentState.at_rest(x=rng.uniform(-2, 2), y=rng.uniform(-2, 2),
                                       yaw=rng.uniform(-3, 3))
            agent.z_proxy = rng.uniform(0, 0.3)
            world, task = _low_goal(agent, Goal(*rng.uniform(-2, 2, 2)))
            terms = low_level_reward_terms(world, task)
            assert task_reward(world, task) == sum(terms.values())


class TestInitializations:
    def test_avoid_forced_block_radius_floor(self):
        # draws: r_T=1.5, theta_T=0, block factor 0.3, angle offset 0
        world, task = init_avoid(_QueueRng([1.5, 0.0, 0.3, 0.0]))
        assert math.hypot(world.blocks[0].x, world.blocks[0].y) == pytest.approx(0.6)
        assert task.targets[0][0] == pytest.approx(1.5)
        assert task.targets[0][1] == pytest.approx(0.0)

    def test_avoid_laws(self):
        rng = np.random.default_rng(2)
        r_ts, th_ts, offs = [], [], []
        for _ in range(10_000):
            world, task = init_avoid(rng)
            tx, ty = task.targets[0]
            r_ts.append(math.hypot(tx, ty))
            th_ts.append(math.atan2(ty, tx))
            b = world.blocks[0]
            offs.append(math.atan2(b.y, b.x) - math.atan2(ty, tx))
        assert ks_statistic(r_ts, lambda r: (r - 1.5) / 1.0) < 0.02
        assert ks_statistic(th_ts, lambda t: (t + 1) / 2) < 0.02
        assert ks_statistic(offs, lambda t: (t + 0.5) / 1.0) < 0.02

    def test_push_gives_up_after_max_attempts(self):
        with pytest.raises(ConfigurationError):
            init_push(np.random.default_rng(0), max_attempts=0)

    def test_push_never_starts_in_contact_margin(self):
        rng = np.random.default_rng(3)
        for _ in range(10_000):
            world, _ = init_push(rng)
            b = world.blocks[0]
            assert math.hypot(b.x, b.y) >= 0.5

    def test_push_laws(self):
        rng = np.random.default_rng(4)
        r_bs, th_bs = [], []
        for _ in range(10_000):
            world, task = init_push(rng)
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
            _, task = init_coordinate(rng)
            gap = math.hypot(*(task.targets[0] - task.targets[1]))
            assert gap == pytest.approx(1.1, abs=1e-12)

    def test_coordinate_geometry(self):
        _, task = init_coordinate(np.random.default_rng(0))
        assert task.spec.n_agents == 2
        world, _ = init_coordinate(np.random.default_rng(0))
        assert world.agents[0].y - world.agents[1].y == pytest.approx(1.2)
        assert world.blocks[0].x == pytest.approx(0.8)


class TestTaskRewards:
    def test_avoid_at_target_far_from_block(self):
        world = _world([AgentState.at_rest(x=2.0, y=0.5)],
                       [BlockState(-3.0, 0.0, 0.0, (0.3, 0.3), 4.0)])
        task = TaskInstance(TaskSpec("avoid"), np.array([[2.0, 0.5]]))
        assert task_reward(world, task) == pytest.approx(10.0)

    def test_push_contact_at_target(self):
        # block centered on the target, agent touching its -x face:
        # center distance = agent radius + half extent = 0.6
        world = _world([AgentState.at_rest(x=0.4)],
                       [BlockState(1.0, 0.0, 0.0, (0.3, 0.3), 4.0)])
        task = TaskInstance(TaskSpec("push"), np.array([[1.0, 0.0]]))
        assert task_reward(world, task) == pytest.approx(-0.6 + 0.0 + 10.0 + 0.0)

    def test_coordinate_both_ends_at_targets(self):
        block = BlockState(0.0, 0.0, 0.0, COORD_BLOCK_HALF, COORD_BLOCK_MASS)
        world = _world([AgentState.at_rest(), AgentState.at_rest(y=-1.2)], [block])
        task = TaskInstance(TaskSpec("coordinate"), block_ends(block))
        assert task_reward(world, task) == pytest.approx(10.0)

    def test_terms_sum_to_rewards(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            world, task = init_push(rng)
            terms = push_reward_terms(world, task)
            assert task_reward(world, task) == sum(terms.values())
            world, task = init_avoid(rng)
            terms = avoid_reward_terms(world, task)
            assert task_reward(world, task) == sum(terms.values())
            world, task = init_coordinate(rng)
            terms = coordinate_reward_terms(world, task)
            assert task_reward(world, task) == sum(terms.values())


class TestSuccess:
    def test_avoid_fails_when_block_moves(self):
        task = TaskInstance(TaskSpec("avoid"), np.array([[2.0, 0.5]]))
        w0 = _world([AgentState.at_rest()], [BlockState(1.0, 0.0, 0.0, (0.3, 0.3), 4.0)])
        w1 = _world([AgentState.at_rest(x=2.0, y=0.5)],
                    [BlockState(1.2, 0.0, 0.0, (0.3, 0.3), 4.0)])  # moved 0.2 m
        assert not success(task, _trace_from([w0, w1]))
        w1_clean = _world([AgentState.at_rest(x=2.0, y=0.5)],
                          [BlockState(1.0, 0.0, 0.0, (0.3, 0.3), 4.0)])
        assert success(task, _trace_from([w0, w1_clean]))

    def test_push_boundary(self):
        task = TaskInstance(TaskSpec("push"), np.array([[2.0, 0.0]]))
        w0 = _world([AgentState.at_rest()], [BlockState(1.0, 0.0, 0.0, (0.3, 0.3), 4.0)])
        w_049 = _world([AgentState.at_rest()],
                       [BlockState(1.51, 0.0, 0.0, (0.3, 0.3), 4.0)])
        assert success(task, _trace_from([w0, w_049]))
        w_051 = _world([AgentState.at_rest()],
                       [BlockState(1.49, 0.0, 0.0, (0.3, 0.3), 4.0)])
        assert not success(task, _trace_from([w0, w_051]))

    def test_coordinate_needs_both_ends(self):
        block = BlockState(0.0, 0.0, 0.0, COORD_BLOCK_HALF, COORD_BLOCK_MASS)
        ends = block_ends(block)
        targets = ends + np.array([[0.29, 0.0], [0.31, 0.0]])  # 0.29 and 0.31 away
        task = TaskInstance(TaskSpec("coordinate"), targets)
        w = _world([AgentState.at_rest(), AgentState.at_rest(y=-1.2)], [block])
        assert not success(task, _trace_from([w, w]))
        targets_ok = ends + np.array([[0.29, 0.0], [0.29, 0.0]])
        task_ok = TaskInstance(TaskSpec("coordinate"), targets_ok)
        assert success(task_ok, _trace_from([w, w]))

    @settings(max_examples=50)
    @given(d_succ=st.floats(0.0, 0.499), d_less=st.floats(0.0, 1.0))
    def test_push_success_monotone(self, d_succ, d_less):
        # any final distance strictly below a succeeding one also succeeds
        d2 = min(d_succ, d_less)
        task = TaskInstance(TaskSpec("push"), np.array([[0.0, 0.0]]))
        w0 = _world([AgentState.at_rest()], [BlockState(3.0, 0.0, 0.0, (0.3, 0.3), 4.0)])
        w_a = _world([AgentState.at_rest()], [BlockState(d_succ, 0.0, 0.0, (0.3, 0.3), 4.0)])
        w_b = _world([AgentState.at_rest()], [BlockState(d2, 0.0, 0.0, (0.3, 0.3), 4.0)])
        assert success(task, _trace_from([w0, w_a]))
        assert success(task, _trace_from([w0, w_b]))


class TestFixedEvalInit:
    def test_avoid_variants(self):
        _, task_p = fixed_eval_init("avoid", "+")
        _, task_m = fixed_eval_init("avoid", "-")
        assert tuple(task_p.targets[0]) == (2.0, 0.5)
        assert tuple(task_m.targets[0]) == (2.0, -0.5)

    def test_push_block_one_meter_ahead(self):
        world, _ = fixed_eval_init("push", "+")
        assert (world.blocks[0].x, world.blocks[0].y) == (1.0, 0.0)

    def test_coordinate_targets_are_translated_ends(self):
        world, task = fixed_eval_init("coordinate")
        ends = block_ends(world.blocks[0])
        assert np.allclose(task.targets, ends + np.array([1.5, 0.0]))
        assert task.targets[0][0] == pytest.approx(2.3)
        assert abs(task.targets[0][1]) == pytest.approx(0.55)


class TestObservations:
    def test_dimensions(self):
        w, t = init_push(np.random.default_rng(0))
        assert observe_task(w, t).shape == (32,)
        w, t = init_avoid(np.random.default_rng(0))
        assert observe_task(w, t).shape == (32,)
        w, t = init_coordinate(np.random.default_rng(0))
        assert observe_task(w, t).shape == (70,)

    def test_relative_slots_match_independent_recomputation(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            world, task = init_push(rng)
            agent = world.agents[0]
            agent.x, agent.y, agent.yaw = rng.uniform(-2, 2, 3)
            obs = observe_task(world, task)
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
        world, task = init_coordinate(np.random.default_rng(1))
        obs = observe_task(world, task)
        block = world.blocks[0]
        assert obs[56] == pytest.approx(math.cos(block.yaw))
        assert obs[57] == pytest.approx(math.sin(block.yaw))
        core0 = agent_core_obs(world.agents[0])
        assert np.array_equal(obs[:28], core0)

    def test_torso_slots(self):
        assert torso_xy_slots(1) == [24, 25]
        assert torso_xy_slots(2) == [24, 25, 52, 53]


class TestLowLevelGoalEnv:
    """The low_goal kind of TaskEnv."""

    def test_deterministic_episode(self):
        def run(seed):
            env = TaskEnv(TaskEnvConfig("low_goal", rand=RandomizationConfig()), seed)
            rng = np.random.default_rng(0)
            total, obs = 0.0, env.reset()
            for _ in range(env.horizon):
                obs, r, done, info = env.step(rng.uniform(-1, 1, (1, 12)))
                total += r
                if done:
                    break
            return total, obs

        t1, o1 = run(7)
        t2, o2 = run(7)
        assert t1 == t2
        assert np.array_equal(o1, o2)

    def test_terminates_on_fall(self):
        env = TaskEnv(TaskEnvConfig("low_goal"), 0)
        env.world.agents[0].qdot[:] = 0.0
        env.world.agents[0].q[:] = -1.4
        env.world.agents[0].qdot[1] = 20.0  # will trip the stability check
        _, _, done, _ = env.step(np.zeros((1, 12)))
        assert done and env.world.agents[0].fallen

    def test_goal_within_law(self):
        for seed in range(50):
            env = TaskEnv(TaskEnvConfig("low_goal", rand=RandomizationConfig()), seed)
            r = math.hypot(*env.task.targets[0])
            assert 1.0 <= r <= 2.0

    def test_overrides_pin_dynamics(self):
        ov = EnvOverrides(params=DynamicsParams.nominal(),
                          terrain=HeightField.flat(), sticky_prob=0.0)
        env = TaskEnv(TaskEnvConfig("low_goal", rand=RandomizationConfig(),
                                    overrides=ov), 3)
        assert env.world.params[0].total_mass == 1.8
        assert env.world.terrain.amplitude == 0.0
        assert not env.wrench_on


class TestTaskEnv:
    def test_reset_is_reproducible(self):
        cfg = TaskEnvConfig(kind="push", rand=RandomizationConfig())
        e1 = TaskEnv(cfg, seed=11)
        e2 = TaskEnv(cfg, seed=11)
        assert np.array_equal(observe_task(e1.world, e1.task),
                              observe_task(e2.world, e2.task))
        assert e1.world.params[0] == e2.world.params[0]
        rng = np.random.default_rng(0)
        acts = rng.uniform(-1, 1, (200, 1, 12))
        tot1 = sum(e1.step(acts[t])[1] for t in range(50))
        tot2 = sum(e2.step(acts[t])[1] for t in range(50))
        assert tot1 == tot2

    def test_never_terminates_early(self):
        cfg = TaskEnvConfig(kind="push")
        env = TaskEnv(cfg, seed=0)
        done_flags = []
        for t in range(200):
            _, _, done, _ = env.step(np.zeros((1, 12)))
            done_flags.append(done)
        assert not any(done_flags[:-1])
        assert done_flags[-1]

    def test_fixed_init_variant(self):
        env = TaskEnv(TaskEnvConfig(kind="avoid", fixed_init="-"), seed=0)
        assert tuple(env.task.targets[0]) == (2.0, -0.5)
        assert env.world.blocks[0].x == 1.0

    def test_object_dims_randomized_only_when_enabled(self):
        rand_on = RandomizationConfig()
        rand_off = RandomizationConfig.all_off()
        e_on = TaskEnv(TaskEnvConfig(kind="coordinate", rand=rand_on), seed=5)
        e_off = TaskEnv(TaskEnvConfig(kind="coordinate", rand=rand_off), seed=5)
        assert e_off.world.blocks[0].half_extents == COORD_BLOCK_HALF
        hx, hy = e_on.world.blocks[0].half_extents
        assert 0.12 <= hx <= 0.18 and 0.56 <= hy <= 0.84

    def test_obs_noise_touches_only_torso_slots(self):
        cfg_clean = TaskEnvConfig(kind="push")
        cfg_noisy = TaskEnvConfig(kind="push", torso_obs_noise=0.1)
        clean = TaskEnv(cfg_clean, seed=9).reset()
        noisy = TaskEnv(cfg_noisy, seed=9).reset()
        diff = np.nonzero(clean != noisy)[0]
        assert set(diff).issubset({24, 25})
        assert np.abs(clean[[24, 25]] - noisy[[24, 25]]).max() <= 0.1

    def test_bad_action_shape(self):
        env = TaskEnv(TaskEnvConfig(kind="coordinate"), seed=0)
        with pytest.raises(ConfigurationError):
            env.step(np.zeros((1, 12)))

    def test_success_via_trace(self):
        env = TaskEnv(TaskEnvConfig(kind="push", fixed_init="+"), seed=0)
        for _ in range(200):
            env.step(np.zeros((1, 12)))
        assert env.episode_success() is False  # nothing moved the block

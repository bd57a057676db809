import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from legwork.errors import ConfigurationError, NumericsError
from legwork.randomization import RandomizationConfig, substream
from legwork.tasks import (
    COORD_BLOCK_HALF,
    COORD_BLOCK_MASS,
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
    target_reached,
    task_reward,
    torso_xy_slots,
)
from legwork.world import (
    AgentState,
    BlockState,
    DynamicsParams,
    HeightField,
    Worlds,
    WorldState,
)


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
    return WorldState(list(agents), list(blocks), HeightField.flat(),
                      [DynamicsParams.nominal()] * len(agents))


def _row(world, task):
    """One episode as the one-row arguments of the batched task functions:
    (Worlds, spec, targets)."""
    return Worlds.stack([world]), task.spec, task.targets[None]


def _reward(world, task) -> float:
    return float(task_reward(*_row(world, task))[0])


def _terms(terms_fn, world, task) -> dict:
    return {k: float(v[0]) for k, v in terms_fn(*_row(world, task)).items()}


def _observe(world, task) -> np.ndarray:
    return observe_task(*_row(world, task))[0]


def _succeeds(task, worlds) -> bool:
    """success of a one-row episode that passed through the given worlds."""
    rows = [_row(w, task) for w in worlds]
    reached = np.any([target_reached(*r) for r in rows], axis=0)
    return bool(success(task.spec, task.targets[None], rows[0][0], rows[-1][0],
                        reached)[0])


class TestGoalSampling:
    def test_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            gx, gy = sample_low_level_goal(rng)
            r = math.hypot(gx, gy)
            v = math.atan2(gy, gx)
            assert 1.0 <= r <= 2.0
            assert -0.5 <= v <= 0.5

    def test_radius_distribution(self):
        rng = np.random.default_rng(1)
        radii = [math.hypot(*sample_low_level_goal(rng)) for _ in range(10_000)]
        assert ks_statistic(radii, lambda r: r - 1.0) < 0.02

    def test_forced_draw(self):
        g = sample_low_level_goal(_QueueRng([1.0, 0.0]))
        assert g.shape == (2,) and tuple(g) == (1.0, 0.0)


def _low_goal(agent, goal):
    """The world and task of a low_goal episode with agent and goal (x, y)."""
    return (_world([agent], []),
            TaskInstance(TaskSpec("low_goal"), np.array([goal], dtype=float)))


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
        assert _reward(world, task) == pytest.approx(10.0)

    def test_push_contact_at_target(self):
        # block centered on the target, agent touching its -x face:
        # center distance = agent radius + half extent = 0.6
        world = _world([AgentState.at_rest(x=0.4)],
                       [BlockState(1.0, 0.0, 0.0, (0.3, 0.3), 4.0)])
        task = TaskInstance(TaskSpec("push"), np.array([[1.0, 0.0]]))
        assert _reward(world, task) == pytest.approx(-0.6 + 0.0 + 10.0 + 0.0)

    def test_coordinate_both_ends_at_targets(self):
        block = BlockState(0.0, 0.0, 0.0, COORD_BLOCK_HALF, COORD_BLOCK_MASS)
        world = _world([AgentState.at_rest(), AgentState.at_rest(y=-1.2)], [block])
        task = TaskInstance(TaskSpec("coordinate"), block_ends(block.x, block.y, block.yaw))
        assert _reward(world, task) == pytest.approx(10.0)

    def test_terms_sum_to_rewards(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            world, task = init_push(rng)
            terms = _terms(push_reward_terms, world, task)
            assert _reward(world, task) == sum(terms.values())
            world, task = init_avoid(rng)
            terms = _terms(avoid_reward_terms, world, task)
            assert _reward(world, task) == sum(terms.values())
            world, task = init_coordinate(rng)
            terms = _terms(coordinate_reward_terms, world, task)
            assert _reward(world, task) == sum(terms.values())


class TestSuccess:
    def test_avoid_fails_when_block_moves(self):
        task = TaskInstance(TaskSpec("avoid"), np.array([[2.0, 0.5]]))
        w0 = _world([AgentState.at_rest()], [BlockState(1.0, 0.0, 0.0, (0.3, 0.3), 4.0)])
        w1 = _world([AgentState.at_rest(x=2.0, y=0.5)],
                    [BlockState(1.2, 0.0, 0.0, (0.3, 0.3), 4.0)])  # moved 0.2 m
        assert not _succeeds(task, [w0, w1])
        w1_clean = _world([AgentState.at_rest(x=2.0, y=0.5)],
                          [BlockState(1.0, 0.0, 0.0, (0.3, 0.3), 4.0)])
        assert _succeeds(task, [w0, w1_clean])

    def test_push_boundary(self):
        task = TaskInstance(TaskSpec("push"), np.array([[2.0, 0.0]]))
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
        task = TaskInstance(TaskSpec("coordinate"), targets)
        w = _world([AgentState.at_rest(), AgentState.at_rest(y=-1.2)], [block])
        assert not _succeeds(task, [w, w])
        targets_ok = ends + np.array([[0.29, 0.0], [0.29, 0.0]])
        task_ok = TaskInstance(TaskSpec("coordinate"), targets_ok)
        assert _succeeds(task_ok, [w, w])

    @settings(max_examples=50)
    @given(d_succ=st.floats(0.0, 0.499), d_less=st.floats(0.0, 1.0))
    def test_push_success_monotone(self, d_succ, d_less):
        # any final distance strictly below a succeeding one also succeeds
        d2 = min(d_succ, d_less)
        task = TaskInstance(TaskSpec("push"), np.array([[0.0, 0.0]]))
        w0 = _world([AgentState.at_rest()], [BlockState(3.0, 0.0, 0.0, (0.3, 0.3), 4.0)])
        w_a = _world([AgentState.at_rest()], [BlockState(d_succ, 0.0, 0.0, (0.3, 0.3), 4.0)])
        w_b = _world([AgentState.at_rest()], [BlockState(d2, 0.0, 0.0, (0.3, 0.3), 4.0)])
        assert _succeeds(task, [w0, w_a])
        assert _succeeds(task, [w0, w_b])


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
        b = world.blocks[0]
        ends = block_ends(b.x, b.y, b.yaw)
        assert np.allclose(task.targets, ends + np.array([1.5, 0.0]))
        assert task.targets[0][0] == pytest.approx(2.3)
        assert abs(task.targets[0][1]) == pytest.approx(0.55)


class TestObservations:
    def test_dimensions(self):
        w, t = init_push(np.random.default_rng(0))
        assert _observe(w, t).shape == (32,)
        w, t = init_avoid(np.random.default_rng(0))
        assert _observe(w, t).shape == (32,)
        w, t = init_coordinate(np.random.default_rng(0))
        assert _observe(w, t).shape == (70,)

    def test_relative_slots_match_independent_recomputation(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            world, task = init_push(rng)
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
        world, task = init_coordinate(np.random.default_rng(1))
        obs = _observe(world, task)
        block = world.blocks[0]
        assert obs[56] == pytest.approx(math.cos(block.yaw))
        assert obs[57] == pytest.approx(math.sin(block.yaw))
        core0 = agent_core_obs(Worlds.stack([world]))[0, 0]
        assert np.array_equal(obs[:28], core0)

    def test_torso_slots(self):
        assert torso_xy_slots(1) == [24, 25]
        assert torso_xy_slots(2) == [24, 25, 52, 53]


class TestLowLevelGoalEnv:
    """The low_goal kind of TaskEnv."""

    def test_deterministic_episode(self):
        def run(seed):
            env = TaskEnv(TaskEnvConfig("low_goal", rand=RandomizationConfig()), [seed])
            rng = np.random.default_rng(0)
            total = 0.0
            for _ in range(env.horizon):
                r, done = env.step(rng.uniform(-1, 1, (1, 1, 12)))
                total += r[0]
                if done[0]:
                    break
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
        _, done = env.step(np.zeros((1, 1, 12)))
        assert done[0] and env.world.fallen[0, 0]

    def test_goal_within_law(self):
        env = TaskEnv(TaskEnvConfig("low_goal", rand=RandomizationConfig()), range(50))
        r = np.hypot(env.targets[:, 0, 0], env.targets[:, 0, 1])
        assert np.all((1.0 <= r) & (r <= 2.0))

    def test_overrides_pin_dynamics(self):
        ov = EnvOverrides(params=DynamicsParams.nominal(),
                          terrain=HeightField.flat(), sticky_prob=0.0)
        env = TaskEnv(TaskEnvConfig("low_goal", rand=RandomizationConfig(),
                                    overrides=ov), [3])
        assert env.world.params["total_mass"][0, 0] == 1.8
        assert not env.world.grid.any()
        assert not env.wrench.any()
        assert not env.sticky.any()


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
        tot1 = sum(e1.step(acts[t])[0][0] for t in range(50))
        tot2 = sum(e2.step(acts[t])[0][0] for t in range(50))
        assert tot1 == tot2

    def test_never_terminates_early(self):
        cfg = TaskEnvConfig(kind="push")
        env = TaskEnv(cfg, seeds=[0])
        done_flags = []
        for t in range(200):
            _, done = env.step(np.zeros((1, 1, 12)))
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

    def test_fixed_init_variant(self):
        env = TaskEnv(TaskEnvConfig(kind="avoid", fixed_init="-"), seeds=[0])
        assert tuple(env.targets[0, 0]) == (2.0, -0.5)
        assert env.world.bx[0, 0] == 1.0

    @pytest.mark.parametrize("make", [
        lambda: TaskEnvConfig("push", torso_obs_noise=-0.1),
        lambda: TaskEnvConfig("push", torso_obs_noise=math.nan),
        lambda: TaskEnvConfig("push", torso_obs_noise=math.inf),
        lambda: TaskEnvConfig("avoid", fixed_init="x"),
        lambda: EnvOverrides(DynamicsParams.nominal(), HeightField.flat(), 1.7),
        lambda: EnvOverrides(DynamicsParams.nominal(), HeightField.flat(), -0.1),
        lambda: EnvOverrides(DynamicsParams.nominal(), HeightField.flat(), math.nan),
    ], ids=["noise_negative", "noise_nan", "noise_inf", "fixed_init_x",
            "sticky_above_one", "sticky_negative", "sticky_nan"])
    def test_bad_env_settings_rejected(self, make):
        with pytest.raises(ConfigurationError):
            make()

    def test_object_dims_randomized_only_when_enabled(self):
        rand_on = RandomizationConfig()
        rand_off = RandomizationConfig.all_off()
        e_on = TaskEnv(TaskEnvConfig(kind="coordinate", rand=rand_on), seeds=[5])
        e_off = TaskEnv(TaskEnvConfig(kind="coordinate", rand=rand_off), seeds=[5])
        assert tuple(e_off.world.half_extents[0, 0]) == COORD_BLOCK_HALF
        hx, hy = e_on.world.half_extents[0, 0]
        assert 0.12 <= hx <= 0.18 and 0.56 <= hy <= 0.84

    def test_obs_noise_touches_only_torso_slots(self):
        cfg_clean = TaskEnvConfig(kind="push")
        cfg_noisy = TaskEnvConfig(kind="push", torso_obs_noise=0.1)
        clean = TaskEnv(cfg_clean, seeds=[9]).obs[0]
        noisy = TaskEnv(cfg_noisy, seeds=[9]).obs[0]
        diff = np.nonzero(clean != noisy)[0]
        assert set(diff).issubset({24, 25})
        assert np.abs(clean[[24, 25]] - noisy[[24, 25]]).max() <= 0.1

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


class TestStepWork:
    """What a step computes: the observation on demand, reached for avoid."""

    def test_avoid_tracks_reached_on_every_step(self):
        env = TaskEnv(TaskEnvConfig("avoid", fixed_init="+"), seeds=[0, 1])
        expected = target_reached(env.world, env.spec, env.targets)
        assert env.reached.tolist() == expected.tolist() == [False, False]
        for t in range(12):
            if t == 4:  # row 1's agent onto its target for two steps
                env.world.x[1, 0], env.world.y[1, 0] = env.targets[1, 0]
            if t == 6:
                env.world.x[1, 0], env.world.y[1, 0] = 0.0, 0.0
            env.step(np.zeros((2, 1, 12)))
            expected = expected | target_reached(env.world, env.spec, env.targets)
            assert env.reached.tolist() == expected.tolist()
        assert env.reached.tolist() == [False, True]

    @pytest.mark.parametrize("kind", ["low_goal", "push", "coordinate"])
    def test_reached_is_not_tracked_where_success_ignores_it(self, kind):
        env = TaskEnv(TaskEnvConfig(kind), seeds=[0])
        env.step(np.zeros((1, env.n_agents, 12)))
        assert env.reached is None

    def test_on_demand_obs_equals_the_eager_observation(self):
        seeds, eps = (3, 4), 0.1
        env = TaskEnv(TaskEnvConfig("coordinate", rand=RandomizationConfig(),
                                    torso_obs_noise=eps), seeds)
        # the documented schedule: sub-stream 60, one draw per torso slot
        # of every observation, reset included
        noise = np.stack([substream(s, 60).uniform(-eps, eps, (env.horizon + 1, 4))
                          for s in seeds])
        rng = np.random.default_rng(0)
        for t in range(env.horizon + 1):
            eager = observe_task(env.world, env.spec, env.targets)
            eager[:, torso_xy_slots(2)] += noise[:, t]
            assert env.obs.tobytes() == eager.tobytes()
            if t < env.horizon:
                env.step(rng.uniform(-1.0, 1.0, (2, 2, 12)))

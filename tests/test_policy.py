import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from legwork.errors import ConfigurationError
from legwork.policy import (
    LOW_LEVEL_OBS_DIM,
    Goal,
    MlpPolicy,
    f_goal_space,
    gaussian_kl,
    goal_from_high_action,
    grad_log_prob_sum,
    h_map,
    hierarchical_episode,
    load_checkpoint,
    mask_low_level_obs,
    mean_jvp,
    save_checkpoint,
)
from legwork.world import AgentState, N_JOINTS


class TestGoalSpace:
    def test_origin(self):
        assert f_goal_space(AgentState.at_rest()) == (0.0, 0.0)

    def test_projection_ignores_yaw(self):
        agent = AgentState.at_rest(x=1.5, y=-2.0, yaw=0.73)
        assert f_goal_space(agent) == (1.5, -2.0)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x, y, dx, dy = rng.uniform(-3, 3, 4)
            a = AgentState.at_rest(x=x, y=y, yaw=1.0)
            b = AgentState.at_rest(x=x + dx, y=y + dy, yaw=1.0)
            fa, fb = f_goal_space(a), f_goal_space(b)
            assert fb[0] == pytest.approx(fa[0] + dx)
            assert fb[1] == pytest.approx(fa[1] + dy)


class TestHMap:
    def test_center(self):
        assert h_map((0.0, 0.0)) == pytest.approx((0.5, 0.0))

    def test_max_radius(self):
        assert h_map((1.0, 0.0)) == pytest.approx((0.8, 0.0))

    def test_bearing(self):
        ox, oy = h_map((0.0, 1.0))
        assert ox == pytest.approx(0.49003, abs=1e-5)
        assert oy == pytest.approx(0.09933, abs=1e-5)

    def test_out_of_range_clamps(self):
        assert h_map((5.0, -5.0)) == h_map((1.0, -1.0))

    @settings(max_examples=200)
    @given(a0=st.floats(-1, 1), a1=st.floats(-1, 1))
    def test_offset_range(self, a0, a1):
        ox, oy = h_map((a0, a1))
        u = math.hypot(ox, oy)
        v = math.atan2(oy, ox)
        assert 0.2 - 1e-12 <= u <= 0.8 + 1e-12
        assert -0.2 - 1e-12 <= v <= 0.2 + 1e-12

    def test_world_anchoring(self):
        agent = AgentState.at_rest(x=1.0, y=2.0, yaw=math.pi / 2)
        g = goal_from_high_action(agent, (0.0, 0.0))
        # body-frame offset (0.5, 0) rotated 90 degrees -> (0, 0.5)
        assert g.gx == pytest.approx(1.0)
        assert g.gy == pytest.approx(2.5)


class TestMaskedObs:
    def test_goal_at_agent_is_zero_offset(self):
        agent = AgentState.at_rest(x=1.0, y=-2.0, yaw=0.5)
        obs = mask_low_level_obs(agent, Goal(1.0, -2.0))
        assert obs[30] == 0.0 and obs[31] == 0.0

    def test_pose_slots_always_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            agent = AgentState(rng.uniform(-5, 5), rng.uniform(-5, 5),
                               rng.uniform(-3, 3), 0.3,
                               rng.uniform(-1, 1, 12), rng.uniform(-2, 2, 12))
            obs = mask_low_level_obs(agent, Goal(*rng.uniform(-5, 5, 2)))
            assert np.all(obs[24:30] == 0.0)
            assert obs.shape == (LOW_LEVEL_OBS_DIM,)

    def test_rigid_transform_invariance(self):
        rng = np.random.default_rng(2)
        q = rng.uniform(-1, 1, 12)
        qdot = rng.uniform(-2, 2, 12)
        agent = AgentState(0.3, -0.7, 0.2, 0.3, q, qdot)
        goal = Goal(1.4, 0.3)
        obs0 = mask_low_level_obs(agent, goal)
        # rotate the whole scene by phi and translate by (tx, ty)
        phi, tx, ty = 1.1, 3.0, -2.0
        c, s = math.cos(phi), math.sin(phi)
        agent2 = AgentState(c * 0.3 - s * -0.7 + tx, s * 0.3 + c * -0.7 + ty,
                            0.2 + phi, 0.3, q, qdot)
        goal2 = Goal(c * 1.4 - s * 0.3 + tx, s * 1.4 + c * 0.3 + ty)
        obs1 = mask_low_level_obs(agent2, goal2)
        assert np.allclose(obs0, obs1, atol=1e-12)


class TestMlpPolicy:
    def test_zero_weights_zero_mean(self):
        pol = MlpPolicy(6, 3, seed=0)
        pol.set_flat_params(np.zeros(pol.n_params))
        assert np.array_equal(pol.mean(np.ones(6)), np.zeros(3))

    def test_log_prob_at_mean(self):
        pol = MlpPolicy(5, 4, seed=3)
        obs = np.random.default_rng(0).normal(size=5)
        mu = pol.mean(obs)
        expected = -pol.log_std.sum() - 2.0 * math.log(2 * math.pi)
        assert pol.log_prob(obs, mu) == pytest.approx(expected, abs=1e-12)

    def test_batch_matches_single(self):
        pol = MlpPolicy(5, 3, seed=4)
        rng = np.random.default_rng(1)
        X = rng.normal(size=(6, 5))
        means, _ = pol.mean_batch(X)
        for i in range(6):
            assert np.allclose(means[i], pol.mean(X[i]), atol=1e-12)

    def test_grad_matches_finite_differences(self):
        # central differences with eps=1e-5, relative error < 1e-4,
        # over 10 random small configurations
        rng = np.random.default_rng(7)
        eps = 1e-5
        for trial in range(10):
            pol = MlpPolicy(3, 2, hidden=(4, 4), seed=100 + trial)
            pol.log_std = rng.normal(0, 0.3, 2)
            X = rng.normal(size=(5, 3))
            A = rng.normal(size=(5, 2))
            w = rng.normal(size=5)
            g = grad_log_prob_sum(pol, X, A, w)
            theta = pol.flat_params()
            fd = np.zeros_like(theta)
            for i in range(len(theta)):
                tp, tm = theta.copy(), theta.copy()
                tp[i] += eps
                tm[i] -= eps
                pol.set_flat_params(tp)
                up = float(w @ pol.log_prob_batch(X, A))
                pol.set_flat_params(tm)
                dn = float(w @ pol.log_prob_batch(X, A))
                fd[i] = (up - dn) / (2 * eps)
            pol.set_flat_params(theta)
            rel = np.abs(g - fd).max() / max(np.abs(fd).max(), 1e-12)
            assert rel < 1e-4

    def test_jvp_matches_finite_differences(self):
        pol = MlpPolicy(4, 2, hidden=(6, 6), seed=11)
        rng = np.random.default_rng(3)
        X = rng.normal(size=(5, 4))
        v = rng.normal(size=pol.n_params)
        _, cache = pol.mean_batch(X)
        dmu = mean_jvp(pol, v, cache)
        theta = pol.flat_params()
        eps = 1e-6
        pol.set_flat_params(theta + eps * v)
        up, _ = pol.mean_batch(X)
        pol.set_flat_params(theta - eps * v)
        dn, _ = pol.mean_batch(X)
        pol.set_flat_params(theta)
        assert np.abs(dmu - (up - dn) / (2 * eps)).max() < 1e-6

    def test_kl_zero_at_same_policy(self):
        mu = np.random.default_rng(0).normal(size=(7, 3))
        ls = np.array([0.1, -0.2, 0.0])
        assert gaussian_kl(mu, ls, mu, ls) == 0.0

    def test_dimension_mismatch_rejected(self):
        pol = MlpPolicy(5, 3)
        with pytest.raises(ConfigurationError):
            pol.set_flat_params(np.zeros(3))


class _ConstRewardEnv:
    """Stub task env paying a constant reward each step."""

    n_agents = 1
    obs_dim = 4

    def __init__(self, reward=-1.0, horizon=200):
        self.reward = reward
        self.horizon = horizon
        self._agent = AgentState.at_rest()
        self.t = 0

    def reset(self):
        self.t = 0
        return np.zeros(self.obs_dim)

    def agent_states(self):
        return [self._agent]

    def step(self, actions):
        assert actions.shape == (1, N_JOINTS)
        self.t += 1
        return np.zeros(self.obs_dim), self.reward, self.t >= self.horizon, {}


class TestHierarchicalEpisode:
    def _policies(self):
        return MlpPolicy(4, 2, seed=0), MlpPolicy(LOW_LEVEL_OBS_DIM, 12, seed=1)

    def test_decision_count(self):
        pi_hi, pi_lo = self._policies()
        hi, info = hierarchical_episode(_ConstRewardEnv(), pi_hi, pi_lo,
                                        rng=np.random.default_rng(0))
        assert hi["obs"].shape[0] == 20
        assert hi["rew"].shape == (20,)
        assert len(info["task_rewards"]) == 200

    def test_window_reward_geometric_series(self):
        pi_hi, pi_lo = self._policies()
        hi, info = hierarchical_episode(_ConstRewardEnv(reward=-1.0), pi_hi,
                                        pi_lo, rng=np.random.default_rng(0),
                                        gamma=0.99)
        expected = -(1 - 0.99 ** 10) / 0.01
        assert np.allclose(hi["rew"], expected, atol=1e-12)
        # independent oracle: accumulate the logged per-step rewards
        r = info["task_rewards"]
        for j in range(20):
            oracle = sum(0.99 ** i * r[10 * j + i] for i in range(10))
            assert abs(hi["rew"][j] - oracle) <= 1e-9

    def test_gamma_zero_keeps_first_step_only(self):
        pi_hi, pi_lo = self._policies()
        hi, info = hierarchical_episode(_ConstRewardEnv(reward=-3.0), pi_hi,
                                        pi_lo, rng=np.random.default_rng(0),
                                        gamma=0.0)
        assert np.allclose(hi["rew"], -3.0)

    def test_indivisible_horizon_rejected(self):
        pi_hi, pi_lo = self._policies()
        with pytest.raises(ConfigurationError):
            hierarchical_episode(_ConstRewardEnv(horizon=7), pi_hi, pi_lo,
                                 c=10, horizon=7)

    def test_relative_goal_invariance(self):
        # identical body-frame goal and joint state => identical low action
        pi_lo = MlpPolicy(LOW_LEVEL_OBS_DIM, 12, seed=5)
        rng = np.random.default_rng(9)
        q = rng.uniform(-1, 1, 12)
        qdot = rng.uniform(-1, 1, 12)
        a1 = AgentState(0.0, 0.0, 0.0, 0.3, q, qdot)
        a2 = AgentState(4.0, -2.0, 1.3, 0.3, q, qdot)
        c, s = math.cos(1.3), math.sin(1.3)
        body = (0.6, -0.2)
        g1 = Goal(0.6, -0.2)
        g2 = Goal(4.0 + c * body[0] - s * body[1], -2.0 + s * body[0] + c * body[1])
        m1 = pi_lo.mean(mask_low_level_obs(a1, g1))
        m2 = pi_lo.mean(mask_low_level_obs(a2, g2))
        assert np.allclose(m1, m2, atol=1e-12)


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        pol = MlpPolicy(32, 12, seed=17)
        pol.log_std[:] = -0.5
        save_checkpoint(pol, tmp_path / "ck", meta={"phase": "low"})
        back = load_checkpoint(tmp_path / "ck")
        assert np.array_equal(back.flat_params(), pol.flat_params())
        assert back.layer_dims == pol.layer_dims

    def test_dotted_name_round_trip(self, tmp_path):
        pol = MlpPolicy(4, 2, seed=3)
        save_checkpoint(pol, tmp_path / "run.v1")
        assert {p.name for p in tmp_path.iterdir()} == {"run.v1.json", "run.v1.bin"}
        back = load_checkpoint(tmp_path / "run.v1")
        assert np.array_equal(back.flat_params(), pol.flat_params())

    def test_byte_layout(self, tmp_path):
        pol = MlpPolicy(2, 1, hidden=(2, 2), seed=0)
        save_checkpoint(pol, tmp_path / "ck")
        raw = np.fromfile(tmp_path / "ck.bin", dtype="<f8")
        expected = np.concatenate([
            pol.weights[0].ravel(), pol.biases[0],
            pol.weights[1].ravel(), pol.biases[1],
            pol.weights[2].ravel(), pol.biases[2],
            pol.log_std,
        ])
        assert np.array_equal(raw, expected)
        manifest = json.loads((tmp_path / "ck.json").read_text())
        assert manifest["format_version"] == 1
        assert manifest["layer_dims"] == [2, 2, 2, 1]
        assert manifest["n_params"] == pol.n_params

    def test_save_is_deterministic(self, tmp_path):
        pol = MlpPolicy(6, 2, seed=3)
        save_checkpoint(pol, tmp_path / "a" / "ck", meta={"k": 1})
        save_checkpoint(pol, tmp_path / "b" / "ck", meta={"k": 1})
        assert ((tmp_path / "a" / "ck.json").read_bytes()
                == (tmp_path / "b" / "ck.json").read_bytes())
        assert ((tmp_path / "a" / "ck.bin").read_bytes()
                == (tmp_path / "b" / "ck.bin").read_bytes())

    def test_version_check(self, tmp_path):
        pol = MlpPolicy(3, 2)
        save_checkpoint(pol, tmp_path / "ck")
        manifest = json.loads((tmp_path / "ck.json").read_text())
        manifest["format_version"] = 99
        (tmp_path / "ck.json").write_text(json.dumps(manifest))
        with pytest.raises(ConfigurationError):
            load_checkpoint(tmp_path / "ck")

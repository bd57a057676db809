import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import legwork.policy
from legwork.errors import ConfigurationError
from legwork.randomization import RandomizationConfig
from legwork.policy import (
    GAMMA,
    GOAL_HORIZON,
    LOW_LEVEL_OBS_DIM,
    ForwardPass,
    MlpPolicy,
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
from legwork.tasks import TaskEnvConfig
from legwork.world import N_JOINTS
from helpers import AgentState, Row, make_worlds, sampled_action

LOG_2PI = math.log(2.0 * math.pi)


def rows(*agents):
    """One world per agent, stacked as rows of one agent each."""
    return make_worlds([Row([a]) for a in agents])


def masked(agent, goal):
    """mask_low_level_obs of one agent and its world-frame goal (x, y)."""
    return mask_low_level_obs(rows(agent), np.reshape(goal, (1, 1, 2)))[0, 0]


def log_prob_batch(policy, X, A):
    """Log densities of actions A under the policy at X, through the batched
    forward pass: the oracle the row-wise and derivative code is checked
    against."""
    means, _ = policy.mean_batch(X)
    z = (A - means) * np.exp(-policy.log_std)
    return (-0.5 * np.sum(z * z, axis=1) - policy.log_std.sum()
            - 0.5 * policy.act_dim * LOG_2PI)


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
        assert np.array_equal(h_map([[5.0, -5.0], [0.3, 2.0]]),
                              h_map([[1.0, -1.0], [0.3, 1.0]]))

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
        gx, gy = goal_from_high_action(rows(agent), np.zeros((1, 2)))[0, 0]
        # body-frame offset (0.5, 0) rotated 90 degrees -> (0, 0.5)
        assert gx == pytest.approx(1.0)
        assert gy == pytest.approx(2.5)


class TestMaskedObs:
    def test_goal_at_agent_is_zero_offset(self):
        agent = AgentState.at_rest(x=1.0, y=-2.0, yaw=0.5)
        obs = masked(agent, (1.0, -2.0))
        assert obs[30] == 0.0 and obs[31] == 0.0

    def test_pose_slots_always_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            agent = AgentState(rng.uniform(-5, 5), rng.uniform(-5, 5),
                               rng.uniform(-3, 3), 0.3,
                               rng.uniform(-1, 1, 12), rng.uniform(-2, 2, 12))
            obs = masked(agent, rng.uniform(-5, 5, 2))
            assert np.all(obs[24:30] == 0.0)
            assert obs.shape == (LOW_LEVEL_OBS_DIM,)

    def test_rigid_transform_invariance(self):
        rng = np.random.default_rng(2)
        q = rng.uniform(-1, 1, 12)
        qdot = rng.uniform(-2, 2, 12)
        agent = AgentState(0.3, -0.7, 0.2, 0.3, q, qdot)
        goal = (1.4, 0.3)
        obs0 = masked(agent, goal)
        # rotate the whole scene by phi and translate by (tx, ty)
        phi, tx, ty = 1.1, 3.0, -2.0
        c, s = math.cos(phi), math.sin(phi)
        agent2 = AgentState(c * 0.3 - s * -0.7 + tx, s * 0.3 + c * -0.7 + ty,
                            0.2 + phi, 0.3, q, qdot)
        goal2 = (c * 1.4 - s * 0.3 + tx, s * 1.4 + c * 0.3 + ty)
        obs1 = masked(agent2, goal2)
        assert np.allclose(obs0, obs1, atol=1e-12)


class TestMlpPolicy:
    def test_zero_weights_zero_mean(self):
        pol = MlpPolicy(6, 3, seed=0)
        pol.set_flat_params(np.zeros(pol.n_params))
        assert np.array_equal(pol.mean_rows(np.ones((1, 6))), np.zeros((1, 3)))

    def test_log_prob_at_mean(self):
        pol = MlpPolicy(5, 4, seed=3)
        obs = np.random.default_rng(0).normal(size=(1, 5))
        mu = sampled_action(pol, obs, np.zeros((1, 4)))
        expected = -pol.log_std.sum() - 2.0 * math.log(2 * math.pi)
        assert np.array_equal(mu, pol.mean_rows(obs))
        assert log_prob_batch(pol, obs, mu)[0] == pytest.approx(expected, abs=1e-12)

    def test_batch_matches_single(self):
        pol = MlpPolicy(5, 3, seed=4)
        rng = np.random.default_rng(1)
        X = rng.normal(size=(6, 5))
        means, _ = pol.mean_batch(X)
        assert np.allclose(means, pol.mean_rows(X), atol=1e-12)

    @pytest.mark.parametrize("dims", [(32, (32, 32), 12), (32, (32, 32), 2),
                                      (70, (64, 64), 24)])
    def test_rows_are_width_invariant(self, dims):
        # a row's mean and sample do not depend on the other rows of the
        # call, bit for bit
        obs_dim, hidden, act_dim = dims
        pol = MlpPolicy(obs_dim, act_dim, hidden=hidden, seed=6)
        pol.log_std[:] = np.linspace(-1.0, 0.5, act_dim)
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, obs_dim))
        noise = rng.standard_normal((40, act_dim))
        act = sampled_action(pol, X, noise)
        for width in (1, 2, 7, 20, 33):
            a_w = sampled_action(pol, X[:width], noise[:width])
            assert a_w.tobytes() == act[:width].tobytes()
        for i in (0, 19, 39):
            a_i = sampled_action(pol, X[i:i + 1], noise[i:i + 1])
            assert a_i.tobytes() == act[i:i + 1].tobytes()

    def test_copy_equals_the_original_and_owns_its_arrays(self):
        pol = MlpPolicy(5, 3, hidden=(4, 6), seed=8)
        pol.log_std[:] = [-0.2, 0.1, 0.4]
        twin = pol.copy()
        assert (twin.obs_dim, twin.act_dim, twin.layer_dims, twin.seed) == \
            (pol.obs_dim, pol.act_dim, pol.layer_dims, pol.seed)
        assert twin.flat_params().tobytes() == pol.flat_params().tobytes()
        before = pol.flat_params()
        twin.weights[0][0, 0] += 1.0
        twin.biases[1][0] += 1.0
        twin.log_std[0] += 1.0
        twin.layer_dims.append(7)
        assert pol.flat_params().tobytes() == before.tobytes()
        assert pol.layer_dims == [5, 4, 6, 3]
        twin = pol.copy()
        pol.set_flat_params(np.zeros(pol.n_params))
        assert twin.flat_params().tobytes() == before.tobytes()

    def test_grad_matches_finite_differences(self):
        # central differences with eps=1e-5, relative error < 1e-4,
        # over 10 random small configurations
        rng = np.random.default_rng(7)
        eps = 1e-5
        for trial in range(10):
            pol = MlpPolicy(3, 2, hidden=(4, 4), seed=100 + trial)
            pol.log_std[:] = rng.normal(0, 0.3, 2)
            X = rng.normal(size=(5, 3))
            A = rng.normal(size=(5, 2))
            w = rng.normal(size=5)
            g = grad_log_prob_sum(pol, A, w, ForwardPass(pol, X))
            theta = pol.flat_params()
            fd = np.zeros_like(theta)
            for i in range(len(theta)):
                tp, tm = theta.copy(), theta.copy()
                tp[i] += eps
                tm[i] -= eps
                pol.set_flat_params(tp)
                up = float(w @ log_prob_batch(pol, X, A))
                pol.set_flat_params(tm)
                dn = float(w @ log_prob_batch(pol, X, A))
                fd[i] = (up - dn) / (2 * eps)
            pol.set_flat_params(theta)
            rel = np.abs(g - fd).max() / max(np.abs(fd).max(), 1e-12)
            assert rel < 1e-4

    def test_jvp_matches_finite_differences(self):
        pol = MlpPolicy(4, 2, hidden=(6, 6), seed=11)
        rng = np.random.default_rng(3)
        X = rng.normal(size=(5, 4))
        v = rng.normal(size=pol.n_params)
        dmu = mean_jvp(pol, v, ForwardPass(pol, X)).copy()
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

    @pytest.mark.parametrize("args, hidden", [
        ((0, 2), (32, 32)), ((3, 0), (32, 32)), ((3, 2), (0,)), ((3, 2), (4, -1)),
        ((True, 2), (32, 32)), ((3, 2.0), (32, 32)), ((3, 2), ("4",)),
    ], ids=["obs_dim_0", "act_dim_0", "hidden_0", "hidden_negative", "obs_dim_bool",
            "act_dim_float", "hidden_str"])
    def test_bad_layer_width_rejected(self, args, hidden):
        with pytest.raises(ConfigurationError):
            MlpPolicy(*args, hidden=hidden)


class _ConstRewardEnv:
    """Stub task env of E rows paying a constant reward each step; its
    config randomizes the task (the high level's perturbation) when
    perturbed."""

    n_agents = 1
    obs_dim = 4

    def __init__(self, reward=-1.0, horizon=200, rows=1, fallen=(), perturbed=False):
        self.config = TaskEnvConfig(
            "push", rand=RandomizationConfig(dynamics=False, task=perturbed))
        self.reward = reward
        self.horizon = horizon
        agents = [AgentState.at_rest() for _ in range(rows)]
        for e in fallen:
            agents[e].fallen = True
        self.world = make_worlds([Row([a]) for a in agents])
        self.obs = np.zeros((rows, self.obs_dim))
        self.t = 0
        self.actions = []  # what each step was given

    def step(self, actions):
        assert actions.shape == (len(self.obs), 1, N_JOINTS)
        self.actions.append(actions.copy())
        self.t += 1
        return np.full(len(self.obs), self.t >= self.horizon)

    def score(self):
        """Constant rewards, and success once every episode has ended."""
        rows = len(self.obs)
        return np.full((rows, self.t), self.reward), np.full(rows, self.t >= self.horizon)


def _rngs(n=1):
    return [np.random.default_rng(i) for i in range(n)]


class TestHierarchicalEpisode:
    def _policies(self):
        return MlpPolicy(4, 2, seed=0), MlpPolicy(LOW_LEVEL_OBS_DIM, 12, seed=1)

    def test_decision_count(self):
        pi_hi, pi_lo = self._policies()
        env = _ConstRewardEnv(rows=3)
        hi = hierarchical_episode(env, pi_hi, pi_lo, _rngs(3))
        assert hi["obs"].shape[:2] == (3, 20)
        assert hi["rew"].shape == (3, 20)
        assert env.score()[0].shape == (3, 200)
        # success is scored after the last step, in the same pass
        assert hi["success"].tolist() == [True] * 3

    def test_window_reward_geometric_series(self):
        pi_hi, pi_lo = self._policies()
        env = _ConstRewardEnv(reward=-1.0)
        hi = hierarchical_episode(env, pi_hi, pi_lo, _rngs())
        c = GOAL_HORIZON
        expected = -(1 - GAMMA ** c) / (1 - GAMMA)
        assert np.allclose(hi["rew"], expected, atol=1e-12)
        # independent oracle: accumulate the env's per-step rewards
        r = env.score()[0][0]
        for j in range(20):
            oracle = sum(GAMMA ** i * r[c * j + i] for i in range(c))
            assert abs(hi["rew"][0, j] - oracle) <= 1e-9

    def test_gamma_zero_keeps_first_step_only(self, monkeypatch):
        # the executor reads GAMMA when it discounts, not at import
        monkeypatch.setattr(legwork.policy, "GAMMA", 0.0)
        pi_hi, pi_lo = self._policies()
        hi = hierarchical_episode(_ConstRewardEnv(reward=-3.0), pi_hi,
                                  pi_lo, _rngs())
        assert np.allclose(hi["rew"], -3.0)

    def test_indivisible_horizon_rejected(self):
        pi_hi, pi_lo = self._policies()
        with pytest.raises(ConfigurationError):
            hierarchical_episode(_ConstRewardEnv(horizon=7), pi_hi, pi_lo,
                                 _rngs())

    @pytest.mark.parametrize("perturbed", [True, False])
    def test_noise_is_drawn_up_front_from_the_row_stream(self, perturbed):
        # rows 0 and 2 share a seed, and row 2's agent has fallen
        pi_hi, pi_lo = self._policies()
        pi_hi.log_std[:] = -0.3
        pi_lo.log_std[:] = np.linspace(-1.0, 0.5, 12)
        seeds = (3, 4, 3)
        env = _ConstRewardEnv(rows=3, fallen=(2,), perturbed=perturbed)
        hi = hierarchical_episode(env, pi_hi, pi_lo,
                                  [np.random.default_rng(s) for s in seeds])
        for e in (0, 1):
            rng = np.random.default_rng(seeds[e])
            hi_noise = rng.standard_normal((20, 2))
            shift = rng.uniform(-1.0, 1.0, (20, 2)) if perturbed else np.zeros((20, 2))
            lo_noise = rng.standard_normal((200, 1, 12))
            world = make_worlds([Row([AgentState.at_rest()])])
            for k in range(20):
                a_pre = sampled_action(pi_hi, np.zeros((1, 4)), hi_noise[k:k + 1])
                assert a_pre.tobytes() == hi["act"][e, k:k + 1].tobytes()
                a_hi = np.clip(np.clip(a_pre, -1.0, 1.0) + shift[k], -1.0, 1.0)
                obs = mask_low_level_obs(world, goal_from_high_action(world, a_hi))[0]
                for t in range(10 * k, 10 * k + 10):
                    a_lo = sampled_action(pi_lo, obs, lo_noise[t])
                    assert a_lo.tobytes() == env.actions[t][e].tobytes()
        # the fallen row draws and is handed what the standing row is; the
        # world, not the executor, keeps a fallen agent still
        assert all(a[2].tobytes() == a[0].tobytes() for a in env.actions)
        assert hi["act"][2].tobytes() == hi["act"][0].tobytes()

    def test_deterministic_draws_nothing(self):
        pi_hi, pi_lo = self._policies()
        rngs = _rngs(2)
        states = [rng.bit_generator.state for rng in rngs]
        env = _ConstRewardEnv(rows=2, perturbed=True)
        hi = hierarchical_episode(env, pi_hi, pi_lo, rngs, deterministic=True)
        assert [rng.bit_generator.state for rng in rngs] == states
        assert np.array_equal(hi["act"][:, 0], pi_hi.mean_rows(np.zeros((2, 4))))

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
        g1 = (0.6, -0.2)
        g2 = (4.0 + c * body[0] - s * body[1], -2.0 + s * body[0] + c * body[1])
        m1 = pi_lo.mean_rows(masked(a1, g1)[None])
        m2 = pi_lo.mean_rows(masked(a2, g2)[None])
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

    @staticmethod
    def _saved_with(tmp_path, **changes):
        """A checkpoint at tmp_path / "ck" whose manifest is changed: a
        value of None deletes its key."""
        save_checkpoint(MlpPolicy(3, 2, seed=1), tmp_path / "ck")
        manifest = json.loads((tmp_path / "ck.json").read_text())
        for key, value in changes.items():
            if value is None:
                del manifest[key]
            else:
                manifest[key] = value
        (tmp_path / "ck.json").write_text(json.dumps(manifest))
        return tmp_path / "ck"

    @pytest.mark.parametrize("key", ["format_version", "layer_dims", "obs_dim",
                                     "act_dim", "n_params", "weights_file"])
    def test_missing_manifest_key_rejected(self, tmp_path, key):
        with pytest.raises(ConfigurationError):
            load_checkpoint(self._saved_with(tmp_path, **{key: None}))

    def test_missing_seed_defaults_to_zero(self, tmp_path):
        assert load_checkpoint(self._saved_with(tmp_path, seed=None)).seed == 0

    @pytest.mark.parametrize("name", ["absolute", "other.bin", "ck.json", "../ck.bin"])
    def test_weights_only_from_the_saved_file(self, tmp_path, name):
        # another policy's weights, of the same size, in a file of their own
        save_checkpoint(MlpPolicy(3, 2, seed=9), tmp_path / "elsewhere" / "ck")
        other = tmp_path / "elsewhere" / "ck.bin"
        (tmp_path / "other.bin").write_bytes(other.read_bytes())
        weights_file = str(other) if name == "absolute" else name
        with pytest.raises(ConfigurationError):
            load_checkpoint(self._saved_with(tmp_path, weights_file=weights_file))

    @pytest.mark.parametrize("layer_dims", [[3, 0, 2], [3, 32, -4, 2]])
    def test_bad_manifest_layer_width_rejected(self, tmp_path, layer_dims):
        with pytest.raises(ConfigurationError):
            load_checkpoint(self._saved_with(tmp_path, layer_dims=layer_dims))

    def test_version_check(self, tmp_path):
        pol = MlpPolicy(3, 2)
        save_checkpoint(pol, tmp_path / "ck")
        manifest = json.loads((tmp_path / "ck.json").read_text())
        manifest["format_version"] = 99
        (tmp_path / "ck.json").write_text(json.dumps(manifest))
        with pytest.raises(ConfigurationError):
            load_checkpoint(tmp_path / "ck")

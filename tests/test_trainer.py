from functools import partial

import numpy as np
import pytest

from legwork.errors import ConfigurationError
from legwork.policy import MlpPolicy
from legwork.randomization import RandomizationConfig
from legwork.tasks import TaskEnvConfig
from legwork.trainer import (
    TrainConfig,
    Trajectory,
    TrajectoryBatch,
    batch_kl,
    collect_batch,
    compute_advantages,
    conjugate_gradient,
    discounted_returns,
    fisher_vector_product,
    fit_baseline,
    gae_advantages,
    npg_update,
    policy_gradient,
    run_task_episode,
    train_flat,
    train_high_level,
)


def _spd(rng, n):
    m = rng.normal(size=(n, n))
    return m @ m.T + n * np.eye(n)


def _batch(rng, policy, n=30):
    """One synthetic trajectory of n random states and actions."""
    obs = rng.normal(size=(n, policy.obs_dim))
    act = rng.normal(size=(n, policy.act_dim))
    return TrajectoryBatch([Trajectory(obs, act, rng.normal(size=n),
                                       policy.log_prob_batch(obs, act))],
                           horizon=n)


def _low_goal_batch(policy, n_traj=4, workers=1):
    cfg = TaskEnvConfig("low_goal", rand=RandomizationConfig())
    return collect_batch(partial(run_task_episode, policy, cfg), n_traj,
                         horizon=40, seed=3, seed_key=(0,), workers=workers)


class TestConjugateGradient:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_direct_solve(self, seed):
        rng = np.random.default_rng(seed)
        n = 8
        a = _spd(rng, n)
        g = rng.normal(size=n)
        d, res = conjugate_gradient(lambda v: a @ v, g, iters=2 * n)
        assert np.allclose(d, np.linalg.solve(a, g), rtol=1e-9, atol=1e-12)
        assert res == pytest.approx(np.linalg.norm(g - a @ d), abs=1e-9)

    def test_returns_the_best_iterate_seen(self):
        rng = np.random.default_rng(7)
        a = _spd(rng, 20)
        g = rng.normal(size=20)
        d, res = conjugate_gradient(lambda v: a @ v, g, iters=3)
        assert res <= np.linalg.norm(g)
        assert res == pytest.approx(np.linalg.norm(g - a @ d), rel=1e-6)


class TestFisherVectorProduct:
    def test_equals_explicit_fisher_matrix(self):
        rng = np.random.default_rng(0)
        policy = MlpPolicy(3, 2, hidden=(4,), seed=1)
        policy.log_std[:] = [-0.3, 0.4]
        batch = _batch(rng, policy)
        X = batch.flat_obs()
        theta = policy.flat_params()

        # Jacobian of every stacked mean by central differences
        eps = 1e-6
        jac = np.zeros((X.shape[0] * policy.act_dim, theta.size))
        probe = policy.copy()
        for k in range(theta.size):
            for sign in (1.0, -1.0):
                t = theta.copy()
                t[k] += sign * eps
                probe.set_flat_params(t)
                jac[:, k] += sign * probe.mean_batch(X)[0].ravel() / (2 * eps)
        inv_var = np.tile(np.exp(-2.0 * policy.log_std), X.shape[0])
        damping = 1e-3
        fisher = jac.T @ (inv_var[:, None] * jac) / X.shape[0]
        fisher[-2:, -2:] = 2.0 * np.eye(2)  # log_std block
        fisher += damping * np.eye(theta.size)

        for _ in range(3):
            v = rng.normal(size=theta.size)
            got = fisher_vector_product(batch, policy, v, damping)
            assert np.allclose(got, fisher @ v, rtol=1e-6, atol=1e-8)


class TestGae:
    def test_lambda_one_is_returns_minus_values(self):
        rng = np.random.default_rng(1)
        rew, values = rng.normal(size=25), rng.normal(size=25)
        adv = gae_advantages(rew, values, 0.97, 1.0)
        assert np.allclose(adv, discounted_returns(rew, 0.97) - values,
                           rtol=0, atol=1e-12)

    def test_lambda_zero_is_td_residuals(self):
        rng = np.random.default_rng(2)
        rew, values = rng.normal(size=25), rng.normal(size=25)
        adv = gae_advantages(rew, values, 0.97, 0.0)
        td = rew + 0.97 * np.append(values[1:], 0.0) - values
        assert np.allclose(adv, td, rtol=0, atol=1e-12)


class TestNpgStep:
    def test_realized_kl_is_about_kl_step(self):
        policy = MlpPolicy(32, 12, seed=4)
        batch = _low_goal_batch(policy)
        compute_advantages(batch, fit_baseline(batch, 0.99), 0.99, 0.97)
        g = policy_gradient(batch, policy)
        d, _ = conjugate_gradient(
            lambda v: fisher_vector_product(batch, policy, v, 1e-4), g, 10)
        for delta in (0.01, 0.05):
            new, info = npg_update(policy, g, d, delta)
            assert not info["skipped"]
            assert batch_kl(batch, policy, new) == pytest.approx(delta, rel=0.05)


class TestCollectBatch:
    def test_worker_count_never_changes_results(self):
        policy = MlpPolicy(32, 12, seed=5)
        one = _low_goal_batch(policy, n_traj=3, workers=1)
        two = _low_goal_batch(policy, n_traj=3, workers=2)
        for a, b in zip(one.trajectories, two.trajectories, strict=True):
            for name in ("obs", "act", "rew", "logp"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
            assert a.success == b.success


def test_low_goal_is_not_a_high_level_or_flat_task():
    config = TrainConfig(iterations=1)
    with pytest.raises(ConfigurationError):
        train_high_level(config, "low_goal", MlpPolicy(32, 12))
    with pytest.raises(ConfigurationError):
        train_flat(config, "low_goal", randomized=False)

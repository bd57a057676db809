import csv
import math
from collections import Counter
from functools import partial

import numpy as np
import pytest

import legwork.tasks
from legwork.errors import ConfigurationError, NumericsError
from legwork.policy import (
    GOAL_HORIZON,
    ForwardPass,
    MlpPolicy,
    gaussian_kl,
    hierarchical_episode,
    load_checkpoint,
)
from legwork.randomization import RandomizationConfig
from legwork.tasks import TaskEnv, TaskEnvConfig
from legwork.trainer import (
    LOG_STD_FLOOR,
    TrainConfig,
    TrajectoryBatch,
    _hier_env_cfg,
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
    run_hier_task_episode,
    run_task_episode,
    train_flat,
    train_high_level,
    train_low_level,
)
from helpers import reference_stream, sampled_action
from test_tasks import _recording_substreams


def _spd(rng, n):
    m = rng.normal(size=(n, n))
    return m @ m.T + n * np.eye(n)


def _batch(rng, policy, n=30):
    """One synthetic episode of n random states and actions."""
    obs = rng.normal(size=(n, policy.obs_dim))
    act = rng.normal(size=(n, policy.act_dim))
    return TrajectoryBatch(obs[None], act[None], rng.normal(size=(1, n)),
                           lengths=np.array([n]), success=np.zeros(1, dtype=bool))


def _reference_returns(rew, gamma):
    """Discounted returns of one episode, step by step."""
    out = np.zeros_like(rew)
    acc = 0.0
    for t in range(len(rew) - 1, -1, -1):
        acc = rew[t] + gamma * acc
        out[t] = acc
    return out


def _reference_gae(rew, values, gamma, lam):
    """Raw GAE of one episode, step by step; V past the episode end is
    zero."""
    T = len(rew)
    v_next = np.append(values[1:], 0.0)
    deltas = rew + gamma * v_next - values
    adv = np.zeros(T)
    acc = 0.0
    for t in range(T - 1, -1, -1):
        acc = deltas[t] + gamma * lam * acc
        adv[t] = acc
    return adv


def _reference_pass(policy, X):
    """Means and activation cache, one fresh array per operation."""
    cache = [X]
    for w, b in zip(policy.weights[:-1], policy.biases[:-1]):
        cache.append(np.tanh(cache[-1] @ w.T + b))
    return cache[-1] @ policy.weights[-1].T + policy.biases[-1], cache


def _reference_vjp(policy, G, cache):
    parts = []
    up = G
    for l in range(len(policy.weights) - 1, -1, -1):
        parts = [(up.T @ cache[l]).ravel(), up.sum(axis=0)] + parts
        if l > 0:
            up = (up @ policy.weights[l]) * (1.0 - cache[l] ** 2)
    return np.concatenate(parts + [np.zeros(policy.act_dim)])


def _reference_fvp(policy, X, v, damping):
    """The Fisher-vector product in the same order of operations as
    fisher_vector_product, each step allocating its result: the workspace
    must reproduce it bit for bit."""
    _, cache = _reference_pass(policy, X)
    k, dvs = 0, []
    for w, b in zip(policy.weights, policy.biases):
        dvs.append((v[k:k + w.size].reshape(w.shape), v[k + w.size:k + w.size + b.size]))
        k += w.size + b.size
    dh = cache[0] @ dvs[0][0].T + dvs[0][1]
    for l in range(1, len(policy.weights)):
        dh = dh * (1.0 - cache[l] ** 2)
        dh = cache[l] @ dvs[l][0].T + dvs[l][1] + dh @ policy.weights[l].T
    out = _reference_vjp(policy, dh * np.exp(-2.0 * policy.log_std), cache) / len(X)
    out[-policy.act_dim:] = 2.0 * v[-policy.act_dim:]
    return out + damping * v


def _low_goal_batch(policy, n_traj=4):
    cfg = TaskEnvConfig("low_goal", rand=RandomizationConfig())
    return collect_batch(partial(run_task_episode, policy, cfg), n_traj,
                         seed=3, seed_key=(0,))


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

    @pytest.mark.parametrize("sign", [0.0, -1.0])
    def test_curvature_that_is_not_positive_is_rejected(self, sign):
        # F = 0 used to divide by zero, F = -I to return -g as if solved
        g = np.random.default_rng(1).normal(size=6)
        with pytest.raises(NumericsError):
            conjugate_gradient(lambda v: sign * v, g, iters=6)


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

        fp = ForwardPass(policy, X)
        for _ in range(3):
            v = rng.normal(size=theta.size)
            got = fisher_vector_product(policy, v, damping, fp)
            assert np.allclose(got, fisher @ v, rtol=1e-6, atol=1e-8)

    def test_hoisted_forward_pass_changes_nothing(self):
        # successive products through one workspace equal products through
        # a fresh pass each and the allocating reference, bit for bit; results
        # are compared only after the last product, so a returned array
        # that aliased a reused buffer would show
        rng = np.random.default_rng(4)
        for hidden in ((32, 32), (24, 16, 8)):
            policy = MlpPolicy(32, 12, hidden=hidden, seed=2)
            policy.log_std[:] = rng.normal(0, 0.3, 12)
            batch = _batch(rng, policy, n=50)
            fp = ForwardPass(policy, batch.flat_obs())
            vs = [rng.normal(size=policy.n_params) for _ in range(4)]
            hoisted = [fisher_vector_product(policy, v, 1e-4, fp) for v in vs]
            for v, got in zip(vs, hoisted):
                per_call = fisher_vector_product(policy, v, 1e-4,
                                                 ForwardPass(policy, batch.flat_obs()))
                assert got.tobytes() == per_call.tobytes()
                ref = _reference_fvp(policy, batch.flat_obs(), v, 1e-4)
                assert got.tobytes() == ref.tobytes()

    def test_shared_forward_pass_changes_no_gradient_or_kl_bit(self):
        # train_policy runs the gradient, a CG solve and the KL on one pass
        policy = MlpPolicy(32, 12, seed=3)
        batch = _low_goal_batch(policy)
        adv = compute_advantages(batch, fit_baseline(batch, 0.99), 0.99, 0.97)
        fp = ForwardPass(policy, batch.flat_obs())
        g = policy_gradient(batch, policy, adv, fp)
        d, _ = conjugate_gradient(
            lambda v: fisher_vector_product(policy, v, 1e-4, fp), g, 10)
        new, _ = npg_update(policy, g, d, 0.05)
        kl = batch_kl(policy, new, fp)

        fresh = lambda: ForwardPass(policy, batch.flat_obs())
        assert g.tobytes() == policy_gradient(batch, policy, adv, fresh()).tobytes()
        assert kl == batch_kl(policy, new, fresh())
        X, A = batch.flat_obs(), batch.flat_act()
        means, cache = _reference_pass(policy, X)
        z = (A - means) * np.exp(-2.0 * policy.log_std)
        w = adv / batch.n_samples
        ref = _reference_vjp(policy, w[:, None] * z, cache)
        ref[-policy.act_dim:] = w @ (z * (A - means) - 1.0)
        assert g.tobytes() == ref.tobytes()
        mu_new, _ = _reference_pass(new, X)
        assert kl == gaussian_kl(means, policy.log_std, mu_new, new.log_std)


class TestGae:
    def test_lambda_one_is_returns_minus_values(self):
        rng = np.random.default_rng(1)
        rew, values = rng.normal(size=(3, 25)), rng.normal(size=(3, 25))
        adv = gae_advantages(rew, values, 0.97, 1.0)
        assert np.allclose(adv, discounted_returns(rew, 0.97) - values,
                           rtol=0, atol=1e-12)

    def test_lambda_zero_is_td_residuals(self):
        rng = np.random.default_rng(2)
        rew, values = rng.normal(size=(3, 25)), rng.normal(size=(3, 25))
        adv = gae_advantages(rew, values, 0.97, 0.0)
        v_next = np.concatenate([values[:, 1:], np.zeros((3, 1))], axis=1)
        td = rew + 0.97 * v_next - values
        assert np.allclose(adv, td, rtol=0, atol=1e-12)

    def test_scans_over_padded_rows_equal_the_step_by_step_loops(self):
        # each row of an (E, T) scan runs the one-episode recurrence in the
        # same order, and zero padding adds nothing to the steps before it
        rng = np.random.default_rng(3)
        T, lengths = 40, [1, 17, 40]
        rew, values = np.zeros((3, T)), np.zeros((3, T))
        for e, n in enumerate(lengths):
            rew[e, :n], values[e, :n] = rng.normal(size=n), rng.normal(size=n)
        returns = discounted_returns(rew, 0.99)
        adv = gae_advantages(rew, values, 0.99, 0.97)
        for e, n in enumerate(lengths):
            ref = _reference_returns(rew[e, :n], 0.99)
            assert returns[e, :n].tobytes() == ref.tobytes()
            ref = _reference_gae(rew[e, :n], values[e, :n], 0.99, 0.97)
            assert adv[e, :n].tobytes() == ref.tobytes()
            assert not returns[e, n:].any() and not adv[e, n:].any()


class TestNpgStep:
    def test_realized_kl_is_about_kl_step(self):
        policy = MlpPolicy(32, 12, seed=4)
        batch = _low_goal_batch(policy)
        adv = compute_advantages(batch, fit_baseline(batch, 0.99), 0.99, 0.97)
        fp = ForwardPass(policy, batch.flat_obs())
        g = policy_gradient(batch, policy, adv, fp)
        d, _ = conjugate_gradient(
            lambda v: fisher_vector_product(policy, v, 1e-4, fp), g, 10)
        for delta in (0.01, 0.05):
            new, info = npg_update(policy, g, d, delta)
            assert not info["skipped"]
            assert batch_kl(policy, new, fp) == pytest.approx(delta, rel=0.05)

    def test_log_std_below_the_floor_is_floored_and_nothing_else_moves(self):
        policy = MlpPolicy(3, 2, hidden=(4,), seed=6)
        theta = policy.flat_params()
        d = np.random.default_rng(1).normal(size=policy.n_params)
        policy.unflatten(d)[1][0] = -100.0  # the step's bulk: log_std[0]
        g = 1e-3 * d  # d.g > 0, and a step of norm about 10
        new, info = npg_update(policy, g, d, 0.05)
        scale = math.sqrt(2.0 * 0.05 / float(d @ g))
        assert not info["skipped"] and info["step_scale"] == scale
        expected = theta + scale * d
        assert policy.unflatten(expected)[1][0] < LOG_STD_FLOOR
        assert new.log_std[0] == LOG_STD_FLOOR
        moved = new.flat_params()
        rest = np.ones(policy.n_params, dtype=bool)
        policy.unflatten(rest)[1][0] = False
        assert moved[rest].tobytes() == expected[rest].tobytes()
        assert policy.flat_params().tobytes() == theta.tobytes()


def _rollout(kind):
    """A rollout callable and horizon per collected kind: low_goal and a
    flat coordinate policy at the joint level, push under the hierarchy."""
    if kind == "low_goal":
        policy = MlpPolicy(32, 12, seed=5)
        policy.log_std[:] = 1.0  # wide actions: some episodes fall
        cfg = TaskEnvConfig("low_goal", rand=RandomizationConfig())
        return partial(run_task_episode, policy, cfg), 40
    if kind == "coordinate":
        policy = MlpPolicy(70, 24, hidden=(64, 64), seed=3)
        cfg = TaskEnvConfig("coordinate", rand=RandomizationConfig())
        return partial(run_task_episode, policy, cfg), 200
    return (partial(run_hier_task_episode, MlpPolicy(32, 2, seed=2),
                    MlpPolicy(32, 12, seed=1), _hier_env_cfg("push", True), 0.99),
            200 // GOAL_HORIZON)


def _rows(batch):
    """Each episode's valid steps: (obs, act, rew, success) per row."""
    return [(batch.obs[e, :n], batch.act[e, :n], batch.rew[e, :n], batch.success[e])
            for e, n in enumerate(batch.lengths)]


def _same_trajectories(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        for u, v in zip(x[:3], y[:3]):
            assert u.tobytes() == v.tobytes()
        assert x[3] == y[3]


class TestCollectBatch:
    """The determinism contract: batch width never changes results."""

    @pytest.mark.parametrize("kind", ["low_goal", "push", "coordinate"])
    def test_batch_width_never_changes_results(self, kind):
        fn, horizon = _rollout(kind)
        n = 8 if kind == "low_goal" else 3
        together = collect_batch(fn, n, seed=2, seed_key=(0,))
        assert together.rew.shape == (n, horizon)
        alone = []
        for i in range(n):  # episode i uses sub-stream seed_key + (i,)
            env_seed = int(np.random.SeedSequence(2, spawn_key=(0, i)).generate_state(1)[0])
            rng = np.random.default_rng(np.random.SeedSequence(2, spawn_key=(0, i, 1)))
            alone += _rows(fn([env_seed], [rng]))
        _same_trajectories(_rows(together), alone)

    @pytest.mark.parametrize("kind", ["low_goal", "push"])
    def test_stepped_rows_match_samples(self, kind, monkeypatch):
        stepped = []
        step_worlds = legwork.tasks.step_worlds

        def counting(world, actions, wrench, live):
            stepped.append(int(np.count_nonzero(live)))
            return step_worlds(world, actions, wrench, live)

        monkeypatch.setattr(legwork.tasks, "step_worlds", counting)
        fn, horizon = _rollout(kind)
        batch = collect_batch(fn, 8, seed=2, seed_key=(0,))
        per_sample = 1 if kind == "low_goal" else GOAL_HORIZON
        assert sum(stepped) == batch.n_samples * per_sample
        if kind == "low_goal":
            # the count must cover rows that stop early
            assert batch.lengths.min() < horizon

    def test_action_noise_is_one_draw_per_step_from_the_row_stream(self):
        fn, horizon = _rollout("low_goal")
        policy = fn.args[0]
        batch = collect_batch(fn, 8, seed=2, seed_key=(0,))
        assert batch.lengths.min() < horizon  # falls covered
        for i, (obs, acts, _, _) in enumerate(_rows(batch)):
            rng = reference_stream(2, 0, i, 1)
            for t in range(len(obs)):
                act = sampled_action(policy, obs[t:t + 1],
                                     rng.standard_normal((1, policy.act_dim)))
                assert act.tobytes() == acts[t:t + 1].tobytes()

    def test_hierarchical_episode_builds_each_start_once(self, monkeypatch):
        calls = _recording_substreams(monkeypatch)
        fn, _ = _rollout("push")
        collect_batch(fn, 5, seed=1, seed_key=(0,))
        # with the dynamics switches off only the initialization draws
        assert calls == {(40,): 5}

    @pytest.mark.parametrize("kind", ["low_goal", "push", "coordinate"])
    def test_task_reward_runs_once_per_batch(self, kind, monkeypatch):
        calls = []
        task_reward = legwork.tasks.task_reward

        def counting(*args):
            calls.append(1)
            return task_reward(*args)

        monkeypatch.setattr(legwork.tasks, "task_reward", counting)
        fn, _ = _rollout(kind)
        collect_batch(fn, 3, seed=1, seed_key=(0,))
        assert len(calls) == 1

    def test_hierarchical_episode_observes_once_per_decision(self, monkeypatch):
        calls = Counter()

        def counting(name):
            fn = getattr(legwork.tasks, name)

            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        for name in ("observe_task", "task_reward"):
            monkeypatch.setattr(legwork.tasks, name, counting(name))
        fn, decisions = _rollout("push")
        collect_batch(fn, 3, seed=1, seed_key=(0,))
        # one lockstep observation per decision, and rewards and success
        # from one scoring pass
        assert calls == {"observe_task": decisions, "task_reward": 1}


class TestTrajectoryBatch:
    def test_counts_read_by_the_benchmark(self):
        # npgbench counts episodes as len(batch.trajectories) and samples
        # as batch.n_samples
        fn, horizon = _rollout("low_goal")
        batch = collect_batch(fn, 8, seed=2, seed_key=(0,))
        assert batch.lengths.min() < horizon
        assert len(batch.trajectories) == 8
        assert batch.n_samples == batch.lengths.sum() == len(batch.flat_obs())

    def test_steps_past_a_row_length_are_zero(self):
        fn, _ = _rollout("low_goal")
        batch = collect_batch(fn, 8, seed=2, seed_key=(0,))
        for x in (batch.obs, batch.act, batch.rew):
            assert not x[~batch.mask].any()

    def test_non_finite_action_at_a_valid_step_is_rejected(self):
        obs = np.zeros((2, 5, 3))
        act = np.zeros((2, 5, 2))
        act[1, 3, 0] = np.nan
        with pytest.raises(NumericsError):
            TrajectoryBatch(obs, act, np.zeros((2, 5)), np.array([5, 4]),
                            np.zeros(2, dtype=bool))
        # past row 1's length the value is padding, and is zeroed
        batch = TrajectoryBatch(obs, act, np.zeros((2, 5)), np.array([5, 3]),
                                np.zeros(2, dtype=bool))
        assert batch.act[1, 3, 0] == 0.0

    @pytest.mark.parametrize("n_traj", [0, -1, True, 2.0, "2"])
    def test_empty_batch_is_rejected(self, n_traj):
        # an episode count is an integer >= 1, as TrainConfig's counts are
        fn, _ = _rollout("low_goal")
        with pytest.raises(ConfigurationError):
            collect_batch(fn, n_traj, seed=2)

    def test_numpy_integer_episode_count_runs(self):
        fn, _ = _rollout("low_goal")
        assert len(collect_batch(fn, np.int64(2), seed=2).lengths) == 2

    @pytest.mark.parametrize("seed, seed_key", [
        (1.5, ()), (True, ()), (-1, ()), (2**64, ()), (1, (-1,)), (1, (2**32,))])
    def test_seed_and_key_words_must_be_integers_in_range(self, seed, seed_key):
        fn, _ = _rollout("low_goal")
        with pytest.raises(ConfigurationError):
            collect_batch(fn, 2, seed=seed, seed_key=seed_key)


@pytest.mark.parametrize("rollout", ["joint", "hierarchical", "deterministic"])
@pytest.mark.parametrize("n_rngs, n_rows", [(1, 4), (3, 2)])
def test_rollouts_take_one_generator_per_row(rollout, n_rngs, n_rows):
    seeds = list(range(n_rows))
    rngs = [np.random.default_rng(i) for i in range(n_rngs)]
    with pytest.raises(ConfigurationError):
        if rollout == "joint":
            fn, _ = _rollout("low_goal")
            fn(seeds, rngs)
        else:
            env = TaskEnv(_hier_env_cfg("push", True), seeds)
            hierarchical_episode(env, MlpPolicy(32, 2, seed=2), MlpPolicy(32, 12, seed=1),
                                 rngs, deterministic=rollout == "deterministic")


def test_training_smoke_run(tmp_path):
    config = TrainConfig(iterations=3, batch_size=6, seed=3)
    runs = {
        "low": lambda out, metrics: train_low_level(
            config, RandomizationConfig(), out_dir=out, metrics_path=metrics),
        "high": lambda out, metrics: train_high_level(
            config, "push", MlpPolicy(32, 12, seed=1), out_dir=out,
            metrics_path=metrics),
    }
    for name, run in runs.items():
        out = tmp_path / name
        policy = run(out, out / "metrics.csv")
        with open(out / "metrics.csv") as f:
            rows = list(csv.DictReader(f))
        assert [int(r["iteration"]) for r in rows] == [0, 1, 2]
        for r in rows:
            assert all(math.isfinite(float(v)) for v in r.values())
        back = load_checkpoint(out / "final")
        assert back.flat_params().tobytes() == policy.flat_params().tobytes()


def test_periodic_checkpoints(tmp_path):
    config = TrainConfig(iterations=2, batch_size=3, seed=4, checkpoint_every=1)
    policy = train_low_level(config, RandomizationConfig(), out_dir=tmp_path)
    saved = {name: load_checkpoint(tmp_path / name).flat_params().tobytes()
             for name in ("ckpt_000001", "ckpt_000002", "final")}
    assert saved["final"] == saved["ckpt_000002"] == policy.flat_params().tobytes()
    assert saved["ckpt_000001"] != saved["ckpt_000002"]


def test_one_iteration_makes_two_forward_passes(monkeypatch):
    # one over the batch for the gradient, the CG solve and the old means
    # of the KL; one for the KL's new means
    calls = []
    mean_batch = MlpPolicy.mean_batch

    def counting(self, *args, **kwargs):
        calls.append(1)
        return mean_batch(self, *args, **kwargs)

    monkeypatch.setattr(MlpPolicy, "mean_batch", counting)
    train_low_level(TrainConfig(iterations=1, batch_size=3), RandomizationConfig())
    assert len(calls) <= 2


@pytest.mark.parametrize("field, value", [
    ("cg_iters", 0), ("cg_damping", -1e-4), ("cg_damping", math.nan),
    ("cg_damping", math.inf), ("workers", 0), ("workers", 2), ("workers", 1.0),
    ("workers", True),
    ("checkpoint_every", -1), ("kl_step", 0.0),
    ("kl_step", math.nan), ("kl_step", math.inf), ("kl_step", -math.inf),
    ("gamma", "0.9"), ("lam", None), ("lam", True), ("kl_step", None),
    ("cg_damping", "1")])
def test_bad_solver_and_run_settings_rejected(field, value):
    with pytest.raises(ConfigurationError):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("seed", -1), ("seed", 1.5), ("seed", "3"), ("seed", 2**64), ("seed", True),
    ("seed", False), ("iterations", 2.0), ("iterations", 0), ("iterations", True),
    ("batch_size", 2.5), ("batch_size", None), ("batch_size", True),
    ("cg_iters", 10.0), ("cg_iters", True), ("checkpoint_every", 0.5),
    ("checkpoint_every", False)])
def test_counts_and_seed_must_be_integers_in_range(field, value):
    with pytest.raises(ConfigurationError):
        TrainConfig(**{field: value})


def test_numpy_integer_counts_and_seed_accepted():
    config = TrainConfig(iterations=np.int64(3), batch_size=np.int32(4),
                         seed=np.uint8(7))
    assert (config.iterations, config.batch_size, config.seed) == (3, 4, 7)


def test_low_goal_is_not_a_high_level_or_flat_task():
    config = TrainConfig(iterations=1)
    with pytest.raises(ConfigurationError):
        train_high_level(config, "low_goal", MlpPolicy(32, 12))
    with pytest.raises(ConfigurationError):
        train_flat(config, "low_goal", randomized=False)

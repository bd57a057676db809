import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import legwork.policy
from legwork.errors import ConfigurationError
from legwork.policy import MlpPolicy, hierarchical_episode
from legwork.randomization import (
    RandomizationConfig,
    highlevel_noise_schedule,
    sample_dynamics,
    sample_height_field,
    sample_object_dims,
    sticky_schedule,
    substream,
    wrench_schedule,
)
from test_policy import _ConstRewardEnv


def ks_statistic(samples, cdf):
    x = np.sort(np.asarray(samples))
    n = len(x)
    f = cdf(x)
    return max(np.max(np.arange(1, n + 1) / n - f),
               np.max(f - np.arange(0, n) / n))


class _QueueRng:
    """Stand-in generator returning queued values from uniform()."""

    def __init__(self, values):
        self.values = list(values)

    def uniform(self, lo=0.0, hi=1.0, size=None):
        if size is None:
            return self.values.pop(0)
        k = int(np.prod(size))
        out = np.array([self.values.pop(0) for _ in range(k)]).reshape(size)
        return out


class TestEpisodeParams:
    def test_disabled_items_take_midpoints(self):
        rng = np.random.default_rng(0)
        params = sample_dynamics(RandomizationConfig.all_off(), rng)
        terrain = sample_height_field(RandomizationConfig.all_off(), rng)
        assert params.joint_damping == 1.0
        assert params.joint_friction == 0.003
        assert params.total_mass == 1.8
        assert params.surface_friction == 1.0
        assert params.actuator_gain == 5.0
        assert terrain.amplitude == 0.0
        assert np.all(terrain.grid == 0.0)

    def test_mass_distribution(self):
        rng = np.random.default_rng(42)
        cfg = RandomizationConfig()
        masses = np.array([sample_dynamics(cfg, rng).total_mass for _ in range(10_000)])
        assert masses.min() >= 1.6
        assert masses.max() <= 2.0
        assert abs(masses.mean() - 1.8) < 0.01

    def test_height_field_entries_within_amplitude(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            hf = sample_height_field(RandomizationConfig(), rng)
            assert 0.0 <= hf.amplitude <= 0.050
            assert hf.grid.min() >= 0.0
            assert hf.grid.max() <= hf.amplitude

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            RandomizationConfig(mass_range=(2.0, 1.6))
        with pytest.raises(ConfigurationError):
            RandomizationConfig(sticky_prob=1.5)
        with pytest.raises(ConfigurationError):
            RandomizationConfig(wrench_period=0)


class TestSticky:
    def test_zero_prob_never_sticks(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert not sticky_schedule(0.0, rng, 100).any()
        assert rng.bit_generator.state == state  # and draws nothing

    def test_prob_one_always_sticks_after_step_zero(self):
        sticks = sticky_schedule(1.0, np.random.default_rng(0), 101)
        assert not sticks[0]
        assert sticks[1:].all()

    def test_stick_frequency(self):
        sticks = sticky_schedule(0.2, np.random.default_rng(9), 10_001)
        assert abs(sticks[1:].mean() - 0.2) < 0.02

    def test_one_draw_per_step_after_step_zero(self):
        sticks = sticky_schedule(0.3, np.random.default_rng(4), 50)
        draws = np.random.default_rng(4).uniform(size=49)
        assert np.array_equal(sticks[1:], draws < 0.3)


class TestWrench:
    def test_hold_then_refresh(self):
        cfg = RandomizationConfig()
        w = wrench_schedule(cfg, np.random.default_rng(3), 25)
        assert w.shape == (25, 3)
        assert (w[:10] == w[0]).all() and (w[10:20] == w[10]).all()
        assert (w[20:] == w[20]).all()
        assert not (w[10] == w[0]).any() and not (w[20] == w[10]).any()

    def test_disabled_always_zero(self):
        cfg = RandomizationConfig(wrench_on=False)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert np.array_equal(wrench_schedule(cfg, rng, 50), np.zeros((50, 3)))
        assert rng.bit_generator.state == state

    def test_draws_within_ranges(self):
        cfg = RandomizationConfig()
        flo, fhi = cfg.wrench_force_range
        tlo, thi = cfg.wrench_torque_range
        w = wrench_schedule(cfg, np.random.default_rng(17), 10_000)
        assert ((flo <= w[:, :2]) & (w[:, :2] <= fhi)).all()
        assert ((tlo <= w[:, 2]) & (w[:, 2] <= thi)).all()

    def test_draw_order_fx_fy_torque(self):
        cfg = RandomizationConfig()
        w = wrench_schedule(cfg, np.random.default_rng(8), 20)
        rng = np.random.default_rng(8)
        for t in (0, 10):
            assert tuple(w[t]) == (rng.uniform(*cfg.wrench_force_range),
                                   rng.uniform(*cfg.wrench_force_range),
                                   rng.uniform(*cfg.wrench_torque_range))


class TestHighLevelNoise:
    def test_disabled_is_identity(self):
        cfg = RandomizationConfig(highlevel_noise_on=False)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        out = highlevel_noise_schedule(cfg, rng, 20, 2)
        assert out.shape == (20, 2) and not out.any()
        assert rng.bit_generator.state == state  # no draws

    def test_clamp_saturation(self, monkeypatch):
        # a saturated high-level action pushed further out by its noise stays
        # at the bound: the executor clamps after adding the schedule
        seen = []
        goal_from_high_action = legwork.policy.goal_from_high_action

        def recording(world, a_hi):
            seen.append(a_hi.copy())
            return goal_from_high_action(world, a_hi)

        monkeypatch.setattr(legwork.policy, "goal_from_high_action", recording)
        pi_hi = MlpPolicy(4, 2, seed=0)
        pi_hi.set_flat_params(np.zeros(pi_hi.n_params))
        pi_hi.biases[-1][:] = 5.0
        cfg = RandomizationConfig(highlevel_noise_range=(0.5, 1.0))
        hierarchical_episode(_ConstRewardEnv(rows=2), pi_hi, MlpPolicy(32, 12, seed=1),
                             [np.random.default_rng(i) for i in range(2)],
                             noise_cfg=cfg)
        assert len(seen) == 20
        assert all(np.array_equal(a, np.ones((2, 2))) for a in seen)

    def test_noise_distribution_uniform(self):
        cfg = RandomizationConfig()
        draws = highlevel_noise_schedule(cfg, np.random.default_rng(23), 10_000, 2)
        for axis in range(2):
            d = ks_statistic(draws[:, axis], lambda x: (x + 1) / 2)
            assert d < 0.02


class TestObjectDims:
    def test_disabled_returns_nominal(self):
        cfg = RandomizationConfig(object_dims_on=False)
        assert sample_object_dims((0.15, 0.7), np.random.default_rng(0), cfg) == (0.15, 0.7)

    def test_scaled_within_range(self):
        cfg = RandomizationConfig()
        rng = np.random.default_rng(2)
        for _ in range(1000):
            hx, hy = sample_object_dims((0.15, 0.7), rng, cfg)
            assert 0.12 <= hx <= 0.18
            assert 0.56 <= hy <= 0.84

    def test_scale_mean(self):
        cfg = RandomizationConfig()
        rng = np.random.default_rng(4)
        scales = np.array([sample_object_dims((1.0, 1.0), rng, cfg)[0]
                           for _ in range(10_000)])
        assert abs(scales.mean() - 1.0) < 0.01


class TestStreams:
    def test_same_seed_reproduces_everything(self):
        def draw_all(seed):
            rng = substream(seed, 0)
            p = sample_dynamics(RandomizationConfig(), rng)
            hf = sample_height_field(RandomizationConfig(), rng)
            w = wrench_schedule(RandomizationConfig(), rng, 20)
            s = sticky_schedule(0.5, rng, 20)
            n = highlevel_noise_schedule(RandomizationConfig(), rng, 3, 2)
            return p, hf.grid.copy(), w, s, n.copy()

        a, b = draw_all(123), draw_all(123)
        assert a[0] == b[0]
        assert np.array_equal(a[1], b[1])
        assert np.array_equal(a[2], b[2])
        assert np.array_equal(a[3], b[3])
        assert np.array_equal(a[4], b[4])

    def test_substreams_are_independent(self):
        r1 = substream(7, 1)
        r2 = substream(7, 2)
        seq2_before = substream(7, 2).uniform(size=10)
        r1.uniform(size=1000)  # burn stream 1
        assert np.array_equal(r2.uniform(size=10), seq2_before)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_range_containment(self, seed):
        cfg = RandomizationConfig()
        rng = np.random.default_rng(seed)
        for _ in range(500):
            p = sample_dynamics(cfg, rng)
            assert 0.9 <= p.joint_damping <= 1.1
            assert 0.001 <= p.joint_friction <= 0.005
            assert 1.6 <= p.total_mass <= 2.0
            assert 0.8 <= p.surface_friction <= 1.2
            assert 4.0 <= p.actuator_gain <= 6.0

import copy
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import legwork.policy
import legwork.randomization
from legwork.policy import MlpPolicy, hierarchical_episode
from legwork.randomization import (
    DAMPING_RANGE,
    DRAWN_DYNAMICS,
    GAIN_RANGE,
    HFIELD_AMPLITUDE_RANGE,
    HFIELD_N,
    JOINT_FRICTION_RANGE,
    MASS_RANGE,
    SURFACE_FRICTION_RANGE,
    WRENCH_FORCE_RANGE,
    WRENCH_PERIOD,
    WRENCH_TORQUE_RANGE,
    RandomizationConfig,
    highlevel_noise_schedule,
    sample_dynamics,
    sample_height_field,
    sample_object_dims,
    seed_state,
    sticky_schedule,
    substreams,
    wrench_schedule,
)
from legwork.errors import ConfigurationError
from legwork.tasks import COORD_BLOCK_HALF, TaskEnv, TaskEnvConfig
from legwork.world import DynamicsParams
from helpers import reference_stream, sampled_action
from test_policy import _ConstRewardEnv
from test_tasks import _recording_substreams


def ks_statistic(samples, cdf):
    x = np.sort(np.asarray(samples))
    n = len(x)
    f = cdf(x)
    return max(np.max(np.arange(1, n + 1) / n - f),
               np.max(f - np.arange(0, n) / n))


class TestConfig:
    @pytest.mark.parametrize("value", ["no", "", 1, 0, None, 1.0])
    @pytest.mark.parametrize("switch", ["dynamics", "task"])
    def test_switch_must_be_a_bool(self, switch, value):
        # "no" is truthy: taken as given it would switch the level on
        with pytest.raises(ConfigurationError):
            RandomizationConfig(**{switch: value})

    def test_numpy_bools_accepted(self):
        rand = RandomizationConfig(dynamics=np.bool_(False), task=np.bool_(True))
        assert not rand.dynamics and rand.task


class TestEpisodeParams:
    def test_disabled_items_take_midpoints(self):
        # a row with dynamics off takes DynamicsParams(): each default is
        # its range's midpoint, bit for bit
        ranges = {"joint_damping": DAMPING_RANGE,
                  "joint_friction": JOINT_FRICTION_RANGE, "total_mass": MASS_RANGE,
                  "surface_friction": SURFACE_FRICTION_RANGE, "actuator_gain": GAIN_RANGE}
        nominal = DynamicsParams()
        drawn = {f.name for f in fields(DynamicsParams)} - {"lateral_bias_force"}
        assert set(ranges) == drawn and ranges == DRAWN_DYNAMICS
        for name, (lo, hi) in ranges.items():
            assert getattr(nominal, name) == (lo + hi) / 2.0

    def test_draws_equal_one_uniform_draw_per_item(self):
        # the reference is the sampler's old spelling: one rng.uniform call
        # per item, in draw order; values and the stream left must match
        ranges = (DAMPING_RANGE, JOINT_FRICTION_RANGE, MASS_RANGE,
                  SURFACE_FRICTION_RANGE, GAIN_RANGE)
        assert list(DRAWN_DYNAMICS.values()) == list(ranges)
        assert list(DRAWN_DYNAMICS) == ["joint_damping", "joint_friction", "total_mass",
                                        "surface_friction", "actuator_gain"]
        for seed in range(300):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            drawn = sample_dynamics(rng)
            ref = [float(ref_rng.uniform(*r)) for r in ranges]
            assert drawn.tolist() == ref
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_mass_distribution(self):
        rng = np.random.default_rng(42)
        mass = list(DRAWN_DYNAMICS).index("total_mass")
        masses = np.array([sample_dynamics(rng)[mass] for _ in range(10_000)])
        assert masses.min() >= 1.6
        assert masses.max() <= 2.0
        assert abs(masses.mean() - 1.8) < 0.01

    def test_height_field_entries_within_amplitude(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            # the amplitude is the sampler's first draw
            amplitude = copy.deepcopy(rng).uniform(*HFIELD_AMPLITUDE_RANGE)
            grid = sample_height_field(rng)
            assert grid.shape == (HFIELD_N, HFIELD_N)
            assert 0.0 <= amplitude <= 0.050
            assert grid.min() >= 0.0
            assert grid.max() <= amplitude


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
        w = wrench_schedule(np.random.default_rng(3), 25)
        assert w.shape == (25, 3)
        assert (w[:10] == w[0]).all() and (w[10:20] == w[10]).all()
        assert (w[20:] == w[20]).all()
        assert not (w[10] == w[0]).any() and not (w[20] == w[10]).any()

    def test_disabled_always_zero(self, monkeypatch):
        # wrenches are a dynamics randomization: off, every schedule is
        # zero and no wrench sub-stream is built
        keys = _recording_substreams(monkeypatch)
        env = TaskEnv(TaskEnvConfig("coordinate", rand=RandomizationConfig(dynamics=False)),
                      seeds=[0, 1, 2])
        assert env.wrench is None
        assert not keys.keys() & {(30,), (31,)}

    def test_draws_within_ranges(self):
        flo, fhi = WRENCH_FORCE_RANGE
        tlo, thi = WRENCH_TORQUE_RANGE
        w = wrench_schedule(np.random.default_rng(17), 10_000)
        assert ((flo <= w[:, :2]) & (w[:, :2] <= fhi)).all()
        assert ((tlo <= w[:, 2]) & (w[:, 2] <= thi)).all()

    def test_schedule_equals_one_uniform_call_with_tuple_bounds(self):
        # the reference is the sampler's old spelling, bit for bit
        flo, fhi = WRENCH_FORCE_RANGE
        tlo, thi = WRENCH_TORQUE_RANGE
        for seed in range(100):
            for horizon in (7, 40, 200):
                rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                draws = ref_rng.uniform((flo, flo, tlo), (fhi, fhi, thi),
                                        (-(-horizon // WRENCH_PERIOD), 3))
                ref = np.repeat(draws, WRENCH_PERIOD, axis=0)[:horizon]
                assert wrench_schedule(rng, horizon).tobytes() == ref.tobytes()
                assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_draw_order_fx_fy_torque(self):
        w = wrench_schedule(np.random.default_rng(8), 20)
        rng = np.random.default_rng(8)
        for t in (0, 10):
            assert tuple(w[t]) == (rng.uniform(*WRENCH_FORCE_RANGE),
                                   rng.uniform(*WRENCH_FORCE_RANGE),
                                   rng.uniform(*WRENCH_TORQUE_RANGE))


def _recorded_high_actions(monkeypatch, env, pi_hi, rngs):
    """The clamped high-level actions of a hierarchical episode, as handed
    to goal_from_high_action."""
    seen = []
    goal_from_high_action = legwork.policy.goal_from_high_action

    def recording(world, a_hi):
        seen.append(a_hi.copy())
        return goal_from_high_action(world, a_hi)

    monkeypatch.setattr(legwork.policy, "goal_from_high_action", recording)
    hierarchical_episode(env, pi_hi, MlpPolicy(32, 12, seed=1), rngs)
    return seen


class TestHighLevelNoise:
    def test_disabled_is_identity(self, monkeypatch):
        # with the task randomization off the executor adds nothing to the
        # clamped action and draws no perturbation
        pi_hi = MlpPolicy(4, 2, seed=0)
        rngs = [np.random.default_rng(i) for i in range(2)]
        seen = _recorded_high_actions(monkeypatch, _ConstRewardEnv(rows=2), pi_hi, rngs)
        hi_noise = np.stack([np.random.default_rng(i).standard_normal((20, 2))
                             for i in range(2)])
        for k, a_hi in enumerate(seen):
            a_pre = sampled_action(pi_hi, np.zeros((2, 4)), hi_noise[:, k])
            assert a_hi.tobytes() == np.clip(a_pre, -1.0, 1.0).tobytes()

    @pytest.mark.parametrize("task", [True, False])
    def test_drawn_exactly_when_the_env_randomizes_the_task(self, task, monkeypatch):
        calls = []

        def counting(rng, decisions, size):
            calls.append((decisions, size))
            return highlevel_noise_schedule(rng, decisions, size)

        monkeypatch.setattr(legwork.policy, "highlevel_noise_schedule", counting)
        hierarchical_episode(_ConstRewardEnv(rows=3, perturbed=task),
                             MlpPolicy(4, 2, seed=0), MlpPolicy(32, 12, seed=1),
                             [np.random.default_rng(i) for i in range(3)])
        assert calls == ([(20, 2)] * 3 if task else [])

    def test_clamp_saturation(self, monkeypatch):
        # a saturated high-level action pushed further out by its noise stays
        # at the bound: the executor clamps after adding the schedule
        monkeypatch.setattr(legwork.randomization, "HIGHLEVEL_NOISE_RANGE", (0.5, 1.0))
        pi_hi = MlpPolicy(4, 2, seed=0)
        pi_hi.set_flat_params(np.zeros(pi_hi.n_params))
        pi_hi.biases[-1][:] = 5.0
        env = _ConstRewardEnv(rows=2, perturbed=True)
        seen = _recorded_high_actions(monkeypatch, env, pi_hi,
                                      [np.random.default_rng(i) for i in range(2)])
        assert len(seen) == 20
        assert all(np.array_equal(a, np.ones((2, 2))) for a in seen)

    def test_noise_distribution_uniform(self):
        draws = highlevel_noise_schedule(np.random.default_rng(23), 10_000, 2)
        for axis in range(2):
            d = ks_statistic(draws[:, axis], lambda x: (x + 1) / 2)
            assert d < 0.02


class TestObjectDims:
    def test_disabled_returns_nominal(self, monkeypatch):
        # object dimensions are a task randomization: off, every block keeps
        # its nominal half extents and no dimension sub-stream is built
        keys = _recording_substreams(monkeypatch)
        env = TaskEnv(TaskEnvConfig("coordinate", rand=RandomizationConfig(task=False)),
                      seeds=[0, 1, 2])
        assert (env.world.half_extents == COORD_BLOCK_HALF).all()
        assert (50,) not in keys

    def test_scaled_within_range(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            scales = sample_object_dims(rng)
            assert scales.shape == (2,)
            assert ((0.8 <= scales) & (scales <= 1.2)).all()

    def test_scale_mean(self):
        rng = np.random.default_rng(4)
        scales = np.array([sample_object_dims(rng)[0] for _ in range(10_000)])
        assert abs(scales.mean() - 1.0) < 0.01

    def test_enabled_scales_the_nominal_half_extents(self):
        # each row's block is COORD_BLOCK_HALF scaled by the draws of its
        # sub-stream 50, x's first
        seeds = [0, 1, 2]
        env = TaskEnv(TaskEnvConfig("coordinate", rand=RandomizationConfig(dynamics=False)),
                      seeds=seeds)
        for e, seed in enumerate(seeds):
            rng = reference_stream(seed, 50)
            expected = [COORD_BLOCK_HALF[0] * float(rng.uniform(0.8, 1.2)),
                        COORD_BLOCK_HALF[1] * float(rng.uniform(0.8, 1.2))]
            assert env.world.half_extents[e, 0].tolist() == expected


class TestStreams:
    def test_same_seed_reproduces_everything(self):
        def draw_all(seed):
            rng = next(substreams([seed], [[0]]))
            p = sample_dynamics(rng)
            grid = sample_height_field(rng)
            w = wrench_schedule(rng, 20)
            s = sticky_schedule(0.5, rng, 20)
            n = highlevel_noise_schedule(rng, 3, 2)
            return p, grid, w, s, n.copy()

        a, b = draw_all(123), draw_all(123)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])
        assert np.array_equal(a[2], b[2])
        assert np.array_equal(a[3], b[3])
        assert np.array_equal(a[4], b[4])

    def test_substreams_are_independent(self):
        r1, r2 = substreams(7, [[1], [2]])
        seq2_before = next(substreams([7], [[2]])).uniform(size=10)
        r1.uniform(size=1000)  # burn stream 1
        assert np.array_equal(r2.uniform(size=10), seq2_before)

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    def test_batched_builder_equals_numpy(self, seed):
        keys = [(0,), (2**32 - 1,), (7, 0), (0, 2**32 - 1), (2**32 - 1, 3, 0),
                (0, 0, 0), (5, 2**32 - 1, 1)]
        for width in (1, 2, 3):
            same = [k for k in keys if len(k) == width]
            states = seed_state(seed, same, 8)
            rngs = substreams(np.full(len(same), seed, dtype=np.uint64), same)
            for key, state, rng in zip(same, states, rngs):
                ss = np.random.SeedSequence(seed, spawn_key=key)
                assert state.tobytes() == ss.generate_state(8).tobytes()
                assert seed_state([seed], [key], 1)[0, 0] == ss.generate_state(1)[0]
                ref = reference_stream(seed, *key)
                assert rng.bit_generator.state == ref.bit_generator.state
                assert rng.random(4).tobytes() == ref.random(4).tobytes()
                assert rng.standard_normal(3).tobytes() == ref.standard_normal(3).tobytes()

    def test_each_pair_takes_its_own_seed(self):
        # one call over mixed seeds and keys, against one pair per call
        seeds = [3, 2**40 + 1, 3, 0]
        keys = [[10], [10], [40], [60]]
        rngs = substreams(np.array(seeds, dtype=np.uint64), keys)
        for seed, key, rng in zip(seeds, keys, rngs):
            assert rng.random(3).tobytes() == reference_stream(seed, *key).random(3).tobytes()

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_range_containment(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(500):
            p = dict(zip(DRAWN_DYNAMICS, sample_dynamics(rng)))
            assert 0.9 <= p["joint_damping"] <= 1.1
            assert 0.001 <= p["joint_friction"] <= 0.005
            assert 1.6 <= p["total_mass"] <= 2.0
            assert 0.8 <= p["surface_friction"] <= 1.2
            assert 4.0 <= p["actuator_gain"] <= 6.0

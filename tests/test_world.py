import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import legwork.tasks
import legwork.world
from legwork.errors import ConfigurationError, NumericsError
from legwork.world import (
    AGENT_RADIUS,
    DT,
    K_FWD,
    K_LAT,
    F_REF,
    N_JOINTS,
    N_LEGS,
    TERRAIN_WIDTH,
    Z0,
    DynamicsParams,
    Worlds,
    block_constants,
    hypot,
    push_block,
    step_agents,
    step_worlds,
    terrain_at,
)
from legwork.randomization import RandomizationConfig
from legwork.tasks import (
    SCORED,
    TASK_KINDS,
    EnvOverrides,
    TaskEnv,
    TaskEnvConfig,
    block_ends,
    observe_task,
    task_reward,
)
from helpers import AgentState, BlockState, Row, flat_terrain, make_worlds
from test_tasks import _meet_goal, observed_rows


def scripted_trot_action(step: int, period: int = 16,
                         knee_lead: int = 0) -> np.ndarray:
    """Open-loop diagonal-pair trot for calibration and robustness probes.

    Flexion joints follow antiphase sinusoids (diagonal legs in phase); knee
    commands are square waves leading the flexion phase so the knee is
    extended while flexion swings backward. Abduction is held at zero.
    """
    a = np.zeros(N_JOINTS)
    for leg in range(N_LEGS):
        pair_shift = 0.0 if leg in (0, 3) else math.pi
        phase = 2.0 * math.pi * step / period + pair_shift
        a[3 * leg + 1] = math.sin(phase)
        gate_phase = 2.0 * math.pi * (step + knee_lead) / period + pair_shift
        a[3 * leg + 2] = 1.0 if math.cos(gate_phase) < 0.0 else -1.0
    return a


NOMINAL = DynamicsParams()
FLAT = flat_terrain()
ZERO_W = np.zeros(3)  # (fx, fy, torque)

# Forward displacement of the scripted trot over 40 steps under nominal
# params on flat ground, frozen from a reference run as a regression anchor.
TROT_DISPLACEMENT_40 = 1.9280410995027948


def one_row(agents, blocks=(), terrain=FLAT, params=NOMINAL):
    """A one-row Worlds of the given agents and blocks."""
    return make_worlds([Row(list(agents), list(blocks), terrain,
                            [params] * len(agents))])


def step_rows(world, actions, wrenches=None):
    """step_worlds with every row live; actions and wrenches per agent."""
    actions = np.asarray(actions, dtype=float)
    if wrenches is None:
        wrenches = np.zeros(actions.shape[:2] + (3,))
    return step_worlds(world, actions, np.asarray(wrenches, dtype=float),
                       np.ones(len(actions), dtype=bool))


def agent(world, e=0, i=0):
    """Agent i of row e as an AgentState."""
    return AgentState(float(world.x[e, i]), float(world.y[e, i]),
                      float(world.yaw[e, i]), float(world.z_proxy[e, i]),
                      world.q[e, i], world.qdot[e, i], bool(world.fallen[e, i]))


def block(world, e=0, k=0):
    """Block k of row e as a BlockState."""
    return BlockState(float(world.bx[e, k]), float(world.by[e, k]),
                      float(world.byaw[e, k]), tuple(world.half_extents[e, k]),
                      float(world.block_mass[e, k]))


STATE_FIELDS = ("x", "y", "yaw", "z_proxy", "q", "qdot", "fallen", "bx", "by", "byaw")


def same_row(a, b, ea=0, eb=0):
    """Row ea of Worlds a and row eb of b hold the same state, bit for bit."""
    return all(getattr(a, name)[ea].tobytes() == getattr(b, name)[eb].tobytes()
               for name in STATE_FIELDS)


def step_one(state, action, params=NOMINAL, terrain=FLAT, wrench=ZERO_W):
    """One standing agent alone in a world, stepped once."""
    world = one_row([state], terrain=terrain, params=params)
    return agent(step_rows(world, [[action]], [[wrench]]))


def push(agent_state, blk):
    """The block after push resolution against one agent."""
    out = push_block(np.array([agent_state.x]), np.array([agent_state.y]),
                     np.array([blk.x]), np.array([blk.y]), np.array([blk.yaw]),
                     block_constants(np.array([blk.half_extents], dtype=float),
                                     np.array([blk.mass])), np.array([True]))
    return BlockState(float(out[0][0]), float(out[1][0]), float(out[2][0]),
                      blk.half_extents, blk.mass)


def bilinear_height(g, x, y):
    """Reference height of one terrain grid at one point: the bilinear
    interpolant of the four surrounding nodes, the query clamped to the
    patch."""
    n, half = g.shape[0], TERRAIN_WIDTH / 2.0
    cell = TERRAIN_WIDTH / (n - 1)
    gx = (min(max(x, -half), half) + half) / cell
    gy = (min(max(y, -half), half) + half) / cell
    i, j = min(int(gx), n - 2), min(int(gy), n - 2)
    fx, fy = gx - i, gy - j
    return (g[i, j] * (1 - fx) * (1 - fy) + g[i + 1, j] * fx * (1 - fy)
            + g[i, j + 1] * (1 - fx) * fy + g[i + 1, j + 1] * fx * fy)


def sample_terrain(grid, x, y):
    """(height, (dh/dx, dh/dy)) of one terrain grid at one point: the
    reference height and terrain_at's slope."""
    sx, sy = terrain_at(grid[None], np.array([[x]]), np.array([[y]]))
    return float(bilinear_height(grid, x, y)), (float(sx[0, 0]), float(sy[0, 0]))


def agent_block_penetration(agent, block):
    c, s = math.cos(block.yaw), math.sin(block.yaw)
    rx, ry = agent.x - block.x, agent.y - block.y
    lx, ly = c * rx + s * ry, -s * rx + c * ry
    hx, hy = block.half_extents
    qx = min(max(lx, -hx), hx)
    qy = min(max(ly, -hy), hy)
    d = math.hypot(lx - qx, ly - qy)
    if d == 0.0:
        return AGENT_RADIUS + min(hx - abs(lx), hy - abs(ly))
    return AGENT_RADIUS - d


@pytest.mark.parametrize("field, value", [
    ("joint_damping", -0.1), ("actuator_gain", math.nan),
    ("lateral_bias_force", math.inf), ("total_mass", 0.0), ("joint_damping", "1"),
    ("joint_damping", None), ("surface_friction", True)],
    ids=["negative", "nan", "inf", "zero_mass", "str", "none", "bool"])
def test_bad_dynamics_params_rejected(field, value):
    # a zero mass would divide by zero in the step's constants
    with pytest.raises(ConfigurationError):
        DynamicsParams(**{field: value})


class TestStepAgent:
    def test_rest_is_exact_fixed_point(self):
        st0 = AgentState.at_rest()
        st1 = step_one(st0, np.zeros(12))
        assert (st1.x, st1.y, st1.yaw) == (0.0, 0.0, 0.0)
        assert st1.z_proxy == 0.3
        assert not st1.fallen
        assert np.array_equal(st1.q, np.zeros(12))
        assert np.array_equal(st1.qdot, np.zeros(12))

    def test_high_joint_speed_falls(self):
        st0 = AgentState.at_rest()
        st0.q[0] = -1.4  # room to swing without hitting the clamp
        st0.qdot[0] = 20.0  # stability goes negative from the qdot term alone
        st1 = step_one(st0, np.zeros(12))
        assert st1.fallen
        assert st1.z_proxy == 0.0

    def test_scripted_trot_walks_forward(self):
        world = one_row([AgentState.at_rest()])
        for t in range(40):
            world = step_rows(world, [[scripted_trot_action(t)]])
            assert not world.fallen[0, 0]
        disp = world.x[0, 0] - 0.0
        assert disp > 0.5
        assert disp == pytest.approx(TROT_DISPLACEMENT_40, rel=1e-9)

    def test_joint_clamp_and_z_bounds(self):
        state = AgentState.at_rest()
        for t in range(60):
            state = step_one(state, np.ones(12))
            assert np.all(np.abs(state.q) <= 1.5)
            assert 0.0 <= state.z_proxy <= 0.3
            if state.fallen:
                break

    def test_nonfinite_action_is_hard_error(self):
        act = np.zeros(12)
        act[3] = np.nan
        with pytest.raises(NumericsError):
            step_one(AgentState.at_rest(), act)

    def test_cannot_step_fallen_agent(self):
        # a fallen agent is masked out, never stepped: even an action that
        # would be a hard error leaves it untouched
        st0 = AgentState.at_rest(x=0.4)
        st0.fallen = True
        world = one_row([st0])
        bad = np.full((1, 1, 12), np.nan)
        nxt = step_rows(world, bad)
        assert same_row(nxt, world)
        live = np.ones((1, 1), dtype=bool)
        with pytest.raises(NumericsError):
            step_agents(world, bad, np.zeros((1, 1, 3)), live)

    def test_nonfinite_state_is_hard_error(self):
        st0 = AgentState.at_rest()
        st0.qdot[5] = np.inf
        with pytest.raises(NumericsError):
            step_one(st0, np.zeros(12))


class TestResolvePush:
    BLOCK = BlockState(0.0, 0.0, 0.0, (0.3, 0.3), 4.0)

    def test_no_contact_no_motion(self):
        out = push(AgentState.at_rest(x=-1.0), self.BLOCK)
        assert (out.x, out.y, out.yaw) == (0.0, 0.0, 0.0)

    def test_head_on_face_center_translates_without_rotation(self):
        # 5 cm overlap straight into the -x face center
        agent = AgentState.at_rest(x=-0.55)
        out = push(agent, self.BLOCK)
        assert out.x == pytest.approx(0.05, abs=1e-9)
        assert out.y == pytest.approx(0.0, abs=1e-12)
        assert out.yaw == pytest.approx(0.0, abs=1e-12)

    def test_corner_contact_rotates_and_matches_substep_oracle(self):
        # 45-degree approach ending in an off-axis overlap near a corner
        end = (-0.53, -0.18)
        start = (end[0] - 0.35, end[1] - 0.35)
        one_shot = push(AgentState.at_rest(x=end[0], y=end[1]), self.BLOCK)
        assert abs(one_shot.yaw) > 1e-4

        oracle = self.BLOCK
        n = 100
        for k in range(1, n + 1):
            t = k / n
            ag = AgentState.at_rest(x=start[0] + (end[0] - start[0]) * t,
                                    y=start[1] + (end[1] - start[1]) * t)
            oracle = push(ag, oracle)
        assert abs(one_shot.x - oracle.x) < 1e-3
        assert abs(one_shot.y - oracle.y) < 1e-3
        assert abs(one_shot.yaw - oracle.yaw) < 1e-3

    def test_resolution_leaves_no_penetration(self):
        for pos in [(-0.55, 0.0), (-0.53, -0.18), (-0.25, -0.55), (0.1, 0.05)]:
            agent = AgentState.at_rest(x=pos[0], y=pos[1])
            out = push(agent, self.BLOCK)
            assert agent_block_penetration(agent, out) <= 1e-6

    def test_center_inside_exits_through_nearest_face(self):
        # the disc center lies inside the block, 0.2 m from its +x face and
        # 0.25 m from the +y face: the block leaves along -x, past the disc
        inside = AgentState.at_rest(x=0.1, y=0.05)
        out = push(inside, self.BLOCK)
        assert out.x < -0.49 and abs(out.y) < 1e-3 and out.yaw > 0.0
        assert agent_block_penetration(inside, out) <= 1e-6
        # rows with the center inside and outside their block, pushed
        # together, give each row's result alone, bit for bit
        outside = AgentState.at_rest(x=-0.55, y=0.1)
        both = push_block(np.array([inside.x, outside.x]),
                          np.array([inside.y, outside.y]), np.zeros(2),
                          np.zeros(2), np.zeros(2),
                          block_constants(np.full((2, 2), 0.3), np.full(2, 4.0)),
                          np.ones(2, dtype=bool))
        for e, alone in enumerate((out, push(outside, self.BLOCK))):
            assert tuple(v[e] for v in both) == (alone.x, alone.y, alone.yaw)

    def test_degenerate_block_rejected(self):
        bad = BlockState(0.0, 0.0, 0.0, (0.0, 0.3), 4.0)
        with pytest.raises(ConfigurationError):
            push(AgentState.at_rest(), bad)
        # the same through a world step
        with pytest.raises(ConfigurationError):
            step_rows(one_row([AgentState.at_rest(x=-2.0)], [bad]), np.zeros((1, 1, 12)))


class TestHypot:
    def test_matches_math_hypot(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=(3, 5)), rng.normal(size=(3, 5))
        out = hypot(a, b)
        assert out.shape == (3, 5)
        assert all(out[i, j] == math.hypot(a[i, j], b[i, j])
                   for i in range(3) for j in range(5))
        # non-contiguous 2-D views, as the step passes a wrench's fx and fy
        wrench = rng.normal(size=(4, 3, 3))
        fx, fy = wrench[::2, :, 0], wrench[::2, :, 1]
        out = hypot(fx, fy)
        assert out.shape == (2, 3)
        assert all(out[i, j] == math.hypot(fx[i, j], fy[i, j])
                   for i in range(2) for j in range(3))

    def test_unequal_shapes_rejected(self):
        # map would stop at the shorter input, and the result took a's shape
        with pytest.raises(ValueError):
            hypot([[3.0], [6.0]], [[4.0, 100.0], [8.0, 100.0]])
        with pytest.raises(ValueError):
            hypot(np.ones((1, 2)), np.ones((2, 1)))


class TestSampleTerrain:
    def test_zero_amplitude_everywhere_zero(self):
        for x, y in [(0.0, 0.0), (1.3, -2.7), (20.0, 20.0), (-5.0, 5.0)]:
            h, (sx, sy) = sample_terrain(FLAT, x, y)
            assert h == 0.0 and sx == 0.0 and sy == 0.0

    def test_grid_node_identity(self):
        rng = np.random.default_rng(7)
        grid = rng.uniform(0, 0.05, (32, 32))
        cell = TERRAIN_WIDTH / 31
        for i, j in [(0, 0), (5, 17), (31, 31), (16, 3)]:
            x = -TERRAIN_WIDTH / 2 + i * cell
            y = -TERRAIN_WIDTH / 2 + j * cell
            h, _ = sample_terrain(grid, x, y)
            assert h == pytest.approx(grid[i, j], abs=1e-12)

    def test_slope_matches_central_differences(self):
        rng = np.random.default_rng(11)
        grid = rng.uniform(0, 0.05, (32, 32))
        eps = 1e-6
        for _ in range(200):
            # keep the stencil inside one cell: stay away from node lines
            x = rng.uniform(-4.9, 4.9)
            y = rng.uniform(-4.9, 4.9)
            cell = TERRAIN_WIDTH / 31
            fx = ((x + 5.0) / cell) % 1.0
            fy = ((y + 5.0) / cell) % 1.0
            if min(fx, 1 - fx, fy, 1 - fy) < 1e-3:
                continue
            h, (sx, sy) = sample_terrain(grid, x, y)
            hxp, _ = sample_terrain(grid, x + eps, y)
            hxm, _ = sample_terrain(grid, x - eps, y)
            hyp, _ = sample_terrain(grid, x, y + eps)
            hym, _ = sample_terrain(grid, x, y - eps)
            assert abs((hxp - hxm) / (2 * eps) - sx) < 1e-6
            assert abs((hyp - hym) / (2 * eps) - sy) < 1e-6
            assert 0.0 <= h <= 0.05

    @pytest.mark.parametrize("height", [math.nan, math.inf, -math.inf])
    def test_non_finite_height_rejected(self, height):
        grid = np.zeros((32, 32))
        grid[4, 7] = height
        with pytest.raises(ConfigurationError):
            EnvOverrides(grid=grid)

    def test_outside_returns_edge_value_zero_slope(self):
        rng = np.random.default_rng(3)
        grid = rng.uniform(0, 0.05, (32, 32))
        h_out, (sx, sy) = sample_terrain(grid, 50.0, 1.25)
        h_edge, _ = sample_terrain(grid, 5.0, 1.25)
        assert h_out == pytest.approx(h_edge, abs=1e-12)
        assert sx == 0.0 and sy == 0.0


class TestWorldStep:
    def test_single_agent_matches_step_agent(self):
        act = scripted_trot_action(3)
        w = one_row([AgentState.at_rest()])
        nxt = step_rows(w, [[act]])
        ref = step_agents(w, np.array([[act]]), np.zeros((1, 1, 3)),
                          np.ones((1, 1), dtype=bool))
        assert nxt.x[0, 0] == ref.x[0, 0]
        assert nxt.yaw[0, 0] == ref.yaw[0, 0]
        assert np.array_equal(nxt.q, ref.q)

    def test_stepping_carries_the_constants_and_replace_rebuilds_them(self):
        w = one_row([AgentState.at_rest()])
        nxt = step_rows(w, [[scripted_trot_action(0)]])
        assert nxt.constants is w.constants
        heavy = replace(w, params={**w.params, "total_mass": np.full((1, 1), 3.0)})
        assert heavy.constants["inv_m"][0, 0] == DT / 3.0
        assert heavy.constants["inertia"][0, 0] == 3.0 * AGENT_RADIUS ** 2

    def test_distant_agents_do_not_interact(self):
        a0 = AgentState.at_rest(x=0.0)
        a1 = AgentState.at_rest(x=50.0, yaw=1.0)
        act = scripted_trot_action(0)
        nxt = step_rows(one_row([a0, a1]), [[act, act]])
        r0 = step_one(a0, act)
        r1 = step_one(a1, act)
        assert (nxt.x[0, 0], nxt.y[0, 0]) == (r0.x, r0.y)
        assert (nxt.x[0, 1], nxt.y[0, 1]) == (r1.x, r1.y)

    def test_forward_gait_pushes_block_along_heading(self):
        blk = BlockState(0.62, 0.0, 0.0, (0.3, 0.3), 4.0)
        w = one_row([AgentState.at_rest()], [blk])
        for t in range(15):
            w = step_rows(w, [[scripted_trot_action(t)]])
        assert w.bx[0, 0] > 0.62
        assert agent_block_penetration(agent(w), block(w)) <= 1e-6

    def test_action_count_mismatch(self):
        w = one_row([AgentState.at_rest()])
        with pytest.raises(ConfigurationError):
            step_rows(w, np.zeros((1, 2, 12)))
        with pytest.raises(ConfigurationError):
            step_rows(w, np.zeros((1, 1, 11)))

    def test_fallen_agent_receives_no_motion(self):
        a = AgentState.at_rest(x=1.0)
        a.fallen = True
        w = one_row([a])
        nxt = step_rows(w, [[np.ones(12)]])
        assert same_row(nxt, w)

    @pytest.mark.parametrize("bias", [0.0, 0.8])
    def test_no_wrench_equals_a_zero_wrench(self, bias):
        # None skips the force terms, or with a lateral bias adds zeros in
        # their place: the same bits as a zero wrench
        w = one_row([AgentState.at_rest(), AgentState.at_rest(x=2.0, yaw=0.4)],
                    params=DynamicsParams(lateral_bias_force=bias))
        zero, none = w, w
        live = np.ones(1, dtype=bool)
        for t in range(30):
            acts = np.array([[scripted_trot_action(t), scripted_trot_action(t + 5)]])
            zero = step_worlds(zero, acts, np.zeros((1, 2, 3)), live)
            none = step_worlds(none, acts, None, live)
        assert same_row(zero, none)
        assert zero.x[0, 0] > 0.5

    def test_rows_not_live_keep_their_state(self):
        w = make_worlds([Row([AgentState.at_rest(x=0.4)],
                             [BlockState(1.0, 0.0, 0.0, (0.3, 0.3), 4.0)],
                             FLAT, [NOMINAL])] * 2)
        acts = np.stack([[scripted_trot_action(1)]] * 2)
        nxt = step_worlds(w, acts, np.zeros((2, 1, 3)), np.array([True, False]))
        assert nxt.x[0, 0] != w.x[0, 0]
        assert same_row(nxt, w, 1, 1)


joint_vec = st.lists(st.floats(-1.5, 1.5), min_size=12, max_size=12).map(np.array)
qdot_vec = st.lists(st.floats(-10.0, 10.0), min_size=12, max_size=12).map(np.array)
action_vec = st.lists(st.floats(-1.0, 1.0), min_size=12, max_size=12).map(np.array)


@st.composite
def ranged_params(draw):
    return DynamicsParams(
        joint_damping=draw(st.floats(0.9, 1.1)),
        joint_friction=draw(st.floats(0.001, 0.005)),
        actuator_gain=draw(st.floats(4.0, 6.0)),
        total_mass=draw(st.floats(1.6, 2.0)),
        surface_friction=draw(st.floats(0.8, 1.2)),
    )


@st.composite
def random_wrench(draw):
    return np.array([draw(st.floats(-10, 10)), draw(st.floats(-10, 10)),
                     draw(st.floats(-1, 1))])


class TestWorldProperties:
    @settings(max_examples=50, deadline=None)
    @given(q=joint_vec, qdot=qdot_vec, act=action_vec, params=ranged_params(),
           wrench=random_wrench(), seed=st.integers(0, 2**31 - 1))
    def test_determinism_and_speed_bound(self, q, qdot, act, params, wrench, seed):
        rng = np.random.default_rng(seed)
        amp = rng.uniform(0, 0.05)
        terrain = rng.uniform(0, amp, (16, 16))
        state = AgentState(0.0, 0.0, float(rng.uniform(-3, 3)), 0.3, q, qdot)
        out1 = step_one(state, act, params, terrain, wrench)
        out2 = step_one(state, act, params, terrain, wrench)
        assert out1.x == out2.x and out1.y == out2.y and out1.yaw == out2.yaw
        assert np.array_equal(out1.q, out2.q)
        assert np.array_equal(out1.qdot, out2.qdot)
        speed = math.hypot(out1.x - state.x, out1.y - state.y) / DT
        assert speed <= K_FWD + K_LAT + F_REF * DT / 1.6 + 1e-12

    @settings(max_examples=50, deadline=None)
    @given(ax=st.floats(-1.2, 1.2), ay=st.floats(-1.2, 1.2),
           yaw=st.floats(-3.2, 3.2))
    def test_contact_conservation(self, ax, ay, yaw):
        blk = BlockState(0.0, 0.0, yaw, (0.3, 0.3), 4.0)
        agent_state = AgentState.at_rest(x=ax, y=ay)
        before = agent_block_penetration(agent_state, blk)
        after_block = push(agent_state, blk)
        after = agent_block_penetration(agent_state, after_block)
        if before <= 0:
            assert (after_block.x, after_block.y, after_block.yaw) == (0.0, 0.0, yaw)
        else:
            assert after <= 1e-6

    @settings(max_examples=25, deadline=None)
    @given(q=joint_vec, qdot=qdot_vec, act=action_vec)
    def test_fall_is_absorbing(self, q, qdot, act):
        w = one_row([AgentState(0.0, 0.0, 0.0, 0.3, q, qdot)])
        for _ in range(10):
            w = step_rows(w, [[act]])
            if w.fallen[0, 0]:
                for _ in range(3):
                    w = step_rows(w, [[act]])
                    assert w.fallen[0, 0]
                break


@st.composite
def random_row(draw, n_agents, n_blocks, flat=None):
    """One world description with its actions and wrenches: agents anywhere
    on and off a 10 m terrain patch, flat (all zeros) or rough (flat=None:
    either), some fallen, blocks within reach of agent 0."""
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    amp = rng.uniform(0.0, 0.3)
    terrain = rng.uniform(0.0, amp, (8, 8))
    if flat is None:
        flat = draw(st.booleans())
    if flat:
        terrain = flat_terrain(8)
    agents = []
    for _ in range(n_agents):
        st_ = AgentState(rng.uniform(-5.5, 5.5), rng.uniform(-5.5, 5.5),
                         rng.uniform(-4, 4), 0.3, rng.uniform(-1.5, 1.5, 12),
                         rng.uniform(-12, 12, 12))
        st_.fallen = draw(st.booleans())
        agents.append(st_)
    blocks = [BlockState(agents[0].x + rng.uniform(-0.9, 0.9),
                         agents[0].y + rng.uniform(-0.9, 0.9), rng.uniform(-3, 3),
                         (rng.uniform(0.1, 0.7), rng.uniform(0.1, 0.7)),
                         rng.uniform(1, 8)) for _ in range(n_blocks)]
    params = [DynamicsParams(joint_damping=rng.uniform(0.5, 1.5),
                             joint_friction=rng.uniform(0, 0.01),
                             actuator_gain=rng.uniform(3, 7),
                             total_mass=rng.uniform(1.5, 2.5),
                             surface_friction=rng.uniform(0.5, 1.5),
                             lateral_bias_force=rng.uniform(-1, 1))
              for _ in range(n_agents)]
    return (Row(agents, blocks, terrain, params),
            rng.uniform(-1.5, 1.5, (n_agents, 12)), rng.uniform(-8, 8, (n_agents, 3)),
            draw(st.booleans()))


@st.composite
def random_rows(draw):
    n_agents = draw(st.integers(1, 2))
    n_blocks = draw(st.integers(0, 1))
    flat = draw(st.sampled_from([True, False, None]))  # all, none, or mixed
    return draw(st.lists(random_row(n_agents, n_blocks, flat), min_size=1,
                         max_size=8))


class TestLockstep:
    """The determinism contract of the world: a row's result never depends
    on the rows stepped with it."""

    @settings(max_examples=60, deadline=None)
    @given(rows=random_rows())
    def test_stepping_rows_together_equals_each_alone(self, rows):
        world = make_worlds(r[0] for r in rows)
        acts = np.stack([r[1] for r in rows])
        wrench = np.stack([r[2] for r in rows])
        live = np.array([r[3] for r in rows])
        together = world
        # every row through the terrain lookup, flat or not: the cached
        # constant is carried to every later state
        looked_up = replace(world)
        looked_up.constants["all_flat"] = False
        alone = [make_worlds([r[0]]) for r in rows]
        for _ in range(3):
            together = step_worlds(together, acts, wrench, live)
            looked_up = step_worlds(looked_up, acts, wrench, live)
            alone = [step_worlds(w, r[1][None], r[2][None], np.array([r[3]]))
                     for w, r in zip(alone, rows)]
        for e, w in enumerate(alone):
            assert same_row(together, w, e, 0)
            assert same_row(together, looked_up, e, e)

    def test_one_nonzero_grid_node_turns_the_terrain_lookup_on(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(1)
            return terrain_at(*args)

        monkeypatch.setattr(legwork.world, "terrain_at", counting)
        bump = np.zeros((8, 8))
        bump[3, 4] = 0.05
        walker = AgentState(0.2, -0.4, 0.3, 0.3, np.full(12, 0.5), np.full(12, -2.0))
        rows = [Row([walker], terrain=flat_terrain(8)),
                Row([walker], terrain=bump)]
        acts, live = np.full((2, 1, 12), 0.7), np.array([True, True])
        flat = make_worlds(rows[:1])
        assert flat.constants["all_flat"]
        flat = step_worlds(flat, acts[:1], None, live[:1])
        assert calls == []
        rough = make_worlds(rows)
        assert not rough.constants["all_flat"]
        rough = step_worlds(rough, acts, None, live)
        assert calls == [1]
        # the lookup gives the flat row the bits the skipped lookup does
        assert same_row(rough, flat, 0, 0)


# The surrogate's left-right mirror: y and yaw negate; the left and right
# legs swap (front-left with front-right, back-left with back-right) and
# their abduction joints negate, in q, qdot and the actions; blocks mirror
# like agents, the terrain grid flips along y, and a wrench (fx, fy, torque)
# and the lateral bias force mirror with the body.
MIRRORED_JOINTS = [3, 4, 5, 0, 1, 2, 9, 10, 11, 6, 7, 8]


def mirror_joints(v):
    """Joint vectors (..., 12) of the mirrored legs."""
    out = v[..., MIRRORED_JOINTS]
    out[..., 0::3] = -out[..., 0::3]
    return out


def mirror(world):
    """The mirror image of every row, built by Worlds so that its stepping
    constants are its own."""
    params = dict(world.params, lateral_bias_force=-world.params["lateral_bias_force"])
    return Worlds(x=world.x, y=-world.y, yaw=-world.yaw, z_proxy=world.z_proxy,
                  q=mirror_joints(world.q), qdot=mirror_joints(world.qdot),
                  fallen=world.fallen, bx=world.bx, by=-world.by, byaw=-world.byaw,
                  half_extents=world.half_extents, block_mass=world.block_mass,
                  params=params, grid=world.grid[:, :, ::-1])


MIRRORED_STARTS = {
    "push": TaskEnvConfig("push"),
    "push/rand": TaskEnvConfig("push", rand=RandomizationConfig()),
    "coordinate/rand": TaskEnvConfig("coordinate", rand=RandomizationConfig()),
    "low_goal/rand": TaskEnvConfig("low_goal", rand=RandomizationConfig()),
    "push/overrides": TaskEnvConfig("push", overrides=EnvOverrides(
        DynamicsParams(lateral_bias_force=0.8),
        np.random.default_rng(3).uniform(0.0, 0.1, (32, 32)))),
}


@st.composite
def mirror_steps(draw):
    """A random state and one step's inputs: random_rows' agents, blocks,
    terrain (flat, rough or mixed) and live rows; every agent's dynamics
    drawn by ranged_params, with a lateral bias force or none; a wrench
    per agent or None."""
    rows = draw(random_rows())
    bias = draw(st.booleans())
    for row, *_ in rows:
        row.params = [replace(draw(ranged_params()), lateral_bias_force=(
            draw(st.floats(-1.0, 1.0)) if bias else 0.0)) for _ in row.agents]
    wrench = np.stack([r[2] for r in rows]) if draw(st.booleans()) else None
    return (make_worlds(r[0] for r in rows), np.stack([r[1] for r in rows]), wrench,
            np.array([r[3] for r in rows]))


MIRRORED_FIELDS = ("x", "y", "yaw", "z_proxy", "q", "qdot", "bx", "by", "byaw")


class TestMirrorSymmetry:
    """Stepping a mirrored state gives the mirror of the stepped state, up
    to rounding: the mirror reorders the legs' thrust sums, so exact bits
    are not expected."""

    @settings(max_examples=50, deadline=None)
    @given(case=mirror_steps())
    def test_one_step_of_a_random_state_is_mirror_equivariant(self, case):
        world, acts, wrench, live = case
        stepped = step_worlds(world, acts, wrench, live)
        image = step_worlds(mirror(world), mirror_joints(acts),
                            None if wrench is None else wrench * [1.0, -1.0, -1.0], live)
        expected = mirror(stepped)
        for field in MIRRORED_FIELDS:
            gap = np.abs(getattr(image, field) - getattr(expected, field))
            assert gap.max(initial=0.0) <= 1e-12, field
        assert np.array_equal(image.fallen, stepped.fallen)

    @pytest.mark.parametrize("name", sorted(MIRRORED_STARTS))
    def test_step_worlds_is_mirror_equivariant(self, name):
        env = TaskEnv(MIRRORED_STARTS[name], seeds=range(64))
        world, image = env.world, mirror(env.world)
        rng = np.random.default_rng(5)
        live = np.ones(64, dtype=bool)
        for t in range(env.horizon):
            acts = rng.uniform(-1.5, 1.5, world.q.shape)
            wrench = None if env.wrench is None else env.wrench[:, :, t]
            world = step_worlds(world, acts, wrench, live)
            image = step_worlds(image, mirror_joints(acts),
                                None if wrench is None else wrench * [1.0, -1.0, -1.0],
                                live)
            expected = mirror(world)
            for field in MIRRORED_FIELDS:
                gap = np.abs(getattr(image, field) - getattr(expected, field))
                assert gap.max(initial=0.0) <= 1e-12, (t, field)
            assert np.array_equal(image.fallen, world.fallen), t


AGENT_FIELDS = ("x", "y", "yaw", "z_proxy", "q", "qdot", "fallen")


def mirror_task(world, targets, kind):
    """The mirror image of every row's task state, (world, targets): the
    targets' y negates. Coordinate's mirror also swaps the agents, and with
    them the block ends and their targets: the first end of the mirrored
    block is the mirror of the second end."""
    image, targets = mirror(world), targets * [1.0, -1.0]
    if kind == "coordinate":
        image = replace(image, params={k: v[:, ::-1] for k, v in image.params.items()},
                        **{f: getattr(image, f)[:, ::-1] for f in AGENT_FIELDS})
        targets = targets[:, ::-1]
    return image, targets


def mirror_obs(obs, kind):
    """The observations (E, obs_dim) of the mirrored states, from those of
    the states: joint slots permuted, and every y, sin yaw and body-frame y
    entry negated; Coordinate's agents and block ends swap."""
    out = obs.copy()
    if kind == "low_goal":  # q, qdot, zeros, then the goal in the body frame
        out[:, :24] = mirror_joints(obs[:, :24].reshape(-1, 2, 12)).reshape(-1, 24)
        out[:, 31] = -obs[:, 31]
        return out
    n = 2 if kind == "coordinate" else 1
    core = out[:, :28 * n].reshape(-1, n, 28)
    core[..., :24] = mirror_joints(core[..., :24].reshape(-1, n, 2, 12)).reshape(-1, n, 24)
    core[..., 25] *= -1.0  # y
    core[..., 27] *= -1.0  # sin yaw
    tail = out[:, 28 * n:]
    if kind == "coordinate":
        core[:] = core[:, ::-1].copy()
        tail[:, 1] *= -1.0  # the block's sin yaw
        ends = tail[:, 2:6].reshape(-1, 2, 2)  # each target rel. its end
        ends[:] = ends[:, ::-1].copy()
        seen = tail[:, 6:].reshape(-1, 2, 2, 2)  # agent, end, (x, y)
        seen[:] = seen[:, ::-1, ::-1].copy()
        tail[:, 3:6:2] *= -1.0
        tail[:, 7::2] *= -1.0
    else:  # the target and the block center in the body frame
        tail[:, 1::2] *= -1.0
    return out


MIRRORED_TASKS = {f"{kind}/{level}": TaskEnvConfig(kind, rand=RandomizationConfig(on, on))
                  for kind in TASK_KINDS for level, on in (("nominal", False), ("rand", True))}


class TestMirroredTasks:
    """A mirrored episode is observed as the mirror of the episode and
    scored the same. Every formula on that path is sign-symmetric: cos is
    even and sin odd, body_frame and hypot keep a sign flip exact, and
    Coordinate's swapped terms are sums of two. So the values are equal
    exactly, not within a tolerance (0.0 and -0.0 count as equal)."""

    @settings(max_examples=50, deadline=None)
    @given(case=observed_rows(), z=st.floats(0.0, Z0), goal_met=st.booleans())
    def test_observation_and_reward_of_a_random_state(self, case, z, goal_met):
        world, kind, targets = case
        world.z_proxy[:] = z  # the upright term pays below UPRIGHT_Z_MIN
        if goal_met:  # row 0's targets where its kind's goal test holds
            if kind in ("low_goal", "avoid"):
                targets[0, 0] = world.x[0, 0], world.y[0, 0]
            elif kind == "push":
                targets[0, 0] = world.bx[0, 0], world.by[0, 0]
            else:
                targets[0] = block_ends(world.bx[0, 0], world.by[0, 0], world.byaw[0, 0])
        image, image_targets = mirror_task(world, targets, kind)
        assert np.array_equal(observe_task(image, kind, image_targets),
                              mirror_obs(observe_task(world, kind, targets), kind))
        reward, met = task_reward(world, kind, targets)
        image_reward, image_met = task_reward(image, kind, image_targets)
        assert np.array_equal(image_reward, reward)
        assert np.array_equal(image_met, met)
        assert met[0] or not goal_met

    @pytest.mark.parametrize("name", sorted(MIRRORED_TASKS))
    def test_observation_reward_and_success(self, name, monkeypatch):
        # image steps to the mirror of each state env reaches, so its
        # scoring pass reads exactly the mirrored episodes; rows 1 and 2
        # are put on their goals after step 3 and row 3 at the start, so
        # success takes both answers
        cfg = MIRRORED_TASKS[name]
        env, image = TaskEnv(cfg, seeds=range(16)), TaskEnv(cfg, seeds=range(16))
        kind = env.kind
        _meet_goal(env, [3])
        start, image.targets = mirror_task(env.world, env.targets, kind)
        for column in SCORED[kind]:  # the start's arrays are the ones image scores
            getattr(image.world, column)[...] = getattr(start, column)
        rng = np.random.default_rng(6)
        seen = set()
        while True:
            world, targets = mirror_task(env.world, env.targets, kind)
            got = observe_task(world, kind, targets)
            expected = mirror_obs(observe_task(env.world, kind, env.targets), kind)
            assert np.array_equal(got, expected), env.t
            success = env.score()[1]
            assert image.score()[1].tolist() == success.tolist(), env.t
            seen.update(success.tolist())
            if env.done.all():
                break
            acts = rng.uniform(-1.5, 1.5, (16, env.n_agents, N_JOINTS))
            env.step(acts)
            if env.t == 3:
                _meet_goal(env, [1, 2])
            with monkeypatch.context() as m:
                m.setattr(legwork.tasks, "step_worlds",
                          lambda *_: mirror_task(env.world, env.targets, kind)[0])
                image.step(acts)
        assert np.array_equal(image.score()[0], env.score()[0])
        assert seen == {True, False}

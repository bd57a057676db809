import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from legwork.errors import ConfigurationError, NumericsError
from legwork.world import (
    AGENT_RADIUS,
    DT,
    K_FWD,
    K_LAT,
    F_REF,
    AgentState,
    BlockState,
    DynamicsParams,
    ExternalWrench,
    HeightField,
    WorldState,
    resolve_push,
    run_open_loop,
    sample_terrain,
    scripted_trot_action,
    step_agent,
    world_step,
)

NOMINAL = DynamicsParams.nominal()
FLAT = HeightField.flat()
ZERO_W = ExternalWrench.zero()

# Forward displacement of the scripted trot over 40 steps under nominal
# params on flat ground, frozen from a reference run as a regression anchor.
TROT_DISPLACEMENT_40 = 1.9280410995027948


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


class TestStepAgent:
    def test_rest_is_exact_fixed_point(self):
        st0 = AgentState.at_rest()
        st1 = step_agent(st0, np.zeros(12), NOMINAL, FLAT, ZERO_W)
        assert (st1.x, st1.y, st1.yaw) == (0.0, 0.0, 0.0)
        assert st1.z_proxy == 0.3
        assert not st1.fallen
        assert np.array_equal(st1.q, np.zeros(12))
        assert np.array_equal(st1.qdot, np.zeros(12))

    def test_high_joint_speed_falls(self):
        st0 = AgentState.at_rest()
        st0.q[0] = -1.4  # room to swing without hitting the clamp
        st0.qdot[0] = 20.0  # stability goes negative from the qdot term alone
        st1 = step_agent(st0, np.zeros(12), NOMINAL, FLAT, ZERO_W)
        assert st1.fallen
        assert st1.z_proxy == 0.0

    def test_scripted_trot_walks_forward(self):
        traj = run_open_loop(scripted_trot_action, NOMINAL, FLAT, 40)
        disp = traj[-1].x - traj[0].x
        assert disp > 0.5
        assert disp == pytest.approx(TROT_DISPLACEMENT_40, rel=1e-9)
        assert not traj[-1].fallen

    def test_joint_clamp_and_z_bounds(self):
        st0 = AgentState.at_rest()
        state = st0
        for t in range(60):
            state = step_agent(state, np.ones(12), NOMINAL, FLAT, ZERO_W)
            assert np.all(np.abs(state.q) <= 1.5)
            assert 0.0 <= state.z_proxy <= 0.3
            if state.fallen:
                break

    def test_nonfinite_action_is_hard_error(self):
        act = np.zeros(12)
        act[3] = np.nan
        with pytest.raises(NumericsError):
            step_agent(AgentState.at_rest(), act, NOMINAL, FLAT, ZERO_W)

    def test_cannot_step_fallen_agent(self):
        st0 = AgentState.at_rest()
        st0.fallen = True
        with pytest.raises(ConfigurationError):
            step_agent(st0, np.zeros(12), NOMINAL, FLAT, ZERO_W)


class TestResolvePush:
    BLOCK = BlockState(0.0, 0.0, 0.0, (0.3, 0.3), 4.0)

    def test_no_contact_no_motion(self):
        out = resolve_push(AgentState.at_rest(x=-1.0), AGENT_RADIUS, self.BLOCK, DT)
        assert (out.x, out.y, out.yaw) == (0.0, 0.0, 0.0)

    def test_head_on_face_center_translates_without_rotation(self):
        # 5 cm overlap straight into the -x face center
        agent = AgentState.at_rest(x=-0.55)
        out = resolve_push(agent, AGENT_RADIUS, self.BLOCK, DT)
        assert out.x == pytest.approx(0.05, abs=1e-9)
        assert out.y == pytest.approx(0.0, abs=1e-12)
        assert out.yaw == pytest.approx(0.0, abs=1e-12)

    def test_corner_contact_rotates_and_matches_substep_oracle(self):
        # 45-degree approach ending in an off-axis overlap near a corner
        end = (-0.53, -0.18)
        start = (end[0] - 0.35, end[1] - 0.35)
        one_shot = resolve_push(AgentState.at_rest(x=end[0], y=end[1]),
                                AGENT_RADIUS, self.BLOCK, DT)
        assert abs(one_shot.yaw) > 1e-4

        oracle = self.BLOCK
        n = 100
        for k in range(1, n + 1):
            t = k / n
            ag = AgentState.at_rest(x=start[0] + (end[0] - start[0]) * t,
                                    y=start[1] + (end[1] - start[1]) * t)
            oracle = resolve_push(ag, AGENT_RADIUS, oracle, DT / n)
        assert abs(one_shot.x - oracle.x) < 1e-3
        assert abs(one_shot.y - oracle.y) < 1e-3
        assert abs(one_shot.yaw - oracle.yaw) < 1e-3

    def test_resolution_leaves_no_penetration(self):
        for pos in [(-0.55, 0.0), (-0.53, -0.18), (-0.25, -0.55), (0.1, 0.05)]:
            agent = AgentState.at_rest(x=pos[0], y=pos[1])
            out = resolve_push(agent, AGENT_RADIUS, self.BLOCK, DT)
            assert agent_block_penetration(agent, out) <= 1e-6

    def test_degenerate_block_rejected(self):
        bad = BlockState(0.0, 0.0, 0.0, (0.0, 0.3), 4.0)
        with pytest.raises(ConfigurationError):
            resolve_push(AgentState.at_rest(), AGENT_RADIUS, bad, DT)

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_push(AgentState.at_rest(), AGENT_RADIUS, self.BLOCK, 0.0)


class TestSampleTerrain:
    def test_zero_amplitude_everywhere_zero(self):
        for x, y in [(0.0, 0.0), (1.3, -2.7), (20.0, 20.0), (-5.0, 5.0)]:
            h, (sx, sy) = sample_terrain(FLAT, x, y)
            assert h == 0.0 and sx == 0.0 and sy == 0.0

    def test_grid_node_identity(self):
        rng = np.random.default_rng(7)
        field = HeightField(rng.uniform(0, 0.05, (32, 32)), amplitude=0.05)
        cell = field.width / 31
        for i, j in [(0, 0), (5, 17), (31, 31), (16, 3)]:
            x = -field.width / 2 + i * cell
            y = -field.width / 2 + j * cell
            h, _ = sample_terrain(field, x, y)
            assert h == pytest.approx(field.grid[i, j], abs=1e-12)

    def test_slope_matches_central_differences(self):
        rng = np.random.default_rng(11)
        field = HeightField(rng.uniform(0, 0.05, (32, 32)), amplitude=0.05)
        eps = 1e-6
        for _ in range(200):
            # keep the stencil inside one cell: stay away from node lines
            x = rng.uniform(-4.9, 4.9)
            y = rng.uniform(-4.9, 4.9)
            cell = field.width / 31
            fx = ((x + 5.0) / cell) % 1.0
            fy = ((y + 5.0) / cell) % 1.0
            if min(fx, 1 - fx, fy, 1 - fy) < 1e-3:
                continue
            h, (sx, sy) = sample_terrain(field, x, y)
            hxp, _ = sample_terrain(field, x + eps, y)
            hxm, _ = sample_terrain(field, x - eps, y)
            hyp, _ = sample_terrain(field, x, y + eps)
            hym, _ = sample_terrain(field, x, y - eps)
            assert abs((hxp - hxm) / (2 * eps) - sx) < 1e-6
            assert abs((hyp - hym) / (2 * eps) - sy) < 1e-6
            assert 0.0 <= h <= 0.05

    def test_outside_returns_edge_value_zero_slope(self):
        rng = np.random.default_rng(3)
        field = HeightField(rng.uniform(0, 0.05, (32, 32)), amplitude=0.05)
        h_out, (sx, sy) = sample_terrain(field, 50.0, 1.25)
        h_edge, _ = sample_terrain(field, 5.0, 1.25)
        assert h_out == pytest.approx(h_edge, abs=1e-12)
        assert sx == 0.0 and sy == 0.0


class TestWorldStep:
    def _world(self, agents, blocks=()):
        return WorldState(list(agents), list(blocks), FLAT,
                          [NOMINAL] * len(agents), step=0)

    def test_single_agent_matches_step_agent(self):
        act = scripted_trot_action(3)
        w = self._world([AgentState.at_rest()])
        nxt = world_step(w, [act], [ZERO_W])
        ref = step_agent(AgentState.at_rest(), act, NOMINAL, FLAT, ZERO_W)
        assert nxt.agents[0].x == ref.x
        assert nxt.agents[0].yaw == ref.yaw
        assert np.array_equal(nxt.agents[0].q, ref.q)
        assert nxt.step == 1

    def test_distant_agents_do_not_interact(self):
        a0 = AgentState.at_rest(x=0.0)
        a1 = AgentState.at_rest(x=50.0, yaw=1.0)
        act = scripted_trot_action(0)
        nxt = world_step(self._world([a0, a1]), [act, act], [ZERO_W, ZERO_W])
        r0 = step_agent(a0, act, NOMINAL, FLAT, ZERO_W)
        r1 = step_agent(a1, act, NOMINAL, FLAT, ZERO_W)
        assert (nxt.agents[0].x, nxt.agents[0].y) == (r0.x, r0.y)
        assert (nxt.agents[1].x, nxt.agents[1].y) == (r1.x, r1.y)

    def test_forward_gait_pushes_block_along_heading(self):
        block = BlockState(0.62, 0.0, 0.0, (0.3, 0.3), 4.0)
        w = self._world([AgentState.at_rest()], [block])
        for t in range(15):
            w = world_step(w, [scripted_trot_action(t)], [ZERO_W])
        assert w.blocks[0].x > 0.62
        assert agent_block_penetration(w.agents[0], w.blocks[0]) <= 1e-6

    def test_action_count_mismatch(self):
        w = self._world([AgentState.at_rest()])
        with pytest.raises(ConfigurationError):
            world_step(w, [], [])

    def test_fallen_agent_receives_no_motion(self):
        a = AgentState.at_rest(x=1.0)
        a.fallen = True
        w = self._world([a])
        nxt = world_step(w, [np.ones(12)], [ZERO_W])
        assert nxt.agents[0] is a
        assert nxt.step == 1


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
    return ExternalWrench(draw(st.floats(-10, 10)), draw(st.floats(-10, 10)),
                          draw(st.floats(-1, 1)))


class TestWorldProperties:
    @settings(max_examples=50, deadline=None)
    @given(q=joint_vec, qdot=qdot_vec, act=action_vec, params=ranged_params(),
           wrench=random_wrench(), seed=st.integers(0, 2**31 - 1))
    def test_determinism_and_speed_bound(self, q, qdot, act, params, wrench, seed):
        rng = np.random.default_rng(seed)
        amp = rng.uniform(0, 0.05)
        terrain = HeightField(rng.uniform(0, amp, (16, 16)), amplitude=amp)
        state = AgentState(0.0, 0.0, float(rng.uniform(-3, 3)), 0.3, q, qdot)
        out1 = step_agent(state, act, params, terrain, wrench)
        out2 = step_agent(state, act, params, terrain, wrench)
        assert out1.x == out2.x and out1.y == out2.y and out1.yaw == out2.yaw
        assert np.array_equal(out1.q, out2.q)
        assert np.array_equal(out1.qdot, out2.qdot)
        speed = math.hypot(out1.x - state.x, out1.y - state.y) / DT
        assert speed <= K_FWD + K_LAT + F_REF * DT / 1.6 + 1e-12

    @settings(max_examples=50, deadline=None)
    @given(ax=st.floats(-1.2, 1.2), ay=st.floats(-1.2, 1.2),
           yaw=st.floats(-3.2, 3.2))
    def test_contact_conservation(self, ax, ay, yaw):
        block = BlockState(0.0, 0.0, yaw, (0.3, 0.3), 4.0)
        agent = AgentState.at_rest(x=ax, y=ay)
        before = agent_block_penetration(agent, block)
        after_block = resolve_push(agent, AGENT_RADIUS, block, DT)
        after = agent_block_penetration(agent, after_block)
        if before <= 0:
            assert (after_block.x, after_block.y, after_block.yaw) == (0.0, 0.0, yaw)
        else:
            assert after <= 1e-6

    @settings(max_examples=25, deadline=None)
    @given(q=joint_vec, qdot=qdot_vec, act=action_vec)
    def test_fall_is_absorbing(self, q, qdot, act):
        state = AgentState(0.0, 0.0, 0.0, 0.3, q, qdot)
        w = WorldState([state], [], FLAT, [NOMINAL])
        for _ in range(10):
            w = world_step(w, [act], [ZERO_W])
            if w.agents[0].fallen:
                for _ in range(3):
                    w = world_step(w, [act], [ZERO_W])
                    assert w.agents[0].fallen
                break

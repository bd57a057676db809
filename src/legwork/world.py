"""Planar surrogate physics for legged agents, terrain, and quasi-static block pushing.

The world advances at dt = 0.1 s. Each agent carries 12 joints grouped as
4 legs x (abduction, flexion, knee). Joint dynamics are a semi-implicit
Euler position servo; locomotion comes from a rectified gait model: a leg
produces forward thrust only while its knee is extended (stance) and its
flexion joint swings backward. Falls are an absorbing stability failure.

All stepping functions are pure: they return new states and never mutate
their inputs, so episodes may run in parallel without sharing anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericsError

DT = 0.1  # s per world step
N_JOINTS = 12
N_LEGS = 4
Q_MAX = 1.5  # rad, joint clamp
Z0 = 0.3  # m, nominal torso-height proxy

# Twist gains; calibrated so a clean gait tops out near 0.6 m/s.
K_FWD = 1.2  # m
K_TURN = 2.0  # rad
K_LAT = 0.3  # m

# Stability reference scales.
QDOT_REF = 8.0  # rad/s
F_REF = 40.0  # N
V_REF = 2.0  # m/s

AGENT_RADIUS = 0.3  # m, disc footprint used for pushing

# Joint layout: leg L owns indices 3L..3L+2. Legs are ordered
# [front-left, front-right, back-left, back-right].
ABD_IDX = np.array([0, 3, 6, 9])
FLEX_IDX = np.array([1, 4, 7, 10])
KNEE_IDX = np.array([2, 5, 8, 11])
LEFT_LEGS = np.array([0, 2])
RIGHT_LEGS = np.array([1, 3])

_PUSH_TOL = 1e-9
_PUSH_MAX_ITERS = 64


@dataclass
class AgentState:
    """Pose, torso-height proxy, and joint state of one legged agent."""

    x: float
    y: float
    yaw: float
    z_proxy: float
    q: np.ndarray
    qdot: np.ndarray
    fallen: bool = False

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        self.qdot = np.asarray(self.qdot, dtype=float)
        if self.q.shape != (N_JOINTS,) or self.qdot.shape != (N_JOINTS,):
            raise ConfigurationError("agent joint vectors must have 12 entries")

    @classmethod
    def at_rest(cls, x: float = 0.0, y: float = 0.0, yaw: float = 0.0) -> "AgentState":
        return cls(x, y, yaw, Z0, np.zeros(N_JOINTS), np.zeros(N_JOINTS))

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y])

    @property
    def heading(self) -> np.ndarray:
        return np.array([math.cos(self.yaw), math.sin(self.yaw)])


@dataclass
class BlockState:
    """Axis-aligned (in its own frame) rectangular block posed in the plane."""

    x: float
    y: float
    yaw: float
    half_extents: tuple[float, float]
    mass: float

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y])


@dataclass
class HeightField:
    """Square terrain patch of width x width meters sampled on an n x n grid.

    grid[i, j] is the height at x-index i, y-index j; heights are bilinearly
    interpolated between nodes. Queries outside the patch clamp to the edge
    and report zero slope.
    """

    grid: np.ndarray
    width: float = 10.0
    amplitude: float = 0.0

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        if self.grid.ndim != 2 or self.grid.shape[0] != self.grid.shape[1]:
            raise ConfigurationError("height field grid must be square")
        if self.grid.shape[0] < 2:
            raise ConfigurationError("height field grid needs at least 2x2 nodes")

    @classmethod
    def flat(cls, n: int = 32, width: float = 10.0) -> "HeightField":
        return cls(np.zeros((n, n)), width=width, amplitude=0.0)


@dataclass
class DynamicsParams:
    """One realization of the randomized agent dynamics."""

    joint_damping: float = 1.0  # 1/s
    joint_friction: float = 0.003  # N*m dry friction
    actuator_gain: float = 5.0  # 1/s^2
    total_mass: float = 1.8  # kg
    surface_friction: float = 1.0
    lateral_bias_force: float = 0.0  # N, signed, along body +y

    def __post_init__(self):
        vals = (self.joint_damping, self.joint_friction, self.actuator_gain,
                self.total_mass, self.surface_friction, self.lateral_bias_force)
        if not all(math.isfinite(v) for v in vals):
            raise ConfigurationError("dynamics parameters must be finite")
        if min(self.joint_damping, self.joint_friction, self.actuator_gain,
               self.total_mass, self.surface_friction) < 0:
            raise ConfigurationError("dynamics magnitudes must be nonnegative")

    @classmethod
    def nominal(cls) -> "DynamicsParams":
        return cls()


@dataclass
class ExternalWrench:
    """Planar force plus torque applied to an agent torso."""

    fx: float = 0.0
    fy: float = 0.0
    torque: float = 0.0

    @classmethod
    def zero(cls) -> "ExternalWrench":
        return cls(0.0, 0.0, 0.0)

    @property
    def force_norm(self) -> float:
        return math.hypot(self.fx, self.fy)


@dataclass
class WorldState:
    """All agents, blocks, terrain, per-agent dynamics, and the step counter."""

    agents: list
    blocks: list
    terrain: HeightField
    params: list
    step: int = 0

    def __post_init__(self):
        if len(self.params) != len(self.agents):
            raise ConfigurationError("one DynamicsParams per agent required")
        if self.step < 0:
            raise ConfigurationError("step counter must be nonnegative")


def sample_terrain(terrain: HeightField, x: float, y: float):
    """Height and analytic slope of the bilinear interpolant at (x, y).

    Returns (height, (dh/dx, dh/dy)). Outside the patch the edge height is
    returned with zero slope.
    """
    grid = terrain.grid
    n = grid.shape[0]
    half = terrain.width / 2.0
    cell = terrain.width / (n - 1)

    inside = (-half <= x <= half) and (-half <= y <= half)
    gx = (min(max(x, -half), half) + half) / cell
    gy = (min(max(y, -half), half) + half) / cell
    i = min(int(gx), n - 2)
    j = min(int(gy), n - 2)
    fx = gx - i
    fy = gy - j

    h00 = grid[i, j]
    h10 = grid[i + 1, j]
    h01 = grid[i, j + 1]
    h11 = grid[i + 1, j + 1]
    height = (h00 * (1 - fx) * (1 - fy) + h10 * fx * (1 - fy)
              + h01 * (1 - fx) * fy + h11 * fx * fy)
    if not inside:
        return height, (0.0, 0.0)
    dhdx = ((h10 - h00) * (1 - fy) + (h11 - h01) * fy) / cell
    dhdy = ((h01 - h00) * (1 - fx) + (h11 - h10) * fx) / cell
    return height, (dhdx, dhdy)


def step_agent(state: AgentState, action, params: DynamicsParams,
               terrain: HeightField, wrench: ExternalWrench) -> AgentState:
    """Advance one agent by dt under the surrogate dynamics.

    The contract, in order:
      1. semi-implicit Euler joint servo with dry friction, clamped at
         +-Q_MAX (clamping zeroes the joint's velocity);
      2. per-leg thrust = clip(-qdot_flexion, 0, 1) gated by knee extension
         (q_knee > 0); the clip keeps the body twist inside its speed bound;
      3. body twist from thrust means: forward, turn (left minus right), and
         lateral from gated abduction velocities clipped to [-1, 1];
      4. twist scaled by surface friction and local slope, then wrench force
         (world frame) and lateral bias force (body frame) add dv = F*dt/m;
         wrench torque adds domega = tau*dt/I with I the disc inertia;
      5. pose integration and the stability score that drives z_proxy and
         the absorbing fall flag.
    """
    if state.fallen:
        raise ConfigurationError("cannot step a fallen agent")
    a = np.asarray(action, dtype=float)
    if a.shape != (N_JOINTS,):
        raise ConfigurationError("action must have 12 entries")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(state.q))
            and np.all(np.isfinite(state.qdot))
            and math.isfinite(state.x) and math.isfinite(state.y)
            and math.isfinite(state.yaw)):
        raise NumericsError("non-finite action or agent state")
    a = np.clip(a, -1.0, 1.0)

    # 1. joint servo
    qddot = (params.actuator_gain * (a - state.q)
             - params.joint_damping * state.qdot
             - params.joint_friction * np.sign(state.qdot))
    qdot = state.qdot + qddot * DT
    q = state.q + qdot * DT
    clamped = np.abs(q) > Q_MAX
    if clamped.any():
        q = np.clip(q, -Q_MAX, Q_MAX)
        qdot = np.where(clamped, 0.0, qdot)

    # 2./3. rectified gait model
    stance = (q[KNEE_IDX] > 0.0).astype(float)
    thrust = np.clip(-qdot[FLEX_IDX], 0.0, 1.0) * stance
    lat = np.clip(qdot[ABD_IDX], -1.0, 1.0) * stance
    v_fwd = K_FWD * thrust.mean()
    omega = K_TURN * (thrust[LEFT_LEGS].mean() - thrust[RIGHT_LEGS].mean())
    v_lat = K_LAT * lat.mean()

    # 4. terrain/friction scaling and external forces
    _, (sx, sy) = sample_terrain(terrain, state.x, state.y)
    slope_mag = math.hypot(sx, sy)
    scale = params.surface_friction * max(0.0, 1.0 - 2.0 * slope_mag)
    v_fwd *= scale
    v_lat *= scale
    omega *= scale

    inertia = params.total_mass * AGENT_RADIUS ** 2  # gyration radius = footprint
    omega += wrench.torque * DT / inertia
    yaw = state.yaw + omega * DT
    c, s = math.cos(yaw), math.sin(yaw)
    inv_m = DT / params.total_mass
    vx = c * v_fwd - s * v_lat + (wrench.fx - s * params.lateral_bias_force) * inv_m
    vy = s * v_fwd + c * v_lat + (wrench.fy + c * params.lateral_bias_force) * inv_m

    # 5. pose integration and stability; the speed term counts the gait
    # twist only (the wrench already has its own term)
    x = state.x + vx * DT
    y = state.y + vy * DT
    twist_speed = math.hypot(v_fwd, v_lat)
    stability = (1.0
                 - 0.5 * float(np.max(np.abs(qdot))) / QDOT_REF
                 - 4.0 * slope_mag
                 - wrench.force_norm / F_REF
                 - twist_speed / V_REF)
    z_proxy = Z0 * min(max(stability, 0.0), 1.0)
    return AgentState(x, y, yaw, z_proxy, q, qdot, fallen=stability < 0.0)


def resolve_push(agent: AgentState, agent_radius: float, block: BlockState,
                 dt: float) -> BlockState:
    """Quasi-static contact resolution between a disc agent and a block.

    While the disc penetrates the block footprint, the block translates away
    along the contact normal by the penetration depth and rotates about its
    center by lever x displacement / (1 + mass). The block holds no momentum:
    without contact it never moves.
    """
    if dt <= 0:
        raise ConfigurationError("dt must be positive")
    hx, hy = block.half_extents
    if hx <= 0 or hy <= 0:
        raise ConfigurationError("block half extents must be positive")

    bx, by, byaw = block.x, block.y, block.yaw
    for _ in range(_PUSH_MAX_ITERS):
        c, s = math.cos(byaw), math.sin(byaw)
        rx = agent.x - bx
        ry = agent.y - by
        lx = c * rx + s * ry
        ly = -s * rx + c * ry
        qx = min(max(lx, -hx), hx)
        qy = min(max(ly, -hy), hy)
        dx = lx - qx
        dy = ly - qy
        d2 = dx * dx + dy * dy
        if d2 > 0.0:
            d = math.sqrt(d2)
            depth = agent_radius - d
            if depth <= _PUSH_TOL:
                break
            nx, ny = dx / d, dy / d  # block -> agent, block frame
            cx, cy = qx, qy
        else:
            # disc center inside the footprint: exit through the nearest face
            px = hx - abs(lx)
            py = hy - abs(ly)
            if px <= py:
                nx, ny = (1.0 if lx >= 0 else -1.0), 0.0
                depth = agent_radius + px
                cx, cy = math.copysign(hx, lx), ly
            else:
                nx, ny = 0.0, (1.0 if ly >= 0 else -1.0)
                depth = agent_radius + py
                cx, cy = lx, math.copysign(hy, ly)
        mvx = -(c * nx - s * ny) * depth
        mvy = -(s * nx + c * ny) * depth
        bx += mvx
        by += mvy
        cwx = c * cx - s * cy
        cwy = s * cx + c * cy
        byaw += (cwx * mvy - cwy * mvx) / (1.0 + block.mass)
    return BlockState(bx, by, byaw, block.half_extents, block.mass)


def world_step(world: WorldState, actions, wrenches) -> WorldState:
    """Step every agent, then resolve pushes in agent-index order.

    Fallen agents receive no motion. Requires one action and one wrench per
    agent.
    """
    n = len(world.agents)
    if len(actions) != n or len(wrenches) != n:
        raise ConfigurationError(
            f"expected {n} actions and wrenches, got {len(actions)}/{len(wrenches)}")
    agents = [st if st.fallen
              else step_agent(st, act, p, world.terrain, w)
              for st, act, w, p in zip(world.agents, actions, wrenches, world.params)]
    blocks = list(world.blocks)
    for ag in agents:
        for k, blk in enumerate(blocks):
            blocks[k] = resolve_push(ag, AGENT_RADIUS, blk, DT)
    return WorldState(agents, blocks, world.terrain, world.params, world.step + 1)


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


def run_open_loop(action_fn, params: DynamicsParams, terrain: HeightField,
                  n_steps: int, start: AgentState | None = None) -> list:
    """Roll a single agent under an open-loop action schedule, no wrenches.

    Returns the state trajectory including the start state. Stops early if
    the agent falls.
    """
    state = start if start is not None else AgentState.at_rest()
    traj = [state]
    zero = ExternalWrench.zero()
    for t in range(n_steps):
        state = step_agent(state, action_fn(t), params, terrain, zero)
        traj.append(state)
        if state.fallen:
            break
    return traj

"""Planar surrogate physics for legged agents, terrain, and quasi-static block pushing.

The world advances at dt = 0.1 s. Each agent carries 12 joints grouped as
4 legs x (abduction, flexion, knee). Joint dynamics are a semi-implicit
Euler position servo; locomotion comes from a rectified gait model: a leg
produces forward thrust only while its knee is extended (stance) and its
flexion joint swings backward. Falls are an absorbing stability failure.

Layout: struct of arrays. A Worlds value holds E independent worlds, its
rows, each with the same number of agents A and blocks B. Agent pose
fields are (E, A) arrays, joint vectors (E, A, 12), block fields (E, B),
terrain grids (E, n, n), and each dynamics parameter an (E, A) array.
Every formula runs once over all rows; masks select the rows and agents
that move. AgentState, BlockState, HeightField, DynamicsParams and
WorldState describe one world; Worlds.stack turns a list of them into
rows.

Stepping is pure: step_worlds returns a new Worlds and never mutates its
input, so a trace may hold every state. Each row's result depends on that
row alone, bit for bit, whatever rows are stepped with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

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

# Joint layout: leg L owns indices 3L..3L+2, so the abduction, flexion and
# knee joints are the strided slices 0::3, 1::3 and 2::3. Legs are ordered
# [front-left, front-right, back-left, back-right]: left legs 0::2, right
# legs 1::2.

_PUSH_TOL = 1e-9
_PUSH_MAX_ITERS = 64


def hypot(a, b) -> np.ndarray:
    """Elementwise math.hypot of two arrays of one shape.

    np.hypot differs from math.hypot in the last bit on a few inputs in a
    thousand; math.hypot keeps the pinned golden episodes exact.
    """
    a = np.asarray(a, dtype=float)
    out = list(map(math.hypot, a.ravel().tolist(),
                   np.asarray(b, dtype=float).ravel().tolist()))
    return np.array(out, dtype=float).reshape(a.shape)


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


@dataclass
class BlockState:
    """Axis-aligned (in its own frame) rectangular block posed in the plane."""

    x: float
    y: float
    yaw: float
    half_extents: tuple[float, float]
    mass: float


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
class WorldState:
    """One world: its agents, blocks, terrain and per-agent dynamics."""

    agents: list
    blocks: list
    terrain: HeightField
    params: list

    def __post_init__(self):
        if len(self.params) != len(self.agents):
            raise ConfigurationError("one DynamicsParams per agent required")


@dataclass
class Worlds:
    """E worlds as arrays whose first axis is the row (world) index.

    Agents: x, y, yaw, z_proxy, fallen (E, A); q, qdot (E, A, 12).
    Blocks: bx, by, byaw, block_mass (E, B); half_extents (E, B, 2).
    params maps each DynamicsParams field name to an (E, A) array; grid
    holds each row's terrain heights (E, n, n) over a patch of one width,
    and flat (E,) marks the rows whose grid is all zeros.
    """

    x: np.ndarray
    y: np.ndarray
    yaw: np.ndarray
    z_proxy: np.ndarray
    q: np.ndarray
    qdot: np.ndarray
    fallen: np.ndarray
    bx: np.ndarray
    by: np.ndarray
    byaw: np.ndarray
    half_extents: np.ndarray
    block_mass: np.ndarray
    params: dict
    grid: np.ndarray
    width: float
    flat: np.ndarray

    @classmethod
    def stack(cls, worlds) -> "Worlds":
        """Rows from WorldState descriptions that share their agent and
        block counts and their terrain's grid size and width."""
        worlds = list(worlds)
        if not worlds:
            raise ConfigurationError("need at least one world")
        layout = {(len(w.agents), len(w.blocks), w.terrain.grid.shape,
                   w.terrain.width) for w in worlds}
        if len(layout) != 1:
            raise ConfigurationError(
                "stacked worlds must share agent and block counts and terrain layout")
        e, a, b = len(worlds), len(worlds[0].agents), len(worlds[0].blocks)

        def table(items, value, shape, dtype=float):
            return np.array([[value(it) for it in getattr(w, items)] for w in worlds],
                            dtype=dtype).reshape(shape)

        return cls(
            x=table("agents", lambda s: s.x, (e, a)),
            y=table("agents", lambda s: s.y, (e, a)),
            yaw=table("agents", lambda s: s.yaw, (e, a)),
            z_proxy=table("agents", lambda s: s.z_proxy, (e, a)),
            q=table("agents", lambda s: s.q, (e, a, N_JOINTS)),
            qdot=table("agents", lambda s: s.qdot, (e, a, N_JOINTS)),
            fallen=table("agents", lambda s: s.fallen, (e, a), bool),
            bx=table("blocks", lambda s: s.x, (e, b)),
            by=table("blocks", lambda s: s.y, (e, b)),
            byaw=table("blocks", lambda s: s.yaw, (e, b)),
            half_extents=table("blocks", lambda s: s.half_extents, (e, b, 2)),
            block_mass=table("blocks", lambda s: s.mass, (e, b)),
            params={f.name: table("params", lambda p, n=f.name: getattr(p, n), (e, a))
                    for f in fields(DynamicsParams)},
            grid=np.stack([w.terrain.grid for w in worlds]),
            width=worlds[0].terrain.width,
            flat=np.array([not w.terrain.grid.any() for w in worlds]),
        )


def terrain_at(grid: np.ndarray, width: float, x: np.ndarray, y: np.ndarray):
    """Height and analytic slope of the bilinear interpolant at (x, y).

    grid (E, n, n) holds one terrain per row; x and y are (E, k), k query
    points per row. Returns (height, dh/dx, dh/dy), each (E, k). Outside
    the patch the edge height is returned with zero slope.
    """
    n = grid.shape[1]
    half = width / 2.0
    cell = width / (n - 1)

    inside = (-half <= x) & (x <= half) & (-half <= y) & (y <= half)
    gx = (np.minimum(np.maximum(x, -half), half) + half) / cell
    gy = (np.minimum(np.maximum(y, -half), half) + half) / cell
    i = np.minimum(gx.astype(int), n - 2)
    j = np.minimum(gy.astype(int), n - 2)
    fx = gx - i
    fy = gy - j

    rows = np.arange(grid.shape[0])[:, None]
    h00 = grid[rows, i, j]
    h10 = grid[rows, i + 1, j]
    h01 = grid[rows, i, j + 1]
    h11 = grid[rows, i + 1, j + 1]
    height = (h00 * (1 - fx) * (1 - fy) + h10 * fx * (1 - fy)
              + h01 * (1 - fx) * fy + h11 * fx * fy)
    dhdx = np.where(inside, ((h10 - h00) * (1 - fy) + (h11 - h01) * fy) / cell, 0.0)
    dhdy = np.where(inside, ((h01 - h00) * (1 - fx) + (h11 - h10) * fx) / cell, 0.0)
    return height, dhdx, dhdy


def step_agents(world: Worlds, actions, wrench, active) -> Worlds:
    """Advance the active agents by dt under the surrogate dynamics; the
    others keep their state.

    actions (E, A, 12); wrench (E, A, 3) holds each torso's world-frame
    force and torque (fx, fy, torque); active (E, A) is a bool mask. The
    contract, in order:
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
    When every row's terrain is flat (Worlds.flat), the slope is 0.0
    everywhere and the terrain lookup is skipped: the friction scale is
    then surface_friction * 1.0 and the stability loses 0.0, the same bits
    the lookup gives.
    """
    a = np.asarray(actions, dtype=float)
    if a.shape != world.q.shape:
        raise ConfigurationError(
            f"actions must have shape {world.q.shape}, got {a.shape}")
    pose = (world.x[..., None], world.y[..., None], world.yaw[..., None])
    finite = np.isfinite(np.concatenate((a, world.q, world.qdot) + pose,
                                        axis=-1)).all(axis=-1)
    if not finite[active].all():
        raise NumericsError("non-finite action or agent state")
    every = active.all()
    if not every:
        a = np.where(active[..., None], a, 0.0)
    a = np.minimum(np.maximum(a, -1.0), 1.0)
    p = world.params

    # 1. joint servo
    qddot = (p["actuator_gain"][..., None] * (a - world.q)
             - p["joint_damping"][..., None] * world.qdot
             - p["joint_friction"][..., None] * np.sign(world.qdot))
    qdot = world.qdot + qddot * DT
    q = world.q + qdot * DT
    clamped = np.abs(q) > Q_MAX
    q = np.minimum(np.maximum(q, -Q_MAX), Q_MAX)
    qdot = np.where(clamped, 0.0, qdot)

    # 2./3. rectified gait model
    # (np.clip and .mean() give the same bits; the ufuncs skip their
    # per-call Python overhead, which dominates on rows this small)
    stance = (q[..., 2::3] > 0.0).astype(float)
    thrust = np.minimum(np.maximum(-qdot[..., 1::3], 0.0), 1.0) * stance
    lat = np.minimum(np.maximum(qdot[..., 0::3], -1.0), 1.0) * stance
    v_fwd = K_FWD * (thrust.sum(axis=-1) / N_LEGS)
    omega = K_TURN * (thrust[..., 0::2].sum(axis=-1) / 2
                      - thrust[..., 1::2].sum(axis=-1) / 2)
    v_lat = K_LAT * (lat.sum(axis=-1) / N_LEGS)

    # 4. terrain/friction scaling and external forces
    if world.flat.all():
        scale, slope_term = p["surface_friction"], 0.0
    else:
        _, sx, sy = terrain_at(world.grid, world.width, world.x, world.y)
        slope_mag = hypot(sx, sy)
        scale = p["surface_friction"] * np.maximum(0.0, 1.0 - 2.0 * slope_mag)
        slope_term = 4.0 * slope_mag
    v_fwd = v_fwd * scale
    v_lat = v_lat * scale
    omega = omega * scale

    fx, fy, torque = wrench[..., 0], wrench[..., 1], wrench[..., 2]
    inertia = p["total_mass"] * AGENT_RADIUS ** 2  # gyration radius = footprint
    omega = omega + torque * DT / inertia
    yaw = world.yaw + omega * DT
    c, s = np.cos(yaw), np.sin(yaw)
    inv_m = DT / p["total_mass"]
    bias = p["lateral_bias_force"]
    vx = c * v_fwd - s * v_lat + (fx - s * bias) * inv_m
    vy = s * v_fwd + c * v_lat + (fy + c * bias) * inv_m

    # 5. pose integration and stability; the speed term counts the gait
    # twist only (the wrench already has its own term)
    x = world.x + vx * DT
    y = world.y + vy * DT
    stability = (1.0
                 - 0.5 * np.max(np.abs(qdot), axis=-1) / QDOT_REF
                 - slope_term
                 - hypot(fx, fy) / F_REF
                 - hypot(v_fwd, v_lat) / V_REF)
    z_proxy = Z0 * np.minimum(np.maximum(stability, 0.0), 1.0)
    fallen = stability < 0.0

    if every:
        return replace(world, x=x, y=y, yaw=yaw, z_proxy=z_proxy, q=q,
                       qdot=qdot, fallen=fallen)
    moved = active[..., None]
    return replace(
        world,
        x=np.where(active, x, world.x),
        y=np.where(active, y, world.y),
        yaw=np.where(active, yaw, world.yaw),
        z_proxy=np.where(active, z_proxy, world.z_proxy),
        q=np.where(moved, q, world.q),
        qdot=np.where(moved, qdot, world.qdot),
        fallen=np.where(active, fallen, world.fallen),
    )


def push_block(ax, ay, bx, by, byaw, half_extents, mass, dt: float, active):
    """Quasi-static contact resolution between a disc agent and a block in
    every active row; returns the blocks' new (x, y, yaw), each (E,).

    ax, ay are the agent centers, bx, by, byaw, mass the blocks (E,) and
    half_extents (E, 2). While a disc penetrates its block footprint, the
    block translates away along the contact normal by the penetration depth
    and rotates about its center by lever x displacement / (1 + mass). The
    block holds no momentum: without contact it never moves. A row repeats
    this until its contact is resolved, at most 64 times; resolved and
    inactive rows are masked out of later iterations.
    """
    if dt <= 0:
        raise ConfigurationError("dt must be positive")
    hx, hy = half_extents[..., 0], half_extents[..., 1]
    if not (np.all(hx > 0) and np.all(hy > 0)):
        raise ConfigurationError("block half extents must be positive")

    active = np.array(active, dtype=bool)
    neg_hx, neg_hy, inertia = -hx, -hy, 1.0 + mass
    for _ in range(_PUSH_MAX_ITERS):
        if not active.any():
            break
        c, s = np.cos(byaw), np.sin(byaw)
        rx = ax - bx
        ry = ay - by
        lx = c * rx + s * ry
        ly = -s * rx + c * ry
        qx = np.minimum(np.maximum(lx, neg_hx), hx)
        qy = np.minimum(np.maximum(ly, neg_hy), hy)
        dx = lx - qx
        dy = ly - qy
        d2 = dx * dx + dy * dy
        outside = d2 > 0.0
        d = np.sqrt(np.where(outside, d2, 1.0))
        active = active & ~(outside & (AGENT_RADIUS - d <= _PUSH_TOL))
        if not active.any():
            break
        if (active & ~outside).any():
            # disc center inside the footprint: exit through the nearest face
            px = hx - np.abs(lx)
            py = hy - np.abs(ly)
            xface = px <= py
            nx = np.where(outside, dx / d,
                          np.where(xface, np.where(lx >= 0, 1.0, -1.0), 0.0))
            ny = np.where(outside, dy / d,
                          np.where(xface, 0.0, np.where(ly >= 0, 1.0, -1.0)))
            depth = np.where(outside, AGENT_RADIUS - d,
                             AGENT_RADIUS + np.where(xface, px, py))
            cx = np.where(outside, qx, np.where(xface, np.copysign(hx, lx), lx))
            cy = np.where(outside, qy, np.where(xface, ly, np.copysign(hy, ly)))
        else:  # every active disc center is outside its block
            nx, ny, depth, cx, cy = dx / d, dy / d, AGENT_RADIUS - d, qx, qy
        mvx = -(c * nx - s * ny) * depth
        mvy = -(s * nx + c * ny) * depth
        cwx = c * cx - s * cy
        cwy = s * cx + c * cy
        bx = np.where(active, bx + mvx, bx)
        by = np.where(active, by + mvy, by)
        byaw = np.where(active, byaw + (cwx * mvy - cwy * mvx) / inertia, byaw)
    return bx, by, byaw


def step_worlds(world: Worlds, actions, wrench, live) -> Worlds:
    """Advance the live rows (bool mask (E,)) by one step; the other rows
    keep their state.

    Every standing agent moves; fallen agents receive no motion. Then each
    agent pushes each block, in agent-index order. actions and wrench are
    as in step_agents.
    """
    live = np.asarray(live, dtype=bool)
    world = step_agents(world, actions, wrench, live[:, None] & ~world.fallen)
    bx, by, byaw = world.bx.copy(), world.by.copy(), world.byaw.copy()
    for i in range(world.x.shape[1]):
        for k in range(bx.shape[1]):
            bx[:, k], by[:, k], byaw[:, k] = push_block(
                world.x[:, i], world.y[:, i], bx[:, k], by[:, k], byaw[:, k],
                world.half_extents[:, k], world.block_mass[:, k], DT, live)
    return replace(world, bx=bx, by=by, byaw=byaw)

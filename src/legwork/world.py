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
that move. Whoever builds a Worlds allocates its columns once and writes
each row's values into its slots (tasks.TaskEnv). HeightField and
DynamicsParams validate one terrain (every patch is TERRAIN_WIDTH wide)
and one agent's dynamics: evaluation overrides and the nominal defaults.

Stepping is pure: step_worlds returns a new Worlds and never mutates its
input, so a trace may hold every state. Each row's result depends on that
row alone, bit for bit, whatever rows are stepped with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
TERRAIN_WIDTH = 10.0  # m, side of every square terrain patch

# Joint layout: leg L owns indices 3L..3L+2, so the abduction, flexion and
# knee joints are the strided slices 0::3, 1::3 and 2::3. Legs are ordered
# [front-left, front-right, back-left, back-right]: left legs 0::2, right
# legs 1::2.

_PUSH_TOL = 1e-9
_PUSH_MAX_ITERS = 64


def hypot(a, b) -> np.ndarray:
    """Elementwise math.hypot of two arrays of one shape; ValueError when
    the shapes differ.

    np.hypot differs from math.hypot in the last bit on a few inputs in a
    thousand; math.hypot keeps the pinned golden episodes exact.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"hypot needs two arrays of one shape, got {a.shape} "
                         f"and {b.shape}")
    # memoryview yields the floats without building a list per input
    out = np.fromiter(map(math.hypot, memoryview(a.ravel()), memoryview(b.ravel())),
                      dtype=float, count=a.size)
    return out.reshape(a.shape)


def body_frame(c, s, dx, dy) -> tuple:
    """The world-frame offset (dx, dy) in the frame of a body whose yaw has
    cosine c and sine s: (c dx + s dy, -s dx + c dy), elementwise. The one
    rotation into a body frame: observations, goals and block contact."""
    return c * dx + s * dy, -s * dx + c * dy


@dataclass
class HeightField:
    """Square terrain patch, TERRAIN_WIDTH m a side, on an n x n grid.

    grid[i, j] is the height at x-index i, y-index j; heights are bilinearly
    interpolated between nodes. Queries outside the patch clamp to the edge
    and report zero slope.
    """

    grid: np.ndarray

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        if self.grid.ndim != 2 or self.grid.shape[0] != self.grid.shape[1]:
            raise ConfigurationError("height field grid must be square")
        if self.grid.shape[0] < 2:
            raise ConfigurationError("height field grid needs at least 2x2 nodes")
        if not np.isfinite(self.grid).all():
            raise ConfigurationError("height field heights must be finite")

    @classmethod
    def flat(cls, n: int = 32) -> "HeightField":
        return cls(np.zeros((n, n)))


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


@dataclass
class Worlds:
    """E worlds as arrays whose first axis is the row (world) index.

    Agents: x, y, yaw, z_proxy, fallen (E, A); q, qdot (E, A, 12).
    Blocks: bx, by, byaw, block_mass (E, B); half_extents (E, B, 2).
    params maps each DynamicsParams field name to an (E, A) array; grid
    holds each row's terrain heights (E, n, n) over its TERRAIN_WIDTH patch.

    Stepping never changes params, grid, half_extents or block_mass, so
    what stepping derives from them (constants) is computed
    once and carried from each state to the next (evolve); a state built
    by dataclasses.replace computes its own.
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

    @cached_property
    def constants(self) -> dict:
        """Stepping's per-state constants: the servo gain, damping and
        friction as (E, A, 1) columns, the disc inertia, dt / mass, whether
        every row's grid is all zeros (all_flat) and whether no row has a
        lateral bias force (step_agents), and block_constants of each
        block (push_block).
        Raises ConfigurationError for a block without positive extents."""
        p = self.params
        return {
            "gain": p["actuator_gain"][..., None],
            "damping": p["joint_damping"][..., None],
            "friction": p["joint_friction"][..., None],
            "inertia": p["total_mass"] * AGENT_RADIUS ** 2,  # gyration radius = footprint
            "inv_m": DT / p["total_mass"],
            "all_flat": not self.grid.any(),
            "no_bias": not p["lateral_bias_force"].any(),
            "blocks": [block_constants(self.half_extents[:, k], self.block_mass[:, k])
                       for k in range(self.bx.shape[1])],
        }

    def evolve(self, changes: dict) -> "Worlds":
        """A new state with the fields in changes replaced and every other
        field, constants included, shared with this one. Unlike
        dataclasses.replace it skips __init__, so only stepping, which
        leaves params and grid alone, may use it."""
        new = object.__new__(Worlds)
        new.__dict__ = self.__dict__ | changes
        return new


def block_constants(half_extents: np.ndarray, mass: np.ndarray) -> tuple:
    """What push_block reads of blocks with half_extents (E, 2) and mass
    (E,): (hx, hy, -hx, -hy, 1 + mass), the last the rotational inertia.
    Raises ConfigurationError unless every half extent is positive."""
    if not (half_extents > 0).all():
        raise ConfigurationError("block half extents must be positive")
    hx, hy = half_extents[:, 0], half_extents[:, 1]
    return hx, hy, -hx, -hy, 1.0 + mass


def terrain_at(grid: np.ndarray, x: np.ndarray, y: np.ndarray):
    """Analytic slope of the bilinear height interpolant at (x, y).

    grid (E, n, n) holds one terrain per row over the TERRAIN_WIDTH patch;
    x and y are (E, k), k query points per row. Returns (dh/dx, dh/dy),
    each (E, k). Outside the patch the slope is zero.
    """
    n = grid.shape[1]
    half = TERRAIN_WIDTH / 2.0
    cell = TERRAIN_WIDTH / (n - 1)

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
    dhdx = np.where(inside, ((h10 - h00) * (1 - fy) + (h11 - h01) * fy) / cell, 0.0)
    dhdy = np.where(inside, ((h01 - h00) * (1 - fx) + (h11 - h10) * fx) / cell, 0.0)
    return dhdx, dhdy


def step_agents(world: Worlds, actions, wrench, active) -> Worlds:
    """Advance the active agents by dt under the surrogate dynamics; the
    others keep their state.

    actions (E, A, 12), clamped to [-1, 1] here; wrench (E, A, 3) holds
    each torso's world-frame force and torque (fx, fy, torque), or is None
    when it is zero in every row; active (E, A) is a bool mask. The
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
         the absorbing fall flag; a wrench lowers it by hypot(fx, fy) / F_REF.
    When every row's grid is all zeros (constants["all_flat"]), the slope
    is 0.0 everywhere and the terrain lookup is skipped: the friction scale
    is then surface_friction * 1.0 and the stability loses 0.0, the same
    bits the lookup gives. Likewise a wrench of None skips its terms, and
    no bias in any row the force terms: each would add or subtract 0.0.
    """
    a = np.asarray(actions, dtype=float)
    if a.shape != world.q.shape:
        raise ConfigurationError(
            f"actions must have shape {world.q.shape}, got {a.shape}")
    pose = (world.x[..., None], world.y[..., None], world.yaw[..., None])
    finite = np.isfinite(np.concatenate((a, world.q, world.qdot) + pose, axis=-1))
    if not finite.all() and not finite.all(axis=-1)[active].all():
        raise NumericsError("non-finite action or agent state")
    every = active.all()
    if not every:
        a = np.where(active[..., None], a, 0.0)
    a = np.minimum(np.maximum(a, -1.0), 1.0)
    p, k = world.params, world.constants

    # 1. joint servo
    qddot = (k["gain"] * (a - world.q)
             - k["damping"] * world.qdot
             - k["friction"] * np.sign(world.qdot))
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
    if k["all_flat"]:
        scale, slope_term = p["surface_friction"], 0.0
    else:
        sx, sy = terrain_at(world.grid, world.x, world.y)
        slope_mag = hypot(sx, sy)
        scale = p["surface_friction"] * np.maximum(0.0, 1.0 - 2.0 * slope_mag)
        slope_term = 4.0 * slope_mag
    v_fwd = v_fwd * scale
    v_lat = v_lat * scale
    omega = omega * scale

    # The torque term is added only when a wrench is given, the force terms
    # only when a wrench is given or some row has a bias. Where no force
    # acts, such a term would add +0.0, which can only turn a -0.0 into
    # +0.0, and that changes yaw, x or y only where they hold -0.0. No start
    # holds -0.0, and a sum is -0.0 only when both terms are, so they never
    # do: skipping the term keeps the bits.
    if wrench is not None:
        omega = omega + wrench[..., 2] * DT / k["inertia"]
    yaw = world.yaw + omega * DT
    c, s = np.cos(yaw), np.sin(yaw)
    vx = c * v_fwd - s * v_lat
    vy = s * v_fwd + c * v_lat
    if wrench is not None or not k["no_bias"]:
        fx, fy = (0.0, 0.0) if wrench is None else (wrench[..., 0], wrench[..., 1])
        bias, inv_m = p["lateral_bias_force"], k["inv_m"]
        vx = vx + (fx - s * bias) * inv_m
        vy = vy + (fy + c * bias) * inv_m

    # 5. pose integration and stability; the speed term counts the gait
    # twist only (the wrench already has its own term)
    x = world.x + vx * DT
    y = world.y + vy * DT
    stability = 1.0 - 0.5 * np.maximum.reduce(np.abs(qdot), axis=-1) / QDOT_REF
    stability = stability - slope_term
    if wrench is not None:
        stability = stability - hypot(wrench[..., 0], wrench[..., 1]) / F_REF
    stability = stability - hypot(v_fwd, v_lat) / V_REF
    z_proxy = Z0 * np.minimum(np.maximum(stability, 0.0), 1.0)
    fallen = stability < 0.0

    if every:
        return world.evolve({"x": x, "y": y, "yaw": yaw, "z_proxy": z_proxy,
                             "q": q, "qdot": qdot, "fallen": fallen})
    moved = active[..., None]
    return world.evolve({
        "x": np.where(active, x, world.x),
        "y": np.where(active, y, world.y),
        "yaw": np.where(active, yaw, world.yaw),
        "z_proxy": np.where(active, z_proxy, world.z_proxy),
        "q": np.where(moved, q, world.q),
        "qdot": np.where(moved, qdot, world.qdot),
        "fallen": np.where(active, fallen, world.fallen),
    })


def push_block(ax, ay, bx, by, byaw, block: tuple, active):
    """Quasi-static contact resolution between a disc agent and a block in
    every active row; returns the blocks' new (x, y, yaw), each (E,).

    ax, ay are the agent centers, bx, by, byaw the blocks (E,), and block
    their block_constants. While a disc penetrates its block footprint, the
    block translates away along the contact normal by the penetration depth
    and rotates about its center by lever x displacement / (1 + mass). The
    block holds no momentum: without contact it never moves. A row repeats
    this until its contact is resolved, at most 64 times; resolved and
    inactive rows are masked out of later iterations.
    """
    hx, hy, neg_hx, neg_hy, inertia = block
    active = np.asarray(active, dtype=bool)  # rebound below, never written
    for _ in range(_PUSH_MAX_ITERS):
        if not active.any():
            break
        c, s = np.cos(byaw), np.sin(byaw)
        lx, ly = body_frame(c, s, ax - bx, ay - by)
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
    as in step_agents: a wrench of None is a zero wrench in every row.
    """
    live = np.asarray(live, dtype=bool)
    world = step_agents(world, actions, wrench, live[:, None] & ~world.fallen)
    if world.bx.shape[1]:
        bx, by, byaw = world.bx.copy(), world.by.copy(), world.byaw.copy()
        blocks = world.constants["blocks"]
        for i in range(world.x.shape[1]):
            for k in range(bx.shape[1]):
                bx[:, k], by[:, k], byaw[:, k] = push_block(
                    world.x[:, i], world.y[:, i], bx[:, k], by[:, k], byaw[:, k],
                    blocks[k], live)
        # step_agents' result is new and not yet returned: set its blocks
        # in place rather than build a second state
        world.bx, world.by, world.byaw = bx, by, byaw
    return world

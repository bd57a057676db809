"""One-world descriptions for tests, and make_worlds, which writes them as
the rows of a world.Worlds. The package allocates Worlds columns directly
(tasks.TaskEnv); tests describe a few agents and blocks one by one."""

from dataclasses import dataclass, field, fields

import numpy as np

from legwork.errors import ConfigurationError
from legwork.world import N_JOINTS, Z0, DynamicsParams, HeightField, Worlds


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
class Row:
    """One world: its agents, blocks, terrain and per-agent dynamics
    (nominal for every agent when omitted)."""

    agents: list
    blocks: list = field(default_factory=list)
    terrain: HeightField = field(default_factory=HeightField.flat)
    params: list | None = None


def reference_stream(seed: int, *key: int) -> np.random.Generator:
    """Sub-stream (seed, key) as numpy builds it; randomization.substreams
    must give the same generator."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def sampled_action(policy, X, noise) -> np.ndarray:
    """The pre-clamp actions mean + std * noise of a policy at the rows of
    X, as the rollouts sample them; zero noise gives the means."""
    return policy.mean_rows(X) + np.exp(policy.log_std) * noise


def make_worlds(rows) -> Worlds:
    """The rows as one Worlds; they share their agent and block counts and
    their terrain's grid size."""
    rows = list(rows)
    e, a, b = len(rows), len(rows[0].agents), len(rows[0].blocks)

    def table(items, value, shape, dtype=float):
        return np.array([[value(it) for it in items(r)] for r in rows],
                        dtype=dtype).reshape(shape)

    agents, blocks = (lambda r: r.agents), (lambda r: r.blocks)
    params = (lambda r: r.params if r.params is not None
              else [DynamicsParams()] * len(r.agents))
    return Worlds(
        x=table(agents, lambda s: s.x, (e, a)),
        y=table(agents, lambda s: s.y, (e, a)),
        yaw=table(agents, lambda s: s.yaw, (e, a)),
        z_proxy=table(agents, lambda s: s.z_proxy, (e, a)),
        q=table(agents, lambda s: s.q, (e, a, N_JOINTS)),
        qdot=table(agents, lambda s: s.qdot, (e, a, N_JOINTS)),
        fallen=table(agents, lambda s: s.fallen, (e, a), bool),
        bx=table(blocks, lambda s: s.x, (e, b)),
        by=table(blocks, lambda s: s.y, (e, b)),
        byaw=table(blocks, lambda s: s.yaw, (e, b)),
        half_extents=table(blocks, lambda s: s.half_extents, (e, b, 2)),
        block_mass=table(blocks, lambda s: s.mass, (e, b)),
        params={f.name: table(params, lambda p, n=f.name: getattr(p, n), (e, a))
                for f in fields(DynamicsParams)},
        grid=np.stack([r.terrain.grid for r in rows]),
    )

"""Gaussian MLP policies, goal mappings, observation masking, and the
hierarchical executor.

The policy is a tanh MLP producing the mean of a diagonal Gaussian with a
state-independent learned log standard deviation. Sampled actions are
clamped to [-1, 1] by the world they act in; gradients always use the
log-density of the pre-clamp sample. Rollouts evaluate its means row by row
(mean_rows) and add the scaled noise themselves, so a row's action never
depends on the rows beside it; the trainer's maths evaluates whole batches
(mean_batch) and derives every log-density it needs from that pass.
Its parameters are one vector, theta, laid out by MlpPolicy.unflatten
alone; weights, biases and log_std are views into it.

Goal mappings, observation masking and the hierarchical executor work on
all rows of a world.Worlds at once.

The high level emits one action per GOAL_HORIZON low-level steps, and its
reward for a window is the window's task rewards discounted by GAMMA,
which the trainer also discounts every level's returns by. Each
per-agent pair of that action maps through a polar transform to a goal
offset in the agent's body frame, re-anchored in the world at every
decision; the low level sees only joint state plus the goal rotated into
its body frame (world.body_frame), with all six torso pose slots zeroed.
Each row draws its episode's noise for both levels up front, in a fixed
order, so its numbers never depend on whether its agents fall
(hierarchical_episode). The high-level actions
are perturbed exactly when the env randomizes the task (rand.task), the
level whose randomization the perturbation is.
"""

from __future__ import annotations

import copy
import json
import math
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, NumericsError, check_count
from .randomization import highlevel_noise_schedule
from .world import N_JOINTS, Worlds, body_frame

LOW_LEVEL_OBS_DIM = 32  # q(12) + qdot(12) + zeroed torso pose(6) + body goal(2)
GOAL_HORIZON = 10  # low-level steps per high-level decision
GAMMA = 0.99  # discount per low-level step
CHECKPOINT_FORMAT_VERSION = 1


def h_map(a_hi_pairs) -> tuple:
    """Polar map from high-level action pairs (..., 2) to body-frame goal
    offsets (ox, oy), each of shape (...).

    radius = 0.5 + 0.3 * a0 in [0.2, 0.8]; bearing = 0.2 * a1 in [-0.2, 0.2].
    Out-of-range inputs are clamped, never rejected.
    """
    pairs = np.asarray(a_hi_pairs, dtype=float)
    u = 0.5 + 0.3 * np.clip(pairs[..., 0], -1.0, 1.0)
    v = 0.2 * np.clip(pairs[..., 1], -1.0, 1.0)
    return (u * np.cos(v), u * np.sin(v))


def goal_from_high_action(world: Worlds, a_hi: np.ndarray) -> np.ndarray:
    """World-frame goals (E, A, 2) from high-level actions a_hi (E, 2A):
    agent i's h_map offset of pair i, rotated by the agent yaw and anchored
    at its current position."""
    ox, oy = h_map(np.reshape(a_hi, world.x.shape + (2,)))
    c, s = np.cos(world.yaw), np.sin(world.yaw)
    return np.stack([world.x + c * ox - s * oy, world.y + s * ox + c * oy], axis=-1)


def mask_low_level_obs(world: Worlds, goals: np.ndarray) -> np.ndarray:
    """Low-level observations of every agent, (E, A, 32), with the torso
    pose zeroed out; goals (E, A, 2) are world-frame points.

    Layout: [q (12), qdot (12), zeros (6), goal offset in body frame (2)].
    The six zeros stand for the torso positional/rotational slots, so the
    policy is blind to where in the world it stands.
    """
    obs = np.zeros(world.x.shape + (LOW_LEVEL_OBS_DIM,))
    obs[..., 0:12] = world.q
    obs[..., 12:24] = world.qdot
    obs[..., 30], obs[..., 31] = body_frame(
        np.cos(world.yaw), np.sin(world.yaw),
        goals[..., 0] - world.x, goals[..., 1] - world.y)
    return obs


class MlpPolicy:
    """Diagonal-Gaussian policy: tanh hidden layers, affine mean output,
    learned per-dimension log std.

    The parameters are one float64 vector, theta; weights, biases and
    log_std are views into it, laid out as unflatten lays out any
    parameter-shaped vector.
    """

    def __init__(self, obs_dim: int, act_dim: int, hidden=(32, 32), seed: int = 0):
        self.obs_dim = obs_dim
        self.act_dim = act_dim
        self.layer_dims = dims = [obs_dim, *hidden, act_dim]
        for width in dims:
            check_count(width, 1, "every layer width")
        self.seed = seed
        n_network = sum((fan_in + 1) * width for fan_in, width in zip(dims, dims[1:]))
        self.theta = np.zeros(n_network + act_dim)
        self._view_theta()
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(97,)))
        for w in self.weights:
            w[...] = rng.normal(0.0, 1.0 / math.sqrt(w.shape[1]), w.shape)
        self.weights[-1] *= 0.01  # small initial actions

    def unflatten(self, flat: np.ndarray):
        """Views into a parameter-shaped vector: ([(weight, bias) per
        layer], log_std). The one statement of the layout, which is also
        the checkpoint's: for each layer the weight matrix (row-major) then
        the bias, finally log_std."""
        layers, k = [], 0
        for fan_in, width in zip(self.layer_dims, self.layer_dims[1:]):
            w = flat[k:k + width * fan_in].reshape(width, fan_in)
            k += w.size
            layers.append((w, flat[k:k + width]))
            k += width
        return layers, flat[k:]

    def _view_theta(self) -> None:
        layers, self.log_std = self.unflatten(self.theta)
        self.weights = [w for w, _ in layers]
        self.biases = [b for _, b in layers]

    # -- forward ---------------------------------------------------------

    def mean_batch(self, X: np.ndarray, out=None):
        """Batched mean forward pass; returns (means, activation cache).

        out, if given, holds one (N, width) buffer per layer output (hidden
        layers, then the means), which the pass writes into and returns.
        """
        if out is None:
            out = [np.empty((len(X), d)) for d in self.layer_dims[1:]]
        h = X
        cache = [X]
        for w, b, buf in zip(self.weights[:-1], self.biases[:-1], out):
            h = np.matmul(h, w.T, out=buf)
            h += b
            np.tanh(h, out=h)
            cache.append(h)
        means = np.matmul(h, self.weights[-1].T, out=out[-1])
        means += self.biases[-1]
        return means, cache

    def mean_rows(self, X: np.ndarray) -> np.ndarray:
        """Means of the rows of X, each row computed on its own.

        Every layer is a stack of matrix-vector products, so a row's mean is
        bit-identical whatever rows share the call; the rows of a BLAS
        matrix product (mean_batch) round differently with the row count.
        Rollouts use this; the trainer's maths uses mean_batch.
        """
        h = X[:, :, None]  # a column per row, kept between layers
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            h = np.matmul(w, h)
            h += b[:, None]
            np.tanh(h, out=h)
        out = np.matmul(self.weights[-1], h)
        out += self.biases[-1][:, None]
        return out[:, :, 0]

    # -- parameter vector ------------------------------------------------

    @property
    def n_params(self) -> int:
        return self.theta.size

    def flat_params(self) -> np.ndarray:
        return self.theta.copy()

    def set_flat_params(self, theta: np.ndarray) -> None:
        """Write theta into the parameter vector, which stays the same
        object; a copy (copy()) has a vector of its own."""
        if theta.shape != (self.n_params,):
            raise ConfigurationError("parameter vector has wrong length")
        if not np.all(np.isfinite(theta)):
            raise NumericsError("non-finite policy parameters")
        self.theta[...] = theta

    def copy(self) -> "MlpPolicy":
        """A policy with the same parameters in a vector of its own."""
        out = copy.copy(self)
        out.layer_dims = list(self.layer_dims)
        out.theta = self.theta.copy()
        out._view_theta()
        return out


# -- derivatives ---------------------------------------------------------

class ForwardPass:
    """One forward pass of a policy over a batch X, and the workspace its
    derivatives reuse.

    Holds the means and activation cache, the tanh derivatives 1 - h**2 of
    each hidden layer (dtanh, computed on first read), one (N, width)
    buffer per layer output and one scratch buffer per layer output after
    the first.
    mean_jvp, mean_vjp and a mean_batch given them as ``out`` write into
    those buffers, so a run of products over one batch allocates no array
    of N rows after construction. Each call overwrites what the previous
    one left there.
    """

    def __init__(self, policy: MlpPolicy, X: np.ndarray):
        self.X = X
        self.means, self.cache = policy.mean_batch(X)
        self.buffers = [np.empty((len(X), d)) for d in policy.layer_dims[1:]]
        self.scratch = [np.empty((len(X), d)) for d in policy.layer_dims[2:]]

    @cached_property
    def dtanh(self) -> list:
        # 1 - h**2 written over h**2: the same bits without a temporary
        dtanh = [h * h for h in self.cache[1:]]
        for d in dtanh:
            np.subtract(1.0, d, out=d)
        return dtanh


def mean_vjp(policy: MlpPolicy, G: np.ndarray, fp: ForwardPass) -> np.ndarray:
    """Backprop upstream gradients G (N, act_dim) on the means of the pass
    fp into a new parameter-shaped gradient, written through
    policy.unflatten; its log_std block is left at zero. G may be fp's
    output buffer; the hidden buffers are overwritten."""
    out = np.zeros(policy.n_params)
    grads, _ = policy.unflatten(out)
    up = G
    for l in range(len(policy.weights) - 1, -1, -1):
        gw, gb = grads[l]
        np.matmul(up.T, fp.cache[l], out=gw)
        np.sum(up, axis=0, out=gb)
        if l > 0:
            up = np.matmul(up, policy.weights[l], out=fp.buffers[l - 1])
            up *= fp.dtanh[l - 1]
    return out


def mean_jvp(policy: MlpPolicy, v: np.ndarray, fp: ForwardPass) -> np.ndarray:
    """Forward-mode directional derivative of the means of the pass fp along
    the network slice of the flat tangent v; returns (N, act_dim), which is
    fp's output buffer until the next product over fp."""
    dvs, _ = policy.unflatten(v)
    dh = np.matmul(fp.cache[0], dvs[0][0].T, out=fp.buffers[0])
    dh += dvs[0][1]
    for l in range(1, len(policy.weights)):
        dh *= fp.dtanh[l - 1]
        nxt = np.matmul(fp.cache[l], dvs[l][0].T, out=fp.buffers[l])
        nxt += dvs[l][1]
        nxt += np.matmul(dh, policy.weights[l].T, out=fp.scratch[l - 1])
        dh = nxt
    return dh


def grad_log_prob_sum(policy: MlpPolicy, A: np.ndarray, weights: np.ndarray,
                      fp: ForwardPass) -> np.ndarray:
    """Flat gradient of sum_i weights_i * log pi(A_i | X_i), with X = fp.X
    the states of the policy's forward pass fp."""
    inv_var = np.exp(-2.0 * policy.log_std)
    z = (A - fp.means) * inv_var
    g = mean_vjp(policy, weights[:, None] * z, fp)
    _, g_log_std = policy.unflatten(g)
    g_log_std[:] = weights @ (z * (A - fp.means) - 1.0)
    return g


def gaussian_kl(mu_old: np.ndarray, log_std_old: np.ndarray,
                mu_new: np.ndarray, log_std_new: np.ndarray) -> float:
    """Mean KL(old || new) between diagonal Gaussians over a batch of means."""
    var_old = np.exp(2.0 * log_std_old)
    var_new = np.exp(2.0 * log_std_new)
    per_dim = (log_std_new - log_std_old
               + (var_old + (mu_old - mu_new) ** 2) / (2.0 * var_new) - 0.5)
    return float(per_dim.sum(axis=-1).mean())


# -- hierarchical execution ----------------------------------------------

def hierarchical_episode(env, pi_hi: MlpPolicy, pi_lo: MlpPolicy, rngs,
                         deterministic: bool = False) -> dict:
    """Run the env's E task episodes in lockstep under the two-level policy,
    from the state the env is in; rngs holds one generator per row.

    Every GOAL_HORIZON (c) steps the high level reads the task observation
    (env.obs) and emits a 2n-dim action that becomes one goal per agent;
    when the env randomizes the task (env.config.rand.task), the clamped
    action gets uniform noise and is clamped again. The frozen low level
    then acts for c steps; the world clamps its actions and gives fallen
    agents no motion. The high-level reward for a window is sum_i GAMMA^i
    r_i over the window's task rewards, which the env scores after the
    last step (env.score()). Episodes never end early.

    Each row draws its whole episode's noise up front from its own
    generator, in this order: the high-level sample noise (decisions,
    n_hi); the high-level perturbation (decisions, n_hi), only when
    rand.task holds (highlevel_noise_schedule); the low-level sample noise
    (horizon, n_agents, 12). A fallen agent's noise is drawn and not used, so a row
    draws the same numbers whether its agents fall or not. deterministic
    draws nothing: both levels act on their means, unperturbed.

    Returns the high-level trajectory of every row: per-decision arrays
    obs, act (pre-clamp) and rew, each with leading axes (E, decisions),
    and success (E,), each episode's success from the same scoring pass.
    """
    horizon, c = env.horizon, GOAL_HORIZON
    if horizon % c != 0:
        raise ConfigurationError(f"horizon must be divisible by {c}")
    n_rows, n = len(env.world.x), env.n_agents
    if len(rngs) != n_rows:
        raise ConfigurationError(f"{len(rngs)} generators for {n_rows} rows")
    n_hi, n_lo = pi_hi.act_dim, pi_lo.act_dim
    decisions = horizon // c
    perturb = env.config.rand.task and not deterministic
    if deterministic:
        hi_noise = np.zeros((n_rows, decisions, n_hi))
        lo_noise = np.zeros((n_rows, horizon, n, n_lo))
    else:
        hi_noise, shift, lo_noise = [], [], []
        for rng in rngs:
            hi_noise.append(rng.standard_normal((decisions, n_hi)))
            if perturb:
                shift.append(highlevel_noise_schedule(rng, decisions, n_hi))
            lo_noise.append(rng.standard_normal((horizon, n, n_lo)))
        hi_noise, lo_noise = np.stack(hi_noise), np.stack(lo_noise)
        shift = np.stack(shift) if perturb else None

    # the noise term std * noise of every action: (rows, decisions, n_hi)
    # for the high level, (horizon, rows, n_lo) for the low level
    hi_step = np.exp(pi_hi.log_std) * hi_noise
    lo_step = (np.exp(pi_lo.log_std) * lo_noise).swapaxes(0, 1).reshape(
        horizon, n_rows * n, n_lo)
    hi_obs, hi_act = [], []
    for t in range(horizon):
        k, i = divmod(t, c)
        world = env.world
        if i == 0:
            obs = env.obs
            a_pre = pi_hi.mean_rows(obs) + hi_step[:, k]
            a_hi = np.clip(a_pre, -1.0, 1.0)
            if perturb:
                a_hi = np.clip(a_hi + shift[:, k], -1.0, 1.0)
            goals = goal_from_high_action(world, a_hi)
            hi_obs.append(obs)
            hi_act.append(a_pre)
        lo_obs = mask_low_level_obs(world, goals).reshape(n_rows * n, -1)
        a_lo = pi_lo.mean_rows(lo_obs) + lo_step[t]
        env.step(a_lo.reshape(n_rows, n, N_JOINTS))
    rewards, success = env.score()
    # every window's return at once, in the order a step-by-step sum
    # window_ret + disc * r would take
    windows = rewards.reshape(n_rows, decisions, c)
    hi_rew, disc = 0.0, 1.0
    for i in range(c):
        hi_rew = hi_rew + disc * windows[:, :, i]
        disc *= GAMMA
    return {
        "obs": np.stack(hi_obs, axis=1),
        "act": np.stack(hi_act, axis=1),
        "rew": hi_rew,
        "success": success,
    }


# -- checkpoints ----------------------------------------------------------

def save_checkpoint(policy: MlpPolicy, base_path, meta: dict | None = None) -> None:
    """Write <base>.json (manifest) and <base>.bin (the parameter vector
    theta as little-endian float64, in MlpPolicy.unflatten's layout)."""
    base = Path(base_path)  # suffixes are appended, so dotted names survive
    base.parent.mkdir(parents=True, exist_ok=True)
    theta = policy.theta.astype("<f8")
    manifest = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "kind": "gaussian_mlp",
        "layer_dims": policy.layer_dims,
        "obs_dim": policy.obs_dim,
        "act_dim": policy.act_dim,
        "n_params": int(policy.n_params),
        "seed": policy.seed,
        "weights_file": base.name + ".bin",
        "meta": dict(sorted((meta or {}).items())),
    }
    with open(base.with_name(base.name + ".json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    theta.tofile(base.with_name(manifest["weights_file"]))


def load_checkpoint(base_path) -> MlpPolicy:
    """The policy that save_checkpoint wrote at base_path. A manifest it
    would not write raises ConfigurationError: a key missing (seed defaults
    to 0), weights outside <base>.bin or a layer width < 1."""
    base = Path(base_path)
    with open(base.with_name(base.name + ".json")) as f:
        manifest = json.load(f)
    missing = {"format_version", "layer_dims", "obs_dim", "act_dim", "n_params",
               "weights_file"}.difference(manifest)
    if missing:
        raise ConfigurationError(f"checkpoint manifest lacks {sorted(missing)}")
    if manifest["weights_file"] != base.name + ".bin":
        raise ConfigurationError(f"checkpoint weights must be in {base.name}.bin, "
                                 f"not {manifest['weights_file']!r}")
    if manifest["format_version"] != CHECKPOINT_FORMAT_VERSION:
        raise ConfigurationError(
            f"unsupported checkpoint version {manifest['format_version']}")
    dims = manifest["layer_dims"]
    policy = MlpPolicy(manifest["obs_dim"], manifest["act_dim"],
                       hidden=tuple(dims[1:-1]), seed=manifest.get("seed", 0))
    theta = np.fromfile(base.with_name(manifest["weights_file"]), dtype="<f8")
    if theta.size != manifest["n_params"]:
        raise ConfigurationError("checkpoint weight count mismatch")
    policy.set_flat_params(theta.astype(float))
    return policy

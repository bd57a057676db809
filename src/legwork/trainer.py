"""Natural policy gradient training for low-level, high-level, and flat
policies.

One iteration: collect a batch of episodes, fit the value baseline on
discounted returns, compute GAE advantages (batch-normalized), take the
likelihood-ratio gradient, precondition it with conjugate gradient against
Fisher-vector products, and apply a KL-normalized step
theta' = theta + sqrt(2 delta / d.g) * d. Each phase takes only what it
reads: the advantages pass from compute_advantages to the gradient, and
the Fisher-vector products and the KL read only the forward pass.
The recipe is fixed: returns are discounted by policy.GAMMA (per
decision, GAMMA ** GOAL_HORIZON, for the high level), advantages use
GAE_LAMBDA, and the solve runs at most CG_ITERS conjugate-gradient steps
on Fisher-vector products damped by CG_DAMPING, stopping early at
residual CG_TOL. TrainConfig holds what a run chooses.

Rollout collection steps all episodes of a batch in lockstep, as the rows
of one TaskEnv, into one batch of arrays padded to the horizon. It is
deterministic given (policy, seed): episode i draws from its own
sub-streams keyed by (iteration, i), and every formula on the rollout path
computes each row on its own (row-wise matrix-vector products and
reductions), so the batch width never changes a bit of the result. The
generators of a whole batch are built in one pass (randomization.substreams).
A batch holds only what the update reads: no collection-time log-density,
since the gradient recomputes every one from its forward pass over the
batch states (grad_log_prob_sum).
"""

from __future__ import annotations

import csv
import logging
import math
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, NumericsError, check_count, check_real, check_word
from .policy import (
    GAMMA,
    GOAL_HORIZON,
    ForwardPass,
    MlpPolicy,
    gaussian_kl,
    grad_log_prob_sum,
    hierarchical_episode,
    mean_jvp,
    mean_vjp,
    save_checkpoint,
)
from .randomization import RandomizationConfig, seed_state, substreams
from .tasks import N_AGENTS, TASK_OBS_DIM, TaskEnv, TaskEnvConfig
from .world import N_JOINTS

log = logging.getLogger(__name__)

METRICS_COLUMNS = ("iteration", "mean_return", "std_return", "mean_kl",
                   "success_rate", "wall_time")


@dataclass(frozen=True)
class TrainConfig:
    iterations: int = 1000
    batch_size: int = 20  # trajectories per iteration
    kl_step: float = 0.05
    seed: int = 0
    # Only 1 (collection runs in one process); kept while the npgbench
    # workloads pass workers=1, it goes with the next benchmark change.
    workers: int = 1
    checkpoint_every: int = 0  # 0: final checkpoint only

    def __post_init__(self):
        check_count(self.workers, 1, "workers")
        if self.workers != 1:
            raise ConfigurationError(f"workers must be 1, got {self.workers!r}")
        for name, low in (("iterations", 1), ("batch_size", 1), ("checkpoint_every", 0)):
            check_count(getattr(self, name), low, name)
        check_word(self.seed, 64, "seed")
        check_real(self.kl_step, "kl_step")
        if not 0.0 < self.kl_step < math.inf:
            raise ConfigurationError("kl_step must be positive and finite")


@dataclass
class TrajectoryBatch:
    """E episodes as arrays padded to T steps: row e holds lengths[e] valid
    steps. Construction zeroes every step past a row's length, so a scan
    over T meets zero reward and zero value there, and rejects a
    non-finite action at a valid step. It holds only what collection
    produced and the update reads; the NPG phases pass what they derive to
    each other."""
    obs: np.ndarray  # (E, T, obs_dim)
    act: np.ndarray  # (E, T, act_dim), pre-clamp samples
    rew: np.ndarray  # (E, T)
    lengths: np.ndarray  # (E,)
    success: np.ndarray  # (E,) bool
    mask: np.ndarray = field(init=False, repr=False)  # (E, T) valid steps

    def __post_init__(self):
        self.mask = np.arange(self.rew.shape[1]) < self.lengths[:, None]
        for x in (self.obs, self.act, self.rew):
            x[~self.mask] = 0.0
        if not np.all(np.isfinite(self.act)):
            raise NumericsError("non-finite actions in batch")

    @property
    def trajectories(self) -> np.ndarray:
        """One entry per episode (its length). Read only by the npgbench
        harness, which counts episodes as len(batch.trajectories)."""
        return self.lengths

    @property
    def n_samples(self) -> int:
        return int(self.lengths.sum())

    # The flat views take the valid steps in row-major order: episode by
    # episode, each in time order.
    def flat_obs(self) -> np.ndarray:
        return self.obs[self.mask]

    def flat_act(self) -> np.ndarray:
        return self.act[self.mask]


# -- rollouts ----------------------------------------------------------------

def run_task_episode(policy: MlpPolicy, task_cfg: TaskEnvConfig,
                     env_seeds, rngs) -> TrajectoryBatch:
    """Episodes driven directly at the joint level, one per (env seed, rng)
    row, stepped in lockstep: low-level goal episodes, or a flat policy's
    task episodes. Each row draws one action sample from its rng per step
    it runs; the rewards and success of all steps come from one pass after
    the last (TaskEnv.score)."""
    env = TaskEnv(task_cfg, env_seeds)  # constructed at its reset state
    n_rows, horizon = len(env.seeds), env.horizon
    if len(rngs) != n_rows:
        raise ConfigurationError(f"{len(rngs)} generators for {n_rows} rows")
    obs = np.zeros((n_rows, horizon, env.obs.shape[1]))
    act = np.zeros((n_rows, horizon, policy.act_dim))
    rew = np.zeros((n_rows, horizon))  # scored after the last step
    steps = np.zeros(n_rows, dtype=int)
    # A row's rng serves only its action noise: one draw for the whole
    # horizon gives the same values as one draw per step. A finished row's
    # actions are padding, which the batch zeroes.
    noise = np.stack([rng.standard_normal((horizon, policy.act_dim)) for rng in rngs])
    noise *= np.exp(policy.log_std)
    for t in range(horizon):
        live = ~env.done
        if not live.any():
            break
        obs[:, t] = env.obs
        act[:, t] = policy.mean_rows(env.obs) + noise[:, t]
        env.step(act[:, t].reshape(n_rows, env.n_agents, N_JOINTS))  # the world clamps
        steps[live] += 1
    rew[:, :env.t], success = env.score()
    return TrajectoryBatch(obs, act, rew, steps, success)


def run_hier_task_episode(pi_hi: MlpPolicy, pi_lo: MlpPolicy,
                          task_cfg: TaskEnvConfig, env_seeds, rngs) -> TrajectoryBatch:
    """Task episodes under the hierarchy, one per (env seed, rng) row,
    stepped in lockstep; the high-level view of each."""
    hi = hierarchical_episode(TaskEnv(task_cfg, env_seeds), pi_hi, pi_lo, rngs)
    decisions = np.full(len(hi["rew"]), hi["rew"].shape[1])
    return TrajectoryBatch(hi["obs"], hi["act"], hi["rew"], decisions, hi["success"])


def collect_batch(rollout_fn, n_traj: int, seed: int, seed_key: tuple) -> TrajectoryBatch:
    """Collect n_traj episodes; deterministic given (rollout_fn, seed).

    rollout_fn(env_seeds, rngs) -> TrajectoryBatch runs one episode per row
    in lockstep. Episode i's env seed is the first state word of
    SeedSequence(seed, spawn_key=seed_key + (i,)), and its rng is sub-stream
    (seed, seed_key + (i, 1)). The seed is an integer in [0, 2**64) and
    each seed_key word one in [0, 2**32), and n_traj an integer >= 1.
    """
    check_count(n_traj, 1, "n_traj")
    check_word(seed, 64, "seed")
    for word in seed_key:
        check_word(word, 32, "seed_key word")
    keys = np.empty((n_traj, len(seed_key) + 2), dtype=np.uint32)
    keys[:, :-2], keys[:, -2], keys[:, -1] = seed_key, np.arange(n_traj), 1
    env_seeds = seed_state(seed, keys[:, :-1], 1)[:, 0].tolist()
    return rollout_fn(env_seeds, list(substreams(seed, keys)))


# -- advantages and baseline -------------------------------------------------

def discounted_returns(rew: np.ndarray, gamma: float) -> np.ndarray:
    """Discounted return of every step of (E, T) zero-padded rewards: one
    reverse scan over T, each row running its own recurrence."""
    out = np.zeros_like(rew)
    acc = np.zeros(len(rew))
    for t in range(rew.shape[1] - 1, -1, -1):
        acc = rew[:, t] + gamma * acc
        out[:, t] = acc
    return out


def gae_advantages(rew: np.ndarray, values: np.ndarray, gamma: float,
                   lam: float) -> np.ndarray:
    """Raw (pre-normalization) GAE of (E, T) zero-padded rewards and values:
    the discounted return of the TD residuals with factor gamma * lam. V
    past the episode end is zero."""
    v_next = np.zeros_like(values)
    v_next[:, :-1] = values[:, 1:]
    return discounted_returns(rew + gamma * v_next - values, gamma * lam)


BASELINE_RIDGE = 1e-5  # first ridge; raised tenfold while the solve fails


def fit_baseline(batch: TrajectoryBatch, gamma: float) -> np.ndarray:
    """Fit the value baseline to this batch's discounted returns: ridge-
    regularized least squares on the features obs, obs^2, the powers 1-3
    of t / T and a constant. Returns its values on the batch, (E, T) and
    zero past each row's length."""
    n_rows, horizon, _ = batch.obs.shape
    tau = (np.arange(horizon) / horizon)[:, None]
    time_feats = np.hstack([tau, tau ** 2, tau ** 3, np.ones((horizon, 1))])
    feats = np.concatenate([batch.obs, batch.obs ** 2,
                            np.broadcast_to(time_feats, (n_rows, horizon, 4))], axis=2)
    X = feats[batch.mask]
    y = discounted_returns(batch.rew, gamma)[batch.mask]
    gram = X.T @ X
    rhs = X.T @ y
    eye = np.eye(X.shape[1])
    ridge = BASELINE_RIDGE
    for _ in range(12):
        try:
            coef = np.linalg.solve(gram + ridge * eye, rhs)
        except np.linalg.LinAlgError:
            ridge *= 10.0
            continue
        if np.all(np.isfinite(coef)):
            break
        ridge *= 10.0
    else:
        raise NumericsError("baseline fit failed at maximum ridge")
    values = np.zeros_like(batch.rew)
    # row by row: one product over all rows can round the short rows apart
    for e, n in enumerate(batch.lengths.tolist()):
        values[e, :n] = feats[e, :n] @ coef
    return values


GAE_LAMBDA = 0.97  # GAE's extra discount of the TD residuals


def compute_advantages(batch: TrajectoryBatch, values: np.ndarray,
                       gamma: float) -> np.ndarray:
    """The GAE(gamma, GAE_LAMBDA) advantages of the valid steps from the
    baseline's (E, T) values, normalized to mean 0, std 1: (n_samples,), in
    the order of batch.flat_obs()."""
    flat = gae_advantages(batch.rew, values, gamma, GAE_LAMBDA)[batch.mask]
    return (flat - flat.mean()) / (flat.std() + 1e-8)


# -- NPG machinery -------------------------------------------------------------

def policy_gradient(batch: TrajectoryBatch, policy: MlpPolicy,
                    adv: np.ndarray, fp: ForwardPass) -> np.ndarray:
    """Likelihood-ratio gradient: mean over samples of grad log pi * adv.
    adv is compute_advantages' flat array and fp is the policy's forward
    pass over batch.flat_obs()."""
    g = grad_log_prob_sum(policy, batch.flat_act(), adv / batch.n_samples, fp)
    if not np.all(np.isfinite(g)):
        raise NumericsError("non-finite policy gradient")
    return g


def fisher_vector_product(policy: MlpPolicy, v: np.ndarray, damping: float,
                          fp: ForwardPass) -> np.ndarray:
    """F v + damping v, with F the Hessian of the mean KL between the
    collection-time policy and the current one over the batch states (for a
    Gaussian policy this is the Gauss-Newton form J' diag(1/var) J over the
    network blocks plus a constant 2I block for log_std; v and the result
    are laid out by policy.unflatten).

    fp is the policy's ForwardPass over batch.flat_obs(): the products of a
    CG solve share it, and its buffers hold every (N, width) intermediate,
    so a product allocates only the returned vector, which is new on every
    call."""
    dmu = mean_jvp(policy, v, fp)
    dmu *= np.exp(-2.0 * policy.log_std)
    out = mean_vjp(policy, dmu, fp)
    out /= len(fp.X)
    _, out_log_std = policy.unflatten(out)
    out_log_std[:] = 2.0 * policy.unflatten(v)[1]
    out += damping * v
    if not np.all(np.isfinite(out)):
        raise NumericsError("non-finite Fisher-vector product")
    return out


CG_ITERS = 10  # conjugate-gradient steps of one NPG solve
CG_DAMPING = 1e-4  # multiple of v added to each Fisher-vector product
CG_TOL = 1e-10  # residual norm at which conjugate_gradient stops early


def conjugate_gradient(fvp, g: np.ndarray, iters: int):
    """Approximately solve F d = g; returns (d, residual_norm) for the best
    iterate seen."""
    x = np.zeros_like(g)
    r = g.copy()
    p = g.copy()
    rdotr = float(r @ r)
    best_x = x.copy()
    best_res = math.sqrt(rdotr)
    for _ in range(iters):
        if math.sqrt(rdotr) < CG_TOL:
            break
        z = fvp(p)
        curvature = float(p @ z)
        if not (math.isfinite(curvature) and curvature > 0.0):
            raise NumericsError(f"conjugate gradient met curvature p.Fp = {curvature}")
        alpha = rdotr / curvature
        x = x + alpha * p
        r = r - alpha * z
        new = float(r @ r)
        if math.sqrt(new) < best_res:
            best_res = math.sqrt(new)
            best_x = x.copy()
        p = r + (new / rdotr) * p
        rdotr = new
    return best_x, best_res


LOG_STD_FLOOR = -3.0


def npg_update(policy: MlpPolicy, g: np.ndarray, d: np.ndarray,
               delta: float):
    """theta' = theta + sqrt(2 delta / (d.g)) d, with the new policy's
    log_std floored at LOG_STD_FLOOR; skipped when d.g <= 0 or the step is
    non-finite. Returns (new_policy, info)."""
    dtg = float(d @ g)
    if not math.isfinite(dtg) or dtg <= 0.0:
        log.warning("npg_update skipped: d.g = %s", dtg)
        return policy, {"skipped": True, "step_scale": 0.0}
    scale = math.sqrt(2.0 * delta / dtg)
    new_policy = policy.copy()
    new_policy.theta += scale * d
    if not np.all(np.isfinite(new_policy.theta)):
        log.warning("npg_update skipped: non-finite parameters")
        return policy, {"skipped": True, "step_scale": scale}
    np.maximum(new_policy.log_std, LOG_STD_FLOOR, out=new_policy.log_std)
    return new_policy, {"skipped": False, "step_scale": scale}


def batch_kl(old_policy: MlpPolicy, new_policy: MlpPolicy,
             fp: ForwardPass) -> float:
    """Mean KL(old || new) over all batch states. fp is the old policy's
    forward pass over batch.flat_obs(); the new policy's pass is written
    into its buffers."""
    mu_new, _ = new_policy.mean_batch(fp.X, out=fp.buffers)
    return gaussian_kl(fp.means, old_policy.log_std, mu_new, new_policy.log_std)


# -- training loops --------------------------------------------------------------

class MetricsWriter:
    def __init__(self, path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "w", newline="") as f:
            csv.writer(f).writerow(METRICS_COLUMNS)

    def write(self, **row):
        with open(self.path, "a", newline="") as f:
            csv.writer(f).writerow([row[c] for c in METRICS_COLUMNS])


def train_policy(policy: MlpPolicy, make_rollout_fn, config: TrainConfig,
                 phase: str, gamma: float = GAMMA, out_dir=None,
                 metrics_path=None) -> MlpPolicy:
    """Generic NPG loop: collect, fit baseline, GAE, gradient, CG, update.

    make_rollout_fn(policy) must return a rollout callable,
    rollout_fn(env_seeds, rngs) -> TrajectoryBatch (see collect_batch); the
    batch's arrays fix the horizon. gamma discounts returns and advantages
    per batch step (the high level's steps are decisions, discounted by
    GAMMA ** GOAL_HORIZON). phase names the level in the checkpoints'
    meta. A metrics row is built only when metrics_path names a file to
    write it to.
    """
    writer = MetricsWriter(metrics_path) if metrics_path is not None else None
    out = Path(out_dir) if out_dir is not None else None
    start = time.monotonic()
    for it in range(config.iterations):
        batch = collect_batch(make_rollout_fn(policy), config.batch_size,
                              config.seed, seed_key=(it,))
        adv = compute_advantages(batch, fit_baseline(batch, gamma), gamma)
        fp = ForwardPass(policy, batch.flat_obs())  # shared by every step below
        g = policy_gradient(batch, policy, adv, fp)
        d, _ = conjugate_gradient(
            lambda v: fisher_vector_product(policy, v, CG_DAMPING, fp), g, CG_ITERS)
        new_policy, upd = npg_update(policy, g, d, config.kl_step)
        kl = 0.0 if upd["skipped"] else batch_kl(policy, new_policy, fp)
        del fp  # its buffers are not needed while the next batch is collected
        policy = new_policy
        if writer is not None:
            returns = batch.rew.sum(axis=1)
            writer.write(iteration=it, mean_return=f"{np.mean(returns):.6f}",
                         std_return=f"{np.std(returns):.6f}", mean_kl=f"{kl:.8f}",
                         success_rate=f"{np.mean(batch.success):.4f}",
                         wall_time=f"{time.monotonic() - start:.3f}")
        if out is not None and config.checkpoint_every > 0 \
                and (it + 1) % config.checkpoint_every == 0:
            save_checkpoint(policy, out / f"ckpt_{it + 1:06d}",
                            meta={"phase": phase, "iteration": it + 1})
    if out is not None:
        save_checkpoint(policy, out / "final",
                        meta={"phase": phase, "iteration": config.iterations})
    return policy


def train_low_level(config: TrainConfig, rand: RandomizationConfig,
                    out_dir=None, metrics_path=None) -> MlpPolicy:
    """Goal-reaching pre-training under the configured randomizations."""
    policy = MlpPolicy(TASK_OBS_DIM["low_goal"], N_JOINTS, hidden=(32, 32),
                       seed=config.seed)
    env_cfg = TaskEnvConfig(kind="low_goal", rand=rand)
    fn = lambda pol: partial(run_task_episode, pol, env_cfg)
    return train_policy(policy, fn, config, "low", out_dir=out_dir,
                        metrics_path=metrics_path)


def _not_low_goal(task_kind: str) -> None:
    if task_kind == "low_goal":
        raise ConfigurationError("low_goal is trained by train_low_level")


def _hier_env_cfg(task_kind: str, randomized: bool) -> TaskEnvConfig:
    """The env of high-level training: dynamics nominal, and the high
    level's own randomizations (action noise and, for Coordinate, object
    dimensions) on when randomized."""
    _not_low_goal(task_kind)
    return TaskEnvConfig(kind=task_kind,
                         rand=RandomizationConfig(dynamics=False, task=randomized))


def train_high_level(config: TrainConfig, task_kind: str,
                     low_policy: MlpPolicy, randomized: bool = True,
                     out_dir=None, metrics_path=None) -> MlpPolicy:
    """Goal-proposing training on a frozen low-level policy."""
    env_cfg = _hier_env_cfg(task_kind, randomized)
    policy = MlpPolicy(TASK_OBS_DIM[task_kind], 2 * N_AGENTS[task_kind],
                       hidden=(32, 32), seed=config.seed)
    fn = lambda pol: partial(run_hier_task_episode, pol, low_policy, env_cfg)
    return train_policy(policy, fn, config, "high", gamma=GAMMA ** GOAL_HORIZON,
                        out_dir=out_dir, metrics_path=metrics_path)


def train_flat(config: TrainConfig, task_kind: str, randomized: bool,
               out_dir=None, metrics_path=None) -> MlpPolicy:
    """Non-hierarchical baseline: width-64 policy on raw joint actions over
    the full task horizon. The randomized variant switches both levels'
    randomizations on: the dynamics level brings the torso observation
    noise of a task kind with it (see tasks.TaskEnv)."""
    _not_low_goal(task_kind)
    env_cfg = TaskEnvConfig(kind=task_kind, rand=RandomizationConfig(
        dynamics=randomized, task=randomized))
    policy = MlpPolicy(TASK_OBS_DIM[task_kind], N_JOINTS * N_AGENTS[task_kind],
                       hidden=(64, 64), seed=config.seed)
    fn = lambda pol: partial(run_task_episode, pol, env_cfg)
    return train_policy(policy, fn, config, "flat", out_dir=out_dir,
                        metrics_path=metrics_path)

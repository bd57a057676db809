"""Which functions of which layer the traced run times, and where each one
is looked up by its caller.

Metric names are ``<module>.<function>`` after the module that defines the
function, whatever binding the call goes through. Two names are the
benchmark's own: ``tasks.env_reset`` (environment construction and
``reset``, which construction calls) and ``tasks.env_step`` (``step`` of
either environment class).
"""

from __future__ import annotations

# (metric name, binding owner, attribute). Owner "pkg.mod" is a module
# global; "pkg.mod:Class" is a class attribute. One name may have several
# bindings when callers in different modules look the function up in
# different places.
BINDINGS = (
    ("world.world_step", "legwork.tasks", "world_step"),
    ("world.step_agent", "legwork.world", "step_agent"),
    ("world.resolve_push", "legwork.world", "resolve_push"),
    ("world.sample_terrain", "legwork.world", "sample_terrain"),
    ("randomization.substream", "legwork.tasks", "substream"),
    ("randomization.sample_dynamics", "legwork.tasks", "sample_dynamics"),
    ("randomization.sample_height_field", "legwork.tasks", "sample_height_field"),
    ("randomization.apply_sticky", "legwork.tasks", "apply_sticky"),
    ("randomization.sample_wrench", "legwork.tasks", "sample_wrench"),
    ("randomization.perturb_high_level_action", "legwork.policy",
     "perturb_high_level_action"),
    ("randomization.sample_object_dims", "legwork.tasks", "sample_object_dims"),
    ("tasks.env_reset", "legwork.tasks:LowLevelGoalEnv", "__init__"),
    ("tasks.env_reset", "legwork.tasks:LowLevelGoalEnv", "reset"),
    ("tasks.env_reset", "legwork.tasks:TaskEnv", "__init__"),
    ("tasks.env_reset", "legwork.tasks:TaskEnv", "reset"),
    ("tasks.env_step", "legwork.tasks:LowLevelGoalEnv", "step"),
    ("tasks.env_step", "legwork.tasks:TaskEnv", "step"),
    ("tasks.observe_task", "legwork.tasks", "observe_task"),
    ("tasks.task_reward", "legwork.tasks", "task_reward"),
    ("tasks.low_level_reward", "legwork.tasks", "low_level_reward"),
    ("policy.MlpPolicy.sample", "legwork.policy:MlpPolicy", "sample"),
    ("policy.MlpPolicy.mean_batch", "legwork.policy:MlpPolicy", "mean_batch"),
    ("policy.mean_jvp", "legwork.policy", "mean_jvp"),
    ("policy.mean_jvp", "legwork.trainer", "mean_jvp"),
    ("policy.mean_vjp", "legwork.policy", "mean_vjp"),
    ("policy.mean_vjp", "legwork.trainer", "mean_vjp"),
    ("policy.grad_log_prob_sum", "legwork.trainer", "grad_log_prob_sum"),
    ("policy.mask_low_level_obs", "legwork.policy", "mask_low_level_obs"),
    ("policy.mask_low_level_obs", "legwork.tasks", "mask_low_level_obs"),
    ("policy.goal_from_high_action", "legwork.policy", "goal_from_high_action"),
    ("policy.hierarchical_episode", "legwork.trainer", "hierarchical_episode"),
    ("trainer.collect_batch", "legwork.trainer", "collect_batch"),
    ("trainer.fit_baseline", "legwork.trainer", "fit_baseline"),
    ("trainer.compute_advantages", "legwork.trainer", "compute_advantages"),
    ("trainer.policy_gradient", "legwork.trainer", "policy_gradient"),
    ("trainer.fisher_vector_product", "legwork.trainer", "fisher_vector_product"),
    ("trainer.conjugate_gradient", "legwork.trainer", "conjugate_gradient"),
    ("trainer.npg_update", "legwork.trainer", "npg_update"),
    ("trainer.batch_kl", "legwork.trainer", "batch_kl"),
)

TIMED = tuple(dict.fromkeys(name for name, _, _ in BINDINGS))


class Contacts:
    """Counts the resolve_push calls that moved the block.

    resolve_push(agent, radius, block, dt) returns the block after the push.
    If a later refactor changes that shape, counting stops, ``broken`` is
    set and the call itself is never disturbed.
    """

    def __init__(self):
        self.count = 0
        self.broken = False

    def wrap(self, fn):
        def resolve_push(*args, **kwargs):
            block_after = fn(*args, **kwargs)
            if not self.broken:
                try:
                    block = args[2] if len(args) > 2 else kwargs["block"]
                    self.count += ((block_after.x, block_after.y, block_after.yaw)
                                   != (block.x, block.y, block.yaw))
                except Exception:  # noqa: BLE001 - code under test changed shape
                    self.broken = True
            return block_after
        return resolve_push


# Units of the per-layer metrics that are not <name>.calls or <name>.self_s.
DERIVED = {
    "world.resolve_push.contact_frac": "fraction",
    "trainer.collect_batch.episodes": "count",
    "trainer.collect_batch.samples": "count",
    "trainer.npg_update.skipped": "count",
    "trainer.conjugate_gradient.fvp_calls": "count",
    "trace.wall_s": "s",
    "trace.root_self_s": "s",
    "trace.overhead_frac": "fraction",
}


def install(tracer, patches) -> Contacts:
    """Wrap every binding that exists; absent ones land in patches.absent.
    Returns the contact counter of this installation."""
    for name, owner, attr in BINDINGS:
        patches.wrap(owner, attr, tracer.wrapper(name))
    # Outside the span, so the check is not charged to resolve_push.
    contacts = Contacts()
    patches.wrap("legwork.world", "resolve_push", contacts.wrap)
    return contacts


def per_layer_metrics(rec: dict) -> dict:
    """Per-layer figures of one traced training call, as name -> value.

    rec holds the call's (calls, self seconds) per name under "layers", its
    resolve_push contact count, and the recorder's batch and update counts."""
    out = {}
    for name in TIMED:
        calls, secs = rec["layers"].get(name, (0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = secs
    pushes = out["world.resolve_push.calls"]
    out["world.resolve_push.contact_frac"] = (rec["contacts"] / pushes
                                              if pushes else 0.0)
    out["trainer.collect_batch.episodes"] = rec["episodes"]
    out["trainer.collect_batch.samples"] = rec["samples"]
    out["trainer.npg_update.skipped"] = rec["skipped"]
    out["trainer.conjugate_gradient.fvp_calls"] = rec["fvp_in_cg"]
    return out

"""Golden episodes: fixed seeds and fixed action sequences pin, bit for bit,
each task kind's per-step rewards, the step at which the episode ends, the
final observation and the success flag.

The pinned values were produced by this file's own runner; regenerate them
only for an intended change of behaviour:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib

import numpy as np
import pytest

from legwork.randomization import RandomizationConfig
from legwork.tasks import EnvOverrides, TaskEnv, TaskEnvConfig
from legwork.world import DynamicsParams
from helpers import flat_terrain
from test_world import scripted_trot_action


def make_env(kind, seed, rand, **options):
    """The environment under test, one episode wide; this and run_episode
    are the only parts written against the environment API."""
    return TaskEnv(TaskEnvConfig(kind, rand=rand, **options), [seed])


def run_episode(env, actions):
    """(rewards, steps taken, final observation, success)."""
    for t in range(env.horizon):
        done = env.step(actions[t][None])
        if done[0]:
            break
    rewards, success = env.score()
    rewards = list(rewards[0])
    return rewards, len(rewards), env.obs[0], bool(success[0])


# -- cases -------------------------------------------------------------------

# Hardware-proxy conditions outside the training ranges: rough terrain, a
# heavier agent with a sideways bias, and frequent sticky actions.
_ROUGH = EnvOverrides(
    params=DynamicsParams(joint_damping=1.3, total_mass=2.4,
                          surface_friction=0.7, lateral_bias_force=0.8),
    grid=np.random.default_rng(3).uniform(0.0, 0.25, (32, 32)),
    sticky_prob=0.5)
_MILD = EnvOverrides(params=DynamicsParams(total_mass=2.1),
                     grid=flat_terrain(), sticky_prob=0.3)
# What high-level training uses: dynamics nominal, the high level's own
# randomizations on.
_HIGH_LEVEL = RandomizationConfig(dynamics=False)
_OFF = RandomizationConfig(dynamics=False, task=False)


def _actions(pattern, seed, n_agents, horizon):
    if pattern == "trot":
        return np.array([[scripted_trot_action(t, knee_lead=i)
                          for i in range(n_agents)] for t in range(horizon)])
    rng = np.random.default_rng(seed + 1000)
    if pattern == "random":
        return rng.uniform(-1.0, 1.0, (horizon, n_agents, 12))
    if pattern == "bang":
        return rng.choice([-1.0, 1.0], (horizon, n_agents, 12))
    raise ValueError(pattern)


# name -> (kind, seed, randomization, action pattern, extra config)
CASES = {
    "low_goal/rand/trot": ("low_goal", 0, RandomizationConfig(), "trot", {}),
    "low_goal/rand/random": ("low_goal", 1, RandomizationConfig(), "random", {}),
    "low_goal/rand/bang": ("low_goal", 2, RandomizationConfig(), "bang", {}),
    "low_goal/off/trot": ("low_goal", 3, _OFF, "trot", {}),
    "low_goal/rough/trot": ("low_goal", 4, RandomizationConfig(), "trot",
                            {"overrides": _ROUGH}),
    "low_goal/mild/random": ("low_goal", 5, RandomizationConfig(), "random",
                             {"overrides": _MILD}),
    "avoid/rand/trot": ("avoid", 0, RandomizationConfig(), "trot", {}),
    "avoid/off/random": ("avoid", 1, _OFF, "random", {}),
    "avoid/mild/fixed/trot": ("avoid", 2, RandomizationConfig(), "trot",
                              {"overrides": _MILD, "fixed_init": "-"}),
    "push/rand/random": ("push", 0, RandomizationConfig(), "random", {}),
    "push/off/fixed/trot": ("push", 1, _OFF, "trot",
                            {"fixed_init": "+"}),
    "push/high_level/trot": ("push", 2, _HIGH_LEVEL, "trot", {}),
    "coordinate/rand/noise/trot": ("coordinate", 0, RandomizationConfig(), "trot", {}),
    "coordinate/off/random": ("coordinate", 1, _OFF,
                              "random", {}),
    "coordinate/high_level/bang": ("coordinate", 2, _HIGH_LEVEL, "bang", {}),
}


def _digest(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype="<f8").tobytes()).hexdigest()


def observe(name):
    kind, seed, rand, pattern, options = CASES[name]
    env = make_env(kind, seed, rand, **options)
    n_agents = 2 if kind == "coordinate" else 1
    actions = _actions(pattern, seed, n_agents, env.horizon)
    rewards, steps, obs, ok = run_episode(env, actions)
    return {"steps": steps, "success": ok, "rewards": _digest(rewards),
            "obs": _digest(obs), "return": float(sum(rewards))}


# name -> steps taken, success, sha256 of the rewards and of the final
# observation (little-endian float64), and the undiscounted return for a
# readable diff.
GOLDEN = {
    "avoid/mild/fixed/trot": {
        "steps": 200, "success": False, "return": -556.951840733739,
        "rewards": "2738e2ed478ef6981f1debc7c0747d892ba394fd8d61268ee44ebac37b0d96e1",
        "obs": "b0bdb7541ff2503240004366d558a966b8113a2b1ff9fa736e41470492e2f05d"},
    "avoid/off/random": {
        "steps": 200, "success": False, "return": -242.02682747378893,
        "rewards": "7a474bdedfe4025f4674ef6ae643f395d0a02f04840cdc4ba7dab7ce59f89ff0",
        "obs": "04ae3d8b85e6d253a79dcb3384e42dc6c6d8507f22caa11c7d1e91cb406581d7"},
    "avoid/rand/trot": {
        "steps": 200, "success": False, "return": -1113.232537082719,
        "rewards": "085b2217560b296f675f8da7a0f16947b94934ad06a1a5e8aada7335d3050fe6",
        "obs": "0b6b09fe984e13d87fcb38c9a4bbb8e59e20f7bf6dd2475055b5c7196f1a9204"},
    "coordinate/high_level/bang": {
        "steps": 200, "success": False, "return": -81.83772314682182,
        "rewards": "9e0201cf5021c51d22a994780468a6ddb145428a2113e403dc62aa9b1dc407e4",
        "obs": "68bad2226affb85081d8dfc760d3312eaf756b7a6a55882c67a830f27507a94f"},
    "coordinate/off/random": {
        "steps": 200, "success": False, "return": 380.34081255248043,
        "rewards": "74a7f4795f7bbab7302002162efdb57e39a4c6654de98d16a846fbbdc6b7282b",
        "obs": "197caa52a08e74a34edff29f2f8c89886ce14738fa97c40fe73fd97fb47aea9f"},
    "coordinate/rand/noise/trot": {
        "steps": 200, "success": False, "return": -2362.3500466739633,
        "rewards": "38e76f0534beb15933b3e44c95f1296377bb9aecd85233cfa23ea25cf404b936",
        "obs": "f963bb212b7d725ee1595fb66ca803176703d69c179554aa93861153dfbc0aed"},
    "low_goal/mild/random": {
        "steps": 40, "success": False, "return": -28.041172993961588,
        "rewards": "de6256df4d190570952a93dbec2bf525c4bda0e778c05c821e19c548e7cfc7ab",
        "obs": "78276f921298f4187b7820e334fb6be99c1ea9f4542be387e14dc7e0ba829594"},
    "low_goal/off/trot": {
        "steps": 40, "success": False, "return": 161.16429680595755,
        "rewards": "bd734b11e3b90f06fbf1ccbc5657717abb68522935f1a533165ec16c0942aa58",
        "obs": "d37c76ce577b65485dfc9f29127e2326317b71bc0ffa7b816646f2e0c8eb60f0"},
    "low_goal/rand/bang": {
        "steps": 30, "success": False, "return": -120.57975636039377,
        "rewards": "613b2df275b578d3edd01ad86b7af117d73ef6f3285a3d66d28d567d4735dc91",
        "obs": "effe025d0db748bc0f1bf7f69d5725fc5a9ddc7a90275ac6b0fc636e47a4dfd5"},
    "low_goal/rand/random": {
        "steps": 40, "success": False, "return": -27.55540110691485,
        "rewards": "cf992f1b1f4b712d0b8ef2cc960e2e25ea5822daafc793ca30ddd52ee1a52069",
        "obs": "89bb63c4d8f35ecdf3482a4cc52988e55b3274ba4f208ff3abff0295b42b806e"},
    "low_goal/rand/trot": {
        "steps": 40, "success": True, "return": -135.19861913846958,
        "rewards": "e42c1ca7ead9775862867d5d9c5c2ab5cc1e57e230f2b190ce1ce624fa1aa430",
        "obs": "47dc5cfba77ced4f70c3ce493ec6868789760fa31c16811327da72736c8b1478"},
    "low_goal/rough/trot": {
        "steps": 10, "success": False, "return": -49.43823013136662,
        "rewards": "f58ac3a86e7c094fdac892d5ce115a1da0ffaa91770d8f223c6fc7cda630baaa",
        "obs": "9843c8a70453286b014f6dfb63baeaafa5cb02bae7911f321a270b0f05010fcc"},
    "push/high_level/trot": {
        "steps": 200, "success": False, "return": -490.66393597609783,
        "rewards": "88f4c780468a58b9fc838deaa4b74bbac07049404234554dd24d74d27130135a",
        "obs": "09c7abcb10c13ffe3d4dd69948471231e19eea3808221c0c9191fc9fc8552234"},
    "push/off/fixed/trot": {
        "steps": 200, "success": False, "return": -872.605416206787,
        "rewards": "4448b511718dc1d1fa9b7b51f74708aa8c31c611867c7d81536d1b17107de38c",
        "obs": "ed156dd784ad20c214251c708fbdd2cd66ab9a76c8a191ea46e7dfee3e50cfaa"},
    "push/rand/random": {
        "steps": 200, "success": False, "return": -675.2809743392435,
        "rewards": "94d37d45d196d2ddd4cd0aa052c8093beb82f696e85a85ce69d1962e5ff6fe77",
        "obs": "2edef2081c7836ee6a5a277138eed8005b854bcf75b62b3d895fed5c8e6a87f2"},
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_episode(name):
    assert observe(name) == GOLDEN[name]


def test_cases_cover_every_kind_and_an_early_fall():
    kinds = {kind for kind, *_ in CASES.values()}
    assert kinds == {"low_goal", "avoid", "push", "coordinate"}
    assert any(GOLDEN[n]["steps"] < 40 for n in CASES if n.startswith("low_goal"))
    assert any(g["success"] for g in GOLDEN.values())


if __name__ == "__main__":
    for case in sorted(CASES):
        o = observe(case)
        print(f'    "{case}": {{\n'
              f'        "steps": {o["steps"]}, "success": {o["success"]}, '
              f'"return": {o["return"]!r},\n'
              f'        "rewards": "{o["rewards"]}",\n'
              f'        "obs": "{o["obs"]}"}},')

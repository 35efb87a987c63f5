import dataclasses
import hashlib
import json

import numpy as np
import pytest

from agentauth.adv import sample_population
from agentauth.models import Pdt, PdtAgent, generate_random_pdt, node_count
from agentauth.rl import (
    MODE_EPS_GREEDY,
    MODE_GREEDY,
    MODE_SOFTMAX,
    PolicyAgent,
    ProbeEnv,
    ProbeEnvConfig,
    ProbePolicy,
    UniformAgent,
    _apply_updates,
    act,
    evaluate_policy,
    p_curve,
    steps_to_threshold,
    train_probe,
)
from oracles import FixedUniforms, apply_updates, choice_draw, node_index, softmax_act


def probing_legit():
    """Literal tree over 3 actions: nodes reached via server action 1 are
    deterministic, the rest uniform.  Probing action 1 is unambiguously best."""
    n, k = 3, 5
    count = node_count(n, k)
    nodes = np.full((count, n), 1.0 / n)
    # mark nodes whose path ends in action 1
    start, width = 0, 1
    for depth in range(k):
        next_start = start + width
        for pos in range(width * n):
            if pos % n == 0:  # branch taken was action 1
                nodes[next_start + pos] = [1.0, 0.0, 0.0]
        start, width = next_start, width * n
    return Pdt(n, k, nodes)


class TestEnv:
    def _cfg(self, l=20):
        rng = np.random.default_rng(0)
        legit = generate_random_pdt(3, 5, 0.5, rng)
        pop = sample_population(3, 5, 0.5, 5, seed=1)
        return ProbeEnvConfig(legit=legit, population=pop, episode_length=l)

    def test_reset_state_is_root(self):
        env = ProbeEnv(self._cfg(), np.random.default_rng(2))
        assert env.reset() == 0

    def test_episode_yields_l_rewards(self):
        cfg = self._cfg(l=13)
        env = ProbeEnv(cfg, np.random.default_rng(3))
        env.reset()
        rewards = []
        done = False
        rng = np.random.default_rng(4)
        while not done:
            _, r, done = env.step(int(rng.integers(1, 4)))
            rewards.append(r)
        assert len(rewards) == 13
        assert all(0.0 <= r <= 1.0 for r in rewards)

    def test_step_after_done_raises(self):
        env = ProbeEnv(self._cfg(l=1), np.random.default_rng(5))
        env.reset()
        env.step(1)
        with pytest.raises(RuntimeError):
            env.step(1)

    def test_state_matches_independent_traversal(self):
        cfg = self._cfg(l=12)
        env = ProbeEnv(cfg, np.random.default_rng(6))
        env.reset()
        rng = np.random.default_rng(7)
        taken = []
        done = False
        while not done:
            a = int(rng.integers(1, 4))
            state, _, done = env.step(a)
            taken.append(a)
            assert state == node_index(3, 5, taken[-5:])

    def test_reward_zero_when_p_is_one(self):
        # deterministic legit model: z always equals the null mean, p = 1
        legit = Pdt(3, 5, np.tile([1.0, 0.0, 0.0], (node_count(3, 5), 1)))
        cfg = ProbeEnvConfig(
            legit=legit, population=[PdtAgent(legit)], episode_length=3
        )
        env = ProbeEnv(cfg, np.random.default_rng(8))
        env.reset()
        _, r, _ = env.step(1)
        assert r == 0.0

    def test_config_memo_filled_lazily_and_shared_by_episodes(self):
        cfg = self._cfg(l=13)
        assert cfg._memo == {}  # no node is scored before a step needs it
        memo = cfg._memo
        for seed in (10, 11):
            env = ProbeEnv(cfg, np.random.default_rng(seed))
            env.reset()
            done = False
            while not done:
                _, _, done = env.step(1 + seed % 3)
            assert cfg._memo is memo and 0 < len(memo) <= 13
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.legit = generate_random_pdt(3, 5, 0.5, np.random.default_rng(12))

    def test_reset_samples_population_uniformly(self):
        cfg = self._cfg()
        env = ProbeEnv(cfg, np.random.default_rng(9))
        counts = np.zeros(len(cfg.population))
        for _ in range(1000):
            env.reset()
            counts[cfg.population.index(env._client)] += 1
        assert np.all(np.abs(counts / 1000 - 0.2) < 0.06)


class TestAct:
    def _policy(self):
        policy = ProbePolicy.zeros(10, 3, epsilon=0.25)
        policy.preferences[4] = [0.1, 0.9, 0.3]
        return policy

    def test_full_exploration_uniform(self):
        policy = self._policy()
        policy.epsilon = 1.0
        rng = np.random.default_rng(10)
        counts = np.zeros(3)
        for _ in range(6000):
            counts[act(policy, 4, MODE_EPS_GREEDY, rng) - 1] += 1
        assert np.all(np.abs(counts / 6000 - 1 / 3) < 0.03)

    def test_zero_epsilon_deterministic(self):
        policy = self._policy()
        policy.epsilon = 0.0
        rng = np.random.default_rng(11)
        assert all(act(policy, 4, MODE_EPS_GREEDY, rng) == 2 for _ in range(50))

    def test_greedy_tie_breaks_low_index(self):
        policy = ProbePolicy.zeros(3, 4)
        assert act(policy, 0, MODE_GREEDY, np.random.default_rng(12)) == 1

    def test_off_greedy_frequency(self):
        policy = self._policy()
        rng = np.random.default_rng(13)
        off = sum(
            act(policy, 4, MODE_EPS_GREEDY, rng) != 2 for _ in range(10_000)
        )
        expected = 0.25 * 2 / 3
        assert abs(off / 10_000 - expected) < 0.02

    def test_softmax_samples_distribution(self):
        policy = self._policy()
        rng = np.random.default_rng(14)
        counts = np.zeros(3)
        for _ in range(10_000):
            counts[act(policy, 4, MODE_SOFTMAX, rng) - 1] += 1
        assert np.all(np.abs(counts / 10_000 - policy.distribution(4)) < 0.02)

    def test_softmax_draws_equal_rng_choice(self):
        policy = ProbePolicy.zeros(20, 4)
        policy.preferences[:] = np.random.default_rng(16).normal(0.0, 3.0, (20, 4))
        policy.preferences[7] = [-800.0, 0.0, 0.0, -800.0]  # exact zeros in p
        a, b = np.random.default_rng(17), np.random.default_rng(17)
        got = [act(policy, i % 20, MODE_SOFTMAX, a) for i in range(10_000)]
        assert got == [softmax_act(policy, i % 20, b) for i in range(10_000)]
        assert a.bit_generator.state == b.bit_generator.state
        c = np.random.default_rng(17)
        assert got == [choice_draw(policy.distribution(i % 20), c.random()) + 1 for i in range(10_000)]

    def test_softmax_boundaries_scale_by_the_last_sum(self):
        # Rows whose sums end an ulp off 1: u at, and one ulp either side of,
        # each sum and each sum over the last draws choice_draw's action.
        policy = ProbePolicy.zeros(20, 4)
        policy.preferences[:] = np.random.default_rng(16).normal(0.0, 3.0, (20, 4))
        off = [s for s in range(20) if np.cumsum(policy.distribution(s))[-1] != 1.0]
        assert off
        for s in off:
            p = policy.distribution(s)
            cdf = np.cumsum(p)
            edges = np.concatenate([cdf, cdf / cdf[-1]])
            us = {float(u) for e in edges for u in (np.nextafter(e, -1), e, np.nextafter(e, 2))}
            for u in sorted(u for u in us if 0.0 <= u < 1.0):
                assert act(policy, s, MODE_SOFTMAX, FixedUniforms([u])) == choice_draw(p, u) + 1

    def test_softmax_nan_preferences_raise(self):
        policy = self._policy()
        policy.preferences[4] = np.nan
        with pytest.raises(ValueError):
            softmax_act(policy, 4, np.random.default_rng(18))
        with pytest.raises(ValueError):
            act(policy, 4, MODE_SOFTMAX, np.random.default_rng(18))


# Hand-made rollouts of (state, action, reward, done, next_state) entries over
# six states of three actions.
ROLLOUTS = {
    "one state visited 3 times": [
        (0, 1, 0.3, False, 2), (2, 3, 0.5, False, 0), (0, 2, 0.1, False, 1),
        (1, 1, 0.9, False, 0), (0, 3, 0.7, False, 4),
    ],
    "done in mid-buffer": [
        (0, 1, 0.2, False, 1), (1, 2, 0.4, True, 4), (0, 3, 0.6, False, 2),
        (2, 1, 0.8, False, 5),
    ],
    "last entry done": [
        (3, 2, 0.1, False, 4), (4, 1, 0.5, False, 3), (3, 3, 0.9, True, 5),
    ],
    "last entry not done": [
        (3, 2, 0.1, False, 4), (4, 1, 0.5, False, 3), (3, 3, 0.9, False, 5),
    ],
    "one entry": [(5, 2, 0.7, False, 1)],
    "one state throughout": [
        (2, 1, 0.1, False, 2), (2, 3, 0.2, False, 2), (2, 2, 0.3, False, 2),
        (2, 1, 0.4, False, 2),
    ],
}


class TestRolloutUpdate:
    """_apply_updates leaves the preferences and values byte for byte where
    the reference, one entry after another, leaves them."""

    @staticmethod
    def _policies(num_states, n, seed):
        rng = np.random.default_rng(seed)
        policy = ProbePolicy(
            preferences=rng.normal(0.0, 2.0, (num_states, n)),
            values=rng.normal(0.0, 1.0, num_states),
        )
        reference = ProbePolicy(policy.preferences.copy(), policy.values.copy())
        return policy, reference

    @staticmethod
    def _assert_same_update(policy, reference, buffer, rates):
        _apply_updates(policy, buffer, *rates)
        apply_updates(reference, buffer, *rates)
        assert policy.preferences.tobytes() == reference.preferences.tobytes()
        assert policy.values.tobytes() == reference.values.tobytes()

    @pytest.mark.parametrize("name", list(ROLLOUTS))
    def test_hand_made_rollout_equals_reference(self, name):
        policy, reference = self._policies(6, 3, seed=40)
        self._assert_same_update(policy, reference, ROLLOUTS[name], (0.5, 0.3, 0.2))

    @pytest.mark.parametrize("n", [3, 10])
    def test_random_rollouts_equal_reference(self, n):
        # 30-entry rollouts over few states, so most states recur, applied
        # in turn to one policy as train_probe applies them.
        rng = np.random.default_rng(41 + n)
        policy, reference = self._policies(8, n, seed=42)
        for _ in range(50):
            buffer = [
                (int(rng.integers(8)), int(rng.integers(1, n + 1)), float(rng.random()),
                 bool(rng.random() < 0.1), int(rng.integers(8)))
                for _ in range(30)
            ]
            self._assert_same_update(policy, reference, buffer, (0.1, 0.1, 0.01))


class TestTraining:
    def test_zero_learning_rates_no_op(self):
        rng = np.random.default_rng(15)
        legit = generate_random_pdt(3, 5, 0.5, rng)
        cfg = ProbeEnvConfig(
            legit=legit,
            population=sample_population(3, 5, 0.5, 3, seed=16),
            episode_length=10,
        )
        result = train_probe(
            cfg, rng, total_steps=500, lr_policy=0.0, lr_value=0.0, entropy_bonus=0.0
        )
        assert np.all(result.policy.preferences == 0.0)
        assert np.all(result.policy.values == 0.0)

    def test_bandit_sanity_prefers_probing_action(self):
        # two-step episodes: only the root action matters.  Playing 1 steers
        # the next prediction onto a deterministic node the uniform client
        # violates two thirds of the time (expected return 2/3), any other
        # root action keeps the prediction uniform (return 0).
        legit = probing_legit()
        cfg = ProbeEnvConfig(
            legit=legit,
            population=[UniformAgent(3)],
            episode_length=2,
        )
        rng = np.random.default_rng(17)
        result = train_probe(cfg, rng, total_steps=30_000)
        assert result.policy.distribution(0)[0] > 0.9

    def test_trained_beats_uniform_return(self):
        rng = np.random.default_rng(18)
        legit = generate_random_pdt(3, 5, 0.5, rng)
        pop = sample_population(3, 5, 0.5, 20, seed=19)
        cfg = ProbeEnvConfig(legit=legit, population=pop, episode_length=50)
        result = train_probe(cfg, rng, total_steps=50_000)

        def mean_return(policy_fn, episodes=40):
            env = ProbeEnv(cfg, np.random.default_rng(20))
            totals = []
            arng = np.random.default_rng(21)
            for _ in range(episodes):
                s = env.reset()
                total, done = 0.0, False
                while not done:
                    s, r, done = env.step(policy_fn(s, arng))
                    total += r
                totals.append(total)
            return np.mean(totals)

        trained = mean_return(
            lambda s, r: act(result.policy, s, MODE_EPS_GREEDY, r)
        )
        uniform = mean_return(lambda s, r: int(r.integers(1, 4)))
        assert trained >= uniform

    def test_value_table_converges_on_fixed_setup(self):
        # deterministic policy (huge preference gap) + deterministic client:
        # V stops moving
        legit = probing_legit()

        class FixedClient:
            def next_action(self, opponent_history, rng):
                return 1 + len(opponent_history) % 3

        cfg = ProbeEnvConfig(
            legit=legit, population=[FixedClient()], episode_length=10
        )
        policy = ProbePolicy.zeros(legit.num_nodes, 3)
        policy.preferences[:, 0] = 50.0
        rng = np.random.default_rng(22)
        res1 = train_probe(
            cfg, rng, total_steps=5000, lr_policy=0.0, entropy_bonus=0.0,
            initial_policy=policy,
        )
        before = res1.policy.values.copy()
        res2 = train_probe(
            cfg, rng, total_steps=500, lr_policy=0.0, entropy_bonus=0.0,
            initial_policy=res1.policy,
        )
        assert np.max(np.abs(res2.policy.values - before)) < 1e-3

    def test_two_calls_on_one_config_keep_their_digest(self):
        """Preferences, values, logs and the generator's end state of a run at
        the probe dimensions continued over two calls on one config, as the
        benchmark runs it, hashed into one digest taken while every step
        rescored its node."""
        rng = np.random.default_rng(30)
        legit = generate_random_pdt(3, 5, 0.5, rng)
        pop = sample_population(3, 5, 0.5, 20, seed=31)
        cfg = ProbeEnvConfig(legit=legit, population=pop, episode_length=100)
        digest = hashlib.sha256()
        policy = None
        for _ in range(2):
            result = train_probe(
                cfg, rng, total_steps=3000, log_every=1000, initial_policy=policy
            )
            policy = result.policy
            digest.update(np.asarray(result.log, dtype="<f8").tobytes())
        digest.update(policy.preferences.astype("<f8").tobytes())
        digest.update(policy.values.astype("<f8").tobytes())
        digest.update(json.dumps(rng.bit_generator.state, sort_keys=True).encode())
        assert digest.hexdigest() == "d7c30df6dbb0a9135b1f7862ac1613b5ae5ecb560d0c8a38a8110a9bde7d8f02"

    @pytest.mark.parametrize(
        "option, value",
        [("rollout", 0), ("rollout", -3), ("log_every", 0),
         ("epsilon", -0.1), ("epsilon", 2.0), ("epsilon", float("nan"))],
    )
    def test_bad_option_refused(self, option, value):
        rng = np.random.default_rng(32)
        legit = generate_random_pdt(3, 2, 0.5, rng)
        cfg = ProbeEnvConfig(
            legit=legit, population=sample_population(3, 2, 0.5, 2, seed=33),
            episode_length=5,
        )
        with pytest.raises(ValueError, match=option):
            train_probe(cfg, rng, total_steps=10, **{option: value})

    def test_table_dimensions(self):
        rng = np.random.default_rng(23)
        legit = generate_random_pdt(3, 5, 0.5, rng)
        policy = ProbePolicy.zeros(legit.num_nodes, legit.n_actions)
        assert policy.preferences.shape == (364, 3)
        assert policy.values.shape == (364,)


class TestEvaluation:
    def test_p_curve_shape_and_range(self):
        rng = np.random.default_rng(24)
        legit = generate_random_pdt(3, 5, 0.5, rng)
        adv = sample_population(3, 5, 0.5, 1, seed=25)[0]
        curve = p_curve(UniformAgent(3), adv, legit, 30, rng)
        assert curve.shape == (30,)
        assert np.all((curve > 0) & (curve <= 1))

    def test_legit_client_keeps_p_high(self):
        rng = np.random.default_rng(26)
        legit = generate_random_pdt(3, 5, 0.5, rng)
        res = evaluate_policy(
            lambda: UniformAgent(3), [PdtAgent(legit)] * 40, legit, 50, rng
        )
        # under the null p is uniform: mean around 0.5 at every step
        assert res.mean_p[-1] > 0.25

    def test_steps_to_threshold(self):
        assert steps_to_threshold(np.array([0.9, 0.3, 0.1, 0.05]), 0.2) == 3
        assert steps_to_threshold(np.array([0.9, 0.8]), 0.2) is None

    def test_policy_agent_tracks_own_actions(self):
        rng = np.random.default_rng(27)
        legit = generate_random_pdt(3, 5, 0.5, rng)
        policy = ProbePolicy.zeros(legit.num_nodes, 3)
        agent = PolicyAgent(policy, legit, MODE_EPS_GREEDY)
        taken = []
        for _ in range(8):
            assert agent.node == node_index(3, 5, taken[-5:])
            taken.append(agent.next_action((), rng))
        assert all(1 <= a <= 3 for a in taken)
        assert agent.node == node_index(3, 5, taken[-5:])

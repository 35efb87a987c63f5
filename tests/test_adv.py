import numpy as np
import pytest

from agentauth.adv import (
    ReplayAgent,
    ReplayExhausted,
    make_mle_adversary,
    make_random_adversary,
    make_replay_adversary,
    sample_population,
)
from agentauth.engine import run_interaction
from agentauth.models import PdtAgent, generate_random_pdt


class TestReplay:
    def test_pure_function_of_step(self):
        agent = ReplayAgent([2, 1, 3])
        rng = np.random.default_rng(0)
        assert agent.next_action((), rng) == 2
        assert agent.next_action((1,), rng) == 1
        assert agent.next_action((3, 3), rng) == 3
        # same step, different opponent history: same action
        assert agent.next_action((2, 1), rng) == 3

    def test_exhausted_recording(self):
        agent = ReplayAgent([1])
        with pytest.raises(ReplayExhausted):
            agent.next_action((1,), np.random.default_rng(0))

    def test_double_replay_reproduces_transcript(self):
        rng = np.random.default_rng(1)
        s = generate_random_pdt(3, 2, 1.0, rng)
        u = generate_random_pdt(3, 2, 0.3, rng)
        recorded = run_interaction(PdtAgent(s), PdtAgent(u), 15, rng, rng)
        replayed = run_interaction(
            ReplayAgent(recorded.server_actions()),
            make_replay_adversary(recorded),
            15,
            rng,
            rng,
            n_actions=3,
        )
        assert replayed.steps == recorded.steps


class TestRandomAdversary:
    def test_same_shape_different_logits(self):
        rng = np.random.default_rng(2)
        legit = generate_random_pdt(10, 5, 0.1, rng)
        state = rng.bit_generator.state
        adv = make_random_adversary(10, 5, 0.1, rng)
        rng.bit_generator.state = state
        # a fresh tree of the legitimate shape and temperature
        assert adv.pdt.probs.tobytes() == generate_random_pdt(10, 5, 0.1, rng).probs.tobytes()
        assert not np.array_equal(adv.pdt.probs, legit.probs)

    def test_distinct_seeds_differ(self):
        a = make_random_adversary(3, 2, 0.5, np.random.default_rng(3))
        b = make_random_adversary(3, 2, 0.5, np.random.default_rng(4))
        assert not np.array_equal(a.pdt.probs, b.pdt.probs)

    def test_positive_tv_distance_from_legit(self):
        rng = np.random.default_rng(5)
        legit = generate_random_pdt(3, 2, 0.5, rng)
        adv = make_random_adversary(3, 2, 0.5, rng)
        tvs = [
            0.5 * np.abs(adv.pdt.probs[i] - legit.probs[i]).sum()
            for i in range(legit.num_nodes)
        ]
        assert np.mean(tvs) > 0


class TestMleAdversary:
    def test_consistency_with_dense_observation(self):
        # tiny tree observed ~1e5 steps: every node visited heavily
        rng = np.random.default_rng(6)
        legit = generate_random_pdt(2, 1, 0.2, rng)
        server = generate_random_pdt(2, 1, 1.0, rng)
        observed = [
            run_interaction(PdtAgent(server), PdtAgent(legit), 999, rng, rng)
            for _ in range(100)
        ]
        adv = make_mle_adversary(observed, 2, 1)
        for node in range(legit.num_nodes):
            tv = 0.5 * np.abs(adv.pdt.probs[node] - legit.probs[node]).sum()
            assert tv <= 0.05

    def test_sparse_observation_mostly_uniform(self):
        # 100 transcripts of l=200 cannot populate 10^5 leaves
        rng = np.random.default_rng(7)
        legit = generate_random_pdt(10, 5, 0.1, rng)
        server = generate_random_pdt(10, 5, 1.0, rng)
        observed = [
            run_interaction(PdtAgent(server), PdtAgent(legit), 200, rng, rng)
            for _ in range(100)
        ]
        adv = make_mle_adversary(observed, 10, 5)
        uniform = np.full(10, 0.1)
        frac_uniform = np.mean(
            [np.array_equal(adv.pdt.probs[i], uniform) for i in range(adv.pdt.num_nodes)]
        )
        assert frac_uniform > 0.5


class TestPopulation:
    def test_count(self):
        pop = sample_population(3, 2, 0.5, 100, seed=8)
        assert len(pop) == 100

    def test_disjoint_seed_ranges(self):
        train = sample_population(3, 2, 0.5, 10, seed=9)
        evaluation = sample_population(3, 2, 0.5, 10, seed=10)
        for a in train:
            for b in evaluation:
                assert not np.array_equal(a.pdt.probs, b.pdt.probs)

    def test_pairwise_root_diversity(self):
        pop = sample_population(3, 5, 0.5, 30, seed=11)
        tvs = []
        for i in range(len(pop)):
            for j in range(i + 1, len(pop)):
                tvs.append(
                    0.5
                    * np.abs(pop[i].pdt.probs[0] - pop[j].pdt.probs[0]).sum()
                )
        assert np.mean(tvs) > 0.05

    def test_count_validated(self):
        with pytest.raises(ValueError):
            sample_population(3, 2, 0.5, 0, seed=12)

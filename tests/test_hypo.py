import itertools

import numpy as np
import pytest

from agentauth.engine import InteractionHistory, run_interaction
from agentauth.hypo import (
    RunningPValue,
    action_scores,
    hypothesis_test,
    null_summary,
    p_value,
)
from agentauth.hypo import test_statistic as statistic
from agentauth.models import Pdt, PdtAgent, generate_random_pdt, node_count
from agentauth.adv import make_random_adversary
from oracles import incremental_p, step_score


def literal_pdt(n, depth, row):
    nodes = np.tile(np.asarray(row, dtype=float), (node_count(n, depth), 1))
    return Pdt(n, depth, 1.0, nodes, node_kind="literal")


def brute_force_p(server_actions, model):
    """Exact p for every outcome by enumerating all client action sequences."""
    steps = len(server_actions)
    qs = [model.action_distribution(server_actions[:t]) for t in range(steps)]
    scores = [action_scores(q) for q in qs]
    outcomes = []
    for seq in itertools.product(range(model.n_actions), repeat=steps):
        prob = float(np.prod([qs[t][a] for t, a in enumerate(seq)]))
        z = float(np.mean([scores[t][a] for t, a in enumerate(seq)]))
        outcomes.append((seq, prob, z))
    mean = sum(p * z for _, p, z in outcomes)
    exact = {}
    for seq, _, z in outcomes:
        d = abs(z - mean)
        exact[seq] = sum(p2 for _, p2, z2 in outcomes if abs(z2 - mean) >= d - 1e-12)
    return exact


class TestStepScore:
    def test_enumerated_masses(self):
        assert step_score(2, [0.2, 0.5, 0.3]) == pytest.approx(0.75)
        assert step_score(3, [0.2, 0.5, 0.3]) == pytest.approx(0.40)

    @pytest.mark.parametrize("n", [2, 3, 10])
    def test_uniform_symmetry(self, n):
        q = [1.0 / n] * n
        for a in range(1, n + 1):
            assert step_score(a, q) == pytest.approx(0.5 * (1.0 / n + 1.0))

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            q = rng.dirichlet(np.ones(5))
            for a in range(1, 6):
                assert 0.0 <= step_score(a, q) <= 1.0

    def test_out_of_range_observed(self):
        with pytest.raises(ValueError):
            step_score(4, [0.2, 0.5, 0.3])

    def test_invalid_distribution(self):
        with pytest.raises(ValueError):
            step_score(1, [0.2, 0.2, 0.2])


class TestTestStatistic:
    def test_single_term_average(self):
        model = literal_pdt(3, 1, [0.2, 0.5, 0.3])
        h = InteractionHistory(steps=[(1, 2)], n_actions=3)
        assert statistic(h, model) == pytest.approx(step_score(2, [0.2, 0.5, 0.3]))

    def test_degenerate_all_match(self):
        model = literal_pdt(3, 1, [0.0, 1.0, 0.0])
        h = InteractionHistory(steps=[(1, 2), (3, 2), (2, 2)], n_actions=3)
        assert statistic(h, model) == pytest.approx(1.0)

    def test_small_fixed_instance(self):
        model = literal_pdt(3, 1, [0.2, 0.5, 0.3])
        h = InteractionHistory(steps=[(1, 1), (2, 2), (3, 3)], n_actions=3)
        expected = np.mean(
            [step_score(a, [0.2, 0.5, 0.3]) for a in (1, 2, 3)]
        )
        assert statistic(h, model) == pytest.approx(expected)

    def test_range(self):
        rng = np.random.default_rng(1)
        model = generate_random_pdt(3, 2, 0.5, rng)
        s = generate_random_pdt(3, 2, 1.0, rng)
        h = run_interaction(PdtAgent(s), PdtAgent(model), 30, rng, rng)
        assert 0.0 <= statistic(h, model) <= 1.0


class TestNullSummary:
    def test_degenerate_no_randomness(self):
        model = literal_pdt(3, 1, [0.0, 1.0, 0.0])
        ns = null_summary([1, 2, 3], model, 50, np.random.default_rng(2))
        assert ns.variance == pytest.approx(0.0)
        assert np.all(ns.mc_samples == ns.mc_samples[0])

    def test_mc_mean_matches_analytic(self):
        rng = np.random.default_rng(3)
        model = generate_random_pdt(3, 2, 0.5, rng)
        server_actions = list(rng.integers(1, 4, size=40))
        M = 4000
        ns = null_summary(server_actions, model, M, rng)
        tol = 3 * np.sqrt(ns.variance / M)
        assert abs(ns.mc_samples.mean() - ns.mean) <= tol

    def test_two_outcome_brute_force(self):
        model = literal_pdt(2, 1, [0.9, 0.1])
        ns = null_summary([1], model, 10, np.random.default_rng(4))
        scores = action_scores(np.array([0.9, 0.1]))
        expected_mean = 0.9 * scores[0] + 0.1 * scores[1]
        assert ns.mean == pytest.approx(expected_mean)
        # likelihood half alone contributes 0.9*0.9 + 0.1*0.1 = 0.82
        assert 0.9 * 0.9 + 0.1 * 0.1 == pytest.approx(0.82)


class TestPValue:
    def test_zero_extremity_gives_one(self):
        model = literal_pdt(3, 1, [0.0, 1.0, 0.0])
        h = InteractionHistory(steps=[(1, 2), (2, 2)], n_actions=3)
        # variance 0 and z == mean: every null sample ties
        assert p_value(h, model, 100, np.random.default_rng(5)) == 1.0

    def test_null_uniformity(self):
        rng = np.random.default_rng(6)
        model = generate_random_pdt(3, 2, 0.3, rng)
        server = generate_random_pdt(3, 2, 1.0, rng)
        ps = []
        for _ in range(300):
            h = run_interaction(PdtAgent(server), PdtAgent(model), 30, rng, rng)
            ps.append(p_value(h, model, 400, rng))
        ps = np.sort(ps)
        ecdf = np.arange(1, len(ps) + 1) / len(ps)
        assert np.max(np.abs(ecdf - ps)) < 0.08

    def test_exact_enumeration_l0_l1(self):
        rng = np.random.default_rng(7)
        model = generate_random_pdt(2, 1, 0.5, rng)
        M = 2000
        for server_actions in ([1], [2, 1]):
            exact = brute_force_p(server_actions, model)
            for seq, p_exact in exact.items():
                steps = [(s, a + 1) for s, a in zip(server_actions, seq)]
                h = InteractionHistory(steps=steps, n_actions=2)
                p_mc = p_value(h, model, M, np.random.default_rng(8))
                assert abs(p_mc - p_exact) <= 2 / np.sqrt(M)

    def test_monotone_in_extremity(self):
        ns = null_summary(
            [1, 2, 3],
            generate_random_pdt(3, 2, 0.5, np.random.default_rng(9)),
            500,
            np.random.default_rng(10),
        )
        deviations = np.abs(ns.mc_samples - ns.mean)
        ds = np.linspace(0, deviations.max() * 1.1, 25)
        ps = [(1 + np.count_nonzero(deviations >= d)) / 501 for d in ds]
        assert all(a >= b for a, b in zip(ps, ps[1:]))


class TestHypothesisTest:
    def test_threshold_readoff(self):
        rng = np.random.default_rng(11)
        model = generate_random_pdt(3, 2, 0.3, rng)
        server = generate_random_pdt(3, 2, 1.0, rng)
        h = run_interaction(PdtAgent(server), PdtAgent(model), 20, rng, rng)
        p = p_value(h, model, 200, np.random.default_rng(12))
        verdict = hypothesis_test(h, model, 0.1, 200, np.random.default_rng(12))
        assert verdict.score == pytest.approx(p)
        assert verdict.accept == (p >= 0.1)

    def test_alpha_validated(self):
        model = literal_pdt(2, 1, [0.5, 0.5])
        h = InteractionHistory(steps=[(1, 1)], n_actions=2)
        with pytest.raises(ValueError):
            hypothesis_test(h, model, alpha=0.0)

    def test_false_negative_rate(self):
        rng = np.random.default_rng(13)
        model = generate_random_pdt(3, 2, 0.3, rng)
        server = generate_random_pdt(3, 2, 1.0, rng)
        accepts = 0
        trials = 500
        for _ in range(trials):
            h = run_interaction(PdtAgent(server), PdtAgent(model), 20, rng, rng)
            accepts += hypothesis_test(h, model, 0.1, 300, rng).accept
        assert abs(accepts / trials - 0.9) < 0.05


class TestIncrementalP:
    def test_zero_deviation_gives_one(self):
        model = literal_pdt(3, 1, [0.0, 1.0, 0.0])
        h = InteractionHistory(steps=[(1, 2), (2, 2)], n_actions=3)
        assert incremental_p(h, model) == 1.0

    def test_three_sigma_tail(self):
        # z three standard errors out: two-sided normal tail ~ 0.0027
        from agentauth.hypo import _normal_two_sided

        assert _normal_two_sided(3.0, 0.0, 1.0) == pytest.approx(0.0027, abs=2e-4)

    def test_agrees_with_monte_carlo(self):
        rng = np.random.default_rng(14)
        model = generate_random_pdt(10, 5, 0.1, rng)
        server = generate_random_pdt(10, 5, 1.0, rng)
        for _ in range(10):
            adv = make_random_adversary(10, 5, 0.1, rng)
            h = run_interaction(PdtAgent(server), adv, 60, rng, rng)
            p_mc = p_value(h, model, 2000, rng)
            assert abs(incremental_p(h, model) - p_mc) <= 0.05

    def test_running_matches_batch(self):
        rng = np.random.default_rng(15)
        model = generate_random_pdt(3, 2, 0.4, rng)
        server = generate_random_pdt(3, 2, 1.0, rng)
        h = run_interaction(PdtAgent(server), PdtAgent(model), 25, rng, rng)
        running = RunningPValue(model)
        for t, (a_s, a_c) in enumerate(h.steps):
            running.update(a_s, a_c)
            prefix = InteractionHistory(steps=h.steps[: t + 1], n_actions=3)
            assert running.p == pytest.approx(incremental_p(prefix, model))


class TestReplayProperty:
    def test_replayed_actions_score_below_null_mean(self):
        # stochastic server: replayed client actions land in wrong contexts
        rng = np.random.default_rng(16)
        model = generate_random_pdt(10, 5, 0.1, rng)
        server = generate_random_pdt(10, 5, 1.0, rng)
        from agentauth.adv import ReplayAgent

        gaps = []
        for _ in range(20):
            recorded = run_interaction(PdtAgent(server), PdtAgent(model), 60, rng, rng)
            replayed = run_interaction(
                PdtAgent(server), ReplayAgent(recorded.client_actions()), 60, rng, rng
            )
            ns = null_summary(replayed.server_actions(), model, 1, rng)
            gaps.append(statistic(replayed, model) - ns.mean)
        assert np.mean(gaps) < 0

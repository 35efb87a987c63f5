import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentauth.engine import InteractionHistory, load_transcript, run_interaction, save_transcript
from agentauth.hypo import (
    _EXACT_WORK,
    _TIE,
    _atom_bound,
    RunningPValue,
    hypothesis_test,
    null_tail,
    p_value,
    score_tables,
    step_distributions,
)
from agentauth.hypo import test_statistic as statistic
from agentauth.models import Pdt, PdtAgent, generate_random_pdt, node_count
from agentauth.adv import make_random_adversary
from oracles import (
    action_scores,
    analytic_moments,
    atom_bound,
    convolved_exactly,
    enumerated_p,
    incremental_p,
    lattice_p,
    mc_null_means,
    RunningP,
    step_score,
)


def literal_pdt(n, depth, row):
    nodes = np.tile(np.asarray(row, dtype=float), (node_count(n, depth), 1))
    return Pdt(n, depth, nodes)


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


class TestNullTail:
    def test_degenerate_no_randomness(self):
        # Zero variance: p is 1 at the mean and 0 anywhere else.
        q = np.tile([0.0, 1.0, 0.0], (3, 1))
        scores = score_tables(q)
        assert null_tail(q, scores, 1.0) == 1.0
        assert null_tail(q, scores, 2 / 3) == 0.0

    def test_mc_mean_matches_analytic(self):
        # The Monte-Carlo oracle the tail is checked against samples the
        # null whose moments the test computes analytically.
        rng = np.random.default_rng(3)
        model = generate_random_pdt(3, 2, 0.5, rng)
        server_actions = list(rng.integers(1, 4, size=40))
        q = step_distributions(server_actions, model, 40)
        scores = score_tables(q)
        mean, variance = analytic_moments(q, scores)
        M = 4000
        sampled = mc_null_means(q, scores, M, rng)
        assert abs(sampled.mean() - mean) <= 3 * np.sqrt(variance / M)

    def test_two_outcome_brute_force(self):
        # One step of [0.9, 0.1]: the rare action is the only one as far
        # from the mean as itself, the common one ties with everything.
        q = np.array([[0.9, 0.1]])
        scores = score_tables(q)
        assert null_tail(q, scores, scores[0, 1]) == pytest.approx(0.1, abs=1e-15)
        assert null_tail(q, scores, scores[0, 0]) == 1.0

    def test_outside_support_is_zero(self):
        # Literal rows with exact zeros: bounds come from the support only.
        q = np.tile([0.5, 0.0, 0.5], (20, 1))
        scores = score_tables(q)
        assert null_tail(q, scores, 0.75) == 1.0  # every action ties
        assert null_tail(q, scores, 0.8) == 0.0
        assert null_tail(q, scores, 0.0) == 0.0

    def test_batch_matches_one_at_a_time(self):
        rng = np.random.default_rng(17)
        q = rng.dirichlet(np.ones(4), size=(3, 30))
        scores = np.stack([score_tables(row) for row in q])
        z = scores.mean(axis=(1, 2)) + np.array([-0.05, 0.0, 0.04])
        batched = null_tail(q, scores, z)
        assert batched.shape == (3,)
        single = [null_tail(q[b], scores[b], z[b]) for b in range(3)]
        assert batched.tolist() == pytest.approx(single, rel=1e-12, abs=0)

    def test_continuous_where_the_normal_limit_takes_over(self):
        # Within 1e-3 sd of the mean the tail is the normal limit; just
        # outside it Lugannani-Rice, whose two tails differ from the limit
        # at first order in the cut: about 6e-6 here, far from any alpha.
        rng = np.random.default_rng(23)
        q = rng.dirichlet(np.ones(4), size=40)
        scores = score_tables(q)
        mean, variance = analytic_moments(q, scores)
        for side in (1, -1):
            inner, outer = (
                null_tail(q, scores, mean + side * f * 1e-3 * np.sqrt(variance))
                for f in (0.999, 1.001)
            )
            assert 0.99 < min(inner, outer) and max(inner, outer) < 1
            assert abs(inner - outer) < 1e-5

    def test_top_of_support_is_the_top_atom(self):
        # Every step at its most likely action, whose score lies further
        # above the mean than any sequence lies below it: p is exactly that
        # sequence's probability, on both sides of the exact/saddle switch.
        jitter = np.random.default_rng(24).uniform(-0.01, 0.01, size=(30, 2))
        distinct = np.column_stack([0.4 + jitter[:, 0], 0.3 + jitter[:, 1], np.zeros(30)])
        distinct[:, 2] = 1.0 - distinct[:, :2].sum(axis=1)
        for q, exact in ((np.tile([0.4, 0.3, 0.3], (30, 1)), True), (distinct, False)):
            scores = score_tables(q)
            assert convolved_exactly(q, scores) == exact
            top = scores[np.arange(30), np.argmax(q, axis=1)].mean()
            assert null_tail(q, scores, top) == pytest.approx(np.prod(q.max(axis=1)), rel=1e-12)


def count_ratio_pdt(n, depth, totals, rng):
    """A literal tree whose every row is counts over a total drawn from
    totals, like an MLE copy fitted from a few sessions."""
    nodes = np.zeros((node_count(n, depth), n))
    for row, total in zip(nodes, rng.choice(totals, size=len(nodes))):
        np.add.at(row, rng.integers(0, n, size=total), 1.0 / total)
    return Pdt(n, depth, nodes)


class TestLiteralTrees:
    """A literal tree's scores lie on a lattice, so however long the session
    the summed score takes few values and the tail is exact."""

    def sessions(self, model, l, count, seed):
        rng = np.random.default_rng(seed)
        server = generate_random_pdt(model.n_actions, model.depth, 1.0, rng)
        clients = [PdtAgent(model), make_random_adversary(model.n_actions, model.depth, 1.0, rng)]
        for i in range(count):
            h = run_interaction(PdtAgent(server), clients[i % 2], l, rng, rng)
            q = step_distributions(h.server_actions(), model, h.length)
            yield h, q, score_tables(q)

    @pytest.mark.parametrize("n,k,l", [(6, 2, 66), (10, 5, 200)])
    def test_quarters_match_lattice_oracle(self, n, k, l):
        # Probabilities in quarters make scores multiples of 1/8.
        model = count_ratio_pdt(n, k, [4], np.random.default_rng(n))
        for h, q, scores in self.sessions(model, l, 4, n + 1):
            assert convolved_exactly(q, scores)
            exact = lattice_p(q, scores, statistic(h, model), 1 / 8)
            assert p_value(h, model) == pytest.approx(exact, rel=0, abs=1e-12)

    def test_thirds_quarters_and_sixths_match_lattice_oracle(self):
        # Totals 3, 4 and 6 put every score on multiples of 1/24.
        model = count_ratio_pdt(4, 2, [3, 4, 6], np.random.default_rng(3))
        for h, q, scores in self.sessions(model, 80, 6, 4):
            assert convolved_exactly(q, scores)
            exact = lattice_p(q, scores, statistic(h, model), 1 / 24)
            assert p_value(h, model) == pytest.approx(exact, rel=0, abs=1e-12)

    def test_short_quarter_session_matches_enumeration(self):
        # Ten steps of three actions in quarters: up to 3^10 sequences.
        rows = [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5], [0.25, 0.5, 0.25]]
        model = Pdt(3, 1, np.array(rows))
        for h, q, scores in self.sessions(model, 9, 8, 5):
            exact = enumerated_p(q, scores, statistic(h, model))
            assert p_value(h, model) == pytest.approx(exact, rel=0, abs=1e-12)


# (n, k, l): paper defaults and the probe dimensions, where few rows repeat,
# and short or shallow sessions, which revisit their nodes.
ATOM_DIMS = [(10, 5, 200), (3, 5, 100), (2, 3, 13), (2, 1, 60), (6, 2, 67), (3, 1, 30)]


@functools.lru_cache(maxsize=None)
def _atom_world(kind, dim, seed):
    n, k, _ = ATOM_DIMS[dim]
    rng = np.random.default_rng(seed)
    server = generate_random_pdt(n, k, 1.0, rng)
    if kind == "continuous":
        return server, generate_random_pdt(n, k, 0.3, rng)
    return server, count_ratio_pdt(n, k, [2, 3, 4, 6], rng)


class TestAtomBound:
    """_atom_bound's early exits decide nothing the reference would not."""

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(["continuous", "count_ratio"]),
        dim=st.integers(0, len(ATOM_DIMS) - 1),
        world=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 1),
        legit=st.booleans(),
    )
    def test_matches_reference_without_early_exits(self, kind, dim, world, seed, legit):
        n, k, l = ATOM_DIMS[dim]
        server, model = _atom_world(kind, dim, world)
        rng = np.random.default_rng(seed)
        client = PdtAgent(model) if legit else make_random_adversary(n, k, 1.0, rng)
        h = run_interaction(PdtAgent(server), client, l, rng, rng)
        q = step_distributions(h.server_actions(), model, h.length)
        scores = score_tables(q)
        tol = _TIE * h.length
        assert _atom_bound(q, scores, tol) == atom_bound(q, scores, tol)

    @pytest.mark.parametrize("excess", [-1000, -1, 0, 1])
    def test_lattice_bound_at_the_limit(self, excess):
        # 200 distinct two-action rows whose score offsets are multiples of
        # 1/8, the smallest 1/8 itself, summing to limit - 1 + excess eighths:
        # the lattice bound is their count + 1 while that is within the limit.
        steps = 200
        limit = _EXACT_WORK // (2 * steps)
        total = limit - 1 + excess
        p = np.arange(1, steps + 1) / (steps + 2)
        q = np.stack([p, 1 - p], axis=1)
        units = np.full(steps, total // steps)
        units[: total % steps] += 1
        units[-1] = 1
        units[0] += total - units.sum()
        scores = np.stack([np.zeros(steps), units / 8], axis=1)
        tol = _TIE * steps
        want = total + 1 if excess <= 0 else 0
        assert _atom_bound(q, scores, tol) == atom_bound(q, scores, tol) == want


class TestPValue:
    def test_zero_extremity_gives_one(self):
        model = literal_pdt(3, 1, [0.0, 1.0, 0.0])
        h = InteractionHistory(steps=[(1, 2), (2, 2)], n_actions=3)
        # variance 0 and z == mean: every null sequence ties
        assert p_value(h, model) == 1.0

    def test_null_uniformity(self):
        rng = np.random.default_rng(6)
        model = generate_random_pdt(3, 2, 0.3, rng)
        server = generate_random_pdt(3, 2, 1.0, rng)
        ps = []
        for _ in range(1000):
            h = run_interaction(PdtAgent(server), PdtAgent(model), 30, rng, rng)
            ps.append(p_value(h, model))
        ps = np.sort(ps)
        ecdf = np.arange(1, len(ps) + 1) / len(ps)
        assert np.max(np.abs(ecdf - ps)) < 0.08

    def test_exact_enumeration_l0_l1(self):
        rng = np.random.default_rng(7)
        model = generate_random_pdt(2, 1, 0.5, rng)
        for server_actions in ([1], [2, 1]):
            exact = brute_force_p(server_actions, model)
            for seq, p_exact in exact.items():
                steps = [(s, a + 1) for s, a in zip(server_actions, seq)]
                h = InteractionHistory(steps=steps, n_actions=2)
                assert p_value(h, model) == pytest.approx(p_exact, rel=0, abs=1e-12)

    def test_monotone_in_extremity(self):
        # Exact (3 steps) and saddle-point (40 steps) tails alike.
        model = generate_random_pdt(3, 2, 0.5, np.random.default_rng(9))
        server_actions = list(np.random.default_rng(10).integers(1, 4, size=40))
        for steps in (3, 40):
            q = step_distributions(server_actions, model, steps)
            scores = score_tables(q)
            mean, _ = analytic_moments(q, scores)
            span = scores.max(axis=1).mean() - mean
            for side in (1, -1):
                zs = mean + side * np.linspace(0, 1.1 * span, 25)
                ps = [null_tail(q, scores, z) for z in zs]
                assert ps[0] == 1.0
                assert all(a >= b for a, b in zip(ps, ps[1:]))


class TestHypothesisTest:
    @pytest.mark.parametrize("model_n, transcript_n", [(3, 10), (10, 3)])
    def test_transcript_of_another_n_refused(self, model_n, transcript_n):
        model = literal_pdt(model_n, 1, np.full(model_n, 1 / model_n))
        h = InteractionHistory(steps=[(1, 2), (2, 1), (3, 3)], n_actions=transcript_n)
        for check in (p_value, hypothesis_test, statistic):
            with pytest.raises(ValueError, match=f"n={transcript_n}.*n={model_n}"):
                check(h, model)

    def test_threshold_readoff(self):
        rng = np.random.default_rng(11)
        model = generate_random_pdt(3, 2, 0.3, rng)
        server = generate_random_pdt(3, 2, 1.0, rng)
        h = run_interaction(PdtAgent(server), PdtAgent(model), 20, rng, rng)
        p = p_value(h, model)
        verdict = hypothesis_test(h, model, 0.1)
        assert verdict.score == p
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
            accepts += hypothesis_test(h, model, 0.1).accept
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
            assert abs(incremental_p(h, model) - p_value(h, model)) <= 0.05

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

    @pytest.mark.parametrize("n, k, tau", [(3, 5, 0.5), (10, 5, 0.1)])
    def test_running_equals_reference_at_every_step(self, n, k, tau):
        # Bit for bit, not approximately: the reference rescores every step.
        rng = np.random.default_rng(16)
        model = generate_random_pdt(n, k, tau, rng)
        server = generate_random_pdt(n, k, 1.0, rng)
        for client in (PdtAgent(model), make_random_adversary(n, k, tau, rng)):
            h = run_interaction(PdtAgent(server), client, 299, rng, rng)
            running, reference = RunningPValue(model), RunningP(model)
            for a_s, a_c in h.steps:
                running.update(a_s, a_c)
                reference.update(a_s, a_c)
                assert running.p == reference.p
                assert running.node == reference.node

    @pytest.mark.parametrize("n, k, tau", [(3, 5, 0.5), (10, 5, 0.1)])
    def test_running_sharing_a_memo_equals_reference(self, n, k, tau):
        # Two sessions stepped in turn, each meeting nodes the other scored.
        rng = np.random.default_rng(17)
        model = generate_random_pdt(n, k, tau, rng)
        server = generate_random_pdt(n, k, 1.0, rng)
        clients = (PdtAgent(model), make_random_adversary(n, k, tau, rng))
        histories = [run_interaction(PdtAgent(server), c, 199, rng, rng) for c in clients]
        memo = {}
        running = [RunningPValue(model, memo) for _ in histories]
        reference = [RunningP(model) for _ in histories]
        for steps in zip(*(h.steps for h in histories)):
            for r, ref, (a_s, a_c) in zip(running, reference, steps):
                r.update(a_s, a_c)
                ref.update(a_s, a_c)
                assert r.p == ref.p
        assert 0 < len(memo) <= 2 * 200

    @pytest.mark.parametrize("step", [(1, 0), (1, 4), (0, 1), (4, 1)])
    def test_running_refuses_action_outside_range(self, step):
        # Client action 0 used to be scored as action n (index -1 wraps), and
        # a bad server action was caught only by the next update.
        running = RunningPValue(generate_random_pdt(3, 2, 0.4, np.random.default_rng(15)))
        with pytest.raises(ValueError, match=r"outside 1\.\.3"):
            running.update(*step)
        assert running.steps == 0 and running.p == 1.0


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
            q = step_distributions(replayed.server_actions(), model, replayed.length)
            null_mean, _ = analytic_moments(q, score_tables(q))
            gaps.append(statistic(replayed, model) - null_mean)
        assert np.mean(gaps) < 0


class TestDeterminism:
    def test_saved_transcript_gives_identical_p(self, tmp_path):
        rng = np.random.default_rng(19)
        model = generate_random_pdt(10, 5, 0.1, rng)
        server = generate_random_pdt(10, 5, 1.0, rng)
        h = run_interaction(PdtAgent(server), PdtAgent(model), 200, rng, rng)
        save_transcript(h, tmp_path / "session.jsonl")
        again = p_value(load_transcript(tmp_path / "session.jsonl"), model)
        assert np.float64(again).tobytes() == np.float64(p_value(h, model)).tobytes()

    def test_hypothesis_test_draws_nothing(self):
        rng = np.random.default_rng(20)
        model = generate_random_pdt(3, 2, 0.3, rng)
        server = generate_random_pdt(3, 2, 1.0, rng)
        h = run_interaction(PdtAgent(server), PdtAgent(model), 30, rng, rng)
        passed = np.random.default_rng(21)
        before = passed.bit_generator.state
        verdict = hypothesis_test(h, model, 0.1, 1000, passed)
        assert passed.bit_generator.state == before
        assert verdict.score == p_value(h, model)

    def test_one_step_session(self):
        # l=0: p is the probability of the actions at least as far from the
        # step's mean score as the observed one.
        rng = np.random.default_rng(22)
        model = generate_random_pdt(3, 2, 0.5, rng)
        q = model.action_distribution([])
        scores = action_scores(q)
        mean = float(q @ scores)
        for a in range(3):
            h = InteractionHistory(steps=[(1, a + 1)], n_actions=3)
            far = np.abs(scores - mean) >= abs(scores[a] - mean) - 1e-12
            assert p_value(h, model) == pytest.approx(q[far].sum(), rel=0, abs=1e-15)

    def test_zero_variance_model(self):
        # A literal model with one certain action: p is 1.0 when the client
        # plays it at every step and 0.0 as soon as it does not.
        model = literal_pdt(3, 1, [0.0, 1.0, 0.0])
        steps = [(1, 2), (3, 2), (2, 2)]
        assert p_value(InteractionHistory(steps=steps, n_actions=3), model) == 1.0
        steps[1] = (3, 1)
        assert p_value(InteractionHistory(steps=steps, n_actions=3), model) == 0.0
        assert p_value(InteractionHistory(steps=[(1, 3)], n_actions=3), model) == 0.0

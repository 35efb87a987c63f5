import hashlib
import struct

import numpy as np
import pytest

from agentauth.engine import (
    InteractionHistory,
    ProtocolViolation,
    confirmation_tag,
    derive_key,
    exchange,
    load_transcript,
    run_interaction,
    run_pdt_sessions,
    save_transcript,
)
from agentauth.hypo import p_value
from agentauth.models import Pdt, PdtAgent, fit_mle_pdt, generate_random_pdt, node_count
from agentauth.rl import MODE_EPS_GREEDY, MODE_SOFTMAX, PolicyAgent, ProbePolicy, UniformAgent
from oracles import sample_action


class FixedAgent:
    def __init__(self, action, n=3):
        self.action = action
        self.n = n

    def next_action(self, opponent_history, rng):
        return self.action


class SpyAgent:
    """Records how much opponent history is visible at each of its turns."""

    def __init__(self):
        self.seen = []

    def next_action(self, opponent_history, rng):
        self.seen.append(len(opponent_history))
        return 1


def literal_pdt(n, depth, row):
    nodes = np.tile(np.asarray(row, dtype=float), (node_count(n, depth), 1))
    return Pdt(n, depth, nodes)


class TestRunInteraction:
    def test_zero_length_boundary(self):
        h = run_interaction(
            FixedAgent(1), FixedAgent(2), 0,
            np.random.default_rng(0), np.random.default_rng(1), n_actions=3,
        )
        assert h.length == 1

    def test_deterministic_agents(self):
        h = run_interaction(
            FixedAgent(3), FixedAgent(1), 5,
            np.random.default_rng(0), np.random.default_rng(1), n_actions=3,
        )
        assert h.steps == [(3, 1)] * 6

    def test_length_and_range(self):
        rng = np.random.default_rng(2)
        s = generate_random_pdt(4, 2, 1.0, rng)
        c = generate_random_pdt(4, 2, 0.5, rng)
        h = run_interaction(
            PdtAgent(s), PdtAgent(c), 37,
            np.random.default_rng(3), np.random.default_rng(4),
        )
        assert h.length == 38
        assert all(1 <= a <= 4 and 1 <= b <= 4 for a, b in h.steps)

    def test_simultaneity_conditioning(self):
        # each agent sees exactly the opponent actions strictly before its turn
        spy_s, spy_c = SpyAgent(), SpyAgent()
        run_interaction(
            spy_s, spy_c, 9,
            np.random.default_rng(0), np.random.default_rng(1), n_actions=3,
        )
        assert spy_s.seen == list(range(10))
        assert spy_c.seen == list(range(10))

    def test_invalid_action_identifies_side(self):
        with pytest.raises(ProtocolViolation, match="client"):
            run_interaction(
                FixedAgent(1), FixedAgent(9), 2,
                np.random.default_rng(0), np.random.default_rng(1), n_actions=3,
            )
        with pytest.raises(ProtocolViolation, match="server"):
            run_interaction(
                FixedAgent(0), FixedAgent(1), 2,
                np.random.default_rng(0), np.random.default_rng(1), n_actions=3,
            )

    def test_client_entropy_below_server(self):
        # tau 1.0 server vs tau 0.1 client: the client draws from visibly
        # more concentrated per-step distributions
        rng = np.random.default_rng(5)
        s = generate_random_pdt(10, 5, 1.0, rng)
        c = generate_random_pdt(10, 5, 0.1, rng)
        rs, rc = np.random.default_rng(6), np.random.default_rng(7)

        def entropy(p):
            p = p[p > 0]
            return float(-(p * np.log(p)).sum())

        s_ent, c_ent = [], []
        for _ in range(100):
            h = run_interaction(PdtAgent(s), PdtAgent(c), 200, rs, rc)
            server_hist, client_hist = [], []
            for a_s, a_c in h.steps:
                s_ent.append(entropy(s.action_distribution(client_hist)))
                c_ent.append(entropy(c.action_distribution(server_hist)))
                server_hist.append(a_s)
                client_hist.append(a_c)
        assert np.mean(c_ent) < np.mean(s_ent)

    def test_reused_agent_matches_fresh_agents(self):
        # PdtAgent keeps no walk state: one instance, reused across sessions
        # and on both sides of a session, plays as fresh agents do.
        model = generate_random_pdt(3, 2, 0.5, np.random.default_rng(8))
        shared = PdtAgent(model)
        reused, fresh = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(3):
            got = run_interaction(shared, shared, 20, reused, reused)
            want = run_interaction(PdtAgent(model), PdtAgent(model), 20, fresh, fresh)
            assert got.steps == want.steps


class TestExchange:
    def test_client_role_returns_server_client_order(self):
        seen = []

        def peer(own, before):
            seen.append(list(before))
            return 3

        h = exchange(FixedAgent(1), peer, 2, np.random.default_rng(0), 3, role="client")
        assert h.steps == [(3, 1)] * 3
        # the peer sees this side's actions strictly before the current step
        assert seen == [[], [1], [1, 1]]

    def test_invalid_peer_action_names_peer(self):
        with pytest.raises(ProtocolViolation, match="server"):
            exchange(FixedAgent(1), lambda a, _: 4, 1, np.random.default_rng(0), 3, role="client")

    def test_negative_length_refused(self):
        with pytest.raises(ValueError, match="l must be"):
            exchange(FixedAgent(1), lambda a, _: 1, -1, np.random.default_rng(0), 3)


class UniformFeed:
    """Stands in for a generator: random() returns the given uniforms in order."""

    def __init__(self, u):
        self._values = iter(np.asarray(u, dtype=float).ravel().tolist())

    def random(self):
        return next(self._values)


def scalar_sessions(server, clients, u):
    """One run_interaction per client, fed u[b] step by step: server, then client."""
    feed = UniformFeed(u)
    return np.array([
        run_interaction(PdtAgent(server), PdtAgent(c), u.shape[1] - 1, feed, feed).steps
        for c in clients
    ])


class TestRunPdtSessions:
    @pytest.mark.parametrize("n", [2, 3, 10])
    @pytest.mark.parametrize("l", [0, 1, 200])
    def test_equals_back_to_back_run_interaction(self, n, l):
        rng = np.random.default_rng(100 * n + l)
        server = generate_random_pdt(n, 2, 1.0, rng)  # shallower than the clients
        a, b = (generate_random_pdt(n, 3, 0.3, rng) for _ in range(2))
        clients = [a, b, a, a, b]  # mixed and repeated
        batched, scalar = np.random.default_rng(7), np.random.default_rng(7)
        actions = run_pdt_sessions(server, clients, batched.random((5, l + 1, 2)))
        expected = [
            run_interaction(PdtAgent(server), PdtAgent(c), l, scalar, scalar).steps
            for c in clients
        ]
        assert actions.shape == (5, l + 1, 2)
        assert actions.tolist() == [[list(step) for step in h] for h in expected]
        assert batched.bit_generator.state == scalar.bit_generator.state

    def test_single_session_deeper_server(self):
        rng = np.random.default_rng(8)
        server = generate_random_pdt(3, 5, 1.0, rng)
        client = generate_random_pdt(3, 1, 0.5, rng)
        u = rng.random((1, 60, 2))
        assert np.array_equal(run_pdt_sessions(server, [client], u), scalar_sessions(server, [client], u))

    def test_literal_tree_with_cdf_ties(self):
        # An MLE fit of a few short sessions has rows with exact zeros (equal
        # CDF entries) and uniform rows; the uniforms sit on those CDF values.
        rng = np.random.default_rng(9)
        server = generate_random_pdt(3, 2, 1.0, rng)
        legit = generate_random_pdt(3, 2, 0.1, rng)
        seen = [run_interaction(PdtAgent(server), PdtAgent(legit), 6, rng, rng) for _ in range(4)]
        mle = fit_mle_pdt(3, 2, seen)
        assert (mle.probs == 0).any()
        edges = [0.0, 1 / 3, 1 / 3 + 1 / 3, 0.5, 0.25, 0.75, 1.0, np.nextafter(1.0, 0.0)]
        u = rng.choice(edges, size=(6, 40, 2))
        clients = [mle, legit, mle, mle, legit, mle]
        assert np.array_equal(run_pdt_sessions(mle, clients, u), scalar_sessions(mle, clients, u))

    def test_clients_must_share_n_and_depth(self):
        rng = np.random.default_rng(10)
        server = generate_random_pdt(3, 2, 1.0, rng)
        u = rng.random((2, 5, 2))
        for other in (generate_random_pdt(3, 3, 0.5, rng), generate_random_pdt(4, 2, 0.5, rng)):
            with pytest.raises(ValueError):
                run_pdt_sessions(server, [generate_random_pdt(3, 2, 0.5, rng), other], u)
        with pytest.raises(ValueError):
            run_pdt_sessions(server, [generate_random_pdt(4, 2, 0.5, rng)] * 2, u)

    def test_uniforms_must_match_the_batch(self):
        rng = np.random.default_rng(11)
        server = generate_random_pdt(3, 2, 1.0, rng)
        for shape in [(3, 5, 2), (2, 5), (2, 0, 2), (2, 5, 3)]:
            with pytest.raises(ValueError):
                run_pdt_sessions(server, [server, server], np.zeros(shape))


class TestHistoryValidation:
    @pytest.mark.parametrize(
        "steps",
        [
            [(1, 2), (2, 0), (3, 1)],  # action 0 used to be scored as action n
            [(1, 2), (4, 1)],
            [(1, 2.0)],
            [(1, "2")],
            [(1, 2, 3)],
        ],
    )
    def test_rejects_step_outside_action_set(self, steps):
        with pytest.raises(ValueError):
            InteractionHistory(steps, 3)

    @pytest.mark.parametrize("n", ["3", 3.0, 1, None])
    def test_rejects_bad_n_actions(self, n):
        with pytest.raises(ValueError, match="n_actions"):
            InteractionHistory([(1, 1)], n)

    def test_accepts_valid_and_empty(self):
        assert InteractionHistory([(1, 3), (3, 1)], 3).length == 2
        assert InteractionHistory([], 3).length == 0


class TestDeriveKey:
    def test_key_symmetry(self):
        rng = np.random.default_rng(8)
        model = generate_random_pdt(3, 2, 0.5, rng)
        s = generate_random_pdt(3, 2, 1.0, rng)
        h = run_interaction(
            PdtAgent(s), PdtAgent(model), 20,
            np.random.default_rng(9), np.random.default_rng(10),
        )
        assert derive_key(h, model) == derive_key(h, model)

    def test_model_difference_changes_key(self):
        rng = np.random.default_rng(11)
        model = generate_random_pdt(3, 2, 0.5, rng)
        perturbed = np.array(model.probs)
        perturbed[0] = [0.5, 0.25, 0.25]  # root is always visited
        other = Pdt(3, 2, perturbed)
        h = run_interaction(
            PdtAgent(generate_random_pdt(3, 2, 1.0, rng)), PdtAgent(model), 10,
            np.random.default_rng(12), np.random.default_rng(13),
        )
        assert derive_key(h, model) != derive_key(h, other)

    def test_hand_computed_preimage(self):
        # literal [0.25, 0.75] everywhere, client plays 2 twice:
        # key = SHA-256 of two big-endian words round(0.75 * 2^32)
        model = literal_pdt(2, 1, [0.25, 0.75])
        h = InteractionHistory(steps=[(1, 2), (2, 2)], n_actions=2)
        word = struct.pack(">Q", round(0.75 * 2**32))
        assert derive_key(h, model) == hashlib.sha256(word + word).digest()

    @pytest.mark.parametrize("model_n, transcript_n", [(3, 10), (10, 3)])
    def test_transcript_of_another_n_refused(self, model_n, transcript_n):
        model = literal_pdt(model_n, 1, np.full(model_n, 1 / model_n))
        h = InteractionHistory(steps=[(1, 2), (2, 1)], n_actions=transcript_n)
        with pytest.raises(ValueError, match=f"n={transcript_n}.*n={model_n}"):
            derive_key(h, model)

    def test_confirmation_tag(self):
        key = b"\x01" * 32
        assert confirmation_tag(key) == hashlib.sha256(key + b"confirm").digest()
        assert confirmation_tag(key) != confirmation_tag(b"\x02" * 32)


class TestTranscriptIO:
    def test_round_trip(self, tmp_path):
        h = InteractionHistory(steps=[(1, 2), (3, 1), (2, 2)], n_actions=3)
        path = tmp_path / "t.jsonl"
        save_transcript(h, path, meta={"seed": 42})
        loaded = load_transcript(path)
        assert loaded.steps == h.steps
        assert loaded.n_actions == 3

    def test_action_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"n": 3, "l": 0}\n{"t": 0, "s": 1, "c": 0}\n')
        with pytest.raises(ValueError, match="outside 1..3"):
            load_transcript(path)

    def test_length_mismatch_detected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"n": 3, "l": 5}\n{"t": 0, "s": 1, "c": 2}\n')
        with pytest.raises(ValueError):
            load_transcript(path)


class RandomCallAgent:
    """Draws its action with one scalar rng.random(): a non-PDT agent whose
    draws come from whichever generator it is handed."""

    def __init__(self, n):
        self.n = n

    def next_action(self, opponent_history, rng):
        return 1 + int(rng.random() * self.n)


def session_digest(sessions, rngs, model):
    """SHA-256 over every session's transcript, p-value and session key and
    every generator's state after it."""
    h = hashlib.sha256()
    for history in sessions():
        h.update(np.asarray(history.steps, dtype=np.int64).tobytes())
        h.update(float(p_value(history, model)).hex().encode())
        h.update(derive_key(history, model))
        for rng in rngs:
            h.update(repr(rng.bit_generator.state).encode())
    return h.hexdigest()


# Taken from the step-by-step draws: one scalar rng.random() per PDT step.
SESSION_DIGESTS = {
    "separate": "7b70f3b5a970a2e87bd52f4f0a4bf171aaa076b4de470b418ee3d06cebc8c83b",
    "shared": "dd728d07237478b9e87637dfd2e85959b0cc295823f5c59affc35fcdc09a5352",
    "uniform": "572c9524ab905d409a057c95dd2477b93625e40b7a59f15baf8980a30c74534c",
    "random_call": "d32a0ccff0322b90a247fe18ada0554fc4747c130fa26e3e384fa2395e5a2a3e",
}


class TestSessionBits:
    """Pinned outputs of run_interaction: how a side draws its uniforms may
    change, the transcripts, p-values, keys and generator states may not."""

    @pytest.fixture(scope="class")
    def paper_models(self):
        rng = np.random.default_rng(2024)
        server = generate_random_pdt(10, 5, 1.0, rng)
        legit = generate_random_pdt(10, 5, 0.1, rng)
        other = generate_random_pdt(10, 5, 0.1, rng)
        return server, legit, other

    @pytest.mark.parametrize("shared", [False, True], ids=["separate", "shared"])
    def test_paper_default_sessions(self, paper_models, shared):
        server, legit, other = paper_models
        rng_s = np.random.default_rng(31)
        rng_c = rng_s if shared else np.random.default_rng(32)
        clients = [PdtAgent(legit), PdtAgent(other), PdtAgent(legit)]

        def sessions():
            for i in range(60):
                yield run_interaction(PdtAgent(server), clients[i % 3], 200, rng_s, rng_c)

        key = "shared" if shared else "separate"
        assert session_digest(sessions, [rng_s, rng_c], legit) == SESSION_DIGESTS[key]

    @pytest.mark.parametrize("n", [2, 3, 10])
    @pytest.mark.parametrize("l", [0, 1, 200])
    def test_shared_generator_equals_stepwise_feed(self, n, l):
        rng = np.random.default_rng(300 * n + l)
        server = generate_random_pdt(n, 2, 1.0, rng)
        client = generate_random_pdt(n, 3, 0.3, rng)
        played, fed = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(3):
            got = run_interaction(PdtAgent(server), PdtAgent(client), l, played, played)
            feed = UniformFeed(fed.random((l + 1, 2)))
            want = run_interaction(PdtAgent(server), PdtAgent(client), l, feed, feed)
            assert got.steps == want.steps
            assert played.bit_generator.state == fed.bit_generator.state

    @pytest.mark.parametrize("kind", ["uniform", "random_call"])
    def test_pdt_server_against_drawing_agent_on_one_generator(self, kind):
        # The client draws from the session's one generator between the
        # server's draws, so nothing may be drawn ahead of a step.
        rng = np.random.default_rng(12)
        server = generate_random_pdt(3, 2, 1.0, rng)
        legit = generate_random_pdt(3, 2, 0.3, rng)

        def sessions():
            for l in (0, 1, 40, 200):
                client = UniformAgent(3) if kind == "uniform" else RandomCallAgent(3)
                yield run_interaction(PdtAgent(server), client, l, rng, rng)

        assert session_digest(sessions, [rng], legit) == SESSION_DIGESTS[kind]

    def test_pdt_client_against_policy_server_on_one_generator(self):
        rng = np.random.default_rng(13)
        legit = generate_random_pdt(3, 2, 0.3, rng)
        policy = ProbePolicy.zeros(node_count(3, 2), 3, epsilon=0.5)
        policy.preferences[:] = rng.normal(size=policy.preferences.shape)
        for mode in (MODE_EPS_GREEDY, MODE_SOFTMAX):
            played, ref = np.random.default_rng(14), np.random.default_rng(14)
            got = run_interaction(PolicyAgent(policy, legit, mode), PdtAgent(legit), 60, played, played)
            # Step by step: the server's draws, then the client's one uniform.
            server, steps = PolicyAgent(policy, legit, mode), []
            for _ in range(61):
                a = server.next_action(None, ref)
                context = [s for s, _ in steps][-2:]
                node = legit.action_distribution(context)
                steps.append((a, sample_action(node, ref.random())))
            assert got.steps == steps
            assert played.bit_generator.state == ref.bit_generator.state

    def test_two_generators_over_one_bit_generator_are_one_generator(self):
        rng = np.random.default_rng(17)
        server = generate_random_pdt(3, 2, 1.0, rng)
        client = generate_random_pdt(3, 2, 0.3, rng)
        bits = np.random.PCG64(18)
        views = np.random.Generator(bits), np.random.Generator(bits)
        one = np.random.Generator(np.random.PCG64(18))
        for l in (0, 5, 30):
            got = run_interaction(PdtAgent(server), PdtAgent(client), l, *views)
            want = run_interaction(PdtAgent(server), PdtAgent(client), l, one, one)
            assert got.steps == want.steps
        assert bits.state == one.bit_generator.state

    @pytest.mark.parametrize("l", [-1, -2])
    def test_negative_length_refused_before_any_draw(self, l):
        rng = np.random.default_rng(19)
        model = generate_random_pdt(3, 2, 0.3, rng)
        state = rng.bit_generator.state
        for other in (rng, np.random.default_rng(20)):
            with pytest.raises(ValueError, match="l must be"):
                run_interaction(PdtAgent(model), PdtAgent(model), l, rng, other)
        assert rng.bit_generator.state == state

    def test_reference_agrees_with_oracle_draws(self):
        # The pinned digests above are of this step-by-step rule.
        rng, ref = np.random.default_rng(15), np.random.default_rng(15)
        server = generate_random_pdt(3, 2, 1.0, np.random.default_rng(16))
        got = run_interaction(PdtAgent(server), RandomCallAgent(3), 50, rng, rng)
        steps = []
        for _ in range(51):
            context = [c for _, c in steps][-2:]
            a = sample_action(server.action_distribution(context), ref.random())
            steps.append((a, RandomCallAgent(3).next_action(None, ref)))
        assert got.steps == steps
        assert rng.bit_generator.state == ref.bit_generator.state


class TestBoolRefused:
    """True == 1 in Python, so a bool passes a range check; it is no action."""

    @pytest.mark.parametrize("steps", [[(True, 2)], [(1, 2), (3, True)]])
    def test_history_refuses_bool_action(self, steps):
        with pytest.raises(ValueError, match="outside"):
            InteractionHistory(steps, 3)

    def test_exchange_refuses_bool_from_agent(self):
        with pytest.raises(ProtocolViolation, match="server produced invalid action True"):
            exchange(FixedAgent(True), lambda a, _: 1, 1, np.random.default_rng(0), 3)

    def test_exchange_refuses_bool_from_peer(self):
        with pytest.raises(ProtocolViolation, match="server produced invalid action True"):
            exchange(FixedAgent(1), lambda a, _: True, 1, np.random.default_rng(0), 3, role="client")

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": 3, "l": 0}\n{"t": 0, "s": true, "c": 2}\n',
            '{"n": 3, "l": 0}\n{"t": 0, "s": 1, "c": true}\n',
            '{"n": 3, "l": true}\n{"t": 0, "s": 1, "c": 2}\n{"t": 1, "s": 1, "c": 2}\n',
            '{"n": 3, "l": false}\n{"t": 0, "s": 1, "c": 2}\n',
            '{"n": true, "l": 0}\n{"t": 0, "s": 1, "c": 1}\n',
        ],
        ids=["s", "c", "l", "l_false", "n"],
    )
    def test_load_transcript_refuses_bool(self, tmp_path, text):
        path = tmp_path / "t.jsonl"
        path.write_text(text)
        with pytest.raises(ValueError):
            load_transcript(path)

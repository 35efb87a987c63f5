import hashlib
import json
from functools import reduce

import numpy as np
import pytest

from agentauth.engine import run_interaction
from agentauth.models import (
    ModelFormatError,
    Pdt,
    PdtAgent,
    UnsupportedVersionError,
    _softmax_rows,
    boltzmann,
    fit_mle_pdt,
    generate_random_pdt,
    load_pdt,
    node_count,
    save_pdt,
)
from oracles import FixedUniforms, node_index, sample_action, softmax_rows


def bfs_paths(n, depth):
    """All node paths in breadth-first order, as the independent index oracle."""
    paths = [()]
    level = [()]
    for _ in range(depth):
        level = [p + (a,) for p in level for a in range(1, n + 1)]
        paths.extend(level)
    return paths


class TestBoltzmann:
    def test_equal_logits_uniform(self):
        p = boltzmann([0.5, 0.5, 0.5], 0.1)
        assert np.allclose(p, [1 / 3] * 3, atol=1e-15)

    def test_high_temperature_limit(self):
        p = boltzmann([0.0, 1.0], 1000.0)
        assert np.all(np.abs(p - 0.5) < 1e-3)

    def test_closed_form(self):
        # direct evaluation of exp(0), exp(10)
        p = boltzmann([0.0, 1.0], 0.1)
        expected = np.array([1.0, np.exp(10.0)])
        expected /= expected.sum()
        assert np.allclose(p, expected, atol=1e-8)
        assert abs(p[0] - 4.5398e-5) < 1e-8

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = boltzmann(rng.random(7), float(rng.uniform(0.05, 5.0)))
            assert abs(p.sum() - 1.0) <= 1e-12
            assert np.all(p > 0)

    @pytest.mark.parametrize("tau", [0.0, -1.0])
    def test_nonpositive_temperature(self, tau):
        with pytest.raises(ValueError):
            boltzmann([0.1, 0.2], tau)

    def test_nonfinite_logits(self):
        with pytest.raises(ValueError):
            boltzmann([0.1, float("nan")], 1.0)
        with pytest.raises(ValueError):
            boltzmann([0.1, float("inf")], 1.0)


class TestSoftmaxRows:
    """_softmax_rows equals the row-by-row reference bit for bit, one row
    included, where a transpose of the input is a view of it."""

    @pytest.mark.parametrize("tau", [0.05, 0.1, 1.0])
    @pytest.mark.parametrize("n", [2, 3, 8, 10, 17, 33])
    @pytest.mark.parametrize("rows", [1, 2, 11, 364, 111_111])
    def test_bit_identical_to_reference(self, rows, n, tau):
        logits = np.random.default_rng(rows * 1000 + n).random((rows, n))
        kept = logits.copy()
        got = _softmax_rows(logits, tau)
        assert np.array_equal(got, softmax_rows(kept, tau))
        assert got.flags.c_contiguous
        assert np.array_equal(logits, kept)

    @pytest.mark.parametrize("n", [8, 10, 17, 33])
    def test_boltzmann_leaves_its_logits(self, n):
        logits = np.random.default_rng(n).random(n)
        kept = logits.copy()
        p = boltzmann(logits, 0.1)
        assert np.array_equal(logits, kept)
        assert np.array_equal(p, softmax_rows(kept[None, :], 0.1)[0])


def walk(pdt, context):
    """Fold Pdt.next_node from the root over a context."""
    return reduce(pdt.next_node, context, 0)


class TestTraverse:
    def test_empty_context_is_root(self):
        pdt = generate_random_pdt(3, 3, 1.0, np.random.default_rng(0))
        assert walk(pdt, []) == 0

    def test_walkthrough_depth3(self):
        # n=3, k=3: provided actions [2,3,2], consumed oldest first
        pdt = generate_random_pdt(3, 3, 1.0, np.random.default_rng(0))
        assert walk(pdt, [2, 3, 2]) == bfs_paths(3, 3).index((2, 3, 2))

    def test_partial_context_index(self):
        pdt = generate_random_pdt(3, 5, 1.0, np.random.default_rng(0))
        assert walk(pdt, [1, 2]) == 5

    @pytest.mark.parametrize("n,depth", [(2, 3), (3, 4), (4, 2)])
    def test_all_contexts_match_bfs_oracle(self, n, depth):
        pdt = generate_random_pdt(n, depth, 1.0, np.random.default_rng(1))
        for idx, path in enumerate(bfs_paths(n, depth)):
            assert walk(pdt, path) == node_index(n, depth, path) == idx

    @pytest.mark.parametrize("n,depth", [(2, 3), (3, 4), (4, 2), (10, 5)])
    def test_past_depth_is_node_of_last_k_actions(self, n, depth):
        pdt = Pdt(n, depth, np.full((node_count(n, depth), n), 1 / n))
        history = list(np.random.default_rng(n + depth).integers(1, n + 1, size=60))
        node = 0
        for t, a in enumerate(history, start=1):
            node = pdt.next_node(node, a)
            assert node == node_index(n, depth, history[max(0, t - depth):t])

    @pytest.mark.parametrize("bad", [0, 4])
    def test_rejects_out_of_range_action(self, bad):
        pdt = generate_random_pdt(3, 2, 1.0, np.random.default_rng(0))
        for node in (0, 1, pdt.num_nodes - 1):
            with pytest.raises(ValueError, match="out of range"):
                pdt.next_node(node, bad)

    def test_pure_function(self):
        pdt = generate_random_pdt(3, 4, 1.0, np.random.default_rng(2))
        assert walk(pdt, [3, 1, 2]) == walk(pdt, [3, 1, 2])


class TestActionDistribution:
    def test_empty_history_is_root(self):
        pdt = generate_random_pdt(4, 3, 0.7, np.random.default_rng(3))
        logits = np.random.default_rng(3).random((pdt.num_nodes, 4))
        assert np.array_equal(pdt.action_distribution([]), boltzmann(logits[0], 0.7))

    def test_windowing(self):
        pdt = generate_random_pdt(3, 5, 0.5, np.random.default_rng(4))
        rng = np.random.default_rng(5)
        hist = list(rng.integers(1, 4, size=7))
        assert np.array_equal(
            pdt.action_distribution(hist), pdt.action_distribution(hist[-5:])
        )

    def test_prefix_independence(self):
        pdt = generate_random_pdt(3, 5, 0.5, np.random.default_rng(4))
        rng = np.random.default_rng(6)
        tail = list(rng.integers(1, 4, size=5))
        for _ in range(10):
            prefix = list(rng.integers(1, 4, size=int(rng.integers(0, 9))))
            assert np.array_equal(
                pdt.action_distribution(prefix + tail),
                pdt.action_distribution(tail),
            )

    def test_toy_hand_traverse(self):
        probs = np.array([[0.5, 0.5], [0.9, 0.1], [0.2, 0.8]])
        pdt = Pdt(n_actions=2, depth=1, probs=probs)
        # branch 2 from the root is breadth-first node 2
        assert np.array_equal(pdt.action_distribution([2]), [0.2, 0.8])

    @pytest.mark.parametrize("bad", [0, 4, -1])
    def test_rejects_out_of_range_action(self, bad):
        pdt = generate_random_pdt(3, 2, 0.5, np.random.default_rng(4))
        with pytest.raises(ValueError, match=f"action {bad} out of range 1..3"):
            pdt.action_distribution([1, bad])


class TestSampleAction:
    def test_degenerate_distribution(self):
        nodes = np.array([[1.0, 0.0, 0.0]] * node_count(3, 1))
        pdt = Pdt(3, 1, nodes)
        rng = np.random.default_rng(7)
        assert all(pdt.sample_action([], rng) == 1 for _ in range(100))

    def test_deterministic_given_seed(self):
        pdt = generate_random_pdt(5, 3, 0.3, np.random.default_rng(8))
        a = [pdt.sample_action([2, 4], np.random.default_rng(9)) for _ in range(20)]
        b = [pdt.sample_action([2, 4], np.random.default_rng(9)) for _ in range(20)]
        assert a == b

    def test_empirical_frequencies(self):
        pdt = generate_random_pdt(4, 2, 0.4, np.random.default_rng(10))
        rng = np.random.default_rng(11)
        counts = np.zeros(4)
        trials = 100_000
        for _ in range(trials):
            counts[pdt.sample_action([3], rng) - 1] += 1
        assert np.all(np.abs(counts / trials - pdt.action_distribution([3])) < 0.01)

    @staticmethod
    def assert_matches_reference(pdt, contexts):
        """At every node a context reaches, u = 0, each cumulative sum and
        one ulp either side of it draw the reference's action."""
        for context in contexts:
            row = pdt.action_distribution(context)
            sums = np.cumsum(row)
            us = {0.0} | {float(u) for c in sums for u in (np.nextafter(c, -1), c, np.nextafter(c, 2))}
            for u in sorted(u for u in us if 0.0 <= u < 1.0):
                assert pdt.sample_action(context, FixedUniforms([u])) == sample_action(row, u)

    def test_logit_tree_matches_reference_at_every_boundary(self):
        pdt = generate_random_pdt(4, 2, 0.3, np.random.default_rng(12))
        self.assert_matches_reference(pdt, bfs_paths(4, 2))

    def test_mle_tree_with_zeros_and_ties_matches_reference(self):
        rng = np.random.default_rng(13)
        legit = generate_random_pdt(3, 2, 0.2, rng)
        sessions = [run_interaction(PdtAgent(legit), PdtAgent(legit), 8, rng, rng) for _ in range(4)]
        pdt = fit_mle_pdt(3, 2, sessions)
        rows = pdt.probs
        assert np.any(rows == 0.0) and np.any(rows[:, :-1] == rows[:, 1:])
        self.assert_matches_reference(pdt, bfs_paths(3, 2))

    def test_sums_ending_below_one_give_the_last_action(self):
        # A literal row may sum to 1 - 1e-10; a u past its last sum is action n.
        nodes = np.array([[0.2, 0.3, 0.5 - 1e-10]] * node_count(3, 1))
        pdt = Pdt(3, 1, nodes)
        last = float(np.cumsum(nodes[0])[-1])
        assert last < 1.0
        for u in (np.nextafter(last, 2), (last + 1.0) / 2, np.nextafter(1.0, 0)):
            assert pdt.sample_action([2], FixedUniforms([float(u)])) == 3 == sample_action(nodes[0], u)
        self.assert_matches_reference(pdt, [[], [1]])

    def test_draws_one_uniform_per_action(self):
        pdt = generate_random_pdt(5, 3, 0.3, np.random.default_rng(14))
        a, b = np.random.default_rng(15), np.random.default_rng(15)
        contexts = [list(c) for c in np.random.default_rng(16).integers(1, 6, size=(500, 3))]
        got = [pdt.sample_action(c, a) for c in contexts]
        assert got == [sample_action(pdt.action_distribution(c), b.random()) for c in contexts]
        assert a.bit_generator.state == b.bit_generator.state


class TestGenerateRandomPdt:
    @pytest.mark.parametrize("n,k,expected", [(3, 5, 364), (10, 5, 111_111)])
    def test_node_count(self, n, k, expected):
        pdt = generate_random_pdt(n, k, 1.0, np.random.default_rng(0))
        assert pdt.num_nodes == expected == node_count(n, k)

    def test_same_seed_identical(self):
        a = generate_random_pdt(3, 3, 1.0, np.random.default_rng(12))
        b = generate_random_pdt(3, 3, 1.0, np.random.default_rng(12))
        assert np.array_equal(a.probs, b.probs)

    def test_logits_in_unit_interval(self):
        # Each row is the Boltzmann distribution of one row of unit draws.
        pdt = generate_random_pdt(3, 4, 0.4, np.random.default_rng(13))
        logits = np.random.default_rng(13).random((pdt.num_nodes, 3))
        assert np.array_equal(pdt.probs, [boltzmann(row, 0.4) for row in logits])

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            generate_random_pdt(1, 3, 1.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            generate_random_pdt(3, 0, 1.0, np.random.default_rng(0))

    def test_immutable_nodes(self):
        pdt = generate_random_pdt(3, 2, 1.0, np.random.default_rng(14))
        with pytest.raises(ValueError):
            pdt.probs[0, 0] = 5.0


class TestFitMle:
    def test_pure_count_normalization(self):
        # single node context, client plays 2 five times
        steps = [(1, 2)] * 5
        pdt = fit_mle_pdt(3, 1, [steps])
        assert np.array_equal(pdt.probs[0], [0.0, 1.0, 0.0])

    def test_unvisited_uniform(self):
        steps = [(1, 2)]
        pdt = fit_mle_pdt(3, 1, [steps])
        # child nodes never reached
        assert np.allclose(pdt.probs[3], [1 / 3] * 3)

    def test_count_ratios(self):
        # root sees each transcript's first client action: counts [1, 2, 1]
        transcripts = [[(1, 1)], [(1, 2)], [(1, 2)], [(1, 3)]]
        pdt = fit_mle_pdt(3, 1, transcripts)
        assert np.array_equal(pdt.probs[0], [0.25, 0.5, 0.25])

    def test_empty_transcripts(self):
        with pytest.raises(ValueError):
            fit_mle_pdt(3, 1, [])

    def test_consistency_on_generated_data(self):
        # every node visited >= 1000 times -> per-node TV distance <= 0.05
        rng = np.random.default_rng(15)
        true = generate_random_pdt(2, 1, 0.1, rng)
        server = generate_random_pdt(2, 1, 1.0, rng)
        from agentauth.engine import run_interaction

        transcripts = [
            run_interaction(PdtAgent(server), PdtAgent(true), 999, rng, rng)
            for _ in range(10)
        ]
        fitted = fit_mle_pdt(2, 1, transcripts)
        for node in range(true.num_nodes):
            tv = 0.5 * np.abs(fitted.probs[node] - true.probs[node]).sum()
            assert tv <= 0.05


class TestProbabilityTable:
    """Pdt holds one read-only (num_nodes, n) table of probabilities."""

    @staticmethod
    def uniform(n=3, depth=1):
        return np.full((node_count(n, depth), n), 1 / n)

    @pytest.mark.parametrize(
        "row", [[1.1, -0.1, 0.0], [0.5, 0.5, 1e-8], [np.nan, 0.5, 0.5], [np.inf, 0.0, 0.0]]
    )
    def test_invalid_row_rejected(self, row):
        probs = self.uniform()
        probs[2] = row
        with pytest.raises(ValueError, match="probabilities"):
            Pdt(3, 1, probs)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            Pdt(3, 2, self.uniform())

    def test_holds_its_own_read_only_copy(self):
        probs = self.uniform()
        pdt = Pdt(3, 1, probs)
        probs[0] = [1.0, 0.0, 0.0]
        assert pdt.probs[0, 0] == 1 / 3
        assert not pdt.probs.flags.writeable

    def test_fortran_ordered_table_held_in_row_order(self):
        probs = generate_random_pdt(3, 2, 0.5, np.random.default_rng(3)).probs
        pdt = Pdt(3, 2, np.asfortranarray(probs))
        assert pdt.probs.flags.c_contiguous
        assert np.array_equal(pdt.probs, probs)


def split_v2(path):
    header, newline, body = path.read_bytes().partition(b"\n")
    assert newline
    return json.loads(header), body


def write_v2(path, header, body):
    path.write_bytes(json.dumps(header).encode() + b"\n" + body)


def write_logit_file(path, n, depth, temperature, logits):
    """A version-2 file of logits, byte for byte as save_pdt wrote one before
    model files held probabilities."""
    body = np.ascontiguousarray(logits, dtype="<f8").tobytes()
    header = {
        "version": 2,
        "n_actions": n,
        "depth": depth,
        "temperature": temperature,
        "node_kind": "logit",
        "dtype": "<f8",
        "sha256": hashlib.sha256(body).hexdigest(),
    }
    write_v2(path, header, body)


class TestSaveLoad:
    def test_round_trip_bit_exact(self, tmp_path):
        pdt = generate_random_pdt(3, 3, 0.37, np.random.default_rng(16))
        path = tmp_path / "model.json"
        save_pdt(pdt, path)
        loaded = load_pdt(path)
        assert loaded.n_actions == pdt.n_actions
        assert loaded.depth == pdt.depth
        assert loaded.probs.tobytes() == pdt.probs.tobytes()

    def test_literal_round_trip(self, tmp_path):
        pdt = fit_mle_pdt(3, 1, [[(1, 2), (2, 1)]])
        path = tmp_path / "mle.json"
        save_pdt(pdt, path)
        assert split_v2(path)[0]["node_kind"] == "literal"
        assert np.array_equal(load_pdt(path).probs, pdt.probs)

    def test_wrong_node_count_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        write_logit_file(path, 3, 2, 1.0, [[0.1, 0.2, 0.3]] * 5)  # should be 13 rows
        with pytest.raises(ModelFormatError, match="does not match a tree with n=3, k=2"):
            load_pdt(path)

    def test_literal_body_of_non_probabilities_rejected(self, tmp_path):
        # Logits under a literal header: a valid checksum, but rows not summing to 1.
        path = tmp_path / "model.json"
        write_logit_file(path, 2, 1, 1.0, [[0.1, 0.2]] * 3)
        header, body = split_v2(path)
        write_v2(path, {**header, "node_kind": "literal"}, body)
        with pytest.raises(ModelFormatError, match="sum to 1"):
            load_pdt(path)

    def test_unknown_node_kind_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        save_pdt(generate_random_pdt(2, 1, 1.0, np.random.default_rng(20)), path)
        header, body = split_v2(path)
        write_v2(path, {**header, "node_kind": "cdf"}, body)
        with pytest.raises(ModelFormatError, match="node_kind"):
            load_pdt(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99}))
        with pytest.raises(UnsupportedVersionError):
            load_pdt(path)

    def test_version_1_refused(self, tmp_path):
        path = tmp_path / "v1.json"
        doc = {
            "version": 1,
            "n_actions": 2,
            "depth": 1,
            "temperature": 0.5,
            "node_kind": "logit",
            "nodes": [[0.25, 0.75], [0.0, 1.0], [1.0, -1.0]],
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(UnsupportedVersionError, match="version: 1"):
            load_pdt(path)

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 2, "n_actions": 2}))
        with pytest.raises(ModelFormatError, match="depth"):
            load_pdt(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ModelFormatError):
            load_pdt(path)


class TestModelFileV2:
    def test_paper_size_round_trip_bit_exact(self, tmp_path):
        pdt = generate_random_pdt(10, 5, 0.1, np.random.default_rng(17))
        path = tmp_path / "user.json"
        save_pdt(pdt, path)
        header, body = split_v2(path)
        assert header["version"] == 2 and header["dtype"] == "<f8"
        assert (header["node_kind"], header["temperature"]) == ("literal", 1.0)
        assert body == pdt.probs.tobytes()
        loaded = load_pdt(path)
        assert (loaded.n_actions, loaded.depth) == (10, 5)
        assert loaded.probs.tobytes() == pdt.probs.tobytes()

    def test_literal_with_exact_zeros_round_trip(self, tmp_path):
        pdt = fit_mle_pdt(3, 2, [[(1, 2), (2, 1), (3, 3), (1, 2)]])
        assert np.any(pdt.probs == 0.0)
        path = tmp_path / "mle.json"
        save_pdt(pdt, path)
        assert load_pdt(path).probs.tobytes() == pdt.probs.tobytes()

    def test_logit_file_refused(self, tmp_path):
        """A logit file, as gen-models wrote before files held probabilities,
        is refused by its node_kind; no load runs a softmax."""
        logits = np.random.default_rng(21).random((node_count(3, 2), 3))
        write_logit_file(tmp_path / "logit.json", 3, 2, 0.1, logits)
        with pytest.raises(ModelFormatError, match="node_kind 'logit'"):
            load_pdt(tmp_path / "logit.json")

    def _saved(self, tmp_path):
        path = tmp_path / "model.json"
        save_pdt(generate_random_pdt(3, 2, 1.0, np.random.default_rng(19)), path)
        return path

    def test_flipped_body_byte_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        header, body = split_v2(path)
        corrupt = bytearray(body)
        corrupt[37] ^= 0x01
        write_v2(path, header, bytes(corrupt))
        with pytest.raises(ModelFormatError, match="checksum"):
            load_pdt(path)

    @pytest.mark.parametrize("cut", [1, 8, 3 * 8])
    def test_truncated_body_rejected(self, tmp_path, cut):
        path = self._saved(tmp_path)
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(ModelFormatError, match="length"):
            load_pdt(path)

    @pytest.mark.parametrize("field,value", [("n_actions", 4), ("depth", 3), ("depth", 1)])
    def test_header_disagreeing_with_body_rejected(self, tmp_path, field, value):
        path = self._saved(tmp_path)
        header, body = split_v2(path)
        write_v2(path, {**header, field: value}, body)
        with pytest.raises(ModelFormatError, match="length"):
            load_pdt(path)

    def test_huge_declared_tree_fails_length_check(self, tmp_path):
        # node_count(3, 40) * 3 floats cannot be allocated: reaching the
        # length check first is the only way to get ModelFormatError here.
        path = self._saved(tmp_path)
        header, body = split_v2(path)
        write_v2(path, {**header, "depth": 40}, body)
        with pytest.raises(ModelFormatError, match="length"):
            load_pdt(path)

    @pytest.mark.parametrize("dtype", [">f8", "<f4", "float64"])
    def test_other_dtype_rejected(self, tmp_path, dtype):
        path = self._saved(tmp_path)
        header, body = split_v2(path)
        write_v2(path, {**header, "dtype": dtype}, body)
        with pytest.raises(ModelFormatError, match="dtype"):
            load_pdt(path)

    @pytest.mark.parametrize("field", ["dtype", "sha256"])
    def test_missing_v2_field_named(self, tmp_path, field):
        path = self._saved(tmp_path)
        header, body = split_v2(path)
        del header[field]
        write_v2(path, header, body)
        with pytest.raises(ModelFormatError, match=field):
            load_pdt(path)

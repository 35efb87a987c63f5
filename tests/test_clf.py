import dataclasses
import hashlib

import numpy as np
import pytest

from agentauth.clf import (
    Dataset,
    Mlp,
    TrainConfig,
    accuracy,
    classifier_test,
    encode_actions,
    encode_history,
    generate_dataset,
    load_classifier,
    save_classifier,
    train_classifier,
)
from agentauth.engine import InteractionHistory, run_interaction
from agentauth.models import PdtAgent, generate_random_pdt
from agentauth.adv import make_random_adversary, make_replay_adversary
import oracles
from oracles import decode_history


class TestEncoding:
    def test_definition_readoff(self):
        h = InteractionHistory(steps=[(1, 3)], n_actions=3)
        assert encode_history(h).tolist() == [1, 0, 0, 0, 0, 1]

    def test_one_hot_count(self):
        rng = np.random.default_rng(0)
        s = generate_random_pdt(3, 2, 1.0, rng)
        c = generate_random_pdt(3, 2, 0.5, rng)
        h = run_interaction(PdtAgent(s), PdtAgent(c), 17, rng, rng)
        v = encode_history(h)
        assert v.sum() == 2 * 18
        assert set(np.unique(v)) <= {0.0, 1.0}

    def test_decode_round_trip(self):
        rng = np.random.default_rng(1)
        s = generate_random_pdt(4, 2, 1.0, rng)
        c = generate_random_pdt(4, 2, 0.5, rng)
        h = run_interaction(PdtAgent(s), PdtAgent(c), 9, rng, rng)
        assert decode_history(encode_history(h), 4).steps == h.steps

    def test_batch_rows_equal_one_row_encodings(self):
        rng = np.random.default_rng(2)
        actions = rng.integers(1, 4, size=(5, 7, 2))
        rows = [encode_history(InteractionHistory([tuple(map(int, s)) for s in a], 3)) for a in actions]
        assert np.array_equal(encode_actions(actions, 3), np.stack(rows))


class TestMlp:
    def test_output_in_open_unit_interval(self):
        rng = np.random.default_rng(2)
        model = Mlp(12, 8, seed=3)
        x = rng.normal(size=(50, 12)) * 10
        p = model.forward(x)
        assert np.all(p > 0) and np.all(p < 1)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        model = Mlp(5, 4, seed=5)
        x = rng.normal(size=(7, 5))
        y = rng.integers(0, 2, size=7).astype(float)
        _, gw, gb = model.loss_and_grads(x, y)
        eps = 1e-6

        def loss():
            return model.loss_and_grads(x, y)[0]

        for params, grads in ((model.weights, gw), (model.biases, gb)):
            for layer, grad in zip(params, grads):
                flat = layer.reshape(-1)
                gflat = grad.reshape(-1)
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + eps
                    up = loss()
                    flat[i] = orig - eps
                    down = loss()
                    flat[i] = orig
                    numeric = (up - down) / (2 * eps)
                    denom = max(abs(numeric), abs(gflat[i]), 1e-8)
                    assert abs(numeric - gflat[i]) / denom < 1e-4

    def test_checkpoint_round_trip(self, tmp_path):
        model = Mlp(6, 4, seed=6)
        path = tmp_path / "clf.json"
        save_classifier(model, path, 3, 0)
        loaded, n, l = load_classifier(path)
        assert (n, l) == (3, 0)
        x = np.random.default_rng(7).normal(size=(3, 6))
        assert np.allclose(model.forward(x), loaded.forward(x))

    def test_checkpoint_of_other_width_not_saved(self, tmp_path):
        path = tmp_path / "clf.json"
        with pytest.raises(ValueError, match="encodes to 12"):
            save_classifier(Mlp(6, 4), path, 3, 1)
        assert not path.exists()


class TestTraining:
    def _toy_dataset(self):
        # two constant transcripts: linearly separable
        a = InteractionHistory(steps=[(1, 1)] * 5, n_actions=2)
        b = InteractionHistory(steps=[(2, 2)] * 5, n_actions=2)
        xa, xb = encode_history(a), encode_history(b)
        x = np.stack([xa, xb] * 20)
        y = np.array([1.0, 0.0] * 20)
        return Dataset(x_train=x, y_train=y, x_test=x[:4], y_test=y[:4])

    def test_separable_sanity(self):
        ds = self._toy_dataset()
        cfg = TrainConfig(n_legit=1, n_adv=1, epochs=50, batch_size=8, hidden=16, seed=8)
        model = train_classifier(ds, cfg)
        assert accuracy(model, ds.x_test, ds.y_test) == 1.0

    def test_loss_decreases(self):
        ds = self._toy_dataset()
        cfg = TrainConfig(n_legit=1, n_adv=1, epochs=30, batch_size=8, hidden=16, seed=9)
        before = Mlp(ds.x_train.shape[1], 16, seed=9).loss_and_grads(
            ds.x_train, ds.y_train
        )[0]
        model = train_classifier(ds, cfg)
        after = model.loss_and_grads(ds.x_train, ds.y_train)[0]
        assert after < before

    def test_deterministic_given_seed(self):
        ds = self._toy_dataset()
        cfg = TrainConfig(n_legit=1, n_adv=1, epochs=5, batch_size=8, hidden=16, seed=10)
        m1 = train_classifier(ds, cfg)
        m2 = train_classifier(ds, cfg)
        for w1, w2 in zip(m1.weights, m2.weights):
            assert np.array_equal(w1, w2)

    def test_weights_and_biases_keep_their_digest(self):
        """Pinned to the digest of the trained parameters taken before the
        weight and bias Adam updates became one loop."""
        rng = np.random.default_rng(5)
        s = generate_random_pdt(3, 2, 1.0, rng)
        u = generate_random_pdt(3, 2, 0.1, rng)
        cfg = TrainConfig(n_legit=60, n_adv=60, epochs=3, batch_size=16, hidden=8, seed=6)
        ds = generate_dataset(
            s, u, lambda rg: make_random_adversary(3, 2, 0.1, rg), cfg, 10, rng
        )
        model = train_classifier(ds, cfg)
        digest = hashlib.sha256()
        for array in model.weights + model.biases:
            digest.update(array.tobytes())
        assert (
            digest.hexdigest()
            == "29a5813202cd021d8aedc79d7798b6dd070fbc29c747b457f589232ccf64936e"
        )

    def test_single_label_rejected(self):
        ds = self._toy_dataset()
        ds = dataclasses.replace(ds, y_train=np.ones_like(ds.y_train))
        with pytest.raises(ValueError):
            train_classifier(ds, TrainConfig(seed=0))

    def test_shuffled_labels_chance_level(self):
        rng = np.random.default_rng(11)
        s = generate_random_pdt(3, 2, 1.0, rng)
        u = generate_random_pdt(3, 2, 0.1, rng)
        cfg = TrainConfig(n_legit=200, n_adv=200, epochs=10, hidden=32, seed=12)
        ds = generate_dataset(
            s, u, lambda rg: make_random_adversary(3, 2, 0.1, rg), cfg, 40, rng
        )
        shuffled = dataclasses.replace(
            ds, y_train=np.random.default_rng(13).permutation(ds.y_train)
        )
        model = train_classifier(shuffled, cfg)
        assert 0.4 <= accuracy(model, ds.x_test, ds.y_test) <= 0.6


class TestDataset:
    def test_balanced_labels(self):
        rng = np.random.default_rng(14)
        s = generate_random_pdt(3, 2, 1.0, rng)
        u = generate_random_pdt(3, 2, 0.1, rng)
        cfg = TrainConfig(n_legit=50, n_adv=50, seed=15)
        ds = generate_dataset(
            s, u, lambda rg: make_random_adversary(3, 2, 0.1, rg), cfg, 10, rng
        )
        total = np.concatenate([ds.y_train, ds.y_test])
        assert total.sum() == 50
        assert len(total) == 100

    def test_self_population_chance_level(self):
        # adversary population == the legitimate model: classes coincide
        rng = np.random.default_rng(16)
        s = generate_random_pdt(3, 2, 1.0, rng)
        u = generate_random_pdt(3, 2, 0.1, rng)
        cfg = TrainConfig(n_legit=300, n_adv=300, epochs=10, hidden=32, seed=17)
        ds = generate_dataset(s, u, lambda rg: PdtAgent(u), cfg, 30, rng)
        model = train_classifier(ds, cfg)
        assert 0.3 <= accuracy(model, ds.x_test, ds.y_test) <= 0.7


class TestDatasetEqualsScalarLoop:
    @staticmethod
    def _both(factory, cfg, l, seed):
        rng = np.random.default_rng(seed)
        s = generate_random_pdt(3, 3, 1.0, rng)
        u = generate_random_pdt(3, 3, 0.1, rng)
        batched, scalar = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        got = generate_dataset(s, u, factory(u), cfg, l, batched)
        want = oracles.generate_dataset(s, u, factory(u), cfg, l, scalar)
        return got, want, batched, scalar

    @pytest.mark.parametrize("l", [0, 1, 40])
    @pytest.mark.parametrize(
        "factory",
        [
            lambda u: lambda rg: make_random_adversary(3, 3, 0.1, rg),
            lambda u: lambda rg: PdtAgent(u),
        ],
        ids=["random", "self"],
    )
    def test_byte_equal_with_same_generator_state(self, factory, l):
        cfg = TrainConfig(n_legit=13, n_adv=11)
        got, want, batched, scalar = self._both(factory, cfg, l, 30 + l)
        for name in ("x_train", "y_train", "x_test", "y_test"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        assert batched.bit_generator.state == scalar.bit_generator.state

    def test_adversary_of_other_depth_refused(self):
        cfg = TrainConfig(n_legit=2, n_adv=2)
        with pytest.raises(ValueError):
            self._both(lambda u: lambda rg: make_random_adversary(3, 2, 0.1, rg), cfg, 5, 1)

    def test_non_pdt_factory_refused(self):
        rng = np.random.default_rng(2)
        s = generate_random_pdt(3, 3, 1.0, rng)
        u = generate_random_pdt(3, 3, 0.1, rng)
        recorded = run_interaction(PdtAgent(s), PdtAgent(u), 5, rng, rng)
        cfg = TrainConfig(n_legit=2, n_adv=2)
        with pytest.raises(TypeError):
            generate_dataset(s, u, lambda rg: make_replay_adversary(recorded), cfg, 5, rng)


class TestClassifierTest:
    def test_threshold_and_tie_break(self):
        model = Mlp(6, 4, seed=18)
        for w in model.weights:
            w[:] = 0.0
        h = InteractionHistory(steps=[(1, 1)] * 1, n_actions=3)
        verdict = classifier_test(model, h)
        # all-zero network outputs exactly 0.5, which must reject
        assert verdict.score == 0.5
        assert not verdict.accept

    def test_accept_reject_readoff(self):
        model = Mlp(6, 4, seed=19)
        model.biases[-1][:] = 5.0
        h = InteractionHistory(steps=[(1, 1)], n_actions=3)
        assert classifier_test(model, h).accept
        model.biases[-1][:] = -5.0
        assert not classifier_test(model, h).accept

    def test_shape_mismatch(self):
        model = Mlp(10, 4, seed=20)
        h = InteractionHistory(steps=[(1, 1)], n_actions=3)
        with pytest.raises(ValueError):
            classifier_test(model, h)

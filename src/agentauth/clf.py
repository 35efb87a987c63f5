"""Supervised-learning authentication test.

Transcripts are one-hot encoded and fed to a small feedforward network
(two rectifier hidden layers, logistic output) trained from scratch with
mini-batch Adam on binary cross-entropy.  Label 1 means "legitimate client".
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from agentauth.engine import InteractionHistory, run_pdt_sessions
from agentauth.hypo import AuthVerdict
from agentauth.models import Pdt

DECISION_THRESHOLD = 0.5


@dataclass
class TrainConfig:
    n_legit: int = 4000
    n_adv: int = 4000
    epochs: int = 20
    batch_size: int = 64
    learning_rate: float = 1e-3
    hidden: int = 128
    seed: int = 0

    def __post_init__(self):
        for name in ("n_legit", "n_adv", "epochs", "batch_size", "hidden"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


def encode_actions(actions, n_actions: int) -> np.ndarray:
    """One-hot rows for a (B, steps, 2) array of actions in 1..n: per step,
    the server's block of n then the client's, so row b has 2 * steps * n
    entries."""
    actions = np.asarray(actions)
    return np.eye(n_actions)[actions - 1].reshape(len(actions), -1)


def encode_history(history: InteractionHistory) -> np.ndarray:
    """encode_actions of one transcript."""
    steps = np.asarray(history.steps, dtype=np.int64).reshape(1, -1, 2)
    return encode_actions(steps, history.n_actions)[0]


@dataclass
class Dataset:
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray


def generate_dataset(
    server: Pdt,
    legit: Pdt,
    adversary_factory,
    cfg: TrainConfig,
    l: int,
    rng: np.random.Generator,
    holdout_frac: float = 0.1,
) -> Dataset:
    """Labeled transcripts: cfg.n_legit sessions vs the legitimate model and
    cfg.n_adv sessions each vs a freshly built adversary, shuffled and split
    train / held-out.  Every adversarial transcript gets its own adversary, so
    no adversary model is shared between the splits.

    adversary_factory(rng) must return a PdtAgent (TypeError otherwise) of
    the legitimate model's n and depth.  All sessions run as one
    engine.run_pdt_sessions batch, with the generator drawn in the order of
    one run_interaction call per session, so the dataset and the generator's
    state afterwards are those of that scalar loop.
    """
    uniforms = [rng.random((cfg.n_legit, l + 1, 2))]
    clients = [legit] * cfg.n_legit
    for _ in range(cfg.n_adv):
        pdt = getattr(adversary_factory(rng), "pdt", None)
        if not isinstance(pdt, Pdt):
            raise TypeError("adversary_factory must return a PdtAgent")
        clients.append(pdt)
        uniforms.append(rng.random((1, l + 1, 2)))
    actions = run_pdt_sessions(server, clients, np.concatenate(uniforms))
    x = encode_actions(actions, server.n_actions)
    y = np.repeat([1.0, 0.0], [cfg.n_legit, cfg.n_adv])
    perm = rng.permutation(len(y))
    x, y = x[perm], y[perm]
    n_test = max(1, int(round(holdout_frac * len(y))))
    return Dataset(
        x_train=x[n_test:], y_train=y[n_test:], x_test=x[:n_test], y_test=y[:n_test]
    )


class Mlp:
    """[input, hidden, hidden, 1] network, rectifier activations, logistic
    output.  Weights start uniform scaled by 1/sqrt(fan_in) from a fixed seed."""

    def __init__(self, input_size: int, hidden: int, seed: int = 0):
        rng = np.random.default_rng(seed)
        sizes = [input_size, hidden, hidden, 1]
        self.sizes = sizes
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            self.weights.append(rng.uniform(-bound, bound, (fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))

    def _layers(self, x: np.ndarray):
        """The input of every layer, then the output probabilities."""
        acts = [x]
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            acts.append(np.maximum(acts[-1] @ w + b, 0.0))
        logits = acts[-1] @ self.weights[-1] + self.biases[-1]
        return acts, _sigmoid(logits[:, 0])

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Probabilities in (0, 1), shape (batch,)."""
        return self._layers(x)[1]

    def loss_and_grads(self, x: np.ndarray, y: np.ndarray):
        """Mean binary cross-entropy and its gradients."""
        acts, p = self._layers(x)
        eps = 1e-12
        loss = float(-np.mean(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps)))
        m = len(y)
        delta = ((p - y) / m)[:, None]
        grads_w, grads_b = [], []
        for i in range(len(self.weights) - 1, -1, -1):
            grads_w.append(acts[i].T @ delta)
            grads_b.append(delta.sum(axis=0))
            if i > 0:
                delta = (delta @ self.weights[i].T) * (acts[i] > 0)
        return loss, grads_w[::-1], grads_b[::-1]

    def to_dict(self) -> dict:
        return {
            "sizes": self.sizes,
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Mlp":
        model = cls(doc["sizes"][0], doc["sizes"][1])
        model.weights = [np.array(w) for w in doc["weights"]]
        model.biases = [np.array(b) for b in doc["biases"]]
        return model


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def train_classifier(dataset: Dataset, cfg: TrainConfig) -> Mlp:
    """Mini-batch Adam on binary cross-entropy; deterministic given cfg.seed."""
    y = dataset.y_train
    if len(y) == 0 or len(np.unique(y)) < 2:
        raise ValueError("training set must contain both labels")
    rng = np.random.default_rng(cfg.seed)
    model = Mlp(dataset.x_train.shape[1], cfg.hidden, seed=cfg.seed)
    params = model.weights + model.biases  # the model's own arrays, updated in place
    mean = [np.zeros_like(a) for a in params]
    sq = [np.zeros_like(a) for a in params]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    for _ in range(cfg.epochs):
        perm = rng.permutation(len(y))
        for start in range(0, len(y), cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            _, gw, gb = model.loss_and_grads(dataset.x_train[idx], y[idx])
            step += 1
            corr1 = 1 - beta1**step
            corr2 = 1 - beta2**step
            for i, g in enumerate(gw + gb):
                mean[i] = beta1 * mean[i] + (1 - beta1) * g
                sq[i] = beta2 * sq[i] + (1 - beta2) * g**2
                params[i] -= cfg.learning_rate * (mean[i] / corr1) / (
                    np.sqrt(sq[i] / corr2) + eps
                )
    return model


def accuracy(model: Mlp, x: np.ndarray, y: np.ndarray) -> float:
    pred = model.forward(x) > DECISION_THRESHOLD
    return float(np.mean(pred == (y > 0.5)))


def classifier_test(model: Mlp, history: InteractionHistory) -> AuthVerdict:
    """Accept iff the network's output strictly exceeds 0.5."""
    x = encode_history(history)[None, :]
    if x.shape[1] != model.sizes[0]:
        raise ValueError(
            f"encoded history has length {x.shape[1]}, model expects {model.sizes[0]}"
        )
    score = float(model.forward(x)[0])
    return AuthVerdict(
        accept=score > DECISION_THRESHOLD,
        score=score,
        threshold=DECISION_THRESHOLD,
        method="classifier",
    )


def save_classifier(model: Mlp, path, n_actions: int, l: int) -> None:
    """Write the network with the n and l of the transcripts it reads."""
    width = 2 * (l + 1) * n_actions
    if model.sizes[0] != width:
        raise ValueError(
            f"model takes {model.sizes[0]} inputs, but n={n_actions}, l={l} encodes to {width}"
        )
    with open(path, "w") as f:
        json.dump({**model.to_dict(), "n_actions": n_actions, "l": l}, f)


def load_classifier(path) -> tuple[Mlp, int | None, int | None]:
    """The network and the n and l it was saved with, None where the file
    does not record them."""
    with open(path) as f:
        doc = json.load(f)
    return Mlp.from_dict(doc), doc.get("n_actions"), doc.get("l")

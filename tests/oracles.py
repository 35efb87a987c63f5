"""Reference helpers that only tests use: each restates a definition plainly
so the program's vectorised code can be checked against it."""

import numpy as np

from agentauth.clf import Dataset, encode_history
from agentauth.engine import InteractionHistory, run_interaction
from agentauth.hypo import (
    _analytic_moments,
    _normal_two_sided,
    action_scores,
    observed_scores,
    score_tables,
    step_distributions,
)
from agentauth.models import PdtAgent


def step_score(observed: int, q) -> float:
    """Score of one observed action under one conditional distribution q."""
    q = np.asarray(q, dtype=np.float64)
    if not 1 <= observed <= q.size:
        raise ValueError(f"observed action {observed} out of range 1..{q.size}")
    if abs(float(q.sum()) - 1.0) > 1e-9 or np.any(q < 0):
        raise ValueError("q must be a probability vector")
    return float(action_scores(q)[observed - 1])


def incremental_p(history: InteractionHistory, model) -> float:
    """Normal-approximation p over a whole (possibly partial) transcript, the
    batch counterpart of RunningPValue."""
    if history.length < 1:
        raise ValueError("need at least one step")
    q = step_distributions(history.server_actions(), model, history.length)
    scores = score_tables(q)
    mean, variance = _analytic_moments(q, scores)
    z = float(np.mean(observed_scores(scores, history.client_actions())))
    return _normal_two_sided(z, mean, variance)


def decode_history(vector, n_actions: int) -> InteractionHistory:
    """Inverse of clf.encode_history for valid encodings."""
    vector = np.asarray(vector)
    if vector.size % (2 * n_actions) != 0:
        raise ValueError("vector length is not a multiple of 2*n_actions")
    steps = [
        (int(np.argmax(srv)) + 1, int(np.argmax(cli)) + 1)
        for srv, cli in vector.reshape(-1, 2, n_actions)
    ]
    return InteractionHistory(steps=steps, n_actions=n_actions)


def generate_dataset(server, legit, adversary_factory, cfg, l, rng, holdout_frac=0.1):
    """clf.generate_dataset as one scalar run_interaction per session."""
    xs, ys = [], []
    server_agent = PdtAgent(server)
    legit_agent = PdtAgent(legit)
    for _ in range(cfg.n_legit):
        h = run_interaction(server_agent, legit_agent, l, rng, rng)
        xs.append(encode_history(h))
        ys.append(1.0)
    for _ in range(cfg.n_adv):
        h = run_interaction(server_agent, adversary_factory(rng), l, rng, rng)
        xs.append(encode_history(h))
        ys.append(0.0)
    x = np.stack(xs)
    y = np.array(ys)
    perm = rng.permutation(len(y))
    x, y = x[perm], y[perm]
    n_test = max(1, int(round(holdout_frac * len(y))))
    return Dataset(
        x_train=x[n_test:], y_train=y[n_test:], x_test=x[:n_test], y_test=y[:n_test]
    )

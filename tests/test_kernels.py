"""The vectorised tree-walk, scoring and sampling kernels against the
per-step loops they replaced.

The loops below are the reference implementations: each kernel must give the
same bytes, and consume the generator the same way, for the same seed.
"""

import hashlib
import struct

import numpy as np
import pytest

from agentauth.adv import make_mle_adversary, make_random_adversary, make_replay_adversary
from agentauth.engine import KEY_QUANT_BITS, derive_key, run_interaction
from agentauth.hypo import (
    _analytic_moments,
    _normal_two_sided,
    action_scores,
    incremental_p,
    null_summary,
    p_value,
    score_tables,
)
from agentauth.hypo import test_statistic as statistic
from agentauth.models import (
    Pdt,
    PdtAgent,
    fit_mle_pdt,
    generate_random_pdt,
    node_count,
    node_path,
)
from agentauth.rl import p_curve

# ---------------------------------------------------------------- reference loops


def loop_step_distributions(server_actions, model, steps):
    return np.array(
        [model.action_distribution(list(server_actions)[:t]) for t in range(steps)]
    ).reshape(steps, model.n_actions)


def loop_score_tables(q):
    return np.stack([action_scores(row) for row in q])


def loop_draws(q, scores, M, rng):
    steps, n = q.shape
    cum = np.cumsum(q, axis=1)
    u = rng.random((M, steps))
    sampled = np.empty((M, steps))
    for t in range(steps):
        idx = np.minimum(np.searchsorted(cum[t], u[:, t], side="right"), n - 1)
        sampled[:, t] = scores[t, idx]
    return sampled


def loop_null_samples(server_actions, model, M, rng):
    q = loop_step_distributions(server_actions, model, len(server_actions))
    scores = loop_score_tables(q)
    mean, _ = _analytic_moments(q, scores)
    return mean, loop_draws(q, scores, M, rng).mean(axis=1)


def loop_statistic(history, model):
    q = loop_step_distributions(history.server_actions(), model, history.length)
    scores = np.array(
        [action_scores(q[t])[c - 1] for t, c in enumerate(history.client_actions())]
    )
    return float(scores.mean())


def loop_p_value(history, model, M, rng):
    mean, samples = loop_null_samples(history.server_actions(), model, M, rng)
    d = abs(loop_statistic(history, model) - mean)
    return (1 + int(np.count_nonzero(np.abs(samples - mean) >= d))) / (M + 1)


def loop_incremental_p(history, model):
    q = loop_step_distributions(history.server_actions(), model, history.length)
    scores = loop_score_tables(q)
    mean, variance = _analytic_moments(q, scores)
    z = float(np.mean([scores[t, c - 1] for t, c in enumerate(history.client_actions())]))
    return _normal_two_sided(z, mean, variance)


def loop_derive_key(history, model):
    h = hashlib.sha256()
    server_hist = []
    for a_s, a_c in history.steps:
        q = model.action_distribution(server_hist)
        h.update(struct.pack(">Q", round(float(q[a_c - 1]) * (1 << KEY_QUANT_BITS))))
        server_hist.append(a_s)
    return h.digest()


def loop_p_curve(server_agent, client_agent, legit, steps, M, rng):
    history = run_interaction(
        server_agent, client_agent, steps - 1, rng, rng, n_actions=legit.n_actions
    )
    q = loop_step_distributions(history.server_actions(), legit, steps)
    scores = loop_score_tables(q)
    s_obs = np.array([scores[t, c - 1] for t, c in enumerate(history.client_actions())])
    means = (q * scores).sum(axis=1)
    sampled = loop_draws(q, scores, M, rng)
    lengths = np.arange(1, steps + 1)
    z_obs = np.cumsum(s_obs) / lengths
    null_mean = np.cumsum(means) / lengths
    z_null = np.cumsum(sampled, axis=1) / lengths
    extreme = (np.abs(z_null - null_mean) >= np.abs(z_obs - null_mean)).sum(axis=0)
    return (1 + extreme) / (M + 1)


def loop_fit_mle(n_actions, depth, transcripts, role):
    counts = np.zeros((node_count(n_actions, depth), n_actions))
    scratch = Pdt(n_actions, depth, 1.0, np.zeros((node_count(n_actions, depth), n_actions)))
    for steps in (getattr(t, "steps", t) for t in transcripts):
        window = []
        for a_s, a_c in steps:
            own, opp = (a_c, a_s) if role == "client" else (a_s, a_c)
            counts[scratch.node_index(window), own - 1] += 1
            window.append(opp)
            if len(window) > depth:
                window.pop(0)
    totals = counts.sum(axis=1, keepdims=True)
    return np.where(totals > 0, counts / np.where(totals > 0, totals, 1), 1.0 / n_actions)


# ---------------------------------------------------------------- node_path


class TestNodePath:
    @pytest.mark.parametrize("n", [2, 3, 10])
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_matches_node_index_of_window(self, n, k):
        pdt = Pdt(n, k, 1.0, np.zeros((node_count(n, k), n)))
        actions = list(np.random.default_rng(n * 10 + k).integers(1, n + 1, size=201))
        for steps in (0, 1, k, k + 1, 201):
            expected = [pdt.node_index(actions[max(0, t - k):t]) for t in range(steps)]
            got = node_path(actions, n, k, steps)
            assert got.shape == (steps,)
            assert got.tolist() == expected

    @pytest.mark.parametrize("bad", [0, 4])
    def test_rejects_out_of_range_action(self, bad):
        with pytest.raises(ValueError, match="out of range"):
            node_path([1, 2, bad, 3], 3, 2, 5)

    def test_reads_only_actions_before_the_last_step(self):
        # The last opponent action conditions no step, as in the loop it replaces.
        assert node_path([1, 2, 99], 3, 2, 3).tolist() == [0, 1, 5]

    def test_too_few_actions(self):
        with pytest.raises(ValueError, match="opponent actions"):
            node_path([1], 3, 2, 4)


# ---------------------------------------------------------------- score_tables


class TestScoreTables:
    def test_matches_rowwise_action_scores(self):
        rng = np.random.default_rng(7)
        rows = [
            rng.dirichlet(np.ones(10), size=50),
            np.full((4, 3), 1 / 3),  # all tied
            np.array([[0.5, 0.0, 0.5], [1.0, 0.0, 0.0], [0.0, 0.25, 0.75]]),  # exact zeros
            np.array([[0.2, 0.4, 0.2, 0.2], [0.1, 0.1, 0.4, 0.4]]),  # partial ties
        ]
        for q in rows:
            assert score_tables(q).tobytes() == loop_score_tables(q).tobytes()

    def test_mle_literal_tree(self):
        rng = np.random.default_rng(3)
        legit = generate_random_pdt(3, 2, 0.3, rng)
        server = generate_random_pdt(3, 2, 1.0, rng)
        observed = [
            run_interaction(PdtAgent(server), PdtAgent(legit), 6, rng, rng) for _ in range(3)
        ]
        q = fit_mle_pdt(3, 2, observed).node_probs(slice(None))
        assert np.any(q == 0.0)
        assert score_tables(q).tobytes() == loop_score_tables(q).tobytes()


# ---------------------------------------------------------------- fit_mle_pdt


@pytest.mark.parametrize("role", ["client", "server"])
@pytest.mark.parametrize("n,k,l,sessions", [(3, 2, 20, 5), (10, 5, 200, 4), (2, 3, 0, 3)])
def test_fit_mle_matches_loop(role, n, k, l, sessions):
    rng = np.random.default_rng(n + k + l)
    a = generate_random_pdt(n, k, 1.0, rng)
    b = generate_random_pdt(n, k, 0.3, rng)
    observed = [run_interaction(PdtAgent(a), PdtAgent(b), l, rng, rng) for _ in range(sessions)]
    observed.append([])  # an empty transcript fits nothing
    fitted = fit_mle_pdt(n, k, observed, role=role)
    assert fitted.nodes.tobytes() == loop_fit_mle(n, k, observed, role).tobytes()


# ---------------------------------------------------------------- golden outputs

# (n, k, l, client temperature, M): paper defaults, criterion-7 and probe
# dimensions, short sessions, and n=2 with one and two steps.
DIMENSIONS = [
    (10, 5, 200, 0.1, 1000),
    (3, 2, 60, 0.3, 400),
    (3, 5, 100, 0.1, 300),
    (2, 1, 0, 0.3, 200),
    (2, 3, 1, 0.3, 200),
    (2, 2, 8, 0.3, 200),
    (10, 5, 10, 0.1, 300),
]
CLIENTS = ["legit", "mle", "random", "replay"]
SEEDS = [0, 1]


@pytest.fixture(scope="module")
def worlds():
    """Per dimension: server and user models, an MLE copy fitted from three
    sessions (a literal tree with exact zeros), and a random impostor."""
    out = {}
    for i, (n, k, l, tau, _) in enumerate(DIMENSIONS):
        rng = np.random.default_rng(500 + i)
        server = generate_random_pdt(n, k, 1.0, rng)
        user = generate_random_pdt(n, k, tau, rng)
        observed = [
            run_interaction(PdtAgent(server), PdtAgent(user), l, rng, rng) for _ in range(3)
        ]
        out[i] = {
            "server": server,
            "user": user,
            "recorded": observed[0],
            "mle": make_mle_adversary(observed, n, k),
            "random": make_random_adversary(n, k, tau, rng),
        }
    return out


def _client(world, kind):
    if kind == "legit":
        return PdtAgent(world["user"])
    if kind == "replay":
        return make_replay_adversary(world["recorded"])
    return world[kind]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", CLIENTS)
@pytest.mark.parametrize("dim", range(len(DIMENSIONS)))
def test_golden_outputs_match_loops(worlds, dim, kind, seed):
    _, _, l, _, M = DIMENSIONS[dim]
    world = worlds[dim]
    server = PdtAgent(world["server"])
    rng = np.random.default_rng(1000 * dim + seed)
    history = run_interaction(server, _client(world, kind), l, rng, rng)
    # Score against the user's tree and against the MLE copy, whose zeros
    # make ties and repeated CDF values.
    for model in (world["user"], world["mle"].pdt):
        rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
        assert p_value(history, model, M, rng_new) == loop_p_value(history, model, M, rng_old)
        assert rng_new.random() == rng_old.random()  # same number of draws
        summary = null_summary(history.server_actions(), model, M, np.random.default_rng(seed))
        mean, samples = loop_null_samples(
            history.server_actions(), model, M, np.random.default_rng(seed)
        )
        assert summary.mean == mean
        assert summary.mc_samples.tobytes() == samples.tobytes()
        assert statistic(history, model) == loop_statistic(history, model)
        assert derive_key(history, model) == loop_derive_key(history, model)
        assert incremental_p(history, model) == loop_incremental_p(history, model)
    curves = [
        curve(server, _client(world, kind), world["user"], l + 1, M, np.random.default_rng(seed))
        for curve in (p_curve, loop_p_curve)
    ]
    assert curves[0].tobytes() == curves[1].tobytes()

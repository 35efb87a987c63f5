"""The vectorised tree-walk and scoring kernels against the per-step loops
they replaced, and the null tail against exact enumeration.

The loops below are the reference implementations: each kernel must give the
same bytes, and consume the generator the same way, for the same seed.  The
null tail is checked against listing every client action sequence where
there are at most 2^16 of them, on both sides of the switch from exact
convolution to the saddle point.
"""

import hashlib
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from agentauth.adv import make_mle_adversary, make_random_adversary, make_replay_adversary
from agentauth.engine import KEY_QUANT_BITS, InteractionHistory, derive_key, run_interaction
from agentauth.hypo import (
    _normal_two_sided,
    p_value,
    score_tables,
)
from agentauth.hypo import test_statistic as statistic
from agentauth.models import (
    PdtAgent,
    fit_mle_pdt,
    generate_random_pdt,
    load_pdt,
    node_count,
    node_path,
    save_pdt,
)
from agentauth.rl import p_curve
from oracles import (
    action_scores,
    analytic_moments,
    convolved_exactly,
    enumerated_p,
    incremental_p,
    node_index,
    support_size,
)

# ---------------------------------------------------------------- reference loops


def loop_step_distributions(server_actions, model, steps):
    return np.array(
        [model.action_distribution(list(server_actions)[:t]) for t in range(steps)]
    ).reshape(steps, model.n_actions)


def loop_score_tables(q):
    return np.stack([action_scores(row) for row in q])


def loop_statistic(history, model):
    q = loop_step_distributions(history.server_actions(), model, history.length)
    scores = np.array(
        [action_scores(q[t])[c - 1] for t, c in enumerate(history.client_actions())]
    )
    return float(scores.mean())


def loop_incremental_p(history, model):
    q = loop_step_distributions(history.server_actions(), model, history.length)
    scores = loop_score_tables(q)
    mean, variance = analytic_moments(q, scores)
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


def loop_p_curve(server_agent, client_agent, legit, steps, rng):
    history = run_interaction(
        server_agent, client_agent, steps - 1, rng, rng, n_actions=legit.n_actions
    )
    return np.array(
        [
            p_value(InteractionHistory(history.steps[: j + 1], legit.n_actions), legit)
            for j in range(steps)
        ]
    )


def loop_fit_mle(n_actions, depth, transcripts, role):
    counts = np.zeros((node_count(n_actions, depth), n_actions))
    for steps in (getattr(t, "steps", t) for t in transcripts):
        window = []
        for a_s, a_c in steps:
            own, opp = (a_c, a_s) if role == "client" else (a_s, a_c)
            counts[node_index(n_actions, depth, window), own - 1] += 1
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
        actions = list(np.random.default_rng(n * 10 + k).integers(1, n + 1, size=201))
        for steps in (0, 1, k, k + 1, 201):
            expected = [node_index(n, k, actions[max(0, t - k):t]) for t in range(steps)]
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
        q = fit_mle_pdt(3, 2, observed).probs
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
    assert fitted.probs.tobytes() == loop_fit_mle(n, k, observed, role).tobytes()


# ---------------------------------------------------------------- model files


def test_sessions_through_a_saved_model_keep_their_digest(tmp_path):
    """Steps, p-values and keys of 30 paper-default sessions, scored with the
    generated user tree and with its save/load copy, hashed into one digest
    taken before model files stored probabilities."""
    rng = np.random.default_rng(18)
    server = generate_random_pdt(10, 5, 1.0, rng)
    user = generate_random_pdt(10, 5, 0.1, rng)
    save_pdt(user, tmp_path / "user.json")
    loaded = load_pdt(tmp_path / "user.json")
    digest = hashlib.sha256()
    for _ in range(30):
        history = run_interaction(PdtAgent(server), PdtAgent(user), 200, rng, rng)
        digest.update(np.asarray(history.steps, dtype="<i8").tobytes())
        for model in (user, loaded):
            digest.update(struct.pack("<d", p_value(history, model)))
            digest.update(derive_key(history, model))
    assert digest.hexdigest() == "fac201dcd48c10fa9cede615b5f49059bc465e2fdab24946230d7608b18626b4"


LOAD_AND_HASH = """
import hashlib, sys
from agentauth.models import load_pdt
print(hashlib.sha256(load_pdt(sys.argv[1]).probs.tobytes()).hexdigest())
"""


def test_saved_model_loads_to_the_same_table_on_reduced_simd(tmp_path):
    """A process whose numpy may not use AVX-512 loads a paper-size model
    file to the table this process saved: loading runs no arithmetic, so the
    CPU's SIMD path cannot move a bit of it."""
    user = generate_random_pdt(10, 5, 0.1, np.random.default_rng(19))
    save_pdt(user, tmp_path / "user.json")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {
        **os.environ,
        "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
        "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
    }
    proc = subprocess.run(
        [sys.executable, "-c", LOAD_AND_HASH, str(tmp_path / "user.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == hashlib.sha256(user.probs.tobytes()).hexdigest()


# ---------------------------------------------------------------- golden outputs

# (n, k, l, client temperature): paper defaults, criterion-7 dimensions,
# short sessions, n=2 with one and two steps, and the probe dimensions.
DIMENSIONS = [
    (10, 5, 200, 0.1),
    (3, 2, 60, 0.3),
    (3, 5, 100, 0.1),
    (2, 1, 0, 0.3),
    (2, 3, 1, 0.3),
    (2, 2, 8, 0.3),
    (10, 5, 10, 0.1),
    (3, 5, 100, 0.5),
]
CLIENTS = ["legit", "mle", "random", "replay"]
SEEDS = [0, 1]
ENUMERABLE = 1 << 16  # the oracle lists at most this many sequences


@pytest.fixture(scope="module")
def worlds():
    """Per dimension: server and user models, an MLE copy fitted from three
    sessions (a literal tree with exact zeros), and a random impostor."""
    out = {}
    for i, (n, k, l, tau) in enumerate(DIMENSIONS):
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
    l = DIMENSIONS[dim][2]
    world = worlds[dim]
    server = PdtAgent(world["server"])
    rng = np.random.default_rng(1000 * dim + seed)
    history = run_interaction(server, _client(world, kind), l, rng, rng)
    # Score against the user's tree and against the MLE copy, whose zeros
    # make ties and repeated CDF values.
    for model in (world["user"], world["mle"].pdt):
        assert statistic(history, model) == loop_statistic(history, model)
        assert derive_key(history, model) == loop_derive_key(history, model)
        assert incremental_p(history, model) == loop_incremental_p(history, model)
        q = loop_step_distributions(history.server_actions(), model, history.length)
        if support_size(q) <= ENUMERABLE:
            exact = enumerated_p(q, loop_score_tables(q), loop_statistic(history, model))
            assert p_value(history, model) == pytest.approx(exact, rel=0, abs=1e-12)


@pytest.mark.parametrize("kind", CLIENTS)
@pytest.mark.parametrize("dim", range(len(DIMENSIONS)))
def test_p_curve_matches_prefix_p_values(worlds, dim, kind):
    l = DIMENSIONS[dim][2]
    world = worlds[dim]
    server = PdtAgent(world["server"])
    curves = [
        curve(server, _client(world, kind), world["user"], l + 1, np.random.default_rng(dim))
        for curve in (p_curve, loop_p_curve)
    ]
    np.testing.assert_allclose(curves[0], curves[1], rtol=0, atol=1e-9)


@pytest.mark.parametrize("kind", CLIENTS)
@pytest.mark.parametrize("dim", [2, 7])
def test_p_curve_short_prefixes_match_enumeration(worlds, dim, kind):
    """n=3, k=5, l=100 (criterion 7 and the probe): every prefix of at most
    10 steps has at most 3^10 client action sequences, and its point on the
    p-value curve is the exact p."""
    l = DIMENSIONS[dim][2]
    world = worlds[dim]
    server, user = PdtAgent(world["server"]), world["user"]
    curve = p_curve(server, _client(world, kind), user, l + 1, np.random.default_rng(dim))
    rng = np.random.default_rng(dim)
    history = run_interaction(server, _client(world, kind), l, rng, rng, n_actions=3)
    q = loop_step_distributions(history.server_actions(), user, l + 1)
    scores = loop_score_tables(q)
    observed = scores[np.arange(l + 1), np.array(history.client_actions()) - 1]
    for j in range(1, 11):
        exact = enumerated_p(q[:j], scores[:j], observed[:j].mean())
        assert curve[j - 1] == pytest.approx(exact, rel=0, abs=1e-12)


def _two_action_sessions(k, tau, steps, count):
    """count sessions of the given length at n=2 from every kind of client,
    each with its step distributions and score tables under the user tree."""
    rng = np.random.default_rng(60 + k)
    server = generate_random_pdt(2, k, 1.0, rng)
    user = generate_random_pdt(2, k, tau, rng)
    observed = [
        run_interaction(PdtAgent(server), PdtAgent(user), steps - 1, rng, rng) for _ in range(3)
    ]
    clients = [
        PdtAgent(user),
        make_mle_adversary(observed, 2, k),
        make_random_adversary(2, k, tau, rng),
        make_replay_adversary(observed[0]),
    ]
    for i in range(count):
        history = run_interaction(PdtAgent(server), clients[i % 4], steps - 1, rng, rng)
        q = loop_step_distributions(history.server_actions(), user, steps)
        scores = loop_score_tables(q)
        yield history, user, q, scores


@pytest.mark.parametrize("tau", [0.1, 0.3])
@pytest.mark.parametrize("k", [3, 16])
@pytest.mark.parametrize("steps", [12, 13, 16])
def test_two_action_sessions_match_enumeration(steps, k, tau):
    """n=2, up to 16 steps: at most 2^16 client action sequences, so the
    tail is exact whether nodes are revisited (k=3) or not (k=16), for a
    peaked and a flatter user tree."""
    for history, user, q, scores in _two_action_sessions(k, tau, steps, 12):
        exact = enumerated_p(q, scores, loop_statistic(history, user))
        assert p_value(history, user) == pytest.approx(exact, rel=0, abs=1e-12)


@pytest.mark.xfail(
    strict=True,
    reason="Lugannani-Rice smooths over the atoms of a few peaked steps: past "
    "2^16 distinct sums it misses the exact p by up to a few hundredths",
)
def test_saddle_side_of_the_switch_matches_enumeration():
    """n=2, 17 steps, no node revisited: 2^17 distinct sums take the saddle
    point, which should agree with enumeration as closely as the corpus
    test asks of it against Monte-Carlo."""
    worst = 0.0
    for tau in (0.1, 0.3):
        for history, user, q, scores in _two_action_sessions(16, tau, 17, 12):
            assert not convolved_exactly(q, scores)
            exact = enumerated_p(q, scores, loop_statistic(history, user))
            worst = max(worst, abs(p_value(history, user) - exact))
    assert worst <= 0.006

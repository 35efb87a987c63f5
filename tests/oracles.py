"""Reference helpers that only tests use: each restates a definition plainly
so the program's vectorised code can be checked against it."""

import itertools
import math

import numpy as np

from agentauth.clf import Dataset, encode_history
from agentauth.engine import InteractionHistory, run_interaction
from agentauth.hypo import (
    _TIE,
    _atom_bound,
    _normal_two_sided,
    observed_scores,
    score_tables,
    step_distributions,
)
from agentauth.models import PdtAgent


def action_scores(q) -> np.ndarray:
    """Reference step scores of hypo.score_tables for one distribution q:
    score(a) = (q(a) + mass of all actions no more likely than a) / 2, the
    rank mass read off a stable sort by searchsorted."""
    q = np.asarray(q, dtype=np.float64)
    sq = q[np.argsort(q, kind="stable")]
    cum = np.cumsum(sq)
    idx = np.searchsorted(sq, q, side="right")
    return 0.5 * (q + cum[idx - 1])


def steps_to_threshold(mean_p: np.ndarray, threshold: float) -> int | None:
    """First step (1-based) at which the mean p-value is at or below the
    threshold, or None if it never is."""
    below = np.nonzero(mean_p <= threshold)[0]
    return int(below[0]) + 1 if below.size else None


def node_index(n_actions: int, depth: int, context) -> int:
    """Reference walk: breadth-first index of the node of an n-ary tree of the
    given depth reached by descending one level per context entry (oldest
    opponent action first); the empty context is the root.  A context longer
    than the depth has no node."""
    if len(context) > depth:
        raise ValueError(f"context length {len(context)} exceeds tree depth {depth}")
    start, width, pos = 0, 1, 0
    for a in context:
        if not 1 <= a <= n_actions:
            raise ValueError(f"action {a} out of range 1..{n_actions}")
        start += width
        width *= n_actions
        pos = pos * n_actions + (a - 1)
    return start + pos


def sample_action(p, u: float) -> int:
    """Reference inverse-CDF draw of Pdt.sample_action: the count of the
    first n-1 cumulative sums that are <= u, plus one."""
    idx = int(np.cumsum(p).searchsorted(u, side="right"))
    return min(idx, len(p) - 1) + 1


def softmax_rows(logits, temperature: float) -> np.ndarray:
    """Reference softmax of models._softmax_rows, row by row in row-major
    layout: divide, subtract the row max, exp, divide by the row's
    left-to-right running sum."""
    e = logits / temperature
    e -= e.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= np.cumsum(e, axis=1)[:, -1:]
    return e


def softmax_act(policy, state: int, rng) -> int:
    """Reference softmax draw of rl.act: numpy's own weighted choice."""
    return int(rng.choice(policy.n_actions, p=policy.distribution(state))) + 1


def choice_draw(p, u: float) -> int:
    """The index Generator.choice(len(p), p=p) draws from its one uniform u:
    cumulative sums over the last one, searched from the right."""
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(u, side="right"))


class FixedUniforms:
    """Stands in for a Generator whose random() returns the given values in turn."""

    def __init__(self, values):
        self._values = iter(values)

    def random(self):
        return next(self._values)


def step_score(observed: int, q) -> float:
    """Score of one observed action under one conditional distribution q."""
    q = np.asarray(q, dtype=np.float64)
    if not 1 <= observed <= q.size:
        raise ValueError(f"observed action {observed} out of range 1..{q.size}")
    if abs(float(q.sum()) - 1.0) > 1e-9 or np.any(q < 0):
        raise ValueError("q must be a probability vector")
    return float(action_scores(q)[observed - 1])


def analytic_moments(q, scores) -> tuple[float, float]:
    """Mean and variance of the mean step score under the null, from the
    per-step moments of independent steps."""
    steps = q.shape[0]
    means = (q * scores).sum(axis=1)
    seconds = (q * scores**2).sum(axis=1)
    mean = float(means.mean())
    variance = float(max((seconds - means**2).sum() / steps**2, 0.0))
    return mean, variance


def incremental_p(history: InteractionHistory, model) -> float:
    """Normal-approximation p over a whole (possibly partial) transcript, the
    batch counterpart of RunningPValue."""
    if history.length < 1:
        raise ValueError("need at least one step")
    q = step_distributions(history.server_actions(), model, history.length)
    scores = score_tables(q)
    mean, variance = analytic_moments(q, scores)
    z = float(np.mean(observed_scores(scores, history.client_actions())))
    return _normal_two_sided(z, mean, variance)


class RunningP:
    """Reference RunningPValue: rescores the node's row at every step."""

    def __init__(self, model):
        self.model = model
        self.node = 0
        self._sum_score = 0.0
        self._sum_mean = 0.0
        self._sum_var = 0.0
        self.steps = 0

    def update(self, server_action: int, client_action: int) -> None:
        q = self.model.probs[self.node]
        scores = action_scores(q)
        self._sum_score += float(scores[client_action - 1])
        m = float((q * scores).sum())
        self._sum_mean += m
        self._sum_var += float((q * scores**2).sum()) - m * m
        self.steps += 1
        self.node = self.model.next_node(self.node, server_action)

    @property
    def p(self) -> float:
        if self.steps == 0:
            return 1.0
        z = self._sum_score / self.steps
        mean = self._sum_mean / self.steps
        variance = max(self._sum_var / self.steps**2, 0.0)
        return _normal_two_sided(z, mean, variance)


def apply_updates(policy, buffer, lr_policy, lr_value, entropy_bonus):
    """Reference rollout update of rl.train_probe: the n-step returns, then
    one buffer entry after another, each on its own state's row."""
    s_last, _, _, done_last, ns_last = buffer[-1]
    carry = 0.0 if done_last else float(policy.values[ns_last])
    returns = [0.0] * len(buffer)
    for i in range(len(buffer) - 1, -1, -1):
        s, a, r, done, _ = buffer[i]
        if done:
            carry = 0.0
        carry = r + carry
        returns[i] = carry
    for (s, a, r, done, _), g in zip(buffer, returns):
        pi = policy.distribution(s)
        advantage = g - policy.values[s]
        policy.values[s] += lr_value * advantage
        grad = -pi
        grad[a - 1] += 1.0
        logp = np.log(pi)
        entropy = float(-(pi * logp).sum())
        ent_grad = -pi * (logp + entropy)
        policy.preferences[s] += lr_policy * (advantage * grad + entropy_bonus * ent_grad)


def mc_null_means(q, scores, M, rng, chunk=16384):
    """M Monte-Carlo draws of the mean step score under the null: each
    step's client action drawn from q by inverse CDF.  Consumes
    rng.random((M, steps)) in row blocks of `chunk`, which is the same stream
    as one (M, steps) block."""
    steps, n = q.shape
    cdf = np.cumsum(q, axis=1)
    means = np.empty(M)
    for start in range(0, M, chunk):
        u = rng.random((min(chunk, M - start), steps))
        for t in range(steps):
            idx = np.minimum(np.searchsorted(cdf[t], u[:, t], side="right"), n - 1)
            u[:, t] = scores[t, idx]
        means[start:start + len(u)] = u.mean(axis=1)
    return means


def mc_p_value(q, scores, z, M, rng):
    """Share of M Monte-Carlo null statistics at least as far from the null
    mean as z, with null_tail's tie slack."""
    mean = float((q * scores).sum(axis=1).mean())
    means = mc_null_means(q, scores, M, rng)
    return np.count_nonzero(np.abs(means - mean) >= abs(z - mean) - _TIE) / M


def support_size(q) -> int:
    """Number of client action sequences with positive probability."""
    return math.prod(int(c) for c in np.count_nonzero(np.asarray(q) > 0, axis=1))


def convolved_exactly(q, scores) -> bool:
    """Whether null_tail takes the exact path for these steps."""
    return _atom_bound(q, scores, _TIE * q.shape[0]) > 0


def enumerated_p(q, scores, z):
    """Two-sided null p of statistic z by listing every client action
    sequence with positive probability."""
    steps = q.shape[0]
    support = [np.flatnonzero(row > 0) for row in q]
    mean = float((q * scores).sum(axis=1).mean())
    seqs = np.array(list(itertools.product(*support)), dtype=np.intp)
    z_seq = scores[np.arange(steps), seqs].mean(axis=1)
    extreme = np.abs(z_seq - mean) >= abs(z - mean) - _TIE
    return float(np.prod(q[np.arange(steps), seqs], axis=1)[extreme].sum())


def lattice_p(q, scores, z, unit):
    """Two-sided null p of statistic z for scores that are integer multiples
    of unit: the distribution of the summed score, keyed by its integer
    multiple of unit, built one step at a time."""
    steps = q.shape[0]
    dist = {0: 1.0}
    for q_t, s_t in zip(q, scores):
        grown = {}
        for k, p in dist.items():
            for a in np.flatnonzero(q_t > 0):
                key = k + round(s_t[a] / unit)
                grown[key] = grown.get(key, 0.0) + p * q_t[a]
        dist = grown
    mean = float((q * scores).sum(axis=1).mean())
    return sum(p for k, p in dist.items() if abs(k * unit / steps - mean) >= abs(z - mean) - _TIE)


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

"""Frequentist authentication test.

The null hypothesis is that the observed transcript was generated by the
shared secret model.  Each step is scored by how plausible the observed
client action is under the model's conditional distribution; the test
statistic is the mean step score.  The null distribution of the statistic is
obtained by Monte-Carlo resampling of client actions (the server actions are
held fixed, so step scores are conditionally independent and their exact
moments are also computed analytically).  The transcript is rejected when its
statistic is too extreme relative to the null.

One vectorised sampler, null_draws, serves both p_value and rl.p_curve.  It
consumes exactly one (M, steps) block of uniforms per call, so a seeded
generator reproduces a p-value bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from agentauth.engine import InteractionHistory
from agentauth.models import Pdt, node_path

DEFAULT_ALPHA = 0.1
DEFAULT_MC_SAMPLES = 1000
_DRAW_CHUNK_ROWS = 256


@dataclass
class AuthVerdict:
    accept: bool
    score: float  # p-value or classifier output
    threshold: float  # significance level alpha, or classifier cut
    method: str


@dataclass
class NullSummary:
    mean: float
    variance: float
    mc_samples: np.ndarray


def action_scores(q: np.ndarray) -> np.ndarray:
    """Per-action step score under conditional distribution q.

    score(a) = (q(a) + mass of all actions no more likely than a) / 2.
    Both halves read as "likelihood the action came from the model": the
    first is the plain likelihood, the second the rank mass including ties.
    """
    q = np.asarray(q, dtype=np.float64)
    order = np.argsort(q, kind="stable")
    sq = q[order]
    cum = np.cumsum(sq)
    idx = np.searchsorted(sq, q, side="right")
    return 0.5 * (q + cum[idx - 1])


def step_score(observed: int, q: np.ndarray) -> float:
    q = np.asarray(q, dtype=np.float64)
    if not 1 <= observed <= q.size:
        raise ValueError(f"observed action {observed} out of range 1..{q.size}")
    if abs(float(q.sum()) - 1.0) > 1e-9 or np.any(q < 0):
        raise ValueError("q must be a probability vector")
    return float(action_scores(q)[observed - 1])


def step_distributions(server_actions, model: Pdt, steps: int) -> np.ndarray:
    """Model's conditional client-action distribution at each step, given the
    server actions strictly before it.  Shape (steps, n_actions)."""
    return model.node_probs(node_path(server_actions, model.n_actions, model.depth, steps))


def score_tables(q: np.ndarray) -> np.ndarray:
    """action_scores of every row of q at once; row t equals
    action_scores(q[t]) bit for bit."""
    sq = np.take_along_axis(q, np.argsort(q, axis=1, kind="stable"), axis=1)
    cum = np.cumsum(sq, axis=1)
    # Counting the sorted entries <= q(a) is searchsorted(sq, q(a), "right").
    idx = np.count_nonzero(sq[:, None, :] <= q[:, :, None], axis=2)
    return 0.5 * (q + np.take_along_axis(cum, idx - 1, axis=1))


def observed_scores(scores: np.ndarray, client_actions) -> np.ndarray:
    """Score of the observed client action at each step."""
    return scores[np.arange(scores.shape[0]), np.asarray(client_actions, dtype=np.intp) - 1]


def test_statistic(history: InteractionHistory, model: Pdt) -> float:
    """Mean step score of the observed client actions."""
    q = step_distributions(history.server_actions(), model, history.length)
    return float(observed_scores(score_tables(q), history.client_actions()).mean())


def _analytic_moments(q: np.ndarray, scores: np.ndarray) -> tuple[float, float]:
    # Step scores are conditionally independent given the server actions, so
    # the statistic's mean/variance follow from per-step moments.
    steps = q.shape[0]
    means = (q * scores).sum(axis=1)
    seconds = (q * scores**2).sum(axis=1)
    mean = float(means.mean())
    variance = float(max((seconds - means**2).sum() / steps**2, 0.0))
    return mean, variance


def null_draws(
    q: np.ndarray, scores: np.ndarray, M: int, rng: np.random.Generator
) -> np.ndarray:
    """(M, steps) step scores of client actions drawn from q by inverse CDF,
    from one rng.random((M, steps)) block."""
    steps, n = q.shape
    u = rng.random((M, steps))
    thresholds = np.cumsum(q, axis=1)[:, :-1].T.copy()
    offsets = np.arange(steps) * n
    table = scores.ravel()
    # Chunks of rows keep the index arrays small and in cache; each chunk's
    # scores overwrite its uniforms (out= with mode="clip" writes in place,
    # the default mode buffers a copy).
    for chunk in np.split(u, range(_DRAW_CHUNK_ROWS, M, _DRAW_CHUNK_ROWS)):
        # CDF rows are non-decreasing, so counting the first n - 1 entries
        # <= u is min(searchsorted(cdf_t, u, side="right"), n - 1).
        counts = np.zeros(chunk.shape, dtype=np.min_scalar_type(n - 1))
        for threshold in thresholds:
            counts += chunk >= threshold
        table.take(counts + offsets, out=chunk, mode="clip")
    return u


def null_summary(
    server_actions, model: Pdt, M: int, rng: np.random.Generator
) -> NullSummary:
    """Analytic moments plus M Monte-Carlo draws of the statistic under the
    null (client actions resampled from the model, server actions fixed)."""
    if M < 1:
        raise ValueError("M must be >= 1")
    steps = len(server_actions)
    q = step_distributions(server_actions, model, steps)
    scores = score_tables(q)
    mean, variance = _analytic_moments(q, scores)
    sampled = null_draws(q, scores, M, rng)
    return NullSummary(mean=mean, variance=variance, mc_samples=sampled.mean(axis=1))


def p_value(
    history: InteractionHistory,
    model: Pdt,
    M: int = DEFAULT_MC_SAMPLES,
    rng: np.random.Generator | None = None,
) -> float:
    """Two-sided Monte-Carlo p: probability under the null of a statistic at
    least as far from the null mean as the observed one (add-one estimator,
    so the result is never exactly zero)."""
    if rng is None:
        rng = np.random.default_rng()
    summary = null_summary(history.server_actions(), model, M, rng)
    z = test_statistic(history, model)
    d = abs(z - summary.mean)
    extreme = int(np.count_nonzero(np.abs(summary.mc_samples - summary.mean) >= d))
    return (1 + extreme) / (M + 1)


def hypothesis_test(
    history: InteractionHistory,
    model: Pdt,
    alpha: float = DEFAULT_ALPHA,
    M: int = DEFAULT_MC_SAMPLES,
    rng: np.random.Generator | None = None,
) -> AuthVerdict:
    """Authenticate iff the p-value is at least alpha."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    p = p_value(history, model, M, rng)
    return AuthVerdict(accept=p >= alpha, score=p, threshold=alpha, method="hypothesis")


def incremental_p(history: InteractionHistory, model: Pdt) -> float:
    """Fast normal-approximation p over a (possibly partial) transcript,
    used as the per-step confidence signal during probe-policy training."""
    if history.length < 1:
        raise ValueError("need at least one step")
    q = step_distributions(history.server_actions(), model, history.length)
    scores = score_tables(q)
    mean, variance = _analytic_moments(q, scores)
    z = float(np.mean(observed_scores(scores, history.client_actions())))
    return _normal_two_sided(z, mean, variance)


def _normal_two_sided(z: float, mean: float, variance: float) -> float:
    if variance <= 0.0:
        return 1.0 if z == mean else 0.0
    return min(1.0, math.erfc(abs(z - mean) / math.sqrt(2.0 * variance)))


class RunningPValue:
    """Incremental accumulator for the normal-approximation p.

    update() is called once per step with both simultaneous actions; the
    step's conditional distribution is taken before the server action is
    appended to the context window, matching the simultaneity convention.
    """

    def __init__(self, model: Pdt):
        self.model = model
        self._window: list[int] = []
        self._sum_score = 0.0
        self._sum_mean = 0.0
        self._sum_var = 0.0
        self.steps = 0

    def update(self, server_action: int, client_action: int) -> None:
        q = self.model.node_probs(self.model.node_index(self._window))
        scores = action_scores(q)
        self._sum_score += float(scores[client_action - 1])
        m = float((q * scores).sum())
        self._sum_mean += m
        self._sum_var += float((q * scores**2).sum()) - m * m
        self.steps += 1
        self._window.append(server_action)
        if len(self._window) > self.model.depth:
            self._window.pop(0)

    @property
    def p(self) -> float:
        if self.steps == 0:
            return 1.0
        z = self._sum_score / self.steps
        mean = self._sum_mean / self.steps
        variance = max(self._sum_var / self.steps**2, 0.0)
        return _normal_two_sided(z, mean, variance)

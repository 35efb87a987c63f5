"""Frequentist authentication test.

The null hypothesis is that the observed transcript was generated by the
shared secret model.  Each step is scored by how plausible the observed
client action is under the model's conditional distribution; the test
statistic is the mean step score.  With the server actions held fixed the
step scores are independent, so the null distribution of the statistic
follows from the per-step distributions alone: null_tail convolves them
exactly wherever their sum provably takes few distinct values (short
sessions, revisited nodes, literal trees' count ratios) and takes a
saddle-point tail (Daniels 1954; Lugannani and Rice 1980) beyond.  The
transcript is rejected when its statistic is too extreme relative to the
null.

No step of the test draws random numbers, so a logged transcript's p-value
can be recomputed bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from agentauth.engine import InteractionHistory, check_same_n
from agentauth.models import Pdt, node_path

DEFAULT_ALPHA = 0.1
# null_tail convolves exactly where the summed score provably takes so few
# distinct values that they times the actions and the steps (the work) are
# at most this.
_EXACT_WORK = 1 << 21
# Mean-scale slack: a statistic this close to the cut counts as at least as extreme.
_TIE = 1e-12
# Cuts closer to the mean than this many standard deviations take the normal limit.
_NORMAL_LIMIT = 1e-3


@dataclass
class AuthVerdict:
    accept: bool
    score: float  # p-value or classifier output
    threshold: float  # significance level alpha, or classifier cut
    method: str


def step_distributions(server_actions, model: Pdt, steps: int) -> np.ndarray:
    """Model's conditional client-action distribution at each step, given the
    server actions strictly before it.  Shape (steps, n_actions)."""
    return model.probs[node_path(server_actions, model.n_actions, model.depth, steps)]


def score_tables(q: np.ndarray) -> np.ndarray:
    """Per-action step scores under each row q[t] of conditional distributions.

    score(a) = (q(a) + mass of all actions no more likely than a) / 2.
    Both halves read as "likelihood the action came from the model": the
    first is the plain likelihood, the second the rank mass including ties.
    Scores are computed in sorted order and written back through the sort.
    """
    order = np.argsort(q, axis=1, kind="stable")
    pos = np.arange(q.size).reshape(q.shape)  # flat positions, row by row
    flat = order + pos[:, :1]
    sq = q.take(flat)
    cum = np.cumsum(sq, axis=1)
    # The mass of the entries <= sq[j] is cum at the last position of sq[j]'s
    # run of equal values: the first run end at or after j.
    ends = np.ones(q.shape, dtype=bool)
    np.not_equal(sq[:, 1:], sq[:, :-1], out=ends[:, :-1])
    last = np.minimum.accumulate(np.where(ends, pos, pos[:, -1:])[:, ::-1], axis=1)[:, ::-1]
    sorted_scores = 0.5 * (sq + cum.take(last))
    out = np.empty_like(sorted_scores)
    out.put(flat, sorted_scores)
    return out


def observed_scores(scores: np.ndarray, client_actions) -> np.ndarray:
    """Score of the observed client action at each step."""
    return scores[np.arange(scores.shape[0]), np.asarray(client_actions, dtype=np.intp) - 1]


def test_statistic(history: InteractionHistory, model: Pdt) -> float:
    """Mean step score of the observed client actions."""
    check_same_n(history, model)
    q = step_distributions(history.server_actions(), model, history.length)
    return float(observed_scores(score_tables(q), history.client_actions()).mean())


def null_tail(q: np.ndarray, scores: np.ndarray, observed) -> np.ndarray | float:
    """Two-sided null p of an observed mean step score, without sampling.

    Step t's client action is drawn from q[..., t, :] and scores
    scores[..., t, a]; observed has q's leading shape.  Returns
    P(|Z - mu| >= |observed - mu|) for Z the mean step score and mu its mean,
    counting statistics within _TIE of the cut as at least as extreme: an
    observed value at mu gives exactly 1, one beyond the support exactly 0.
    Steps are independent given the server actions, so wherever the summed
    score provably takes few distinct values its distribution is convolved
    exactly; beyond, each tail is Lugannani-Rice's saddle-point tail.
    """
    q = np.asarray(q, dtype=np.float64)
    *lead, steps, n = q.shape
    q = q.reshape(-1, steps, n)
    scores = np.reshape(scores, q.shape)
    means = np.einsum("btn,btn->bt", q, scores)
    centred = scores - means[..., None]  # S = sum_t centred_t has mean 0
    cut = np.abs(np.reshape(observed, -1) * steps - means.sum(axis=-1))
    tie = _TIE * steps
    var = np.einsum("btn,btn,btn->b", q, centred, centred)
    p = np.ones(cut.shape)
    rest = cut > tie
    for b in np.flatnonzero(rest):
        atoms = _atom_bound(q[b], scores[b], tie)
        if atoms:
            p[b] = _exact_tail(q[b], centred[b], cut[b], tie, atoms)
            rest[b] = False
    # Within _NORMAL_LIMIT sd of the mean Lugannani-Rice cancels; the two
    # tails' skewness terms cancel too, leaving the normal limit.
    near = rest & (cut < _NORMAL_LIMIT * np.sqrt(var))
    p[near] = [_normal_two_sided(c, 0.0, v) for c, v in zip(cut[near], var[near])]
    saddle = rest & ~near
    if saddle.any():
        # The lower tail P(S <= -cut) is the upper tail of -S: both at once.
        both = (np.concatenate([a[saddle]] * 2) for a in (q, q > 0, cut, var))
        q2, support2, cut2, var2 = both
        signed = np.concatenate([centred[saddle], -centred[saddle]])
        tails = _saddle_tails(q2, signed, support2, cut2, var2, tie)
        p[saddle] = np.minimum(tails.reshape(2, -1).sum(axis=0), 1.0)
    return float(p[0]) if not lead else p.reshape(lead)


def _spread(q, scores, tol: float):
    """Support mask, lowest supported score and score span of each step,
    and which steps' scores span more than tol."""
    support = q > 0
    low = np.where(support, scores, np.inf).min(axis=-1)
    span = np.where(support, scores, -np.inf).max(axis=-1) - low
    return support, low, span, span > tol


def _atom_bound(q, scores, tol: float) -> int:
    """A bound on the distinct values of the sum of one score per step,
    steps whose scores span at most tol counting as constant, if one is
    found within _EXACT_WORK / (actions * those steps); else 0.

    Steps that repeat one distribution (a revisited node) contribute a
    multiset of its values, not a product.  Scores on a common lattice of
    spacing g (a literal tree's count ratios) reach at most sum(span) / g + 1
    sums."""
    support, low, span, spread = _spread(q, scores, tol)
    limit = _EXACT_WORK // (q.shape[-1] * max(np.count_nonzero(spread), 1))
    # Each distinct row at least doubles the count; rows with distinct first
    # entries are distinct, so too many of those settle it without the rows.
    # Counted on a sort: np.unique of floats pages in 1.5 MB of hashing code.
    firsts = np.sort(q[spread, 0])
    if 2 ** int(np.count_nonzero(np.diff(firsts, prepend=-np.inf))) <= limit:
        rows = np.ascontiguousarray(q[spread]).view(np.dtype((np.void, q.shape[-1] * 8)))
        _, first, visits = np.unique(rows.ravel(), return_index=True, return_counts=True)
        if 2**first.size <= limit:
            bound = 1
            for t, m in zip(np.flatnonzero(spread)[first], visits):
                s = 1 + np.count_nonzero(np.diff(np.sort(scores[t, support[t]])) > tol)
                bound *= math.comb(int(m) + s - 1, s - 1)
            if bound <= limit:
                return bound
    offsets = scores - low[:, None]
    offsets = offsets[support & (offsets > tol)]
    g, finest = 0.0, span.sum() / max(limit - 1, 1)
    if (offsets < finest).any():  # Euclid would return 0 on reaching it
        return 0
    for x in offsets:
        # g = gcd(g, x) by Euclid, remainders within tol of 0 or of the
        # divisor counting as 0; the gcd is at most every divisor.
        a, b = g, float(x)
        while b > tol:
            if b < finest:
                return 0
            r = math.fmod(a, b)
            a, b = b, (r if b - r > tol else 0.0)
        g = a
    return int(span.sum() / g) + 1 if g else 1


def _exact_tail(q, centred, cut: float, tol: float, atoms: int) -> float:
    """P(|S| >= cut - tol) by convolving the spread steps (the others add 0),
    merging partial sums within tol of each other once there are more than
    atoms of them (a bound on their distinct values)."""
    support, _, _, spread = _spread(q, centred, tol)
    sums, probs = np.zeros(1), np.ones(1)
    for q_t, c_t, s_t in zip(q[spread], centred[spread], support[spread]):
        sums = np.add.outer(sums, c_t[s_t]).ravel()
        probs = np.multiply.outer(probs, q_t[s_t]).ravel()
        if sums.size > atoms:
            order = np.argsort(sums)
            sums = sums[order]
            starts = np.flatnonzero(np.diff(sums, prepend=-np.inf) > tol)
            sums, probs = sums[starts], np.add.reduceat(probs[order], starts)
    return min(float(probs[np.abs(sums) >= cut - tol].sum()), 1.0)


def _saddle_tails(q, centred, support, x, var, tie: float) -> np.ndarray:
    """Upper tails P(S >= x), one per leading index: the top atom's mass
    where no other atom reaches x, Lugannani-Rice below that."""
    top = np.where(support, centred, -np.inf).max(axis=-1)
    # 0 at each step's top and < 0 below it (off the support q is 0), so
    # tilted weights never overflow.
    below = np.minimum(centred - top[..., None], 0.0)
    highest = top.sum(axis=-1)
    gap = -np.where(support & (below < 0.0), below, -np.inf).max(axis=(-2, -1))
    tail = np.zeros(x.shape)
    edge = highest - gap + tie
    only_top = (x > edge) & (x <= highest + tie)
    if only_top.any():
        tail[only_top] = np.prod(np.where(below[only_top] == 0.0, q[only_top], 0.0).sum(-1), -1)
    inside = x <= edge
    if inside.any():
        if not inside.all():
            q, below, highest, x, var = (a[inside] for a in (q, below, highest, x, var))
        theta, k, k2 = _solve_saddle(q, below, highest, x, var)
        w = np.sqrt(2.0 * np.maximum(theta * x - k, 0.0))
        u = theta * np.sqrt(k2)
        upper = np.array([0.5 * math.erfc(v / math.sqrt(2.0)) for v in w])
        density = np.exp(-0.5 * w * w) / math.sqrt(2.0 * math.pi)
        tail[inside] = np.clip(upper + density * (1.0 / u - 1.0 / w), 0.0, 1.0)
    return tail


def _solve_saddle(q, below, highest, x, var):
    """Newton on K'(theta) = x for every leading index at once, bisecting
    (or doubling) when a step leaves the bracket; entries stop once solved,
    so a batch solves each as if alone.  Returns theta, K and K''."""
    theta = x / var
    lo, hi = np.zeros(x.shape), np.full(x.shape, np.inf)
    below2 = below * below
    tol = 1e-10 * np.sqrt(var)
    for _ in range(100):
        w = q * np.exp(theta[:, None, None] * below)
        mass = np.einsum("btn->bt", w)
        m1 = np.einsum("btn,btn->bt", w, below) / mass
        k2 = np.einsum("bt->b", np.einsum("btn,btn->bt", w, below2) / mass - m1 * m1)
        miss = highest + np.einsum("bt->b", m1) - x
        done = np.abs(miss) <= tol
        if done.all():
            break
        lo = np.where(miss < 0, theta, lo)
        hi = np.where(miss > 0, theta, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = theta - miss / k2
        fallback = np.where(hi < np.inf, (lo + hi) / 2, 2 * theta)
        step = np.where((step > lo) & (step < hi), step, fallback)
        theta = np.where(done, theta, step)
    return theta, theta * highest + np.log(mass).sum(axis=-1), k2


def p_value(history: InteractionHistory, model: Pdt) -> float:
    """Two-sided null p of the transcript's mean step score: the probability,
    with the server actions fixed and client actions drawn from the model, of
    a statistic at least as far from the null mean as the observed one.

    Deterministic (null_tail draws nothing).  It can be exactly 0, for
    instance when the model gives the observed actions probability 0."""
    check_same_n(history, model)
    q = step_distributions(history.server_actions(), model, history.length)
    scores = score_tables(q)
    z = float(observed_scores(scores, history.client_actions()).mean())
    return null_tail(q, scores, z)


def hypothesis_test(
    history: InteractionHistory,
    model: Pdt,
    alpha: float = DEFAULT_ALPHA,
    M=None,
    rng=None,
) -> AuthVerdict:
    """Authenticate iff the p-value is at least alpha.

    M and rng are accepted for callers that still pass a Monte-Carlo sample
    count and a generator; both are ignored, and rng is not drawn from."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    p = p_value(history, model)
    return AuthVerdict(accept=p >= alpha, score=p, threshold=alpha, method="hypothesis")


def _normal_two_sided(z: float, mean: float, variance: float) -> float:
    if variance <= 0.0:
        return 1.0 if z == mean else 0.0
    return min(1.0, math.erfc(abs(z - mean) / math.sqrt(2.0 * variance)))


class RunningPValue:
    """Incremental accumulator for the normal-approximation p.

    update() is called once per step with both simultaneous actions; the
    step's conditional distribution is taken at `node` before `node` takes
    its Pdt.next_node step by the server action, matching simultaneity.

    A node's step statistics (its action scores, mean score and score
    variance) are computed on its first visit and kept in the dict `memo`,
    which accumulators of one model may share; by default each has its own.
    """

    def __init__(self, model: Pdt, memo: dict | None = None):
        self.model = model
        self._memo = {} if memo is None else memo
        self.node = 0
        self._sum_score = 0.0
        self._sum_mean = 0.0
        self._sum_var = 0.0
        self.steps = 0

    def update(self, server_action: int, client_action: int) -> None:
        n = self.model.n_actions
        if not (0 < server_action <= n and 0 < client_action <= n):
            raise ValueError(f"step {(server_action, client_action)} has an action outside 1..{n}")
        stats = self._memo.get(self.node)
        if stats is None:
            q = self.model.probs[self.node]
            scores = score_tables(q[None])[0]
            m = float((q * scores).sum())
            stats = self._memo[self.node] = (
                scores.tolist(), m, float((q * scores**2).sum()) - m * m
            )
        scores, m, var = stats
        self._sum_score += scores[client_action - 1]
        self._sum_mean += m
        self._sum_var += var
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

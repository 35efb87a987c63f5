"""Probe-policy training.

The server learns which of its own actions best expose an impostor.  The
environment state is the node of the legitimate user's tree reached by the
server's own recent actions, which makes the problem exactly tabular; a
tabular n-step advantage actor-critic (softmax preferences + state-value
baseline) is trained against a population of adversarial clients, with
per-step reward 1 - p from the fast normal-approximation test.  Deployment
wraps the learned preferences in epsilon-greedy action selection so replayed
recordings stay detectable.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from agentauth.adv import ReplayAgent
from agentauth.engine import run_interaction
from agentauth.hypo import (
    RunningPValue,
    null_tail,
    observed_scores,
    p_value,
    score_tables,
    step_distributions,
)
from agentauth.models import Pdt, PdtAgent

MODE_GREEDY = "greedy"
MODE_EPS_GREEDY = "eps_greedy"
MODE_SOFTMAX = "softmax"
MODE_UNIFORM = "uniform"

DEFAULT_EPSILON = 0.25


@dataclass
class ProbePolicy:
    """Tabular softmax preferences and value baseline, one row per tree node.

    Softmax act draws from a private table, state -> the running sums of the
    state's softmax row over their last, filled on the state's first softmax
    draw and rewritten by every rollout update that changes the row.  So
    `preferences` may be written directly only before the first softmax
    draw; a later direct write leaves the table stale."""

    preferences: np.ndarray  # (num_states, n_actions)
    values: np.ndarray  # (num_states,)
    epsilon: float = DEFAULT_EPSILON
    _draw_table: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def zeros(cls, num_states: int, n_actions: int, epsilon: float = DEFAULT_EPSILON):
        return cls(
            preferences=np.zeros((num_states, n_actions)),
            values=np.zeros(num_states),
            epsilon=epsilon,
        )

    @property
    def n_actions(self) -> int:
        return self.preferences.shape[1]

    def distribution(self, state: int) -> np.ndarray:
        return _softmax(self.preferences[state])

    def save(self, path) -> None:
        doc = {
            "num_states": self.preferences.shape[0],
            "n_actions": self.n_actions,
            "epsilon": self.epsilon,
            "preferences": self.preferences.tolist(),
            "values": self.values.tolist(),
        }
        with open(path, "w") as f:
            json.dump(doc, f)

    @classmethod
    def load(cls, path) -> "ProbePolicy":
        """A saved policy; a table that is not finite, or of the wrong shape,
        or an epsilon outside [0, 1] raises ValueError."""
        with open(path) as f:
            doc = json.load(f)
        preferences = np.array(doc["preferences"], dtype=float)
        values = np.array(doc["values"], dtype=float)
        epsilon = doc["epsilon"]
        if not (preferences.ndim == 2 and preferences.shape[1] >= 2
                and np.isfinite(preferences).all()):
            raise ValueError("preferences must be a finite table of at least 2 columns")
        if not (values.shape == preferences.shape[:1] and np.isfinite(values).all()):
            raise ValueError(f"values must be {len(preferences)} finite numbers")
        if not (type(epsilon) in (int, float) and 0 <= epsilon <= 1):
            raise ValueError(f"epsilon must be a number in [0, 1], got {epsilon!r}")
        return cls(preferences=preferences, values=values, epsilon=epsilon)


def _softmax(prefs: np.ndarray) -> np.ndarray:
    """Softmax of each row along the last axis: row max, exp, row sum and
    divide, which give a row the same bits alone and inside a table."""
    e = np.exp(prefs - prefs.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _draw_rows(prefs: np.ndarray) -> list:
    """rng.choice(n, p=p)'s search table for the softmax row p of each row of
    prefs, as lists: the running sums of p, added left to right, each over the
    last.  A row that is not finite ends in NaN."""
    cdf = np.cumsum(_softmax(prefs), axis=-1)
    return (cdf / cdf[..., -1:]).tolist()


def act(policy: ProbePolicy, state: int, mode: str, rng: np.random.Generator) -> int:
    """Greedy breaks ties toward the lowest action index; eps_greedy mixes in
    a uniform action with probability epsilon; softmax makes rng.choice(n,
    p=p)'s draw: one rng.random() bisected from the right into the state's
    row of the policy's draw table.  NaN raises ValueError."""
    if mode == MODE_GREEDY:
        return int(np.argmax(policy.preferences[state])) + 1
    if mode == MODE_EPS_GREEDY:
        if rng.random() < policy.epsilon:
            return int(rng.integers(1, policy.n_actions + 1))
        return int(np.argmax(policy.preferences[state])) + 1
    if mode == MODE_SOFTMAX:
        sums = policy._draw_table.get(state)
        if sums is None:
            sums = _draw_rows(policy.preferences[state])
            if not math.isfinite(sums[-1]):
                raise ValueError(f"preferences of state {state} give no distribution")
            policy._draw_table[state] = sums
        return bisect_right(sums, rng.random()) + 1
    raise ValueError(f"unknown mode {mode!r}")


class PolicyAgent:
    """Agent handle driving interactions from a probe policy.  The state is
    `node`: the legitimate tree's node reached by this agent's own past
    actions, one Pdt.next_node step each, so one instance serves one session."""

    def __init__(self, policy: ProbePolicy, legit: Pdt, mode: str = MODE_EPS_GREEDY):
        self.policy = policy
        self.legit = legit
        self.mode = mode
        self.node = 0

    def next_action(self, opponent_history, rng: np.random.Generator) -> int:
        a = act(self.policy, self.node, self.mode, rng)
        self.node = self.legit.next_node(self.node, a)
        return a


class UniformAgent:
    """Uniform random probing baseline."""

    def __init__(self, n_actions: int):
        self.n_actions = n_actions

    def next_action(self, opponent_history, rng: np.random.Generator) -> int:
        return int(rng.integers(1, self.n_actions + 1))


@dataclass(frozen=True)
class ProbeEnvConfig:
    """The legit tree, the adversary population and the episode length.
    Every episode on one config shares its RunningPValue memo of the legit
    tree's node statistics, which outlives episodes and train_probe calls;
    the config is frozen so that the tree behind the memo cannot change."""

    legit: Pdt
    population: list
    episode_length: int
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.episode_length < 1:
            raise ValueError("episode_length must be >= 1")
        if not self.population:
            raise ValueError("population must be non-empty")


class ProbeEnv:
    """One episode = one authentication session against a freshly sampled
    adversarial client; reward per step is 1 - p (normal approximation).  The
    state is the node of the episode's RunningPValue, walked by server actions."""

    def __init__(self, cfg: ProbeEnvConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.rng = rng
        self._client = None
        self._running = None
        self._server_hist: list[int] = []
        self._done = True

    def reset(self) -> int:
        self._client = self.cfg.population[
            int(self.rng.integers(len(self.cfg.population)))
        ]
        self._running = RunningPValue(self.cfg.legit, self.cfg._memo)
        self._server_hist = []
        self._done = False
        return self._running.node

    def step(self, server_action: int):
        if self._done:
            raise RuntimeError("step() called on a finished episode; call reset()")
        a_c = self._client.next_action(self._server_hist, self.rng)
        self._running.update(server_action, a_c)
        reward = 1.0 - self._running.p
        self._server_hist.append(server_action)
        self._done = self._running.steps >= self.cfg.episode_length
        return self._running.node, reward, self._done


@dataclass
class TrainResult:
    policy: ProbePolicy
    log: list  # (env_step, mean_episode_return) pairs


def train_probe(
    cfg: ProbeEnvConfig,
    rng: np.random.Generator,
    total_steps: int = 200_000,
    rollout: int = 30,
    lr_policy: float = 0.1,
    lr_value: float = 0.1,
    entropy_bonus: float = 0.01,
    epsilon: float = DEFAULT_EPSILON,
    log_every: int = 2000,
    initial_policy: ProbePolicy | None = None,
) -> TrainResult:
    """n-step advantage actor-critic on the tabular probe policy."""
    counts = {"total_steps": total_steps, "rollout": rollout, "log_every": log_every}
    for name, count in counts.items():
        if count < 1:
            raise ValueError(f"{name} must be >= 1, got {count}")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    env = ProbeEnv(cfg, rng)
    policy = initial_policy or ProbePolicy.zeros(
        cfg.legit.num_nodes, cfg.legit.n_actions, epsilon
    )
    buffer = []
    log = []
    ep_return = 0.0
    recent_returns: list[float] = []
    state = env.reset()
    for step in range(1, total_steps + 1):
        a = act(policy, state, MODE_SOFTMAX, rng)
        next_state, reward, done = env.step(a)
        buffer.append((state, a, reward, done, next_state))
        ep_return += reward
        if done:
            recent_returns.append(ep_return)
            ep_return = 0.0
            state = env.reset()
        else:
            state = next_state
        if len(buffer) >= rollout:
            _apply_updates(policy, buffer, lr_policy, lr_value, entropy_bonus)
            buffer.clear()
        if step % log_every == 0:
            mean_ret = float(np.mean(recent_returns)) if recent_returns else 0.0
            log.append((step, mean_ret))
            recent_returns = []
    return TrainResult(policy=policy, log=log)


def _apply_updates(policy, buffer, lr_policy, lr_value, entropy_bonus):
    """n-step returns, then the rollout's updates in visit rounds: round j holds
    the j-th visit of every buffered state, so a round's states are distinct and
    each state's visits keep buffer order.  An entry touches only its own state's
    rows, so this is bit for bit the update of one entry after another.  Last,
    the draw table rows of the updated states are rewritten from their new
    softmax rows; a row whose sums are not finite is dropped, so that act
    raises at its next draw."""
    s_last, _, _, done_last, ns_last = buffer[-1]
    carry = 0.0 if done_last else float(policy.values[ns_last])
    returns = [0.0] * len(buffer)
    for i in range(len(buffer) - 1, -1, -1):
        s, a, r, done, _ = buffer[i]
        if done:
            carry = 0.0
        carry = r + carry
        returns[i] = carry
    rounds, visits = [], {}
    for (s, a, *_), g in zip(buffer, returns):
        j = visits[s] = visits.get(s, -1) + 1
        if j == len(rounds):
            rounds.append([])
        rounds[j].append((s, a - 1, g))
    for entries in rounds:
        states, actions, g = zip(*entries)
        s = np.array(states)
        pi = _softmax(policy.preferences[s])
        advantage = np.array(g) - policy.values[s]
        policy.values[s] += lr_value * advantage
        grad = -pi
        grad[np.arange(len(s)), actions] += 1.0
        logp = np.log(pi)
        entropy = -(pi * logp).sum(axis=1, keepdims=True)
        ent_grad = -pi * (logp + entropy)
        policy.preferences[s] += lr_policy * (advantage[:, None] * grad + entropy_bonus * ent_grad)
    for state, sums in zip(visits, _draw_rows(policy.preferences[list(visits)])):
        if math.isfinite(sums[-1]):
            policy._draw_table[state] = sums
        else:
            policy._draw_table.pop(state, None)


def p_curve(
    server_agent, client_agent, legit: Pdt, steps: int, rng: np.random.Generator
) -> np.ndarray:
    """Null p-value after each prefix of a fresh session of the given number
    of steps.  Prefix j is the whole session with every later step made a
    point mass at score 0, so one null_tail call covers all prefixes."""
    history = run_interaction(
        server_agent, client_agent, steps - 1, rng, rng, n_actions=legit.n_actions
    )
    q = step_distributions(history.server_actions(), legit, steps)
    scores = score_tables(q)
    s_obs = observed_scores(scores, history.client_actions())
    inside = np.tri(steps, dtype=bool)[:, :, None]
    point = np.eye(1, legit.n_actions)
    return null_tail(
        np.where(inside, q, point), np.where(inside, scores, 0.0), np.cumsum(s_obs) / steps
    )


@dataclass
class EvalResult:
    mean_p: np.ndarray  # per step
    stderr_p: np.ndarray
    curves: np.ndarray  # (trials, steps)


def evaluate_policy(
    server_factory, adversaries, legit: Pdt, steps: int, rng: np.random.Generator
) -> EvalResult:
    """p-value trajectory of fresh sessions, one per adversary, of which
    there must be at least 2 for a standard error.  server_factory() must
    return a fresh agent handle per session."""
    if len(adversaries) < 2:
        raise ValueError(f"need at least 2 adversaries, got {len(adversaries)}")
    curves = np.stack(
        [
            p_curve(server_factory(), adversary, legit, steps, rng)
            for adversary in adversaries
        ]
    )
    return EvalResult(
        mean_p=curves.mean(axis=0),
        stderr_p=curves.std(axis=0, ddof=1) / np.sqrt(curves.shape[0]),
        curves=curves,
    )


def evaluate_replay(
    policy: ProbePolicy,
    legit: Pdt,
    mode: str,
    count: int,
    steps: int,
    rng: np.random.Generator,
    alpha: float = 0.1,
):
    """Record legitimate sessions under the given policy mode, replay their
    client actions against fresh sessions, and report the final p-values."""
    finals = []
    for _ in range(count):
        recorded = run_interaction(
            make_server(policy, legit, mode),
            PdtAgent(legit),
            steps - 1,
            rng,
            rng,
            n_actions=legit.n_actions,
        )
        replayed = run_interaction(
            make_server(policy, legit, mode),
            ReplayAgent(recorded.client_actions()),
            steps - 1,
            rng,
            rng,
            n_actions=legit.n_actions,
        )
        finals.append(p_value(replayed, legit))
    finals = np.array(finals)
    return finals, float(np.mean(finals < alpha))


def make_server(policy, legit, mode):
    """Fresh server agent for one session of the given deployment mode."""
    if mode == MODE_UNIFORM:
        return UniformAgent(legit.n_actions)
    return PolicyAgent(policy, legit, mode)

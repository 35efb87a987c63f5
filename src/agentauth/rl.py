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
from dataclasses import dataclass

import numpy as np

from agentauth.engine import run_interaction
from agentauth.hypo import (
    RunningPValue,
    null_draws,
    observed_scores,
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
    """Tabular softmax preferences and value baseline, one row per tree node."""

    preferences: np.ndarray  # (num_states, n_actions)
    values: np.ndarray  # (num_states,)
    epsilon: float = DEFAULT_EPSILON

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
        row = self.preferences[state]
        e = np.exp(row - row.max())
        return e / e.sum()

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
        with open(path) as f:
            doc = json.load(f)
        return cls(
            preferences=np.array(doc["preferences"]),
            values=np.array(doc["values"]),
            epsilon=doc["epsilon"],
        )


def act(policy: ProbePolicy, state: int, mode: str, rng: np.random.Generator) -> int:
    """Greedy breaks ties toward the lowest action index; eps_greedy mixes in
    a uniform action with probability epsilon; softmax samples the policy."""
    if mode == MODE_GREEDY:
        return int(np.argmax(policy.preferences[state])) + 1
    if mode == MODE_EPS_GREEDY:
        if rng.random() < policy.epsilon:
            return int(rng.integers(1, policy.n_actions + 1))
        return int(np.argmax(policy.preferences[state])) + 1
    if mode == MODE_SOFTMAX:
        p = policy.distribution(state)
        return int(rng.choice(policy.n_actions, p=p)) + 1
    raise ValueError(f"unknown mode {mode!r}")


class PolicyAgent:
    """Agent handle driving interactions from a probe policy.  The state is
    derived from this agent's own past actions, so one instance serves one
    session."""

    def __init__(self, policy: ProbePolicy, legit: Pdt, mode: str = MODE_EPS_GREEDY):
        self.policy = policy
        self.legit = legit
        self.mode = mode
        self.own_actions: list[int] = []

    def next_action(self, opponent_history, rng: np.random.Generator) -> int:
        state = self.legit.node_index(self.own_actions[-self.legit.depth:])
        a = act(self.policy, state, self.mode, rng)
        self.own_actions.append(a)
        return a


class UniformAgent:
    """Uniform random probing baseline."""

    def __init__(self, n_actions: int):
        self.n_actions = n_actions

    def next_action(self, opponent_history, rng: np.random.Generator) -> int:
        return int(rng.integers(1, self.n_actions + 1))


@dataclass
class ProbeEnvConfig:
    legit: Pdt
    population: list
    episode_length: int

    def __post_init__(self):
        if self.episode_length < 1:
            raise ValueError("episode_length must be >= 1")
        if not self.population:
            raise ValueError("population must be non-empty")


class ProbeEnv:
    """One episode = one authentication session against a freshly sampled
    adversarial client; reward per step is 1 - p (normal approximation)."""

    def __init__(self, cfg: ProbeEnvConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.rng = rng
        self._client = None
        self._running = None
        self._server_hist: list[int] = []
        self._t = 0
        self._done = True

    def reset(self) -> int:
        self._client = self.cfg.population[
            int(self.rng.integers(len(self.cfg.population)))
        ]
        self._running = RunningPValue(self.cfg.legit)
        self._server_hist = []
        self._t = 0
        self._done = False
        return 0  # root node: no server actions taken yet

    def step(self, server_action: int):
        if self._done:
            raise RuntimeError("step() called on a finished episode; call reset()")
        a_c = self._client.next_action(tuple(self._server_hist), self.rng)
        self._running.update(server_action, a_c)
        reward = 1.0 - self._running.p
        self._server_hist.append(server_action)
        self._t += 1
        window = self._server_hist[-self.cfg.legit.depth:]
        state = self.cfg.legit.node_index(window)
        self._done = self._t >= self.cfg.episode_length
        return state, reward, self._done


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
    if total_steps < 1:
        raise ValueError("total_steps must be >= 1")
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
        grad = -pi.copy()
        grad[a - 1] += 1.0
        logp = np.log(pi)
        entropy = float(-(pi * logp).sum())
        ent_grad = -pi * (logp + entropy)
        policy.preferences[s] += lr_policy * (advantage * grad + entropy_bonus * ent_grad)


def p_curve(
    server_agent,
    client_agent,
    legit: Pdt,
    steps: int,
    M: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Monte-Carlo p-value after each prefix of a fresh session of the given
    number of steps.  One resampled null action set is shared across prefixes,
    which is valid per prefix and keeps the whole curve O(M * steps)."""
    history = run_interaction(
        server_agent, client_agent, steps - 1, rng, rng, n_actions=legit.n_actions
    )
    q = step_distributions(history.server_actions(), legit, steps)
    scores = score_tables(q)
    s_obs = observed_scores(scores, history.client_actions())
    means = (q * scores).sum(axis=1)
    sampled = null_draws(q, scores, M, rng)
    lengths = np.arange(1, steps + 1)
    z_obs = np.cumsum(s_obs) / lengths
    null_mean = np.cumsum(means) / lengths
    z_null = np.cumsum(sampled, axis=1) / lengths
    d = np.abs(z_obs - null_mean)
    extreme = (np.abs(z_null - null_mean) >= d).sum(axis=0)
    return (1 + extreme) / (M + 1)


@dataclass
class EvalResult:
    mean_p: np.ndarray  # per step
    stderr_p: np.ndarray
    curves: np.ndarray  # (trials, steps)


def evaluate_policy(
    server_factory,
    adversaries,
    legit: Pdt,
    steps: int,
    M: int,
    rng: np.random.Generator,
) -> EvalResult:
    """p-value trajectory of fresh sessions, one per adversary.
    server_factory() must return a fresh agent handle per session."""
    curves = np.stack(
        [
            p_curve(server_factory(), adversary, legit, steps, M, rng)
            for adversary in adversaries
        ]
    )
    return EvalResult(
        mean_p=curves.mean(axis=0),
        stderr_p=curves.std(axis=0, ddof=1) / np.sqrt(curves.shape[0]),
        curves=curves,
    )


def steps_to_threshold(mean_p: np.ndarray, threshold: float) -> int | None:
    """First step (1-based) at which the mean p-value is at or below the
    threshold, or None if it never is."""
    below = np.nonzero(mean_p <= threshold)[0]
    return int(below[0]) + 1 if below.size else None


def evaluate_replay(
    policy: ProbePolicy,
    legit: Pdt,
    mode: str,
    count: int,
    steps: int,
    M: int,
    rng: np.random.Generator,
    alpha: float = 0.1,
):
    """Record legitimate sessions under the given policy mode, replay their
    client actions against fresh sessions, and report the final p-values."""
    from agentauth.adv import ReplayAgent
    from agentauth.hypo import p_value

    finals = []
    for _ in range(count):
        recorded = run_interaction(
            _make_server(policy, legit, mode),
            PdtAgent(legit),
            steps - 1,
            rng,
            rng,
            n_actions=legit.n_actions,
        )
        replayed = run_interaction(
            _make_server(policy, legit, mode),
            ReplayAgent(recorded.client_actions()),
            steps - 1,
            rng,
            rng,
            n_actions=legit.n_actions,
        )
        finals.append(p_value(replayed, legit, M, rng))
    finals = np.array(finals)
    return finals, float(np.mean(finals < alpha))


def _make_server(policy, legit, mode):
    if mode == MODE_UNIFORM:
        return UniformAgent(legit.n_actions)
    return PolicyAgent(policy, legit, mode)

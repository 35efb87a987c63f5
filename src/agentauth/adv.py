"""Adversarial client behaviors: random look-alike trees, replay of recorded
sessions, and empirical-frequency imitations fit from observed transcripts."""

from __future__ import annotations

import numpy as np

from agentauth.engine import InteractionHistory
from agentauth.models import PdtAgent, fit_mle_pdt, generate_random_pdt


class ReplayExhausted(RuntimeError):
    """A replay adversary ran past the end of its recording."""


class ReplayAgent:
    """Re-emits a recorded client action sequence, ignoring the live server."""

    def __init__(self, client_actions):
        self.client_actions = list(client_actions)

    def next_action(self, opponent_history, rng) -> int:
        t = len(opponent_history)
        if t >= len(self.client_actions):
            raise ReplayExhausted(
                f"recording has {len(self.client_actions)} actions, step {t} requested"
            )
        return self.client_actions[t]


def make_random_adversary(
    n_actions: int, depth: int, temperature: float, rng: np.random.Generator
) -> PdtAgent:
    """Fresh random tree with the legitimate client's dimensions and
    temperature."""
    return PdtAgent(generate_random_pdt(n_actions, depth, temperature, rng))


def make_replay_adversary(recorded: InteractionHistory) -> ReplayAgent:
    return ReplayAgent(recorded.client_actions())


def make_mle_adversary(observed, n_actions: int, depth: int) -> PdtAgent:
    """Imitator fit by per-node empirical frequencies of the client side of
    the observed transcripts."""
    return PdtAgent(fit_mle_pdt(n_actions, depth, observed, role="client"))


def sample_population(
    n_actions: int,
    depth: int,
    temperature: float,
    count: int,
    seed: int,
) -> list[PdtAgent]:
    """count independent random adversaries from one root seed.  Disjoint
    root seeds (e.g. training vs evaluation) yield disjoint trees."""
    if count < 1:
        raise ValueError("count must be >= 1")
    children = np.random.SeedSequence(seed).spawn(count)
    return [
        make_random_adversary(n_actions, depth, temperature, np.random.default_rng(ss))
        for ss in children
    ]

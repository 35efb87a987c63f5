"""Interaction engine: run the l-step action exchange between two agents and
derive a shared session key from the resulting transcript."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from agentauth.models import Pdt, node_path

KEY_QUANT_BITS = 32
CONFIRM_LABEL = b"confirm"


class ProtocolViolation(RuntimeError):
    """An agent produced an action outside the agreed action set."""


class AgentHandle(Protocol):
    """Anything that can pick a next action given the opponent's history."""

    def next_action(self, opponent_history, rng: np.random.Generator) -> int: ...


@dataclass
class InteractionHistory:
    """Ordered (server_action, client_action) pairs for steps t = 0..l."""

    steps: list
    n_actions: int

    @property
    def length(self) -> int:
        return len(self.steps)

    def server_actions(self) -> list:
        return [s for s, _ in self.steps]

    def client_actions(self) -> list:
        return [c for _, c in self.steps]


def run_interaction(
    server: AgentHandle,
    client: AgentHandle,
    l: int,
    rng_s: np.random.Generator,
    rng_c: np.random.Generator,
    n_actions: int | None = None,
) -> InteractionHistory:
    """Simulate a full exchange of l+1 simultaneous steps.

    At each step both agents draw from distributions conditioned only on the
    history strictly before that step; neither sees the other's current action.
    """
    if l < 0:
        raise ValueError("l must be >= 0")
    if n_actions is None:
        n_actions = _infer_n(server) or _infer_n(client)
        if n_actions is None:
            raise ValueError("n_actions must be given for non-PDT agents")
    server_hist: list[int] = []
    client_hist: list[int] = []
    steps = []
    for _ in range(l + 1):
        a_s = server.next_action(tuple(client_hist), rng_s)
        a_c = client.next_action(tuple(server_hist), rng_c)
        if not (isinstance(a_s, int) and 1 <= a_s <= n_actions):
            raise ProtocolViolation(f"server produced invalid action {a_s!r}")
        if not (isinstance(a_c, int) and 1 <= a_c <= n_actions):
            raise ProtocolViolation(f"client produced invalid action {a_c!r}")
        steps.append((a_s, a_c))
        server_hist.append(a_s)
        client_hist.append(a_c)
    return InteractionHistory(steps=steps, n_actions=n_actions)


def _infer_n(agent) -> int | None:
    pdt = getattr(agent, "pdt", None)
    return pdt.n_actions if pdt is not None else None


def derive_key(history: InteractionHistory, model: Pdt) -> bytes:
    """32-byte session key from a transcript and a decision model.

    For each step, the model's probability of the observed client action
    (given the server actions strictly before that step) is quantized to 32
    fractional bits, packed as an unsigned 64-bit big-endian word, and the
    words are hashed with SHA-256.  Both sides obtain the same key exactly
    when their models assign identical probabilities along the transcript.
    """
    steps = history.length
    nodes = node_path(history.server_actions(), model.n_actions, model.depth, steps)
    client = np.asarray(history.client_actions(), dtype=np.intp)
    p = model.node_probs(nodes)[np.arange(steps), client - 1]
    # np.rint rounds half to even, as round() does.
    quantized = np.rint(p * (1 << KEY_QUANT_BITS)).astype(">u8")
    return hashlib.sha256(quantized.tobytes()).digest()


def confirmation_tag(key: bytes) -> bytes:
    """Hash proving knowledge of the session key without revealing it."""
    return hashlib.sha256(key + CONFIRM_LABEL).digest()


def save_transcript(history: InteractionHistory, path, meta: dict | None = None) -> None:
    """JSON-lines dump: a header object, then one {"t","s","c"} object per step."""
    header = {"n": history.n_actions, "l": history.length - 1}
    if meta:
        header.update(meta)
    with open(path, "w") as f:
        f.write(json.dumps(header) + "\n")
        for t, (a_s, a_c) in enumerate(history.steps):
            f.write(json.dumps({"t": t, "s": a_s, "c": a_c}) + "\n")


def load_transcript(path) -> InteractionHistory:
    with open(path) as f:
        lines = [json.loads(line) for line in f if line.strip()]
    if not lines:
        raise ValueError(f"empty transcript file: {path}")
    header, rows = lines[0], lines[1:]
    steps = [(row["s"], row["c"]) for row in rows]
    if len(steps) != header["l"] + 1:
        raise ValueError(
            f"transcript has {len(steps)} steps but header declares l={header['l']}"
        )
    return InteractionHistory(steps=steps, n_actions=header["n"])

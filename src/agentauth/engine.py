"""Interaction engine: run the l-step action exchange between two agents and
derive a shared session key from the resulting transcript.

`exchange` is the one step loop of a live session.  `run_pdt_sessions` runs
many PDT-vs-PDT sessions in lock step for dataset generation.  It takes its
uniforms as u[b, t, 0] (server) and u[b, t, 1] (client), the order in which
back-to-back `run_interaction` calls with `PdtAgent`s draw them from one
generator, and it samples exactly as `Pdt.sample_action` does; so batching
changes neither a dataset nor the generator's stream."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Protocol, Sequence

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

    def __post_init__(self):
        n = self.n_actions
        if not (isinstance(n, int) and n >= 2):
            raise ValueError(f"n_actions must be an int >= 2, got {n!r}")
        for s, c in self.steps:
            if not (isinstance(s, int) and isinstance(c, int) and 0 < s <= n and 0 < c <= n):
                raise ValueError(f"step {(s, c)} has an action outside 1..{n}")

    @property
    def length(self) -> int:
        return len(self.steps)

    def server_actions(self) -> list:
        return [s for s, _ in self.steps]

    def client_actions(self) -> list:
        return [c for _, c in self.steps]


def exchange(
    agent: AgentHandle, peer, l: int, rng: np.random.Generator, n_actions: int, role="server"
) -> InteractionHistory:
    """Run one session's l+1 simultaneous steps from one side's view: each step,
    agent.next_action(peer_actions_so_far, rng) picks this side's action, then
    peer(own_action, own_actions_before) returns the peer's (another agent, or
    a commit-reveal round on a socket).  An action that is not an int in
    1..n_actions raises ProtocolViolation naming its side.  Agents get the
    loop's own growing lists and must neither keep nor change them.  The
    history is in (server, client) order."""
    if l < 0:
        raise ValueError("l must be >= 0")
    other = "client" if role == "server" else "server"
    own, theirs = [], []
    for _ in range(l + 1):
        a = agent.next_action(theirs, rng)
        if not (isinstance(a, int) and 0 < a <= n_actions):
            raise ProtocolViolation(f"{role} produced invalid action {a!r}")
        b = peer(a, own)
        if not (isinstance(b, int) and 0 < b <= n_actions):
            raise ProtocolViolation(f"{other} produced invalid action {b!r}")
        own.append(a)
        theirs.append(b)
    pairs = zip(own, theirs) if role == "server" else zip(theirs, own)
    return InteractionHistory(steps=list(pairs), n_actions=n_actions)


def run_interaction(
    server: AgentHandle,
    client: AgentHandle,
    l: int,
    rng_s: np.random.Generator,
    rng_c: np.random.Generator,
    n_actions: int | None = None,
) -> InteractionHistory:
    """Simulate a full exchange of l+1 simultaneous steps in process: at each
    step the server, then the client, draws conditioned only on the history
    strictly before that step, so neither sees the other's current action."""
    if n_actions is None:
        pdt = getattr(server, "pdt", None) or getattr(client, "pdt", None)
        if pdt is None:
            raise ValueError("n_actions must be given for non-PDT agents")
        n_actions = pdt.n_actions
    return exchange(server, lambda _, seen: client.next_action(seen, rng_c), l, rng_s, n_actions)


def run_pdt_sessions(server: Pdt, clients: Sequence[Pdt], u: np.ndarray) -> np.ndarray:
    """Run len(clients) PDT-vs-PDT sessions in lock step; returns their actions
    as an int array of shape (B, l+1, 2), in (server, client) order.

    u[b, t, 0] and u[b, t, 1] are the server's and the client's uniforms at
    step t of session b.  Each draw is Pdt.sample_action's inverse CDF, so
    u = rng.random((B, l+1, 2)) gives, bit for bit, the transcripts of B
    back-to-back run_interaction(PdtAgent(server), PdtAgent(clients[b]), l,
    rng, rng) calls.  The clients must share n and depth; the server must
    share n with them.
    """
    u = np.asarray(u, dtype=np.float64)
    batch = len(clients)
    if batch == 0 or u.ndim != 3 or u.shape[0] != batch or u.shape[1] == 0 or u.shape[2] != 2:
        raise ValueError(f"need one or more clients and u of shape ({batch}, l+1, 2)")
    n = server.n_actions
    depth = clients[0].depth
    if any(c.n_actions != n or c.depth != depth for c in clients):
        raise ValueError("clients must share the server's n and one depth")
    # One stacked table: the server's rows, then each distinct client's.
    distinct = list({id(c): c for c in clients}.values())
    slot = {id(c): i for i, c in enumerate(distinct)}
    table = np.concatenate([server.probs] + [c.probs for c in distinct])
    client_base = server.num_nodes + distinct[0].num_nodes * np.array([slot[id(c)] for c in clients])
    base = np.stack([np.zeros(batch, np.int64), client_base])
    # Row 0 is the server side, row 1 the client side.  Each walks by
    # Pdt.next_node's rule, batched: offset[min(t, depth)] plus the base-n
    # code of the opponent's last depth actions, kept mod n^depth.
    depths = np.array([[server.depth], [depth]])
    modulus = n**depths
    code = np.zeros((2, batch), dtype=np.int64)
    steps = u.shape[1]
    uniforms = np.ascontiguousarray(u.transpose(1, 2, 0))[..., None]
    actions = np.empty((steps, 2, batch), dtype=np.int64)
    node = np.empty((2, batch), dtype=np.int64)
    probs = np.empty((2, batch, n))
    cdf = np.empty((2, batch, n))
    below = np.empty((2, batch, n - 1), dtype=bool)
    for t in range(steps):
        if t <= depths.max():
            start = base + (n ** np.minimum(t, depths) - 1) // (n - 1)
        np.add(start, code, out=node)
        table.take(node, axis=0, out=probs)
        np.add.accumulate(probs, axis=2, out=cdf)  # np.cumsum without its wrapper
        # Count of the first n-1 CDF values <= u: sums never decrease, so it is
        # the index of Pdt.sample_action's first running sum > u, else n-1.
        np.less_equal(cdf[..., :-1], uniforms[t], out=below)
        np.add.reduce(below, axis=2, out=actions[t])
        code *= n
        code += actions[t, ::-1]
        code %= modulus
    return np.ascontiguousarray(actions.transpose(2, 0, 1)) + 1


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
    p = model.probs[nodes, client - 1]
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
    if header["l"] != len(steps) - 1:
        raise ValueError(
            f"transcript has {len(steps)} steps but header declares l={header['l']!r}"
        )
    return InteractionHistory(steps=steps, n_actions=header["n"])

"""Probabilistic decision tree (PDT) agent models.

A PDT of depth k over n actions stores one distribution per node, with nodes
laid out in breadth-first order.  An agent traverses its tree with the
opponent's most recent (up to k) actions, oldest first, and samples its next
action from the node it lands on.  Trees serve both as agent behavior and as
the shared secret the server authenticates against.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

NODE_KIND_LOGIT = "logit"
NODE_KIND_LITERAL = "literal"

MODEL_FILE_VERSION = 2
MODEL_FILE_DTYPE = "<f8"


class ModelFormatError(ValueError):
    """A model file is malformed or violates a structural invariant."""


class UnsupportedVersionError(ModelFormatError):
    """A model file declares a version this code does not understand."""


def node_count(n_actions: int, depth: int) -> int:
    """Number of nodes in a complete n-ary tree of the given depth:
    (n^(depth+1) - 1) / (n - 1)."""
    return (n_actions ** (depth + 1) - 1) // (n_actions - 1)


def node_path(opponent_actions, n_actions: int, depth: int, steps: int) -> np.ndarray:
    """Breadth-first node index for each step t < steps: the node reached by
    the opponent's last min(t, depth) actions before t, oldest first.

    Node t is offset[min(t, depth)] plus the base-n code of that window, where
    offset[j] = (n^j - 1) / (n - 1) counts the nodes above level j.  Only the
    first steps - 1 actions are read; each must lie in 1..n_actions.
    """
    used = np.asarray(opponent_actions, dtype=np.int64)[: max(steps - 1, 0)]
    if used.size < steps - 1:
        raise ValueError(f"{steps} steps need {steps - 1} opponent actions, got {used.size}")
    if used.size and (used.min() < 1 or used.max() > n_actions):
        bad = used[(used < 1) | (used > n_actions)][0]
        raise ValueError(f"action {bad} out of range 1..{n_actions}")
    digits = used - 1
    code = np.zeros(steps, dtype=np.int64)
    for j in range(1, min(depth, steps - 1) + 1):
        code[j:] += digits[: steps - j] * n_actions ** (j - 1)
    level = np.minimum(np.arange(steps), depth)
    return (n_actions**level - 1) // (n_actions - 1) + code


def _softmax_rows(logits: np.ndarray, temperature: float) -> np.ndarray:
    # Fixed evaluation order (max-subtraction, exp, left-to-right sum) so two
    # independent parties computing from the same logits agree bit for bit.
    # In place after the first division: at paper size every model load
    # runs this over 1.1M entries, and each temporary costs milliseconds.
    e = logits / temperature
    e -= e.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= np.cumsum(e, axis=1)[:, -1:]
    return e


def boltzmann(logits, temperature: float) -> np.ndarray:
    """Softmax of logits/temperature, numerically stabilized."""
    if not (isinstance(temperature, (int, float)) and temperature > 0):
        raise ValueError("temperature must be a positive real")
    arr = np.asarray(logits, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("logits must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError("logits must all be finite")
    return _softmax_rows(arr[None, :], float(temperature))[0]


@dataclass(frozen=True)
class Pdt:
    """Immutable probabilistic decision tree.

    nodes holds one row per tree node in breadth-first order.  With
    node_kind "logit" each row is a logit vector pushed through a Boltzmann
    distribution at the tree's temperature; with "literal" each row already
    is a probability vector (used by empirical-frequency fits, which must be
    able to represent exact zeros).
    """

    n_actions: int
    depth: int
    temperature: float
    nodes: np.ndarray
    node_kind: str = NODE_KIND_LOGIT
    _probs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_actions < 2:
            raise ValueError("n_actions must be >= 2")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if not self.temperature > 0:
            raise ValueError("temperature must be positive")
        if self.node_kind not in (NODE_KIND_LOGIT, NODE_KIND_LITERAL):
            raise ValueError(f"unknown node_kind {self.node_kind!r}")
        nodes = np.array(self.nodes, dtype=np.float64)
        expected = node_count(self.n_actions, self.depth)
        if nodes.shape != (expected, self.n_actions):
            raise ValueError(
                f"nodes must have shape ({expected}, {self.n_actions}), "
                f"got {nodes.shape}"
            )
        if not np.all(np.isfinite(nodes)):
            raise ValueError("node parameters must be finite")
        if self.node_kind == NODE_KIND_LITERAL:
            if np.any(nodes < 0):
                raise ValueError("literal node probabilities must be >= 0")
            sums = nodes.sum(axis=1)
            if np.any(np.abs(sums - 1.0) > 1e-9):
                raise ValueError("literal node probabilities must sum to 1")
            probs = nodes.copy()
        else:
            probs = _softmax_rows(nodes, self.temperature)
        nodes.flags.writeable = False
        probs.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "_probs", probs)

    @property
    def num_nodes(self) -> int:
        return self.nodes.shape[0]

    def node_index(self, context) -> int:
        """Breadth-first index of the node reached by descending one level per
        context entry (oldest opponent action first); empty context is the root."""
        if len(context) > self.depth:
            raise ValueError(
                f"context length {len(context)} exceeds tree depth {self.depth}"
            )
        start, width, pos = 0, 1, 0
        for a in context:
            if not 1 <= a <= self.n_actions:
                raise ValueError(f"action {a} out of range 1..{self.n_actions}")
            start += width
            width *= self.n_actions
            pos = pos * self.n_actions + (a - 1)
        return start + pos

    def node_probs(self, index: int) -> np.ndarray:
        return self._probs[index]

    def action_distribution(self, opponent_history) -> np.ndarray:
        """Distribution over own next action given the opponent's action
        history (only the last depth entries matter)."""
        window = list(opponent_history)[-self.depth:]
        return self._probs[self.node_index(window)]

    def sample_action(self, opponent_history, rng: np.random.Generator) -> int:
        """Inverse-CDF draw in ascending action-index order."""
        p = self.action_distribution(opponent_history)
        u = rng.random()
        idx = int(p.cumsum().searchsorted(u, side="right"))
        return min(idx, self.n_actions - 1) + 1


class PdtAgent:
    """Decision source backed by a PDT; usable anywhere an agent handle is
    expected."""

    def __init__(self, pdt: Pdt):
        self.pdt = pdt

    def next_action(self, opponent_history, rng: np.random.Generator) -> int:
        return self.pdt.sample_action(opponent_history, rng)


def generate_random_pdt(
    n_actions: int, depth: int, temperature: float, rng: np.random.Generator
) -> Pdt:
    """Fresh tree with every logit drawn i.i.d. uniform on [0, 1]."""
    if n_actions < 2 or depth < 1:
        raise ValueError("need n_actions >= 2 and depth >= 1")
    if not temperature > 0:
        raise ValueError("temperature must be positive")
    nodes = rng.random((node_count(n_actions, depth), n_actions))
    return Pdt(n_actions=n_actions, depth=depth, temperature=temperature, nodes=nodes)


def fit_mle_pdt(n_actions: int, depth: int, transcripts, role: str = "client") -> Pdt:
    """Empirical-frequency fit of one side of recorded interactions.

    transcripts is a list of step sequences [(server_action, client_action), ...].
    For role "client" the fitted tree imitates the client (contexts are server
    actions); "server" imitates the server.  Unvisited nodes fall back to the
    uniform distribution; no smoothing is applied elsewhere, so the result is
    the exact per-node maximum likelihood estimate.
    """
    if role not in ("client", "server"):
        raise ValueError(f"role must be 'client' or 'server', got {role!r}")
    steps_lists = [getattr(t, "steps", t) for t in transcripts]
    if not steps_lists:
        raise ValueError("need at least one transcript")
    counts = np.zeros((node_count(n_actions, depth), n_actions))
    for steps in steps_lists:
        pairs = np.asarray(steps, dtype=np.int64).reshape(-1, 2)
        server, client = pairs[:, 0], pairs[:, 1]
        own, opp = (client, server) if role == "client" else (server, client)
        np.add.at(counts, (node_path(opp, n_actions, depth, len(pairs)), own - 1), 1)
    totals = counts.sum(axis=1, keepdims=True)
    probs = np.where(totals > 0, counts / np.where(totals > 0, totals, 1), 1.0 / n_actions)
    return Pdt(
        n_actions=n_actions,
        depth=depth,
        temperature=1.0,
        nodes=probs,
        node_kind=NODE_KIND_LITERAL,
    )


def save_pdt(pdt: Pdt, path) -> None:
    """Write a version-2 model file: one JSON header line, then the node
    table as raw little-endian float64 in breadth-first row order.  The
    header carries the SHA-256 of that body and no timestamp, so the same
    model always gives the same bytes."""
    body = np.ascontiguousarray(pdt.nodes, dtype=MODEL_FILE_DTYPE).tobytes()
    header = {
        "version": MODEL_FILE_VERSION,
        "n_actions": pdt.n_actions,
        "depth": pdt.depth,
        "temperature": pdt.temperature,
        "node_kind": pdt.node_kind,
        "dtype": MODEL_FILE_DTYPE,
        "sha256": hashlib.sha256(body).hexdigest(),
    }
    with open(path, "wb") as f:
        f.write(json.dumps(header).encode() + b"\n")
        f.write(body)


_REQUIRED_FIELDS = {
    1: ("n_actions", "depth", "temperature", "node_kind", "nodes"),
    2: ("n_actions", "depth", "temperature", "node_kind", "dtype", "sha256"),
}


def load_pdt(path) -> Pdt:
    """Read a model file.  Version 2 is what save_pdt writes; version 1 (the
    whole model as one line of JSON) still loads."""
    with open(path, "rb") as f:
        try:
            doc = json.loads(f.readline())
        except ValueError as exc:
            raise ModelFormatError(f"header is not valid JSON: {exc}") from exc
        body = f.read()
    if not isinstance(doc, dict):
        raise ModelFormatError("top-level value must be an object")
    version = doc.get("version")
    if version not in _REQUIRED_FIELDS:
        raise UnsupportedVersionError(f"unsupported model file version: {version!r}")
    for key in _REQUIRED_FIELDS[version]:
        if key not in doc:
            raise ModelFormatError(f"missing field {key!r}")
    if version == 1:
        if body.strip():
            raise ModelFormatError("unexpected data after the version-1 JSON line")
        nodes = doc["nodes"]
    else:
        nodes = _v2_nodes(doc, body)
    try:
        return Pdt(
            n_actions=int(doc["n_actions"]),
            depth=int(doc["depth"]),
            temperature=float(doc["temperature"]),
            nodes=np.asarray(nodes, dtype=np.float64),
            node_kind=doc["node_kind"],
        )
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"invalid model file: {exc}") from exc


def _v2_nodes(header: dict, body: bytes) -> np.ndarray:
    """Check a version-2 body against its header, then view it as the node
    table.  The length is checked before anything of the declared size is
    allocated, and the checksum before any value is used."""
    if header["dtype"] != MODEL_FILE_DTYPE:
        raise ModelFormatError(
            f"unsupported dtype {header['dtype']!r}, expected {MODEL_FILE_DTYPE!r}"
        )
    n, depth = header["n_actions"], header["depth"]
    if type(n) is not int or type(depth) is not int or n < 2 or depth < 1:
        raise ModelFormatError("n_actions and depth must be integers >= 2 and >= 1")
    # A tree of depth 64 or more has at least 2^64 nodes, more than any file
    # holds; the bound also keeps node_count from building a huge integer.
    if depth >= 64 or len(body) != node_count(n, depth) * n * 8:
        raise ModelFormatError(
            f"body length {len(body)} does not match a tree with n={n}, k={depth}"
        )
    if hashlib.sha256(body).hexdigest() != header["sha256"]:
        raise ModelFormatError("body checksum does not match the header's sha256")
    return np.frombuffer(body, dtype=MODEL_FILE_DTYPE).reshape(-1, n)

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
from dataclasses import dataclass, field

import numpy as np

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

    Each node is a fold from the root by Pdt.next_node's child rule,
    n·node + action, over that window; a fold from the root never passes
    depth, so it never needs the rule's wrap.  Only the first steps - 1
    actions are read; each must lie in 1..n_actions.
    """
    used = np.asarray(opponent_actions, dtype=np.int64)[: max(steps - 1, 0)]
    if used.size < steps - 1:
        raise ValueError(f"{steps} steps need {steps - 1} opponent actions, got {used.size}")
    if used.size and (used.min() < 1 or used.max() > n_actions):
        bad = used[(used < 1) | (used > n_actions)][0]
        raise ValueError(f"action {bad} out of range 1..{n_actions}")
    node = np.zeros(steps, dtype=np.int64)
    # Oldest action first: pass j adds the action j steps back to every t >= j.
    for j in range(min(depth, steps - 1), 0, -1):
        node[j:] = node[j:] * n_actions + used[: steps - j]
    return node


def _softmax_rows(logits: np.ndarray, temperature: float) -> np.ndarray:
    # Fixed evaluation order (max-subtraction, exp, left-to-right sum).  The
    # exp's last bits still depend on numpy's SIMD path, so two CPUs can get
    # different tables from the same logits; model files therefore store the
    # result.  In place after the first division: at paper size this runs
    # over 1.1M entries, and each temporary costs milliseconds.
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

    probs holds one probability row per tree node in breadth-first order:
    every entry >= 0 and every row summing to 1 within 1e-9.  Fits of
    empirical frequencies hold exact zeros.
    """

    n_actions: int
    depth: int
    probs: np.ndarray
    _total: int = field(init=False, repr=False, compare=False)
    _leaves: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_actions < 2:
            raise ValueError("n_actions must be >= 2")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        probs = np.array(self.probs, dtype=np.float64)
        expected = node_count(self.n_actions, self.depth)
        if probs.shape != (expected, self.n_actions):
            raise ValueError(
                f"probs must have shape ({expected}, {self.n_actions}), got {probs.shape}"
            )
        # One test for all: NaN fails both comparisons, and inf either one.
        # einsum, because sum(axis=1) is several times slower over rows this
        # short; the tolerance makes the order of summation irrelevant.
        row_sums = np.einsum("ij->i", probs)
        if not (probs.min() >= 0 and np.abs(row_sums - 1.0).max() <= 1e-9):
            raise ValueError("node probabilities must be >= 0 and sum to 1")
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "_total", expected)
        object.__setattr__(self, "_leaves", self.n_actions**self.depth)

    @property
    def num_nodes(self) -> int:
        return self.probs.shape[0]

    def next_node(self, node: int, action: int) -> int:
        """The one step of a tree walk, by the opponent's `action`: the child
        n·node + action above depth; at depth the window of the last k actions
        moves on by one, to total − n^k + (child − total) mod n^k."""
        if not 0 < action <= self.n_actions:
            raise ValueError(f"action {action} out of range 1..{self.n_actions}")
        child = self.n_actions * node + action
        if child < self._total:
            return child
        return self._total - self._leaves + (child - self._total) % self._leaves

    def action_distribution(self, opponent_history) -> np.ndarray:
        """Distribution over own next action given the opponent's action
        history: its last depth entries folded by next_node's child rule."""
        n, node = self.n_actions, 0
        for a in opponent_history[-self.depth:]:
            if not 0 < a <= n:
                raise ValueError(f"action {a} out of range 1..{n}")
            node = n * node + a
        return self.probs[node]

    def sample_action(self, opponent_history, rng: np.random.Generator) -> int:
        """Inverse-CDF draw of one u = rng.random(): the first action whose
        running sum of probabilities exceeds u, else n.  Python floats added
        left to right: np.cumsum(p).searchsorted(u, "right") bit for bit."""
        row = self.action_distribution(opponent_history).tolist()
        u = rng.random()
        total = 0.0
        for a, p in enumerate(row[:-1], 1):
            total += p
            if total > u:
                return a
        return self.n_actions


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
    """Fresh tree whose rows are Boltzmann distributions at `temperature` over
    logits drawn i.i.d. uniform on [0, 1]."""
    if n_actions < 2 or depth < 1:
        raise ValueError("need n_actions >= 2 and depth >= 1")
    if not temperature > 0:
        raise ValueError("temperature must be positive")
    logits = rng.random((node_count(n_actions, depth), n_actions))
    return Pdt(n_actions, depth, _softmax_rows(logits, temperature))


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
    return Pdt(n_actions, depth, probs)


def save_pdt(pdt: Pdt, path) -> None:
    """Write a version-2 model file: one JSON header line, then the
    probability table as raw little-endian float64 in breadth-first row
    order.  The header carries the SHA-256 of that body and no timestamp, so
    the same model always gives the same bytes.  node_kind "literal" and
    temperature 1.0 are fixed; they keep the file readable by releases that
    also stored logits."""
    body = np.ascontiguousarray(pdt.probs, dtype=MODEL_FILE_DTYPE).tobytes()
    header = {
        "version": MODEL_FILE_VERSION,
        "n_actions": pdt.n_actions,
        "depth": pdt.depth,
        "temperature": 1.0,
        "node_kind": "literal",
        "dtype": MODEL_FILE_DTYPE,
        "sha256": hashlib.sha256(body).hexdigest(),
    }
    with open(path, "wb") as f:
        f.write(json.dumps(header).encode() + b"\n")
        f.write(body)


_REQUIRED_FIELDS = ("n_actions", "depth", "temperature", "node_kind", "dtype", "sha256")


def load_pdt(path) -> Pdt:
    """Read a version-2 model file.  Its "literal" body is the probability
    table, used as stored, so every CPU loads the same bits; any other
    node_kind, such as the "logit" of earlier releases, is refused."""
    with open(path, "rb") as f:
        try:
            doc = json.loads(f.readline())
        except ValueError as exc:
            raise ModelFormatError(f"header is not valid JSON: {exc}") from exc
        body = f.read()
    if not isinstance(doc, dict):
        raise ModelFormatError("top-level value must be an object")
    if doc.get("version") != MODEL_FILE_VERSION:
        raise UnsupportedVersionError(f"unsupported model file version: {doc.get('version')!r}")
    for key in _REQUIRED_FIELDS:
        if key not in doc:
            raise ModelFormatError(f"missing field {key!r}")
    table = _v2_nodes(doc, body)
    try:
        if doc["node_kind"] != "literal":
            raise ValueError(f"unknown node_kind {doc['node_kind']!r}")
        return Pdt(doc["n_actions"], doc["depth"], table)
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

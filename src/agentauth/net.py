"""Networked protocol: two processes run the action exchange over TCP.

Both sides run engine.exchange, the in-process step loop, with one
commit-reveal round (exchange_step) as the peer of each step: both sides
send a hash commitment to their action before either reveals it, so neither
can adapt to the other's current-step choice.  Frames are length-prefixed
(32-bit big-endian length, one type byte, payload).  After the exchange the
server runs the hypothesis test and returns its decision together with a
key-confirmation tag; the key itself never crosses the wire.
"""

from __future__ import annotations

import hashlib
import logging
import secrets
import socket
import socketserver
import struct
import threading
from dataclasses import dataclass

import numpy as np

from agentauth.engine import InteractionHistory, ProtocolViolation, exchange
from agentauth.engine import confirmation_tag, derive_key
from agentauth.hypo import DEFAULT_ALPHA, hypothesis_test
from agentauth.models import Pdt, PdtAgent

FRAME_HELLO = 0x01
FRAME_PARAMS = 0x02
FRAME_COMMIT = 0x03
FRAME_REVEAL = 0x04
FRAME_DECISION = 0x05
FRAME_ERROR = 0x7F

FRAME_TYPES = {
    FRAME_HELLO,
    FRAME_PARAMS,
    FRAME_COMMIT,
    FRAME_REVEAL,
    FRAME_DECISION,
    FRAME_ERROR,
}

MAX_FRAME_BYTES = 64 * 1024
PROTOCOL_VERSION = 1
NONCE_BYTES = 16
DEFAULT_TIMEOUT = 10.0
# Longest exchange a client agrees to run; l comes from the server, and an
# unchecked l of 2^32 - 1 would hold the client in its step loop for days.
MAX_SESSION_LENGTH = 10_000

PARAMS_STRUCT = struct.Struct(">HIHH")  # n, l, k, version

log = logging.getLogger(__name__)


class FrameError(ValueError):
    """Malformed or oversized frame: a bad length or an unknown type."""


class ProtocolError(RuntimeError):
    """Peer violated the protocol (bad reveal, wrong phase, bad params)."""


def encode_frame(ftype: int, payload: bytes) -> bytes:
    if ftype not in FRAME_TYPES:
        raise FrameError(f"unknown frame type 0x{ftype:02x}")
    if 1 + len(payload) > MAX_FRAME_BYTES:
        raise FrameError(f"payload of {len(payload)} bytes exceeds frame cap")
    return struct.pack(">IB", len(payload) + 1, ftype) + payload


def send_frame(sock: socket.socket, ftype: int, payload: bytes = b"") -> None:
    sock.sendall(encode_frame(ftype, payload))


def recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> tuple[int, bytes]:
    header = recv_exact(sock, 4)
    (length,) = struct.unpack(">I", header)
    if length < 1 or length > MAX_FRAME_BYTES:
        raise FrameError(f"bad frame length {length}")
    body = recv_exact(sock, length)
    ftype = body[0]
    if ftype not in FRAME_TYPES:
        raise FrameError(f"unknown frame type 0x{ftype:02x}")
    return ftype, body[1:]


def commit_digest(action: int, nonce: bytes) -> bytes:
    """SHA-256 over the action byte followed by the nonce."""
    if len(nonce) != NONCE_BYTES:
        raise ValueError(f"nonce must be {NONCE_BYTES} bytes")
    return hashlib.sha256(bytes([action]) + nonce).digest()


def exchange_step(sock: socket.socket, own_action: int) -> int:
    """One commit-reveal round; returns the peer's action, which
    engine.exchange checks against the action set.

    Ordering rule: our reveal is sent only after the peer's commitment has
    arrived, so a peer that stalls waiting for the plaintext never sees it.
    """
    nonce = secrets.token_bytes(NONCE_BYTES)
    send_frame(sock, FRAME_COMMIT, commit_digest(own_action, nonce))
    ftype, peer_commit = recv_frame(sock)
    _expect(ftype, FRAME_COMMIT, peer_commit)
    if len(peer_commit) != 32:
        raise ProtocolError(f"commitment must be 32 bytes, got {len(peer_commit)}")
    send_frame(sock, FRAME_REVEAL, bytes([own_action]) + nonce)
    ftype, reveal = recv_frame(sock)
    _expect(ftype, FRAME_REVEAL, reveal)
    if len(reveal) != 1 + NONCE_BYTES:
        raise ProtocolError(f"reveal must be {1 + NONCE_BYTES} bytes")
    peer_action = reveal[0]
    if hashlib.sha256(reveal).digest() != peer_commit:
        raise ProtocolError("reveal does not match commitment")
    return peer_action


def _expect(ftype: int, wanted: int, payload: bytes) -> None:
    if ftype == FRAME_ERROR:
        raise ProtocolError(f"peer error: {payload.decode(errors='replace')}")
    if ftype != wanted:
        raise ProtocolError(f"expected frame 0x{wanted:02x}, got 0x{ftype:02x}")


@dataclass
class ServerConfig:
    l: int = 200
    alpha: float = DEFAULT_ALPHA
    timeout: float = DEFAULT_TIMEOUT
    seed: int = 0
    force_accept: bool = False  # test hook: issue a tag even on reject

    def __post_init__(self):
        # Every client refuses an l above MAX_SESSION_LENGTH, so a server
        # configured with one could complete no session at all.
        if not 0 <= self.l <= MAX_SESSION_LENGTH:
            raise ValueError(f"l must be in 0..{MAX_SESSION_LENGTH}, got {self.l}")
        # Checked here, not only by hypothesis_test, so that a bad value stops
        # the server at start-up instead of failing every session at its end.
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")


class AmiServer(socketserver.ThreadingTCPServer):
    """Accepts any number of concurrent sessions; per-session RNG streams are
    spawned from one seed under a lock, models are shared read-only."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, registry, server_agent_factory, config: ServerConfig):
        self.registry = dict(registry)
        if not self.registry:
            raise ValueError("user registry must be non-empty")
        self.server_agent_factory = server_agent_factory
        self.config = config
        self._seed_seq = np.random.SeedSequence(config.seed)
        self._seed_lock = threading.Lock()
        super().__init__(address, _SessionHandler)

    def session_rng(self) -> np.random.Generator:
        with self._seed_lock:
            (child,) = self._seed_seq.spawn(1)
        return np.random.default_rng(child)

    def start_background(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread


class _SessionHandler(socketserver.BaseRequestHandler):
    def handle(self):
        sock = self.request
        server: AmiServer = self.server
        cfg = server.config
        sock.settimeout(cfg.timeout)
        try:
            ftype, payload = recv_frame(sock)
            if ftype != FRAME_HELLO:
                raise ProtocolError("expected HELLO")
            user_id = payload.decode("utf-8", errors="replace")
            model = server.registry.get(user_id)
            if model is None:
                raise ProtocolError(f"unknown user {user_id!r}")
            self._run_session(sock, server, model, cfg)
        except (FrameError, ProtocolError, ProtocolViolation) as exc:
            log.warning(
                "session with %s: %s: %r", self.client_address, type(exc).__name__, str(exc)
            )
            try:
                send_frame(sock, FRAME_ERROR, str(exc).encode())
            except OSError as send_exc:
                log.warning(
                    "session with %s: %s, then sending the error failed: %s",
                    self.client_address, type(exc).__name__, type(send_exc).__name__,
                )
        except OSError as exc:
            log.warning("session with %s aborted: %s", self.client_address, type(exc).__name__)

    def _run_session(self, sock, server, model: Pdt, cfg: ServerConfig):
        rng = server.session_rng()
        agent = server.server_agent_factory()
        send_frame(
            sock,
            FRAME_PARAMS,
            PARAMS_STRUCT.pack(model.n_actions, cfg.l, model.depth, PROTOCOL_VERSION),
        )
        history = exchange(agent, lambda a, _: exchange_step(sock, a), cfg.l, rng, model.n_actions)
        verdict = hypothesis_test(history, model, cfg.alpha)
        accept = verdict.accept or cfg.force_accept
        if accept:
            tag = confirmation_tag(derive_key(history, model))
            send_frame(sock, FRAME_DECISION, bytes([1]) + tag)
        else:
            send_frame(sock, FRAME_DECISION, bytes([0]))


@dataclass
class ClientResult:
    accepted: bool
    key: bytes | None
    tag_ok: bool | None
    history: InteractionHistory


def client_authenticate(
    address,
    user_id: str,
    model: Pdt,
    rng: np.random.Generator,
    client_agent=None,
    timeout: float = DEFAULT_TIMEOUT,
) -> ClientResult:
    """Run the client side of a session; on accept, derive the session key
    locally and verify the server's confirmation tag against it."""
    agent = client_agent if client_agent is not None else PdtAgent(model)
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.settimeout(timeout)
        send_frame(sock, FRAME_HELLO, user_id.encode("utf-8"))
        ftype, payload = recv_frame(sock)
        _expect(ftype, FRAME_PARAMS, payload)
        if len(payload) != PARAMS_STRUCT.size:
            raise ProtocolError("bad PARAMS payload size")
        n, l, k, version = PARAMS_STRUCT.unpack(payload)
        if version != PROTOCOL_VERSION:
            raise ProtocolError(f"unsupported protocol version {version}")
        if l > MAX_SESSION_LENGTH:
            raise ProtocolError(f"server asked for l={l}, above the limit {MAX_SESSION_LENGTH}")
        if n != model.n_actions or k != model.depth:
            raise ProtocolError(
                f"server params (n={n}, k={k}) do not match the client model "
                f"(n={model.n_actions}, k={model.depth})"
            )
        history = exchange(agent, lambda a, _: exchange_step(sock, a), l, rng, n, role="client")
        ftype, payload = recv_frame(sock)
        _expect(ftype, FRAME_DECISION, payload)
        if not payload or payload[0] not in (0, 1):
            raise ProtocolError("bad DECISION payload")
        accepted = payload[0] == 1
        if not accepted:
            return ClientResult(accepted=False, key=None, tag_ok=None, history=history)
        if len(payload) != 1 + 32:
            raise ProtocolError("accepted DECISION must carry a 32-byte tag")
        key = derive_key(history, model)
        tag_ok = confirmation_tag(key) == payload[1:]
        return ClientResult(accepted=True, key=key, tag_ok=tag_ok, history=history)

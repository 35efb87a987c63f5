import hashlib
import logging
import socket
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentauth.engine import ProtocolViolation, run_interaction
from agentauth.models import PdtAgent, generate_random_pdt
from agentauth.net import (
    FRAME_COMMIT,
    FRAME_ERROR,
    FRAME_HELLO,
    FRAME_PARAMS,
    FRAME_REVEAL,
    FRAME_TYPES,
    MAX_FRAME_BYTES,
    MAX_SESSION_LENGTH,
    PARAMS_STRUCT,
    PROTOCOL_VERSION,
    AmiServer,
    FrameError,
    ProtocolError,
    ServerConfig,
    client_authenticate,
    commit_digest,
    encode_frame,
    recv_frame,
    send_frame,
)


@pytest.fixture()
def models():
    rng = np.random.default_rng(40)
    legit = generate_random_pdt(3, 2, 0.3, rng)
    server_model = generate_random_pdt(3, 2, 1.0, rng)
    return legit, server_model


@pytest.fixture()
def live_server(models):
    legit, server_model = models
    config = ServerConfig(l=60, timeout=5.0, seed=99)
    server = AmiServer(
        ("127.0.0.1", 0),
        {"alice": legit},
        lambda: PdtAgent(server_model),
        config,
    )
    server.start_background()
    try:
        yield server, server.server_address
    finally:
        server.shutdown()
        server.server_close()


@pytest.fixture()
def pair():
    """A connected (writer, reader) socket pair; the reader gives up after 5 s."""
    writer, reader = socket.socketpair()
    reader.settimeout(5.0)
    with writer, reader:
        yield writer, reader


def header(length: int, ftype: int) -> bytes:
    return length.to_bytes(4, "big") + bytes([ftype])


def received(pair, wire: bytes, close: bool = False):
    """recv_frame of wire, sent down the pair, then closed if close."""
    writer, reader = pair
    writer.sendall(wire)
    if close:
        writer.shutdown(socket.SHUT_WR)
    return recv_frame(reader)


FRAMES = st.builds(encode_frame, st.sampled_from(sorted(FRAME_TYPES)), st.binary(max_size=64))
# Headers at and around each length bound recv_frame checks, of any type byte.
EDGE_HEADERS = st.builds(
    header,
    st.sampled_from([0, 1, 2, MAX_FRAME_BYTES, MAX_FRAME_BYTES + 1, 2**32 - 1]),
    st.integers(0, 255),
)


class TestFrameCodec:
    """recv_frame, the one frame parser, reading from a socket pair."""

    def test_round_trip_fuzz(self, pair):
        writer, reader = pair
        rng = np.random.default_rng(41)
        types = sorted(FRAME_TYPES)
        for _ in range(500):
            ftype = types[rng.integers(len(types))]
            payload = rng.bytes(int(rng.integers(0, 200)))
            writer.sendall(encode_frame(ftype, payload))
            assert recv_frame(reader) == (ftype, payload)

    def test_truncated_header_rejected(self, pair):
        with pytest.raises(ProtocolError, match="closed mid-frame"):
            received(pair, b"\x00\x00", close=True)

    def test_truncated_payload_rejected(self, pair):
        wire = encode_frame(FRAME_HELLO, b"abcdef")
        with pytest.raises(ProtocolError, match="closed mid-frame"):
            received(pair, wire[:-1], close=True)

    def test_oversized_rejected_both_ways(self, pair):
        with pytest.raises(FrameError):
            encode_frame(FRAME_HELLO, b"x" * MAX_FRAME_BYTES)
        with pytest.raises(FrameError, match="bad frame length"):
            received(pair, header(MAX_FRAME_BYTES + 1, FRAME_HELLO))

    def test_unknown_type_rejected(self, pair):
        with pytest.raises(FrameError):
            encode_frame(0x42, b"")
        with pytest.raises(FrameError, match="unknown frame type 0x42"):
            received(pair, header(1, 0x42))

    def test_zero_length_rejected(self, pair):
        with pytest.raises(FrameError, match="bad frame length 0"):
            received(pair, b"\x00\x00\x00\x00")

    @settings(max_examples=300, deadline=None)
    @given(
        pieces=st.lists(st.one_of(FRAMES, EDGE_HEADERS, st.binary(max_size=64)), max_size=24),
        cuts=st.lists(st.integers(0, 2048), max_size=8),
    )
    def test_any_byte_stream_gives_frames_or_frame_errors(self, pieces, cuts):
        """Valid frames, edge-case headers and arbitrary bytes, sent as one
        stream in arbitrary pieces and then closed: every recv_frame call
        returns a frame or raises FrameError or ProtocolError, and the stream
        ends in ProtocolError."""
        data = b"".join(pieces)
        writer, reader = socket.socketpair()
        reader.settimeout(5.0)
        bounds = [0, *sorted(c for c in cuts if c < len(data)), len(data)]

        def send():
            with writer:
                for lo, hi in zip(bounds, bounds[1:]):
                    writer.sendall(data[lo:hi])

        thread = threading.Thread(target=send)
        thread.start()
        with reader:
            while True:
                try:
                    ftype, payload = recv_frame(reader)
                except FrameError:
                    continue
                except ProtocolError:
                    break
                assert ftype in FRAME_TYPES and len(payload) < MAX_FRAME_BYTES
        thread.join(timeout=5.0)
        assert not thread.is_alive()


class TestCommit:
    def test_digest_definition(self):
        nonce = bytes(range(16))
        assert commit_digest(3, nonce) == hashlib.sha256(bytes([3]) + nonce).digest()

    def test_nonce_length_validated(self):
        with pytest.raises(ValueError):
            commit_digest(1, b"short")

    def test_action_binding(self):
        nonce = b"\x07" * 16
        assert commit_digest(1, nonce) != commit_digest(2, nonce)


class TestSessions:
    def test_legitimate_client_accepted_with_tag(self, live_server, models):
        legit, _ = models
        _, addr = live_server
        result = client_authenticate(addr, "alice", legit, np.random.default_rng(50))
        assert result.accepted
        assert result.tag_ok
        assert len(result.key) == 32
        assert result.history.length == 61

    def test_wrong_model_rejected(self, live_server):
        _, addr = live_server
        rng = np.random.default_rng(51)
        impostor = generate_random_pdt(3, 2, 0.3, rng)
        result = client_authenticate(addr, "alice", impostor, rng)
        assert not result.accepted
        assert result.key is None

    def test_unknown_user(self, live_server, models):
        legit, _ = models
        _, addr = live_server
        with pytest.raises(ProtocolError, match="unknown user"):
            client_authenticate(addr, "mallory", legit, np.random.default_rng(52))

    def test_params_mismatch(self, live_server):
        _, addr = live_server
        rng = np.random.default_rng(53)
        wrong_shape = generate_random_pdt(4, 2, 0.3, rng)
        with pytest.raises(ProtocolError, match="do not match"):
            client_authenticate(addr, "alice", wrong_shape, rng)

    def test_concurrent_clients(self, live_server, models):
        legit, _ = models
        _, addr = live_server
        results = [None] * 5
        def session(i):
            results[i] = client_authenticate(
                addr, "alice", legit, np.random.default_rng(60 + i)
            )
        threads = [threading.Thread(target=session, args=(i,)) for i in range(5)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert all(r is not None for r in results)
        assert all(r.tag_ok for r in results if r.accepted)
        assert sum(r.accepted for r in results) >= 3

    def test_empty_registry_rejected(self):
        with pytest.raises(ValueError):
            AmiServer(("127.0.0.1", 0), {}, lambda: None, ServerConfig())


class TestCommitRevealDiscipline:
    def _handshake(self, addr):
        sock = socket.create_connection(addr, timeout=5.0)
        sock.settimeout(5.0)
        send_frame(sock, FRAME_HELLO, b"alice")
        ftype, _ = recv_frame(sock)
        assert ftype == FRAME_PARAMS
        return sock

    def test_tampered_reveal_detected(self, live_server):
        _, addr = live_server
        nonce = b"\x00" * 16
        with self._handshake(addr) as sock:
            ftype, _ = recv_frame(sock)
            assert ftype == FRAME_COMMIT
            send_frame(sock, FRAME_COMMIT, commit_digest(1, nonce))
            ftype, _ = recv_frame(sock)
            assert ftype == FRAME_REVEAL
            # reveal a different action than the one committed to
            send_frame(sock, FRAME_REVEAL, bytes([2]) + nonce)
            ftype, payload = recv_frame(sock)
            assert ftype == FRAME_ERROR
            assert b"commitment" in payload

    def test_tampered_reveal_is_logged(self, live_server, caplog):
        _, addr = live_server
        nonce = b"\x00" * 16
        with caplog.at_level(logging.WARNING, logger="agentauth.net"):
            with self._handshake(addr) as sock:
                peer = sock.getsockname()
                recv_frame(sock)
                send_frame(sock, FRAME_COMMIT, commit_digest(1, nonce))
                recv_frame(sock)
                send_frame(sock, FRAME_REVEAL, bytes([2]) + nonce)
                ftype, _ = recv_frame(sock)
                assert ftype == FRAME_ERROR
        messages = [r.getMessage() for r in caplog.records if r.name == "agentauth.net"]
        assert len(messages) == 1
        assert str(peer) in messages[0]
        assert "ProtocolError: 'reveal does not match commitment'" in messages[0]

    def test_out_of_range_action_names_client(self, live_server):
        _, addr = live_server
        nonce = b"\x00" * 16
        with self._handshake(addr) as sock:
            recv_frame(sock)
            # an honest commitment to an action outside 1..3
            send_frame(sock, FRAME_COMMIT, commit_digest(4, nonce))
            recv_frame(sock)
            send_frame(sock, FRAME_REVEAL, bytes([4]) + nonce)
            ftype, payload = recv_frame(sock)
            assert ftype == FRAME_ERROR
            assert payload == b"client produced invalid action 4"

    def test_no_reveal_before_peer_commit(self, live_server):
        _, addr = live_server
        with self._handshake(addr) as sock:
            ftype, _ = recv_frame(sock)
            assert ftype == FRAME_COMMIT
            # stall without committing: the server must not leak its reveal
            sock.settimeout(0.5)
            with pytest.raises(socket.timeout):
                sock.recv(1)
            # committing unblocks the reveal
            sock.settimeout(5.0)
            send_frame(sock, FRAME_COMMIT, commit_digest(1, b"\x01" * 16))
            ftype, reveal = recv_frame(sock)
            assert ftype == FRAME_REVEAL
            assert len(reveal) == 17

    def test_short_commitment_rejected(self, live_server):
        _, addr = live_server
        with self._handshake(addr) as sock:
            ftype, _ = recv_frame(sock)
            assert ftype == FRAME_COMMIT
            send_frame(sock, FRAME_COMMIT, b"\x00" * 8)
            ftype, payload = recv_frame(sock)
            assert ftype == FRAME_ERROR
            assert b"32 bytes" in payload


class TestHostilePeers:
    @pytest.mark.parametrize("l", [-1, MAX_SESSION_LENGTH + 1])
    def test_server_refuses_l_every_client_refuses(self, l):
        with pytest.raises(ValueError, match="l must be"):
            ServerConfig(l=l)
        assert ServerConfig(l=MAX_SESSION_LENGTH).l == MAX_SESSION_LENGTH

    @pytest.mark.parametrize(
        "field, value", [("alpha", 0.0), ("alpha", 1.0), ("alpha", 1.5), ("alpha", float("nan"))],
    )
    def test_server_refuses_test_parameters_no_session_could_use(self, field, value):
        # A bad alpha used to pass here and fail every session after its last
        # round, inside hypothesis_test.
        with pytest.raises(ValueError, match=field):
            ServerConfig(**{field: value})

    @pytest.mark.parametrize("timeout", [-1.0, 0, 0.0, float("inf"), float("nan")])
    def test_server_refuses_a_timeout_no_session_could_use(self, timeout):
        with pytest.raises(ValueError, match="timeout"):
            ServerConfig(timeout=timeout)
        assert ServerConfig(timeout=0.2).timeout == 0.2

    @staticmethod
    def _frames_sent_by_failing_client(model, l, expected_error, match, client_agent=None):
        """Everything a client of user "alice" sends to a one-shot server that
        answers HELLO with PARAMS (n=3, k=2, the given l), given that the
        client raises."""
        received = []
        with socket.create_server(("127.0.0.1", 0)) as listener:
            listener.settimeout(5.0)

            def one_shot_server():
                conn, _ = listener.accept()
                with conn:
                    conn.settimeout(5.0)
                    received.append(recv_frame(conn))
                    params = PARAMS_STRUCT.pack(3, l, 2, PROTOCOL_VERSION)
                    send_frame(conn, FRAME_PARAMS, params)
                    while chunk := conn.recv(4096):  # everything until the client hangs up
                        received.append(chunk)

            thread = threading.Thread(target=one_shot_server)
            thread.start()
            with pytest.raises(expected_error, match=match):
                client_authenticate(
                    listener.getsockname(), "alice", model, np.random.default_rng(70),
                    client_agent=client_agent,
                )
            thread.join(timeout=5.0)
        assert not thread.is_alive()
        return received

    def test_client_refuses_huge_l_before_first_commit(self, models):
        legit, _ = models
        received = self._frames_sent_by_failing_client(
            legit, 2**32 - 1, ProtocolError, "above the limit"
        )
        assert received == [(FRAME_HELLO, b"alice")]  # no COMMIT was ever sent

    def test_client_refuses_own_invalid_action_before_sending_it(self, models):
        class ZeroAgent:
            def next_action(self, opponent_history, rng):
                return 0

        legit, _ = models
        received = self._frames_sent_by_failing_client(
            legit, 5, ProtocolViolation, "client", client_agent=ZeroAgent()
        )
        assert received == [(FRAME_HELLO, b"alice")]  # no COMMIT was ever sent

    def test_silent_client_timeout_is_logged(self, models, caplog):
        legit, server_model = models
        config = ServerConfig(l=10, timeout=0.2, seed=1)
        server = AmiServer(
            ("127.0.0.1", 0), {"alice": legit}, lambda: PdtAgent(server_model), config
        )
        server.start_background()
        try:
            with caplog.at_level(logging.WARNING, logger="agentauth.net"):
                with socket.create_connection(server.server_address, timeout=5.0) as sock:
                    peer = sock.getsockname()
                    # say nothing; the server logs, then closes the connection
                    assert sock.recv(1) == b""
        finally:
            server.shutdown()
            server.server_close()
        messages = [r.getMessage() for r in caplog.records if r.name == "agentauth.net"]
        assert len(messages) == 1
        assert str(peer) in messages[0] and "TimeoutError" in messages[0]


class TestSameExchangeAsInProcess:
    def test_tcp_session_equals_run_interaction(self, models):
        # The server's session generator is the first child of SeedSequence(9);
        # with the same generators the deployed path must give the in-process
        # transcript step for step.
        legit, server_model = models
        config = ServerConfig(l=60, timeout=5.0, seed=9)
        server = AmiServer(
            ("127.0.0.1", 0), {"alice": legit}, lambda: PdtAgent(server_model), config
        )
        server.start_background()
        try:
            result = client_authenticate(
                server.server_address, "alice", legit, np.random.default_rng(5)
            )
        finally:
            server.shutdown()
            server.server_close()
        expected = run_interaction(
            PdtAgent(server_model),
            PdtAgent(legit),
            60,
            np.random.default_rng(np.random.SeedSequence(9).spawn(1)[0]),
            np.random.default_rng(5),
        )
        assert result.history.steps == expected.steps

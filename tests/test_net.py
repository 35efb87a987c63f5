import hashlib
import logging
import socket
import threading

import numpy as np
import pytest

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
    decode_frame,
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
    config = ServerConfig(l=60, mc_samples=400, timeout=5.0, seed=99)
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


class TestFrameCodec:
    def test_round_trip_fuzz(self):
        rng = np.random.default_rng(41)
        types = sorted(FRAME_TYPES)
        for _ in range(500):
            ftype = types[rng.integers(len(types))]
            payload = rng.bytes(int(rng.integers(0, 200)))
            wire = encode_frame(ftype, payload)
            got_type, got_payload, consumed = decode_frame(wire + b"trailing")
            assert (got_type, got_payload, consumed) == (ftype, payload, len(wire))

    def test_truncated_header_rejected(self):
        with pytest.raises(FrameError):
            decode_frame(b"\x00\x00")

    def test_truncated_payload_rejected(self):
        wire = encode_frame(FRAME_HELLO, b"abcdef")
        with pytest.raises(FrameError):
            decode_frame(wire[:-1])

    def test_oversized_rejected_both_ways(self):
        with pytest.raises(FrameError):
            encode_frame(FRAME_HELLO, b"x" * MAX_FRAME_BYTES)
        huge = (MAX_FRAME_BYTES + 1).to_bytes(4, "big") + bytes([FRAME_HELLO])
        with pytest.raises(FrameError):
            decode_frame(huge)

    def test_unknown_type_rejected(self):
        with pytest.raises(FrameError):
            encode_frame(0x42, b"")
        wire = bytearray(encode_frame(FRAME_HELLO, b""))
        wire[4] = 0x42
        with pytest.raises(FrameError):
            decode_frame(bytes(wire))

    def test_zero_length_rejected(self):
        with pytest.raises(FrameError):
            decode_frame(b"\x00\x00\x00\x00")


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

    def test_client_refuses_huge_l_before_first_commit(self, models):
        legit, _ = models
        received = []
        with socket.create_server(("127.0.0.1", 0)) as listener:
            listener.settimeout(5.0)

            def one_shot_server():
                conn, _ = listener.accept()
                with conn:
                    conn.settimeout(5.0)
                    received.append(recv_frame(conn))
                    params = PARAMS_STRUCT.pack(3, 2**32 - 1, 2, PROTOCOL_VERSION)
                    send_frame(conn, FRAME_PARAMS, params)
                    while chunk := conn.recv(4096):  # everything until the client hangs up
                        received.append(chunk)

            thread = threading.Thread(target=one_shot_server)
            thread.start()
            with pytest.raises(ProtocolError, match="above the limit"):
                client_authenticate(
                    listener.getsockname(), "alice", legit, np.random.default_rng(70)
                )
            thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert received == [(FRAME_HELLO, b"alice")]  # no COMMIT was ever sent

    def test_silent_client_timeout_is_logged(self, models, caplog):
        legit, server_model = models
        config = ServerConfig(l=10, mc_samples=100, timeout=0.2, seed=1)
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

"""Client-side resilience: seeded 503 retries and stale keep-alive
recovery."""

from __future__ import annotations

import json
import random
import socket
import threading

import pytest

from repro.serve import PredictionClient, ServerError
from repro.serve.client import _RETRY_BASE


def _fake_exchange(responses):
    """An ``_exchange`` stand-in replaying canned (status, headers,
    payload) triples."""
    queue = list(responses)

    def exchange(method, path, body):
        status, headers, payload = queue.pop(0)
        return status, headers, json.dumps(payload).encode("utf-8")

    return exchange


class TestSeededRetries:
    def test_delays_replay_the_seed(self, monkeypatch):
        client = PredictionClient(
            "127.0.0.1", 1, retries=3, retry_seed=42
        )
        shed = (503, {"Retry-After": "0.20"}, {"error": "busy"})
        ok = (200, {}, {"predictions": [1.5]})
        monkeypatch.setattr(
            client, "_exchange", _fake_exchange([shed, shed, ok])
        )
        slept = []
        monkeypatch.setattr(
            "repro.serve.client.time.sleep", slept.append
        )
        assert client.predict([{}]) == [1.5]
        # Full jitter: Retry-After plus uniform(0, base * 2^attempt),
        # replayed exactly from the seed.
        expected_rng = random.Random(42)
        expected = [
            0.20 + expected_rng.uniform(0.0, _RETRY_BASE * (2 ** attempt))
            for attempt in range(2)
        ]
        assert slept == pytest.approx(expected)

    def test_jitter_ceiling_is_capped(self, monkeypatch):
        client = PredictionClient(
            "127.0.0.1", 1, retries=8, retry_seed=7, max_retry_wait=0.1
        )
        shed = (503, {}, {"error": "busy"})
        ok = (200, {}, {"predictions": [1.0]})
        monkeypatch.setattr(
            client, "_exchange",
            _fake_exchange([shed] * 8 + [ok]),
        )
        slept = []
        monkeypatch.setattr(
            "repro.serve.client.time.sleep", slept.append
        )
        client.predict([{}])
        assert len(slept) == 8
        assert all(delay <= 0.1 for delay in slept)

    def test_retries_zero_fails_fast(self, monkeypatch):
        client = PredictionClient("127.0.0.1", 1)
        monkeypatch.setattr(
            client, "_exchange",
            _fake_exchange([(
                503,
                {"Retry-After": "1.5", "X-Request-Id": "abc-000001"},
                {"error": "busy", "request_id": "abc-000001"},
            )]),
        )
        slept = []
        monkeypatch.setattr(
            "repro.serve.client.time.sleep", slept.append
        )
        with pytest.raises(ServerError) as excinfo:
            client.predict([{}])
        assert slept == []
        assert excinfo.value.status == 503
        assert excinfo.value.retry_after == pytest.approx(1.5)
        assert excinfo.value.request_id == "abc-000001"

    def test_exhausted_retries_surface_the_503(self, monkeypatch):
        client = PredictionClient("127.0.0.1", 1, retries=2, retry_seed=0)
        monkeypatch.setattr(
            client, "_exchange",
            _fake_exchange([(503, {}, {"error": "busy"})] * 3),
        )
        slept = []
        monkeypatch.setattr(
            "repro.serve.client.time.sleep", slept.append
        )
        with pytest.raises(ServerError):
            client.predict([{}])
        assert len(slept) == 2

    def test_non_503_is_never_retried(self, monkeypatch):
        client = PredictionClient("127.0.0.1", 1, retries=5, retry_seed=0)
        monkeypatch.setattr(
            client, "_exchange",
            _fake_exchange([(400, {}, {"error": "bad config"})]),
        )
        slept = []
        monkeypatch.setattr(
            "repro.serve.client.time.sleep", slept.append
        )
        with pytest.raises(ServerError) as excinfo:
            client.predict([{}])
        assert excinfo.value.status == 400
        assert slept == []

    def test_validation(self):
        with pytest.raises(ValueError):
            PredictionClient("h", 1, retries=-1)
        with pytest.raises(ValueError):
            PredictionClient("h", 1, max_retry_wait=0.0)


class _OneShotServer:
    """A TCP server that answers each connection's *first* request with
    a keep-alive response, then closes the socket — the rudest legal
    keep-alive peer, exactly what a drained server or an idle-timeout
    proxy looks like to a pooled client."""

    def __init__(self) -> None:
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self.served = 0
        self._alive = True
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while self._alive:
            try:
                connection, _ = self._listener.accept()
            except OSError:
                return
            with connection:
                try:
                    connection.recv(65536)
                except OSError:
                    continue
                body = json.dumps({"status": "ok"}).encode("utf-8")
                # Count before replying: the client may issue (and
                # finish) its next request as soon as the bytes land.
                self.served += 1
                connection.sendall(
                    b"HTTP/1.1 200 OK\r\n"
                    b"Content-Type: application/json\r\n"
                    + f"Content-Length: {len(body)}\r\n".encode()
                    + b"Connection: keep-alive\r\n\r\n" + body
                )
                # Closing here leaves the client holding a stale
                # keep-alive connection.

    def close(self) -> None:
        self._alive = False
        # Closing a listener does not wake a thread blocked in accept();
        # shutting it down does (accept then raises OSError).
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()


class TestStaleKeepAlive:
    def test_reconnects_transparently(self):
        server = _OneShotServer()
        try:
            with PredictionClient("127.0.0.1", server.port) as client:
                # Each request rides a connection the server closed
                # right after the previous response; the client must
                # reconnect instead of surfacing ConnectionError.
                for _ in range(3):
                    assert client.healthz() == {"status": "ok"}
            assert server.served == 3
        finally:
            server.close()

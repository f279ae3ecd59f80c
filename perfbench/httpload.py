"""The benchmark's own HTTP load generator (stdlib only).

It deliberately shares nothing with ``repro.load`` or
``repro.serve.client``, so a change to those cannot move the ruler.
Load comes from at most :data:`CLIENTS` threads, each holding one
keep-alive connection.

* :func:`open_loop` sends each request at its scheduled due time
  whatever happened to earlier ones (independent users) and times it
  from that due time, so a stall also charges the requests queued
  behind it; how late the generator sent each request is recorded too.
* :func:`closed_loop` has each client send its next request as soon as
  the previous answer arrives (callers that wait for replies).
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

CLIENTS = 2
TIMEOUT_S = 30.0


def poisson_schedule(seed: int, stage: int, rate: float,
                     duration: float) -> np.ndarray:
    """Seeded Poisson arrival offsets (seconds) in ``[0, duration)``."""
    rng = np.random.default_rng([seed, stage])
    count = int(rate * duration * 1.5) + 16
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=count))
    while offsets[-1] < duration:  # pragma: no cover - 1.5x margin
        more = np.cumsum(rng.exponential(1.0 / rate, size=count))
        offsets = np.concatenate([offsets, offsets[-1] + more])
    return offsets[offsets < duration]


class Connection:
    """One keep-alive HTTP/1.1 connection that reconnects after errors."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self._conn: Optional[http.client.HTTPConnection] = None

    def request(self, method: str, path: str,
                body: Optional[bytes] = None) -> Tuple[int, bytes]:
        """``(status, body)``; status 0 means a transport error."""
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=TIMEOUT_S
            )
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return 0, b""

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


@dataclass
class Sample:
    """One ``/predict`` exchange: timings, status and what was asked."""

    indices: Sequence[int]
    late: float
    latency: float
    rtt: float
    status: int
    predictions: Optional[List[float]]


def _post(conn: Connection, body: bytes) -> Tuple[int, Optional[List[float]]]:
    status, payload = conn.request("POST", "/predict", body)
    if status != 200:
        return status, None
    return status, json.loads(payload)["predictions"]


def _join(threads: List[threading.Thread]) -> None:
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def open_loop(host: str, port: int, offsets: np.ndarray,
              requests: Sequence[Sequence[int]],
              encode: Callable[[Sequence[int]], bytes]) -> List[Sample]:
    """Send ``requests[i]`` at ``offsets[i]`` seconds after the start."""
    samples: List[Optional[Sample]] = [None] * len(offsets)
    cursor = iter(range(len(offsets)))
    lock = threading.Lock()
    start = time.perf_counter() + 0.05

    def client() -> None:
        conn = Connection(host, port)
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                body = encode(requests[index])
                due = start + offsets[index]
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                status, predictions = _post(conn, body)
                done = time.perf_counter()
                samples[index] = Sample(requests[index], sent - due,
                                        done - due, done - sent, status,
                                        predictions)
        finally:
            conn.close()

    _join([threading.Thread(target=client) for _ in range(CLIENTS)])
    return samples  # type: ignore[return-value]


def closed_loop(host: str, port: int, duration: float,
                next_request: Callable[[], Optional[Sequence[int]]],
                encode: Callable[[Sequence[int]], bytes]
                ) -> Tuple[List[Sample], float]:
    """Each client posts back to back for ``duration`` seconds.

    ``next_request`` hands out the next request's configuration
    indices (``None`` ends the stage early).  Returns the samples and
    the stage's wall time.
    """
    samples: List[Sample] = []
    lock = threading.Lock()
    start = time.perf_counter()
    deadline = start + duration

    def client() -> None:
        conn = Connection(host, port)
        try:
            while time.perf_counter() < deadline:
                with lock:
                    indices = next_request()
                if indices is None:
                    return
                body = encode(indices)
                sent = time.perf_counter()
                status, predictions = _post(conn, body)
                done = time.perf_counter()
                with lock:
                    samples.append(Sample(indices, 0.0, done - sent,
                                          done - sent, status, predictions))
        finally:
            conn.close()

    _join([threading.Thread(target=client) for _ in range(CLIENTS)])
    return samples, time.perf_counter() - start

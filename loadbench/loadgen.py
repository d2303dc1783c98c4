"""The load generator: open- and closed-loop HTTP senders on few threads.

Every sender is one thread holding one client.  A client either keeps
one persistent HTTP/1.1 connection (``keepalive=True``) or opens a
fresh connection per request.  The caller caps the number of senders
at the machine's core count, so the generator never outnumbers the
cores it shares with the servers it measures.

Open loop: request ``i`` is due at ``t0 + i / rate`` and lanes take
requests round-robin.  Latency is measured from the *due* time, so a
stall that delays later requests is charged to them; ``lag`` (send time
minus due time) says how late the generator itself ran.  Closed loop:
each sender issues its next request as soon as the previous one
answered, until the phase deadline.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from http.client import HTTPConnection, HTTPException

CONNECTION_ERROR = -1
TIMEOUT_S = 60.0  # per socket operation; a stalled server fails the request


@dataclass
class Sample:
    """One finished request, timed on the generator's clock."""

    due: float
    sent: float
    done: float
    status: int
    ok: bool  # 2xx and, where checked, the expected answer

    @property
    def latency(self) -> float:
        """Seconds from due time to the last response byte."""
        return self.done - self.due

    @property
    def service(self) -> float:
        """Seconds from the actual send to the last response byte."""
        return self.done - self.sent

    @property
    def lag(self) -> float:
        return self.sent - self.due


class Client:
    """One HTTP client: a persistent connection or one per request."""

    def __init__(self, host: str, port: int, *, keepalive: bool) -> None:
        self.host = host
        self.port = port
        self.keepalive = keepalive
        self._conn: HTTPConnection | None = None

    def request(
        self, method: str, path: str, body: bytes | None = None
    ) -> tuple[int, bytes]:
        """``(status, body)``; a connection failure is ``CONNECTION_ERROR``."""
        conn = self._conn or HTTPConnection(self.host, self.port, timeout=TIMEOUT_S)
        headers = {"Content-Type": "application/json"} if body is not None else {}
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            data = response.read()
        except (OSError, HTTPException):
            conn.close()
            self._conn = None
            return CONNECTION_ERROR, b""
        if self.keepalive and not response.will_close:
            self._conn = conn
        else:
            conn.close()
            self._conn = None
        return response.status, data

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


# A request: (method, path, body, check).  ``check(status, body)`` says
# whether the answer is right; it raises WrongAnswer for a 2xx answer
# with the wrong content, which ends the run.
Request = tuple


class WrongAnswer(AssertionError):
    """A 2xx answer whose content differs from the reference."""


def _run_lanes(n_senders: int, lane_body) -> None:
    """Lane 0 runs on the calling thread, so ``n`` lanes use ``n`` threads."""
    errors: list[BaseException] = []

    def guarded(lane: int) -> None:
        try:
            lane_body(lane)
        except BaseException as exc:  # re-raised on the caller's thread
            errors.append(exc)

    threads = [
        threading.Thread(target=guarded, args=(lane,), name=f"sender-{lane}")
        for lane in range(1, n_senders)
    ]
    for thread in threads:
        thread.start()
    guarded(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def open_loop(
    clients: list[Client],
    requests: list[Request],
    rate: float,
    duration_s: float,
) -> list[Sample]:
    """Send ``rate × duration_s`` requests on a fixed schedule.

    ``requests`` is cycled when shorter than the schedule.  Returns one
    :class:`Sample` per scheduled request, in schedule order.
    """
    n = int(rate * duration_s)
    samples: list[Sample | None] = [None] * n
    t0 = time.perf_counter() + 0.05
    lanes = len(clients)

    def lane_body(lane: int) -> None:
        client = clients[lane]
        for i in range(lane, n, lanes):
            due = t0 + i / rate
            now = time.perf_counter()
            if due > now:
                time.sleep(due - now)
            method, path, body, check = requests[i % len(requests)]
            sent = time.perf_counter()
            status, data = client.request(method, path, body)
            done = time.perf_counter()
            samples[i] = Sample(due, sent, done, status, check(status, data))

    _run_lanes(lanes, lane_body)
    return samples  # type: ignore[return-value]


def closed_loop(
    clients: list[Client],
    requests: list[Request],
    duration_s: float,
) -> tuple[list[Sample], float]:
    """Each client sends back-to-back until ``duration_s`` has passed.

    Lane ``k`` walks ``requests[k], requests[k + lanes], ...`` cyclically,
    so lanes never send the same request at once.  Returns the samples
    and the phase's wall time (the last answer may land after the
    deadline; capacity divides by the true elapsed time).
    """
    lanes = len(clients)
    per_lane: list[list[Sample]] = [[] for _ in range(lanes)]
    start = time.perf_counter()
    deadline = start + duration_s

    def lane_body(lane: int) -> None:
        client = clients[lane]
        i = lane
        while time.perf_counter() < deadline:
            method, path, body, check = requests[i % len(requests)]
            sent = time.perf_counter()
            status, data = client.request(method, path, body)
            done = time.perf_counter()
            per_lane[lane].append(
                Sample(sent, sent, done, status, check(status, data))
            )
            i += lanes

    _run_lanes(lanes, lane_body)
    elapsed = time.perf_counter() - start
    samples = sorted((s for lane in per_lane for s in lane), key=lambda s: s.sent)
    return samples, elapsed

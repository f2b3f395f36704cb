"""Open-loop load generation: a seeded arrival schedule, sent on time.

Requests arrive as a Poisson process at a fixed rate, independent of how
fast the server answers (an open loop: independent users).  Each request
is timed from the moment it was *due*, so a stall charges its wait to every
request queued behind it.  One process sends, from at most ``concurrency``
threads, each holding one keep-alive connection; a request whose due time
passes while every connection is busy is sent late, and how late the
generator ran is reported beside the latency.
"""

from __future__ import annotations

import http.client
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

import numpy as np

#: Statuses the server answers when it refuses work.
REFUSED = (429, 503)


def poisson_offsets(rate: float, duration: float,
                    rng: np.random.Generator) -> np.ndarray:
    """Seeded arrival offsets (seconds from the start) in ``[0, duration)``."""
    n = int(rate * duration * 1.5) + 16
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=n))
    while offsets[-1] < duration:
        more = offsets[-1] + np.cumsum(rng.exponential(1.0 / rate, size=n))
        offsets = np.concatenate([offsets, more])
    return offsets[offsets < duration]


@dataclass
class Outcome:
    """One scheduled request: due, sent and done times (absolute clock) and
    the target's answer."""

    due: float
    sent: Optional[float] = None
    done: Optional[float] = None
    result: Any = None

    @property
    def latency(self) -> float:
        """Seconds from due time to answer."""
        return self.done - self.due

    @property
    def lag(self) -> float:
        """Seconds the generator sent late."""
        return self.sent - self.due


def run_open_loop(offsets: Sequence[float],
                  make_sender: Callable[[], Callable[[int], Any]],
                  concurrency: int,
                  clock: Callable[[], float] = time.perf_counter,
                  sleep: Callable[[float], None] = time.sleep
                  ) -> List[Outcome]:
    """Send request ``i`` at ``start + offsets[i]`` and collect outcomes.

    ``make_sender()`` is called once per thread and returns ``send(i)``,
    which performs request ``i`` and returns its result.  Requests are
    taken in schedule order; a thread sleeps until the taken request is
    due.
    """
    if concurrency < 1:
        raise ValueError("concurrency must be at least 1")
    start = clock()
    outcomes = [Outcome(due=start + float(offset)) for offset in offsets]
    cursor = iter(range(len(outcomes)))
    cursor_lock = threading.Lock()
    errors: List[BaseException] = []

    def worker() -> None:
        send = None
        try:
            send = make_sender()
            while True:
                with cursor_lock:
                    index = next(cursor, None)
                if index is None:
                    return
                outcome = outcomes[index]
                wait = outcome.due - clock()
                if wait > 0:
                    sleep(wait)
                outcome.sent = clock()
                outcome.result = send(index)
                outcome.done = clock()
        except Exception as error:  # re-raised in the caller's thread
            errors.append(error)
        finally:
            close = getattr(send, "close", None)
            if close is not None:
                close()

    threads = [threading.Thread(target=worker, name=f"loadgen-{slot}")
               for slot in range(concurrency)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return outcomes


class HttpSender:
    """``send(i)`` over one keep-alive connection: POST ``bodies[i]`` to
    ``paths[i]`` and return ``(status, body bytes)``; status 0 marks a
    connection error or timeout."""

    def __init__(self, host: str, port: int, paths: Sequence[str],
                 bodies: Sequence[bytes], timeout: float = 30.0):
        self.host, self.port, self.timeout = host, port, timeout
        self.paths, self.bodies = paths, bodies
        self._connection: Optional[http.client.HTTPConnection] = None

    def __call__(self, index: int):
        self.close()
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)
        try:
            self._connection.request(
                "POST", self.paths[index], body=self.bodies[index],
                headers={"Content-Type": "application/json"})
            response = self._connection.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return 0, b""

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

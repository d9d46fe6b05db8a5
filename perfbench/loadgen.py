"""Open-loop load generator: requests leave on a fixed schedule.

The schedule (:func:`perfbench.inputs.serve_schedule`) is complete before
the first request is sent.  A fixed set of sender threads, each holding one
keep-alive connection, takes the events in due order and sends each no
earlier than its due time.  When every sender is busy the next event goes
out late; latency is timed from the due time, so a server stall is charged
to every request it delays, and the lateness itself is reported.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass

from perfbench.inputs import Event

#: Statuses that mean the server refused the request.
REFUSALS = (429, 503)


@dataclass
class Outcome:
    """What happened to one scheduled event (times relative to the start)."""

    event: Event
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: bytes = b""
    error: str = ""

    @property
    def latency(self) -> float:
        return self.done - self.event.due

    @property
    def lateness(self) -> float:
        return self.sent - self.event.due

    @property
    def ok(self) -> bool:
        return self.status == 200 and not self.error


class OpenLoop:
    """Sends a schedule against ``host:port`` with ``senders`` connections."""

    def __init__(self, host: str, port: int, senders: int,
                 timeout: float = 30.0, clock=time.perf_counter,
                 sleep=time.sleep):
        self.host = host
        self.port = port
        self.senders = senders
        self.timeout = timeout
        self._clock = clock
        self._sleep = sleep

    def run(self, events: list[Event], start: float | None = None,
            send=None) -> tuple[list[Outcome], float]:
        """Send every event; returns the outcomes and the absolute start.

        ``send(connection, event) -> (status, body)`` is replaceable so the
        scheduling and lateness accounting can be tested without a server.
        """
        send = send or self._post
        ordered = sorted(events, key=lambda event: event.due)
        outcomes = [Outcome(event) for event in ordered]
        cursor = iter(range(len(outcomes)))
        lock = threading.Lock()
        clock = self._clock
        begin = clock() if start is None else start

        def sender() -> None:
            connection = None
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    break
                outcome = outcomes[index]
                wait = begin + outcome.event.due - clock()
                if wait > 0:
                    self._sleep(wait)
                outcome.sent = clock() - begin
                try:
                    if connection is None:
                        connection = self._connect()
                    outcome.status, outcome.body = send(connection,
                                                        outcome.event)
                except (OSError, http.client.HTTPException) as exc:
                    outcome.error = f"{type(exc).__name__}: {exc}"
                    if connection is not None:
                        connection.close()
                    connection = None
                outcome.done = clock() - begin
            if connection is not None:
                connection.close()

        threads = [threading.Thread(target=sender, name=f"sender-{n}")
                   for n in range(self.senders)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return outcomes, begin

    def _connect(self):
        if self.host is None:
            return None
        return http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)

    @staticmethod
    def _post(connection, event: Event) -> tuple[int, bytes]:
        connection.request("POST", event.path, json.dumps(event.body),
                           {"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, response.read()


def outstanding(outcomes: list[Outcome], at: float) -> int:
    """Requests due by ``at`` that had not completed by then (the backlog)."""
    return sum(1 for o in outcomes if o.event.due <= at < o.done)


def backlog_grows(outcomes: list[Outcome], start: float, end: float) -> bool:
    """True when the backlog at the end of a phase has at least doubled
    since its middle and holds five or more requests."""
    middle = outstanding(outcomes, (start + end) / 2.0)
    last = outstanding(outcomes, end)
    return last >= 5 and last >= 2 * max(middle, 1)


def busy_time(outcomes: list[Outcome]) -> float:
    """Seconds during which at least one request was in flight."""
    from perfbench.stats import union_length

    return union_length([(o.sent, o.done) for o in outcomes])

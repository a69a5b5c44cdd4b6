"""Load generator: one process, a fixed number of keep-alive connections.

Two drivers over the same per-connection threads:

* :func:`run_closed` — each connection sends its next request as soon as
  the previous reply is in (callers that wait for a reply), for a fixed
  number of seconds;
* :func:`run_open` — requests fall due on a schedule fixed beforehand
  (:func:`poisson_schedule`), whatever the server does.  A request is
  sent by the first free connection at or after its due time, and its
  latency is counted **from the due time**, so a stall is charged to
  every request that had to wait behind it.  How late the generator ran
  is reported separately (:func:`send_lag_ms`, :func:`backlog`).

Request bytes are encoded before a phase starts and reply bodies are
parsed after it ends, so the generator does almost nothing in the timed
path.  The drivers take *exchange* callables (``bytes -> (status,
body)``), one per connection, which is how the tests inject a stall.
"""

from __future__ import annotations

import bisect
import json
import socket
import threading
import time

import spans


def poisson_schedule(rate, seconds, rng):
    """Due offsets (s) of a Poisson arrival process, from ``rng`` alone."""
    offsets = []
    now = rng.expovariate(rate)
    while now < seconds:
        offsets.append(now)
        now += rng.expovariate(rate)
    return offsets


def encode_post(path, obj):
    body = json.dumps(obj).encode("utf-8")
    head = (f"POST {path} HTTP/1.1\r\nHost: yardstick\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n")
    return head.encode("latin-1") + body


def encode_get(path):
    return f"GET {path} HTTP/1.1\r\nHost: yardstick\r\n\r\n".encode("latin-1")


class Connection:
    """One blocking keep-alive HTTP/1.1 connection over a raw socket."""

    def __init__(self, host, port, recorder=spans.OFF, timeout=120.0):
        self.recorder = recorder
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def exchange(self, raw):
        """Send one encoded request; ``(status, body bytes)`` of the reply."""
        span = self.recorder.span
        with span("client.send"):
            self.sock.sendall(raw)
        with span("client.wait"):
            status_line = self.reader.readline()
        with span("client.read"):
            if not status_line:
                raise ConnectionError("server closed the connection")
            status = int(status_line.split(b" ", 2)[1])
            length = 0
            while True:
                line = self.reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            body = self.reader.read(length) if length else b""
        return status, body

    def close(self):
        try:
            self.reader.close()
        finally:
            self.sock.close()


class Sample:
    """One request as the generator saw it; times are seconds from the
    start of the phase.  ``due`` is None in a closed loop."""

    __slots__ = ("index", "due", "sent", "done", "status", "body")

    def __init__(self, index, due, sent, done, status, body):
        self.index = index
        self.due = due
        self.sent = sent
        self.done = done
        self.status = status
        self.body = body

    @property
    def service_ms(self):
        return (self.done - self.sent) * 1000.0

    @property
    def latency_ms(self):
        start = self.sent if self.due is None else self.due
        return (self.done - start) * 1000.0


def _drive(exchanges, payloads, next_start, recorder, clock):
    """Run one thread per exchange until ``next_start`` says stop.

    ``next_start(index, now)`` returns the due offset of request
    ``index`` (None: send at once) or raises StopIteration.
    """
    samples = []
    lock = threading.Lock()
    cursor = [0]
    t0 = clock()

    def worker(exchange):
        while True:
            with lock:
                index = cursor[0]
                if index >= len(payloads):
                    return
                try:
                    due = next_start(index, clock() - t0)
                except StopIteration:
                    return
                cursor[0] = index + 1
            if due is not None:
                wait = due - (clock() - t0)
                if wait > 0:
                    time.sleep(wait)
            with recorder.span("loadgen.request", index=index):
                sent = clock() - t0
                try:
                    status, body = exchange(payloads[index])
                except (OSError, ValueError):
                    # A broken connection fails this request and retires
                    # the connection; unsent requests count as failed.
                    status, body = 0, b""
                done = clock() - t0
            sample = Sample(index, due, sent, done, status, body)
            with lock:
                samples.append(sample)
            if status == 0:
                return

    threads = [threading.Thread(target=worker, args=(exchange,), daemon=True)
               for exchange in exchanges]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    samples.sort(key=lambda s: s.index)
    return samples, clock() - t0


def run_closed(exchanges, payloads, seconds, recorder=spans.OFF,
               clock=time.perf_counter):
    """Closed loop: ``(samples, elapsed_s)`` after ``seconds`` seconds
    (or when ``payloads`` runs out, which callers size to never happen)."""

    def next_start(index, now):
        if now >= seconds:
            raise StopIteration
        return None

    return _drive(exchanges, payloads, next_start, recorder, clock)


def run_open(exchanges, payloads, due_offsets, recorder=spans.OFF,
             clock=time.perf_counter, grace_s=10.0):
    """Open loop over a fixed schedule: ``(samples, elapsed_s)``.

    Every scheduled request is sent, however late; only when the
    generator is more than ``grace_s`` past the end of the schedule does
    it give up, and the requests never sent count as failed.
    """
    horizon = (due_offsets[-1] if due_offsets else 0.0) + grace_s

    def next_start(index, now):
        if now > horizon:
            raise StopIteration
        return due_offsets[index]

    return _drive(exchanges, payloads[:len(due_offsets)], next_start,
                  recorder, clock)


def send_lag_ms(samples):
    """How late each request left the generator (open loop only)."""
    return [(s.sent - s.due) * 1000.0 for s in samples if s.due is not None]


def backlog(samples, due_offsets):
    """Requests already due but not yet started, seen at each send."""
    return [max(0, bisect.bisect_right(due_offsets, s.sent) - (s.index + 1))
            for s in samples]


def backlog_grows(samples, due_offsets):
    """Whether the second half of a phase queued more than the first."""
    depths = backlog(samples, due_offsets)
    if len(depths) < 4:
        return False
    half = len(depths) // 2
    first = sum(depths[:half]) / half
    second = sum(depths[half:]) / (len(depths) - half)
    return second > first + 1.0

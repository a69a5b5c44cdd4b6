"""Wire protocol of the discovery service.

The server speaks HTTP/1.1 with JSON bodies — plain enough that
``curl``, a Prometheus scraper, and the stdlib ``http.client`` all work
against it without any dependency beyond the socket:

* ``POST /v1/discover`` — one discovery request (see
  :class:`DiscoverRequest`); the response body is a JSON object whose
  ``outcome`` is ``ok``, ``killed`` (cooperative budget kill),
  ``invalid`` (HTTP 400), ``rejected`` (HTTP 429/503) or ``error``
  (HTTP 500).
* ``GET /metrics`` — Prometheus text exposition of the process-global
  registry (server counters plus everything the pool workers shipped
  home).
* ``GET /healthz`` — liveness/drain status as JSON.

This module owns request validation (:func:`parse_discover`) and the
minimal HTTP framing both the server and the load-generator client
share.  Every validation failure raises :class:`ProtocolError`, a
:class:`~repro.errors.ReproError`, and maps to HTTP 400 — never a
traceback into the connection.
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import dataclass, field

from repro import settings
from repro.errors import ReproError

#: Discovery algorithms a request may name.  ``native`` is run-only
#: (there is no native exhaustive-evaluation path worth serving).
ALGORITHM_CHOICES = ("pb", "sb", "ab", "native")

#: Request kinds: one traced discovery run at ``qa``, or an exhaustive
#: MSO/ASO sweep over the whole ESS.
KIND_CHOICES = ("run", "evaluate")

#: Sweep engines an ``evaluate`` request may pick.  ``parallel`` fans
#: a nested sweep pool out of the pool worker (the executor's worker
#: processes are non-daemonic); its width follows ``REPRO_WORKERS`` in
#: the server's environment, which defaults to serial — nested fan-out
#: is a deliberate operator opt-in.
EVALUATE_ENGINES = ("auto", "batch", "loop", "parallel")

#: ESS surface modes (``None`` defers to the server default / REPRO_ESS).
ESS_MODES = (None, *settings.SETTINGS["REPRO_ESS"].choices)

#: Selectivity priors guiding contour scheduling (``None`` defers to
#: the server default / REPRO_PRIOR).
PRIOR_MODES = (None, *settings.SETTINGS["REPRO_PRIOR"].choices)

#: Ceiling on the synthetic per-request service time (load shaping).
MAX_SLEEP_S = 30.0

#: Ceiling on a request's cooperative-kill budget.
MAX_BUDGET_S = 3600.0

#: Request bodies over this size are rejected before parsing.
MAX_BODY_BYTES = 1 << 20


class ProtocolError(ReproError):
    """A malformed request (HTTP 400, never a server-side traceback)."""


@dataclass
class DiscoverRequest:
    """One validated ``POST /v1/discover`` body.

    Attributes:
        query: workload name (``xD_Qz`` TPC-DS or ``xD_JOB1a``).
        algorithm: ``pb`` / ``sb`` / ``ab`` / ``native`` (run-only).
        kind: ``run`` (one traced discovery at ``qa``) or ``evaluate``
            (exhaustive MSO/ASO sweep).
        qa: optional actual-selectivity vector; default is the
            workload's true location (bit-identical to the CLI default).
        budget_s: optional wall-clock budget; on expiry the server
            cooperatively kills the request (outcome ``killed``).
        engine: sweep engine for ``evaluate`` (ignored for ``run``).
        ess_mode: ``eager`` / ``lazy`` surface; ``None`` = server default.
        prior: ``uniform`` / ``sampled`` / ``history`` contour
            scheduling prior; ``None`` = server default.
        resolution: optional explicit grid resolution.
        tenant: quota bucket the request is accounted against.
        sleep_s: synthetic extra service time, cooperatively
            cancellable — load shaping for benchmarks and tests.
        conformance: check the request's result with a
            :class:`~repro.conformance.monitors.ConformanceMonitor` and
            report violations in the response; ``None`` = server default.
        trace: force tracing on (True) or off (False) for this request;
            ``None`` defers to the server's sampling policy
            (``REPRO_SERVE_TRACE``).  Traced responses carry their
            ``trace_id``.
    """

    query: str
    algorithm: str = "sb"
    kind: str = "run"
    qa: tuple = None
    budget_s: float = None
    engine: str = "auto"
    ess_mode: str = None
    prior: str = None
    resolution: int = None
    tenant: str = "default"
    sleep_s: float = 0.0
    conformance: bool = None
    trace: bool = None
    extra: dict = field(default_factory=dict)


def _number(value, name, low=None, high=None):
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ProtocolError(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(out):
        raise ProtocolError(f"{name} must be finite, got {value!r}")
    if low is not None and out < low:
        raise ProtocolError(f"{name} must be >= {low}, got {out}")
    if high is not None and out > high:
        raise ProtocolError(f"{name} must be <= {high}, got {out}")
    return out


def parse_discover(payload):
    """Validate a decoded ``/v1/discover`` body into a request object."""
    if not isinstance(payload, dict):
        raise ProtocolError("request body must be a JSON object")
    query = payload.get("query")
    if not isinstance(query, str) or not query:
        raise ProtocolError("'query' must be a non-empty workload name")
    algorithm = payload.get("algorithm", "sb")
    if algorithm not in ALGORITHM_CHOICES:
        raise ProtocolError(
            f"unknown algorithm {algorithm!r}; choose from {ALGORITHM_CHOICES}"
        )
    kind = payload.get("kind", "run")
    if kind not in KIND_CHOICES:
        raise ProtocolError(
            f"unknown kind {kind!r}; choose from {KIND_CHOICES}"
        )
    if kind == "evaluate" and algorithm == "native":
        raise ProtocolError("kind 'evaluate' supports pb/sb/ab only")
    engine = payload.get("engine", "auto")
    if engine not in EVALUATE_ENGINES:
        raise ProtocolError(
            f"unknown engine {engine!r}; choose from {EVALUATE_ENGINES}"
        )
    ess_mode = payload.get("ess_mode")
    if ess_mode not in ESS_MODES:
        raise ProtocolError(
            f"unknown ess_mode {ess_mode!r}; choose from "
            f"{[m for m in ESS_MODES if m]} or omit for the server default"
        )
    prior = payload.get("prior")
    if prior not in PRIOR_MODES:
        raise ProtocolError(
            f"unknown prior {prior!r}; choose from "
            f"{[m for m in PRIOR_MODES if m]} or omit for the server default"
        )
    qa = payload.get("qa")
    if qa is not None:
        if not isinstance(qa, (list, tuple)) or not qa:
            raise ProtocolError("'qa' must be a non-empty array of numbers")
        qa = tuple(_number(v, "qa component", low=0.0) for v in qa)
    budget_s = payload.get("budget_s")
    if budget_s is not None:
        budget_s = _number(budget_s, "budget_s", low=0.0, high=MAX_BUDGET_S)
    resolution = payload.get("resolution")
    if resolution is not None:
        if not isinstance(resolution, int) or isinstance(resolution, bool) \
                or resolution < 2:
            raise ProtocolError(
                f"resolution must be an integer >= 2, got {resolution!r}"
            )
    tenant = payload.get("tenant", "default")
    if not isinstance(tenant, str) or not tenant or len(tenant) > 64:
        raise ProtocolError("'tenant' must be a string of 1..64 characters")
    sleep_s = _number(payload.get("sleep_s", 0.0), "sleep_s",
                      low=0.0, high=MAX_SLEEP_S)
    conformance = payload.get("conformance")
    if conformance is not None and not isinstance(conformance, bool):
        raise ProtocolError("'conformance' must be a boolean")
    trace = payload.get("trace")
    if trace is not None and not isinstance(trace, bool):
        raise ProtocolError("'trace' must be a boolean")
    return DiscoverRequest(
        query=query, algorithm=algorithm, kind=kind, qa=qa,
        budget_s=budget_s, engine=engine, ess_mode=ess_mode,
        prior=prior, resolution=resolution, tenant=tenant,
        sleep_s=sleep_s, conformance=conformance, trace=trace,
    )


# ----------------------------------------------------------------------
# Minimal HTTP/1.1 framing (shared by server and loadgen client)
# ----------------------------------------------------------------------

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}


async def read_http_message(reader, max_body=MAX_BODY_BYTES):
    """Read one HTTP message (request or response) off a stream.

    Returns ``(start_line, headers, body)`` with lower-cased header
    names, or ``None`` on a clean EOF before any bytes (the peer hung
    up between messages).  Raises :class:`ProtocolError` on framing
    violations and oversized bodies.
    """
    try:
        start = await reader.readline()
    except (ConnectionError, OSError):
        return None
    except (ValueError, asyncio.LimitOverrunError):
        # readline() raises when a line exceeds the stream's buffer
        # limit; answer 400, don't drop the connection with a traceback.
        raise ProtocolError("request line too long") from None
    if not start:
        return None
    start_line = start.decode("latin-1").rstrip("\r\n")
    headers = {}
    while True:
        try:
            line = await reader.readline()
        except (ValueError, asyncio.LimitOverrunError):
            raise ProtocolError("header line too long") from None
        if not line:
            raise ProtocolError("connection closed inside headers")
        text = line.decode("latin-1").rstrip("\r\n")
        if not text:
            break
        name, sep, value = text.partition(":")
        if not sep:
            raise ProtocolError(f"malformed header line {text!r}")
        headers[name.strip().lower()] = value.strip()
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise ProtocolError(
            f"bad Content-Length {length_text!r}"
        ) from None
    if length < 0 or length > max_body:
        raise ProtocolError(f"body of {length} bytes exceeds {max_body}")
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except Exception:
            raise ProtocolError("connection closed inside body") from None
    return start_line, headers, body


def http_payload(status, body, content_type="application/json",
                 close=False):
    """Serialize one HTTP/1.1 response to bytes."""
    reason = _REASONS.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'close' if close else 'keep-alive'}\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body


def json_payload(status, obj, close=False):
    """An HTTP response whose body is ``obj`` rendered as strict JSON.

    Raises ValueError if ``obj`` holds a NaN or an infinity.
    """
    body = json.dumps(obj, sort_keys=True, allow_nan=False).encode("utf-8")
    return http_payload(status, body, close=close)


def http_request_payload(method, path, obj=None):
    """Serialize one HTTP/1.1 request (keep-alive) to bytes."""
    body = b"" if obj is None else json.dumps(obj).encode("utf-8")
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        "Host: repro\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Content-Type: application/json\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body


def parse_status(start_line):
    """HTTP status code out of a response start line."""
    parts = start_line.split(" ", 2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise ProtocolError(f"malformed status line {start_line!r}")
    return int(parts[1])

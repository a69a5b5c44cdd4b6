"""The program under test as a subprocess: ``python -m repro serve``.

Launched through the public CLI on ``--port 0`` with a fixed
configuration; the listening line is parsed for the port.  Everything
the benchmark learns about the server comes from outside it: HTTP
replies, ``/metrics`` scrapes, ``/proc`` for memory, ``/dev/shm`` for
leaked segments.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading

import loadgen
import procs

#: Fixed server configuration of both served workloads.
SERVE_ARGS = ("--workers", "2", "--ess", "eager", "--prior", "uniform")
PROFILE = "bench"

_LISTENING = re.compile(r"listening on http://([^:/\s]+):(\d+)")
_BOOT_TIMEOUT_S = 60.0
_STOP_TIMEOUT_S = 30.0
_SAMPLE = re.compile(r"^([A-Za-z_:][\w:]*(?:\{[^}]*\})?)\s+(\S+)$")


def program_env(src_dir, cache_dir):
    """Environment for the program: no inherited ``REPRO_*`` knob may
    change the configuration under test."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = src_dir
    env["REPRO_CACHE_DIR"] = cache_dir
    return env


def parse_metrics(text):
    """Prometheus text exposition -> ``{"name{labels}": value}``."""
    out = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            continue
        try:
            out[match.group(1)] = float(match.group(2))
        except ValueError:
            continue
    return out


def metrics_delta(before, after):
    """Per-sample increase between two scrapes (absent before = 0)."""
    return {name: value - before.get(name, 0.0)
            for name, value in after.items()}


def shm_segments():
    """Names of Python shared-memory segments present in ``/dev/shm``."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except OSError:
        return set()


def peak_rss_mb(pid):
    """Peak resident set (``VmHWM``) of one live process, in MB."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class ServerProcess:
    """One ``repro serve`` subprocess and its pool workers."""

    def __init__(self, src_dir, cache_dir, log_path, cache_mb=None):
        self.src_dir = src_dir
        self.cache_dir = cache_dir
        self.log_path = log_path
        self.cache_mb = cache_mb
        self.proc = None
        self.host = None
        self.port = None
        self._log = None

    def start(self):
        argv = [sys.executable, "-m", "repro", "--profile", PROFILE,
                "serve", "--port", "0", *SERVE_ARGS]
        if self.cache_mb is not None:
            argv += ["--cache-mb", str(self.cache_mb)]
        self._log = open(self.log_path, "ab")
        # A process group of its own, and orphans re-parented to this
        # process: stop() can then find and wait for every pool worker,
        # however the server ended.
        procs.adopt_orphans()
        self.proc = subprocess.Popen(
            argv, env=program_env(self.src_dir, self.cache_dir),
            stdout=subprocess.PIPE, stderr=self._log, text=True,
            start_new_session=True,
        )
        try:
            line = self._read_listening_line()
            match = _LISTENING.search(line or "")
            if match is None:
                raise RuntimeError(
                    f"server did not announce a port (got {line!r}); "
                    f"see {self.log_path}"
                )
            self.host, self.port = match.group(1), int(match.group(2))
            # The server installs its SIGTERM handler after it prints the
            # line; a reply proves its loop is running and the handler is
            # in, so a stop() straight after start() drains instead of
            # killing the server under its workers.
            self.scrape()
        except BaseException:
            self.stop()
            raise
        return self.host, self.port

    def _read_listening_line(self):
        box = []
        reader = threading.Thread(
            target=lambda: box.append(self.proc.stdout.readline()),
            daemon=True,
        )
        reader.start()
        reader.join(_BOOT_TIMEOUT_S)
        return box[0] if box else None

    def connect(self):
        return loadgen.Connection(self.host, self.port)

    def scrape(self):
        conn = self.connect()
        try:
            status, body = conn.exchange(loadgen.encode_get("/metrics"))
        finally:
            conn.close()
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return parse_metrics(body.decode("utf-8"))

    def pids(self):
        if self.proc is None:
            return []
        return [self.proc.pid, *procs.children(self.proc.pid)]

    def peak_rss_mb(self):
        """Peak RSS summed over the server and its pool workers: what
        the program costs in memory, a per-worker cache counted per
        worker."""
        return sum(peak_rss_mb(pid) for pid in self.pids())

    def stop(self):
        """SIGTERM, wait for the drain, kill if it overruns, then kill
        and wait for any worker the server left behind; idempotent.
        Returns the pids of those workers."""
        proc, self.proc = self.proc, None
        if proc is None:
            return []
        try:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        finally:
            orphans = procs.stop_group(proc.pid)
            proc.stdout.close()
            if self._log is not None:
                self._log.close()
                self._log = None
        return orphans

"""What every workload gets: where to write, the seed, a span recorder,
and the report it fills in."""

from __future__ import annotations

import os
import random
import resource
import shutil
import tempfile
import time

from spans import SpanRecorder
from stats import median

#: A run sets up this many times and reports the median as ``setup_s``;
#: the last set-up is the one measured on.
SETUP_REPEATS = 3

#: ``--seconds`` below this selects the small sizing of the fixed-work
#: (library) workloads; the served workloads simply measure for less.
QUICK_BELOW_S = 20


class Report:
    """Metrics by name with units, and the failure count."""

    def __init__(self):
        self.metrics = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def put(self, name, value, unit):
        self.metrics[name] = (float(value), unit)

    def value(self, name):
        return self.metrics[name][0]

    def count(self, attempted, failed, what=""):
        self.attempted += attempted
        self.failed += failed
        if failed and what:
            self.failures.append(f"{what}: {failed} of {attempted} failed")

    def put_roles(self, rate_per_s, typical_ms, slow_ms):
        """The three end-to-end roles every workload fills with its own
        quantity (README, "End-to-end metrics")."""
        self.put("rate_per_s", rate_per_s, "1/s")
        self.put("typical_ms", typical_ms, "ms")
        self.put("slow_ms", slow_ms, "ms")

    def check(self, name, ok, detail=""):
        """One correctness check: a failure counts like a failed request."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"check {name} failed {detail}".rstrip())
        return ok


def registry():
    """Snapshot of the program's in-process metrics registry, the
    library workloads' counterpart of a ``/metrics`` scrape."""
    from repro.obs.metrics import REGISTRY

    return REGISTRY.summary()


def counter_delta(before, after, name):
    return after["counters"].get(name, 0) - before["counters"].get(name, 0)


def phase_delta_s(before, after, phase):
    def total(summary):
        return summary["phases"].get(phase, {}).get("total_s", 0.0)
    return total(after) - total(before)


class Context:
    def __init__(self, root, workload, seed, seconds, traced, started):
        self.root = root
        self.src_dir = os.path.join(root, "src")
        self.out_dir = os.path.join(root, "yardstick", "out")
        self.workload = workload
        self.seed = seed
        self.seconds = float(seconds)
        self.traced = bool(traced)
        self.quick = self.seconds < QUICK_BELOW_S
        self.started = started
        self.report = Report()
        #: Records in the traced run, a no-op in the untraced one.
        self.recorder = SpanRecorder(self.traced)
        self._tmp_dirs = []
        os.makedirs(self.out_dir, exist_ok=True)

    def rng(self, purpose):
        """An independent stream per purpose, a function of the seed only."""
        return random.Random(f"{self.seed}:{self.workload}:{purpose}")

    def make_tmp(self):
        """A fresh directory under ``yardstick/out``; the program's cache
        (``REPRO_CACHE_DIR``) points at it for this process too."""
        path = tempfile.mkdtemp(prefix="tmp-", dir=self.out_dir)
        self._tmp_dirs.append(path)
        os.environ["REPRO_CACHE_DIR"] = path
        return path

    def drop_tmp(self, path):
        shutil.rmtree(path, ignore_errors=True)
        if path in self._tmp_dirs:
            self._tmp_dirs.remove(path)

    def cleanup(self):
        for path in list(self._tmp_dirs):
            self.drop_tmp(path)

    def out_path(self, name):
        return os.path.join(self.out_dir, name)

    def repeated_setup(self, build, discard):
        """Set up ``SETUP_REPEATS`` times; keep the last state.

        Puts ``setup_s`` = time from process start to the first set-up
        (imports, argument parsing) + the median set-up time.
        """
        boot_s = time.perf_counter() - self.started
        times = []
        state = None
        for attempt in range(SETUP_REPEATS):
            if state is not None:
                discard(state)
            begin = time.perf_counter()
            state = build()
            times.append(time.perf_counter() - begin)
        self.report.put("setup_s", boot_s + median(times), "s")
        self.report.put("setup.boot_s", boot_s, "s")
        self.report.put("setup.repeat_s", median(times), "s")
        return state

    def put_peak_rss(self, program_mb=None):
        """``peak_rss_mb``: peak memory of the program.  A served
        workload passes the server's and pool workers' summed peaks; a
        library workload runs the program in this process, so the peak
        is this process's.  ``peak_rss.bench_mb`` is always this
        process's own, to show what the harness itself holds."""
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.report.put("peak_rss.bench_mb", own, "MB")
        self.report.put("peak_rss_mb",
                        own if program_mb is None else program_mb, "MB")

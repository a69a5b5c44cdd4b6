"""Selectivity priors for anytime discovery scheduling.

The MSO proofs (paper Sections 3-5) pin down *which* iso-cost contours
a discovery run may cross and *that* every plan on a contour may be
budget-executed — but they leave two choices completely free: the
contour the ladder starts on, and the order in which a contour's
executions are issued.  This package fills those degrees of freedom
with an optional *prior* over the actual selectivity location ``qa``
(PARQO-style empirical error profiles; Trummer & Koch's sampled
selectivities — see PAPERS.md), so the average-case cost drops while
the worst-case accounting stays verbatim:

* **Starting contour** — begin the ladder at
  ``s = min(target, band(qa))`` where ``target`` is the contour holding
  the prior's mass quantile and ``band(qa)`` comes from a plain
  optimizer costing of the location (an uncharged consultation, exactly
  like the contour construction itself).  No budgeted execution below
  ``band(qa)`` can complete — their budgets sit strictly under
  ``Cost(P_qa, qa)`` — so the skipped rungs only ever removed
  guaranteed kills.  The geometric ladder above ``s`` and its charge
  accounting are untouched, hence the per-contour summation in the MSO
  theorems applies verbatim to the (shorter) ladder and the bounds
  hold unchanged.
* **Within-contour order** — execute a contour's plans / spill steps in
  descending prior-mass order, so likely locations resolve in the first
  execution instead of the k-th.  The set of executions the accounting
  charges is permutation-invariant, so the bound is again untouched.

``UniformPrior`` is the default and an exact no-op: every scheduling
hook collapses to the pre-prior code path and produces bit-identical
output (enforced by the ``prior-inert`` conformance monitor and the
differential test suite).
"""

from __future__ import annotations

import json
import os
import zlib

import numpy as np

from repro import settings
from repro.errors import ReproError

#: Prior kinds the CLI / serving tier accept (``REPRO_PRIOR``'s choices).
PRIOR_KINDS = settings.SETTINGS["REPRO_PRIOR"].choices

#: Default mass quantile locating the starting contour.
DEFAULT_QUANTILE = 0.5

#: Mass floor mixed into every discretized pmf so no grid slice is ever
#: assigned zero probability (the prior is a *hint*, never a filter).
FLOOR_MASS = 1e-3

#: Synthetic population / ANALYZE-sample sizes used by
#: :meth:`SampledPrior.fit` (the sample drives the estimation error).
POPULATION_ROWS = 50_000
SAMPLE_ROWS = 2_000

#: Kernel bandwidth floor (natural-log selectivity space).
MIN_SIGMA_LOG = 0.2

#: Histogram buckets for the ``repro_prior_start_contour`` metric.
START_CONTOUR_BUCKETS = tuple(float(b) for b in range(1, 17))


class SelectivityPrior:
    """Interface: a probability model over ESS locations.

    Subclasses provide :meth:`pmf` (per-dimension probability vectors on
    the grid).
    """

    kind = "uniform"

    def __init__(self, quantile=DEFAULT_QUANTILE):
        self.quantile = float(quantile)

    @property
    def is_active(self):
        """Whether this prior may influence scheduling at all."""
        return self.kind != "uniform"

    def pmf(self, grid):
        """Per-dimension mass vectors on ``grid`` (or None = inert).

        Returns a list of ``grid.resolution[d]``-length float arrays,
        each summing to 1, or None when the prior has nothing to say
        (uniform, or a history prior with no observations yet).
        """
        raise NotImplementedError

    def describe(self):
        return self.kind


class UniformPrior(SelectivityPrior):
    """The default: all ESS locations equally likely — an exact no-op."""

    kind = "uniform"

    def pmf(self, grid):
        return None


def _kernel_pmf(grid, dim, centers, sigmas):
    """Gaussian mixture over one dimension's log-selectivity grid."""
    x = np.log(np.asarray(grid.values[dim], dtype=float))
    weight = np.zeros(x.shape, dtype=float)
    for mu, sigma in zip(centers, sigmas):
        z = (x - mu) / sigma
        weight += np.exp(-0.5 * z * z)
    total = weight.sum()
    if not np.isfinite(total) or total <= 0.0:
        weight = np.ones_like(x)
        total = weight.sum()
    weight = weight / total
    # Mix in the floor so the prior never zeroes out a grid slice.
    return (1.0 - FLOOR_MASS) * weight + FLOOR_MASS / weight.size


class SampledPrior(SelectivityPrior):
    """Per-epp selectivity distributions estimated by sampling data.

    :meth:`fit` pushes a seeded synthetic column population through
    :class:`repro.catalog.statistics.EquiDepthHistogram` on an
    ANALYZE-style subsample, so the estimate ``phat`` of each epp's
    selectivity carries realistic sampling + bucket-discretization
    error.  The per-dimension distribution is a log-space Gaussian at
    ``log(phat)`` whose width is the binomial standard error of the
    sample (floored at :data:`MIN_SIGMA_LOG`).
    """

    kind = "sampled"

    def __init__(self, params, quantile=DEFAULT_QUANTILE):
        super().__init__(quantile)
        # ((mu_log, sigma_log), ...) — one pair per ESS dimension.
        self.params = tuple(
            (float(mu), float(sigma)) for mu, sigma in params
        )

    @classmethod
    def fit(cls, query, seed=None, quantile=DEFAULT_QUANTILE):
        """Estimate each epp's selectivity through the statistics layer."""
        from repro.catalog.statistics import EquiDepthHistogram

        if seed is None:
            seed = zlib.crc32(query.name.encode("utf-8"))
        params = []
        for d, epp in enumerate(query.epps):
            p_true = min(max(float(epp.selectivity), 1e-9), 1.0)
            rng = np.random.default_rng([int(seed), d, 0x5E1])
            population = rng.random(POPULATION_ROWS)
            sample = rng.choice(population, size=SAMPLE_ROWS, replace=False)
            hist = EquiDepthHistogram(sample, num_buckets=64)
            phat = hist.selectivity_le(p_true)
            phat = min(max(phat, 1.0 / SAMPLE_ROWS), 1.0)
            # Binomial standard error of the sample, mapped to log space
            # (d log p = dp / p), plus a floor for bucket granularity.
            se_log = np.sqrt((1.0 - phat) / (SAMPLE_ROWS * phat))
            sigma = float(max(se_log, MIN_SIGMA_LOG))
            params.append((float(np.log(phat)), sigma))
        return cls(params, quantile=quantile)

    def pmf(self, grid):
        return [
            _kernel_pmf(grid, d, [mu], [sigma])
            for d, (mu, sigma) in enumerate(self.params[: len(grid.resolution)])
        ]

    def describe(self):
        return f"sampled({len(self.params)} epps)"


class HistoryPrior(SelectivityPrior):
    """Fitted from the observed ``qa`` outcomes of previous runs.

    Observations are full selectivity vectors recorded by
    :class:`HistoryStore` (the serving tier appends one per completed
    discovery).  The per-dimension distribution is a kernel-density
    estimate over the observed log-selectivities.  With no observations
    the prior is *inert* — scheduling is bit-identical to uniform until
    history accrues.
    """

    kind = "history"

    def __init__(self, observations, quantile=DEFAULT_QUANTILE):
        super().__init__(quantile)
        # Per-dimension tuples of observed natural-log selectivities.
        self.observations = tuple(
            tuple(float(v) for v in dim_obs) for dim_obs in observations
        )

    @classmethod
    def from_store(cls, store, key, num_dims, quantile=DEFAULT_QUANTILE):
        rows = store.observations(key, num_dims)
        if not rows:
            return cls((), quantile=quantile)
        obs = tuple(
            tuple(float(np.log(max(row[d], 1e-12))) for row in rows)
            for d in range(num_dims)
        )
        return cls(obs, quantile=quantile)

    def pmf(self, grid):
        if not self.observations:
            return None
        out = []
        for d in range(len(grid.resolution)):
            centers = self.observations[d] if d < len(self.observations) else ()
            if not centers:
                return None
            spread = float(np.std(centers)) if len(centers) > 1 else 0.0
            sigma = max(spread, MIN_SIGMA_LOG)
            out.append(_kernel_pmf(grid, d, centers, [sigma] * len(centers)))
        return out

    def describe(self):
        n = len(self.observations[0]) if self.observations else 0
        return f"history({n} runs)"


class HistoryStore:
    """JSONL sidecar persisting observed ``qa`` outcomes across runs.

    One line per completed discovery: ``{"key": ..., "sel": [...]}``
    where ``key`` ties the observation to a cost-model fingerprint +
    query name (see :func:`history_key`), so a cache shared between
    profiles never cross-pollinates.  The store keeps one line-buffered
    ``O_APPEND`` handle open from its first :meth:`record` until
    :meth:`close`: every line leaves the process as a single ``write``
    call, which POSIX appends atomically, so concurrent pool workers
    never tear each other's lines.
    """

    def __init__(self, path=None):
        self.path = path or self.default_path()
        self._handle = None

    @staticmethod
    def default_path():
        """``REPRO_PRIOR_STORE``, else a file beside the ESS archives."""
        return settings.get("REPRO_PRIOR_STORE") or os.path.join(
            settings.get("REPRO_CACHE_DIR"), "prior_history.jsonl")

    def record(self, key, selectivities):
        """Append one observed selectivity vector.

        Raises ``OSError`` when the store cannot be written even through
        a freshly opened handle; callers that must not fail catch it.
        """
        line = json.dumps(
            {"key": key, "sel": [float(s) for s in selectivities]},
            sort_keys=True,
        ) + "\n"
        try:
            self._append(line)
        except (OSError, ValueError):
            # The kept handle went bad (closed under us, I/O error):
            # one attempt on a fresh one before giving up.
            self.close()
            self._append(line)

    def _append(self, line):
        handle = self._handle
        if handle is not None and os.fstat(handle.fileno()).st_nlink == 0:
            # The sidecar was deleted (an operator resetting history):
            # start a new file instead of feeding the unlinked one.
            self.close()
            handle = None
        if handle is None:
            os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
            handle = self._handle = open(
                self.path, "a", buffering=1, encoding="utf-8"
            )
        handle.write(line)

    def close(self):
        """Release the append handle (the next record re-opens it)."""
        handle, self._handle = self._handle, None
        if handle is not None:
            try:
                handle.close()
            except OSError:
                pass

    def observations(self, key, num_dims):
        """All recorded vectors for ``key`` with the right arity."""
        rows = []
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        entry = json.loads(line)
                    except ValueError:
                        continue  # torn write; skip, don't fail the run
                    if entry.get("key") != key:
                        continue
                    sel = entry.get("sel")
                    if isinstance(sel, list) and len(sel) == num_dims:
                        rows.append(tuple(float(v) for v in sel))
        except OSError:
            return []
        return rows


def history_key(query, ess=None):
    """Store key: cost-model fingerprint + query name."""
    fingerprint = ""
    cost_model = getattr(ess, "cost_model", None)
    if cost_model is not None:
        try:
            fingerprint = cost_model.fingerprint()
        except Exception:
            fingerprint = ""
    return f"{fingerprint}:{query.name}"


def as_prior(value):
    """Normalize a constructor argument into a prior instance."""
    if value is None:
        return UniformPrior()
    if isinstance(value, SelectivityPrior):
        return value
    if isinstance(value, str) and value == "uniform":
        return UniformPrior()
    raise ReproError(
        f"cannot interpret {value!r} as a selectivity prior; pass a "
        f"SelectivityPrior or use make_prior()"
    )


def make_prior(kind, query=None, ess=None, seed=None, store=None,
               quantile=DEFAULT_QUANTILE):
    """Build a prior by kind for a concrete query/surface context."""
    kind = "uniform" if kind is None else str(kind).strip().lower()
    if kind not in PRIOR_KINDS:
        raise ReproError(
            f"unknown prior kind {kind!r}; choose from "
            f"{', '.join(PRIOR_KINDS)}"
        )
    if kind == "uniform":
        return UniformPrior()
    if query is None:
        raise ReproError(f"prior kind {kind!r} needs a query context")
    if kind == "sampled":
        return SampledPrior.fit(query, seed=seed, quantile=quantile)
    if store is None:
        store = HistoryStore()
    return HistoryPrior.from_store(
        store, history_key(query, ess), query.num_epps, quantile=quantile
    )


def record_start_choice(schedule, start, qa_band):
    """Emit one starting-contour decision into observability.

    Called only when the schedule is active, so inert runs pay nothing.
    """
    from repro.obs.metrics import REGISTRY
    from repro.obs.trace import current_span

    REGISTRY.observe(
        "repro_prior_start_contour", float(start),
        labels={"prior": schedule.prior.kind},
        buckets=START_CONTOUR_BUCKETS,
    )
    span = current_span()
    if span is not None:
        span.set_attr("prior_kind", schedule.prior.kind)
        span.set_attr("prior_start_contour", int(start))
        span.set_attr("prior_target_contour", int(schedule.start_target))
        span.set_attr("prior_skipped_contours", int(start) - 1)
        span.set_attr("prior_qa_band", int(qa_band))


class PriorSchedule:
    """A prior discretized onto one concrete ESS + contour ladder.

    This is the object the discovery algorithms actually consult; it
    owns the two scheduling decisions:

    * :meth:`start_for` / :meth:`start_array` — the starting contour
      ``min(target, band(qa))``, never above the band holding ``qa``
      (below the band no budgeted execution can complete, so skipped
      rungs only removed guaranteed kills; the clamp is an uncharged
      optimizer costing, the same consultation that built the ladder).
    * :meth:`order_steps` / :meth:`order_plan_ids` — stable descending
      prior-mass order within a contour.

    ``active`` is False when the prior kind is uniform *or* the prior
    produced no pmf (e.g. an empty history): every method then returns
    its argument unchanged and the caller's fast path is preserved.
    """

    def __init__(self, prior, ess, contours):
        self.prior = prior
        self.ess = ess
        self.contours = contours
        pmf = prior.pmf(ess.grid) if prior.is_active else None
        self.pmf = pmf
        self.active = pmf is not None
        self._plan_order = {}
        if self.active:
            self.cdf = [np.cumsum(p) for p in pmf]
            self.start_target = self._target_contour()
        else:
            self.cdf = None
            self.start_target = 1

    def _target_contour(self):
        """1-based contour band holding the prior's mass quantile."""
        grid = self.ess.grid
        coords = tuple(
            int(min(
                np.searchsorted(self.cdf[d], self.prior.quantile),
                grid.resolution[d] - 1,
            ))
            for d in range(len(grid.resolution))
        )
        flat = grid.flat_index(coords)
        return self._bands(np.asarray([flat], dtype=np.int64))[0]

    def _bands(self, flats):
        """1-based contour band per flat index (eager- and lazy-safe)."""
        costs = self.ess.optimal_cost_at(np.asarray(flats, dtype=np.int64))
        return (
            self.contours.band_of_costs(costs).astype(np.int64) + 1
        )

    def qa_band(self, flat):
        return int(self._bands(np.asarray([int(flat)], dtype=np.int64))[0])

    def start_for(self, flat):
        """Starting contour for one run at ``flat`` (1 when inert)."""
        if not self.active:
            return 1
        band = self.qa_band(flat)
        start = max(1, min(self.start_target, band))
        record_start_choice(self, start, band)
        return start

    def start_array(self, flats):
        """Vectorized :meth:`start_for` (None when inert)."""
        if not self.active:
            return None
        bands = self._bands(flats)
        return np.maximum(1, np.minimum(self.start_target, bands))

    def completion_prob(self, dim, learn_idx):
        """Prior probability a budgeted execution on ``dim`` completes."""
        return float(self.cdf[dim][int(learn_idx)])

    def order_steps(self, steps):
        """Stable descending completion-probability order (ties keep the
        original deterministic order; inert schedules return ``steps``
        unchanged — the same list object, so the no-prior path is
        untouched)."""
        if not self.active or len(steps) < 2:
            return steps
        return sorted(
            steps,
            key=lambda s: -self.cdf[s.exec_dim][int(s.learn_idx)],
        )

    def order_plan_ids(self, rc):
        """A reduced contour's plans in descending prior-mass order.

        Mass of a plan is the pmf product summed over the contour
        points whose optimal plan it is (its optimality region on the
        contour).  Cached per contour index; ties keep the reduction's
        deterministic execution order.
        """
        if not self.active or len(rc.plan_ids) < 2:
            return rc.plan_ids
        cached = self._plan_order.get(rc.index)
        if cached is not None:
            return cached
        contour = self.contours.contour(rc.index)
        coords = np.asarray(contour.coords)
        weights = np.ones(len(contour.points), dtype=float)
        for d in range(coords.shape[1]):
            weights *= self.pmf[d][coords[:, d]]
        plan_ids = np.asarray(contour.plan_ids)
        mass = {
            pid: float(weights[plan_ids == pid].sum())
            for pid in rc.plan_ids
        }
        ordered = sorted(rc.plan_ids, key=lambda pid: -mass.get(pid, 0.0))
        self._plan_order[rc.index] = ordered
        return ordered

"""Columnar vectorized execution: the charge-equivalent batch engine.

The Volcano interpreter in :mod:`repro.engine.iterators` charges the
shared :class:`~repro.engine.executor.CostMeter` once per tuple from
pure Python — after PR 1 made ESS builds cached and PR 2 made discovery
sweeps frontier-batched, that per-row interpreter dominates the
Section 6.3 wall-clock experiment.  This module executes the same plans
over numpy column arrays instead of Python tuples, with one hard
guarantee: **charge equivalence**.  For any plan, budget, and spill
mode, the vectorized engine returns an
:class:`~repro.engine.executor.ExecutionOutcome` identical to the
Volcano engine's — same ``completed`` flag, same ``rows_out``, the same
``cost_spent`` to the last bit, and the same per-operator
:class:`~repro.engine.executor.OperatorStats`, on completed *and*
budget-killed runs alike.

How: instead of metering as it goes, the engine reconstructs the exact
*micro-charge stream* the Volcano interpreter would emit — every
``meter.charge(...)`` call, in pull order — as one flat float64 array,
assembled compositionally:

* each operator contributes its own charges plus, for every row a child
  yields, a consumption block spliced in at the yield position
  (:func:`_splice`: the blocks are one fill value, the child's charges
  land on the complement of one boolean in-block mask, and the consumer
  overwrites the few block charges that differ);
* every run-time monitor increment is a *stat event* carrying the
  number of completed charges required before it fires.  Events are
  never moved: they stay in the coordinates of the subtree that emitted
  them, on that subtree's :class:`_Frame`, and each splice or shift only
  records *where* it put the subtree (``yields``, ``prefix_b``,
  ``offset``).  A completed run reads every count off an array size; a
  killed run pulls the one scalar kill index down the operator tree —
  the splice map is strictly increasing, so it inverts with one
  ``searchsorted`` per frame — and truncates each event locally;
* rows are materialised late: a stream carries per-table row-id vectors
  (:class:`_Rows`), composed through a join's match selector only when
  an operator above reads one of that table's key columns, so scans copy
  no table, joins gather only the keys they compare, and the root's
  output is never gathered at all;
* joins sort their build side once and probe it (:func:`_probe`) —
  direct-addressed when the key column is dense non-negative integers;
* budget enforcement is a cumulative sum over the stream (numpy's
  ``cumsum`` accumulates sequentially, so partial sums are bit-identical
  to the meter's one-at-a-time additions) plus a ``searchsorted`` for
  the first crossing; stats and the top-level row count are truncated at
  that exact micro-charge, reproducing the mid-row abort points of the
  row-at-a-time meter.

Budgeted runs stop *constructing* the stream shortly past the budget:
every truncation keeps an **exact prefix** of the true charge sequence
(probe phases are cut at an outer-yield boundary, never mid-splice), so
whenever the kill point falls inside the built prefix the truncated
stats are exact.  The cut heuristics use a 1%-plus-constant margin over
the budget; in the (defensive) case where a truncated stream turns out
not to contain the kill, or a stream would exceed
:data:`MAX_CHARGES`, the engine raises :class:`VectorFallback`
and the caller re-runs on the Volcano interpreter — correctness never
depends on the vector path being taken.
"""

from __future__ import annotations

import math

import numpy as np

from repro.engine.executor import ExecutionOutcome, OperatorStats
from repro.errors import ExecutionError
from repro.obs.metrics import REGISTRY
from repro.optimizer import plans as planlib

#: Ceiling on the number of micro-charges the engine will materialize
#: for one execution; streams that would exceed it (quadratic
#: nested-loop blowups, astronomically large budgets) fall back to the
#: Volcano interpreter instead of exhausting memory.
MAX_CHARGES = 1 << 25

#: Kill-scan chunk: the budget crossing search cumsums the stream in
#: morsels of this many charges (with an exact scalar carry between
#: chunks) so killed runs stop scanning shortly past the budget.
MORSEL_CHARGES = 1 << 20

_NO_ROWS = np.empty(0, dtype=np.int64)
_NO_BLOCKS = np.zeros(1, dtype=np.int64)


class VectorFallback(Exception):
    """The vector engine declined this execution; use Volcano instead."""


def _cumsum0(values):
    """Exclusive cumulative sum with a leading zero (length ``n + 1``)."""
    out = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum(values, out=out[1:])
    return out


class _Frame:
    """Stat events of one operator subtree, in that subtree's coordinates.

    ``events`` are the subtree root's own ``(node_key, field, reqs,
    deltas)``: the counter gains ``deltas[j]`` (1 each when ``deltas``
    is None) once ``reqs[j]`` of the subtree's charges have completed.
    ``children`` are the input subtrees' frames.  The consumer records
    where it put this subtree's charges with :meth:`place` — requirement
    ``r`` lands at ``r + prefix_b[#{yields < r}] + offset`` of the
    consumer's stream — and :meth:`tally` inverts that map for the one
    kill index instead of mapping every event up.
    """

    __slots__ = ("events", "children", "yields", "prefix_b", "offset")

    def __init__(self, events, children=()):
        self.events = events
        self.children = list(children)
        self.place(0)

    def place(self, offset, yields=_NO_ROWS, prefix_b=_NO_BLOCKS):
        self.offset, self.yields, self.prefix_b = offset, yields, prefix_b

    def pull_down(self, kill):
        """The largest local ``r`` whose image is ``<= kill`` (negative
        when the kill precedes this subtree's first charge)."""
        k = kill - self.offset
        starts = self.yields + self.prefix_b[:-1]  # a block opens at its yield
        m = int(np.searchsorted(starts, k, side="right"))
        if m == 0:
            return k
        return max(int(self.yields[m - 1]), k - int(self.prefix_b[m]))

    def tally(self, kill, stats):
        """Add this subtree's monitor counts, as of ``kill`` completed
        charges of the consumer's stream (None: ran to completion)."""
        if kill is not None:
            kill = self.pull_down(kill)
        for key, field, reqs, deltas in self.events:
            fired = (reqs.size if kill is None
                     else int(np.searchsorted(reqs, kill, side="right")))
            count = fired if deltas is None else int(deltas[:fired].sum())
            setattr(stats[key], field, getattr(stats[key], field) + count)
        for child in self.children:
            child.tally(kill, stats)


class _Rows:
    """Late-materialised output rows: per-table row-id vectors.

    A scan knows its ids outright; a join's ids are an input's ids taken
    at the join's match selector, composed only when an operator above
    asks for one of that table's key columns.
    """

    __slots__ = ("tables", "parts", "ids")

    def __init__(self, tables=(), parts=(), ids=None):
        self.tables = dict(tables)  # table name -> TableData
        self.parts = parts  # ((input rows, selector into them), ...)
        for rows, _ in parts:
            self.tables.update(rows.tables)
        self.ids = {} if ids is None else ids

    def require(self, node_key, table, column):
        """Raise unless ``table.column`` can be read from these rows."""
        if (table not in self.tables
                or column not in self.tables[table].columns):
            raise ExecutionError(
                f"operator {node_key}: no column {table}.{column}"
            )

    def row_ids(self, table):
        if table not in self.ids:
            rows, selector = next(p for p in self.parts
                                  if table in p[0].tables)
            self.ids[table] = rows.row_ids(table)[selector]
        return self.ids[table]

    def column(self, table, column):
        return self.tables[table].column(column)[self.row_ids(table)]


class _Stream:
    """The reconstructed micro-charge stream of one operator subtree.

    Attributes:
        charges: float64 array, one entry per ``meter.charge`` call, in
            exact Volcano pull order.
        yields: int64 array, strictly increasing; ``yields[i]`` is the
            number of completed charges at which output row ``i`` is
            handed to the consumer.
        frame: the subtree's stat events (:class:`_Frame`).
        rows: the output rows (:class:`_Rows`; only the rows yielded
            before any truncation point).
        truncated: True when construction stopped early because the
            budget cap was crossed — the stream is then an exact
            *prefix* of the true charge sequence, expected (but not
            required) to contain the kill point.
    """

    __slots__ = ("charges", "yields", "frame", "rows", "truncated")

    def __init__(self, charges, yields, frame, rows, truncated=False):
        self.charges = charges
        self.yields = yields
        self.frame = frame
        self.rows = rows
        self.truncated = truncated


class _BuildContext:
    """Counts the charges built so far and enforces the ceilings.

    ``cap`` is the budget inflated by a 1%-plus-constant safety margin
    (float cumsum error over any realistic stream is orders of magnitude
    smaller): once a prefix's mass exceeds it, the budget crossing
    provably lies inside that prefix and construction may stop.
    ``MAX_CHARGES`` bounds memory regardless of budget.
    """

    __slots__ = ("cap", "count")

    def __init__(self, budget):
        self.cap = (float("inf") if budget is None
                    else float(budget) * 1.01 + 256.0)
        self.count = 0

    def add(self, count):
        """Account ``count`` more charges, *before* allocating them."""
        self.count += int(count)
        if self.count > MAX_CHARGES:
            raise VectorFallback(
                f"charge stream exceeds {MAX_CHARGES} micro-charges"
            )

    def row_cut(self, per_row_charges, base):
        """Leading rows to keep of a contiguous per-row charge phase.

        ``base`` is a lower bound on the true mass preceding the phase
        (see :func:`_probe_cut` for why a lower bound is the safe
        direction).  Returns the full length when the cap is never
        crossed; otherwise the crossing row is included so the kept
        prefix mass strictly exceeds the cap.
        """
        n = len(per_row_charges)
        if self.cap == float("inf") or n == 0:
            return n
        mass = np.cumsum(per_row_charges) + base
        if mass[-1] <= self.cap:
            return n
        return int(np.searchsorted(mass, self.cap, side="right")) + 1


def _probe_cut(ctx, local_before, outer_s, per_row):
    """Row cut for a probe phase interleaved with the outer's charges.

    ``local_before`` is the mass of this node's own stream preceding the
    probe segment — startup plus any build/materialization phases.
    Ancestor charges that will precede this subtree once it is spliced
    into the final stream are unknown during bottom-up construction and
    are deliberately *not* estimated: under-estimating the preceding
    mass only lengthens the kept prefix (the budget crossing stays
    inside it), whereas over-estimating — e.g. counting sibling-subtree
    mass that actually lands *after* this phase — could cut the prefix
    short of the kill point and force a Volcano fallback.
    """
    if ctx.cap == float("inf") or len(per_row) == 0:
        return len(per_row)
    before_yield = np.cumsum(outer_s.charges)[outer_s.yields - 1]
    return ctx.row_cut(per_row, local_before + before_yield)


# ----------------------------------------------------------------------
# Stream composition
# ----------------------------------------------------------------------

def _splice(lead, child, block_sizes, fill):
    """Append a child's stream, with per-yield consumption blocks, to
    the consumer's ``lead`` charges.

    The consumer receives child row ``i`` after ``child.yields[i]``
    charges and immediately issues ``block_sizes[i]`` charges of its own
    — ``fill`` each; the caller overwrites the few that differ.
    ``block_sizes`` may cover only the leading yields: the stream then
    stops at the first yield without a block, so it stays an exact
    prefix (the true stream has a block there).  Records the placement
    on the child's frame (events with ``req == yields[i]`` fire before
    block ``i``, exactly as the interpreter's post-charge increments
    precede the consumer's resumption) and returns the combined charges
    plus the index of each block's first charge.
    """
    n = block_sizes.size
    y = child.yields[:n]
    kept = child.charges.size if n == child.yields.size \
        else int(child.yields[n])
    prefix_b = _cumsum0(block_sizes)
    offset = len(lead)
    out = np.full(offset + kept + int(prefix_b[-1]), fill, dtype=np.float64)
    out[:offset] = lead
    # Block charge ``j`` (row-major) sits ``j`` block charges and
    # ``y[its row]`` child charges into the segment; the child's charges
    # take every other position, in order.
    block_pos = np.repeat(y, block_sizes)
    block_pos += np.arange(block_pos.size, dtype=np.int64)
    is_child = np.ones(out.size - offset, dtype=bool)
    is_child[block_pos] = False
    out[offset:][np.flatnonzero(is_child)] = child.charges[:kept]
    child.frame.place(offset, y, prefix_b)
    return out, y + prefix_b[:-1] + offset


def _join_refs(node, outer_rows, inner_rows):
    """A join's per-side key references, each checked against the rows
    it will be read from."""
    outer_refs, inner_refs = node.key_pairs()
    for ref in outer_refs:
        outer_rows.require(node.key, *ref)
    for ref in inner_refs:
        inner_rows.require(node.key, *ref)
    return outer_refs, inner_refs


def _join_keys(outer_rows, outer_refs, inner_rows, inner_refs):
    """One key vector per side; a composite key becomes dense ids that
    keep the tuple order (equal tuples share an id across sides)."""
    outer = [outer_rows.column(*ref) for ref in outer_refs]
    inner = [inner_rows.column(*ref) for ref in inner_refs]
    if len(outer) == 1:
        return outer[0], inner[0]
    both = np.stack([np.concatenate(pair) for pair in zip(outer, inner)],
                    axis=1)
    ids = np.unique(both, axis=0, return_inverse=True)[1].reshape(-1)
    return ids[:outer[0].size], ids[outer[0].size:]


# ----------------------------------------------------------------------
# Vectorized predicates and key matching
# ----------------------------------------------------------------------

def _filter_mask(op, values, constant):
    if op == "=":
        return values == constant
    if op == "<":
        return values < constant
    if op == "<=":
        return values <= constant
    if op == ">":
        return values > constant
    if op == ">=":
        return values >= constant
    if op == "between":
        low, high = constant
        return (values >= low) & (values <= high)
    raise ExecutionError(f"unsupported filter op {op!r}")


def _apply_filters(data, filters, rows=None):
    """Conjunction of ``filters`` over a table's rows (all, or the
    ``rows`` subset) — only the filtered columns are read."""
    mask = np.ones(data.num_rows if rows is None else rows.size, dtype=bool)
    for f in filters:
        values = data.column(f.column)
        mask &= _filter_mask(f.op, values if rows is None else values[rows],
                             f.value)
    return mask


def _probe(build, probe):
    """Sort the build side once and probe it.

    Returns ``(order, starts, counts)``: the build rows in stable key
    order (insertion order within a key — the interpreter's bucket
    order) and, per probe row, where its run of matches starts in
    ``order`` and how long it is.  A dense non-negative integer build
    column is addressed directly through per-key count tables; any other
    is binary-searched in its sorted form.
    """
    order = np.argsort(build, kind="stable")
    if (build.size and build.dtype.kind == probe.dtype.kind == "i"
            and build.min() >= 0
            and build.max() <= 4 * (build.size + probe.size)):
        per_key = np.append(np.bincount(build), 0)
        # Keys outside the table land on the spare last slot (count 0).
        slot = np.clip(probe, -1, per_key.size - 1)
        return order, _cumsum0(per_key)[:-1][slot], per_key[slot]
    keys = build[order]
    starts = np.searchsorted(keys, probe, side="left")
    return order, starts, np.searchsorted(keys, probe, side="right") - starts


def _expand_matches(starts, counts, order):
    """Row-major ``(probe_row, build_row)`` match pairs, build rows in
    original (insertion) order within each probe row — the hash-table
    bucket order of the interpreter."""
    rep = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    within = np.arange(rep.size, dtype=np.int64) - np.repeat(
        _cumsum0(counts)[:-1], counts)
    return rep, within, order[starts[rep] + within]


# ----------------------------------------------------------------------
# Operator stream builders
# ----------------------------------------------------------------------

def _truncated_stream(charges, frame, *inputs):
    """A stream cut before its first output row."""
    return _Stream(charges, _NO_ROWS, frame,
                   _Rows(parts=tuple((s.rows, _NO_ROWS) for s in inputs)),
                   truncated=True)


def _scan_stream(table_name, data, candidates, mask, lead, unit, model, ctx,
                 key):
    """``lead`` one-off charges, then per candidate row a ``unit`` charge
    plus an output charge when it passes ``mask``."""
    n = mask.size
    total = len(lead) + n + int(np.count_nonzero(mask))
    ctx.add(total)
    passes_before = np.cumsum(mask) - mask  # exclusive per-row pass count
    unit_pos = len(lead) + np.arange(n, dtype=np.int64) + passes_before
    charges = np.full(total, unit, dtype=np.float64)
    charges[:len(lead)] = lead
    yields = unit_pos[mask] + 2
    charges[yields - 1] = model.output_tuple
    frame = _Frame([(key, "rows_outer", unit_pos + 1, None),
                    (key, "rows_out", yields, None)])
    ids = np.flatnonzero(mask) if candidates is None else candidates[mask]
    return _Stream(charges, yields, frame,
                   _Rows({table_name: data}, ids={table_name: ids}))


def _seq_scan_stream(table_name, data, filters, model, ctx, key):
    return _scan_stream(table_name, data, None, _apply_filters(data, filters),
                        [model.startup], model.seq_tuple, model, ctx, key)


def _index_scan_stream(table_name, data, filters, model, ctx, key):
    indexed = [f for f in filters if f.op == "=" and f.column in data.columns]
    if not indexed:
        # The interpreter's fallback re-enters SeqScan.rows(), which
        # charges its own startup — the double charge is reproduced.
        ctx.add(1)
        sub = _seq_scan_stream(table_name, data, filters, model, ctx, key)
        sub.frame.place(1)
        return _Stream(np.concatenate(([model.startup], sub.charges)),
                       sub.yields + 1, _Frame([], [sub.frame]), sub.rows)
    lead = indexed[0]
    matches = np.flatnonzero(data.column(lead.column) == lead.value)
    mask = _apply_filters(data, [f for f in filters if f is not lead],
                          matches)
    descend = model.index_lookup * math.log2(max(data.num_rows, 2))
    return _scan_stream(table_name, data, matches, mask,
                        [model.startup, descend], model.index_fetch, model,
                        ctx, key)


def _hash_join_stream(node, outer_s, inner_s, model, ctx, key):
    refs = _join_refs(node, outer_s.rows, inner_s.rows)

    # Build phase: one hash_build charge per inner row, at its yield.
    n_inner = inner_s.yields.size
    ctx.add(1 + n_inner)
    charges, build_starts = _splice(
        [model.startup], inner_s, np.ones(n_inner, dtype=np.int64),
        model.hash_build)
    frame = _Frame([(key, "rows_inner", build_starts + 1, None)],
                   [inner_s.frame])
    local_before = float(charges.sum())
    if inner_s.truncated or local_before > ctx.cap:
        return _truncated_stream(charges, frame, outer_s, inner_s)

    # Probe phase: per outer row a hash_probe then an output_tuple per
    # bucket match (insertion order = inner row order).
    outer_keys, inner_keys = _join_keys(outer_s.rows, refs[0],
                                        inner_s.rows, refs[1])
    order, starts, counts = _probe(inner_keys, outer_keys)
    per_row = model.hash_probe + model.output_tuple * counts
    cut = _probe_cut(ctx, local_before, outer_s, per_row)
    starts, counts = starts[:cut], counts[:cut]
    ctx.add(cut + counts.sum())
    charges, probe_starts = _splice(charges, outer_s, 1 + counts,
                                    model.output_tuple)
    charges[probe_starts] = model.hash_probe
    frame.children.append(outer_s.frame)
    frame.events.append((key, "rows_outer", probe_starts + 1, None))
    rep, within, flat_inner = _expand_matches(starts, counts, order)
    yields = probe_starts[rep] + within + 2
    frame.events.append((key, "rows_out", yields, None))
    rows = _Rows(parts=((outer_s.rows, rep), (inner_s.rows, flat_inner)))
    return _Stream(charges, yields, frame, rows,
                   outer_s.truncated or cut < outer_s.yields.size)


def _merge_join_stream(node, outer_s, inner_s, model, ctx, key):
    refs = _join_refs(node, outer_s.rows, inner_s.rows)
    segments = [np.array([model.startup])]
    frame = _Frame([])
    offset = 1
    local = model.startup  # this node's stream mass built so far
    ctx.add(1)
    for child, field in ((outer_s, "rows_outer"), (inner_s, "rows_inner")):
        # Drain (uncharged per row, monitored at each yield), then one
        # sort charge covering the whole materialized side.
        segments.append(child.charges)
        child.frame.place(offset)
        frame.children.append(child.frame)
        frame.events.append((key, field, child.yields + offset, None))
        offset += child.charges.size
        local += float(child.charges.sum())
        if child.truncated:
            return _truncated_stream(np.concatenate(segments), frame,
                                     outer_s, inner_s)
        n_side = child.yields.size
        sort_charge = model.sort_unit * math.log2(max(n_side, 2)) * n_side
        segments.append(np.array([sort_charge]))
        ctx.add(1)
        offset += 1
        local += sort_charge
        if local > ctx.cap:
            return _truncated_stream(np.concatenate(segments), frame,
                                     outer_s, inner_s)

    n_left, n_right = outer_s.yields.size, inner_s.yields.size
    merge_charge = model.merge_unit * (n_left + n_right)
    segments.append(np.array([merge_charge]))
    ctx.add(1)
    offset += 1
    local += merge_charge
    if local > ctx.cap:
        return _truncated_stream(np.concatenate(segments), frame, outer_s,
                                 inner_s)

    left_keys, right_keys = _join_keys(outer_s.rows, refs[0],
                                       inner_s.rows, refs[1])
    left_order = np.argsort(left_keys, kind="stable")
    right_order, starts, counts = _probe(right_keys, left_keys[left_order])
    cut = ctx.row_cut(model.output_tuple * counts, local)
    rep, _, flat_right = _expand_matches(starts[:cut], counts[:cut],
                                         right_order)
    ctx.add(rep.size)
    segments.append(np.full(rep.size, model.output_tuple))
    yields = offset + 1 + np.arange(rep.size, dtype=np.int64)
    frame.events.append((key, "rows_out", yields, None))
    rows = _Rows(parts=((outer_s.rows, left_order[rep]),
                        (inner_s.rows, flat_right)))
    return _Stream(np.concatenate(segments), yields, frame, rows,
                   cut < n_left)


def _nl_join_stream(node, outer_s, inner_s, model, ctx, key):
    refs = _join_refs(node, outer_s.rows, inner_s.rows)
    ctx.add(1)
    # Inner side is materialized uncharged, monitored at each yield.
    inner_s.frame.place(1)
    frame = _Frame([(key, "rows_inner", inner_s.yields + 1, None)],
                   [inner_s.frame])
    charges = np.concatenate(([model.startup], inner_s.charges))
    local_before = float(charges.sum())
    if inner_s.truncated or local_before > ctx.cap:
        return _truncated_stream(charges, frame, outer_s, inner_s)

    # Probe phase: per outer row one nl_pair charge per inner row, with
    # an output_tuple right after each matching pair.
    n_inner = inner_s.yields.size
    outer_keys, inner_keys = _join_keys(outer_s.rows, refs[0],
                                        inner_s.rows, refs[1])
    order, starts, counts = _probe(inner_keys, outer_keys)
    per_row = model.nl_pair * n_inner + model.output_tuple * counts
    cut = _probe_cut(ctx, local_before, outer_s, per_row)
    starts, counts = starts[:cut], counts[:cut]
    ctx.add(cut * n_inner + counts.sum())
    charges, probe_starts = _splice(charges, outer_s, n_inner + counts,
                                    model.nl_pair)
    frame.children.append(outer_s.frame)
    # rows_outer increments *before* any pair charge of its block.
    frame.events.append((key, "rows_outer", probe_starts, None))
    rep, within, flat_inner = _expand_matches(starts, counts, order)
    # Match ``within`` of its row follows the pair charges of inner rows
    # ``0..flat_inner`` and the row's earlier outputs.
    yields = probe_starts[rep] + flat_inner + within + 2
    charges[yields - 1] = model.output_tuple
    frame.events.append((key, "rows_out", yields, None))
    rows = _Rows(parts=((outer_s.rows, rep), (inner_s.rows, flat_inner)))
    return _Stream(charges, yields, frame, rows,
                   outer_s.truncated or cut < outer_s.yields.size)


def _index_nl_join_stream(node, outer_s, query, data_provider, model, ctx,
                          key):
    inner_table = next(iter(node.inner.tables))
    data = data_provider.table(inner_table)
    (outer_ref,), (inner_ref,) = _join_refs(node, outer_s.rows,
                                            _Rows({inner_table: data}))
    residual_mask = _apply_filters(data, query.filters_on(inner_table))
    descend = model.index_lookup * math.log2(max(data.num_rows, 2)) * 0.25

    ctx.add(1)
    # rows_inner is *assigned* (not incremented) right after startup;
    # the stats record starts at zero so a one-shot delta is identical.
    events = [(key, "rows_inner", np.array([1], dtype=np.int64),
               np.array([np.count_nonzero(residual_mask)], dtype=np.int64))]
    table_order, starts, counts = _probe(data.column(inner_ref[1]),
                                         outer_s.rows.column(*outer_ref))
    pass_cum = _cumsum0(residual_mask[table_order])
    out_counts = pass_cum[starts + counts] - pass_cum[starts]

    # Per outer row: the descend, then an index_fetch per candidate with
    # an output_tuple right after each one that passes the filters.
    per_row = descend + model.index_fetch * counts \
        + model.output_tuple * out_counts
    cut = _probe_cut(ctx, model.startup, outer_s, per_row)
    starts, counts = starts[:cut], counts[:cut]
    block_sizes = 1 + counts + out_counts[:cut]
    ctx.add(block_sizes.sum())
    charges, probe_starts = _splice([model.startup], outer_s, block_sizes,
                                    model.index_fetch)
    charges[probe_starts] = descend
    # rows_outer increments before the descend charge of its block.
    events.append((key, "rows_outer", probe_starts, None))
    rep, within, flat_tbl = _expand_matches(starts, counts, table_order)
    passes = residual_mask[flat_tbl]
    # Per candidate: exclusive count of earlier passing candidates in
    # the same outer row's block (each added one output_tuple charge).
    pass_all = _cumsum0(passes)
    pass_before = pass_all[:-1] - np.repeat(
        pass_all[_cumsum0(counts)[:-1]], counts)
    out_rows = rep[passes]
    yields = (probe_starts[out_rows] + within[passes] + pass_before[passes]
              + 3)
    charges[yields - 1] = model.output_tuple
    events.append((key, "rows_out", yields, None))
    rows = _Rows({inner_table: data}, ((outer_s.rows, out_rows),),
                 {inner_table: flat_tbl[passes]})
    return _Stream(charges, yields, _Frame(events, [outer_s.frame]), rows,
                   outer_s.truncated or cut < outer_s.yields.size)


def _build_stream(node, query, data_provider, model, ctx, node_keys):
    """Mirror of ``spill._build_operator`` producing charge streams."""
    node_keys.append(node.key)
    if isinstance(node, planlib.ScanNode):
        data = data_provider.table(node.table)
        builder = (_index_scan_stream if node.method == planlib.INDEX_SCAN
                   else _seq_scan_stream)
        return builder(node.table, data, node.applied_preds, model, ctx,
                       node.key)

    outer = _build_stream(node.outer, query, data_provider, model, ctx,
                          node_keys)
    if node.op == planlib.INDEX_NL_JOIN:
        if len(node.applied_preds) != 1:
            raise ExecutionError(
                "index nested-loop join supports a single join predicate"
            )
        return _index_nl_join_stream(node, outer, query, data_provider,
                                     model, ctx, node.key)
    inner = _build_stream(node.inner, query, data_provider, model, ctx,
                          node_keys)
    if node.op == planlib.HASH_JOIN:
        return _hash_join_stream(node, outer, inner, model, ctx, node.key)
    if node.op == planlib.MERGE_JOIN:
        return _merge_join_stream(node, outer, inner, model, ctx, node.key)
    if node.op == planlib.NL_JOIN:
        return _nl_join_stream(node, outer, inner, model, ctx, node.key)
    raise ExecutionError(f"unknown join operator {node.op!r}")


# ----------------------------------------------------------------------
# Budget enforcement and outcome assembly
# ----------------------------------------------------------------------

def _kill_index(charges, budget):
    """First micro-charge whose cumulative sum exceeds the budget.

    Returns ``(kill, final_spent)``; ``kill`` is None for completed
    runs.  The scan cumsums in morsels with an exact scalar carry, so
    partial sums are bit-identical to the meter's sequential additions
    and killed runs stop scanning shortly past the budget.
    """
    carry = 0.0
    for lo in range(0, charges.size, MORSEL_CHARGES):
        morsel = charges[lo:lo + MORSEL_CHARGES]
        # The carry rides in the morsel's first slot for the scan (the
        # same ``spent + amount`` the meter computes), not in a copy.
        first = morsel[0]
        morsel[0] = carry + first
        cum = np.cumsum(morsel)
        morsel[0] = first
        if budget is not None and cum[-1] > budget:
            return lo + int(np.searchsorted(cum, budget, side="right")), None
        carry = float(cum[-1])
    return None, carry


def execute_vectorized(root, query, data_provider, cost_model, budget=None,
                       spilled_epp=""):
    """Run one (sub)plan on the vector engine.

    Args:
        root: plan subtree to execute (spill surgery already applied by
            the caller).
        query / data_provider / cost_model / budget: as in
            :func:`repro.engine.spill.execute_plan`.
        spilled_epp: label recorded on the outcome.

    Returns:
        An :class:`ExecutionOutcome` identical to the Volcano engine's.

    Raises:
        VectorFallback: when the execution is better served by the
            interpreter — the charge stream would exceed
            :data:`MAX_CHARGES`, or (defensively) a truncated
            stream turned out not to contain the budget crossing.
    """
    ctx = _BuildContext(budget)
    node_keys = []
    stream = _build_stream(root, query, data_provider, cost_model, ctx,
                           node_keys)
    kill, spent = _kill_index(stream.charges, budget)
    if kill is None and stream.truncated:
        # The cap margin makes this nearly unreachable; fall back rather
        # than ever reporting a truncated stream as completed.
        raise VectorFallback("truncated stream completed under budget")

    stats = {k: OperatorStats(node_key=k) for k in node_keys}
    stream.frame.tally(kill, stats)
    if kill is None:
        rows_out = int(stream.yields.size)
        REGISTRY.incr("vector_exec_completed")
    else:
        rows_out = int(np.searchsorted(stream.yields, kill, side="right"))
        REGISTRY.incr("vector_exec_killed")
        REGISTRY.incr("budget_kill_executions", labels={"engine": "vector"})
        REGISTRY.observe("budget_kill_cost", budget)
    return ExecutionOutcome(
        completed=kill is None,
        rows_out=rows_out,
        cost_spent=budget if kill is not None else float(spent),
        budget=budget,
        stats=stats,
        spilled_epp=spilled_epp,
    )

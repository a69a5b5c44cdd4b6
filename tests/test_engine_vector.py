"""The vector engine's charge-equivalence contract, at its edges.

The columnar engine (:mod:`repro.engine.vector`) promises an
:class:`~repro.engine.executor.ExecutionOutcome` identical to the
Volcano interpreter's for any plan, budget, and spill mode.  These tests
target the places where that promise is hardest to keep: budgets landing
exactly on a charge boundary (the meter's strict ``>``), kills inside
MergeJoin's lump sort/merge charges vs inside its output loop, killed
spill-mode runs, the fallback path when the engine declines an
execution, and — exhaustively, on tiny data — the pull-down of the kill
point through every operator shape's frames.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    DataGenerator,
    ESS,
    ESSGrid,
    ForeignKey,
    Schema,
    SPJQuery,
    Table,
    execute_plan,
    filter_pred,
    fk_column,
    join,
    key_column,
)
from repro.engine import spill, vector
from repro.engine.executor import CostMeter
from repro.engine.spill import ENGINES
from repro.errors import ExecutionError
from repro.optimizer import plans as planlib
from repro.optimizer.cost_model import DEFAULT_COST_MODEL as MODEL


@pytest.fixture(scope="module")
def setup():
    schema = Schema("vecdiff", tables=[
        Table("a", 90, [key_column("a_id", 90), fk_column("a_x", 6)]),
        Table("f", 1_500, [fk_column("f_a_id", 90, indexed=True),
                           fk_column("f_b_id", 60, indexed=True)]),
        Table("b", 60, [key_column("b_id", 60), fk_column("b_y", 5)]),
    ], foreign_keys=[
        ForeignKey("f", "f_a_id", "a", "a_id"),
        ForeignKey("f", "f_b_id", "b", "b_id"),
    ])
    query = SPJQuery("vecdiff2d", schema, ["a", "f", "b"], joins=[
        join("a", "a_id", "f", "f_a_id", selectivity=1 / 90,
             error_prone=True),
        join("b", "b_id", "f", "f_b_id", selectivity=1 / 60,
             error_prone=True),
    ], filters=[
        filter_pred("a", "a_x", "=", 2, selectivity=1 / 6),
        filter_pred("b", "b_y", "=", 1, selectivity=1 / 5),
    ])
    gen = DataGenerator(schema, seed=31)
    gen.generate_table("a")
    gen.generate_table("b")
    gen.generate_table("f", fk_skew={"f_a_id": 0.8})
    ess = ESS.build(query, ESSGrid(2, resolution=8, sel_min=1e-4))
    return query, gen, ess


def both(plan, query, gen, model, **kwargs):
    v = execute_plan(plan, query, gen, model, engine="volcano", **kwargs)
    w = execute_plan(plan, query, gen, model, engine="vector", **kwargs)
    return v, w


def assert_identical(v, w):
    assert v.completed == w.completed
    assert v.rows_out == w.rows_out
    # repr catches last-bit drift that a tolerance would forgive.
    assert repr(v.cost_spent) == repr(w.cost_spent)
    assert v.spilled_epp == w.spilled_epp
    assert set(v.stats) == set(w.stats)
    for key in v.stats:
        a, b = v.stats[key], w.stats[key]
        assert (a.rows_outer, a.rows_inner, a.rows_out) == \
            (b.rows_outer, b.rows_inner, b.rows_out), key


def charge_prefix_sums(plan, query, gen, model):
    """The meter's exact running totals, one per ``charge()`` call."""
    ctx = vector._BuildContext(None)
    stream = vector._build_stream(plan, query, gen, model, ctx, [])
    assert not stream.truncated
    return np.cumsum(stream.charges)


def merge_join_plan(query):
    ja, jb = query.epps
    low = planlib.JoinNode(
        planlib.MERGE_JOIN,
        planlib.ScanNode("f", planlib.SEQ_SCAN),
        planlib.ScanNode("a", planlib.SEQ_SCAN),
        (ja,),
    )
    return planlib.JoinNode(
        planlib.MERGE_JOIN, low,
        planlib.ScanNode("b", planlib.SEQ_SCAN), (jb,),
    )


class TestEngineSelector:
    def test_explicit_engines_resolve_to_themselves(self, setup):
        """Each name runs its own engine; the default is vector."""
        from repro.obs.metrics import REGISTRY

        query, gen, ess = setup
        cases = [({}, "vector"), ({"engine": "vector"}, "vector"),
                 ({"engine": "volcano"}, "volcano")]
        for kwargs, engine in cases:
            labels = {"engine": engine}
            before = REGISTRY.counter("engine_executions", labels=labels)
            execute_plan(ess.plans[0], query, gen, MODEL, **kwargs)
            assert REGISTRY.counter("engine_executions",
                                    labels=labels) == before + 1

    def test_unknown_argument_is_an_error(self, setup):
        query, gen, ess = setup
        for engine in ("warp-drive", "auto", None):
            with pytest.raises(ExecutionError):
                execute_plan(ess.plans[0], query, gen, MODEL, engine=engine)

    def test_engines_tuple(self):
        assert ENGINES == ("vector", "volcano")


class TestBudgetBoundaries:
    def test_budget_exactly_on_charge_boundary(self, setup):
        """The meter kills on strict ``>``: a budget equal to a prefix
        sum survives that charge and dies on the next one.  Both engines
        must agree at the boundary and one ulp below it."""
        query, gen, ess = setup
        plan = ess.plans[0]
        prefix = charge_prefix_sums(plan, query, gen, ess.cost_model)
        picks = [0, 1, len(prefix) // 3, len(prefix) // 2, len(prefix) - 2]
        for i in picks:
            boundary = float(prefix[i])
            for budget in (boundary, np.nextafter(boundary, -np.inf)):
                v, w = both(plan, query, gen, ess.cost_model, budget=budget)
                assert not v.completed
                assert_identical(v, w)

    def test_budget_equal_to_total_completes(self, setup):
        query, gen, ess = setup
        plan = ess.plans[0]
        prefix = charge_prefix_sums(plan, query, gen, ess.cost_model)
        v, w = both(plan, query, gen, ess.cost_model,
                    budget=float(prefix[-1]))
        assert v.completed and w.completed
        assert_identical(v, w)

    def test_kill_inside_merge_sort_charge_vs_merge_loop(self, setup):
        """MergeJoin charges sorting as one lump per side and merging as
        one lump, then per-row output charges; a kill landing *inside* a
        lump and one landing in the output loop truncate differently and
        both must match the interpreter."""
        query, gen, ess = setup
        model = ess.cost_model
        plan = merge_join_plan(query)
        ctx = vector._BuildContext(None)
        stream = vector._build_stream(plan, query, gen, model, ctx, [])
        prefix = np.cumsum(stream.charges)
        # Lump charges are the ones much larger than any per-row charge.
        lumps = np.flatnonzero(stream.charges > 4 * model.startup)
        assert lumps.size >= 3, "expected sort/sort/merge lump charges"
        for lump in lumps[:3]:
            mid = float(prefix[lump]) - 0.5 * float(stream.charges[lump])
            v, w = both(plan, query, gen, model, budget=mid)
            assert not v.completed
            assert_identical(v, w)
        # Inside the output loop: past every lump, short of completion.
        loop_budget = float(prefix[-1]) - 2 * model.output_tuple
        v, w = both(plan, query, gen, model, budget=loop_budget)
        assert not v.completed
        assert_identical(v, w)

    def test_spill_mode_kills_identical(self, setup):
        query, gen, ess = setup
        plan = ess.plans[0]
        for epp in query.epps:
            full = execute_plan(plan, query, gen, ess.cost_model,
                                spill_epp=epp.name, engine="volcano")
            assert full.completed
            rng = np.random.default_rng(17)
            for budget in rng.uniform(5.0, full.cost_spent,
                                      size=8).tolist():
                v, w = both(plan, query, gen, ess.cost_model,
                            budget=budget, spill_epp=epp.name)
                assert_identical(v, w)

    def test_all_posp_plans_unbudgeted_identical(self, setup):
        query, gen, ess = setup
        for plan in ess.plans:
            v, w = both(plan, query, gen, ess.cost_model)
            assert v.completed
            assert_identical(v, w)


class TestFallback:
    def test_max_charges_ceiling_falls_back_to_volcano(self, setup,
                                                       monkeypatch):
        """When the stream would exceed the charge ceiling the selector
        silently reruns on Volcano — callers still get the exact
        outcome."""
        query, gen, ess = setup
        plan = ess.plans[0]
        reference = execute_plan(plan, query, gen, ess.cost_model,
                                 engine="volcano")
        monkeypatch.setattr(vector, "MAX_CHARGES", 16)
        with pytest.raises(vector.VectorFallback):
            vector.execute_vectorized(plan, query, gen, ess.cost_model)
        outcome = execute_plan(plan, query, gen, ess.cost_model,
                               engine="vector")
        assert_identical(reference, outcome)

    def test_vectorized_outcome_counts_every_operator(self, setup):
        query, gen, ess = setup
        plan = ess.plans[0]
        outcome = execute_plan(plan, query, gen, ess.cost_model,
                               engine="vector")
        keys = set()

        def walk(node):
            keys.add(node.key)
            if isinstance(node, planlib.JoinNode):
                walk(node.outer)
                if node.op != planlib.INDEX_NL_JOIN:
                    walk(node.inner)

        walk(plan)
        assert keys == set(outcome.stats)


# ----------------------------------------------------------------------
# The pull-down, exhaustively: every kill point of every operator shape
# ----------------------------------------------------------------------

def tiny_query():
    """Four tables of at most 60 rows; ``f`` references the other three
    and shares a second, low-cardinality column with ``a`` so a join can
    carry a composite key."""
    schema = Schema("tiny", tables=[
        Table("a", 12, [key_column("a_id", 12), fk_column("a_x", 3)]),
        Table("f", 40, [fk_column("f_a_id", 12, indexed=True),
                        fk_column("f_b_id", 10, indexed=True),
                        fk_column("f_c_id", 8, indexed=True),
                        fk_column("f_x", 3)]),
        Table("b", 10, [key_column("b_id", 10), fk_column("b_y", 2)]),
        Table("c", 8, [key_column("c_id", 8)]),
    ], foreign_keys=[
        ForeignKey("f", "f_a_id", "a", "a_id"),
        ForeignKey("f", "f_b_id", "b", "b_id"),
        ForeignKey("f", "f_c_id", "c", "c_id"),
    ])
    return SPJQuery("tiny3d", schema, ["a", "f", "b", "c"], joins=[
        join("a", "a_id", "f", "f_a_id", selectivity=1 / 12,
             error_prone=True),
        join("b", "b_id", "f", "f_b_id", selectivity=1 / 10,
             error_prone=True),
        join("c", "c_id", "f", "f_c_id", selectivity=1 / 8,
             error_prone=True),
    ], filters=[
        filter_pred("a", "a_x", "=", 1, selectivity=1 / 3),
        filter_pred("b", "b_y", "<=", 0, selectivity=1 / 2),
    ])


def tiny_plans(query):
    """``{shape: plan}`` over every operator the engine implements."""
    ja, jb, jc = query.epps
    second_key = join("a", "a_x", "f", "f_x", selectivity=1 / 3,
                      name="j:a-f.x")

    def scan(table, method=planlib.SEQ_SCAN):
        return planlib.ScanNode(table, method,
                                tuple(query.filters_on(table)))

    def fa(op, preds=(ja,)):
        return planlib.JoinNode(op, scan("f"), scan("a"), preds)

    mixed = planlib.JoinNode(
        planlib.MERGE_JOIN,
        planlib.JoinNode(planlib.NL_JOIN, scan("b"),
                         fa(planlib.HASH_JOIN), (jb,)),
        scan("c", planlib.INDEX_SCAN), (jc,))
    return {
        "hash": fa(planlib.HASH_JOIN),
        "merge": fa(planlib.MERGE_JOIN),
        "nl": fa(planlib.NL_JOIN),
        "index-nl": planlib.JoinNode(planlib.INDEX_NL_JOIN, scan("f"),
                                     scan("a"), (ja,)),
        # Probing a build side with duplicate keys (bucket order).
        "index scan on '='": planlib.JoinNode(
            planlib.HASH_JOIN, scan("a", planlib.INDEX_SCAN), scan("f"),
            (ja,)),
        # No '=' filter to drive the index: SeqScan re-entered, two
        # startup charges.
        "index scan fallback": planlib.JoinNode(
            planlib.HASH_JOIN, scan("f", planlib.INDEX_SCAN),
            scan("b", planlib.INDEX_SCAN), (jb,)),
        "hash, composite key": fa(planlib.HASH_JOIN, (ja, second_key)),
        "merge, composite key": fa(planlib.MERGE_JOIN, (ja, second_key)),
        "nl, composite key": fa(planlib.NL_JOIN, (ja, second_key)),
        "3-deep mixed": mixed,
        "3-deep, index-nl on top": planlib.JoinNode(
            planlib.INDEX_NL_JOIN,
            planlib.JoinNode(planlib.MERGE_JOIN, fa(planlib.NL_JOIN),
                             scan("b"), (jb,)),
            scan("c"), (jc,)),
    }


TINY_QUERY = tiny_query()
TINY_PLANS = tiny_plans(TINY_QUERY)


@pytest.fixture(scope="module")
def tiny_data():
    gen = DataGenerator(TINY_QUERY.schema, seed=5)
    for table in ("a", "b", "c"):
        gen.generate_table(table)
    gen.generate_table("f", fk_skew={"f_a_id": 0.9, "f_b_id": 0.4})
    return gen


def volcano_partial_sums(monkeypatch, plan, gen, spill_epp):
    """The interpreter's own running total after each ``charge()``."""
    totals = []

    class RecordingMeter(CostMeter):
        def charge(self, amount):
            super().charge(amount)
            totals.append(self.spent)

    with monkeypatch.context() as patch:
        patch.setattr(spill, "CostMeter", RecordingMeter)
        outcome = execute_plan(plan, TINY_QUERY, gen, MODEL,
                               engine="volcano", spill_epp=spill_epp)
    assert outcome.completed and totals[-1] == outcome.cost_spent
    return totals


class TestKillPointSweep:
    """Budget = every partial sum of the Volcano charge sequence and one
    ulp either side: the kill lands on, just before and just after every
    single micro-charge, and the whole outcome must match each time."""

    def sweep(self, monkeypatch, plan, gen, spill_epp=None):
        totals = volcano_partial_sums(monkeypatch, plan, gen, spill_epp)
        budgets = sorted({budget for total in totals for budget in (
            float(np.nextafter(total, -np.inf)), total,
            float(np.nextafter(total, np.inf)))})
        completed = 0
        for budget in budgets:
            v, w = both(plan, TINY_QUERY, gen, MODEL, budget=budget,
                        spill_epp=spill_epp)
            assert v == w, (plan.key, spill_epp, budget)
            assert_identical(v, w)
            completed += v.completed
        assert completed == 2  # the total itself and one ulp above it
        return len(totals)

    @pytest.mark.parametrize("shape", sorted(TINY_PLANS))
    def test_every_kill_point(self, tiny_data, monkeypatch, shape):
        charges = self.sweep(monkeypatch, TINY_PLANS[shape], tiny_data)
        assert charges > 40  # a startup, then per-row charges

    @pytest.mark.parametrize("epp", [p.name for p in TINY_QUERY.epps])
    def test_every_kill_point_of_a_spill(self, tiny_data, monkeypatch, epp):
        self.sweep(monkeypatch, TINY_PLANS["3-deep mixed"], tiny_data,
                   spill_epp=epp)

    def test_stream_is_the_interpreters_charge_sequence(self, tiny_data,
                                                        monkeypatch):
        for plan in TINY_PLANS.values():
            totals = volcano_partial_sums(monkeypatch, plan, tiny_data, None)
            prefix = charge_prefix_sums(plan, TINY_QUERY, tiny_data, MODEL)
            assert prefix.tolist() == totals, plan.key


@st.composite
def splices(draw):
    """A child stream, blocks for its leading yields, and a lead."""
    size = draw(st.integers(1, 30))
    yields = sorted(draw(st.sets(st.integers(1, size), max_size=size)))
    blocked = draw(st.integers(0, len(yields)))
    block_sizes = draw(st.lists(st.integers(0, 4), min_size=blocked,
                                max_size=blocked))
    return size, yields, block_sizes, draw(st.integers(0, 3))


class TestFrameMap:
    @given(splices())
    @settings(deadline=None, max_examples=200,
              suppress_health_check=[HealthCheck.too_slow])
    def test_pull_down_inverts_the_splice(self, case):
        size, yields, block_sizes, offset = case
        # Child charge j carries the value j + 1; blocks carry -1.
        child = vector._Stream(
            np.arange(1, size + 1, dtype=np.float64),
            np.array(yields, dtype=np.int64), vector._Frame([]), None)
        out, starts = vector._splice(
            [0.0] * offset, child, np.array(block_sizes, dtype=np.int64),
            -1.0)
        kept = size if len(block_sizes) == len(yields) \
            else yields[len(block_sizes)]

        expected = [0.0] * offset
        for done in range(1, kept + 1):
            expected.append(float(done))
            if done in yields[:len(block_sizes)]:
                expected += [-1.0] * block_sizes[yields.index(done)]
        assert out.tolist() == expected
        assert starts.tolist() == [
            expected.index(float(y)) + 1 for y in yields[:len(block_sizes)]]

        def forward(r):
            """Consumer charges completed once ``r`` of the child's are
            (with every block the child has reached by then)."""
            if r <= 0:
                return offset + r
            if r <= kept:
                return expected.index(float(r)) + 1
            return len(expected) + r - kept

        pull_down = child.frame.pull_down
        for r in range(kept + 3):
            assert pull_down(forward(r)) == r
        for k in range(-2, len(expected) + 3):
            r = pull_down(k)
            assert forward(r) <= k < forward(r + 1)
            if k < forward(1):  # before the child's first charge ends
                assert r < 1  # no event (every req >= 1) fires

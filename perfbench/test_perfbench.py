"""Tests of the benchmark's own arithmetic and oracles.

Run from the repository root:

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import os
import sys
import threading

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from repro.db.engine import Database  # noqa: E402
from repro.db.predicates import ColumnRef, CompareOp, Comparison, JoinPredicate  # noqa: E402
from repro.db.query import AggregateSpec, Query  # noqa: E402
from repro.db.schema import NULL_INT, Column, DatabaseSchema, TableSchema  # noqa: E402
from repro.db.table import Table  # noqa: E402


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def _span(i, parent, start, end, root=1):
    return spans.Span("s", i, parent, root, 0, start, end)


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 1, 3.0, 6.0),  # overlaps its sibling: counted once
        _span(4, 2, 2.0, 3.0),
        _span(5, 1, 9.0, 12.0),  # runs past its parent: clipped
    ]
    selfs = spans.self_times(tree)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)


def test_layer_totals_sum_self_time_and_attrs():
    a = spans.Span("outer", 1, None, 1, 0, 0.0, 0.010)
    b = spans.Span("inner", 2, 1, 1, 0, 0.002, 0.006, {"rows": 3})
    c = spans.Span("inner", 3, 1, 1, 0, 0.007, 0.008, {"rows": 2})
    totals = spans.layer_totals([a, b, c])
    assert totals["outer"]["calls"] == 1
    assert totals["outer"]["self_ms"] == pytest.approx(5.0)
    assert totals["inner"] == pytest.approx({"calls": 2, "self_ms": 5.0, "rows": 5})


class _Layer:
    def outer(self, n):
        return self.inner(n) + self.inner(n)

    def inner(self, n):
        return n


def test_recorder_links_parents_roots_and_threads():
    ticks = iter(range(100))
    recorder = spans.SpanRecorder(clock=lambda: float(next(ticks)))
    recorder.wrap(_Layer, "outer", "outer")
    recorder.wrap(_Layer, "inner", "inner",
                  lambda span, args, kwargs, result: span.attrs.update(n=args[1]))
    try:
        assert _Layer().outer(2) == 4
        worker = threading.Thread(target=_Layer().inner, args=(5,))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        recorder.paused = True
        _Layer().outer(1)
    finally:
        recorder.uninstall()
    assert not hasattr(_Layer.outer, "__wrapped__")
    by_name = {}
    for span in recorder.spans:
        by_name.setdefault(span.name, []).append(span)
    (outer,) = by_name["outer"]
    inners = by_name["inner"]
    assert len(inners) == 3  # the paused call left no spans
    nested = [s for s in inners if s.parent == outer.id]
    assert len(nested) == 2 and all(s.root == outer.id for s in nested)
    (alone,) = [s for s in inners if s.parent is None]
    assert alone.root == alone.id and alone.thread != outer.thread
    # Clock ticks: outer [0, 5], inners [1, 2] and [3, 4].
    assert spans.self_times(recorder.spans)[outer.id] == pytest.approx(3.0)


# ----------------------------------------------------------------------
# Percentile rule
# ----------------------------------------------------------------------
def test_tail_needs_ten_samples_beyond_it():
    thin = spans.tail([float(x) for x in range(999)], 99)
    assert thin["percentile"] == 50 and thin["value"] == thin["p50"] == 499.0
    enough = spans.tail([float(x) for x in range(1001)], 99)
    assert enough["percentile"] == 99 and enough["beyond"] == 10
    wide = spans.tail([float(x) for x in range(2000)], 99)
    assert wide["value"] == 1979.0 and wide["beyond"] == 20 and wide["n"] == 2000


def test_tail_counts_ties_at_the_percentile_as_not_beyond():
    samples = [1.0] * 1000 + [2.0] * 5
    assert spans.tail(samples, 99)["percentile"] == 50


def test_median():
    assert spans.median([3.0, 1.0, 2.0]) == 2.0
    assert spans.median([4.0, 1.0, 2.0, 3.0]) == 2.5


# ----------------------------------------------------------------------
# Row evaluator
# ----------------------------------------------------------------------
def _tiny_db():
    """movies(id, year), roles(movie_id, person_id), people(id, gender);
    NULLs: movie 4's year and one role's movie_id."""
    schemas = {
        "movies": TableSchema("movies", (Column("id"), Column("year", nullable=True)), "id"),
        "roles": TableSchema("roles", (Column("movie_id", nullable=True), Column("person_id"))),
        "people": TableSchema("people", (Column("id"), Column("gender")), "id"),
    }
    data = {
        "movies": {"id": [1, 2, 3, 4], "year": [2000, 2001, 2001, NULL_INT]},
        "roles": {"movie_id": [1, 1, 2, 3, NULL_INT], "person_id": [10, 11, 10, 12, 10]},
        "people": {"id": [10, 11, 12], "gender": [1, 2, 1]},
    }
    tables = {name: Table.from_dict(schemas[name], data[name]) for name in schemas}
    return Database(schema=DatabaseSchema(tables=schemas), tables=tables)


def _ref(alias, column):
    return ColumnRef(alias, column)


def _join(a, ac, b, bc):
    return JoinPredicate(_ref(a, ac), _ref(b, bc))


def _count(db, query):
    return len(next(iter(oracle.evaluate_rows(db, query).values())))


def test_row_evaluator_hand_counted_joins():
    db = _tiny_db()
    movie_roles = Query(
        name="mr", relations={"m": "movies", "r": "roles"},
        joins=[_join("m", "id", "r", "movie_id")],
    )
    assert _count(db, movie_roles) == 4  # the NULL movie_id matches nothing
    women = Query(
        name="mrp", relations={"m": "movies", "r": "roles", "p": "people"},
        joins=[_join("m", "id", "r", "movie_id"), _join("r", "person_id", "p", "id")],
        selections=[Comparison(_ref("p", "gender"), CompareOp.EQ, 1.0)],
    )
    assert _count(db, women) == 3
    recent = Query(
        name="recent", relations={"m": "movies", "r": "roles"},
        joins=[_join("m", "id", "r", "movie_id")],
        selections=[Comparison(_ref("m", "year"), CompareOp.GE, 2001.0)],
    )
    assert _count(db, recent) == 2
    not_recent = Query(
        name="old", relations={"m": "movies"},
        selections=[Comparison(_ref("m", "year"), CompareOp.LT, 2001.0)],
    )
    assert _count(db, not_recent) == 1  # the NULL year is not < 2001


def test_row_evaluator_self_join_and_two_predicates_between_a_pair():
    db = _tiny_db()
    same_person = Query(
        name="pp", relations={"a": "roles", "b": "roles"},
        joins=[_join("a", "person_id", "b", "person_id")],
    )
    assert _count(db, same_person) == 3 * 3 + 1 + 1
    same_role = Query(
        name="rr", relations={"a": "roles", "b": "roles"},
        joins=[_join("a", "person_id", "b", "person_id"),
               _join("a", "movie_id", "b", "movie_id")],
    )
    assert _count(db, same_role) == 4


def test_row_evaluator_aggregates_and_cap():
    db = _tiny_db()
    by_gender = Query(
        name="g", relations={"m": "movies", "r": "roles", "p": "people"},
        joins=[_join("m", "id", "r", "movie_id"), _join("r", "person_id", "p", "id")],
        group_by=[_ref("p", "gender")],
        aggregates=[AggregateSpec("count", None), AggregateSpec("min", _ref("m", "year"))],
    )
    rows = oracle.evaluate_rows(db, by_gender)
    assert oracle.expected_result(db, by_gender, rows) == {
        "rows": 2, "COUNT(*)": 4, "MIN(m.year)": 2000.0,
    }
    with pytest.raises(oracle.RowCapExceeded):
        oracle.evaluate_rows(db, by_gender, cap=3)


def test_row_evaluator_matches_executor_on_tiny_plan():
    from repro.db.plans import HashJoin, SeqScan

    db = _tiny_db()
    query = Query(
        name="mr", relations={"m": "movies", "r": "roles"},
        joins=[_join("m", "id", "r", "movie_id")],
        aggregates=[AggregateSpec("count", None)],
    )
    plan = HashJoin(SeqScan("m", "movies"), SeqScan("r", "roles"), tuple(query.joins))
    from repro.db.plans import HashAggregate

    execution = db.executor().execute(HashAggregate(plan, (), tuple(query.aggregates)), query)
    want = oracle.expected_result(db, query, oracle.evaluate_rows(db, query))
    assert oracle.executed_result(query, execution) == want == {"rows": 1, "COUNT(*)": 4}


def test_plan_defects_flag_missing_and_doubled_predicates():
    from repro.db.plans import HashJoin, SeqScan

    pred = Comparison(_ref("m", "year"), CompareOp.GE, 2001.0)
    join = _join("m", "id", "r", "movie_id")
    query = Query(name="q", relations={"m": "movies", "r": "roles"},
                  joins=[join], selections=[pred])
    good = HashJoin(SeqScan("m", "movies", (pred,)), SeqScan("r", "roles"), (join,))
    assert oracle.plan_defects(good, query) == []
    flipped = HashJoin(SeqScan("r", "roles"), SeqScan("m", "movies", (pred,)),
                       (_join("r", "movie_id", "m", "id"),))
    assert oracle.plan_defects(flipped, query) == []
    lost = HashJoin(SeqScan("m", "movies"), SeqScan("r", "roles"), (join,))
    assert any("selection" in d for d in oracle.plan_defects(lost, query))
    doubled = HashJoin(SeqScan("m", "movies", (pred, pred)), SeqScan("r", "roles"), (join,))
    assert any("selection" in d for d in oracle.plan_defects(doubled, query))
    narrow = Query(name="n", relations={"m": "movies"}, selections=[pred])
    assert any("covers" in d for d in oracle.plan_defects(good, narrow))


def test_left_deep_dp_matches_exhaustive_enumeration():
    from itertools import permutations

    from repro.db.plans import JoinTree
    from repro.workloads import job_lite_workload, make_imdb_database

    db = make_imdb_database(scale=0.01, seed=3, sample_size=2_000)
    queries = [q for q in job_lite_workload(variants=("a",)) if q.n_relations <= 6][:4]
    assert queries
    for query in queries:
        cards = db.estimator().for_query(query)
        tree, proxy = oracle.left_deep_dp(query, cards, db.cost_params)
        best = np.inf
        for order in permutations(sorted(query.relations)):
            candidate = JoinTree.left_deep(list(order))
            prefix_linked = all(
                query.joins_between(node.left.aliases, node.right.aliases)
                for node in candidate.iter_joins()
            )
            if prefix_linked:
                best = min(best, oracle.proxy_tree_cost(candidate, query, cards, db.cost_params))
        assert proxy == pytest.approx(best, rel=1e-12)
        assert oracle.proxy_tree_cost(tree, query, cards, db.cost_params) == pytest.approx(proxy)


def test_block_rate_is_robust_to_one_stall():
    steady = [(0.01 * (i + 1), 1) for i in range(1000)]  # 100 ops/s
    assert spans.block_rate(steady, blocks=10) == pytest.approx(100.0)
    stalled = [(t + (5.0 if t > 0.5 else 0.0), n) for t, n in steady]
    assert spans.block_rate(stalled, blocks=10) == pytest.approx(100.0)
    batched = [(0.08 * (i + 1), 8) for i in range(100)]
    assert spans.block_rate(batched, blocks=5) == pytest.approx(100.0)


# ----------------------------------------------------------------------
# The metric list and the inputs
# ----------------------------------------------------------------------
def test_per_layer_metrics_match_benchmark_json():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        listed = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    assert layers.METRICS == listed


def test_ranked_names_keep_or_reverse_the_sorted_alias_order():
    query = Query(name="q", relations={"t": "title", "ci": "cast_info", "mi": "movie_info"})
    kept = workloads.ranked_names(query, "r")
    assert kept == {"ci": "r00", "mi": "r01", "t": "r02"}
    flipped = workloads.ranked_names(query, "p", reverse=True)
    assert sorted(flipped, key=flipped.get) == sorted(query.relations, reverse=True)

"""Oracles the benchmark checks the optimizer's outputs against.

Everything here is written apart from the code it checks:

- :func:`left_deep_dp` is an exact left-deep dynamic program over the
  join graph. It scores join orders with the planner's documented
  operator-aware proxy (:func:`proxy_join_cost`, re-derived here) on
  the database's own cardinality estimates, so its optimum is the plan
  the expert lane promises, found without the planner's search code.
- :func:`evaluate_rows` computes a query's result by hash joins over
  row-id sets in join-graph order, without the executor or the plan.
- :func:`plan_defects` walks a physical plan and lists every way it
  fails to cover its query: wrong alias set, a join or selection
  predicate missing or applied twice.

The cost of a join tree is the program's own definition of cost (the
physical completion and :class:`~repro.db.costmodel.CostModel`), taken
from a planner with no memo so nothing cached during serving leaks in.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.db.plans import IndexScan, JoinTree, SeqScan, _Aggregate, _Join
from repro.db.predicates import BetweenPredicate, Comparison, CompareOp, InPredicate
from repro.db.schema import NULL_INT
from repro.optimizer.join_search import selinger_dp
from repro.optimizer.planner import Planner

#: Intermediate-row cap of the row evaluator; the executor censors
#: plans at the same size (``Database.executor`` default).
ROW_CAP = 2_000_000


# ----------------------------------------------------------------------
# Exact left-deep join order
# ----------------------------------------------------------------------
def proxy_join_cost(left_rows, right_rows, out_rows, connected, params):
    """Cheapest of nested-loop, hash and merge join on estimated rows,
    plus the output tuple tax: the join-order objective the planner's
    expert lane documents. Merge-sort inputs are clamped to two rows."""
    cpu_op = params.cpu_operator_cost
    nested = left_rows * right_rows * cpu_op
    if connected:
        small, big = min(left_rows, right_rows), max(left_rows, right_rows)
        hashed = small * params.hash_build_cost + big * params.hash_probe_cost
        n1 = left_rows if left_rows > 2.0 else 2.0
        n2 = right_rows if right_rows > 2.0 else 2.0
        sort = 2.0 * n1 * math.log2(n1) * cpu_op + 2.0 * n2 * math.log2(n2) * cpu_op
        merge = sort + (left_rows + right_rows) * cpu_op
        best = min(nested, hashed, merge)
    else:
        best = nested
    return best + out_rows * params.cpu_tuple_cost


def left_deep_dp(query, cards, params) -> Tuple[JoinTree, float]:
    """Optimal left-deep join tree of a connected query, and its proxy cost.

    Subsets grow one adjacent relation at a time, so only connected
    subsets (no cross products) are ever built. Ties go to the lowest
    relation, in sorted alias order, as the right (inner) input.
    """
    aliases = sorted(query.relations)
    n = len(aliases)
    bit = {a: 1 << i for i, a in enumerate(aliases)}
    adjacency = [0] * n
    for pred in query.joins:
        i, j = bit[pred.left.alias], bit[pred.right.alias]
        adjacency[i.bit_length() - 1] |= j
        adjacency[j.bit_length() - 1] |= i

    rows_memo: Dict[int, float] = {}

    def rows(mask: int) -> float:
        value = rows_memo.get(mask)
        if value is None:
            value = cards.rows_for_aliases(
                frozenset(a for a in aliases if bit[a] & mask)
            )
            rows_memo[mask] = value
        return value

    scan = [cards.base_rows(a) * params.cpu_tuple_cost for a in aliases]
    best: Dict[int, Tuple[float, int]] = {1 << i: (scan[i], -1) for i in range(n)}
    level = list(best)
    for _ in range(n - 1):
        grown = set()
        for mask in level:
            reach = 0
            for i in range(n):
                if mask >> i & 1:
                    reach |= adjacency[i]
            reach &= ~mask
            while reach:
                low = reach & -reach
                grown.add(mask | low)
                reach ^= low
        for mask in grown:
            best_cost, best_right = math.inf, -1
            for i in range(n):
                if not mask >> i & 1:
                    continue
                rest = mask ^ (1 << i)
                if rest not in best or not adjacency[i] & rest:
                    continue
                cost = best[rest][0] + scan[i] + proxy_join_cost(
                    rows(rest), rows(1 << i), rows(mask), True, params
                )
                if cost < best_cost:
                    best_cost, best_right = cost, i
            best[mask] = (best_cost, best_right)
        level = list(grown)

    full = (1 << n) - 1
    if full not in best:
        raise ValueError(f"query {query.name!r} has a disconnected join graph")
    order: List[str] = []
    mask = full
    while True:
        right = best[mask][1]
        if right < 0:
            order.append(aliases[mask.bit_length() - 1])
            break
        order.append(aliases[right])
        mask ^= 1 << right
    order.reverse()
    return JoinTree.left_deep(order), best[full][0]


def seed_dp_disagrees(query, cards, params) -> str | None:
    """Cross-check :func:`left_deep_dp` against the seed enumerator run
    left-deep (``selinger_dp`` defaults to bushy, which is not the
    planner's expert). Returns a description of a disagreement."""
    seed_tree = selinger_dp(query, cards, params, bushy=False)
    seed_proxy = proxy_tree_cost(seed_tree, query, cards, params)
    _tree, proxy = left_deep_dp(query, cards, params)
    if math.isclose(seed_proxy, proxy, rel_tol=1e-9):
        return None
    return f"{query.name}: seed left-deep DP proxy {seed_proxy!r}, oracle {proxy!r}"


def proxy_tree_cost(tree: JoinTree, query, cards, params) -> float:
    """Proxy objective of any left-deep tree (what GEQO minimises)."""
    if tree.is_leaf:
        return cards.base_rows(tree.alias) * params.cpu_tuple_cost
    left, right = tree.left, tree.right
    linked = any(
        (p.left.alias in left.aliases and p.right.alias in right.aliases)
        or (p.right.alias in left.aliases and p.left.alias in right.aliases)
        for p in query.joins
    )
    return (
        proxy_tree_cost(left, query, cards, params)
        + proxy_tree_cost(right, query, cards, params)
        + proxy_join_cost(
            cards.rows_for_aliases(left.aliases),
            cards.rows_for_aliases(right.aliases),
            cards.rows_for_aliases(tree.aliases),
            linked,
            params,
        )
    )


@dataclass(frozen=True)
class Optimum:
    """The exact left-deep optimum: join order, its proxy cost, and the
    physical plan the program completes it to, with that plan's cost."""

    tree: JoinTree
    proxy: float
    plan: object
    cost: float


class CostOracle:
    """Exact left-deep optimum of a query under the live statistics.

    ``solve(query, slot, stamp)`` keeps one optimum per ``slot`` and
    recomputes it when ``stamp`` changes; the caller makes the stamp
    change whenever statistics the query reads change.
    """

    def __init__(self, db) -> None:
        self.db = db
        self._memo: Dict[object, Tuple[object, Optimum]] = {}
        self.computed = 0

    def fresh_cards(self, query):
        return self.db.estimator().for_query(query)

    def complete(self, tree: JoinTree, query):
        """The program's plan and cost for a join tree, from a planner
        with no memo and freshly estimated cardinalities."""
        planner = Planner(self.db, cost_memo=None)
        result = planner.evaluate_tree(tree, query, self.fresh_cards(query))
        return result.plan, result.cost.total

    def solve(self, query, slot=None, stamp=None) -> Optimum:
        if slot is not None:
            held = self._memo.get(slot)
            if held is not None and held[0] == stamp:
                return held[1]
        tree, proxy = left_deep_dp(query, self.fresh_cards(query), self.db.cost_params)
        result = Optimum(tree, proxy, *self.complete(tree, query))
        self.computed += 1
        if slot is not None:
            self._memo[slot] = (stamp, result)
        return result


# ----------------------------------------------------------------------
# Plan coverage
# ----------------------------------------------------------------------
def _join_key(pred) -> tuple:
    """A join predicate up to the order of its two sides."""
    return tuple(sorted((pred.left, pred.right)))


def plan_defects(plan, query) -> List[str]:
    """Ways ``plan`` fails to answer ``query``; empty when it is sound.

    Join predicates are compared up to side order (``a.x = b.y`` is
    ``b.y = a.x``)."""
    defects = []
    if plan.aliases != frozenset(query.relations):
        defects.append(
            f"covers {sorted(plan.aliases)}, query has {sorted(query.relations)}"
        )
    joins: Counter = Counter()
    selections: Counter = Counter()
    scans: Counter = Counter()
    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, _Aggregate):
            stack.append(node.child)
        elif isinstance(node, _Join):
            joins.update(_join_key(p) for p in node.predicates)
            stack.extend((node.left, node.right))
        elif isinstance(node, SeqScan):
            scans[node.alias] += 1
            selections.update(node.predicates)
        elif isinstance(node, IndexScan):
            scans[node.alias] += 1
            selections[node.index_predicate] += 1
            selections.update(node.residual)
        else:
            defects.append(f"unknown plan node {type(node).__name__}")
    if any(count != 1 for count in scans.values()):
        defects.append(f"relations scanned more than once: {dict(scans)}")
    for label, applied, wanted in (
        ("join", joins, Counter(_join_key(p) for p in query.joins)),
        ("selection", selections, Counter(query.selections)),
    ):
        if applied != wanted:
            missing = wanted - applied
            extra = applied - wanted
            defects.append(
                f"{label} predicates missing {_render(missing)}, extra {_render(extra)}"
            )
    return defects


def _render(preds) -> List[str]:
    return [
        f"{p[0].render()} = {p[1].render()}" if isinstance(p, tuple) else p.render()
        for p in preds.elements()
    ]


# ----------------------------------------------------------------------
# Row evaluator
# ----------------------------------------------------------------------
def _not_null(values: np.ndarray) -> np.ndarray:
    if values.dtype.kind == "f":
        return ~np.isnan(values)
    return values != NULL_INT


_COMPARE = {
    CompareOp.EQ: np.equal,
    CompareOp.NE: np.not_equal,
    CompareOp.LT: np.less,
    CompareOp.LE: np.less_equal,
    CompareOp.GT: np.greater,
    CompareOp.GE: np.greater_equal,
}


def _selected(pred, values: np.ndarray) -> np.ndarray:
    if isinstance(pred, Comparison):
        hit = _COMPARE[pred.op](values, pred.value)
    elif isinstance(pred, BetweenPredicate):
        hit = (values >= pred.lo) & (values <= pred.hi)
    elif isinstance(pred, InPredicate):
        hit = np.zeros(len(values), dtype=bool)
        for v in pred.values:
            hit |= values == v
    else:
        raise TypeError(f"unsupported selection {type(pred).__name__}")
    return hit & _not_null(values)


class RowCapExceeded(Exception):
    """An intermediate result outgrew :data:`ROW_CAP`."""


def evaluate_rows(db, query, cap: int = ROW_CAP) -> Dict[str, np.ndarray]:
    """Row ids of every result row, aligned per alias.

    Each relation is filtered by its selections, then relations join in
    breadth-first join-graph order from the smallest filtered relation:
    the new relation is hashed on one join column, the partial result
    probes it, and the remaining predicates linking the two filter the
    output. NULLs never match.
    """
    def column(alias, name):
        return db.tables[query.relations[alias]].column(name)

    filtered = {}
    for alias, table in query.relations.items():
        keep = np.ones(db.tables[table].n_rows, dtype=bool)
        for pred in query.selections:
            if pred.column.alias == alias:
                keep &= _selected(pred, column(alias, pred.column.column))
        filtered[alias] = np.flatnonzero(keep)

    start = min(sorted(filtered), key=lambda a: len(filtered[a]))
    result = {start: filtered[start]}
    frontier = [start]
    while frontier:
        nxt = []
        for alias in frontier:
            for pred in query.joins:
                ends = (pred.left.alias, pred.right.alias)
                if alias not in ends:
                    continue
                other = ends[1] if ends[0] == alias else ends[0]
                if other in result:
                    continue
                result = _hash_join(result, other, filtered[other], query, column, cap)
                nxt.append(other)
        frontier = nxt
    if len(result) != len(query.relations):
        raise ValueError(f"query {query.name!r} has a disconnected join graph")
    return result


def _hash_join(result, alias, ids, query, column, cap):
    linking = [
        p for p in query.joins
        if (p.left.alias == alias and p.right.alias in result)
        or (p.right.alias == alias and p.left.alias in result)
    ]
    first = linking[0]
    inner, outer = (first.left, first.right) if first.left.alias == alias else (first.right, first.left)
    build_keys = column(alias, inner.column)[ids]
    table: Dict[object, List[int]] = {}
    for row, key in zip(ids.tolist(), build_keys.tolist()):
        table.setdefault(key, []).append(row)
    probe = column(outer.alias, outer.column)[result[outer.alias]]
    valid = _not_null(probe)
    distinct, inverse = np.unique(probe, return_inverse=True)
    matches = [
        table.get(key, []) if ok else []
        for key, ok in zip(distinct.tolist(), _not_null(distinct).tolist())
    ]
    counts = np.array([len(m) for m in matches], dtype=np.int64)[inverse]
    counts[~valid] = 0
    total = int(counts.sum())
    if total > cap:
        raise RowCapExceeded(f"{total} rows after joining {alias}")
    outer_pos = np.repeat(np.arange(len(probe)), counts)
    offsets = np.cumsum(np.concatenate(([0], [len(m) for m in matches])))
    flat = np.array([r for m in matches for r in m], dtype=np.int64)
    within = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    new_rows = flat[offsets[inverse[outer_pos]] + within] if total else flat[:0]
    joined = {a: rows[outer_pos] for a, rows in result.items()}
    joined[alias] = new_rows
    for pred in linking[1:]:
        left = column(pred.left.alias, pred.left.column)[joined[pred.left.alias]]
        right = column(pred.right.alias, pred.right.column)[joined[pred.right.alias]]
        keep = (left == right) & _not_null(left) & _not_null(right)
        joined = {a: rows[keep] for a, rows in joined.items()}
    return joined


def expected_result(db, query, rows: Dict[str, np.ndarray]) -> Dict[str, float]:
    """What an execution of ``query`` must report, from evaluated rows:
    the row count, and for aggregates the group count plus each
    COUNT/MIN/MAX summed or reduced over all groups."""
    n = len(next(iter(rows.values())))
    if not query.aggregates:
        return {"rows": n}
    if query.group_by and not n:
        return {"rows": 0}
    out: Dict[str, float] = {}
    if query.group_by:
        keys = np.stack(
            [db.tables[query.relations[r.alias]].column(r.column)[rows[r.alias]]
             for r in query.group_by],
            axis=1,
        )
        out["rows"] = len(np.unique(keys, axis=0)) if n else 0
    else:
        out["rows"] = 1
    for agg in query.aggregates:
        if agg.column is None:
            values = None
        else:
            col = db.tables[query.relations[agg.column.alias]].column(agg.column.column)
            values = col[rows[agg.column.alias]]
            values = values[_not_null(values)]
        if agg.func == "count":
            out[agg.render()] = n if values is None else len(values)
        elif agg.func in ("min", "max") and values is not None and len(values):
            out[agg.render()] = float(values.min() if agg.func == "min" else values.max())
    return out


def executed_result(query, execution) -> Dict[str, float]:
    """The same summary, read off an executor result."""
    if not query.aggregates:
        return {"rows": execution.rows}
    out: Dict[str, float] = {"rows": execution.rows}
    for agg in query.aggregates:
        if agg.render() not in execution.aggregates:  # grouped, no rows
            continue
        values = np.asarray(execution.aggregates[agg.render()], dtype=float)
        if agg.func == "count":
            out[agg.render()] = int(values.sum())
        elif agg.func in ("min", "max"):
            finite = values[~np.isnan(values)]
            if len(finite):
                out[agg.render()] = float(finite.min() if agg.func == "min" else finite.max())
    return out

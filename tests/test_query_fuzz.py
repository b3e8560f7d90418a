"""Grammar-driven query fuzzing: random SELECTs, engine vs reference.

Hypothesis composes structurally valid queries (filters, joins, grouping,
ordering, limits) over the small two-source federation; the optimized
distributed engine must agree with the reference interpreter on every one.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import PlannerOptions

from .conftest import assert_same_rows, make_small_gis
from .reference import reference_query

GIS = make_small_gis()

# Column vocabulary per table: (name, kind) where kind picks literals.
CUSTOMER_COLUMNS = [
    ("c.id", "int"), ("c.balance", "float"), ("c.name", "text"),
    ("c.region", "text"),
]
ORDER_COLUMNS = [
    ("o.oid", "int"), ("o.cust_id", "int"), ("o.total", "float"),
    ("o.status", "text"),
]

_TEXTS = ["'EU'", "'US'", "'OPEN'", "'SHIPPED'", "'zzz'", "''"]


@st.composite
def literal_for(draw, kind):
    if kind == "int":
        return str(draw(st.integers(-2, 120)))
    if kind == "float":
        return repr(float(draw(st.integers(-50, 1100))))
    return draw(st.sampled_from(_TEXTS))


@st.composite
def comparison(draw, columns):
    column, kind = draw(st.sampled_from(columns))
    operator = draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]))
    value = draw(literal_for(kind))
    return f"{column} {operator} {value}"


@st.composite
def predicate(draw, columns, depth=2):
    if depth == 0 or draw(st.booleans()):
        base = draw(comparison(columns))
        if draw(st.integers(0, 9)) == 0:
            return f"NOT ({base})"
        return base
    connective = draw(st.sampled_from(["AND", "OR"]))
    left = draw(predicate(columns, depth=depth - 1))
    right = draw(predicate(columns, depth=depth - 1))
    return f"({left} {connective} {right})"


@st.composite
def select_query(draw):
    join = draw(st.booleans())
    if join:
        from_clause = "customers c JOIN orders o ON c.id = o.cust_id"
        columns = CUSTOMER_COLUMNS + ORDER_COLUMNS
        group_candidates = ["c.region", "o.status", "c.name"]
        agg_args = ["o.total", "c.balance"]
    else:
        from_clause = "customers c"
        columns = CUSTOMER_COLUMNS
        group_candidates = ["c.region"]
        agg_args = ["c.balance"]

    where = ""
    if draw(st.booleans()):
        where = f" WHERE {draw(predicate(columns))}"

    grouped = draw(st.booleans())
    if grouped:
        group_column = draw(st.sampled_from(group_candidates))
        function = draw(st.sampled_from(["COUNT(*)", None]))
        if function is None:
            agg = draw(st.sampled_from(["SUM", "AVG", "MIN", "MAX"]))
            function = f"{agg}({draw(st.sampled_from(agg_args))})"
        select_list = f"{group_column} AS g, {function} AS m"
        tail = f" GROUP BY {group_column}"
        if draw(st.booleans()):
            tail += f" HAVING COUNT(*) >= {draw(st.integers(0, 3))}"
        order = " ORDER BY g" if draw(st.booleans()) else ""
    else:
        picked = draw(
            st.lists(st.sampled_from(columns), min_size=1, max_size=3,
                     unique_by=lambda c: c[0])
        )
        select_list = ", ".join(column for column, _ in picked)
        tail = ""
        order = ""
        order_is_total = False
        if draw(st.booleans()):
            order_column, _ = draw(st.sampled_from(picked))
            direction = draw(st.sampled_from(["", " DESC"]))
            order = f" ORDER BY {order_column}{direction}"
            # LIMIT over ties is nondeterministic; only cut on keys that
            # are unique in THIS from-clause (c.id repeats across a join).
            unique_keys = ("o.oid",) if join else ("c.id",)
            order_is_total = order_column in unique_keys
        limit = ""
        if order_is_total and draw(st.booleans()):
            limit = f" LIMIT {draw(st.integers(0, 8))}"
        return (
            f"SELECT {select_list} FROM {from_clause}{where}{tail}{order}{limit}"
        )
    return f"SELECT {select_list} FROM {from_clause}{where}{tail}{order}"


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(select_query())
def test_fuzzed_queries_match_reference(sql):
    engine = GIS.query(sql)
    _, reference = reference_query(GIS, sql)
    assert_same_rows(engine.rows, reference)


# -- batch-at-a-time vs row-at-a-time equivalence ---------------------------
#
# batch_size is purely an executor knob: for every fuzzed query the rows
# must be bit-identical (including order) and the simulated network
# accounting must not move by a single byte or message.

_INT_METRICS = ("rows_shipped", "messages", "fragments_executed",
                "semijoin_batches", "fragment_retries")
_FLOAT_METRICS = ("bytes_shipped", "network_ms")


def _assert_identical_network(batch_net, row_net, exact_floats=True):
    for name in _INT_METRICS:
        assert getattr(batch_net, name) == getattr(row_net, name), name
    for name in _FLOAT_METRICS:
        if exact_floats:
            assert getattr(batch_net, name) == getattr(row_net, name), name
        else:
            assert getattr(batch_net, name) == pytest.approx(
                getattr(row_net, name)
            ), name


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(select_query(), st.sampled_from([1, 3, 1024]))
def test_fuzzed_batch_modes_bit_identical(sql, batch_size):
    default = GIS.query(sql)
    variant = GIS.query(sql, PlannerOptions(batch_size=batch_size))
    assert variant.rows == default.rows
    _assert_identical_network(
        variant.metrics.network, default.metrics.network
    )


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(select_query())
def test_fuzzed_batch_modes_identical_under_parallel_scheduler(sql):
    # Float metrics accumulate in worker-completion order under the
    # parallel scheduler, so compare them with a tolerance; integer
    # accounting must still be exact.
    batch = GIS.query(sql, PlannerOptions(max_parallel_fragments=4))
    row = GIS.query(
        sql, PlannerOptions(max_parallel_fragments=4, batch_size=1)
    )
    assert batch.rows == row.rows
    _assert_identical_network(
        batch.metrics.network, row.metrics.network, exact_floats=False
    )


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(select_query())
def test_fuzzed_explain_analyze_row_counts_match_across_modes(sql):
    import re

    def mask_below_limit(plan: str) -> str:
        # Operators beneath a Limit see batch-granular pulls: at large
        # batch sizes a blocking child emits a full page before Limit
        # truncates, at batch_size=1 the pull stops at exactly the limit.
        # Those per-operator counts legitimately differ, so mask them.
        masked = []
        limit_indents: list = []
        for line in plan.split("\n"):
            indent = len(line) - len(line.lstrip())
            while limit_indents and indent <= limit_indents[-1]:
                limit_indents.pop()
            if limit_indents:
                line = re.sub(r"\[\d+ rows\]", "[rows]", line)
            if line.lstrip().startswith("Limit"):
                limit_indents.append(indent)
            masked.append(line)
        return "\n".join(masked)

    batch_text = GIS.explain_analyze(sql)
    row_text = GIS.explain_analyze(sql, PlannerOptions(batch_size=1))
    strip = lambda text: mask_below_limit(
        re.sub(r" / [\d.]+ ms", "", re.sub(r" / \d+ batches", "", text))
    )
    batch_plan = strip(batch_text).split("== physical plan")[1].split("\n\n")[0]
    row_plan = strip(row_text).split("== physical plan")[1].split("\n\n")[0]
    assert batch_plan == row_plan

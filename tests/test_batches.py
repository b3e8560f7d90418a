"""Batch-at-a-time execution: helpers, kernels, and cross-mode invariance.

The batch executor is a pure dataflow change — every test here pins some
facet of that: chunking helpers keep the page/batch contracts, batch
kernels agree with their row compilations (including NULL-heavy inputs),
and whole queries produce bit-identical rows and network accounting at
every batch size, with the last partial batch and empty results handled.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Catalog, PlannerOptions, SimulatedNetwork
from repro.core.expressions import (
    build_layout,
    compile_batch_expression,
    compile_batch_predicate,
)
from repro.core.logical import RelColumn
from repro.core.physical import (
    ExecutionContext,
    StaticRowsExec,
    _row_bytes,
    make_batch_sizer,
    profile_operators,
    split_batches,
)
from repro.core.pages import Page, paginate_rows, repage
from repro.datatypes import DataType
from repro.errors import PlanError
from repro.sql import ast

from .conftest import drain, make_small_gis
from .reference import compile_expression, compile_predicate

GIS = make_small_gis()

INT = DataType.INTEGER
TEXT = DataType.TEXT


def ctx(batch_size=1024):
    return ExecutionContext(Catalog(), SimulatedNetwork(),
                            PlannerOptions(batch_size=batch_size))


def columns(*specs):
    return [RelColumn(name, dtype) for name, dtype in specs]


# ---------------------------------------------------------------------------
# chunking helpers
# ---------------------------------------------------------------------------


def rows_of(*values):
    return [(value,) for value in values]


class TestChunkingHelpers:
    def test_split_batches_never_coalesces(self):
        # Two incoming pages of 3 rows with batch size 4: a coalescing
        # implementation would emit [4, 2]; splitting keeps [3, 3].
        pages = [
            Page.from_rows(rows_of(1, 2, 3)),
            Page.from_rows(rows_of(4, 5, 6)),
        ]
        assert list(split_batches(pages, 4)) == \
            [rows_of(1, 2, 3), rows_of(4, 5, 6)]

    def test_split_batches_splits_oversized_pages(self):
        pages = [Page.from_rows(rows_of(1, 2, 3, 4, 5))]
        assert list(split_batches(pages, 2)) == \
            [rows_of(1, 2), rows_of(3, 4), rows_of(5)]

    def test_split_batches_drops_empty_pages(self):
        pages = [Page.empty(1), Page.from_rows(rows_of(1)), Page.empty(1)]
        assert list(split_batches(pages, 4)) == [rows_of(1)]

    def test_paginate_rows_contract_full_then_final_partial(self):
        pages = list(paginate_rows(iter(rows_of(*range(8))), 4, width=1))
        assert pages == [rows_of(0, 1, 2, 3), rows_of(4, 5, 6, 7), []]
        assert pages[-1].width == 1  # empty final page keeps its shape

    def test_paginate_rows_empty_result_still_one_page(self):
        # The empty final page models the "result complete" round trip.
        pages = list(paginate_rows(iter(()), 4, width=2))
        assert pages == [[]]
        assert pages[0].width == 2

    def test_repage_cuts_a_page_stream_like_paginate_rows(self):
        pages = [
            Page.from_rows(rows_of(*range(start, stop)))
            for start, stop in ((0, 3), (3, 4), (4, 13), (13, 13), (13, 16))
        ]
        expected = list(paginate_rows(iter(rows_of(*range(16))), 4, width=1))
        repaged = list(repage(pages, 4, width=1))
        assert repaged == expected
        assert [page.num_rows for page in repaged] == [4, 4, 4, 4, 0]
        assert repaged[-1].width == 1

    def test_repage_passes_full_pages_through(self):
        full = Page.from_rows(rows_of(1, 2))
        (first, last) = repage([full], 2, width=1)
        assert first is full
        assert last == [] and last.width == 1

    def test_repage_empty_stream_still_one_page(self):
        pages = list(repage([], 4, width=3))
        assert pages == [[]]
        assert pages[0].width == 3


# ---------------------------------------------------------------------------
# batch kernels vs row compilations
# ---------------------------------------------------------------------------

NULL_HEAVY_ROWS = [
    (1, "a"), (None, None), (3, "ccc"), (None, "d"), (5, None), (None, ""),
]
NULL_HEAVY_PAGE = Page.from_rows(NULL_HEAVY_ROWS)


class TestBatchKernels:
    def setup_method(self):
        self.cols = columns(("a", INT), ("b", TEXT))
        self.layout = build_layout(self.cols)

    def test_batch_expression_matches_row_compilation(self):
        expr = ast.BinaryOp("+", self.cols[0].ref(), ast.Literal(10, INT))
        row_fn = compile_expression(expr, self.layout)
        batch_fn = compile_batch_expression(expr, self.layout)
        assert batch_fn(NULL_HEAVY_PAGE) == \
            [row_fn(row) for row in NULL_HEAVY_ROWS]

    def test_batch_column_kernel(self):
        expr = self.cols[1].ref()
        batch_fn = compile_batch_expression(expr, self.layout)
        assert batch_fn(NULL_HEAVY_PAGE) == \
            [row[1] for row in NULL_HEAVY_ROWS]

    def test_batch_literal_kernel(self):
        batch_fn = compile_batch_expression(
            ast.Literal(7, INT), self.layout
        )
        assert batch_fn(NULL_HEAVY_PAGE) == [7] * len(NULL_HEAVY_ROWS)
        assert batch_fn(Page.empty(2)) == []

    def test_batch_predicate_matches_row_predicate(self):
        predicate = ast.BinaryOp(">", self.cols[0].ref(),
                                 ast.Literal(2, INT))
        row_fn = compile_predicate(predicate, self.layout)
        batch_fn = compile_batch_predicate(predicate, self.layout)
        # WHERE semantics: NULL comparisons drop the row in both paths.
        assert batch_fn(NULL_HEAVY_PAGE) == \
            [row for row in NULL_HEAVY_ROWS if row_fn(row) is True]
        assert batch_fn(NULL_HEAVY_PAGE) == [(3, "ccc"), (5, None)]


# ---------------------------------------------------------------------------
# memoized wire sizing
# ---------------------------------------------------------------------------


NUMERIC_CELLS = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([0, 1, 0.0, 1.0]),
    st.integers(-(2**63), 2**63 - 1),
    st.floats(allow_nan=False),
)


class TestBatchSizer:
    def test_matches_row_bytes_on_null_heavy_rows(self):
        import datetime

        cols = columns(
            ("i", INT), ("t", TEXT), ("f", DataType.FLOAT),
            ("b", DataType.BOOLEAN), ("d", DataType.DATE),
        )
        rows = [
            (1, "abc", 1.5, True, datetime.date(1989, 1, 1)),
            (None, None, None, None, None),
            (7, "", 0.0, False, datetime.date(1989, 6, 1)),
        ]
        sizer = make_batch_sizer(cols)
        assert sizer(Page.from_rows(rows)) == sum(_row_bytes(row) for row in rows)
        assert sizer(Page.empty(len(cols))) == 0.0

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(NUMERIC_CELLS, NUMERIC_CELLS), min_size=1, max_size=40
        )
    )
    def test_numeric_columns_match_row_bytes(self, rows):
        # 1 == True and 0 == False: the sizer must count bools by type.
        sizer = make_batch_sizer(columns(("i", INT), ("f", DataType.FLOAT)))
        assert sizer(Page.from_rows(rows)) == sum(_row_bytes(row) for row in rows)


# ---------------------------------------------------------------------------
# the page protocol: chunking, flattening, profiling
# ---------------------------------------------------------------------------


class TestPageProtocol:
    def test_batches_chunk_to_batch_size(self):
        rows = [(i,) for i in range(10)]
        op = StaticRowsExec(rows, columns(("a", INT)))
        batches = list(op.iterate_batches(ctx(batch_size=4)))
        assert [len(b) for b in batches] == [4, 4, 2]
        assert [row for batch in batches for row in batch] == rows

    def test_drain_flattens_batches(self):
        rows = [(i,) for i in range(10)]
        op = StaticRowsExec(rows, columns(("a", INT)))
        assert drain(op, ctx(batch_size=3)) == rows

    def test_profile_counts_rows_and_batches_once(self):
        rows = [(i,) for i in range(10)]
        op = StaticRowsExec(rows, columns(("a", INT)))
        profiles = profile_operators(op)
        assert drain(op, ctx(batch_size=4)) == rows
        assert profiles[id(op)].rows == len(rows)
        assert profiles[id(op)].batches == 3


# ---------------------------------------------------------------------------
# whole-query invariance across batch sizes
# ---------------------------------------------------------------------------

EQUIVALENCE_QUERIES = [
    "SELECT id, name FROM customers ORDER BY id",
    "SELECT id FROM customers WHERE balance > 10000",  # empty result
    "SELECT oid FROM orders ORDER BY oid LIMIT 3 OFFSET 2",
    "SELECT oid FROM orders ORDER BY oid LIMIT 0",
    "SELECT DISTINCT region FROM customers ORDER BY region",
    "SELECT id FROM customers UNION SELECT cust_id FROM orders ORDER BY id",
    "SELECT id FROM customers EXCEPT SELECT cust_id FROM orders",
    "SELECT id FROM customers INTERSECT SELECT cust_id FROM orders",
    "SELECT region, COUNT(*), SUM(balance) FROM customers "
    "GROUP BY region ORDER BY region",
    "SELECT name, ROW_NUMBER() OVER (ORDER BY balance DESC) "
    "FROM customers",
    "SELECT c.name, o.total FROM customers c "
    "JOIN orders o ON c.id = o.cust_id ORDER BY o.oid",
    "SELECT c.name FROM customers c "
    "LEFT JOIN orders o ON c.id = o.cust_id WHERE o.oid IS NULL",
]


@pytest.mark.parametrize("sql", EQUIVALENCE_QUERIES)
@pytest.mark.parametrize("batch_size", [1, 4, 1024])
def test_query_invariant_under_batch_size(sql, batch_size):
    default = GIS.query(sql)
    variant = GIS.query(sql, PlannerOptions(batch_size=batch_size))
    assert variant.rows == default.rows
    d_net, v_net = default.metrics.network, variant.metrics.network
    assert v_net.rows_shipped == d_net.rows_shipped
    assert v_net.messages == d_net.messages
    assert v_net.bytes_shipped == d_net.bytes_shipped
    assert v_net.network_ms == d_net.network_ms


def test_explain_analyze_row_counts_invariant_under_batch_size():
    sql = ("SELECT c.region, COUNT(*) FROM customers c "
           "JOIN orders o ON c.id = o.cust_id GROUP BY c.region")
    batch = GIS.explain_analyze(sql)
    row = GIS.explain_analyze(sql, PlannerOptions(batch_size=1))
    strip = lambda text: re.sub(
        r" / [\d.]+ ms", "", re.sub(r" / \d+ batches", "", text)
    )
    batch_plan = strip(batch).split("\n\n")[0]
    row_plan = strip(row).split("\n\n")[0]
    assert batch_plan == row_plan
    assert re.search(r"\[\d+ rows / \d+ batches / [\d.]+ ms\]", batch)


# ---------------------------------------------------------------------------
# batch metrics and the partial last batch
# ---------------------------------------------------------------------------


class TestBatchMetrics:
    def test_partial_last_batch(self):
        result = GIS.query(
            "SELECT id FROM customers ORDER BY id",
            PlannerOptions(batch_size=4),
        )
        net = result.metrics.network
        assert len(result.rows) == 5
        assert net.batches_output == 2  # 4 + 1 (partial tail)
        assert net.batch_rows_avg == pytest.approx(2.5)

    def test_row_mode_one_row_per_batch(self):
        result = GIS.query(
            "SELECT id FROM customers", PlannerOptions(batch_size=1)
        )
        assert result.metrics.network.batches_output == len(result.rows)
        assert result.metrics.network.batch_rows_avg == pytest.approx(1.0)

    def test_empty_result_zero_batches(self):
        result = GIS.query("SELECT id FROM customers WHERE id < 0")
        assert result.rows == []
        assert result.metrics.network.batches_output == 0
        assert result.metrics.network.batch_rows_avg == 0.0

    def test_summary_reports_batching(self):
        result = GIS.query("SELECT id FROM customers")
        assert "batches (avg" in result.metrics.summary()


# ---------------------------------------------------------------------------
# surface plumbing
# ---------------------------------------------------------------------------


class TestSurface:
    def test_planner_options_reject_bad_batch_size(self):
        with pytest.raises(PlanError, match="batch_size"):
            PlannerOptions(batch_size=0)

    @pytest.mark.parametrize(
        "knob", ["vectorize", "typed_columns", "fuse", "morsel_workers"]
    )
    def test_executor_has_no_mode_knobs(self, knob):
        # One execution mode by construction: the options that selected
        # the others do not exist, so nothing can select them.
        with pytest.raises(TypeError):
            PlannerOptions(**{knob: 1})

    def test_format_table_footer(self):
        result = GIS.query("SELECT oid FROM orders ORDER BY oid")
        text = result.format_table(max_rows=5)
        assert "... (+2 more rows)" in text

    def test_cli_batch_size_flag_validates_through_planner_options(self):
        from repro.repl import main

        # argparse exits with code 2 after PlannerOptions rejects the value
        with pytest.raises(SystemExit) as excinfo:
            main(["--batch-size", "0"])
        assert excinfo.value.code == 2

    def test_repl_batch_command(self):
        import io

        from repro.repl import Repl

        out = io.StringIO()
        repl = Repl(GIS, out=out)
        repl.feed_line("\\batch 2")
        assert repl.batch == 2
        repl.feed_line("SELECT COUNT(*) FROM customers;")
        assert "5" in out.getvalue()
        repl.feed_line("\\batch off")
        assert repl.batch is None

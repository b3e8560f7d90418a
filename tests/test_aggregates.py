"""Aggregate accumulators and NULL-aware sorting."""

import pytest

from repro.core.aggregates import make_accumulator
from repro.core.logical import AggregateCall
from repro.datatypes import DataType
from repro.errors import ExecutionError
from repro.sql import ast

from .reference import sort_rows


def lit(value, dtype=DataType.INTEGER):
    return ast.Literal(value, dtype)


def run(call, values):
    accumulator = make_accumulator(call)
    for value in values:
        accumulator.add(value)
    return accumulator.result()


ARG = lit(0)  # accumulators never evaluate the argument expression


class TestAccumulators:
    def test_count_star_counts_everything(self):
        assert run(AggregateCall("COUNT", None), [1, None, 3]) == 3

    def test_count_ignores_nulls(self):
        assert run(AggregateCall("COUNT", ARG), [1, None, 3]) == 2

    def test_count_empty_is_zero(self):
        assert run(AggregateCall("COUNT", ARG), []) == 0

    def test_sum(self):
        assert run(AggregateCall("SUM", ARG), [1, 2, None, 3]) == 6

    def test_sum_empty_is_null(self):
        assert run(AggregateCall("SUM", ARG), []) is None
        assert run(AggregateCall("SUM", ARG), [None, None]) is None

    def test_sum_preserves_int(self):
        assert isinstance(run(AggregateCall("SUM", ARG), [1, 2]), int)

    def test_avg(self):
        assert run(AggregateCall("AVG", ARG), [1, 2, None, 3]) == pytest.approx(2.0)

    def test_avg_empty_is_null(self):
        assert run(AggregateCall("AVG", ARG), [None]) is None

    def test_min_max(self):
        assert run(AggregateCall("MIN", ARG), [5, 1, None, 3]) == 1
        assert run(AggregateCall("MAX", ARG), [5, 1, None, 3]) == 5

    def test_min_max_strings(self):
        assert run(AggregateCall("MIN", ARG), ["pear", "apple"]) == "apple"

    def test_distinct_sum(self):
        assert run(AggregateCall("SUM", ARG, distinct=True), [2, 2, 3, None]) == 5

    def test_distinct_count(self):
        assert run(AggregateCall("COUNT", ARG, distinct=True), [1, 1, 2, None]) == 2

    def test_star_only_valid_for_count(self):
        with pytest.raises(ExecutionError):
            make_accumulator(AggregateCall("SUM", None))

    def test_unknown_function(self):
        with pytest.raises(ExecutionError):
            make_accumulator(AggregateCall("MEDIAN", ARG))


class TestSortRows:
    def test_single_key_ascending(self):
        rows = [(3,), (1,), (2,)]
        assert sort_rows(rows, [lambda r: r[0]], [True]) == [(1,), (2,), (3,)]

    def test_single_key_descending(self):
        rows = [(3,), (1,), (2,)]
        assert sort_rows(rows, [lambda r: r[0]], [False]) == [(3,), (2,), (1,)]

    def test_nulls_last_ascending(self):
        rows = [(None,), (1,), (None,), (0,)]
        ordered = sort_rows(rows, [lambda r: r[0]], [True])
        assert ordered == [(0,), (1,), (None,), (None,)]

    def test_nulls_first_descending(self):
        rows = [(None,), (1,), (0,)]
        ordered = sort_rows(rows, [lambda r: r[0]], [False])
        assert ordered == [(None,), (1,), (0,)]

    def test_multi_key_mixed_directions(self):
        rows = [("a", 1), ("a", 2), ("b", 1), ("b", 3)]
        ordered = sort_rows(
            rows, [lambda r: r[0], lambda r: r[1]], [True, False]
        )
        assert ordered == [("a", 2), ("a", 1), ("b", 3), ("b", 1)]

    def test_stability(self):
        rows = [("x", 1), ("y", 1), ("z", 1)]
        ordered = sort_rows(rows, [lambda r: r[1]], [True])
        assert ordered == rows

    def test_original_list_untouched(self):
        rows = [(2,), (1,)]
        sort_rows(rows, [lambda r: r[0]], [True])
        assert rows == [(2,), (1,)]

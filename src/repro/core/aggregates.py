"""Aggregate accumulators: the executor's aggregate and window state.

Each :class:`~repro.core.logical.AggregateCall` maps to one accumulator
instance per group. SQL semantics: aggregates ignore NULL inputs; SUM/AVG/
MIN/MAX over an empty (or all-NULL) group yield NULL, COUNT yields 0.
"""

from __future__ import annotations

from typing import Any, Sequence, Set

from ..errors import ExecutionError
from .logical import AggregateCall


class Accumulator:
    """Incremental aggregate state. ``add`` sees already-evaluated argument
    values (or a dummy for COUNT(*)).

    ``add_many``/``add_repeat`` are the bulk entry points the bucketed
    aggregation path uses: one call per (group, page) instead of one
    ``add`` per row. Every override MUST be observation-equivalent to the
    ``add`` loop **in the same value order** — for float SUM/AVG that
    means actually accumulating left-to-right (addition is not
    associative), so partial sums are never formed and results stay
    bit-identical to the row engine.
    """

    def add(self, value: Any) -> None:
        raise NotImplementedError

    def result(self) -> Any:
        raise NotImplementedError

    def add_many(self, values: Sequence[Any]) -> None:
        """Fold a run of argument values, in order (bulk ``add``)."""
        add = self.add
        for value in values:
            add(value)

    def add_repeat(self, count: int) -> None:
        """Fold ``count`` argument-less rows (the COUNT(*) bulk path)."""
        add = self.add
        for _ in range(count):
            add(1)


class _CountStar(Accumulator):
    def __init__(self) -> None:
        self.count = 0

    def add(self, value: Any) -> None:
        self.count += 1

    def add_many(self, values: Sequence[Any]) -> None:
        self.count += len(values)

    def add_repeat(self, count: int) -> None:
        self.count += count

    def result(self) -> Any:
        return self.count


class _Count(Accumulator):
    def __init__(self) -> None:
        self.count = 0

    def add(self, value: Any) -> None:
        if value is not None:
            self.count += 1

    def add_many(self, values: Sequence[Any]) -> None:
        # list.count(None) runs in C; arrays cannot hold None at all.
        self.count += len(values) - values.count(None)

    def result(self) -> Any:
        return self.count


class _Sum(Accumulator):
    def __init__(self) -> None:
        self.total: Any = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        self.total = value if self.total is None else self.total + value

    def add_many(self, values: Sequence[Any]) -> None:
        # Left-to-right accumulation over a local: same additions in the
        # same order as the add() loop (bit-identical for floats), minus
        # the per-row attribute traffic.
        total = self.total
        for value in values:
            if value is not None:
                total = value if total is None else total + value
        self.total = total

    def result(self) -> Any:
        return self.total


class _Avg(Accumulator):
    def __init__(self) -> None:
        self.total = 0.0
        self.count = 0

    def add(self, value: Any) -> None:
        if value is None:
            return
        self.total += value
        self.count += 1

    def add_many(self, values: Sequence[Any]) -> None:
        total = self.total
        count = self.count
        for value in values:
            if value is not None:
                total += value
                count += 1
        self.total = total
        self.count = count

    def result(self) -> Any:
        return self.total / self.count if self.count else None


class _Min(Accumulator):
    def __init__(self) -> None:
        self.best: Any = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self.best is None or value < self.best:
            self.best = value

    def add_many(self, values: Sequence[Any]) -> None:
        # min() is order-insensitive (total order over non-null values of
        # one column type), so the C-speed builtin gives the same result
        # as the add() loop.
        candidates = [value for value in values if value is not None]
        if candidates:
            best = min(candidates)
            if self.best is None or best < self.best:
                self.best = best

    def result(self) -> Any:
        return self.best


class _Max(Accumulator):
    def __init__(self) -> None:
        self.best: Any = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self.best is None or value > self.best:
            self.best = value

    def add_many(self, values: Sequence[Any]) -> None:
        candidates = [value for value in values if value is not None]
        if candidates:
            best = max(candidates)
            if self.best is None or best > self.best:
                self.best = best

    def result(self) -> Any:
        return self.best


class _Distinct(Accumulator):
    """DISTINCT wrapper: forwards each distinct non-null value once."""

    def __init__(self, inner: Accumulator) -> None:
        self.inner = inner
        self.seen: Set[Any] = set()

    def add(self, value: Any) -> None:
        if value is None or value in self.seen:
            return
        self.seen.add(value)
        self.inner.add(value)

    def result(self) -> Any:
        return self.inner.result()


_FACTORIES: dict = {
    "COUNT": _Count,
    "SUM": _Sum,
    "AVG": _Avg,
    "MIN": _Min,
    "MAX": _Max,
}


def make_accumulator(call: AggregateCall) -> Accumulator:
    """Fresh accumulator for one aggregate call (one group's state)."""
    if call.argument is None:
        if call.function != "COUNT":
            raise ExecutionError(f"{call.function}(*) is not a valid aggregate")
        return _CountStar()
    factory = _FACTORIES.get(call.function)
    if factory is None:
        raise ExecutionError(f"unknown aggregate function: {call.function}")
    inner = factory()
    return _Distinct(inner) if call.distinct else inner

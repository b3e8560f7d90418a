"""Table and column statistics for cost-based distributed optimization.

Statistics are gathered by the mediator's ``ANALYZE`` (which scans each
source once through its wrapper) or supplied directly by sources that
maintain their own. The estimator consumes:

* table row counts,
* per-column null fraction, distinct count, min/max, average width,
* optional **equi-depth histograms** for skew-aware selectivity.

Equi-depth (equi-height) histograms were the state of the art of the era
(Piatetsky-Shapiro & Connell, SIGMOD 1984) and remain what most engines use;
experiment T4 ablates them against the uniform-distribution assumption.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..datatypes import DataType, wire_width
from ..errors import GISError
from .schema import TableSchema

#: Default number of histogram buckets gathered by ANALYZE.
DEFAULT_HISTOGRAM_BUCKETS = 32


@dataclass(frozen=True)
class _Bucket:
    """One equi-depth bucket: values in (lower, upper], with lower inclusive
    for the first bucket."""

    lower: Any
    upper: Any
    count: int
    distinct: int


class EquiDepthHistogram:
    """An equi-depth histogram over one column's non-null values.

    Buckets hold (approximately) equal row counts, so frequent values occupy
    many narrow buckets — range selectivity on skewed data stays accurate
    where it matters.
    """

    def __init__(self, buckets: Sequence[_Bucket]) -> None:
        if not buckets:
            raise GISError("histogram requires at least one bucket")
        self._buckets = list(buckets)
        self._uppers = [b.upper for b in self._buckets]
        self._total = sum(b.count for b in self._buckets)

    @property
    def bucket_count(self) -> int:
        return len(self._buckets)

    @property
    def total_rows(self) -> int:
        """Non-null rows summarized by this histogram."""
        return self._total

    @staticmethod
    def build(values: Sequence[Any], buckets: int = DEFAULT_HISTOGRAM_BUCKETS) -> Optional["EquiDepthHistogram"]:
        """Build from a column's non-null values; None for empty input."""
        data = sorted(v for v in values if v is not None)
        if not data:
            return None
        buckets = max(1, min(buckets, len(data)))
        per_bucket = len(data) / buckets
        result: List[_Bucket] = []
        start = 0
        for i in range(buckets):
            end = len(data) if i == buckets - 1 else int(round((i + 1) * per_bucket))
            end = max(end, start + 1)
            end = min(end, len(data))
            chunk = data[start:end]
            if not chunk:
                break
            distinct = 1
            for prev, cur in zip(chunk, chunk[1:]):
                if cur != prev:
                    distinct += 1
            result.append(_Bucket(chunk[0], chunk[-1], len(chunk), distinct))
            start = end
            if start >= len(data):
                break
        return EquiDepthHistogram(result)

    # -- persistence (catalog journal) ---------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form; bucket bounds round-trip exactly."""
        return {
            "buckets": [
                [
                    _encode_value(b.lower),
                    _encode_value(b.upper),
                    b.count,
                    b.distinct,
                ]
                for b in self._buckets
            ]
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "EquiDepthHistogram":
        """Rebuild a histogram from its :meth:`to_dict` form."""
        return EquiDepthHistogram(
            [
                _Bucket(
                    _decode_value(lower), _decode_value(upper),
                    int(count), int(distinct),
                )
                for lower, upper, count, distinct in data["buckets"]
            ]
        )

    # -- selectivity estimates ---------------------------------------------
    #
    # All return a fraction of the *non-null* rows in [0, 1].

    def selectivity_eq(self, value: Any) -> float:
        """Estimated fraction of rows equal to ``value``."""
        matched = 0.0
        for bucket in self._buckets:
            if bucket.lower <= value <= bucket.upper:
                matched += bucket.count / max(bucket.distinct, 1)
        return min(matched / self._total, 1.0)

    def selectivity_le(self, value: Any) -> float:
        """Estimated fraction of rows with column <= value."""
        rows = 0.0
        for bucket in self._buckets:
            if bucket.upper <= value:
                rows += bucket.count
            elif bucket.lower > value:
                break
            else:
                rows += bucket.count * _fraction_within(bucket, value)
        return min(rows / self._total, 1.0)

    def selectivity_lt(self, value: Any) -> float:
        """Estimated fraction of rows with column < value."""
        return max(self.selectivity_le(value) - self.selectivity_eq(value), 0.0)

    def selectivity_range(
        self,
        low: Optional[Any],
        high: Optional[Any],
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> float:
        """Estimated fraction of rows within [low, high] (open ends = None)."""
        upper = 1.0
        if high is not None:
            upper = self.selectivity_le(high) if high_inclusive else self.selectivity_lt(high)
        lower = 0.0
        if low is not None:
            lower = self.selectivity_lt(low) if low_inclusive else self.selectivity_le(low)
        return max(upper - lower, 0.0)


def _encode_value(value: Any) -> Any:
    """JSON-encode one statistics value (dates get a type tag)."""
    if isinstance(value, date):
        return {"$date": value.isoformat()}
    return value


def _decode_value(value: Any) -> Any:
    """Invert :func:`_encode_value`."""
    if isinstance(value, dict) and "$date" in value:
        return date.fromisoformat(value["$date"])
    return value


def _fraction_within(bucket: _Bucket, value: Any) -> float:
    """Fraction of a bucket's rows at or below ``value`` (linear interpolation
    for numerics; half-bucket fallback otherwise)."""
    lower, upper = bucket.lower, bucket.upper
    if isinstance(lower, (int, float)) and isinstance(upper, (int, float)) and upper > lower:
        return min(max((value - lower) / (upper - lower), 0.0), 1.0)
    return 0.5


@dataclass
class ColumnStatistics:
    """Summary statistics for one column."""

    null_fraction: float = 0.0
    distinct_count: float = 1.0
    min_value: Optional[Any] = None
    max_value: Optional[Any] = None
    avg_width: float = 8.0
    histogram: Optional[EquiDepthHistogram] = None

    @staticmethod
    def from_values(
        values: Sequence[Any],
        dtype: DataType,
        histogram_buckets: int = DEFAULT_HISTOGRAM_BUCKETS,
    ) -> "ColumnStatistics":
        """Compute statistics from a full column scan."""
        total = len(values)
        non_null = [v for v in values if v is not None]
        null_fraction = (total - len(non_null)) / total if total else 0.0
        distinct = float(len(set(non_null))) if non_null else 0.0
        min_value = min(non_null) if non_null else None
        max_value = max(non_null) if non_null else None
        if dtype == DataType.TEXT and non_null:
            avg_width = sum(len(v) for v in non_null) / len(non_null)
        else:
            avg_width = wire_width(dtype)
        histogram = (
            EquiDepthHistogram.build(non_null, histogram_buckets)
            if histogram_buckets > 0
            else None
        )
        return ColumnStatistics(
            null_fraction=null_fraction,
            distinct_count=max(distinct, 1.0) if total else 1.0,
            min_value=min_value,
            max_value=max_value,
            avg_width=avg_width,
            histogram=histogram,
        )

    # -- persistence (catalog journal) ---------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form for the catalog journal."""
        return {
            "null_fraction": self.null_fraction,
            "distinct_count": self.distinct_count,
            "min_value": _encode_value(self.min_value),
            "max_value": _encode_value(self.max_value),
            "avg_width": self.avg_width,
            "histogram": (
                self.histogram.to_dict() if self.histogram is not None else None
            ),
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "ColumnStatistics":
        """Rebuild column statistics from their :meth:`to_dict` form."""
        histogram = data.get("histogram")
        return ColumnStatistics(
            null_fraction=float(data["null_fraction"]),
            distinct_count=float(data["distinct_count"]),
            min_value=_decode_value(data.get("min_value")),
            max_value=_decode_value(data.get("max_value")),
            avg_width=float(data["avg_width"]),
            histogram=(
                EquiDepthHistogram.from_dict(histogram)
                if histogram is not None
                else None
            ),
        )


@dataclass
class TableStatistics:
    """Statistics for one (global or source) table.

    ``exact`` says every column's ``min_value``/``max_value`` bound every
    row of the table: ANALYZE scanned it whole and its source has not been
    reported changed since. Only exact bounds may prove that a pushed
    predicate selects nothing (UNION ALL branch pruning); prefix samples,
    hand-built and legacy statistics are not exact.
    """

    row_count: float
    columns: Dict[str, ColumnStatistics] = field(default_factory=dict)
    exact: bool = False

    @staticmethod
    def from_rows(
        schema: TableSchema,
        rows: Sequence[Tuple[Any, ...]],
        histogram_buckets: int = DEFAULT_HISTOGRAM_BUCKETS,
    ) -> "TableStatistics":
        """Compute full statistics from a table scan.

        Column keys are stored lower-cased; use :meth:`column` for lookups.
        """
        stats: Dict[str, ColumnStatistics] = {}
        for index, column in enumerate(schema.columns):
            values = [row[index] for row in rows]
            stats[column.name.lower()] = ColumnStatistics.from_values(
                values, column.dtype, histogram_buckets
            )
        return TableStatistics(row_count=float(len(rows)), columns=stats)

    def column(self, name: str) -> Optional[ColumnStatistics]:
        """Look up column statistics by (case-insensitive) name."""
        return self.columns.get(name.lower())

    # -- persistence (catalog journal) ---------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form; round-trips exactly, so plans costed from
        recovered statistics are identical to pre-crash plans."""
        return {
            "row_count": self.row_count,
            "columns": {
                name: stats.to_dict() for name, stats in self.columns.items()
            },
            "exact": self.exact,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "TableStatistics":
        """Rebuild table statistics from their :meth:`to_dict` form."""
        return TableStatistics(
            row_count=float(data["row_count"]),
            columns={
                name: ColumnStatistics.from_dict(stats)
                for name, stats in dict(data.get("columns", {})).items()
            },
            exact=bool(data.get("exact", False)),
        )

    def average_row_width(self, schema: TableSchema) -> float:
        """Estimated bytes per row on the simulated wire."""
        total = 0.0
        for column in schema.columns:
            stats = self.column(column.name)
            if stats is not None:
                total += stats.avg_width
            else:
                total += wire_width(column.dtype)
        return total

"""Bag-semantics set operations: INTERSECT ALL / EXCEPT ALL."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GlobalInformationSystem, MemorySource
from repro.catalog.schema import schema_from_pairs
from .reference import reference_query


def build_gis(left_values, right_values):
    gis = GlobalInformationSystem()
    source = MemorySource("m")
    schema = schema_from_pairs("t", [("v", "INT")])
    source.add_table("l", schema_from_pairs("l", [("v", "INT")]),
                     [(v,) for v in left_values])
    source.add_table("r", schema_from_pairs("r", [("v", "INT")]),
                     [(v,) for v in right_values])
    gis.register_source("m", source)
    gis.register_table("l", source="m")
    gis.register_table("r", source="m")
    return gis


def run(gis, op):
    return sorted(
        row[0] for row in gis.query(f"SELECT v FROM l {op} SELECT v FROM r").rows
    )


def bag_except(left, right):
    counts = Counter(right)
    out = []
    for value in left:
        if counts[value] > 0:
            counts[value] -= 1
        else:
            out.append(value)
    return sorted(out)


def bag_intersect(left, right):
    counts = Counter(left) & Counter(right)
    return sorted(counts.elements())


class TestFixedCases:
    def test_except_all_subtracts_multiplicities(self):
        gis = build_gis([1, 1, 1, 2], [1])
        assert run(gis, "EXCEPT ALL") == [1, 1, 2]

    def test_except_set_removes_all_copies(self):
        gis = build_gis([1, 1, 1, 2], [1])
        assert run(gis, "EXCEPT") == [2]

    def test_intersect_all_takes_min_multiplicity(self):
        gis = build_gis([1, 1, 2, 3], [1, 1, 1, 2, 2])
        assert run(gis, "INTERSECT ALL") == [1, 1, 2]

    def test_intersect_set_dedupes(self):
        gis = build_gis([1, 1, 2, 3], [1, 1, 2, 2])
        assert run(gis, "INTERSECT") == [1, 2]

    def test_empty_right(self):
        gis = build_gis([1, 2], [])
        assert run(gis, "EXCEPT ALL") == [1, 2]
        assert run(gis, "INTERSECT ALL") == []

    def test_matches_reference_interpreter(self):
        gis = build_gis([1, 1, 2, 3, 3, 3], [1, 3, 3, 4])
        for op in ("EXCEPT ALL", "INTERSECT ALL", "EXCEPT", "INTERSECT"):
            sql = f"SELECT v FROM l {op} SELECT v FROM r"
            engine = sorted(r[0] for r in gis.query(sql).rows)
            _, reference = reference_query(gis, sql)
            assert engine == sorted(r[0] for r in reference)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(0, 5), max_size=20),
    st.lists(st.integers(0, 5), max_size=20),
)
def test_property_bag_semantics(left_values, right_values):
    gis = build_gis(left_values, right_values)
    assert run(gis, "EXCEPT ALL") == bag_except(left_values, right_values)
    assert run(gis, "INTERSECT ALL") == bag_intersect(left_values, right_values)

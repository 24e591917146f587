"""Tests for CSV round-tripping."""


import pytest
from hypothesis import given, strategies as st

from repro.errors import SchemaError
from repro.probabilistic import Candidate, PValue, ValueRange
from repro.relation import (
    ColumnType,
    Relation,
    from_csv_string,
    to_csv_string,
)


@pytest.fixture
def rel():
    return Relation.from_rows(
        [("k", ColumnType.INT), ("v", ColumnType.STRING), ("x", ColumnType.FLOAT)],
        [(1, "a", 1.5), (2, "b", 2.5), (2, "a", None)],
        name="t",
    )


class TestCsvRoundTrip:
    def test_plain_roundtrip(self, rel):
        back = from_csv_string(to_csv_string(rel))
        assert back.schema == rel.schema
        assert [r.values for r in back] == [r.values for r in rel]

    def test_none_roundtrip(self, rel):
        back = from_csv_string(to_csv_string(rel))
        assert back.rows[2].values[2] is None

    def test_probabilistic_roundtrip(self, rel):
        pv = PValue([Candidate("a", 0.75), Candidate("b", 0.25)])
        rel2 = rel.update_cells({(0, "v"): pv})
        back = from_csv_string(to_csv_string(rel2))
        cell = back.rows[0].values[1]
        assert isinstance(cell, PValue)
        assert cell == pv

    def test_range_candidate_roundtrip(self, rel):
        pv = PValue([
            Candidate(ValueRange(low=10.0, high=20.0, low_open=False), 0.5),
            Candidate(5.0, 0.5),
        ])
        rel2 = rel.update_cells({(1, "x"): pv})
        back = from_csv_string(to_csv_string(rel2))
        cell = back.rows[1].values[2]
        assert isinstance(cell, PValue)
        ranges = [c.value for c in cell.candidates if c.is_range()]
        assert ranges and ranges[0].low == 10.0 and not ranges[0].low_open

    def test_worlds_preserved(self, rel):
        pv = PValue([Candidate("a", 0.5, world=1), Candidate("b", 0.5, world=2)])
        back = from_csv_string(to_csv_string(rel.update_cells({(0, "v"): pv})))
        assert back.rows[0].values[1].worlds() == (1, 2)

    def test_empty_csv_rejected(self):
        with pytest.raises(SchemaError):
            from_csv_string("")

    def test_bad_header_rejected(self):
        with pytest.raises(SchemaError):
            from_csv_string("name_without_type\n")

    def test_unknown_type_rejected(self):
        with pytest.raises(SchemaError):
            from_csv_string("a:blob\n")

    def test_arity_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            from_csv_string("a:int,b:int\n1\n")


@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.text(min_size=0, max_size=5).filter(
            lambda s: "\x01" not in s)),
        min_size=0,
        max_size=20,
    )
)
def test_csv_roundtrip_property(rows):
    rel = Relation.from_rows(
        [("k", ColumnType.INT), ("v", ColumnType.STRING)], rows, validate=False
    )
    back = from_csv_string(to_csv_string(rel))
    assert [r.values for r in back] == [r.values for r in rel]

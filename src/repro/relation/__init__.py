"""Relational substrate: schemas, row/column relations, CSV i/o."""

from repro.relation.schema import Column, ColumnType, Schema
from repro.relation.columnview import (
    BACKEND_COLUMNAR,
    BACKEND_ROWSTORE,
    BACKENDS,
    ColumnView,
    PatchBatch,
    validate_backend,
)
from repro.relation.relation import Relation, Row
from repro.relation.io import from_csv_string, read_csv, to_csv_string, write_csv

__all__ = [
    "BACKEND_COLUMNAR",
    "BACKEND_ROWSTORE",
    "BACKENDS",
    "Column",
    "ColumnType",
    "ColumnView",
    "PatchBatch",
    "Schema",
    "Relation",
    "Row",
    "validate_backend",
    "read_csv",
    "write_csv",
    "to_csv_string",
    "from_csv_string",
]

"""Failure classes shared across the pipeline and CLI exit-code mapping."""


class DataError(ValueError):
    """Bad dataset content: malformed records, missing targets, empty splits.

    `structures.StructureError` and `graph.GraphError` are its kinds for a
    malformed structure and an unbuildable graph.
    """


class NumericError(RuntimeError):
    """Non-finite values encountered during training or evaluation."""

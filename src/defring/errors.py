"""Errors that the CLI reports as a JSON error report instead of a traceback."""

from __future__ import annotations


class DefringError(Exception):
    """Base of the domain errors that are not value or arithmetic errors."""


class InternalInconsistencyError(DefringError, RuntimeError):
    """Two routes or a self-check disagreed; signals an implementation bug."""

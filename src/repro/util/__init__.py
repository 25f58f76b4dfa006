"""Shared utilities: report formatting."""

from .reporting import TextTable, fmt_count, fmt_ratio, fmt_seconds

__all__ = ["TextTable", "fmt_seconds", "fmt_ratio", "fmt_count"]

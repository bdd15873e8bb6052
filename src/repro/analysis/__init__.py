"""Analysis substrate: exact oracles, error bounds, and text reporting."""

from .errors import (
    TABLE2_PAPER,
    conventional_error_bound,
    expected_table2_bound,
    grid_aligned_error_bound,
    rsum_error_bound,
    table2_rows,
)
from .exact import abs_error, exact_sum, fsum, max_group_error, rel_error
from .reporting import banner, format_sci, format_series, format_table

__all__ = [
    "fsum",
    "exact_sum",
    "abs_error",
    "rel_error",
    "max_group_error",
    "conventional_error_bound",
    "rsum_error_bound",
    "grid_aligned_error_bound",
    "expected_table2_bound",
    "table2_rows",
    "TABLE2_PAPER",
    "format_table",
    "format_sci",
    "format_series",
    "banner",
]

"""Workload representation: transactions, traces, read/write sets, sampling."""

from repro.workload.trace import StatementAccess, Transaction, TransactionAccess, Workload
from repro.workload.rwsets import AccessTrace, extract_access_trace
from repro.workload.sampling import (
    filter_blanket_statements,
    sample_transactions,
    sample_tuples,
)
from repro.workload.analysis import (
    AttributeFrequency,
    WorkloadStatistics,
    frequent_attributes,
    workload_statistics,
)
from repro.workload.splitter import split_workload

__all__ = [
    "AccessTrace",
    "AttributeFrequency",
    "StatementAccess",
    "Transaction",
    "TransactionAccess",
    "Workload",
    "WorkloadStatistics",
    "extract_access_trace",
    "filter_blanket_statements",
    "frequent_attributes",
    "sample_transactions",
    "sample_tuples",
    "split_workload",
    "workload_statistics",
]

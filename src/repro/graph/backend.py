"""Array-backend selection for the frozen CSR pipeline.

The partitioner's frozen :class:`~repro.graph.model.CSRGraph` stores its
``indptr``/``indices``/``edge_weights``/``node_weights`` arrays in one of two
interchangeable backends:

* ``numpy`` — ``float64``/``int64`` ndarrays.  Bulk kernels (freezing,
  ``subview`` extraction, coarsening scatter-accumulate, FM gain
  initialisation) run as vectorised array operations.
* ``list`` — flat Python lists, the dependency-free fallback.  Every kernel
  has a pure-Python implementation that produces **bit-identical** results:
  each vectorised kernel is written so its floating-point additions happen in
  exactly the same order as the scalar loop (order-preserving ``bincount``
  formulations, after a stable sort where runs must group), so a fixed seed
  yields the same assignment on either backend.
  ``tests/graph/test_backend_parity.py`` enforces this.

Selection happens once at import from the ``REPRO_ARRAY_BACKEND`` environment
variable (``auto`` — the default — picks numpy when importable, ``numpy``
forces it and raises if missing, ``list`` forces the fallback) and can be
changed at runtime with :func:`set_array_backend` / :func:`backend_context`
(tests, benchmarks).  Switching affects **newly built** ``CSRGraph`` objects
only; existing instances keep the arrays they were built with — both kinds
keep working side by side because the scalar kernels read rows through
:meth:`CSRGraph.rows` (list slices here, zero-copy ``memoryview`` slices
over the ndarray buffers there; plain Python ints and floats either way).
The numpy backend never turns a graph into Python objects wholesale: the
sequential kernels box one row at a time, and the k-way refiner's sparse
gain rows are cut out of its vectorised connectivity's nonzeros only for
the nodes a move actually touches.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

try:  # optional dependency: the library must work without numpy installed
    import numpy as _numpy
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _numpy = None

#: the numpy module when importable, else None.  Kernels must only reach for
#: it through :func:`use_numpy` so the runtime override is respected.
numpy = _numpy

_VALID = ("numpy", "list")


def _resolve(requested: str) -> str:
    requested = requested.strip().lower() or "auto"
    if requested == "auto":
        return "numpy" if _numpy is not None else "list"
    if requested not in _VALID:
        raise ValueError(
            f"REPRO_ARRAY_BACKEND must be one of 'auto', 'numpy', 'list'; got {requested!r}"
        )
    if requested == "numpy" and _numpy is None:
        raise ImportError("REPRO_ARRAY_BACKEND=numpy but numpy is not importable")
    return requested


_backend = _resolve(os.environ.get("REPRO_ARRAY_BACKEND", "auto"))


def array_backend() -> str:
    """Name of the active backend: ``"numpy"`` or ``"list"``."""
    return _backend


def use_numpy() -> bool:
    """True when newly built CSR graphs should use numpy arrays."""
    return _backend == "numpy"


def set_array_backend(name: str) -> str:
    """Switch the backend for subsequently built CSR graphs; returns the old name."""
    global _backend
    previous = _backend
    _backend = _resolve(name)
    return previous


@contextmanager
def backend_context(name: str) -> Iterator[str]:
    """Temporarily switch the array backend (used by parity tests)."""
    previous = set_array_backend(name)
    try:
        yield _backend
    finally:
        set_array_backend(previous)


# -- conversion helpers ----------------------------------------------------------------
def as_index_array(values) -> "object":
    """``values`` as the backend's integer array type (int64 ndarray or list)."""
    if _backend == "numpy":
        return _numpy.asarray(values, dtype=_numpy.int64)
    if isinstance(values, list):
        return values
    return [int(value) for value in values]


def as_weight_array(values) -> "object":
    """``values`` as the backend's float array type (float64 ndarray or list)."""
    if _backend == "numpy":
        return _numpy.asarray(values, dtype=_numpy.float64)
    if isinstance(values, list):
        return values
    return [float(value) for value in values]


def to_list(values) -> list:
    """``values`` (a list, an ndarray or a ``memoryview`` of one) as a plain list."""
    if isinstance(values, list):
        return values
    return values.tolist()

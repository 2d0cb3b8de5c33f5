"""The graph layer's working set, pinned in bytes per CSR entry.

One ``partition_graph`` call on a 20 000-node access graph at k = 32, under
``tracemalloc``: the transient peak of the finest ``coarsen_once`` and of the
finest ``kway_fm_refine`` (each above what was live when it started), and
the peak of the whole call above what was live before it (the memoised
coarsening chain included).  Each bound is about 1.5x the value measured
when the layer stopped holding entry-sized temporaries and per-node Python
rows; the values before that are in the comments.  The figures are per
backend because the list backend's graph is Python objects to begin with.

The mutable graph's build is bounded too: what ``synthetic_access_graph``
leaves live, in bytes per ``add_edge`` call (its edge log), and the
transient peak of ``Graph.freeze()`` above that, in bytes per CSR entry.
"""

import tracemalloc

from repro.experiments.figure5 import synthetic_access_graph
from repro.graph import backend, coarsen, partitioner
from repro.graph.partitioner import PartitionerOptions, partition_graph

#: backend -> layer -> bound in bytes per CSR entry (measured; measured before).
BOUNDS = {
    "numpy": {
        "coarsen_once": 54.0,  # 36.2; 116.3 before
        "kway_fm_refine": 54.0,  # 35.7; 82.1 before
        "partition_graph": 120.0,  # 80.1; 140.2 before
    },
    "list": {
        "coarsen_once": 50.0,  # 33.5; 35.5 before
        "kway_fm_refine": 60.0,  # 39.4; 50.8 before
        "partition_graph": 160.0,  # 105.3; 116.0 before
    },
}


#: backend -> bound in bytes (measured; measured before the edge log).
BUILD_BOUNDS = {
    "numpy": {
        "graph_per_call": 39.0,  # 26.0; 142.4 with dict-of-dicts adjacency
        "freeze_per_entry": 48.0,  # 32.0; 36.4 before
    },
    "list": {
        "graph_per_call": 39.0,  # 26.0; 142.4 before
        # 58.0, mostly the pair-key dict that consolidates the log; 19.3
        # before, when the dicts had merged repeated pairs as they came.
        "freeze_per_entry": 87.0,
    },
}


def _peaks_per_entry(monkeypatch) -> dict[str, float]:
    frozen = synthetic_access_graph(20_000, 160_000, 0).freeze()
    peaks: dict[str, int] = {}
    whole = [0]

    def measured(name, function):
        def wrapper(csr, *args, **kwargs):
            if csr is not frozen or name in peaks:
                return function(csr, *args, **kwargs)
            live, peak = tracemalloc.get_traced_memory()
            whole[0] = max(whole[0], peak)
            tracemalloc.reset_peak()
            result = function(csr, *args, **kwargs)
            peaks[name] = tracemalloc.get_traced_memory()[1] - live
            whole[0] = max(whole[0], live + peaks[name])
            return result

        return wrapper

    monkeypatch.setattr(coarsen, "coarsen_once", measured("coarsen_once", coarsen.coarsen_once))
    monkeypatch.setattr(
        partitioner, "kway_fm_refine", measured("kway_fm_refine", partitioner.kway_fm_refine)
    )
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        partition_graph(frozen, 32, PartitionerOptions(seed=0, initial_trials=4, refine_passes=2))
        peaks["partition_graph"] = max(whole[0], tracemalloc.get_traced_memory()[1]) - before
    finally:
        tracemalloc.stop()
    entries = len(frozen.indices)
    return {name: peak / entries for name, peak in peaks.items()}


def test_graph_layer_working_set_per_entry(monkeypatch):
    bounds = BOUNDS[backend.array_backend()]
    measured = _peaks_per_entry(monkeypatch)
    over = {
        name: f"{measured[name]:.1f} B/entry > {bound}"
        for name, bound in bounds.items()
        if measured[name] > bound
    }
    assert not over, over


def test_graph_build_and_freeze_bytes():
    calls = 160_000
    tracemalloc.start()
    try:
        graph = synthetic_access_graph(20_000, calls, 0)
        built = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        frozen = graph.freeze()
        freeze_peak = tracemalloc.get_traced_memory()[1] - built
    finally:
        tracemalloc.stop()
    measured = {
        "graph_per_call": built / calls,
        "freeze_per_entry": freeze_peak / len(frozen.indices),
    }
    bounds = BUILD_BOUNDS[backend.array_backend()]
    over = {
        name: f"{measured[name]:.1f} B > {bound}"
        for name, bound in bounds.items()
        if measured[name] > bound
    }
    assert not over, over

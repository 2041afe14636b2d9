"""The paper's own quantities over a workload's op log, never wall time.

For each query of a fixed prefix of the op log (:func:`ops.read_queries`)
the per-device qualified bucket counts come from the method's public
``qualified_on_device_array``.  From them:

* ``model.load_factor``: mean of the largest per-device count over
  ``ceil(|R(q)|/M)`` (1.0 is the optimum of the paper's Definition 1);
* ``model.strict_optimal_ratio``: share of queries at that bound;
* ``model.response_ms``: mean modelled response of the §5 parallel-disk
  regime, the largest per-device :class:`~repro.storage.costs.DiskCostModel`
  service time;
* ``core.qualified_per_query``: mean ``|R(q)|``.

They depend only on placement and the op log, so they repeat exactly;
a change that moves them changed placement.
"""

from __future__ import annotations

__all__ = ["model_metrics"]


def model_metrics(fields, devices: int, queries: list[dict[int, int]]) -> dict:
    from repro.api import make_method
    from repro.query.partial_match import PartialMatchQuery
    from repro.storage.costs import DiskCostModel
    from repro.util.numbers import ceil_div

    method = make_method("fx", fields=fields, devices=devices)
    filesystem = method.filesystem
    disk = DiskCostModel()
    load_factor = optimal = response = qualified = 0.0
    for specified in queries:
        query = PartialMatchQuery.from_dict(filesystem, specified)
        counts = [
            len(method.qualified_on_device_array(device, query))
            for device in range(devices)
        ]
        largest = max(counts)
        bound = ceil_div(query.qualified_count, devices)
        load_factor += largest / bound
        optimal += largest <= bound
        response += disk.service_time(largest)
        qualified += query.qualified_count
    n = len(queries)
    return {
        "model.load_factor": load_factor / n,
        "model.strict_optimal_ratio": optimal / n,
        "model.response_ms": response / n,
        "core.qualified_per_query": qualified / n,
    }

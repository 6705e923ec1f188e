"""Table II: configuration constants of the evaluation platform.

Table II is input, not output — this driver simply materialises the
baseline configurations so reports (and tests) can verify the platform
matches the paper's parameters exactly.
"""

from __future__ import annotations

from repro.core.config import ApproximatorConfig
from repro.experiments.common import Driver, ExperimentResult


def _render(small: bool = False, seed: int = 0) -> ExperimentResult:
    """Collect the platform and approximator configuration values."""
    from repro.fullsystem.config import FullSystemConfig

    del small, seed  # configuration is scale-independent
    approximator = ApproximatorConfig()
    system = FullSystemConfig()
    result = ExperimentResult(
        name="Table II",
        description="configuration parameters used in evaluation",
    )
    rows = {
        "cores": system.num_cores,
        "core_width": system.core.width,
        "rob_entries": system.core.rob_entries,
        "l1_kb": system.l1.size_bytes / 1024,
        "l1_ways": system.l1.associativity,
        "l1_latency": system.l1.latency,
        "l2_kb": system.l2.size_bytes / 1024,
        "l2_ways": system.l2.associativity,
        "l2_latency": system.l2.latency,
        "memory_latency": system.memory_latency,
        "mesh_width": system.noc.width,
        "router_latency": system.noc.router_latency,
        "approx_table_entries": approximator.table_entries,
        "confidence_bits": approximator.confidence_bits,
        "confidence_min": approximator.confidence_min,
        "confidence_max": approximator.confidence_max,
        "confidence_window": approximator.confidence_window,
        "ghb_entries": approximator.ghb_size,
        "lhb_entries": approximator.lhb_size,
        "tag_bits": approximator.tag_bits,
        "value_delay": approximator.value_delay,
        "approximation_degree": approximator.approximation_degree,
    }
    for key, value in rows.items():
        result.add("value", key, float(value))
    return result


#: The :class:`~repro.experiments.common.Driver` for this
#: experiment — the supported entry point for programmatic use.
DRIVER = Driver(name="table2", render_fn=_render, swept=False)

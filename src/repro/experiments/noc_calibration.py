"""NoC model calibration: fast analytical model vs detailed flit-level model.

Drives both network models with identical uniform-random traffic at a
range of injection rates and compares average packet latency. The fast
link-reservation model used by the full-system replay should track the
detailed (BookSim-class) router model at low-to-moderate load and show the
same qualitative saturation behaviour as load rises — the evidence that
the phase-2 contention numbers are trustworthy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

from repro.experiments.common import Driver, ExperimentResult

if TYPE_CHECKING:
    import numpy as np

    from repro.noc.detailed import DetailedMeshNetwork
    from repro.noc.network import MeshNetwork

#: Packets injected per node per cycle (offered load points).
INJECTION_RATES: Tuple[float, ...] = (0.01, 0.02, 0.05, 0.10, 0.15)
PACKET_FLITS = 5
SIM_CYCLES = 2000


def _traffic(rate: float, num_nodes: int, rng: np.random.Generator) -> List[Tuple[int, int, int]]:
    """Uniform-random (src, dst, time) packet list at the offered rate."""
    packets = []
    for time in range(SIM_CYCLES):
        for src in range(num_nodes):
            if rng.random() < rate:
                dst = int(rng.integers(0, num_nodes))
                packets.append((src, dst, time))
    return packets


def _fast_latency(packets, net: MeshNetwork) -> float:
    total = 0
    for src, dst, time in packets:
        total += net.send(src, dst, time, PACKET_FLITS).latency
    return total / len(packets) if packets else 0.0


def _detailed_latency(packets, net: DetailedMeshNetwork) -> float:
    for src, dst, time in packets:
        net.inject(src, dst, PACKET_FLITS, time=max(time, net.cycle))
    stats = net.run(max_cycles=SIM_CYCLES * 50)
    return stats.average_latency


def _render(small: bool = False, seed: int = 0) -> ExperimentResult:
    """Sweep offered load; report both models' average latencies."""
    import numpy as np

    from repro.noc.detailed import DetailedMeshNetwork, DetailedNocConfig
    from repro.noc.network import MeshNetwork, NocConfig

    rng = np.random.default_rng(seed)
    rates = INJECTION_RATES[:3] if small else INJECTION_RATES
    result = ExperimentResult(
        name="NoC calibration",
        description="fast vs detailed mesh model: avg latency vs offered load",
        meta={
            "packet_flits": PACKET_FLITS,
            "expectation": "models agree at low load; both rise with load",
        },
    )
    fast_config = NocConfig()
    detailed_config = DetailedNocConfig()
    num_nodes = fast_config.width * fast_config.height
    for rate in rates:
        packets = _traffic(rate, num_nodes, rng)
        if not packets:
            continue
        label = f"rate-{rate:g}"
        result.add("fast_latency", label, _fast_latency(packets, MeshNetwork(fast_config)))
        result.add(
            "detailed_latency",
            label,
            _detailed_latency(packets, DetailedMeshNetwork(detailed_config)),
        )
    return result


#: The :class:`~repro.experiments.common.Driver` for this
#: experiment — the supported entry point for programmatic use.
DRIVER = Driver(name="ablate-noc-model", render_fn=_render, swept=False)

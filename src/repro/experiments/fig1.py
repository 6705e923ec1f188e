"""Figure 1: bodytrack output, precise vs approximate execution.

The paper's opening figure shows two bodytrack output frames side by side
— precise execution and execution under LVA at the baseline configuration
— with 7.7 % output error and visually indiscernible results. This driver
reproduces the comparison quantitatively (per-timestep track drift and the
pair-wise output error) and, when given an output directory, renders the
two tracked frames as PGM images exactly like
``examples/figure1_bodytrack.py``.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from repro.experiments.common import Driver, ExperimentResult, run_precise_reference
from repro.sim.mode import Mode

WORKLOAD = "bodytrack"


def _render(small: bool = False, seed: int = 0) -> ExperimentResult:
    """Run bodytrack precisely and under baseline LVA; compare the tracks.

    The LVA run is simulated here on every call, so this is the one
    render that imports the simulator even when the caches are warm.
    When the precise reference is a FAILED placeholder (while points are
    declared, or after its sweep point failed), the summary reads FAILED
    and nothing is simulated.
    """
    result = ExperimentResult(
        name="Figure 1",
        description="bodytrack output: precise vs approximate execution",
        meta={"paper_output_error": 0.077},
    )
    reference = run_precise_reference(WORKLOAD, seed=seed, small=small)
    if math.isnan(reference.mpki):
        for row in ("output_error", "coverage", "effective_mpki"):
            result.add("summary", row, float("nan"))
        return result

    from repro.sim.tracesim import TraceSimulator
    from repro.workloads.registry import get_workload

    workload = get_workload(WORKLOAD, small=small)
    sim = TraceSimulator(Mode.LVA)
    approx = workload.execute(sim, seed)
    stats = sim.finish()
    error = workload.output_error(reference.output, approx)

    result.add("summary", "output_error", error)
    result.add("summary", "coverage", stats.coverage)
    result.add("summary", "effective_mpki", stats.mpki)
    for t, ((px, py), (ax, ay)) in enumerate(zip(reference.output, approx)):
        result.add("track_drift_px", f"t{t}", math.hypot(ax - px, ay - py))
    return result


def render_frames(
    precise: List[Tuple[float, float]],
    approx: List[Tuple[float, float]],
    out_dir: str,
    small: bool = False,
) -> Tuple[str, str]:
    """Write the two tracked frames as PGM images; returns their paths.

    Separated from :func:`_render` so the experiment stays artefact-free by
    default; the example script wires the two together.
    """
    import numpy as np

    from repro.workloads.registry import get_workload

    workload = get_workload(WORKLOAD, small=small)

    def render(estimates) -> "np.ndarray":
        rng = np.random.default_rng(999)
        centre = workload._true_path(workload.params["timesteps"] - 1)
        image = workload._render(rng, centre).astype(np.int64)
        height, width = image.shape
        for t, (x, y) in enumerate(estimates):
            radius = 2 if t == len(estimates) - 1 else 1
            cx, cy = int(round(x)), int(round(y))
            for dy in range(-radius, radius + 1):
                for dx in range(-radius, radius + 1):
                    if 0 <= cx + dx < width and 0 <= cy + dy < height:
                        image[cy + dy, cx + dx] = 255
        return image

    def write_pgm(path: str, image) -> None:
        height, width = image.shape
        with open(path, "w") as handle:
            handle.write(f"P2\n{width} {height}\n255\n")
            for row in image:
                handle.write(" ".join(str(int(v)) for v in row) + "\n")

    precise_path = f"{out_dir}/figure1_precise.pgm"
    approx_path = f"{out_dir}/figure1_approximate.pgm"
    write_pgm(precise_path, render(precise))
    write_pgm(approx_path, render(approx))
    return precise_path, approx_path


#: The :class:`~repro.experiments.common.Driver` for this
#: experiment — the supported entry point for programmatic use.
DRIVER = Driver(name="fig1", render_fn=_render)

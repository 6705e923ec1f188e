"""canneal — simulated-annealing chip placement (PARSEC CAD kernel).

Blocks live on a 2-D grid and are connected by nets; the annealer proposes
random block swaps and accepts them based on the change in routing cost
(total Manhattan wire length to each block's net neighbours). Following
Section IV-A, only the integer ``<x, y>`` coordinates read *inside the cost
functions* are annotated approximate; the positions themselves (and the
stores that swap them) stay precise, and memory addresses/pointers are
never approximated.

The random-swap traffic over a placement larger than the L1 gives canneal
the highest MPKI in Table I (12.50), and the constant swapping makes its
output uniquely sensitive to stale training data (the value-delay study of
Figure 7).

Output error: relative difference between the final routing cost of the
approximate and the precise execution — tolerable because the annealer is
itself a heuristic.
"""

from __future__ import annotations

import math
import numpy as np

from repro.errors import WorkloadError
from repro.sim.frontend import MemoryFrontend
from repro.workloads.base import Workload


class Canneal(Workload):
    """Anneal a random netlist placement with approximate cost reads."""

    name = "canneal"
    float_data = False
    workload_id = 3

    def default_params(self) -> dict:
        return {
            "n_blocks": 8192,
            "fanout": 4,
            "grid_width": 256,
            "grid_height": 64,
            "steps": 4000,
            "initial_temperature": 40.0,
            "cooling": 0.9985,
            #: Non-load instructions per annealing step (swap bookkeeping,
            #: cost arithmetic); calibrates precise MPKI towards Table I.
            "compute_cost": 850,
        }

    @staticmethod
    def small_params() -> dict:
        return {"n_blocks": 512, "steps": 300, "grid_width": 64, "grid_height": 16}

    def _routing_cost(self, pos: np.ndarray, nets: np.ndarray) -> float:
        """Precise total wirelength of a placement (output metric)."""
        src = pos
        dst = pos[nets]  # (n_blocks, fanout, 2)
        return float(
            np.abs(dst - src[:, None, :]).sum()
        )

    def run(self, mem: MemoryFrontend, rng: np.random.Generator) -> float:
        n = self.params["n_blocks"]
        fanout = self.params["fanout"]
        width = self.params["grid_width"]
        height = self.params["grid_height"]
        steps = self.params["steps"]
        temperature = self.params["initial_temperature"]
        cooling = self.params["cooling"]
        cost = self.params["compute_cost"]

        if n > width * height:
            raise WorkloadError(
                f"canneal: {n} blocks cannot be placed on a {width}x{height} grid"
            )

        # Random initial placement (a permutation of grid cells) and netlist.
        cells = rng.permutation(width * height)[:n]
        pos = np.stack([cells % width, cells // width], axis=1).astype(np.int64)
        nets = rng.integers(0, n, size=(n, fanout))

        # The annealer works on Python ints: ``place[i]`` is block i's
        # [x, y], and the final placement goes back to int64 for scoring.
        place = pos.tolist()
        region_x = mem.space.alloc("block_x", n)
        region_y = mem.space.alloc("block_y", n)
        region_net = mem.space.alloc("netlist", n * fanout)
        store = mem.store
        for i, ((x, y), net) in enumerate(zip(place, nets.tolist())):
            store(region_x.addr(i), x)
            store(region_y.addr(i), y)
            for k in range(fanout):
                store(region_net.addr(i * fanout + k), net[k])

        pc_x = [self.pcs.site(f"fan_x_{k}") for k in range(fanout)]
        pc_y = [self.pcs.site(f"fan_y_{k}") for k in range(fanout)]
        pc_net = [self.pcs.site(f"net_ptr_{k}") for k in range(fanout)]

        # Pre-draw every random number so the stream cannot diverge between
        # precise and approximate runs.
        picks_a = rng.integers(0, n, size=steps).tolist()
        picks_b = rng.integers(0, n, size=steps).tolist()
        accept_draws = rng.random(steps).tolist()

        load = mem.load
        load_approx = mem.load_approx
        advance = mem.advance
        per_net = cost // (2 * fanout)

        def swap_delta(block: int, other: int) -> int:
            """Cost delta for moving ``block`` to ``other``'s position,
            reading neighbour coordinates through approximate loads."""
            bx, by = place[block]
            ox, oy = place[other]
            delta = 0
            for k in range(fanout):
                # The net pointer is a memory index and must never be
                # approximated (Section IV); it is a precise load.
                neighbour = load(pc_net[k], region_net.addr(block * fanout + k))
                nx = load_approx(pc_x[k], region_x.addr(neighbour), is_float=False)
                ny = load_approx(pc_y[k], region_y.addr(neighbour), is_float=False)
                # Distance arithmetic interleaves with the loads (the cost
                # function's real instruction mix).
                advance(per_net)
                delta += (abs(ox - nx) + abs(oy - ny)) - (abs(bx - nx) + abs(by - ny))
            return delta

        for step in range(steps):
            mem.set_thread(step % self.threads)
            a = picks_a[step]
            b = picks_b[step]
            if a == b:
                advance(cost - 2 * fanout * per_net)
                temperature *= cooling
                continue
            delta = swap_delta(a, b) + swap_delta(b, a)
            advance(cost - 2 * fanout * per_net)
            accept = delta < 0 or accept_draws[step] < math.exp(
                -delta / max(temperature, 1e-9)
            )
            if accept:
                place[a], place[b] = place[b], place[a]
                store(region_x.addr(a), place[a][0])
                store(region_y.addr(a), place[a][1])
                store(region_x.addr(b), place[b][0])
                store(region_y.addr(b), place[b][1])
            temperature *= cooling

        return self._routing_cost(np.array(place, dtype=np.int64), nets)

    def output_error(self, precise: float, approx: float) -> float:
        """Relative difference in final routing cost (Section IV-A)."""
        if precise == 0:
            return 0.0 if approx == 0 else 1.0
        return min(abs(approx - precise) / abs(precise), 1.0)

"""fluidanimate — smoothed-particle-hydrodynamics fluid step (PARSEC).

Particles in a 2-D box are binned into cells; densities are accumulated
over neighbouring-cell pairs and pressure/viscosity forces integrate the
particle positions forward. Following Section IV-A, the particle state read
during the *density and acceleration* phases (positions and densities) is
annotated approximate; integration and cell binning stay precise.

Particle records are stored at a cache-line-ish stride (32 B) to model the
array-of-structures layout of the real benchmark, which is what gives
fluidanimate its non-trivial MPKI despite heavy locality.

Output error: the percentage of particles that end in a different cell
than under precise execution (Section IV-A).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.sim.frontend import MemoryFrontend
from repro.workloads.base import Workload


class Fluidanimate(Workload):
    """One SPH simulation with approximate density/force reads."""

    name = "fluidanimate"
    float_data = True
    workload_id = 7

    def default_params(self) -> dict:
        return {
            "particles": 512,
            "timesteps": 3,
            "smoothing": 0.06,
            "dt": 0.004,
            "rest_density": 80.0,
            "stiffness": 12.0,
            "gravity": -9.8,
            #: Struct stride in bytes (AoS layout of the real benchmark).
            "stride": 48,
            #: Non-load instructions per interacting pair.
            "compute_cost": 350,
        }

    @staticmethod
    def small_params() -> dict:
        return {"particles": 128, "timesteps": 2}

    def run(self, mem: MemoryFrontend, rng: np.random.Generator) -> List[int]:
        n = self.params["particles"]
        steps = self.params["timesteps"]
        h = self.params["smoothing"]
        dt = self.params["dt"]
        rest = self.params["rest_density"]
        stiffness = self.params["stiffness"]
        gravity = self.params["gravity"]
        stride = self.params["stride"]
        cost = self.params["compute_cost"]

        # A dam-break style initial configuration. The box spans
        # [ORIGIN, ORIGIN + 1] in world coordinates — the real benchmark
        # simulates in un-normalised world space, which matters for the
        # relative confidence window.
        origin = 8.0
        # Positions and velocities become Python floats once. Densities
        # stay an array: assigning into it casts to its dtype.
        px = rng.uniform(origin + 0.05, origin + 0.55, size=n).tolist()
        py = rng.uniform(origin + 0.05, origin + 0.95, size=n).tolist()
        vx = [0.0] * n
        vy = [0.0] * n
        rho = np.full(n, rest)

        region_x = mem.space.alloc("px", n, itemsize=stride)
        region_y = mem.space.alloc("py", n, itemsize=stride)
        region_rho = mem.space.alloc("rho", n, itemsize=stride)
        # The cell lists are index (pointer) data and are therefore read
        # precisely (Section IV: never approximate memory addresses).
        region_idx = mem.space.alloc("cell_entries", n)

        def publish(i: int) -> None:
            mem.store(region_x.addr(i), px[i])
            mem.store(region_y.addr(i), py[i])
            mem.store(region_rho.addr(i), float(rho[i]))

        for i in range(n):
            publish(i)

        pc_idx = self.pcs.site("cell_entry")
        pc_dx = self.pcs.site("density_x")
        pc_dy = self.pcs.site("density_y")
        pc_fx = self.pcs.site("force_x")
        pc_fy = self.pcs.site("force_y")
        pc_frho = self.pcs.site("force_rho")

        grid = max(int(1.0 / h), 1)

        def cell_of(x: float, y: float) -> int:
            cx = min(max(int((x - origin) * grid), 0), grid - 1)
            cy = min(max(int((y - origin) * grid), 0), grid - 1)
            return cy * grid + cx

        def build_cells() -> dict:
            """Bin particles into cells and publish the flattened cell
            entry array; returns cell -> (start_slot, count)."""
            cells: dict = {}
            for i in range(n):
                cells.setdefault(cell_of(px[i], py[i]), []).append(i)
            spans: dict = {}
            slot = 0
            for cell, members in cells.items():
                spans[cell] = (slot, len(members))
                for member in members:
                    mem.store(region_idx.addr(slot), member)
                    slot += 1
            return spans

        def neighbour_slots(i: int, spans: dict) -> List[int]:
            cx = min(max(int((px[i] - origin) * grid), 0), grid - 1)
            cy = min(max(int((py[i] - origin) * grid), 0), grid - 1)
            found: List[int] = []
            for oy in (-1, 0, 1):
                for ox in (-1, 0, 1):
                    nx, ny = cx + ox, cy + oy
                    if 0 <= nx < grid and 0 <= ny < grid:
                        start, count = spans.get(ny * grid + nx, (0, 0))
                        found.extend(range(start, start + count))
            return found

        load = mem.load
        load_approx = mem.load_approx
        advance = mem.advance
        h2 = h * h
        for step in range(steps):
            spans = build_cells()

            # Density pass: approximate reads of neighbour positions.
            for i in range(n):
                mem.set_thread(i % self.threads)
                density = 0.0
                xi, yi = px[i], py[i]
                for slot in neighbour_slots(i, spans):
                    j = load(pc_idx, region_idx.addr(slot))
                    xj = load_approx(pc_dx, region_x.addr(j))
                    yj = load_approx(pc_dy, region_y.addr(j))
                    advance(cost)
                    r2 = (xi - xj) ** 2 + (yi - yj) ** 2
                    if r2 < h2:
                        w = 1.0 - r2 / h2
                        density += w * w * w
                rho[i] = rest * density
                mem.store(region_rho.addr(i), float(rho[i]))

            # Force pass: approximate reads of neighbour state.
            for i in range(n):
                mem.set_thread(i % self.threads)
                ax, ay = 0.0, gravity
                pressure_i = stiffness * (rho[i].item() - rest)
                xi, yi = px[i], py[i]
                for slot in neighbour_slots(i, spans):
                    j = load(pc_idx, region_idx.addr(slot))
                    if j == i:
                        continue
                    xj = load_approx(pc_fx, region_x.addr(j))
                    yj = load_approx(pc_fy, region_y.addr(j))
                    rho_j = load_approx(pc_frho, region_rho.addr(j))
                    advance(cost)
                    dx = xi - xj
                    dy = yi - yj
                    r2 = dx * dx + dy * dy
                    if 1e-12 < r2 < h2:
                        r = r2 ** 0.5
                        w = 1.0 - r / h
                        pressure_j = stiffness * (max(rho_j, 1e-9) - rest)
                        shared = (pressure_i + pressure_j) * w / (2.0 * max(rho_j, 1e-3) * r)
                        ax += shared * dx
                        ay += shared * dy
                # Integrate precisely (the paper never approximates updates).
                vx[i] = 0.98 * (vx[i] + ax * dt)
                vy[i] = 0.98 * (vy[i] + ay * dt)
                px[i] = min(max(px[i] + vx[i] * dt, origin), origin + 0.999)
                py[i] = min(max(py[i] + vy[i] * dt, origin), origin + 0.999)
                publish(i)

        return [cell_of(px[i], py[i]) for i in range(n)]

    def output_error(self, precise: List[int], approx: List[int]) -> float:
        """Fraction of particles in a different final cell (Section IV-A)."""
        assert len(precise) == len(approx)
        if not precise:
            return 0.0
        mismatched = sum(1 for p, a in zip(precise, approx) if p != a)
        return mismatched / len(precise)

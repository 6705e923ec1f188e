"""bodytrack — annealed-particle-filter body tracking (PARSEC vision app).

A synthetic body (a bright elliptical blob) moves across four camera image
maps; an annealed particle filter tracks its centre. The likelihood of each
particle is computed from the image-map pixel values at a fixed pattern of
sample points around the particle — those integer pixel loads are the
annotated approximate data, exactly the ``(x, y)`` image-map reads the
paper annotates. Pixels have a finite range, so averaging LHB values keeps
approximations in range and error low (Section VI-B's takeaway).

Output error: pair-wise comparison of the estimated body-position vectors
between the precise and the approximate execution, normalised by the image
diagonal (the paper visualises 7.7 % error in Figure 1).
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from repro.sim.frontend import MemoryFrontend
from repro.workloads.base import Workload

_BODY_INTENSITY = 200
_BACKGROUND = 30


class Bodytrack(Workload):
    """Track a moving blob through four noisy camera feeds."""

    name = "bodytrack"
    float_data = False
    workload_id = 4

    def default_params(self) -> dict:
        return {
            "width": 96,
            "height": 64,
            "cameras": 4,
            "particles": 128,
            "timesteps": 8,
            "annealing_layers": 2,
            "sample_points": 16,
            "body_radius": 6.0,
            #: Non-load instructions per particle likelihood evaluation
            #: (exp/weight maths; calibrates MPKI towards Table I's 4.93).
            "compute_cost": 250,
        }

    @staticmethod
    def small_params() -> dict:
        return {
            "width": 64,
            "height": 48,
            "particles": 32,
            "timesteps": 3,
            "annealing_layers": 1,
        }

    # ------------------------------------------------------------------ #
    # Input synthesis                                                    #
    # ------------------------------------------------------------------ #

    def _render(
        self, rng: np.random.Generator, centre: Tuple[float, float]
    ) -> np.ndarray:
        """One camera image: bright ellipse on noisy background."""
        width = self.params["width"]
        height = self.params["height"]
        radius = self.params["body_radius"]
        ys, xs = np.mgrid[0:height, 0:width]
        dist2 = ((xs - centre[0]) / radius) ** 2 + ((ys - centre[1]) / (1.6 * radius)) ** 2
        image = np.where(dist2 <= 1.0, _BODY_INTENSITY, _BACKGROUND)
        image = image + rng.integers(-10, 11, size=image.shape)
        return np.clip(image, 0, 255).astype(np.int64)

    def _true_path(self, t: int) -> Tuple[float, float]:
        """Ground-truth body centre at timestep ``t`` (a gentle arc)."""
        width = self.params["width"]
        height = self.params["height"]
        frac = t / max(self.params["timesteps"] - 1, 1)
        x = width * (0.30 + 0.40 * frac)
        y = height * (0.50 + 0.15 * math.sin(2 * math.pi * frac))
        return x, y

    # ------------------------------------------------------------------ #
    # The particle filter                                                #
    # ------------------------------------------------------------------ #

    def run(self, mem: MemoryFrontend, rng: np.random.Generator) -> List[Tuple[float, float]]:
        width = self.params["width"]
        height = self.params["height"]
        cameras = self.params["cameras"]
        n_particles = self.params["particles"]
        timesteps = self.params["timesteps"]
        layers = self.params["annealing_layers"]
        n_points = self.params["sample_points"]
        cost = self.params["compute_cost"]

        # Fixed likelihood sampling pattern (a ring around the particle).
        angles = np.linspace(0, 2 * math.pi, n_points, endpoint=False)
        pattern = np.stack(
            [0.6 * self.params["body_radius"] * np.cos(angles),
             0.6 * self.params["body_radius"] * np.sin(angles)],
            axis=1,
        )

        regions = [
            mem.space.alloc(f"camera_{c}", width * height) for c in range(cameras)
        ]
        # Edge maps participate in the likelihood too but are *not*
        # annotated (the paper approximates only the image-map values), so
        # their loads stay precise and contribute background misses.
        edge_regions = [
            mem.space.alloc(f"edges_{c}", width * height) for c in range(cameras)
        ]
        pcs = [
            [self.pcs.site(f"pixel_c{c}_p{p}") for p in range(n_points)]
            for c in range(cameras)
        ]
        edge_pcs = [
            [self.pcs.site(f"edge_c{c}_p{p}") for p in range(0, n_points, 4)]
            for c in range(cameras)
        ]

        # Pre-render and store every frame for every camera up front; the
        # rng stream is identical across precise/approximate runs.
        frames = []
        for t in range(timesteps):
            centre = self._true_path(t)
            views = [self._render(rng, centre) for _ in range(cameras)]
            frames.append(views)

        # Pre-draw all filter randomness.
        diffusion = rng.normal(0, 2.0, size=(timesteps, layers, n_particles, 2))
        resample_u = rng.random(size=(timesteps, layers))

        start = self._true_path(0)
        particles = np.full((n_particles, 2), start, dtype=float)
        particles += rng.normal(0, 3.0, size=particles.shape)

        estimates: List[Tuple[float, float]] = []
        for t in range(timesteps):
            # "Capture": store this timestep's frames and their edge maps.
            for c in range(cameras):
                image = frames[t][c]
                edges = np.abs(np.diff(image, axis=1, prepend=image[:, :1]))
                # Camera frames arrive by DMA: streaming stores that
                # invalidate any stale cached copy. They touch no recency
                # and no load runs in between, so storing the whole image
                # and then the whole edge map leaves the same cache state
                # as interleaving them pixel by pixel.
                mem.store_many(regions[c], image.ravel().tolist())
                mem.store_many(edge_regions[c], edges.ravel().tolist())

            for layer in range(layers):
                weights = np.zeros(n_particles)
                for p in range(n_particles):
                    mem.set_thread(p % self.threads)
                    err = 0.0
                    px, py = particles[p]
                    for c in range(cameras):
                        for k in range(n_points):
                            x = int(round(px + pattern[k, 0])) % width
                            y = int(round(py + pattern[k, 1])) % height
                            pixel = mem.load_approx(
                                pcs[c][k], regions[c].addr(y * width + x),
                                is_float=False,
                            )
                            diff = (pixel - _BODY_INTENSITY) / 255.0
                            err += diff * diff
                            if k % 4 == 0:
                                edge = mem.load(
                                    edge_pcs[c][k // 4],
                                    edge_regions[c].addr(y * width + x),
                                )
                                err += 0.1 * (edge / 255.0) ** 2
                            # Per-sample error arithmetic interleaves with
                            # the pixel loads.
                            mem.advance(3)
                    mem.advance(cost - 3 * cameras * n_points)
                    # Annealed likelihood: later layers sharpen the peak.
                    beta = 0.5 * (layer + 1)
                    weights[p] = math.exp(-beta * err / (cameras * n_points) * 40.0)

                total = weights.sum()
                if total <= 0:
                    weights[:] = 1.0 / n_particles
                else:
                    weights /= total

                # Systematic resampling with a pre-drawn offset.
                positions = (resample_u[t, layer] + np.arange(n_particles)) / n_particles
                cumulative = np.cumsum(weights)
                indices = np.searchsorted(cumulative, positions)
                indices = np.clip(indices, 0, n_particles - 1)
                particles = particles[indices] + diffusion[t, layer]

            # The weighted-mean estimate for this timestep.
            estimates.append((float(particles[:, 0].mean()), float(particles[:, 1].mean())))
        return estimates

    def output_error(
        self,
        precise: List[Tuple[float, float]],
        approx: List[Tuple[float, float]],
    ) -> float:
        """Mean pair-wise vector distance, normalised by the image diagonal."""
        assert len(precise) == len(approx)
        diagonal = math.hypot(self.params["width"], self.params["height"])
        if not precise:
            return 0.0
        total = 0.0
        for (px, py), (ax, ay) in zip(precise, approx):
            total += math.hypot(ax - px, ay - py) / diagonal
        return min(total / len(precise), 1.0)

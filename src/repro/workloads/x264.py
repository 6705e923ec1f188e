"""x264 — H.264 motion estimation (PARSEC media kernel).

Encodes a short synthetic sequence: each frame is the previous frame
translated by a slowly varying global motion plus per-pixel noise, the
pattern block-matching motion estimation exploits. For every 16x16
macroblock a diamond search scans candidate motion vectors, scoring each by
the sum of absolute differences (SAD) over a subsampled point pattern; the
*reference-frame pixel loads* inside the SAD are the annotated approximate
data (integer pixels, as in the paper). Motion estimation is the hottest
region of x264 and touches hundreds of static load PCs — Figure 12 reports
up to ~300, the most of any benchmark — reproduced here by the unrolled
(point, candidate) load sites.

Output error: the paper compares peak signal-to-noise ratio and bit rate,
weighted equally. We compute the PSNR of the motion-compensated prediction
and a bit-rate proxy (residual energy plus motion-vector magnitude bits)
and average their relative changes.
"""

from __future__ import annotations

import math
from typing import Dict, List

import numpy as np

from repro.sim.frontend import MemoryFrontend
from repro.workloads.base import Workload

#: Diamond-search offsets explored around the current best vector.
_DIAMOND = [(0, 0), (0, -2), (0, 2), (-2, 0), (2, 0), (-1, -1), (1, 1), (-1, 1), (1, -1)]


class X264(Workload):
    """Motion-estimate a synthetic sequence with approximate reference reads."""

    name = "x264"
    float_data = False
    workload_id = 5

    def default_params(self) -> dict:
        return {
            "width": 160,
            "height": 96,
            "frames": 4,
            "block": 16,
            "search_rounds": 3,
            "sample_points": 16,
            #: Non-load instructions per SAD evaluation (interpolation,
            #: cost bookkeeping); calibrates MPKI towards Table I's 0.59.
            "compute_cost": 3400,
        }

    @staticmethod
    def small_params() -> dict:
        return {"width": 64, "height": 48, "frames": 2, "search_rounds": 2}

    def _sequence(self, rng: np.random.Generator) -> List[np.ndarray]:
        """Synthesise frames: textured base translated by global motion."""
        width = self.params["width"]
        height = self.params["height"]
        frames = self.params["frames"]
        ys, xs = np.mgrid[0:height, 0:width]
        base = (
            120
            + 60 * np.sin(xs / 7.0)
            + 40 * np.cos(ys / 5.0)
            + 20 * np.sin((xs + ys) / 11.0)
        )
        sequence = []
        for f in range(frames):
            dx, dy = 2 * f + 1, f  # slowly varying global motion
            shifted = np.roll(np.roll(base, dy, axis=0), dx, axis=1)
            noisy = shifted + rng.integers(-4, 5, size=base.shape)
            sequence.append(np.clip(noisy, 0, 255).astype(np.int64))
        return sequence

    def run(self, mem: MemoryFrontend, rng: np.random.Generator) -> Dict[str, float]:
        width = self.params["width"]
        height = self.params["height"]
        block = self.params["block"]
        rounds = self.params["search_rounds"]
        n_points = self.params["sample_points"]
        cost = self.params["compute_cost"]

        sequence = self._sequence(rng)
        reference_region = mem.space.alloc("reference_frame", width * height)
        current_region = mem.space.alloc("current_frame", width * height)

        # Subsampled SAD pattern: a deterministic spread inside the block.
        points = [
            ((k * 5) % block, ((k * 7) // block * 5 + k) % block)
            for k in range(n_points)
        ]
        # One PC per (point, candidate) pair: the unrolled SAD inner loop.
        pcs = [
            [self.pcs.site(f"sad_p{k}_c{c}") for c in range(len(_DIAMOND))]
            for k in range(n_points)
        ]
        cur_pcs = [self.pcs.site(f"cur_p{k}") for k in range(n_points)]

        store = mem.store
        load = mem.load
        load_approx = mem.load_approx
        advance = mem.advance
        total_sq_residual = 0.0
        total_mv_bits = 0.0
        n_pixels = 0
        mb_index = 0
        for f in range(1, len(sequence)):
            reference = sequence[f - 1]
            current = sequence[f]
            # "Decode" the reference and capture the current frame. The two
            # stay interleaved: from the third frame on these are write
            # hits on resident blocks, and their order moves LRU stamps.
            for idx, (ref_value, cur_value) in enumerate(
                zip(reference.ravel().tolist(), current.ravel().tolist())
            ):
                store(reference_region.addr(idx), ref_value)
                store(current_region.addr(idx), cur_value)

            for by in range(0, height - block + 1, block):
                for bx in range(0, width - block + 1, block):
                    mem.set_thread(mb_index % self.threads)
                    mb_index += 1
                    best_mv, best_sad = (0, 0), float("inf")
                    centre = (0, 0)
                    for _ in range(rounds):
                        improved = False
                        for c, (ox, oy) in enumerate(_DIAMOND):
                            mvx, mvy = centre[0] + ox, centre[1] + oy
                            sad = 0
                            for k, (px, py) in enumerate(points):
                                rx = (bx + px + mvx) % width
                                ry = (by + py + mvy) % height
                                ref_pixel = load_approx(
                                    pcs[k][c],
                                    reference_region.addr(ry * width + rx),
                                    is_float=False,
                                )
                                # Current-frame pixels are being encoded and
                                # are never annotated: a precise load.
                                cur_pixel = load(
                                    cur_pcs[k],
                                    current_region.addr((by + py) * width + (bx + px)),
                                )
                                sad += abs(cur_pixel - ref_pixel)
                            advance(cost)
                            if sad < best_sad:
                                best_sad = sad
                                best_mv = (mvx, mvy)
                                improved = True
                        if not improved:
                            break
                        centre = best_mv

                    # Encode: the residual is computed from *precise* pixels
                    # (only the search decision was approximate).
                    mvx, mvy = best_mv
                    pred = np.roll(
                        np.roll(reference, -mvy, axis=0), -mvx, axis=1
                    )[by : by + block, bx : bx + block]
                    residual = current[by : by + block, bx : bx + block] - pred
                    total_sq_residual += float((residual.astype(float) ** 2).sum())
                    total_mv_bits += 2 + abs(mvx) + abs(mvy)
                    n_pixels += block * block

        mse = total_sq_residual / max(n_pixels, 1)
        psnr = 10 * math.log10(255.0 * 255.0 / max(mse, 1e-9))
        bits = total_mv_bits + total_sq_residual / 64.0
        return {"psnr": psnr, "bits": bits}

    def output_error(self, precise: Dict[str, float], approx: Dict[str, float]) -> float:
        """PSNR and bit-rate changes, weighted equally (Section IV-A)."""
        psnr_err = abs(approx["psnr"] - precise["psnr"]) / max(abs(precise["psnr"]), 1e-9)
        bits_err = abs(approx["bits"] - precise["bits"]) / max(abs(precise["bits"]), 1e-9)
        return min(0.5 * psnr_err + 0.5 * bits_err, 1.0)

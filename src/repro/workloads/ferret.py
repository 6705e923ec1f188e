"""ferret — content-based image similarity search (PARSEC server app).

A database of image-segment feature vectors is scanned for each query; the
closest K database entries are returned. The floating-point feature-vector
elements are the annotated approximate data — and, as the paper observes,
they have no discrete range or apparent pattern, and distinct vectors are
loaded by a *single* static PC per dimension, which makes ferret the least
approximable benchmark (its error is also measured pessimistically).

Output error: 1 - |approximate results ∩ precise results| / |precise
results|, averaged over queries (Section IV-A, after [39]).
"""

from __future__ import annotations

from typing import List, Set

import numpy as np

from repro.sim.frontend import MemoryFrontend
from repro.workloads.base import Workload


class Ferret(Workload):
    """Top-K nearest-neighbour search with approximate vector reads."""

    name = "ferret"
    float_data = True
    workload_id = 6

    def default_params(self) -> dict:
        return {
            "database_size": 2048,
            "dimensions": 8,
            "queries": 16,
            "top_k": 8,
            #: Clusters in the synthetic feature space (images of the same
            #: scene share a cluster, giving the search something to find).
            "clusters": 24,
            #: Non-load instructions per candidate distance computation
            #: (ranking/heap bookkeeping; calibrates MPKI towards Table I).
            "compute_cost": 600,
        }

    @staticmethod
    def small_params() -> dict:
        return {"database_size": 128, "queries": 8, "clusters": 8}

    def run(self, mem: MemoryFrontend, rng: np.random.Generator) -> List[Set[int]]:
        n = self.params["database_size"]
        dims = self.params["dimensions"]
        n_queries = self.params["queries"]
        top_k = self.params["top_k"]
        clusters = self.params["clusters"]
        cost = self.params["compute_cost"]

        # Feature vectors model colour/texture histograms: every
        # dimension has a characteristic scale (low-frequency bins carry
        # more mass), clusters modulate it multiplicatively, and noise adds
        # the paper's "no discrete range or apparent pattern" spread.
        scales = rng.uniform(0.3, 1.5, size=dims)
        cluster_mod = 1.0 + rng.normal(0, 0.15, size=(clusters, dims))
        assignment = rng.integers(0, clusters, size=n)
        database = np.abs(
            scales * cluster_mod[assignment] * (1.0 + rng.normal(0, 0.07, size=(n, dims)))
        )
        query_clusters = rng.integers(0, clusters, size=n_queries)
        queries = np.abs(
            scales
            * cluster_mod[query_clusters]
            * (1.0 + rng.normal(0, 0.07, size=(n_queries, dims)))
        )

        region = mem.space.alloc("features", n * dims)
        # Each database entry also carries a segment descriptor (image id,
        # segment bounds) that the search reads precisely; it is laid out as
        # a separate 64-byte record per entry, so the descriptor walk
        # contributes background precise misses like the real ferret's
        # metadata traversal.
        region_meta = mem.space.alloc("segment_meta", n, itemsize=64)
        for i, row in enumerate(database.tolist()):
            for d in range(dims):
                mem.store(region.addr(i * dims + d), row[d])
            mem.store(region_meta.addr(i), i)

        # One static PC per dimension of the distance loop — the paper notes
        # different feature vectors stream through a single PC.
        pcs = [self.pcs.site(f"feature_dim_{d}") for d in range(dims)]
        pc_meta = self.pcs.site("segment_meta")

        load = mem.load
        load_approx = mem.load_approx
        advance = mem.advance
        results: List[Set[int]] = []
        for q, query in enumerate(queries.tolist()):
            mem.set_thread(q % self.threads)
            distances = np.empty(n)
            for i in range(n):
                # Walk the segment descriptor first (a precise pointer-like
                # load), then the feature vector (annotated approximate).
                entry = load(pc_meta, region_meta.addr(i))
                dist = 0.0
                base = entry * dims
                for d in range(dims):
                    value = load_approx(pcs[d], region.addr(base + d))
                    diff = value - query[d]
                    dist += diff * diff
                advance(cost)
                distances[i] = dist
            order = np.argsort(distances, kind="stable")
            results.append(set(int(i) for i in order[:top_k]))
        return results

    def output_error(self, precise: List[Set[int]], approx: List[Set[int]]) -> float:
        """1 - mean overlap with the precise result sets (pessimistic)."""
        assert len(precise) == len(approx)
        if not precise:
            return 0.0
        total = 0.0
        for p_set, a_set in zip(precise, approx):
            if not p_set:
                continue
            total += 1.0 - len(p_set & a_set) / len(p_set)
        return total / len(precise)

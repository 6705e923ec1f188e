"""Figure 12 benchmark: static approximate-load PC counts.

Shape checks: the annotated-load footprint is tiny — at most a few hundred
static PCs (the paper's maximum is ~300, for x264), with x264 the largest
and every benchmark far below the 512-entry table size. This is why GHB 0
(PC-only indexing) works and why small tables suffice (Section VII-A).
"""

from repro.experiments import fig12


def test_fig12(once):
    result = once(fig12.DRIVER.render)
    counts = result.series["static_approx_pcs"]

    assert counts["x264"] == max(counts.values())
    assert counts["x264"] <= 320  # the paper's "at most 300" scale
    for name, count in counts.items():
        assert count < 512, name  # fits the baseline table

    # Most benchmarks need only a handful of PCs.
    small = [c for c in counts.values() if c <= 64]
    assert len(small) >= 5

    print()
    print(result.format_table())

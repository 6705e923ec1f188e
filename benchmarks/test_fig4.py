"""Figure 4 benchmark: LVA vs idealized LVP across GHB sizes.

Shape checks: LVA achieves lower average normalized MPKI than the
idealized LVP at the baseline GHB size; MPKI tends to rise with GHB size
(hashing fragments the index); all normalized values stay in [0, ~1].
"""

from repro.experiments import fig4


def test_fig4(once):
    result = once(fig4.DRIVER.render)

    # LVA beats the idealized predictor at the paper's baseline (GHB 0).
    assert result.average("LVA-GHB-0") < result.average("LVP-GHB-0")

    # MPKI tends to increase with GHB size for LVA (Section VI-A).
    assert result.average("LVA-GHB-0") < result.average("LVA-GHB-4")

    # Idealized LVP is an upper bound, never *increasing* MPKI.
    for ghb in (0, 1, 2, 4):
        for workload, value in result.series[f"LVP-GHB-{ghb}"].items():
            assert value <= 1.001, (ghb, workload)

    print()
    print(result.format_table())

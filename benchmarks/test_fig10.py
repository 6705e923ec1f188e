"""Figure 10 benchmark: full-system speedup and energy savings.

Shape checks against Section VI-E: average speedup in the high single
digits at degree 0 (paper: 8.5 %) with canneal the biggest winner
(paper: 28.6 %); energy savings grow with approximation degree (paper:
7.2 % at degree 4, 12.6 % at degree 16), while degree 0 saves little or
nothing (every block is still fetched and the approximator adds its own
accesses).
"""

from repro.experiments import fig10


def test_fig10(once):
    result = once(fig10.DRIVER.render)

    speedup0 = result.average("speedup-approx-0")
    assert 0.02 < speedup0 < 0.25  # the paper's 8.5% band

    # canneal wins by the largest margin, as in the paper.
    per_workload = result.series["speedup-approx-0"]
    assert per_workload["canneal"] == max(per_workload.values())
    assert per_workload["canneal"] > 0.15

    # The memory-bound trio improves with degree (Section VI-E).
    for name in ("canneal", "bodytrack", "fluidanimate"):
        assert (
            result.series["speedup-approx-16"][name]
            >= result.series["speedup-approx-0"][name] - 0.02
        ), name

    # Energy savings grow with degree and are solidly positive at 16.
    energy = [result.average(f"energy-approx-{d}") for d in (0, 4, 16)]
    assert energy[2] > energy[1] > energy[0]
    assert energy[2] > 0.08  # paper: 12.6% on average

    print()
    print(result.format_table())

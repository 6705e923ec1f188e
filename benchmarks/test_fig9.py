"""Figure 9 benchmark: output error across approximation degrees.

Shape checks: error rises with degree on average (stale approximations),
while the best-behaved integer benchmarks stay low even at degree 16.
"""

from repro.experiments import fig9


def test_fig9(once):
    result = once(fig9.DRIVER.render)
    print()
    print(result.format_table())

    averages = [result.average(f"approx-{d}") for d in (0, 2, 4, 8, 16)]

    # The energy-error trade-off: degree 16 is worse than degree 0.
    assert averages[-1] >= averages[0]

    # All errors remain bounded in [0, 1].
    for series in result.series.values():
        for value in series.values():
            assert 0.0 <= value <= 1.0

    # x264 starts near zero and its error *rises* with degree (our
    # mini-encoder's bit-rate proxy saturates faster than a real encoder
    # at high degree — see EXPERIMENTS.md known deviations).
    assert result.series["approx-0"]["x264"] < 0.05
    assert result.series["approx-16"]["x264"] >= result.series["approx-0"]["x264"]

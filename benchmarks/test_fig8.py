"""Figure 8 benchmark: approximation degree vs prefetch degree.

Shape checks: both techniques reduce MPKI, but their fetch behaviour
diverges — prefetching fetches *more* blocks than precise execution (and
more with higher degree), while LVA fetches *fewer* (and fewer with higher
degree). This is the crossover the paper builds its energy argument on:
degree-16 prefetching raised fetches by ~73 % while degree-16 LVA cut them
by ~39 %.
"""

from repro.experiments import fig8


def test_fig8(once):
    result = once(fig8.DRIVER.render)

    prefetch_fetches = [result.average(f"prefetch-{d}-fetches") for d in (2, 4, 8, 16)]
    approx_fetches = [result.average(f"approx-{d}-fetches") for d in (2, 4, 8, 16)]

    # Prefetching sits above 1.0 and grows with degree.
    assert all(value > 1.0 for value in prefetch_fetches)
    assert prefetch_fetches[-1] > prefetch_fetches[0]

    # LVA sits below 1.0 and falls with degree.
    assert all(value < 1.0 for value in approx_fetches)
    assert approx_fetches[-1] < approx_fetches[0]

    # Rough factors: degree-16 prefetching well above 1.3x, degree-16 LVA
    # well below 0.8x — the direction and magnitude class of the paper's
    # +73 % / -39 %.
    assert prefetch_fetches[-1] > 1.3
    assert approx_fetches[-1] < 0.8

    # Both reduce MPKI relative to precise execution on average.
    assert result.average("prefetch-16-mpki") < 1.0
    assert result.average("approx-16-mpki") < 1.0

    print()
    print(result.format_table())

"""Figure 7 benchmark: value-delay resilience.

Shape checks: LVA tolerates stale training data — average MPKI and output
error barely move between delays of 4 and 32 load instructions, and
canneal (whose positions are constantly swapped) is the benchmark whose
error is most sensitive to the delay.
"""

from repro.experiments import fig7


def test_fig7(once):
    result = once(fig7.DRIVER.render)

    # Average MPKI varies by only a small margin across the whole sweep.
    mpki = [result.average(f"mpki-delay-{d}") for d in (4, 8, 16, 32)]
    assert max(mpki) - min(mpki) < 0.10

    # Average error is flat too.
    error = [result.average(f"error-delay-{d}") for d in (4, 8, 16, 32)]
    assert max(error) - min(error) < 0.05

    # canneal is the most delay-sensitive application (Section VI-C).
    def spread(workload):
        values = [result.series[f"error-delay-{d}"][workload] for d in (4, 8, 16, 32)]
        return max(values) - min(values)

    stable = {"blackscholes", "bodytrack", "x264", "swaptions", "fluidanimate"}
    assert spread("canneal") >= max(spread(w) for w in stable) - 0.01

    print()
    print(result.format_table())

"""Figure 6 benchmark: relaxed confidence windows.

Shape checks: the performance-error trade-off — MPKI falls monotonically
(on average) as the window widens from 0 % to infinite, while output error
rises; the 0 % window (exact matching) has near-zero error.
"""

from repro.experiments import fig6


def test_fig6(once):
    result = once(fig6.DRIVER.render)

    mpki = [result.average(f"mpki-{label}") for label in ("0%", "5%", "10%", "20%", "infinite")]
    error = [result.average(f"error-{label}") for label in ("0%", "5%", "10%", "20%", "infinite")]

    # MPKI is (weakly) monotone decreasing across the sweep.
    for tighter, wider in zip(mpki, mpki[1:]):
        assert wider <= tighter + 0.02

    # The widest window approximates far more than exact matching.
    assert mpki[-1] < 0.6 * mpki[0]

    # Error moves the other way: near zero at 0 %, highest at infinite.
    assert error[0] < 0.01
    assert error[-1] > error[0]

    print()
    print(result.format_table())

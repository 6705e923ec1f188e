"""Figure 13 benchmark: float mantissa truncation vs fluidanimate MPKI.

Shape checks: with GHB 2, dropping low-order single-precision mantissa
bits before hashing improves approximate value locality, so normalized
MPKI falls as more bits are removed, while fluidanimate's output error
stays low (the paper: around 10 % even at full truncation).
"""

from repro.experiments import fig13


def test_fig13(once):
    result = once(fig13.DRIVER.render)
    mpki = result.series["normalized_mpki"]
    error = result.series["output_error"]

    # Direction: more precision loss, lower MPKI.
    assert mpki["drop-23"] < mpki["drop-11"] <= mpki["drop-0"] + 0.02
    assert mpki["drop-17"] < mpki["drop-0"]

    # Error remains low even with the whole mantissa dropped.
    assert all(value < 0.15 for value in error.values())

    print()
    print(result.format_table())

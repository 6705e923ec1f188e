"""Figure 11 benchmark: L1-miss energy-delay product.

Shape checks: normalized miss EDP is below 1.0 on average at every degree
and improves monotonically with degree — the paper reports 0.58, 0.46 and
0.36 at degrees 0, 4 and 16. Less-approximable applications (ferret) sit
near 1.0 at degree 0.
"""

from repro.experiments import fig11


def test_fig11(once):
    result = once(fig11.DRIVER.render)

    averages = {d: result.average(f"approx-{d}") for d in (0, 2, 4, 8, 16)}

    # EDP improves (falls) as the approximation degree grows.
    assert averages[16] < averages[4] < averages[0]

    # Average reductions in the paper's band: well below precise execution.
    assert averages[0] < 0.85
    assert averages[16] < 0.50

    # ferret barely benefits (the paper's least amenable benchmark).
    assert result.series["approx-0"]["ferret"] > 0.8

    print()
    print(result.format_table())

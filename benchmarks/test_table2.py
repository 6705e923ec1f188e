"""Table II benchmark: configuration verification (fast sanity anchor)."""

from repro.experiments import table2


def test_table2(once):
    result = once(table2.DRIVER.render)
    values = result.series["value"]
    assert values["cores"] == 4
    assert values["l1_kb"] == 16
    assert values["l2_kb"] == 512
    assert values["memory_latency"] == 160
    assert values["approx_table_entries"] == 512
    assert values["confidence_window"] == 0.1
    assert values["ghb_entries"] == 0
    assert values["lhb_entries"] == 4
    assert values["approximation_degree"] == 0

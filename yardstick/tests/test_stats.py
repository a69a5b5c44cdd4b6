import pytest

import stats


def test_percentile_interpolates_between_order_statistics():
    values = [10.0, 20.0, 30.0, 40.0]
    assert stats.percentile(values, 0) == 10.0
    assert stats.percentile(values, 100) == 40.0
    assert stats.percentile(values, 50) == 25.0
    # rank 0.95 * 3 = 2.85 -> 30 + 0.85 * 10
    assert stats.percentile(values, 95) == pytest.approx(38.5)
    assert stats.percentile([7.0], 95) == 7.0


def test_percentile_ignores_input_order_and_rejects_nonsense():
    assert stats.percentile([3, 1, 2], 50) == 2.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


def test_supported_tail_needs_ten_samples_beyond():
    assert stats.supported_tail(3000) == 99.0
    assert stats.supported_tail(600) == 95.0
    assert stats.supported_tail(199) == 90.0
    assert stats.supported_tail(48) == 75.0
    assert stats.supported_tail(12) == 50.0


def test_geomean():
    assert stats.geomean([2.0, 8.0]) == pytest.approx(4.0)

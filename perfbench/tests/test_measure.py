import statistics

import pytest

import measure


@pytest.mark.parametrize("n, p", [(20, 50.0), (39, 50.0), (40, 75.0), (50, 80.0),
                                  (75, 80.0), (100, 90.0), (199, 90.0), (200, 95.0),
                                  (1000, 99.0), (10000, 99.9)])
def test_tail_percentile_leaves_ten_above(n, p):
    assert measure.tail_percentile(n) == p
    assert n - measure._rank(p, n) >= 10
    higher = [q for q in measure.TAIL_LADDER if q > p]
    assert all(n - measure._rank(q, n) < 10 for q in higher)


def test_tail_percentile_needs_twenty_samples():
    with pytest.raises(ValueError):
        measure.tail_percentile(19)


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert measure.percentile(values, 50.0) == 50
    assert measure.percentile(values, 95.0) == 95
    assert measure.percentile(values, 99.9) == 100
    assert measure.percentile([7.0], 50.0) == 7.0


def test_covered_merges_overlaps():
    assert measure.covered([]) == 0.0
    assert measure.covered([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert measure.covered([(0.0, 2.0), (1.0, 3.0), (1.5, 2.5)]) == 3.0
    assert measure.covered([(0.0, 4.0), (1.0, 2.0)]) == 4.0


def test_self_time_subtracts_children_and_leaves():
    spans = [
        ("main", 0.0, 10.0, None, "j"),
        ("solve", 1.0, 6.0, 0, "j"),
        ("emit", 7.0, 9.0, 0, "j"),
        ("audit", 2.0, 3.0, 1, "j"),
    ]
    leaf = {1: 1.5, 0: 0.25}
    got = measure.self_times(spans, leaf)
    assert got == pytest.approx([10.0 - 5.0 - 2.0 - 0.25, 5.0 - 1.0 - 1.5, 2.0, 1.0])
    # self times plus leaf time add back up to the root span
    assert sum(got) + sum(leaf.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once_and_clips():
    spans = [
        ("p", 0.0, 4.0, None, "j"),
        ("c", 1.0, 3.0, 0, "j"),
        ("c", 2.0, 5.0, 0, "j"),  # overlaps its sibling and outlives the parent
    ]
    assert measure.self_times(spans)[0] == pytest.approx(1.0)


def test_speed_scale_uses_the_median_reference_nearby():
    speed = measure.SpeedScale(window_s=5.0)
    for moment, wall in [(0.0, 0.66), (2.0, 0.66), (4.0, 0.33), (6.0, 0.33), (30.0, 0.165)]:
        speed.add(moment, wall)
    ref = measure.REFERENCE_S
    # references at 0, 2, 4 and 6 are within 5 s of moment 3: median 0.495
    assert speed.scale(3.0, 1.0) == pytest.approx(ref / 0.495)
    # a twice-slower machine halves the scaled time
    assert speed.scale(0.5, 1.0) == pytest.approx(ref / 0.66)
    assert speed.scale(29.0, 1.0) == pytest.approx(ref / 0.165)
    # with no reference within the window, the two nearest are used
    assert speed.scale(20.0, 1.0) == pytest.approx(ref / statistics.median([0.33, 0.165]))

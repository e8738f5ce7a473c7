"""Tests for the §6.2 shading-likelihood arithmetic."""

import pytest

from repro.core.shading import (
    detect_degradation_spans,
    network_shading_events,
    time_to_overlap_s,
    typical_events_per_hour,
    worst_case_events_per_hour,
)


def test_worst_case_matches_paper():
    """7.5 ms interval + 500 us/s drift -> overlap every 15 s, 240/h."""
    assert time_to_overlap_s(0.0075, 500.0) == pytest.approx(15.0)
    assert worst_case_events_per_hour() == pytest.approx(240.0)


def test_typical_case_matches_paper():
    """75 ms + 5 us/s -> every 4.17 h, 0.24 events/h."""
    assert time_to_overlap_s(0.075, 5.0) / 3600 == pytest.approx(4.17, abs=0.01)
    assert typical_events_per_hour() == pytest.approx(0.24, abs=0.001)


def test_network_scaling_matches_paper():
    """14 links -> 3.4 events/h, 80.6 per 24 h (§6.2)."""
    assert network_shading_events(14, 0.075, 5.0) == pytest.approx(3.36, abs=0.01)
    assert network_shading_events(14, 0.075, 5.0, hours=24) == pytest.approx(
        80.6, abs=0.1
    )


def test_input_validation():
    with pytest.raises(ValueError):
        time_to_overlap_s(0, 5.0)
    with pytest.raises(ValueError):
        time_to_overlap_s(0.075, 0)
    with pytest.raises(ValueError):
        network_shading_events(-1, 0.075, 5.0)


class TestDegradationSpans:
    def test_single_span(self):
        times = [0, 10, 20, 30, 40, 50]
        pdr = [1.0, 1.0, 0.5, 0.5, 1.0, 1.0]
        assert detect_degradation_spans(times, pdr) == [(20, 40)]

    def test_open_ended_span(self):
        times = [0, 10, 20]
        pdr = [1.0, 0.4, 0.5]
        assert detect_degradation_spans(times, pdr) == [(10, 20)]

    def test_no_degradation(self):
        assert detect_degradation_spans([0, 10], [1.0, 0.99]) == []

    def test_threshold(self):
        times = [0, 10, 20]
        pdr = [0.95, 0.95, 0.95]
        assert detect_degradation_spans(times, pdr, threshold=0.9) == []
        assert detect_degradation_spans(times, pdr, threshold=0.96) == [(0, 20)]

    def test_misaligned_series_rejected(self):
        with pytest.raises(ValueError):
            detect_degradation_spans([0, 1], [1.0])

"""Unit and property tests for drifting clocks."""

from hypothesis import given, settings, strategies as st

from repro.sim import DriftingClock, Simulator, SEC, USEC


def test_zero_ppm_is_identity():
    sim = Simulator()
    clk = DriftingClock(sim, ppm=0.0)
    for t in (0, 1, 17, SEC, 3600 * SEC):
        assert clk.to_local(t) == t
        assert clk.to_true(t) == t


def test_positive_ppm_runs_fast():
    sim = Simulator()
    clk = DriftingClock(sim, ppm=100.0)
    # after 1 true second, a +100 ppm clock has counted 100 us extra
    assert clk.to_local(SEC) == SEC + 100 * USEC


def test_negative_ppm_runs_slow():
    sim = Simulator()
    clk = DriftingClock(sim, ppm=-100.0)
    assert clk.to_local(SEC) == SEC - 100 * USEC


def test_relative_drift_matches_paper_arithmetic():
    """Two clocks at +3/-3 ppm drift apart 6 us per second (paper §6.2)."""
    sim = Simulator()
    a = DriftingClock(sim, ppm=3.0)
    b = DriftingClock(sim, ppm=-3.0)
    assert a.relative_ppm(b) == 6.0
    drift_after_1s = a.to_local(SEC) - b.to_local(SEC)
    assert drift_after_1s == 6 * USEC


def test_local_now_follows_sim():
    sim = Simulator()
    clk = DriftingClock(sim, ppm=0.0)
    sim.at(5 * SEC, lambda: None)
    sim.run()
    assert clk.local_now() == 5 * SEC


def test_duration_conversions_are_inverse_scaled():
    sim = Simulator()
    clk = DriftingClock(sim, ppm=250.0)  # worst case allowed sleep clock
    local = clk.true_duration_to_local(SEC)
    assert local == SEC + 250 * USEC
    # converting back loses at most a few ns to integer floor
    back = clk.local_duration_to_true(local)
    assert abs(back - SEC) <= 2


@given(
    ppm=st.floats(min_value=-250.0, max_value=250.0, allow_nan=False),
    t=st.integers(min_value=0, max_value=24 * 3600 * SEC),
)
@settings(max_examples=200)
def test_to_local_monotone_and_invertible(ppm, t):
    sim = Simulator()
    clk = DriftingClock(sim, ppm=ppm)
    local = clk.to_local(t)
    # invertible up to integer rounding of the rate fraction
    assert abs(clk.to_true(local) - t) <= 2
    # monotone: one more true ns never decreases local time
    assert clk.to_local(t + 1) >= local


@given(
    ppm=st.floats(min_value=-250.0, max_value=250.0, allow_nan=False),
    dt=st.integers(min_value=1, max_value=3600 * SEC),
)
@settings(max_examples=200)
def test_drift_bounded_by_ppm(ppm, dt):
    """|local - true| over an interval never exceeds |ppm| * 1e-6 * dt (+1ns)."""
    sim = Simulator()
    clk = DriftingClock(sim, ppm=ppm)
    local_dt = clk.true_duration_to_local(dt)
    # the rate fraction is quantized to 1e-12 relative resolution, so allow
    # dt * 5e-13 of quantization slack on top of the ppm bound
    assert abs(local_dt - dt) <= abs(ppm) * 1e-6 * dt + dt * 5e-13 + 1


@given(
    ppm=st.floats(min_value=-999.999, max_value=999.999),
    epoch=st.integers(min_value=-10**15, max_value=10**15),
    local_offset=st.integers(min_value=-10**15, max_value=10**15),
    elapsed=st.integers(min_value=0, max_value=10**14),
)
@settings(max_examples=500)
def test_round_trip_lands_at_most_2_ns_early(ppm, epoch, local_offset, elapsed):
    """to_true(to_local(x)) lies in [x - 2, x]: the lemma under the
    subordinate's window proof (DESIGN §11)."""
    clk = DriftingClock(Simulator(), ppm=ppm, local_offset=local_offset, epoch=epoch)
    x = epoch + elapsed
    assert x - 2 <= clk.to_true(clk.to_local(x)) <= x

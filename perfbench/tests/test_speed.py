from perfbench.speed import REFERENCE_S, ReferenceClock


def test_scale_divides_by_the_mean_reference_time():
    assert ReferenceClock.scale(1.0, REFERENCE_S, REFERENCE_S) == 1.0
    # The loop ran at half speed on average: the work counts half as long.
    assert ReferenceClock.scale(0.5, REFERENCE_S, 3 * REFERENCE_S) == 0.25


def test_sample_records_every_run():
    clock = ReferenceClock()
    took = [clock.sample() for _ in range(3)]
    assert clock.samples == took
    assert all(t > 0 for t in took)

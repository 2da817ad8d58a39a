import signal
import time

import pytest

import speed

REF = speed.REF_KERNEL_NS
MS = 1_000_000


@pytest.fixture
def samples(monkeypatch):
    # Kernel samples at 0, 100, 200 and 900 ms taking 2, 2, 4 and 1 x the reference time.
    monkeypatch.setattr(speed, "_samples_t", [0, 100 * MS, 200 * MS, 900 * MS])
    monkeypatch.setattr(speed, "_samples_ns", [2 * REF, 2 * REF, 4 * REF, REF])


def test_span_is_scaled_by_the_samples_around_it(samples):
    # 50-150 ms sees the samples from one period before to one period after:
    # 0, 100 and 200 ms, a mean of 8/3 x the reference time.
    [at_ref] = speed.Calibration.at_reference([(50 * MS, 150 * MS, 800)])
    assert at_ref == pytest.approx(300)


def test_span_without_a_sample_near_it_takes_the_nearest(samples):
    [at_ref] = speed.Calibration.at_reference([(500 * MS, 510 * MS, 800)])
    assert at_ref == pytest.approx(800)


def test_clock_leaves_out_the_kernel():
    with speed.Calibration() as cal:
        w0, c0 = time.perf_counter_ns(), speed.clock()
        paused0 = speed._paused_ns
        while time.perf_counter_ns() - w0 < 0.35e9:
            sum(range(1000))
        signal.setitimer(signal.ITIMER_REAL, 0, 0)  # no sample between the reads below
        w1, c1 = time.perf_counter_ns(), speed.clock()
        paused = speed._paused_ns - paused0
    assert len(cal.kernel_ns()) >= 3
    assert paused > 0
    # to within the cost of the clock reads, far below one kernel (ms)
    assert (c1 - c0) + paused == pytest.approx(w1 - w0, abs=50_000)

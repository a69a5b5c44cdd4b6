import random
import time

import loadgen


def test_poisson_schedule_is_a_function_of_the_seed():
    a = loadgen.poisson_schedule(120.0, 5.0, random.Random("7:warm:due"))
    b = loadgen.poisson_schedule(120.0, 5.0, random.Random("7:warm:due"))
    c = loadgen.poisson_schedule(120.0, 5.0, random.Random("8:warm:due"))
    assert a == b
    assert a != c
    assert a == sorted(a) and 0.0 < a[0] and a[-1] < 5.0
    assert 450 < len(a) < 750     # 600 expected, +/- 6 sigma


def test_latency_counts_from_due_time_under_a_stall():
    """One connection, requests due every 10 ms, the second one stalls
    for 80 ms: the requests queued behind it are charged the wait even
    though their own service takes no time."""
    stall_s = 0.08

    def exchange(raw):
        if raw == b"stall":
            time.sleep(stall_s)
        return 200, b"{}"

    due = [0.00, 0.01, 0.02, 0.03]
    payloads = [b"ok", b"stall", b"ok", b"ok"]
    samples, _ = loadgen.run_open([exchange], payloads, due)
    assert [s.index for s in samples] == [0, 1, 2, 3]
    assert all(s.status == 200 for s in samples)
    third = samples[2]
    assert third.service_ms < 20.0
    # due at 20 ms, cannot start before the stall ends at >= 90 ms
    assert third.latency_ms >= (0.01 + stall_s - 0.02) * 1000.0 - 1.0
    assert third.latency_ms > third.service_ms + 50.0
    lag = loadgen.send_lag_ms(samples)
    assert lag[0] < 20.0 and lag[2] >= 60.0
    assert max(loadgen.backlog(samples, due)) >= 1


def test_closed_loop_has_no_due_time_and_stops_on_the_clock():
    def exchange(raw):
        time.sleep(0.005)
        return 200, b"{}"

    samples, elapsed = loadgen.run_closed([exchange, exchange],
                                          [b"x"] * 10_000, 0.2)
    assert 0.2 <= elapsed < 0.5
    assert 20 <= len(samples) < 200
    assert all(s.due is None for s in samples)
    assert samples[0].latency_ms == samples[0].service_ms


def test_a_broken_connection_fails_its_request_not_the_run():
    def broken(raw):
        raise ConnectionError("gone")

    samples, _ = loadgen.run_open([broken], [b"a", b"b"], [0.0, 0.001])
    assert [s.status for s in samples] == [0]


def test_backlog_growth_is_detected():
    due = [i * 0.001 for i in range(200)]
    steady = [loadgen.Sample(i, due[i], due[i], due[i], 200, b"")
              for i in range(100)]
    assert not loadgen.backlog_grows(steady, due)
    # sent at twice the due offset: request i leaves with i more waiting
    falling = [loadgen.Sample(i, due[i], due[i] * 2, due[i] * 2, 200, b"")
               for i in range(100)]
    assert loadgen.backlog(falling, due)[:3] == [0, 1, 2]
    assert loadgen.backlog_grows(falling, due)

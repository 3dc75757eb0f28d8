import pytest

import stats


@pytest.mark.parametrize(
    "n, percentile",
    [(1, 100.0), (19, 100.0), (20, 50.0), (70, 100 * 60 / 70), (100, 90.0), (4000, 99.75)],
)
def test_tail_keeps_ten_samples_beyond(n, percentile):
    values = list(range(1, n + 1))
    value, p, beyond = stats.tail(values)
    assert p == pytest.approx(percentile)
    assert value == stats.percentile(values, p)
    assert beyond == sum(1 for v in values if v > value)
    assert beyond == (stats.MIN_BEYOND if n >= 2 * stats.MIN_BEYOND else 0)


def test_tail_is_the_highest_percentile_with_ten_beyond():
    for n in range(20, 500):
        values = list(range(n))
        value, p, _ = stats.tail(values)
        # one rank higher leaves only nine beyond
        assert sum(1 for v in values if v > value + 1) < stats.MIN_BEYOND


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 50) == 50
    assert stats.percentile([7], 90) == 7


def test_spread_matches_statistics_quantiles():
    out = stats.spread([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    assert out["median"] == 5.5
    assert (out["q1"], out["q3"]) == (2.75, 8.25)
    assert out["spread"] == pytest.approx(5.5 / 5.5)


def test_end_to_end_weighs_every_input_once_at_the_nominal_host(monkeypatch):
    import host
    import run
    import workloads

    # the reference slice runs at half the nominal speed
    monkeypatch.setattr(host, "reference", lambda: 2 * host.NOMINAL_NS)
    times = host.Scaler()
    t = times.ref_at[0]
    # item 0: two calls of 1 ms; item 1: one call of 10 ms
    for key, start, end in ((0, 0, 1), (1, 1, 11), (0, 11, 12)):
        times.add(key, t + start * 1_000_000, t + end * 1_000_000)
    result = run.Pass(times, {0: 2, 1: 1}, {0: 1, 1: 1}, 3, 0, 12_000_000, workloads.Tally())
    metrics, summary = run.end_to_end(result)
    assert summary["host_factor"] == 0.5
    # one round: 1 ms (the mean of two calls) plus 10 ms
    assert summary["raw_ops_per_s"] == pytest.approx(2 / 0.011)
    assert metrics["ops_per_s"][0] == pytest.approx(2 / 0.0055)
    assert metrics["latency_p50_ms"][0] == pytest.approx(0.5)
    assert metrics["latency_tail_ms"][0] == pytest.approx(5.0)

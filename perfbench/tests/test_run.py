"""The tail rule, the calibration arithmetic, the round order and the
agreement of run.py with BENCHMARK.json."""

import json
import os
import statistics

import pytest

import child
import run
import tracing

ROOT = os.path.dirname(run.HERE)


@pytest.mark.parametrize('n, pct', [(1, 100), (10, 100), (11, 9), (20, 50),
                                    (79, 87), (2400, 99)])
def test_tail_leaves_ten_samples_beyond_its_percentile(n, pct):
    times = [float(i) for i in range(n)]
    got_pct, value, beyond = run.tail(times)
    assert got_pct == pct
    assert beyond == sum(1 for t in times if t > value)
    assert beyond >= 10 or pct == 100


def test_tail_of_a_single_operation_is_that_operation():
    assert run.tail([2.5]) == (100, 2.5, 0)


def test_benchmark_json_names_the_metrics_run_py_prints():
    with open(os.path.join(ROOT, 'BENCHMARK.json')) as fh:
        bench = json.load(fh)
    assert {m['name']: m['unit'] for m in bench['end_to_end']} \
        == run.END_TO_END
    assert {m['name']: m['unit'] for m in bench['per_layer']} \
        == run.PER_LAYER
    assert [w['name'] for w in bench['workloads']] == list(run.WORKLOADS)


def test_traced_child_reports_every_per_layer_metric():
    layers = child.layer_metrics(tracing.Tracer(), {}, 0.1, 7)
    assert set(layers) | {'trace.overhead_share'} == set(run.PER_LAYER)


def _meter(stamps, samples):
    meter = child.Speedometer()
    meter.stamps, meter.samples = list(stamps), list(samples)
    return meter


def test_reference_is_the_mean_sample_around_the_operation():
    # one sample every 0.1 s; the machine halves its speed at t = 5
    stamps = [k / 10 for k in range(100)]
    samples = [1.0 if t < 5 else 2.0 for t in stamps]
    meter = _meter(stamps, samples)
    assert meter.reference(1.0, 1.1) == 1.0
    assert meter.reference(8.0, 8.5) == 2.0
    nominal = child.CALIBRATION_NOMINAL_S
    assert meter.scale(8.0, 8.5, 4.0) == pytest.approx(2.0 * nominal)


def test_reference_takes_the_nearest_samples_when_the_window_is_empty():
    stamps = [float(k) for k in range(20)]
    samples = [float(k + 1) for k in range(20)]
    meter = _meter(stamps, samples)
    got = meter.reference(30.0, 30.0)
    want = statistics.harmonic_mean(samples[-child.CALIBRATION_LOCAL_MIN:])
    assert got == want
    assert meter.reference(-5.0, -5.0) == statistics.harmonic_mean(
        samples[:child.CALIBRATION_LOCAL_MIN])


def test_without_samples_the_scale_is_one():
    meter = child.Speedometer()
    assert meter.scale(0.0, 1.0, 0.5) == 0.5
    assert meter.factor() == 1.0


def test_shuffled_rounds_visit_every_operation_once():
    import workloads
    batch = workloads.Batch(list('abcdefgh'), None, None, None, shuffle=3)
    assert batch.order(0) == list(range(8))
    later = [batch.order(r) for r in (1, 2, 3)]
    assert all(sorted(o) == list(range(8)) for o in later)
    assert len({tuple(o) for o in later}) > 1
    assert workloads.Batch(list('abc'), None, None, None).order(5) \
        == [0, 1, 2]

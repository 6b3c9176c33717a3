"""Span recording and the self-time arithmetic of the traced run."""

import pytest

from flatmu import acceptance, construct, semantics, syntax

import tracing

# root [0, 10] with children a [1, 4] and b [5, 9]; b has child c [6, 8]
SPANS = [
    ('root', 0.0, 10.0, -1),
    ('a', 1.0, 4.0, 0),
    ('b', 5.0, 9.0, 0),
    ('c', 6.0, 8.0, 2),
    ('a', 11.0, 12.0, -1),
]


def test_self_time_is_duration_less_direct_children():
    assert tracing.self_times(SPANS) == [3.0, 3.0, 2.0, 2.0, 1.0]


def test_self_times_add_up_to_the_top_level_spans():
    tops = sum(end - start for _, start, end, parent in SPANS
               if parent < 0)
    assert sum(tracing.self_times(SPANS)) == pytest.approx(tops)


def test_totals_group_by_name():
    tot = tracing.totals(SPANS)
    assert tot['a'] == (2, 4.0, 4.0)
    assert tot['root'] == (1, 10.0, 3.0)
    assert tot['c'] == (1, 2.0, 2.0)


def test_under_counts_only_direct_children_of_the_named_parent():
    assert tracing.under(SPANS, 'a', 'root') == (1, 3.0)
    assert tracing.under(SPANS, 'c', 'root') == (0, 0.0)
    assert tracing.under(SPANS, 'c', 'b') == (1, 2.0)


class Ticks:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_wrapper_records_outermost_calls_with_parents():
    tracer = tracing.Tracer(clock=Ticks())

    def fact(n):
        return 1 if n <= 1 else n * traced(n - 1)

    traced = tracer.wrap('fact', fact)
    outer = tracer.wrap('outer', lambda: traced(4))
    assert outer() == 24
    names = [s[0] for s in tracer.spans]
    assert names == ['outer', 'fact']
    assert tracer.spans[1][3] == 0
    assert tracing.self_times(tracer.spans) == [2.0, 1.0]


def test_wrapper_closes_its_span_when_the_call_raises():
    tracer = tracing.Tracer(clock=Ticks())

    def boom():
        raise KeyError('x')

    traced = tracer.wrap('boom', boom)
    with pytest.raises(KeyError):
        traced()
    with pytest.raises(KeyError):
        traced()
    assert [s[0] for s in tracer.spans] == ['boom', 'boom']
    assert all(s[3] == -1 for s in tracer.spans)


def test_install_wraps_every_namespace_and_restore_undoes_it():
    originals = (syntax.parse, semantics.eval_bits, acceptance.eval_bits,
                 construct.find_defects, semantics.KripkeModel.__init__)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert acceptance.eval_bits is semantics.eval_bits
        assert construct.find_defects is not originals[3]
        m = semantics.KripkeModel(2, [(0, 1)], {'p': [1]})
        f = syntax.parse('<F>p | ~<F><F>p')
        assert semantics.eval_bits(f, m) == 0b11
    finally:
        tracer.restore()
    assert (syntax.parse, semantics.eval_bits, acceptance.eval_bits,
            construct.find_defects,
            semantics.KripkeModel.__init__) == originals
    tot = tracing.totals(tracer.spans)
    assert tot['syntax.parse'][0] == 1
    assert tot['semantics.model_init'][0] == 1
    # recursion inside eval_bits stays inside the one outermost span
    assert tot['semantics.eval_bits'][0] == 1


def test_paused_tracer_records_nothing():
    tracer = tracing.Tracer(clock=Ticks())
    traced = tracer.wrap('f', lambda: 1)
    counted = tracer.counter('n', lambda: 2)
    with tracer.paused():
        assert traced() == 1 and counted() == 2
    assert tracer.spans == [] and tracer.counts['n'] == 0
    traced()
    counted()
    assert len(tracer.spans) == 1 and tracer.counts['n'] == 1


def test_block_span_parents_the_calls_inside_it():
    tracer = tracing.Tracer(clock=Ticks())
    traced = tracer.wrap('f', lambda: None)
    with tracer.span('block'):
        traced()
    assert [(s[0], s[3]) for s in tracer.spans] == [('block', -1), ('f', 0)]

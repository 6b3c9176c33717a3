"""The reference evaluator against truth sets worked out by hand."""

import pytest

from flatmu.syntax import connectives_from_json, parse

import reference

CONNS = connectives_from_json([
    {'name': 'rf', 'arity': 1, 'body': 'q | <F>x'},
    {'name': 'rb', 'arity': 1, 'body': 'q | <B>x'},
    {'name': 'sf', 'arity': 1, 'body': '[F]x | q'},
    {'name': 'sb', 'arity': 1, 'body': '[B]x | q'},
])

# 0 -> 1 -> 2 -> 3, with p at 3 and q at 0 and 2
CHAIN = reference.Model(4, [(0, 1), (1, 2), (2, 3)],
                        {'p': [3], 'q': [0, 2]})
# 0 -> 1 -> 0 and 1 -> 2 -> 2, p at 2
LOOPS = reference.Model(3, [(0, 1), (1, 0), (1, 2), (2, 2)], {'p': [2]})


def truth(text, model):
    return reference.truth_set(parse(text, CONNS), model)


@pytest.mark.parametrize('text, states', [
    ('_|_', set()),
    ('~_|_', {0, 1, 2, 3}),
    ('p', {3}),
    ('r', set()),
    ('p | q', {0, 2, 3}),
    ('~q', {1, 3}),
    ('<F>p', {2}),
    ('<B>q', {1, 3}),
    ('[F]q', {1, 3}),
    ('[B]_|_', {0}),
    ('<F><F>p', {1}),
    ('#rf(p)', {0, 1, 2, 3}),
    ('#rb(q)', {0, 1, 2, 3}),
    ('#rb(p)', {3}),
    # every path of a finite chain ends, so the safety fixpoints hold
    # everywhere and the two-way pair nowhere
    ('#sf(p)', {0, 1, 2, 3}),
    ('#sb(~p)', {0, 1, 2, 3}),
    ('~#sf(~#sb(_|_))', set()),
    ('#rf(p & <B>q)', {0, 1, 2, 3}),
    ('#rf(q & [F]_|_)', set()),
    ('#rf(q & [F]p)', {0, 1, 2}),
])
def test_chain(text, states):
    assert truth(text, CHAIN) == states


@pytest.mark.parametrize('text, states', [
    ('<F>p', {1, 2}),
    ('#rf(p)', {0, 1, 2}),
    ('#rb(p)', {2}),
    # a state on a cycle is safe only where the argument holds
    ('#sf(p)', {2}),
    ('#sf(~p)', {0, 1}),
    ('#sb(p)', {2}),
    ('#sb(_|_)', set()),
    ('#rf(~p)', {0, 1}),
    ('[F]p', {2}),
    ('~#sf(~#sb(_|_))', set()),
])
def test_loops(text, states):
    assert truth(text, LOOPS) == states


def test_from_json_reads_the_model_file_format():
    m = reference.Model.from_json(
        {'states': 2, 'edges': [[0, 1]], 'valuation': {'p': [1]}})
    assert reference.holds(parse('<F>p', CONNS), m, 0)
    assert not reference.holds(parse('<F>p', CONNS), m, 1)


def test_env_overrides_the_valuation():
    m = reference.Model(2, [(0, 1)], {'x': [0]})
    assert reference.truth_set(parse('<F>x', CONNS), m,
                               {'x': frozenset({1})}) == {0}

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from flatmu.semantics import eval_bits, frame_batches
from flatmu.syntax import (
    Bottom, Var, Neg, Or, Dia, Sharp, FileShapeError, FixpointConnective,
    GuardificationResult, ParseError, and_, as_and, as_box, box,
    classify_disjunctive, connectives_from_json, decompose, disjunctive_form,
    free_vars, guardify, iff, implies, is_guarded, is_positive_in, nabla,
    parse, size, subformulas, substitute, to_string, top,
)

CHI1 = FixpointConnective('chi1', 1, parse('[F]x | q', {}))
CHI2 = FixpointConnective('chi2', 1, parse('[B]x | q', {}))
REACH = FixpointConnective('reach', 1, parse('q | <F>x', {}))


# ---------------------------------------------------------------------------
# parsing

def test_parse_unknown_connective():
    with pytest.raises(ParseError, match='unknown connective'):
        parse('~<F>~#0', {})


def test_parse_empty_nabla_is_boxed_bottom():
    assert parse('nablaF{}') == box('F', Bottom())
    assert parse('nablaB{}') == box('B', Bottom())


def test_parse_primitive_shapes():
    assert parse('p | <F>q') == Or(Var('p'), Dia('F', Var('q')))
    assert parse('_|_') == Bottom()
    assert parse('~p') == Neg(Var('p'))
    assert parse('<B>p') == Dia('B', Var('p'))


def test_parse_sugar():
    assert parse('p & q') == and_(Var('p'), Var('q'))
    assert parse('[F]p') == box('F', Var('p'))
    assert parse('[B]p') == box('B', Var('p'))
    assert parse('p -> q') == implies(Var('p'), Var('q'))
    assert parse('p <-> q') == iff(Var('p'), Var('q'))


P, Q, R = Var('p'), Var('q'), Var('r')


# ~ and the modalities bind tightest, then &, |, -> and <->; implication
# nests to the right, the others to the left
@pytest.mark.parametrize('text, tree', [
    ('~p | q', Or(Neg(P), Q)),
    ('<F>p & q', and_(Dia('F', P), Q)),
    ('p <-> q <-> r', iff(iff(P, Q), R)),
    ('p <-> q -> r', iff(P, implies(Q, R))),
    ('p <-> q | r', iff(P, Or(Q, R))),
    ('p <-> q & r', iff(P, and_(Q, R))),
    ('p -> q <-> r', iff(implies(P, Q), R)),
    ('p -> q -> r', implies(P, implies(Q, R))),
    ('p -> q | r', implies(P, Or(Q, R))),
    ('p -> q & r', implies(P, and_(Q, R))),
    ('p | q <-> r', iff(Or(P, Q), R)),
    ('p | q -> r', implies(Or(P, Q), R)),
    ('p | q | r', Or(Or(P, Q), R)),
    ('p | q & r', Or(P, and_(Q, R))),
    ('p & q <-> r', iff(and_(P, Q), R)),
    ('p & q -> r', implies(and_(P, Q), R)),
    ('p & q | r', Or(and_(P, Q), R)),
    ('p & q & r', and_(and_(P, Q), R)),
])
def test_parse_precedence_and_associativity(text, tree):
    assert parse(text) == tree


def test_parse_nabla_expansion():
    got = parse('nablaF{p, q}')
    assert got == nabla('F', [Var('p'), Var('q')])
    # the expansion is the left-associated chain with a trailing box
    assert got == and_(and_(Dia('F', Var('p')), Dia('F', Var('q'))),
                       box('F', Or(Var('p'), Var('q'))))


def test_parse_sharp():
    f = parse('#chi1(p)', {'chi1': CHI1})
    assert f == Sharp(CHI1, (Var('p'),))
    with pytest.raises(ParseError, match='argument'):
        parse('#chi1(p, q)', {'chi1': CHI1})


def test_parse_syntax_error_reports_position():
    with pytest.raises(ParseError, match='position'):
        parse('p |')
    with pytest.raises(ParseError, match='position'):
        parse('p ? q')


def test_connectives_from_json_accepts_object_or_list():
    one = connectives_from_json({'name': 'chi1', 'arity': 1, 'body': '[F]x | q'})
    many = connectives_from_json([
        {'name': 'chi1', 'arity': 1, 'body': '[F]x | q'},
        {'name': 'chi2', 'arity': 1, 'body': '[B]x | q'},
    ])
    assert one['chi1'] == CHI1
    assert many['chi2'] == CHI2


@pytest.mark.parametrize('data, problems', [
    (5, ['connectives must be an object or a list']),
    (['r', {'name': 'r', 'arity': 1, 'body': 5}],
     ['connective "r" must hold exactly a name, an arity and a body',
      'body of connective "r" is not a string']),
])
def test_connectives_from_json_lists_every_shape_fault(data, problems):
    with pytest.raises(FileShapeError) as info:
        connectives_from_json(data)
    assert info.value.problems == problems


# ---------------------------------------------------------------------------
# connective validation

def test_connective_rejects_sharp_in_body():
    body = Sharp(CHI1, (Var('x'),))
    with pytest.raises(ValueError, match='#'):
        FixpointConnective('bad', 0, body)


def test_connective_rejects_stray_variables():
    with pytest.raises(ValueError, match='stray'):
        FixpointConnective('bad', 1, parse('x | r'))


def test_connective_rejects_negative_body():
    with pytest.raises(ValueError, match='positive'):
        FixpointConnective('bad', 1, parse('~x | q'))


def test_connective_q_alias_renamed():
    chi = FixpointConnective('c', 1, parse('q | <F>x'))
    assert chi.body == Or(Var('q1'), Dia('F', Var('x')))
    assert chi == FixpointConnective('c', 1, parse('q1 | <F>x'))


def test_instantiate():
    assert CHI1.instantiate(Bottom(), [Var('p')]) == parse('[F]_|_ | p')
    host = Sharp(CHI1, (Var('p'),))
    assert CHI1.instantiate(host, [Var('p')]) == Or(box('F', host), Var('p'))


# ---------------------------------------------------------------------------
# positivity / guardedness

def test_is_positive_in_examples():
    assert is_positive_in(parse('~~x'), 'x')
    assert not is_positive_in(parse('~x | q'), 'x')
    assert is_positive_in(parse('<F>~~x'), 'x')
    assert is_positive_in(parse('q'), 'x')


def test_is_positive_through_sharp():
    # chi1's parameter occurs positively, so the argument's polarity carries
    assert is_positive_in(Sharp(CHI1, (Var('p'),)), 'p')
    assert not is_positive_in(Sharp(CHI1, (Neg(Var('p')),)), 'p')
    # a parameter occurring under one negation flips the argument
    down = FixpointConnective('down', 1, parse('~q1 | <F>x'))
    assert not is_positive_in(Sharp(down, (Var('p'),)), 'p')
    assert is_positive_in(Sharp(down, (Neg(Var('p')),)), 'p')


def test_is_guarded_examples():
    assert is_guarded(REACH)
    assert not is_guarded(FixpointConnective('c', 0, Var('x')))
    assert not is_guarded(FixpointConnective('c', 1, parse('(x & q) | <F>x')))
    assert is_guarded(CHI1)


# ---------------------------------------------------------------------------
# printing round-trip

def test_to_string_examples():
    assert to_string(parse('p | <F>q')) == 'p | <F>q'
    assert to_string(and_(Var('p'), Var('q'))) == 'p & q'
    assert to_string(box('F', Bottom())) == '[F]_|_'
    assert to_string(parse('~(p | q)')) == '~(p | q)'
    assert to_string(Sharp(CHI1, (Var('p'),))) == '#chi1(p)'


_conn_table = {'chi1': CHI1, 'reach': REACH}


def _formulas(conns=(CHI1,)):
    base = st.sampled_from([Bottom(), Var('p'), Var('q'), Var('r')])
    # one branch per arity, not per constructor: hypothesis labels a
    # recursive strategy in time that grows with its branches
    unary = [Neg, lambda f: Dia('F', f), lambda f: Dia('B', f),
             lambda f: box('F', f)]
    unary += [lambda f, c=c: Sharp(c, (f,)) for c in conns]

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(unary), children).map(
                lambda t: t[0](t[1])),
            st.tuples(st.sampled_from([Or, and_]), children, children).map(
                lambda t: t[0](t[1], t[2])),
        )

    return st.recursive(base, extend, max_leaves=25)


@given(_formulas())
@settings(max_examples=300, deadline=None)
def test_print_parse_round_trip(f):
    assert parse(to_string(f), _conn_table) == f


def _field_tuple(node):
    return tuple(getattr(node, fld.name) for fld in dataclasses.fields(node))


@given(_formulas())
@settings(max_examples=300, deadline=None)
def test_hash_is_the_field_tuple_hash_and_equality_is_structural(f):
    for g in subformulas(f):
        assert hash(g) == hash(_field_tuple(g)) == hash(g)
    for chi in (CHI1, REACH):
        assert hash(chi) == hash(_field_tuple(chi))
    copies = (copy.deepcopy(f), pickle.loads(pickle.dumps(f)))
    # the stored hash is per process, so copies compute their own
    assert all('_hash' not in vars(twin) for twin in copies)
    for twin in (parse(to_string(f), _conn_table),) + copies:
        assert twin is not f and twin == f and hash(twin) == hash(f)


def test_a_deep_formula_built_in_process_hashes_without_recursion():
    f = Var('p')
    for _ in range(100_000):
        f = Neg(f)
    assert hash(f) == hash(_field_tuple(f))
    assert '_hash' in vars(f) and '_hash' in vars(Var('p'))


# ---------------------------------------------------------------------------
# disjunctive classification

def test_classify_examples():
    assert classify_disjunctive(CHI1) == 'forward'
    assert classify_disjunctive(CHI2) == 'backward'
    both = FixpointConnective('c', 0, parse('<F>x & <B>x'))
    assert classify_disjunctive(both) == 'none'


def test_classify_more():
    assert classify_disjunctive(REACH) == 'forward'
    assert classify_disjunctive(FixpointConnective('c', 1, parse('x | q'))) == 'forward'
    assert classify_disjunctive(FixpointConnective('c', 0, parse('<B>x'))) == 'backward'
    assert classify_disjunctive(FixpointConnective('c', 0, parse('x | nablaF{x}'))) == 'forward'
    # a nabla is recognised whichever of its components is a disjunction
    for body in ('nablaF{x | q, q}', 'nablaF{q, x | q}'):
        assert classify_disjunctive(FixpointConnective('c', 1, parse(body))) == 'forward'
    # left conjunct may not contain x
    assert classify_disjunctive(FixpointConnective('c', 1, parse('<F>x & q'))) == 'none'
    assert classify_disjunctive(FixpointConnective('c', 1, parse('q & <F>x'))) == 'forward'


def test_decompose_positions_cover_example():
    # [F]x | q: positions containing x are x, [F]x, and the whole body
    d, form = disjunctive_form(CHI1)
    assert d == 'F'
    srcs = []

    def walk(node):
        if node.kind != 'free':
            srcs.append(node.src)
        for c in node.children:
            walk(c)

    walk(form)
    assert set(srcs) == {Var('x'), box('F', Var('x')), CHI1.body}


# --- oracle: literal nabla rewriting plus grammar matching -----------------
#
# Independent route for the classifier: rewrite every modality whose scope
# contains x into cover-modality form on a small tagged tree, then check
# membership in the disjunctive grammar by exhaustive rule matching.

def _tag(f):
    if isinstance(f, Bottom):
        return ('bot',)
    if isinstance(f, Var):
        return ('var', f.name)
    if isinstance(f, Neg):
        return ('neg', _tag(f.child))
    if isinstance(f, Or):
        return ('or', _tag(f.left), _tag(f.right))
    if isinstance(f, Dia):
        return ('dia', f.direction, _tag(f.child))
    raise TypeError(f)


def _has_x(t):
    if t[0] == 'var':
        return t[1] == 'x'
    if t[0] == 'nabla':
        return any(_has_x(c) for c in t[2])
    return any(_has_x(c) for c in t[1:] if isinstance(c, tuple))


_TOP = ('neg', ('bot',))


def _nabla_rewrite(t):
    if not _has_x(t) or t[0] == 'var':
        return t
    # box pattern first, as a unit, so its dia is not rewritten from under it
    if (t[0] == 'neg' and t[1][0] == 'dia' and t[1][2][0] == 'neg'
            and _has_x(t[1][2][1])):
        d = t[1][1]
        return ('or', ('nabla', d, ()), ('nabla', d, (_nabla_rewrite(t[1][2][1]),)))
    if t[0] == 'dia':
        return ('nabla', t[1], (_nabla_rewrite(t[2]), _TOP))
    if t[0] == 'neg':
        return ('neg', _nabla_rewrite(t[1]))
    if t[0] == 'or':
        return ('or', _nabla_rewrite(t[1]), _nabla_rewrite(t[2]))
    raise AssertionError(t)


def _tag_as_and(t):
    if (t[0] == 'neg' and t[1][0] == 'or'
            and t[1][1][0] == 'neg' and t[1][2][0] == 'neg'):
        return (t[1][1][1], t[1][2][1])
    return None


def _grammar_match(t, d):
    if not _has_x(t):
        return True
    if t == ('var', 'x'):
        return True
    if t[0] == 'or':
        return _grammar_match(t[1], d) and _grammar_match(t[2], d)
    if t[0] == 'nabla':
        return t[1] == d and all(_grammar_match(c, d) for c in t[2])
    pair = _tag_as_and(t)
    if pair is not None and not _has_x(pair[0]):
        return _grammar_match(pair[1], d)
    return False


def _oracle_classify(chi):
    t = _nabla_rewrite(_tag(chi.body))
    if _grammar_match(t, 'F'):
        return 'forward'
    if _grammar_match(t, 'B'):
        return 'backward'
    return 'none'


def _bodies_up_to(n):
    pools = {1: [Bottom(), Var('x'), Var('q')]}
    for k in range(2, n + 1):
        pool = []
        for f in pools[k - 1]:
            pool.append(Neg(f))
            pool.append(Dia('F', f))
            pool.append(Dia('B', f))
        for i in range(1, k - 1):
            for a in pools[i]:
                for b in pools[k - 1 - i]:
                    pool.append(Or(a, b))
        pools[k] = pool
    for k in range(1, n + 1):
        yield from pools[k]


def test_classifier_agrees_with_grammar_oracle():
    checked = 0
    for body in _bodies_up_to(8):
        if not is_positive_in(body, 'x'):
            continue
        chi = FixpointConnective('c', 1, body)
        assert classify_disjunctive(chi) == _oracle_classify(chi), to_string(body)
        checked += 1
    assert checked > 10000


# ---------------------------------------------------------------------------
# guardification

def test_guardify_already_guarded():
    r = guardify(REACH)
    assert r.gamma1 == Bottom()
    assert r.gamma2.body == REACH.body
    assert is_guarded(r.gamma2)


def test_guardify_bare_x():
    r = guardify(FixpointConnective('c', 0, Var('x')))
    assert r.gamma1 == top()
    assert r.gamma2.body == Bottom()


def test_guardify_mixed_disjunction():
    chi = FixpointConnective('c', 0, parse('x | nablaF{x}'))
    r = guardify(chi)
    # no simplification: the split keeps the or-shape of the body
    assert r.gamma1 == Or(top(), Bottom())
    assert r.gamma2.body == Or(Bottom(), nabla('F', [Var('x')]))
    assert is_guarded(r.gamma2)


def test_guardify_rejects_non_disjunctive():
    with pytest.raises(ValueError, match='disjunctive'):
        guardify(FixpointConnective('c', 0, parse('<F>x & <B>x')))


def test_guardify_invariants_on_small_corpus():
    seen = 0
    for body in _bodies_up_to(6):
        if not is_positive_in(body, 'x'):
            continue
        chi = FixpointConnective('c', 1, body)
        if classify_disjunctive(chi) == 'none':
            continue
        r = guardify(chi)
        assert 'x' not in free_vars(r.gamma1)
        assert is_guarded(r.gamma2)
        assert classify_disjunctive(r.gamma2) == classify_disjunctive(chi)
        seen += 1
    assert seen > 500


# bodies with 'and' and 'nabla' positions that contain x, which check 7's
# generated corpus never has: guarded conjuncts with x bare or under an
# 'or', and nablas with x among their components
SPLIT_BODIES = (
    'q1 & x', 'x | (q1 & (x | <F>x))', '(~q1 & x) | <B>x',
    'q1 & (x | nablaF{x})', 'nablaF{x, q1}', 'q1 | nablaB{x | q1, <F>q1}',
    '~q1 & nablaF{q1 & x, x}', 'nablaB{x, q1 & x, <B>x}',
)


def _kinds_holding_x(node):
    here = {node.kind} if 'x' in free_vars(node.src) else set()
    return here.union(*map(_kinds_holding_x, node.children))


def test_guardify_splits_and_and_nabla_positions_equivalently():
    kinds = set()
    for body in SPLIT_BODIES:
        chi = FixpointConnective('c', 1, parse(body, {}))
        assert classify_disjunctive(chi) != 'none', body
        kinds |= _kinds_holding_x(disjunctive_form(chi)[1])
        r = guardify(chi)
        assert is_guarded(r.gamma2), body
        assert classify_disjunctive(r.gamma2) != 'none', body
        for n in (1, 2, 3):
            for batch in frame_batches(n, ('x', 'q1')):
                assert eval_bits(r.equivalence, batch) == batch.full_mask, \
                    (body, n)
    assert {'and', 'nabla'} <= kinds


# ---------------------------------------------------------------------------
# the walkers against path oracles

# a body using its parameter negatively, so # composes polarities
DOWN = FixpointConnective('down', 1, parse('~q1 | <F>x'))


def _paths_to(f, v):
    """(negations, diamonds) on every root-to-v path through f. Below a #,
    the path to argument i goes on through each q<i> in the body."""
    if isinstance(f, Var):
        return [(0, 0)] if f.name == v else []
    if isinstance(f, Neg):
        return [(n + 1, d) for n, d in _paths_to(f.child, v)]
    if isinstance(f, Dia):
        return [(n, d + 1) for n, d in _paths_to(f.child, v)]
    if isinstance(f, Or):
        return _paths_to(f.left, v) + _paths_to(f.right, v)
    if isinstance(f, Sharp):
        return [(n + m, d + e) for i, a in enumerate(f.args)
                for n, d in _paths_to(f.connective.body, 'q%d' % (i + 1))
                for m, e in _paths_to(a, v)]
    return []


@given(_formulas((CHI1, DOWN)), _formulas(()))
@settings(max_examples=200, deadline=None)
def test_walkers_agree_with_path_oracles(f, plain):
    assert free_vars(f) == {g.name for g in subformulas(f)
                            if isinstance(g, Var)}
    for v in ('p', 'q', 'r'):
        assert is_positive_in(f, v) == \
            all(n % 2 == 0 for n, _ in _paths_to(f, v))
    body = substitute(plain, {'p': Var('x'), 'q': Var('q1'), 'r': Var('q2')})
    paths = _paths_to(body, 'x')
    if any(n % 2 for n, _ in paths):
        with pytest.raises(ValueError, match='not positive'):
            FixpointConnective('t', 2, body)
    else:
        chi = FixpointConnective('t', 2, body)
        assert is_guarded(chi) == all(d > 0 for _, d in paths)


# ---------------------------------------------------------------------------
# misc structural helpers

def test_substitute_is_simultaneous():
    f = parse('x | y')
    got = substitute(f, {'x': Var('y'), 'y': Var('x')})
    assert got == parse('y | x')


def test_subformulas_and_size():
    f = parse('p | <F>q')
    assert size(f) == 4
    assert Var('q') in set(subformulas(f))


def test_free_vars_skips_connective_body():
    f = Sharp(CHI1, (Var('p'),))
    assert free_vars(f) == frozenset({'p'})

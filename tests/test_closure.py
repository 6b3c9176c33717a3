import hashlib

from flatmu.acceptance import _STAGE_CONNS, _disjunctive_corpus
from flatmu.closure import (
    MAX_FREE_BITS, ClosureSet, DeferralTable, atom_formulas, coherent,
    enumerate_atoms, fl_closure, is_atom,
)
from flatmu.syntax import (
    Bottom, Dia, FixpointConnective, Neg, Or, Sharp, Var,
    and_, box, connectives_from_json, parse, substitute, to_string,
)

import pytest
from hypothesis import given, settings, strategies as st

CHI1 = FixpointConnective('chi1', 1, parse('[F]x | q', {}))
CHI2 = FixpointConnective('chi2', 1, parse('[B]x | q', {}))
REACH = FixpointConnective('reach', 1, parse('q | <F>x', {}))
STEPS = FixpointConnective('steps', 0, parse('nablaF{x}', {}))
TANGLE = FixpointConnective('tangle', 0, and_(Dia('F', Var('x')), Dia('B', Var('x'))))

DEFS = {c.name: c for c in (CHI1, CHI2, REACH, STEPS, TANGLE)}

CORPUS = [
    parse(s, DEFS) for s in (
        '_|_', 'p', '~p', 'p | q', 'p & ~q', '<F>p', '[B](p | q)',
        '<F><B>p', '#chi1(q)', '#reach(p & q)', '~#chi1(~#chi2(_|_))',
        '#steps()', '#tangle()', 'nablaF{p, <B>q}', '#chi1(#reach(p))',
    )
]


# -- independent closure oracle ---------------------------------------------

def _oracle_children(f):
    if isinstance(f, Neg):
        return [f.child]
    if isinstance(f, Or):
        return [f.left, f.right]
    if isinstance(f, Dia):
        return [f.child]
    if isinstance(f, Sharp):
        chi = f.connective
        return list(f.args) + [chi.instantiate(f, f.args),
                               chi.instantiate(Bottom(), f.args)]
    return []


def _oracle_closure(origin):
    todo = [origin, box('F', Bottom()), box('B', Bottom())]
    seen = set()
    while todo:
        f = todo.pop()
        if f in seen:
            continue
        seen.add(f)
        todo.extend(_oracle_children(f))
        if not isinstance(f, Neg):
            todo.append(Neg(f))
    return seen


def test_closure_matches_independent_walk():
    for f in CORPUS:
        sigma = fl_closure(f)
        assert set(sigma.formulas) == _oracle_closure(f)
        assert len(set(sigma.formulas)) == len(sigma.formulas)
        assert sigma.origin == f


def test_closure_of_plain_variable():
    sigma = fl_closure(parse('p', {}))
    p, bot = Var('p'), Bottom()
    assert sigma.formulas == (
        p, box('F', bot), box('B', bot), Neg(p),
        Dia('F', Neg(bot)), Dia('B', Neg(bot)), Neg(bot), bot,
    )


def test_closure_of_sharp_contains_both_unfoldings():
    focus = Sharp(CHI1, (Var('q'),))
    sigma = fl_closure(focus)
    assert Or(box('F', focus), Var('q')) in sigma.index
    assert Or(box('F', Bottom()), Var('q')) in sigma.index
    assert len(sigma) == 16


def test_closure_idempotent():
    for f in CORPUS:
        sigma = fl_closure(f)
        for g in sigma.formulas:
            assert set(fl_closure(g).formulas) <= set(sigma.formulas)


def _complement(sigma, i):
    """Index of the Hintikka complement of formula i (~ strips one Neg)."""
    g = sigma.formulas[i]
    return sigma.index_of(g.child if isinstance(g, Neg) else Neg(g))


def test_negation_map_is_total_and_strips_one_negation():
    # not an involution: ~~psi complements to ~psi, which complements to psi
    for f in CORPUS:
        sigma = fl_closure(f)
        for i, g in enumerate(sigma.formulas):
            j = _complement(sigma, i)
            assert j != i
            if isinstance(g, Neg):
                assert sigma.formulas[j] == g.child
            else:
                assert sigma.formulas[j] == Neg(g)


# -- atoms -------------------------------------------------------------------

def _brute_atoms(sigma):
    return [bits for bits in range(1 << len(sigma)) if is_atom(bits, sigma)]


def test_atoms_of_variable_closure():
    sigma = fl_closure(parse('p', {}))
    atoms = enumerate_atoms(sigma)
    assert len(atoms) == 8
    assert atoms == _brute_atoms(sigma)
    assert atoms == sorted(atoms)
    for a in atoms:
        fs = set(atom_formulas(sigma, a))
        assert Neg(Bottom()) in fs
        assert (Var('p') in fs) != (Neg(Var('p')) in fs)
        assert sum(1 << sigma.index_of(f) for f in fs) == a


def test_atoms_beyond_the_free_bit_limit_are_refused():
    # 9 nested nablas leave 21 free bits (letters, diamonds and #), 8
    # leave 19; the refusal comes before any candidate is built
    sigma = fl_closure(parse('nablaF{' * 9 + 'p' + '}' * 9, {}))
    assert MAX_FREE_BITS == 20
    with pytest.raises(ValueError, match=r'^the closure has 21 free atom '
                       r'bits .*; atoms are enumerated for at most 20$'):
        enumerate_atoms(sigma)


def test_atoms_respect_sharp_unfolding():
    sigma = fl_closure(Sharp(CHI1, (Var('q'),)))
    atoms = enumerate_atoms(sigma)
    assert len(atoms) == 16
    assert atoms == _brute_atoms(sigma)
    focus = sigma.index_of(Sharp(CHI1, (Var('q'),)))
    unfold = sigma.index_of(Or(box('F', Sharp(CHI1, (Var('q'),))), Var('q')))
    for a in atoms:
        assert (a >> focus & 1) == (a >> unfold & 1)


def test_atom_membership_distributes_over_conjunction_pattern():
    # the unfolding of nablaF{x} is a conjunction; atoms containing it
    # must contain both conjuncts
    focus = Sharp(STEPS, ())
    sigma = fl_closure(focus)
    unfold = STEPS.instantiate(focus, ())
    a, b = Dia('F', focus), box('F', focus)
    for bits in enumerate_atoms(sigma):
        fs = set(atom_formulas(sigma, bits))
        if unfold in fs:
            assert a in fs and b in fs


def test_is_atom_rejects_broken_sets():
    sigma = fl_closure(parse('p', {}))
    assert not is_atom(0, sigma)
    assert not is_atom((1 << len(sigma)) - 1, sigma)
    bot = 1 << sigma.index_of(Bottom())
    for a in enumerate_atoms(sigma):
        assert not is_atom(a | bot, sigma)
    with pytest.raises(ValueError):
        is_atom(1 << len(sigma), sigma)


def test_is_atom_accepts_a_hand_listed_atom():
    sigma = fl_closure(parse('p', {}))
    good = {Var('p'), box('F', Bottom()), box('B', Bottom()), Neg(Bottom())}
    bits = sum(1 << sigma.index_of(f) for f in good)
    assert is_atom(bits, sigma)
    assert not is_atom(bits & ~(1 << sigma.index_of(Var('p'))), sigma)


# The formula-walking enumerator and Hintikka check that sigma.shapes
# replaced: every candidate looks its subformulas up by formula.

def _walking_enumerate_atoms(sigma):
    base = [i for i, f in enumerate(sigma.formulas)
            if isinstance(f, (Var, Dia, Sharp))]

    def value(f, chosen):
        if isinstance(f, Bottom):
            return 0
        i = sigma.index_of(f)
        if i in chosen:
            return chosen[i]
        if isinstance(f, Neg):
            return 1 - value(f.child, chosen)
        if isinstance(f, Or):
            return value(f.left, chosen) | value(f.right, chosen)
        raise AssertionError(f)

    out = []
    for mask in range(1 << len(base)):
        chosen = {i: mask >> k & 1 for k, i in enumerate(base)}
        bits = 0
        for i, f in enumerate(sigma.formulas):
            bits |= value(f, chosen) << i
        if all(bits >> i & 1 == bits >> u & 1
               for i, (u, _) in sigma.sharp_unfoldings.items()):
            out.append(bits)
    out.sort()
    return out


def _walking_is_atom(bits, sigma):
    for i, f in enumerate(sigma.formulas):
        have = bits >> i & 1
        if isinstance(f, Bottom) and have:
            return False
        if isinstance(f, Or):
            l = bits >> sigma.index_of(f.left) & 1
            r = bits >> sigma.index_of(f.right) & 1
            if have != (l | r):
                return False
        if have == (bits >> _complement(sigma, i) & 1):
            return False
    return all(bits >> i & 1 == bits >> u & 1
               for i, (u, _) in sigma.sharp_unfoldings.items())


STAGES = connectives_from_json([
    {'name': 'rf', 'arity': 1, 'body': 'q | <F>x'},
    {'name': 'rb', 'arity': 1, 'body': 'q | <B>x'},
    {'name': 'sf', 'arity': 1, 'body': '[F]x | q'},
    {'name': 'sb', 'arity': 1, 'body': '[B]x | q'},
])


def _stage_formulas(depth):
    """Formulas over p, q and _|_ with at most depth nested constructors,
    built from Neg, Or, both diamonds and the four stage connectives."""
    out = st.sampled_from([Bottom(), Var('p'), Var('q')])
    for _ in range(depth):
        sub = out
        out = st.one_of(
            sub,
            sub.map(Neg),
            st.tuples(sub, sub).map(lambda t: Or(*t)),
            st.tuples(st.sampled_from('FB'), sub).map(lambda t: Dia(*t)),
            st.tuples(st.sampled_from(sorted(STAGES)), sub).map(
                lambda t: Sharp(STAGES[t[0]], (t[1],))),
        )
    return out


@given(_stage_formulas(2), st.data())
@settings(max_examples=150, deadline=None)
def test_atoms_agree_with_the_formula_walking_enumerator(f, data):
    sigma = fl_closure(f)
    atoms = enumerate_atoms(sigma)
    assert atoms == _walking_enumerate_atoms(sigma)
    # every atom, each atom with one bit flipped, and arbitrary bitsets
    probes = list(atoms)
    for a in atoms[:8]:
        probes.extend(a ^ 1 << i for i in range(len(sigma)))
    probes.extend(data.draw(st.lists(
        st.integers(0, (1 << len(sigma)) - 1), max_size=20)))
    for bits in probes:
        assert is_atom(bits, sigma) == _walking_is_atom(bits, sigma)


@pytest.mark.parametrize('text, count, digest', [
    ('#rf(p)', 32,
     'bae37c679e3b0f7d0a45ba4269075a00410d778be5eb863d7d80b9db879cfc52'),
    ('#sf(p)', 16,
     'd344871c01a3984280869a3e10b74ab67fd23571c241ce7cef864a00ccd7c219'),
    ('#sb(<F>p)', 32,
     'b9a3d4e2d2f8f4a5066faa9f490089c33093f3f869094f9464e9fa5fd74601fe'),
    ('#rf(p) & #rb(q)', 256,
     'cba3af9cc50acbcb3fc664e7212f8231ca2c930b446aebe7ff2904b8e2c7ef95'),
    ('#sf(q) & #rf(p)', 128,
     '55d56e77f143682d9d7938e1a47b5d61f1dd29d53bb5edd808e90ffe56ad6248'),
    ('#rf(p) & #rb(p) & #rf(q)', 512,
     '38551a3b1b457030597f03880f904b8bf82e4cc2260df042b5a3bcd3853be117'),
])
def test_build_corpus_atoms_are_pinned(text, count, digest):
    atoms = enumerate_atoms(fl_closure(parse(text, STAGES)))
    assert len(atoms) == count
    assert hashlib.sha256(
        ' '.join(map(str, atoms)).encode()).hexdigest() == digest


def test_shapes_list_children_first():
    for origin in CORPUS:
        sigma = fl_closure(origin)
        shapes = sigma.shapes
        assert sorted(i for i, _, _ in shapes) == list(range(len(sigma)))
        placed = set()
        for i, cls, kids in shapes:
            assert type(sigma.formulas[i]) is cls
            assert all(k in placed for k in kids)
            placed.add(i)


# -- coherence ---------------------------------------------------------------

def _coherent_box_oracle(a_bits, b_bits, sigma):
    """Box members propagate along an edge; independent route.

    A box member of an atom is the absent complementary diamond, so the
    check reads: diamond absent on one side forces the child's complement
    on the other.
    """
    for i, f in enumerate(sigma.formulas):
        if not isinstance(f, Dia):
            continue
        j = sigma.index_of(f.child)
        if f.direction == 'F' and not a_bits >> i & 1:
            if b_bits >> j & 1:
                return False
        if f.direction == 'B' and not b_bits >> i & 1:
            if a_bits >> j & 1:
                return False
    return True


def test_coherent_agrees_with_box_oracle():
    for origin in (parse('p', {}), Sharp(CHI1, (Var('q'),)), Sharp(STEPS, ())):
        sigma = fl_closure(origin)
        atoms = enumerate_atoms(sigma)
        for a in atoms:
            for b in atoms:
                assert coherent(a, b, sigma) == _coherent_box_oracle(a, b, sigma)


def test_coherent_pinned_pairs():
    sigma = fl_closure(parse('p', {}))
    assert coherent(85, 106, sigma)
    atoms = enumerate_atoms(sigma)
    dead_f = 1 << sigma.index_of(box('F', Bottom()))
    dead_b = 1 << sigma.index_of(box('B', Bottom()))
    for a in atoms:
        for b in atoms:
            if a & dead_f:
                assert not coherent(a, b, sigma)
            if b & dead_b:
                assert not coherent(a, b, sigma)


# -- deferrals ---------------------------------------------------------------

def test_deferral_table_of_box_or_body():
    focus = Sharp(CHI1, (Var('q'),))
    sigma = fl_closure(focus)
    table = DeferralTable(sigma)
    assert table.d == 3
    assert table.multiplicity == 3
    x = Var('x')
    parts = [d.body_part for d in table.deferrals]
    assert parts == [CHI1.body, box('F', x), x]
    assert {sigma.formulas[d.index] for d in table.deferrals} == {
        Or(box('F', focus), Var('q')), box('F', focus), focus,
    }
    for d in table.deferrals:
        assert d.host == focus
        assert d.direction == 'F'
        assert d.dnode is not None
    assert table.deferrals[2].bottom == sigma.index_of(
        Or(box('F', Bottom()), Var('q')))


def test_deferral_table_resolves_every_grammar_child():
    focus = Sharp(CHI1, (Var('q'),))
    sigma = fl_closure(focus)
    body, boxed, x = DeferralTable(sigma).deferrals
    at = sigma.index_of
    assert body.children == ((at(box('F', focus)), 1), (at(Var('q')), None))
    assert boxed.children == ((at(focus), 2),)
    assert x.children == ()
    assert (x.bottom, x.body) == (at(Or(box('F', Bottom()), Var('q'))), 0)
    assert body.bottom is None and body.body is None


def test_deferral_table_empty_without_sharps():
    sigma = fl_closure(parse('<F>p | [B]q', {}))
    table = DeferralTable(sigma)
    assert table.d == 0
    assert table.multiplicity == 1
    assert table.deferrals == ()


def test_deferral_table_backward_body():
    sigma = fl_closure(Sharp(CHI2, (Var('q'),)))
    table = DeferralTable(sigma)
    assert table.d == 3
    assert all(d.direction == 'B' for d in table.deferrals)


def test_deferral_table_non_disjunctive_fallback():
    focus = Sharp(TANGLE, ())
    sigma = fl_closure(focus)
    table = DeferralTable(sigma)
    x = Var('x')
    assert all(d.dnode is None for d in table.deferrals)
    assert all(d.direction is None for d in table.deferrals)
    assert all(d.children == () for d in table.deferrals)
    parts = [d.body_part for d in table.deferrals]
    assert parts == [
        TANGLE.body, Or(Neg(Dia('F', x)), Neg(Dia('B', x))),
        Neg(Dia('F', x)), Dia('F', x), x, Neg(Dia('B', x)), Dia('B', x),
    ]
    # an instantiation puts the host for x; TANGLE takes no arguments
    assert [sigma.formulas[d.index] for d in table.deferrals] == [
        substitute(part, {'x': focus}) for part in parts]


# bodies whose tables have 'and' and 'nabla' positions, which the
# generated corpus of check 7 lacks
POSITION_CONNS = tuple(
    FixpointConnective('m%d' % i, 1, parse(body, {}))
    for i, body in enumerate(('q & <F>x', 'nablaF{x, q}',
                              'q | nablaB{x | q, <F>q}',
                              '~q & nablaF{q & x, x}')))
# sha256 of the tables below as they stood when each grammar position was
# one of five classes, the kind read from the class and a nabla's tag
PINNED_TABLES = \
    '878ae89cca770f84130659362181ff83624d3a713d13ebb4611f004e2edabe33'


def test_deferral_tables_of_the_connective_corpus_are_pinned():
    lines, kinds = [], set()
    for chi in _disjunctive_corpus() + list(_STAGE_CONNS + POSITION_CONNS):
        table = DeferralTable(fl_closure(Sharp(chi, (Var('p'),))))
        for dfl in table.deferrals:
            kinds.add(dfl.dnode.kind)
            lines.append(repr((
                to_string(dfl.body_part), dfl.index, dfl.direction,
                dfl.children, dfl.bottom, dfl.body, dfl.dnode.kind)))
    assert kinds == {'x', 'or', 'and', 'dia', 'box', 'nabla'}
    assert len(lines) == 168
    assert hashlib.sha256('\n'.join(lines).encode()).hexdigest() == \
        PINNED_TABLES


def test_deferral_instantiations_use_host_arguments():
    focus = Sharp(REACH, (Neg(Var('p')),))
    sigma = fl_closure(focus)
    table = DeferralTable(sigma)
    assert [d.body_part for d in table.deferrals] == [
        REACH.body, Dia('F', Var('x')), Var('x')]
    assert sigma.formulas[table.deferrals[1].index] == Dia('F', focus)
    insts = {(d.body_part, sigma.formulas[d.index]) for d in table.deferrals}
    assert (Var('x'), focus) in insts

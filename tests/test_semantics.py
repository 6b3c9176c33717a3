import random
from itertools import product

import numpy as np
import pytest

from flatmu.closure import enumerate_atoms, fl_closure, is_atom
from flatmu.semantics import (
    KripkeModel, approximant, axiom_instances, brute_force_sat, eval,
    eval_bits, eval_fixpoint_by_intersection, eval_nabla_via_relation, frames,
)
from flatmu.syntax import (
    Bottom, Dia, FixpointConnective, Neg, Or, Sharp, Var,
    and_, box, nabla, parse, top,
)

CHI1 = FixpointConnective('chi1', 1, parse('[F]x | q', {}))
CHI2 = FixpointConnective('chi2', 1, parse('[B]x | q', {}))
REACH = FixpointConnective('reach', 1, parse('q | <F>x', {}))
REACH_B = FixpointConnective('reachb', 1, parse('q | <B>x', {}))


def all_models(states, names=('p', 'q')):
    pairs = [(i, j) for i in range(states) for j in range(states)]
    for edge_mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if edge_mask >> i & 1]
        for vals in product(range(1 << states), repeat=len(names)):
            valuation = {
                name: {w for w in range(states) if vm >> w & 1}
                for name, vm in zip(names, vals)}
            yield KripkeModel(states, edges, valuation)


def random_model(rng, states, names=('p', 'q')):
    edges = [(i, j) for i in range(states) for j in range(states)
             if rng.random() < 0.3]
    valuation = {name: {w for w in range(states) if rng.random() < 0.5}
                 for name in names}
    return KripkeModel(states, edges, valuation)


def test_model_validation():
    with pytest.raises(ValueError):
        KripkeModel(0)
    with pytest.raises(ValueError, match=r'^edge \(0, 2\) out of range$'):
        KripkeModel(2, [(0, 2)])
    with pytest.raises(ValueError, match='^valuation of p out of range$'):
        KripkeModel(2, [], {'p': [5]})
    with pytest.raises(ValueError, match='^valuation of p out of range$'):
        KripkeModel(2, [], {'p': [-1]})


def test_model_keeps_masks_and_derives_sets():
    m = KripkeModel(3, [(0, 1), (2, 0), (0, 1), (2, 2)],
                    {'p': [2, 0, 2], 'q': []})
    assert (m.full_mask, m.succ_mask, m.pred_mask) == (
        0b111, (0b010, 0, 0b101), (0b100, 0b001, 0b100))
    assert [m.valuation_mask(n) for n in 'pqr'] == [0b101, 0, 0]
    assert m.edges == {(0, 1), (2, 0), (2, 2)}
    assert m.valuation == {'p': frozenset({0, 2}), 'q': frozenset()}
    assert repr(m) == 'KripkeModel(3 states, 3 edges)'
    assert 'edges' not in vars(KripkeModel(2, [(0, 1)]))


def test_json_round_trip():
    m = KripkeModel(3, [(0, 1), (2, 0)], {'p': [2, 0], 'q': []})
    again = KripkeModel.from_json(m.to_json())
    assert again.states == m.states
    assert again.edges == m.edges
    assert again.valuation == m.valuation
    assert m.to_json() == again.to_json()


def test_diamonds_move_along_and_against_edges():
    m = KripkeModel(3, [(0, 1), (1, 2)], {'p': [2]})
    assert eval(parse('<F>p', {}), m) == {1}
    assert eval(parse('<F><F>p', {}), m) == {0}
    assert eval(parse('<B>p', {}), m) == set()
    assert eval(parse('<B>~p', {}), m) == {1, 2}
    assert eval(parse('[F]p', {}), m) == {1, 2}


def test_reachability_fixpoint_on_chain():
    m = KripkeModel(2, [(0, 1)], {'p': [1]})
    f = Sharp(REACH, (Var('p'),))
    assert eval(f, m) == {0, 1}
    assert eval(Sharp(REACH_B, (Var('p'),)), m) == {1}
    m2 = KripkeModel(3, [(0, 1)], {'p': [2]})
    assert eval(f, m2) == {2}


def test_fixpoint_without_base_case_is_empty():
    loop = KripkeModel(1, [(0, 0)], {})
    gfpish = FixpointConnective('allnext', 0, parse('<F>x', {}))
    assert eval(Sharp(gfpish, ()), loop) == set()


def test_env_overlays_valuation():
    m = KripkeModel(2, [], {'p': [0]})
    assert eval(Var('p'), m, env={'p': {1}}) == {1}
    assert eval(Var('r'), m) == set()


def test_nabla_expansion_laws_exhaustive_two_states():
    pool = [parse(s, {}) for s in ('p', 'q', 'p | ~q', '<F>p')]
    for m in all_models(2):
        for f in pool:
            dia = eval_bits(Dia('F', f), m)
            assert dia == eval_bits(nabla('F', [f, top()]), m)
            assert dia == eval_bits(Dia('F', f), m)
            bx = eval_bits(box('B', f), m)
            assert bx == eval_bits(Or(nabla('B', []), nabla('B', [f])), m)


def test_nabla_via_relation_matches_expansion():
    rng = random.Random(7)
    pool = [parse(s, {}) for s in ('p', 'q', 'p & q', '~p', '<B>q')]
    models = list(all_models(2)) + [random_model(rng, 5) for _ in range(30)]
    for m in models:
        for d in ('F', 'B'):
            for comps in ([], [pool[0]], [pool[1], pool[3]], [pool[2], pool[4]]):
                expansion = (nabla(d, comps) if comps
                             else box(d, Bottom()))
                truth = eval_bits(expansion, m)
                for w in range(m.states):
                    assert eval_nabla_via_relation(comps, d, m, w) == bool(
                        truth >> w & 1)


def test_approximants_grow_to_the_fixpoint():
    rng = random.Random(11)
    models = [random_model(rng, n) for n in (2, 3, 4, 5) for _ in range(10)]
    for chi in (REACH, CHI1, CHI2, REACH_B):
        f = Sharp(chi, (Var('p'),))
        for m in models:
            full = eval_bits(f, m)
            prev = 0
            for k in range(m.states + 1):
                stage = eval_bits(approximant(chi, k, (Var('p'),)), m)
                assert stage & ~full == 0
                assert prev & ~stage == 0
                prev = stage
            assert prev == full


def test_approximant_zero_plugs_bottom():
    f = approximant(REACH, 0, (Var('p'),))
    assert f == Or(Var('p'), Dia('F', Bottom()))


def test_kleene_matches_prefixpoint_intersection():
    rng = random.Random(13)
    models = list(all_models(2)) + [random_model(rng, 4) for _ in range(25)]
    for chi in (REACH, CHI1, CHI2):
        f = Sharp(chi, (Var('p'),))
        for m in models:
            assert eval(f, m) == eval_fixpoint_by_intersection(
                chi, (Var('p'),), m)


def test_axiom_instances_are_valid():
    pool = [parse('p', {}), parse('q', {}), parse('<F>p', {}),
            Sharp(REACH, (Var('p'),))]
    instances = axiom_instances(pool)
    assert len(instances) == 2 + 2 * 16 + 8 + 1
    rng = random.Random(17)
    models = list(all_models(2)) + [random_model(rng, 4) for _ in range(15)]
    for m in models:
        for inst in instances:
            assert eval_bits(inst, m) == m.full_mask


def test_axiom_instances_cover_nested_sharps():
    inner = Sharp(CHI2, (Bottom(),))
    outer = Sharp(CHI1, (Neg(inner),))
    instances = axiom_instances([Neg(outer)])
    tails = [f for f in instances
             if isinstance(f, Or) and f.right in (outer, inner)]
    assert len(tails) == 2


def test_positivity_gives_monotone_fixpoints():
    rng = random.Random(19)
    small, large = parse('p & q', {}), parse('p | q', {})
    for chi in (REACH, CHI1):
        for _ in range(20):
            m = random_model(rng, 4)
            lo = eval_bits(Sharp(chi, (small,)), m)
            hi = eval_bits(Sharp(chi, (large,)), m)
            assert lo & ~hi == 0


def test_realized_state_sets_are_atoms():
    rng = random.Random(23)
    for origin in (parse('p', {}), Sharp(CHI1, (Var('q'),)),
                   Sharp(REACH, (Var('p'),))):
        sigma = fl_closure(origin)
        for _ in range(15):
            m = random_model(rng, 4)
            truth = {i: eval_bits(f, m) for i, f in enumerate(sigma.formulas)}
            for w in range(m.states):
                bits = 0
                for i in range(len(sigma)):
                    bits |= (truth[i] >> w & 1) << i
                assert is_atom(bits, sigma)
                assert bits in set(enumerate_atoms(sigma))


def test_brute_force_finds_minimal_witnesses():
    got = brute_force_sat(parse('p', {}), 2)
    assert got is not None
    model, w = got
    assert model.states == 1 and model.edges == frozenset()
    assert model.valuation == {'p': frozenset({0})}
    assert w == 0

    assert brute_force_sat(Bottom(), 3) is None
    assert brute_force_sat(parse('p & ~p', {}), 2) is None

    got = brute_force_sat(parse('<F>p & ~p', {}), 3)
    model, w = got
    assert model.states == 2
    assert w in eval(parse('<F>p & ~p', {}), model)
    for m in all_models(1, ('p',)):
        assert not eval(parse('<F>p & ~p', {}), m)


def test_brute_force_respects_enumeration_order():
    # no edges sorts before edge masks, empty valuation before others
    got = brute_force_sat(parse('~p', {}), 2)
    model, w = got
    assert (model.states, sorted(model.edges), w) == (1, [], 0)
    assert model.valuation == {'p': frozenset()}

    got = brute_force_sat(parse('[F]_|_', {}), 2)
    model, w = got
    assert model.states == 1 and model.edges == frozenset()


def test_brute_force_overlays_two_letters_on_the_frame():
    got = brute_force_sat(parse('p & ~q & <F>(q & ~p)', {}), 2)
    model, w = got
    assert model.to_json() == {'states': 2, 'edges': [[0, 1]],
                               'valuation': {'p': [0], 'q': [1]}}
    assert w == 0


def test_frames_walk_isomorphism_classes_then_every_mask():
    assert [len(tuple(frames(n))) for n in (1, 2, 3, 4)] == [2, 10, 104, 3044]
    two = list(frames(2))
    assert two[0].edges == frozenset() and two[0].valuation == {}
    assert two[-1].edges == {(0, 0), (0, 1), (1, 0), (1, 1)}
    # beyond four states every mask is a frame; next() must not build the
    # 2^25 five-state frames that follow the first
    first = next(frames(5))
    assert first.states == 5 and first.edges == frozenset()


def test_lanes_agree_with_int_masks_lane_by_lane():
    # one lane per joint valuation of p and q; lane k holds p = k mod 2^n
    # and q = k div 2^n, decoded here without the selftest's helpers
    forms = [Bottom(), parse('[F]_|_', {}), parse('~<B>_|_', {}),
             parse('<F><B>p', {}), parse('p & ~q', {}),
             Sharp(REACH, (Sharp(CHI2, (Var('p'),)),))]
    compared = 0
    for n in (1, 2, 3):
        idx = np.arange(1 << 2 * n, dtype=np.uint32)
        env = {'p': idx & np.uint32((1 << n) - 1), 'q': idx >> np.uint32(n)}
        for fr in frames(n):
            shared, results = {}, []
            for f in forms:
                got = eval_bits(f, fr, env)
                assert got.dtype == np.uint32 and got.shape == idx.shape
                assert np.array_equal(eval_bits(f, fr, env, shared), got)
                results.append(got)
            for k in range(len(idx)):
                m = KripkeModel(n, fr.edges, {
                    'p': {w for w in range(n) if k % (1 << n) >> w & 1},
                    'q': {w for w in range(n) if k >> n >> w & 1}})
                for f, got in zip(forms, results):
                    assert int(got[k]) == eval_bits(f, m)
                    compared += 1
    assert compared == 6 * (2 * 4 + 10 * 16 + 104 * 64)


def test_brute_force_two_nested_fixpoints():
    inner = Sharp(CHI2, (Bottom(),))
    outer = Sharp(CHI1, (Neg(inner),))
    got = brute_force_sat(Neg(outer), 3)
    assert got is None


def test_converse_laws_hold_pointwise():
    rng = random.Random(29)
    f = parse('p -> [F]<B>p', {})
    g = parse('p -> [B]<F>p', {})
    for _ in range(40):
        m = random_model(rng, 5)
        assert eval_bits(f, m) == m.full_mask
        assert eval_bits(g, m) == m.full_mask


def test_conjunction_sugar_evaluates_classically():
    m = KripkeModel(2, [], {'p': [0, 1], 'q': [1]})
    assert eval(and_(Var('p'), Var('q')), m) == {1}
    assert eval(parse('p <-> q', {}), m) == {1}

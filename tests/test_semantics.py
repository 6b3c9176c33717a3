import operator
import random
from functools import lru_cache, reduce
from itertools import islice, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from flatmu import semantics
from flatmu.acceptance import _random_models
from flatmu.closure import enumerate_atoms, fl_closure, is_atom
from flatmu.semantics import (
    CHUNK, _CHUNK_BITS, FrameBatch, KripkeModel, _frame_reps, approximant,
    axiom_instances, brute_force_sat, eval_bits, eval_fixpoint_by_intersection,
    eval_nabla_via_relation, frame_batches, model_lanes,
)
from flatmu.syntax import (
    Bottom, Dia, FixpointConnective, Neg, Or, Sharp, Var,
    and_, box, free_vars, nabla, parse, top,
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
    assert (m.full_mask, m.nbr_masks) == (
        0b111, {'F': (0b010, 0, 0b101), 'B': (0b100, 0b001, 0b100)})
    for s in range(1 << 3):
        assert m.image('F', s) == sum({1 << a for a, b in m.edges
                                       if s >> b & 1})
        assert m.image('B', s) == sum({1 << b for a, b in m.edges
                                       if s >> a & 1})
    assert [m.valuation_mask(n) for n in 'pqr'] == [0b101, 0, 0]
    assert m.edges == {(0, 1), (2, 0), (2, 2)}
    assert m.valuation == {'p': frozenset({0, 2}), 'q': frozenset()}
    assert repr(m) == 'KripkeModel(3 states, 3 edges)'
    assert 'edges' not in vars(KripkeModel(2, [(0, 1)]))
    # truth sets are plain ints: no carrier-specific empty set or equality
    assert not hasattr(m, 'zero') and not hasattr(m, 'same')


def test_json_round_trip():
    m = KripkeModel(3, [(0, 1), (2, 0)], {'p': [2, 0], 'q': []})
    again = KripkeModel.from_json(m.to_json())
    assert again.states == m.states
    assert again.edges == m.edges
    assert again.valuation == m.valuation
    assert m.to_json() == again.to_json()


def test_diamonds_move_along_and_against_edges():
    m = KripkeModel(3, [(0, 1), (1, 2)], {'p': [2]})
    assert eval_bits(parse('<F>p', {}), m) == 0b010
    assert eval_bits(parse('<F><F>p', {}), m) == 0b001
    assert eval_bits(parse('<B>p', {}), m) == 0
    assert eval_bits(parse('<B>~p', {}), m) == 0b110
    assert eval_bits(parse('[F]p', {}), m) == 0b110


def test_reachability_fixpoint_on_chain():
    m = KripkeModel(2, [(0, 1)], {'p': [1]})
    f = Sharp(REACH, (Var('p'),))
    assert eval_bits(f, m) == 0b11
    assert eval_bits(Sharp(REACH_B, (Var('p'),)), m) == 0b10
    m2 = KripkeModel(3, [(0, 1)], {'p': [2]})
    assert eval_bits(f, m2) == 0b100


def test_fixpoint_without_base_case_is_empty():
    loop = KripkeModel(1, [(0, 0)], {})
    gfpish = FixpointConnective('allnext', 0, parse('<F>x', {}))
    assert eval_bits(Sharp(gfpish, ()), loop) == 0


def test_env_overlays_valuation():
    m = KripkeModel(2, [], {'p': [0]})
    assert eval_bits(Var('p'), m, env={'p': 0b10}) == 0b10
    assert eval_bits(Var('r'), m) == 0


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
            assert eval_bits(f, m) == eval_fixpoint_by_intersection(
                chi, (Var('p'),), m)


def _kleene_walk(chi, args, model):
    """The fixpoint by Kleene rounds, each a recursive walk of the body
    under an env binding x and the parameters."""
    env = {'q%d' % (k + 1): eval_bits(a, model) for k, a in enumerate(args)}
    env['x'] = out = 0
    while True:
        nxt = eval_bits(chi.body, model, env)
        if nxt == out:
            return out
        env['x'] = out = nxt


def _bodies():
    """(arity, body) pairs: arity 0 to 2, a body over x and q1..q_arity
    built from _|_, letters, negated parameters, disjunction, conjunction,
    diamonds, boxes and nablas, so positive in x."""
    def over(arity):
        qs = [Var('q%d' % (i + 1)) for i in range(arity)]
        leaves = st.sampled_from([Var('x'), Bottom(), *qs, *map(Neg, qs)])
        side = st.sampled_from('FB')

        def extend(children):
            return st.one_of(
                st.tuples(children, children).map(lambda t: Or(*t)),
                st.tuples(children, children).map(lambda t: and_(*t)),
                st.tuples(side, children).map(lambda t: Dia(*t)),
                st.tuples(side, children).map(lambda t: box(*t)),
                st.tuples(side, st.lists(children, max_size=2)).map(
                    lambda t: nabla(*t)),
            )

        return st.tuples(st.just(arity),
                         st.recursive(leaves, extend, max_leaves=6))

    return st.integers(0, 2).flatmap(over)


_ARGS = [Var('p'), Var('q'), Neg(Var('p')), Dia('B', Var('q')), Bottom()]


@given(_bodies(), st.lists(st.sampled_from(_ARGS), min_size=2, max_size=2),
       st.integers(1, 4), st.integers(0, 2 ** 32), st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_a_compiled_body_computes_what_the_body_walk_does(
        arity_body, args, states, seed, lane_states):
    arity, body = arity_body
    chi = FixpointConnective('c', arity, body)
    args = tuple(args[:arity])
    f = Sharp(chi, args)
    rng = random.Random(seed)
    for m in [random_model(rng, states) for _ in range(3)]:
        got = eval_bits(f, m)
        assert got == eval_fixpoint_by_intersection(chi, args, m)
        assert got == _kleene_walk(chi, args, m)
    for batch in frame_batches(lane_states, ('p', 'q')):
        got = eval_bits(f, batch)
        assert got == _kleene_walk(chi, args, batch)
        for i in rng.sample(range(len(batch)), 3):
            m = batch.model(i)
            assert batch.lane(got, i) == eval_fixpoint_by_intersection(
                chi, args, m)


def test_a_connective_compiles_its_plan_once_on_first_evaluation():
    chi = FixpointConnective('c', 1, parse('q | <F>x', {}))
    assert 'plan' not in vars(chi)
    m = KripkeModel(3, [(0, 1), (1, 2)], {'p': [2]})
    assert eval_bits(Sharp(chi, (Var('p'),)), m) == 0b111
    plan = vars(chi)['plan']
    # slots: x, q1, _|_, <F>x, q1 | <F>x
    assert plan == (4, (('dia', 'F', 0), ('or', 1, 3)))
    assert eval_bits(Sharp(chi, (Var('q'),)), m) == 0
    batch = next(frame_batches(2, ('p',)))
    assert eval_bits(Sharp(chi, (Var('p'),)), batch) \
        == _kleene_walk(chi, (Var('p'),), batch)
    assert vars(chi)['plan'] is plan and chi.plan is plan


def test_a_plan_gives_each_distinct_subformula_one_slot():
    chi = FixpointConnective('c', 2, parse('(q1 | x) & <B>(q1 | x) | _|_', {}))
    # slots 0-3 are x, q1, q2 and _|_; q1 | x fills slot 4 once, and the
    # conjunction is ~(~a | ~b)
    assert chi.plan == (10, (
        ('or', 1, 0), ('neg', 4, 0), ('dia', 'B', 4), ('neg', 6, 0),
        ('or', 5, 7), ('neg', 8, 0), ('or', 9, 3)))


def test_a_stage_chain_under_one_memo_matches_fresh_memos():
    # row 4's shape: stage k is built on stage k - 1, so a shared memo
    # meets each earlier stage as a subformula of the next
    rng = random.Random(17)
    models = [random_model(rng, n) for n in (1, 2, 3, 5) for _ in range(4)]
    for chi in (REACH, CHI1, CHI2, REACH_B):
        theta = parse('p & <B>q', {})
        forms = [Sharp(chi, (theta,)), approximant(chi, 0, (theta,))]
        while len(forms) < 8:
            forms.append(chi.instantiate(forms[-1], (theta,)))
        for m in models + list(frame_batches(3, ('p', 'q')))[:2]:
            memo = {}
            for form in forms:
                assert eval_bits(form, m, None, memo) == eval_bits(form, m)


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
    assert eval_bits(parse('<F>p & ~p', {}), model) >> w & 1
    for m in all_models(1, ('p',)):
        assert not eval_bits(parse('<F>p & ~p', {}), m)


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
    # without letters a batch holds one lane per frame
    assert [sum(map(len, frame_batches(n))) for n in (1, 2, 3, 4)] \
        == [2, 10, 104, 3044]
    [two] = frame_batches(2)
    first, last = two.model(0), two.model(len(two) - 1)
    assert first.edges == frozenset() and first.valuation == {}
    assert last.edges == {(0, 0), (0, 1), (1, 0), (1, 1)}
    # beyond four states every edge mask would be a frame: refused up
    # front, before the smaller sizes find a witness
    with pytest.raises(ValueError, match=r'not 5: 5 states have 2\^25 '):
        brute_force_sat(parse('p', {}), 5)


def _edges(n, mask):
    return [divmod(b, n) for b in range(n * n) if mask >> b & 1]


def _states(n, mask):
    return {w for w in range(n) if mask >> w & 1}


def _everywhere(batch, s):
    """The truth set holding the state set s on every lane of batch."""
    lanes = (1 << len(batch)) - 1
    return sum(lanes << w * len(batch) for w in range(batch.states)
               if s >> w & 1)


def test_lanes_agree_with_int_masks_lane_by_lane():
    # lane L of the n-state space is frame L div 4^n of _frame_reps(n)
    # with p = L mod 2^n and q = L div 2^n mod 2^n, decoded here without
    # the batch's helpers; each size fits one chunk, and bit
    # w * len(batch) + i of a truth set is state w of lane i
    forms = [Bottom(), parse('[F]_|_', {}), parse('~<B>_|_', {}),
             parse('<F><B>p', {}), parse('p & ~q', {}),
             Sharp(REACH, (Sharp(CHI2, (Var('p'),)),))]
    compared = 0
    for n in (1, 2, 3):
        stop = 0
        for batch in frame_batches(n, ('p', 'q')):
            assert batch.start == stop and len(batch) <= CHUNK
            stop += len(batch)
            images = {(d, s): batch.image(d, _everywhere(batch, s))
                      for d in 'FB' for s in range(1 << n)}
            shared, results = {}, []
            for f in forms:
                got = eval_bits(f, batch)
                assert type(got) is int and got & ~batch.full_mask == 0
                assert got.bit_length() <= n * len(batch)
                assert eval_bits(f, batch, None, shared) == got
                assert got != batch.full_mask & ~got
                results.append(got)
            for i in range(len(batch)):
                frame, k = divmod(batch.start + i, 1 << 2 * n)
                m = KripkeModel(n, _edges(n, _frame_reps(n)[frame]), {
                    'p': _states(n, k % (1 << n)), 'q': _states(n, k >> n)})
                assert {d: [batch.lane(s, i) for s in masks]
                        for d, masks in batch.nbr_masks.items()} \
                    == {d: list(masks) for d, masks in m.nbr_masks.items()}
                for (d, s), image in images.items():
                    assert batch.lane(image, i) == m.image(d, s)
                for f, got in zip(forms, results):
                    assert batch.lane(got, i) == eval_bits(f, m)
                    compared += 1
        assert stop == len(_frame_reps(n)) << 2 * n
    assert compared == 6 * (2 * 4 + 10 * 16 + 104 * 64)


def test_a_third_chunk_lane_decodes_as_the_per_frame_walk_names_it():
    batches = frame_batches(4, ('p', 'q'))
    next(batches), next(batches)
    third = next(batches)
    assert third.start == 2 * CHUNK
    i = 1234
    # the per-frame walk: 256 valuations per frame, p varying fastest
    before = 0
    for fi, mask in enumerate(_frame_reps(4)):
        if before + 256 > third.start + i:
            break
        before += 256
    lane = third.start + i - before
    assert (fi, lane) == (260, 210)
    assert third.locate(i) == (fi, lane) and third.index(fi, lane) == i
    m = third.model(i)
    assert m.edges == set(_edges(4, mask))
    assert m.valuation == {'p': _states(4, lane % 16),
                           'q': _states(4, lane // 16)}
    f = Sharp(REACH, (parse('<B>p & ~q', {}),))
    assert third.lane(eval_bits(f, third), i) == eval_bits(f, m)


def test_the_last_lane_is_the_full_frame_and_planes_span_the_batch():
    # _CHUNK_BITS reads CHUNK as a power of two; the last lane of the
    # joint space is the frame with all 16 edges, where every state has a
    # successor, and each of the four state planes is len(batch) bits wide
    assert CHUNK == 1 << _CHUNK_BITS
    *_, batch = frame_batches(4, ('p', 'q'), 1)
    last = len(batch) - 1
    assert batch.lane(batch.image('F', batch.full_mask), last) == 15
    assert batch.full_mask == _everywhere(batch, 15)
    assert batch.somewhere(batch.full_mask) == (1 << len(batch)) - 1
    for name in 'pq':
        assert batch.valuation_mask(name).bit_length() <= 4 * len(batch)
    assert batch.valuation_mask('r') == 0
    assert all(e.bit_length() <= len(batch) for row in batch._toward['F']
               for e in row)


def _joint_lane(lane, names=('p', 'q')):
    """(size, frame index, valuation index, KripkeModel) of a lane of the
    joint space on 1..4 states, decoded without the batch's helpers."""
    before = 0
    for n in (1, 2, 3, 4):
        lanes = len(_frame_reps(n)) << n * len(names)
        if lane < lanes:
            frame, k = divmod(lane, 1 << n * len(names))
            m = KripkeModel(n, _edges(n, _frame_reps(n)[frame]), {
                nm: _states(n, k >> j * n & (1 << n) - 1)
                for j, nm in enumerate(names)})
            return n, before + frame, k, m
        lane -= lanes
        before += len(_frame_reps(n))
    raise IndexError(lane)


def test_a_mixed_size_batch_agrees_with_int_masks_at_its_seams():
    # four states with p and q: the first chunk holds all 8 + 160 + 6,656
    # lanes on one to three states and the first 25,944 on four; the second
    # starts 25,944 lanes into the four-state lanes and crosses a multiple
    # of CHUNK of their numbering at its lane 6,824
    batches = frame_batches(4, ('p', 'q'), 1)
    first, second = next(batches), next(batches)
    assert (first.start, len(first), second.start) == (0, CHUNK, CHUNK)
    assert first.states == second.states == 4
    forms = [Bottom(), parse('~<B>_|_', {}), parse('<F><B>p & ~q', {}),
             Sharp(REACH, (Sharp(CHI2, (Var('p'),)),)),
             Sharp(REACH_B, (parse('q & [F]p', {}),))]
    seams = {first: (0, 7, 8, 167, 168, 6823, 6824, CHUNK - 1),
             second: (0, 6823, 6824, 6825, CHUNK - 1)}
    for batch, lanes in seams.items():
        results = [eval_bits(f, batch) for f in forms]
        for i in lanes:
            n, frame, k, m = _joint_lane(batch.start + i)
            assert batch.model(i).to_json() == m.to_json()
            assert batch.locate(i) == (frame, k)
            assert batch.index(frame, k) == i
            assert batch.lane(batch.full_mask, i) == m.full_mask
            assert {d: [batch.lane(s, i) for s in masks]
                    for d, masks in batch.nbr_masks.items()} \
                == {d: list(masks) + [0] * (4 - n)
                    for d, masks in m.nbr_masks.items()}
            for d in 'FB':
                for s in range(1 << n):
                    arg = _everywhere(batch, s) & batch.full_mask
                    assert batch.lane(batch.image(d, arg), i) \
                        == m.image(d, s)
            for f, got in zip(forms, results):
                assert batch.lane(got, i) == eval_bits(f, m)
    # every lane of the two chunks against the one-size batches
    alone = [b for n in (1, 2, 3) for b in frame_batches(n, ('p', 'q'))]
    alone += list(frame_batches(4, ('p', 'q')))[:2]
    for f in forms:
        joint, sizes = [], []
        for lanes, batches in ((joint, (first, second)), (sizes, alone)):
            for b in batches:
                got = eval_bits(f, b)
                lanes += [b.lane(got, i) for i in range(len(b))]
        assert joint == sizes[:2 * CHUNK]


def _image_by_slices(batch, direction, arg):
    """The slice-and-sum image: every plane cut from the whole of arg, and
    the rows added at their offsets."""
    width, lanes = len(batch), (1 << len(batch)) - 1
    planes = [arg >> w * width & lanes for w in range(batch.states)]
    return sum(reduce(operator.or_, map(operator.and_, row, planes))
               << v * width for v, row in enumerate(batch._toward[direction]))


def _complement_by_negation(batch, x):
    return batch.full_mask & ~x


@lru_cache(maxsize=None)
def _kernel_batches():
    """One-size batches on 1-3 states (8, 160 and 6,656 lanes), the mixed
    first chunk on 1-4 states, the last and partial 4-state chunk, and the
    selftest's random models as lanes, one batch per size."""
    out = [FrameBatch(n, ('p', 'q'), 0) for n in (1, 2, 3)]
    out.append(next(frame_batches(4, ('p', 'q'), 1)))
    total = len(_frame_reps(4)) << 8
    out.append(FrameBatch(4, ('p', 'q'), (total - 1) // CHUNK * CHUNK))
    randoms = _random_models()
    out += [model_lanes([m for m in randoms if m.states == n]) for n in (5, 6)]
    return tuple(out)


def test_the_kernel_batches_are_the_shapes_named():
    one, two, three, mixed, last, five, six = _kernel_batches()
    assert [len(b) for b in (one, two, three)] == [8, 160, 6656]
    assert (mixed.start, len(mixed), mixed.states) == (0, CHUNK, 4)
    assert mixed.full_mask != (1 << 4 * CHUNK) - 1
    assert 0 < len(last) < CHUNK and last.start % CHUNK == 0
    assert last.start + len(last) == len(_frame_reps(4)) << 8
    assert (five.states, six.states, len(five) + len(six)) == (5, 6, 500)


def _kernels_match_the_reference(seed, density):
    """image peels planes off the low end and rebuilds rows from the top,
    and complement is full_mask ^ x; on arguments inside full_mask both
    must give what cutting each plane from the whole int, adding the rows
    at their offsets and complementing by & ~ give, on every batch."""
    rng = random.Random(seed)
    for batch in _kernel_batches():
        batch._images.clear()   # the batches outlive one example
        bits = lambda: rng.getrandbits(batch.states * len(batch))
        x = {'empty': 0, 'sparse': bits() & bits() & bits(), 'even': bits(),
             'dense': bits() | bits() | bits(), 'full': -1}[density]
        x &= batch.full_mask
        for d in 'FB':
            got = batch.image(d, x)
            assert got == _image_by_slices(batch, d, x)
            assert got & ~batch.full_mask == 0
        assert eval_bits(Neg(Var('h')), batch, {'h': x}) \
            == _complement_by_negation(batch, x)
        # the plans' 'not' and 'dia' steps: [F]x | h and [B]x | h by
        # Kleene iteration written out with the reference kernels
        for conn, d in ((CHI1, 'F'), (CHI2, 'B')):
            out = 0
            while True:
                step = x | _complement_by_negation(batch, _image_by_slices(
                    batch, d, _complement_by_negation(batch, out)))
                if step == out:
                    break
                out = step
            assert eval_bits(Sharp(conn, (Var('h'),)), batch, {'h': x}) \
                == out


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.sampled_from(('empty', 'sparse', 'even', 'dense', 'full')))
def test_the_wide_lane_kernels_match_slice_and_sum(seed, density):
    _kernels_match_the_reference(seed, density)


def test_a_kept_image_answers_only_its_own_argument():
    """Arguments in one bucket of the image memo, sharing direction, bit
    length and low 64 bits but not the bits above them: each gets its own
    image, on the miss that computes it and on the hit that finds it."""
    rng, low = random.Random(31), (1 << 64) - 1
    for batch in _kernel_batches()[1:]:   # the first has only 8 bits
        batch._images.clear()
        full = batch.full_mask
        top = 1 << full.bit_length() - 1
        above = full & ~low & ~top
        base = rng.getrandbits(64) & full | top
        args = [base, *(base | rng.getrandbits(full.bit_length()) & above
                        for _ in range(3))]
        assert len(set(args)) == 4
        for d in 'FB':
            key = d, top.bit_length(), base & low
            for sweep, filled in ((args, range(1, 5)), (args[::-1], [4] * 4)):
                for a, size in zip(sweep, filled):
                    assert batch.image(d, a) == _image_by_slices(batch, d, a)
                    assert len(batch._images[key]) == size
        batch._images.clear()


def test_an_unsat_query_takes_one_pass_per_chunk(monkeypatch):
    built = []

    class Counted(FrameBatch):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(len(self))

    monkeypatch.setattr(semantics, 'FrameBatch', Counted)
    # one letter on 1-3 states: 4 + 40 + 832 lanes
    assert brute_force_sat(parse('p & ~p', {}), 3) is None
    assert built == [876]
    # the two-way pair with no finite model: 2 + 10 + 104 + 3,044 frames
    built.clear()
    pair = Neg(Sharp(CHI1, (Neg(Sharp(CHI2, (Bottom(),))),)))
    assert brute_force_sat(pair, 4) is None
    assert built == [3160]
    # two letters on 1-4 states: 786,088 lanes in 24 chunks
    built.clear()
    assert brute_force_sat(parse('p & q & ~p', {}), 4) is None
    assert (len(built), sum(built)) == (24, 786_088)


def test_brute_force_refuses_fewer_than_one_state():
    for n in (0, -3):
        with pytest.raises(ValueError, match=r'^brute_force_sat searches '
                           r'at least 1 state, not %d$' % n):
            brute_force_sat(parse('p', {}), n)


def test_lanes_past_32_bits_decode_from_python_ints():
    # nine letters on four states are 2^36 valuations per frame; a chunk
    # deep in frame 5 still decodes to the lane's own frame and letters
    names = tuple('abcdefghi')
    lane = (5 << 36) + (0x9ABCDE123 & ~(CHUNK - 1))
    batch = FrameBatch(4, names, lane)
    for i in (0, 1, CHUNK - 1):
        k = lane + i - (5 << 36)
        assert batch.locate(i) == (5, k)
        assert batch.model(i).valuation == {
            nm: _states(4, k >> 4 * j & 15) for j, nm in enumerate(names)}
        # bits _CHUNK_BITS and up of k hold still across an aligned chunk
        assert [batch.lane(batch.valuation_mask(nm), i) for nm in names] \
            == [k >> 4 * j & 15 for j in range(len(names))]
    assert batch.frames == range(5, 6)
    assert batch.lane(batch.full_mask, CHUNK - 1) == 15
    # four letters on 1-4 states: the four-state lanes start 2,592 past a
    # CHUNK multiple, so bit _CHUNK_BITS of their valuation index flips
    # inside the chunk that holds their lane CHUNK, and frame 0, 2^16
    # lanes long, ends inside the chunk that holds their lane 2^16
    names = tuple('abcd')
    first = sum(len(_frame_reps(n)) << 4 * n for n in (1, 2, 3))
    assert (first, first % CHUNK) == (428_576, 2_592)
    f = parse('<F>(a & ~d) | [B](b | c) & d', {})
    for rel in (CHUNK, 1 << 16):
        start = (first + rel) // CHUNK * CHUNK
        batch, seen = FrameBatch(4, names, start, 1), set()
        got = eval_bits(f, batch)
        flip = first + rel - start
        for i in [*range(0, CHUNK, 97), flip - 1, flip]:
            n, frame, k, m = _joint_lane(start + i, names)
            seen.add((frame, k >> _CHUNK_BITS))
            assert (n, batch.locate(i)) == (4, (frame, k))
            assert batch.model(i).to_json() == m.to_json()
            assert [batch.lane(batch.valuation_mask(nm), i) for nm in names] \
                == [k >> 4 * j & 15 for j in range(len(names))]
            assert batch.lane(got, i) == eval_bits(f, m)
        assert len(seen) == 2


def _orbit_least(n, mask):
    """The least relabelling of the edge mask over all n! permutations."""
    edges = [divmod(b, n) for b in range(n * n) if mask >> b & 1]
    return min(sum(1 << perm[i] * n + perm[j] for i, j in edges)
               for perm in permutations(range(n)))


def test_frame_reps_are_the_least_mask_of_each_orbit():
    for n in (1, 2, 3):
        assert _frame_reps(n) == tuple(sorted(
            {_orbit_least(n, mask) for mask in range(1 << n * n)}))
    # digraphs with loops up to isomorphism, OEIS A000595
    assert [len(_frame_reps(n)) for n in (1, 2, 3, 4)] == [2, 10, 104, 3044]
    assert _frame_reps(4)[:3] == (0, 1, 2) and _frame_reps(4)[-1] == 0xFFFF


def test_chunk_planes_are_cached_in_bounded_memory():
    # a full selftest walks 29 chunks, and a search of 4 states under 3
    # letters 383, so the cache keeps a bounded number of them
    maxsize = semantics._planes.cache_info().maxsize
    assert maxsize is not None and maxsize >= 29
    assert brute_force_sat(parse('p & q & ~p', {}), 4) is None
    assert semantics._planes.cache_info().currsize <= maxsize
    walk = frame_batches(4, ('p', 'q', 'r'), 1)
    assert sum(len(b) for b in islice(walk, maxsize + 8)) \
        == (maxsize + 8) * CHUNK
    assert semantics._planes.cache_info().currsize == maxsize


def _scalar_walk(formula, max_states):
    """brute_force_sat's order, one KripkeModel per (frame, valuation)."""
    names = sorted(free_vars(formula))
    for n in range(1, max_states + 1):
        for mask in _frame_reps(n):
            for vals in product(range(1 << n), repeat=len(names)):
                m = KripkeModel(n, _edges(n, mask), {
                    nm: _states(n, v) for nm, v in zip(names, vals)})
                sat = eval_bits(formula, m)
                if sat:
                    return m, (sat & -sat).bit_length() - 1
    return None


def _same_answer(formula, max_states):
    got, want = brute_force_sat(formula, max_states), \
        _scalar_walk(formula, max_states)
    assert (got is None) == (want is None)
    if got is not None:
        assert (got[0].to_json(), got[1]) == (want[0].to_json(), want[1])
    return got


def _letter_formulas():
    base = st.sampled_from([(Bottom(),), (Var('p'),), (Var('p'), Var('q'))])

    def over(leaves):
        def extend(children):
            return st.one_of(
                children.map(Neg),
                children.map(lambda f: Dia('F', f)),
                children.map(lambda f: Dia('B', f)),
                st.tuples(children, children).map(lambda t: Or(*t)),
                st.tuples(st.sampled_from([CHI1, CHI2, REACH, REACH_B]),
                          children).map(lambda t: Sharp(t[0], (t[1],))),
            )
        return st.recursive(st.sampled_from(leaves + (Bottom(),)), extend,
                            max_leaves=8)

    return base.flatmap(over)


@given(_letter_formulas(), st.integers(1, 3))
@settings(max_examples=80, deadline=None)
def test_batched_search_returns_the_scalar_walks_witness(formula, n):
    _same_answer(formula, n)


def test_batched_search_agrees_past_the_first_chunk():
    # no model on up to three states, p and q on 6,656 lanes at three
    pair = Neg(Sharp(CHI1, (Neg(Sharp(CHI2, (Bottom(),))),)))
    assert _same_answer(Or(pair, parse('p & q & ~p', {})), 3) is None
    # seven letters are 2^14 valuations per two-state frame; none holds
    # on one state or on the frame without edges, so the first witness
    # lies chunks deep into the two-state lanes
    seven = parse('a & b & c & d & e & f & g & <F>~a', {})
    model, w = _same_answer(seven, 2)
    assert model.states == 2 and model.edges


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
    assert eval_bits(and_(Var('p'), Var('q')), m) == 0b10
    assert eval_bits(parse('p <-> q', {}), m) == 0b10

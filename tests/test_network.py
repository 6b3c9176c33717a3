import hashlib
import json
import random
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from flatmu import closure, construct, network
from flatmu.acceptance import (
    _amalgam_candidates, _brute_anticonfluent, _grow_network,
)
from flatmu.closure import coherent, enumerate_atoms, fl_closure
from flatmu.construct import (
    Budget, BudgetExceeded, Stuck, _saturate_all, finish_deferral, saturate,
)
from flatmu.network import (
    INF, Defect, InvariantError, Network, NetworkContext, NetworkContextError,
    amalgamate, compute_timeouts, cones, downgen, eqdown, equp, find_defects,
    is_anticonfluent, is_down_cofinal, is_subnetwork, is_up_cofinal, members,
    network_from_json, network_to_json, orient, restrict, to_dot, union,
    upgen, validate,
)
from flatmu.syntax import (
    Bottom, Dia, FixpointConnective, Neg, Or, Sharp, Var, box,
    nabla, parse, to_string,
)

CHI1 = FixpointConnective('chi1', 1, parse('[F]x | q', {}))
REACH = FixpointConnective('reach', 1, parse('q | <F>x', {}))
TANGLE = FixpointConnective('tangle', 1,
                            parse('q | ~(~<F>x | ~<B>x)', {}))


def ctx_for(origin) -> NetworkContext:
    return NetworkContext(fl_closure(origin))


CTX_P = ctx_for(parse('p', {}))
CTX_2DIA = ctx_for(parse('<F>p | <F>q', {}))
CTX_CHI1 = ctx_for(Sharp(CHI1, (Var('q'),)))
CTX_REACH = ctx_for(Sharp(REACH, (Var('q'),)))


def atom_with(ctx, yes=(), no=()):
    sigma = ctx.sigma
    for a in ctx.atoms:
        if all(a >> sigma.index_of(f) & 1 for f in yes) and \
                not any(a >> sigma.index_of(f) & 1 for f in no):
            return a
    raise AssertionError('no atom matches')


def mk(ctx, labels, edges=(), sat_f=(), sat_p=()):
    return Network(ctx, frozenset(edges), dict(labels),
                   {'F': frozenset(sat_f), 'B': frozenset(sat_p)})


P, BOT = Var('p'), Bottom()
A_SRC = atom_with(CTX_P, [P, Dia('F', Neg(BOT)), box('B', BOT)])
A_SNK = atom_with(CTX_P, [Neg(P), Dia('B', Neg(BOT)), box('F', BOT)])
A_DEAD = atom_with(CTX_P, [P, box('F', BOT), box('B', BOT)])


def two_chain():
    return mk(CTX_P, {0: A_SRC, 1: A_SNK}, [(0, 1)],
              sat_f=(0, 1), sat_p=(0, 1))


# -- validation ---------------------------------------------------------------

def test_two_chain_is_a_perfect_network():
    n = two_chain()
    assert validate(n) == []
    assert find_defects(n) == []


def test_isolated_dead_end_atom_is_perfect():
    n = mk(CTX_P, {0: A_DEAD}, sat_f=(0,), sat_p=(0,))
    assert validate(n) == []
    assert find_defects(n) == []


def test_validate_flags_broken_labels_edges_and_cycles():
    bad_label = mk(CTX_P, {0: 0})
    assert validate(bad_label) == ['label of 0 is not an atom']

    cyclic = mk(CTX_P, {0: A_SRC, 1: A_SRC}, [(0, 1), (1, 0)])
    assert 'relation has a cycle' in validate(cyclic)

    incoherent = mk(CTX_P, {0: A_DEAD, 1: A_SNK}, [(0, 1)])
    assert 'edge (0, 1) is not coherent' in validate(incoherent)

    starving = mk(CTX_P, {0: A_SRC}, sat_f=(0,))
    assert validate(starving) == ['node 0 lacks forward families']


def test_constructor_rejects_malformed_shapes():
    with pytest.raises(ValueError):
        mk(CTX_P, {0: A_SRC}, [(0, 1)])
    with pytest.raises(ValueError):
        mk(CTX_P, {0: A_SRC}, sat_f=(3,))
    # a label bit past the closure, or a negative label, names no formula
    for outside in (A_SRC | 1 << len(CTX_P.sigma), -1):
        with pytest.raises(ValueError):
            mk(CTX_P, {0: outside})


def test_saturation_needs_distinct_witnesses_per_diamond():
    q = Var('q')
    top = Neg(BOT)
    both = atom_with(CTX_2DIA, [Dia('F', P), Dia('F', q), Dia('F', top)])
    kid = atom_with(CTX_2DIA, [P, q, box('F', BOT), Dia('B', top)])
    # three diamond members want three pairwise distinct witnesses
    for count in (1, 2):
        labels = {0: both} | {w: kid for w in range(1, count + 1)}
        n = mk(CTX_2DIA, labels, [(0, w) for w in range(1, count + 1)],
               sat_f=(0,))
        assert validate(n) == ['node 0 lacks forward families']
    labels = {0: both, 1: kid, 2: kid, 3: kid}
    n = mk(CTX_2DIA, labels, [(0, 1), (0, 2), (0, 3)], sat_f=(0,))
    assert validate(n) == []


def test_saturation_matching_needs_augmenting_paths():
    q = Var('q')
    top = Neg(BOT)
    both = atom_with(CTX_2DIA, [Dia('F', P), Dia('F', q), Dia('F', top)])
    kid_pq = atom_with(CTX_2DIA, [P, q, box('F', BOT), Dia('B', top)])
    kid_p = atom_with(CTX_2DIA, [P, box('F', BOT), Dia('B', top)], no=[q])
    kid_0 = atom_with(CTX_2DIA, [box('F', BOT), Dia('B', top)], no=[P, q])
    # <F>q fits only node 1; the greedy start parks <F>p there first
    n = mk(CTX_2DIA, {0: both, 1: kid_pq, 2: kid_p, 3: kid_0},
           [(0, 1), (0, 2), (0, 3)], sat_f=(0,))
    assert validate(n) == []
    short = mk(CTX_2DIA, {0: both, 1: kid_pq, 2: kid_p},
               [(0, 1), (0, 2)], sat_f=(0,))
    assert validate(short) == ['node 0 lacks forward families']


# -- anticonfluence -----------------------------------------------------------

def _reach_strict(nodes, edges):
    out = {u: set() for u in nodes}
    for u in nodes:
        todo = [v for a, v in edges if a == u]
        while todo:
            v = todo.pop()
            if v not in out[u]:
                out[u].add(v)
                todo.extend(w for a, w in edges if a == v)
    return out


def _anticonfluent_oracle(n):
    reach = _reach_strict(n.nodes, n.edges)
    for u, v, v2, w in product(n.nodes, repeat=4):
        if v == v2 or v in reach[v2] or v2 in reach[v]:
            continue
        if v in reach[u] and v2 in reach[u] \
                and w in reach[v] and w in reach[v2]:
            return False
    return True


def random_net(rng, size, prob=0.3, ctx=CTX_P):
    atoms = ctx.atoms
    labels = {u: rng.choice(atoms) for u in range(size)}
    edges = [(i, j) for i in range(size) for j in range(i + 1, size)
             if rng.random() < prob]
    sat_f = {u for u in range(size) if rng.random() < 0.4}
    sat_p = {u for u in range(size) if rng.random() < 0.4}
    return mk(ctx, labels, edges, sat_f, sat_p)


def test_triangle_counts_as_anticonfluent():
    n = mk(CTX_P, {0: A_SRC, 1: A_SRC, 2: A_SNK}, [(0, 1), (0, 2), (1, 2)])
    assert is_anticonfluent(n)
    assert _anticonfluent_oracle(n)


def test_diamond_is_not_anticonfluent():
    n = mk(CTX_P, {0: A_SRC, 1: A_SRC, 2: A_SRC, 3: A_SNK},
           [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert not is_anticonfluent(n)
    assert not _anticonfluent_oracle(n)


def test_deep_chains_and_trees_are_anticonfluent():
    chain = mk(CTX_P, {0: A_SRC, 1: A_SRC, 2: A_SRC, 3: A_SNK},
               [(0, 1), (1, 2), (2, 3)])
    assert is_anticonfluent(chain)
    assert _anticonfluent_oracle(chain)
    tree = mk(CTX_P, {u: A_SRC for u in range(6)},
              [(0, 1), (0, 2), (1, 3), (1, 4), (4, 5)])
    assert is_anticonfluent(tree)
    assert _anticonfluent_oracle(tree)


def test_anticonfluence_matches_quadruple_oracle():
    rng = random.Random(41)
    for _ in range(200):
        n = random_net(rng, rng.randint(1, 7), prob=rng.uniform(0.1, 0.5))
        assert is_anticonfluent(n) == _anticonfluent_oracle(n)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_anticonfluence_matches_the_oracle_whatever_the_node_order(data):
    # node ids in any order, so that no walk can rely on ids ascending
    # along edges
    size = data.draw(st.integers(1, 8))
    ids = data.draw(st.permutations(range(size)))
    edges = data.draw(st.sets(st.tuples(st.integers(0, size - 1),
                                        st.integers(0, size - 1))
                              .filter(lambda e: e[0] < e[1])))
    n = mk(CTX_P, {u: A_SRC for u in ids},
           [(ids[a], ids[b]) for a, b in edges])
    assert is_anticonfluent(n) == _anticonfluent_oracle(n)


# -- atom elimination ----------------------------------------------------------
#
# The per-candidate enumeration and pairwise elimination that the lane
# masks of closure.enumerate_atoms and NetworkContext replaced.

def _oracle_completed(bits, sigma):
    for i, cls, kids in sigma.shapes:
        if cls is Neg:
            value = not bits >> kids[0] & 1
        elif cls is Or:
            value = (bits >> kids[0] | bits >> kids[1]) & 1
        elif cls is Bottom:
            value = False
        else:
            continue
        bits = bits | 1 << i if value else bits & ~(1 << i)
    return bits


def _oracle_atoms(sigma):
    base = [i for i, cls, _ in sigma.shapes if cls in (Var, Dia, Sharp)]
    out = []
    for mask in range(1 << len(base)):
        bits = 0
        for k, i in enumerate(base):
            bits |= (mask >> k & 1) << i
        bits = _oracle_completed(bits, sigma)
        if all(bits >> i & 1 == bits >> unfold_i & 1
               for i, (unfold_i, _) in sigma.sharp_unfoldings.items()):
            out.append(bits)
    out.sort()
    return out


def _oracle_witnesses(sigma, bits, child_i, direction, among):
    for b in among:
        if b >> child_i & 1 and coherent(*orient(bits, b, direction), sigma):
            yield b


def _oracle_viable(sigma, atoms):
    alive = set(atoms)
    while True:
        dropped = {a for a in alive if any(
            a >> dia_i & 1 and next(_oracle_witnesses(
                sigma, a, child_i, direction, alive), None) is None
            for direction in ('F', 'B')
            for dia_i, child_i in sigma.dia_pairs[direction])}
        if not dropped:
            return frozenset(alive)
        alive -= dropped


def _oracle_by_duty(sigma, atoms):
    viable = _oracle_viable(sigma, atoms)
    dias = [i for pairs in sigma.dia_pairs.values() for i, _ in pairs]
    return tuple(sorted((a for a in atoms if a in viable),
                        key=lambda a: (sum(a >> i & 1 for i in dias), a)))


STAGES = [FixpointConnective(name, 1, parse(body, {})) for name, body in (
    ('rf', 'q | <F>x'), ('rb', 'q | <B>x'),
    ('sf', '[F]x | q'), ('sb', '[B]x | q'))]


def _elimination_formulas(depth=2):
    """Formulas over p, q and _|_ built from Neg, Or, both diamonds, the
    four stage connectives and nablas of up to two components."""
    out = st.sampled_from([Bottom(), Var('p'), Var('q')])
    for _ in range(depth):
        sub = out
        out = st.one_of(
            sub,
            sub.map(Neg),
            st.tuples(sub, sub).map(lambda t: Or(*t)),
            st.tuples(st.sampled_from('FB'), sub).map(lambda t: Dia(*t)),
            st.tuples(st.sampled_from(STAGES), sub).map(
                lambda t: Sharp(t[0], (t[1],))),
            st.tuples(st.sampled_from('FB'), st.lists(sub, max_size=2)).map(
                lambda t: nabla(*t)),
        )
    return out


@given(_elimination_formulas())
@settings(max_examples=80, deadline=None)
def test_lane_masks_eliminate_atoms_as_the_pairwise_oracle(f):
    sigma = fl_closure(f)
    free = sum(cls in (Var, Dia, Sharp) for _, cls, _ in sigma.shapes)
    assume(free <= 10)
    _lane_masks_match_the_oracle(sigma)


def _lane_masks_match_the_oracle(sigma):
    ctx = NetworkContext(sigma)
    atoms = _oracle_atoms(sigma)
    assert list(ctx.atoms) == atoms
    by_duty = _oracle_by_duty(sigma, atoms)
    assert ctx.atoms_by_duty == by_duty
    for a in atoms:
        for direction in ('F', 'B'):
            for _, child_i in sigma.dia_pairs[direction]:
                assert list(ctx.witnesses(a, child_i, direction)) == list(
                    _oracle_witnesses(sigma, a, child_i, direction, by_duty))
    # a bitset that is no atom is doomed
    assert all(a ^ 1 << i not in ctx.atoms_by_duty for a in atoms[:4]
               for i in range(len(sigma)))


@pytest.mark.parametrize('text', ['p', '#rf(p) & #rb(q)',
                                  'nablaF{nablaB{p, q}, ~p}'])
@pytest.mark.parametrize('lanes', [1, 2, 8])
def test_atoms_enumerated_in_chunks_match_the_oracle(monkeypatch, text,
                                                     lanes):
    sigma = fl_closure(parse(text, {c.name: c for c in STAGES}))
    monkeypatch.setattr(closure, 'LANES', lanes)
    assert enumerate_atoms(sigma) == _oracle_atoms(sigma)


def _viable_atom_by_atom(ctx):
    """The viability loop with one (atom lane, needed lanes) pair per
    diamond of every atom, as it stood before needs were grouped."""
    order, having = ctx._lanes
    needs = []
    for k, a in enumerate(order):
        for direction in ('F', 'B'):
            partners = ctx._partners(a, direction)
            needs += [(1 << k, partners & having[child_i])
                      for _, child_i in ctx.dia_members(a, direction)]
    alive, before = (1 << len(order)) - 1, 0
    while alive != before:
        before = alive
        for lane, lanes in needs:
            if not alive & lanes:
                alive &= ~lane
    return alive


SIXTEEN_FREE_BITS = '#rf(p) & #rb(q) & #sf(r) & #sb(s)'


@pytest.mark.parametrize('text', [
    '#rf(p) & #rb(q)', '#sf(#rb(#sf(q)))', 'nablaF{nablaB{p, q}, ~p}',
    '<F>[B]_|_ & #sf(p)', SIXTEEN_FREE_BITS])
def test_grouped_needs_keep_the_viable_lanes(text):
    ctx = ctx_for(parse(text, {c.name: c for c in STAGES}))
    assert ctx._viable == _viable_atom_by_atom(ctx)


def test_viability_of_sixteen_free_bits_keeps_no_need_per_atom():
    # one (lane, mask) pair per atom diamond traced 11.5 MB here
    ctx = ctx_for(parse(SIXTEEN_FREE_BITS, {c.name: c for c in STAGES}))
    ctx._lanes
    tracemalloc.start()
    try:
        ctx.atoms_by_duty
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# -- containment and generated subsets ---------------------------------------

def test_upgen_and_downgen_match_reachability():
    rng = random.Random(43)
    for _ in range(60):
        n = random_net(rng, rng.randint(1, 7))
        reach = _reach_strict(n.nodes, n.edges)
        back = {u: {v for v in n.nodes if u in reach[v]} for u in n.nodes}
        for u in n.nodes:
            assert upgen(n, u) == {u} | reach[u]
            assert downgen(n, u) == {u} | back[u]
        xs = {u for u in n.nodes if rng.random() < 0.4}
        assert upgen(n, xs) == xs | {v for u in xs for v in reach[u]}
        assert downgen(n, xs) == xs | {v for u in xs for v in back[u]}


def test_cones_are_reflexive_and_refuse_cycles():
    down, up = cones((0, 1, 2), {(0, 1), (1, 2)})
    assert {x: set(members(b, (0, 1, 2))) for x, b in down.items()} == \
        {0: {0, 1, 2}, 1: {1, 2}, 2: {2}}
    assert {x: set(members(b, (0, 1, 2))) for x, b in up.items()} == \
        {0: {0}, 1: {0, 1}, 2: {0, 1, 2}}
    # bit i stands for the i-th node, whatever its id
    down, up = cones((9, 4), {(9, 4)})
    assert down == {9: 0b11, 4: 0b10} and up == {9: 0b01, 4: 0b11}
    with pytest.raises(ValueError, match='relation has a cycle'):
        cones((0, 1, 2), {(0, 1), (1, 0), (1, 2)})


def test_upgen_of_a_head_is_itself():
    n = two_chain()
    assert upgen(n, 1) == {1}
    assert downgen(n, 0) == {0}
    assert downgen(n, 1) == {0, 1}


def test_restrict_is_induced():
    rng = random.Random(47)
    for _ in range(60):
        n = random_net(rng, rng.randint(1, 7))
        keep = {u for u in n.nodes if rng.random() < 0.6}
        r = restrict(n, keep)
        assert set(r.nodes) == keep
        assert r.edges == {e for e in n.edges
                           if e[0] in keep and e[1] in keep}
        assert r.sat['F'] == n.sat['F'] & keep
        assert r.label == {u: n.label[u] for u in keep}


def test_subnetwork_freezes_saturated_frontiers():
    n = two_chain()
    grown = mk(CTX_P, {0: A_SRC, 1: A_SNK, 2: A_SNK}, [(0, 1), (0, 2)],
               sat_f=(1, 2), sat_p=(0, 1))
    # node 0 is forward saturated in n but gains successor 2
    assert not is_subnetwork(n, grown)
    relaxed = replace(n, sat={**n.sat, 'F': frozenset({1})})
    assert is_subnetwork(relaxed, grown)


def test_subnetwork_requires_induced_edges_and_equal_labels():
    a = mk(CTX_P, {0: A_SRC, 1: A_SNK})
    b = mk(CTX_P, {0: A_SRC, 1: A_SNK}, [(0, 1)])
    assert not is_subnetwork(a, b)
    assert is_subnetwork(a, a)
    c = mk(CTX_P, {0: A_SRC, 1: A_SRC}, [])
    assert not is_subnetwork(a, c)


def test_restricted_random_nets_are_subnetworks_after_frontier_fix():
    rng = random.Random(53)
    for _ in range(60):
        big = random_net(rng, rng.randint(2, 7))
        keep = {u for u in big.nodes if rng.random() < 0.6}
        small = restrict(big, keep)
        ok_f = {u for u in small.sat['F']
                if all(v in keep for v in big.nbrs['F'][u])}
        ok_p = {u for u in small.sat['B']
                if all(v in keep for v in big.nbrs['B'][u])}
        fixed = replace(small, sat={'F': frozenset(ok_f),
                                    'B': frozenset(ok_p)})
        assert is_subnetwork(fixed, big)


def test_context_mismatch_raises():
    with pytest.raises(NetworkContextError):
        is_subnetwork(two_chain(), mk(CTX_2DIA, {0: CTX_2DIA.atoms[0]}))


def test_union_merges_and_rejects_conflicts():
    a = mk(CTX_P, {0: A_SRC, 1: A_SNK}, [(0, 1)], sat_f=(0,))
    b = mk(CTX_P, {1: A_SNK, 2: A_SRC}, [(2, 1)], sat_p=(1,))
    u = union([a, b])
    assert u.nodes == (0, 1, 2)
    assert u.edges == {(0, 1), (2, 1)}
    assert u.sat['F'] == {0} and u.sat['B'] == {1}
    with pytest.raises(ValueError):
        union([a, mk(CTX_P, {0: A_SNK})])


def test_equp_compares_outside_the_cone():
    n = two_chain()
    ext = mk(CTX_P, {0: A_SRC, 1: A_SNK, 2: A_SNK}, [(0, 1), (0, 2), (1, 2)],
             sat_f=(0, 1), sat_p=(0, 1))
    # edges crossing into the cone are invisible to both restrictions;
    # the frozen frontier of node 0 is what rejects this extension
    assert equp(n, ext, 0)
    assert equp(n, ext, 1)
    assert not is_subnetwork(n, ext)
    flag_flip = replace(n, sat={**n.sat, 'B': frozenset({1})})
    assert not equp(n, flag_flip, 1)
    assert eqdown(n, replace(n, sat={**n.sat, 'F': frozenset({1})}), 0)


def test_cofinality_checks_new_neighbours():
    n = replace(two_chain(), sat={'F': frozenset({1}), 'B': frozenset({1})})
    above = mk(CTX_P, {0: A_SRC, 1: A_SNK, 2: A_SRC}, [(0, 1), (2, 0)],
               sat_f=(1,), sat_p=(1,))
    assert is_up_cofinal(n, n)
    assert not is_down_cofinal(n, above)   # 0 gains the ancestor 2
    below = mk(CTX_P, {0: A_SRC, 1: A_SNK, 2: A_SNK}, [(0, 1), (0, 2)],
               sat_f=(1,), sat_p=(1,))
    assert is_down_cofinal(n, below)
    assert not is_up_cofinal(n, below)     # 0 gains the successor 2


# -- amalgamation -------------------------------------------------------------

def fork_base():
    return mk(CTX_P, {0: A_SRC, 1: A_SNK, 2: A_SNK}, [(0, 1), (0, 2)],
              sat_f=(0,), sat_p=())


def test_amalgamate_forward_extensions():
    base = fork_base()
    ext1 = mk(CTX_P, {0: A_SRC, 1: A_SNK, 2: A_SNK, 3: A_SNK},
              [(0, 1), (0, 2), (1, 3)], sat_f=(0, 1), sat_p=())
    ext2 = mk(CTX_P, {0: A_SRC, 1: A_SNK, 2: A_SNK, 4: A_SNK},
              [(0, 1), (0, 2), (2, 4)], sat_f=(0, 2), sat_p=())
    out = amalgamate(base, [(1, ext1), (2, ext2)], 'F')
    assert set(out.nodes) == {0, 1, 2, 3, 4}
    assert out.edges == {(0, 1), (0, 2), (1, 3), (2, 4)}
    assert out.sat['F'] == {0, 1, 2}
    assert amalgamate(base, [], 'F') is base


def test_amalgamate_rejects_overlapping_cones():
    base = fork_base()
    ext0 = mk(CTX_P, {0: A_SRC, 1: A_SNK, 2: A_SNK, 3: A_SNK},
              [(0, 1), (0, 2), (1, 3)], sat_f=(0,))
    ext1 = mk(CTX_P, {0: A_SRC, 1: A_SNK, 2: A_SNK, 4: A_SNK},
              [(0, 1), (0, 2), (1, 4)], sat_f=(0,))
    with pytest.raises(ValueError):
        amalgamate(base, [(0, ext0), (1, ext1)], 'F')


def test_amalgamate_rejects_edits_outside_cone():
    base = fork_base()
    sneaky = mk(CTX_P, {0: A_SRC, 1: A_SNK, 2: A_SNK, 3: A_SNK},
                [(0, 1), (0, 2), (1, 3)], sat_f=(0,), sat_p=(2,))
    with pytest.raises(ValueError):
        amalgamate(base, [(1, sneaky)], 'F')


def test_amalgamate_backward_extensions():
    base = mk(CTX_P, {0: A_SRC, 1: A_SRC, 2: A_SNK},
              [(0, 2), (1, 2)], sat_p=(2,))
    ext0 = mk(CTX_P, {0: A_SRC, 1: A_SRC, 2: A_SNK, 3: A_SRC},
              [(0, 2), (1, 2), (3, 0)], sat_p=(2, 0))
    ext1 = mk(CTX_P, {0: A_SRC, 1: A_SRC, 2: A_SNK, 4: A_SRC},
              [(0, 2), (1, 2), (4, 1)], sat_p=(2, 1))
    out = amalgamate(base, [(0, ext0), (1, ext1)], 'B')
    assert out.edges == {(0, 2), (1, 2), (3, 0), (4, 1)}
    assert out.sat['B'] == {0, 1, 2}
    # the direction is the caller's, not guessed
    with pytest.raises(ValueError, match='preconditions fail: extension'):
        amalgamate(base, [(0, ext0), (1, ext1)], 'F')


# -- timeouts -----------------------------------------------------------------

Q = Var('q')
FOCUS1 = Sharp(CHI1, (Q,))


def test_timeouts_resolve_by_membership_alone():
    a = atom_with(CTX_CHI1, [FOCUS1, Q])
    n = mk(CTX_CHI1, {0: a})
    tt = compute_timeouts(n)
    assert tt == {(0, 0): 0, (0, 1): 0, (0, 2): 0}
    assert find_defects(n) == [Defect('diaF', 0), Defect('diaB', 0)]


def test_timeouts_unfinished_at_a_bare_node():
    a = atom_with(CTX_CHI1, [FOCUS1], no=[Q, box('F', BOT)])
    n = mk(CTX_CHI1, {0: a})
    tt = compute_timeouts(n)
    assert tt == {(0, 0): None, (0, 1): None, (0, 2): None}
    mu = [d for d in find_defects(n) if d.kind == 'mu']
    assert mu == [Defect('mu', 0, 0), Defect('mu', 0, 1), Defect('mu', 0, 2)]


def test_timeouts_propagate_through_box_families():
    root = atom_with(CTX_CHI1, [FOCUS1, Dia('F', Neg(BOT))],
                     no=[Q, Dia('F', Neg(FOCUS1))])
    leaf = atom_with(CTX_CHI1, [FOCUS1, Q, box('F', BOT), Dia('B', Neg(BOT))],
                     no=[Dia('F', Neg(FOCUS1))])
    labels = {0: root, 1: leaf, 2: leaf, 3: leaf}
    n = mk(CTX_CHI1, labels, [(0, 1), (0, 2), (0, 3)], sat_f=(0,))
    assert validate(n) == []
    tt = compute_timeouts(n)
    assert tt[0, 0] == 0      # body resolves through its box branch
    assert tt[0, 1] == 0      # [F]x: every family member is done
    assert tt[0, 2] == 1      # x waits one unfolding on the body
    for w in (1, 2, 3):
        assert tt[w, 0] == 0
        assert tt[w, 1] == 0  # escape: the leaf refuses successors
        assert tt[w, 2] == 0


def test_timeouts_dia_kind_takes_the_best_successor():
    focus = Sharp(REACH, (Q,))
    root = atom_with(CTX_REACH, [focus, Dia('F', focus)],
                     no=[Q, Dia('F', BOT)])
    good = atom_with(CTX_REACH, [focus, Q, box('F', BOT),
                                 Dia('B', Neg(BOT))])
    # q forces the unfolding and with it the focus, so bad drops q too
    bad = atom_with(CTX_REACH, [box('F', BOT), Dia('B', Neg(BOT))],
                    no=[focus])
    n = mk(CTX_REACH, {0: root, 1: bad, 2: good},
           [(0, 1), (0, 2)], sat_f=(0,))
    tt = compute_timeouts(n)
    assert tt[0, 1] == 0     # <F>x picks the successor holding it
    assert tt[0, 2] == 1
    assert tt[0, 0] == 0
    assert (1, 2) not in tt  # focus absent at the bad successor


def test_timeouts_need_saturation_for_modal_clauses():
    focus = Sharp(REACH, (Q,))
    root = atom_with(CTX_REACH, [focus, Dia('F', focus)],
                     no=[Q, Dia('F', BOT)])
    good = atom_with(CTX_REACH, [focus, Q, box('F', BOT),
                                 Dia('B', Neg(BOT))])
    n = mk(CTX_REACH, {0: root, 1: good}, [(0, 1)])
    tt = compute_timeouts(n)
    assert tt[0, 1] is None
    assert tt[0, 2] is None
    assert tt[1, 2] == 0


def test_timeouts_ignore_non_disjunctive_hosts():
    focus = Sharp(TANGLE, (Q,))
    ctx = ctx_for(focus)
    a = atom_with(ctx, [focus], no=[Q])
    n = mk(ctx, {0: a})
    tt = compute_timeouts(n)
    assert all(v is None for v in tt.values())
    assert tt


def test_finished_values_never_rise_under_growth():
    root = atom_with(CTX_CHI1, [FOCUS1, Dia('F', Neg(BOT))],
                     no=[Q, Dia('F', Neg(FOCUS1))])
    leaf = atom_with(CTX_CHI1, [FOCUS1, Q, box('F', BOT), Dia('B', Neg(BOT))],
                     no=[Dia('F', Neg(FOCUS1))])
    small = mk(CTX_CHI1, {0: root, 1: leaf, 2: leaf, 3: leaf},
               [(0, 1), (0, 2), (0, 3)], sat_f=(0,))
    pre = atom_with(CTX_CHI1, [Dia('F', Neg(BOT))], no=[FOCUS1])
    grown = mk(CTX_CHI1,
               {0: root, 1: leaf, 2: leaf, 3: leaf, 4: pre},
               [(0, 1), (0, 2), (0, 3), (4, 0)], sat_f=(0,))
    assert is_subnetwork(small, grown)
    t1, t2 = compute_timeouts(small), compute_timeouts(grown)
    for pair, v in t1.items():
        if v is not None:
            assert t2[pair] is not None
            assert t2[pair] <= v


# -- seeded timeouts against full sweeps --------------------------------------

def _oracle_component(n, values, w, comp):
    inst, cid = comp
    if not n.label[w] >> inst & 1:
        return INF
    if cid is None:
        return 0
    return values.get((w, cid), INF)


def _oracle_clause(n, values, u, dfl):
    """One deferral's value at u from the values around it, as
    compute_timeouts read it before it was seeded and worklist-driven."""
    node = dfl.dnode
    if node is None:
        return INF
    if node.kind == 'x':
        best = INF
        if n.label[u] >> dfl.bottom & 1:
            best = 0
        return min(best, values.get((u, dfl.body), INF) + 1)
    comps = dfl.children
    if node.kind not in ('dia', 'box', 'nabla'):
        return min(_oracle_component(n, values, u, c) for c in comps)
    direction = dfl.direction
    if node.kind == 'box':
        best = INF
        if n.label[u] >> n.ctx.sigma.box_bottom_index[direction] & 1:
            best = 0
        if u in n.sat[direction]:
            nbrs = n.nbrs[direction][u]
            if nbrs:
                best = min(best, max(
                    _oracle_component(n, values, w, comps[0]) for w in nbrs))
        return best
    if u not in n.sat[direction]:
        return INF
    nbrs = n.nbrs[direction][u]
    if not nbrs:
        return INF
    if node.kind == 'dia':
        return min(_oracle_component(n, values, w, comps[0]) for w in nbrs)
    rows = [[_oracle_component(n, values, w, c) for c in comps] for w in nbrs]
    covered = max(min(row) for row in rows)
    used = max(min(rows[i][j] for i in range(len(nbrs)))
               for j in range(len(comps)))
    return max(covered, used)


def _oracle_timeouts(n):
    """The table by full sweeps over every active pair from INF until
    nothing changes, with the clause as it was read then: what
    compute_timeouts computed before it started from a parent's table and
    settled a worklist."""
    deferrals = n.ctx.table.deferrals
    active = [(u, did) for u in n.nodes for did, dfl in enumerate(deferrals)
              if n.label[u] >> dfl.index & 1]
    values = {pair: INF for pair in active}
    changed = True
    while changed:
        changed = False
        for u, did in active:
            v = _oracle_clause(n, values, u, deferrals[did])
            if v < values[u, did]:
                values[u, did] = v
                changed = True
    cap = len(n.nodes) * len(deferrals) + 1
    return {pair: (int(v) if v is not INF and v <= cap else None)
            for pair, v in values.items()}


@contextmanager
def _tables_checked_against_the_oracle():
    """Inside the block, compare every table compute_timeouts builds with
    the oracle and with the table of a parentless copy over a cold context.
    Yields a list that gets, per table started from a parent's, what made
    its network: 'graft' or 'amalgamate' inside finishing, a 'draft' of
    finishing's saturation, or the tag a caller set."""
    seeded = []
    real = network.compute_timeouts

    def checked(n):
        parent = n.__dict__.get('_parent')
        fresh = '_timeouts' not in n.__dict__
        out = real(n)
        if fresh:
            cold = Network(NetworkContext(n.ctx.sigma), n.edges, n.label,
                           n.sat)  # no parent, and no leaf kept yet
            assert out == _oracle_timeouts(n) == real(cold)
            if parent is not None and '_timeouts' in parent.__dict__:
                seeded.append(n.__dict__.get('made_by', 'draft'))
        return out

    def tagged(fn, tag):
        def made(*args):
            out = fn(*args)
            out.made_by = tag
            return out
        return made

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(network, 'compute_timeouts', checked)
        mp.setattr(construct, 'compute_timeouts', checked)
        mp.setattr(construct, '_graft', tagged(construct._graft, 'graft'))
        mp.setattr(construct, 'amalgamate',
                   tagged(construct.amalgamate, 'amalgamate'))
        yield seeded


TIMEOUT_DEFS = {chi.name: chi for chi in (
    FixpointConnective('gf', 2, parse('q1 | (q2 & <F>x)', {})),
    FixpointConnective('nf', 2, parse('q1 | nablaF{x, q2}', {})),
    FixpointConnective('nb', 2, parse('q1 | nablaB{x, ~q2}', {})),
    FixpointConnective('rf', 1, parse('q | <F>x', {})),
    FixpointConnective('rb', 1, parse('q | <B>x', {})),
    FixpointConnective('sf', 1, parse('[F]x | q', {})),
)}
TIMEOUT_CTXS = [ctx_for(parse(text, TIMEOUT_DEFS)) for text in (
    '#rf(r)', '#sf(r)', '#gf(r, p)', '#nf(r, p)', '#nb(r, p)',
    '#rf(p) & #rb(q)')]


def _grow_and_tabulate(ctx, rng, size):
    """Grow one _grow_network draw every way the builder does, reading the
    timeout table of the draw first and of each result after; then build
    from a random atom, which reads every table of its rounds."""
    n = _grow_network(rng, ctx, size)
    network.compute_timeouts(n)
    grown = []
    try:
        grown.append((_saturate_all(n, Budget(max_nodes=60))[0], 'phase'))
        heads = [(u, d) for u in n.nodes for d in 'FB'
                 if u not in n.sat[d]]
        if heads:
            grown.append((saturate(n, *rng.choice(heads)), 'saturate'))
    except (Stuck, BudgetExceeded):
        pass
    for out, tag in grown:
        if out is not n:
            out.made_by = tag
            network.compute_timeouts(out)
    if is_anticonfluent(n):
        for (u, did), steps in sorted(network.compute_timeouts(n).items()):
            if steps is None:
                try:
                    finish_deferral(n, u, did, Budget(60, 4, 4))
                except (Stuck, BudgetExceeded):
                    pass
    cand = _amalgam_candidates(rng, ctx)
    if cand is not None:
        base, pairs = cand
        network.compute_timeouts(base)
        network.compute_timeouts(amalgamate(base, pairs, 'F'))
    construct.build(ctx, rng.choice(ctx.atoms_by_duty), Budget(60, 4, 3))


@given(which=st.integers(0, len(TIMEOUT_CTXS) - 1),
       seed=st.integers(0, 2 ** 32), size=st.integers(1, 9))
@settings(max_examples=150, deadline=None)
def test_seeded_timeouts_match_the_sweeps(which, seed, size):
    with _tables_checked_against_the_oracle():
        _grow_and_tabulate(TIMEOUT_CTXS[which], random.Random(seed), size)


def test_every_constructor_hands_its_parent_to_the_timeouts():
    with _tables_checked_against_the_oracle() as seeded:
        rng = random.Random(3)
        for ctx in TIMEOUT_CTXS:
            for _ in range(40):
                _grow_and_tabulate(ctx, rng, 8)
    assert set(seeded) == {'phase', 'saturate', 'draft', 'graft',
                           'amalgamate'}


# the build workload's pool of perfbench/workloads.py, (formula, how many of
# its seeds in atoms_by_duty order, None for all), and a cover pool whose
# bodies reach the nabla clause, boxes over an or and [d]_|_
CORPUS_DEFS = {chi.name: chi for chi in (
    FixpointConnective(name, arity, parse(body, {}))
    for name, arity, body in (
        ('rf', 1, 'q | <F>x'), ('rb', 1, 'q | <B>x'), ('sf', 1, '[F]x | q'),
        ('sb', 1, '[B]x | q'), ('nf', 2, 'q1 | nablaF{x, q2}'),
        ('nb', 2, 'q1 | nablaB{x, ~q2}'),
        ('n3', 2, 'q1 | nablaF{x, q2, <B>q1}'),
        ('nx', 1, 'q | nablaB{x, x | q}'), ('bx', 1, 'q1 | [F](x | <F>x)'),
        ('bf', 1, 'q | nablaF{x}')))}
BENCH_EXPECTED = Path(__file__).resolve().parent.parent / 'perfbench' / \
    'expected.json'
BUILD_POOL = (('#rf(p)', None), ('#sf(p)', 8), ('#sb(<F>p)', 9),
              ('#rf(p) & #rb(q)', 7), ('#sf(q) & #rf(p)', 9),
              ('#rf(p) & #rb(p) & #rf(q)', 3))
COVER_POOL = (('#nf(p, ~p)', 6), ('#nb(~p, q)', 6), ('#n3(<F>p, q)', 4),
              ('#nx(<B>q)', 4), ('#bx(p | q)', 6), ('#bf(~p)', 6),
              ('#sb(#nf(p, q))', 4))


def _build_pool(pool):
    """Build each formula of pool from its first seeds, as flatmu build
    --all picks them, over one fresh context per formula. Returns, per
    formula, the sha256 of the bytes flatmu build --all would print for
    those seeds, as perfbench/expected.json records them."""
    out = {}
    for text, take in pool:
        f = parse(text, CORPUS_DEFS)
        ctx = ctx_for(f)
        fi = ctx.sigma.index_of(f)
        seeds = [a for a in ctx.atoms_by_duty if a >> fi & 1][:take]
        reports = {seed: construct.build(ctx, seed).to_json()
                   for seed in seeds}
        runs = [{'atom': a, 'report': reports[a]} for a in sorted(seeds)]
        printed = json.dumps({'formula': to_string(f), 'runs': runs},
                             indent=2, sort_keys=True) + '\n'
        out[text] = hashlib.sha256(printed.encode()).hexdigest()
    return out


def test_a_corpus_build_makes_no_defect(monkeypatch):
    # the build loop, repair_all's postcondition and _radius read the flags
    # and the timeout table; Defect is made only to name a failure
    def refuse(*args):
        raise AssertionError('a build made a Defect')
    monkeypatch.setattr(network, 'Defect', refuse)
    want = json.loads(BENCH_EXPECTED.read_text())['build']
    assert _build_pool(BUILD_POOL) == \
        {text: want[text]['sha256'] for text, _ in BUILD_POOL}


@pytest.mark.parametrize('pool', [BUILD_POOL, COVER_POOL],
                         ids=['build', 'cover'])
def test_every_table_a_build_computes_matches_the_sweeps(pool):
    with _tables_checked_against_the_oracle() as seeded:
        _build_pool(pool)
    assert {'draft', 'amalgamate'} <= set(seeded)


def _restricted_alike(a, b, xs, direction):
    """equp or eqdown as restrict reads it: equal restricted structures."""
    gen = upgen if direction == 'F' else downgen
    return restrict(a, a.label.keys() - gen(a, xs)).structure() == \
        restrict(b, b.label.keys() - gen(b, xs)).structure()


@pytest.mark.parametrize('pool', [BUILD_POOL, COVER_POOL],
                         ids=['build', 'cover'])
def test_equality_outside_a_cone_matches_the_restricted_networks(pool):
    # every call the builds make, and every network they build against the
    # one it grew from, both ways at its first node and at each node of
    # the parent that gained a flag, where links and witnesses attach
    pairs, calls = [], [0]
    real_eq, real_timeouts = network._eq_outside, network.compute_timeouts

    def eq_outside(a, b, xs, direction):
        calls[0] += 1
        got = real_eq(a, b, xs, direction)
        assert got == _restricted_alike(a, b, xs, direction)
        return got

    def timeouts(n):
        if isinstance(n.__dict__.get('_parent'), Network):
            pairs.append((n._parent, n))
        return real_timeouts(n)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(network, '_eq_outside', eq_outside)
        mp.setattr(network, 'compute_timeouts', timeouts)
        mp.setattr(construct, 'compute_timeouts', timeouts)
        _build_pool(pool)
    verdicts = []
    for base, grown in pairs:
        for xs in {base.nodes[0]} | network._touched(grown, base) & \
                base.label.keys():
            for direction in 'FB':
                for a, b in ((base, grown), (grown, base), (grown, grown)):
                    verdicts.append(network._eq_outside(a, b, xs, direction))
                    assert verdicts[-1] == \
                        _restricted_alike(a, b, xs, direction)
    assert calls[0] and True in verdicts and False in verdicts


def _contained_by_restrict(a, b):
    """_is_contained as restrict reads it: b cut down to a's nodes has a's
    labels and edges, and at least a's flags."""
    if not a.label.keys() <= b.label.keys():
        return False
    cut = restrict(b, a.label)
    return cut.label == a.label and cut.edges == a.edges and \
        a.sat['F'] <= cut.sat['F'] and a.sat['B'] <= cut.sat['B']


def _subnetwork_by_restrict(a, b):
    """is_subnetwork read off b's edges: contained, and no edge of b leaves
    a at a node of a saturated on that edge's side."""
    return _contained_by_restrict(a, b) and all(
        (x not in a.sat['F'] or y in a.label) and
        (y not in a.sat['B'] or x in a.label) for x, y in b.edges)


_ASKED = {}


def _asked_while_building(pool):
    """(pairs, networks): every (a, b) that is_subnetwork or _is_contained
    is asked about while pool builds (finish_deferral's and amalgamate's
    checks), and every network whose anticonfluence construct asks. Kept
    per pool for the whole test run, as the builds are the same each time."""
    if pool not in _ASKED:
        pairs, nets = [], []

        def recorded(fn, out):
            def record(*args):
                out.append(args if len(args) > 1 else args[0])
                return fn(*args)
            return record
        with pytest.MonkeyPatch.context() as mp:
            for module, name, out in ((network, 'is_subnetwork', pairs),
                                      (network, '_is_contained', pairs),
                                      (construct, 'is_anticonfluent', nets)):
                mp.setattr(module, name,
                           recorded(getattr(module, name), out))
            _build_pool(pool)
        _ASKED[pool] = pairs, nets
    return _ASKED[pool]


@pytest.mark.parametrize('pool', [BUILD_POOL, COVER_POOL],
                         ids=['build', 'cover'])
def test_containment_matches_the_restricted_networks(pool):
    # each pair the builds check, and the same pair the other way round
    pairs, _ = _asked_while_building(pool)
    verdicts = set()
    for a, b in pairs:
        for x, y in ((a, b), (b, a)):
            got = network._is_contained(x, y)
            verdicts.add(got)
            assert got == _contained_by_restrict(x, y)
            assert is_subnetwork(x, y) == _subnetwork_by_restrict(x, y)
    assert verdicts == {True, False}


@pytest.mark.parametrize('pool', [BUILD_POOL, COVER_POOL],
                         ids=['build', 'cover'])
def test_every_kept_anticonfluence_verdict_matches_brute_force(pool):
    _, nets = _asked_while_building(pool)
    for n in nets:
        assert n._anticonfluent == _brute_anticonfluent(n.nodes, n.edges)
    assert nets


BREAKS = ('relabel', 'drop a flag', 'join two old nodes',
          'a new neighbour at a saturated node')


@given(data=st.data(), how=st.sampled_from(BREAKS))
@settings(max_examples=120, deadline=None)
def test_containment_refuses_each_way_of_breaking_it(data, how):
    pairs = [(a, b) for pool in (BUILD_POOL, COVER_POOL)
             for a, b in _asked_while_building(pool)[0]
             if len(a.nodes) > 1 and a.sat['F'] | a.sat['B']]
    base, ext = data.draw(st.sampled_from(pairs))
    assert is_subnetwork(base, ext)
    label, edges = dict(ext.label), set(ext.edges)
    sat = {d: set(flags) for d, flags in ext.sat.items()}
    flagged = sorted((d, u) for d, flags in base.sat.items() for u in flags)
    if how == 'relabel':
        u = data.draw(st.sampled_from(base.nodes))
        label[u] = data.draw(st.sampled_from(
            [a for a in ext.ctx.atoms if a != label[u]]))
    elif how == 'drop a flag':
        d, u = data.draw(st.sampled_from(flagged))
        sat[d].discard(u)
    elif how == 'join two old nodes':
        edges.add(data.draw(st.sampled_from(
            [e for e in product(base.nodes, repeat=2)
             if e[0] != e[1] and e not in base.edges])))
    else:
        d, u = data.draw(st.sampled_from(flagged))
        w = max(ext.nodes) + 1
        label[w] = data.draw(st.sampled_from(ext.ctx.atoms))
        edges.add(orient(u, w, d))
    broken = Network(ext.ctx, frozenset(edges), label,
                     {d: frozenset(flags) for d, flags in sat.items()})
    contained = how == BREAKS[-1]
    assert network._is_contained(base, broken) == contained == \
        _contained_by_restrict(base, broken)
    assert not is_subnetwork(base, broken)
    assert not _subnetwork_by_restrict(base, broken)


FOCUS_R = Sharp(REACH, (Q,))
R_ROOT = atom_with(CTX_REACH, [FOCUS_R, Dia('F', FOCUS_R)],
                   no=[Q, Dia('F', BOT)])
R_GOOD = atom_with(CTX_REACH, [FOCUS_R, Q, box('F', BOT), Dia('B', Neg(BOT))])
R_BAD = atom_with(CTX_REACH, [box('F', BOT), Dia('B', Neg(BOT))],
                  no=[FOCUS_R])


def _fork_parent():
    n = mk(CTX_REACH, {0: R_ROOT, 1: R_BAD, 2: R_GOOD}, [(0, 1)], sat_f=(0,))
    assert compute_timeouts(n)[0, 1] is None
    return n


@pytest.mark.parametrize('labels, edges, sat_f', [
    # the saturated node 0 gains a successor
    ({0: R_ROOT, 1: R_BAD, 2: R_GOOD}, [(0, 1), (0, 2)], (0,)),
    # node 2 is relabeled
    ({0: R_ROOT, 1: R_BAD, 2: R_BAD}, [(0, 1)], (0,)),
    # node 2 is gone
    ({0: R_ROOT, 1: R_BAD}, [(0, 1)], (0,)),
    # node 0 loses its flag
    ({0: R_ROOT, 1: R_BAD, 2: R_GOOD}, [(0, 1)], ()),
])
def test_timeouts_refuse_a_parent_that_is_no_sub_network(labels, edges,
                                                          sat_f):
    n = mk(CTX_REACH, labels, edges, sat_f=sat_f)
    n._parent = _fork_parent()
    with pytest.raises(InvariantError):
        compute_timeouts(n)


def test_timeouts_grow_from_a_sub_network():
    # node 3 is new and node 1 gains a flag; node 2 gains a predecessor,
    # which no clause of 2 reads while it is not backward saturated
    parent = mk(CTX_REACH, {0: R_ROOT, 1: R_BAD, 2: R_GOOD}, [(0, 1)],
                sat_f=(0,))
    compute_timeouts(parent)
    n = mk(CTX_REACH, {0: R_ROOT, 1: R_BAD, 2: R_GOOD, 3: R_ROOT},
           [(0, 1), (3, 2)], sat_f=(0, 3), sat_p=(1,))
    n._parent = parent
    assert network._touched(n, parent) == {1, 3}
    tt = compute_timeouts(n)
    assert tt == _oracle_timeouts(n)
    assert tt[0, 1] is None and tt[3, 1] == 0
    assert '_parent' not in n.__dict__


# -- serialization ------------------------------------------------------------

def test_network_json_round_trip():
    n = two_chain()
    blob = network_to_json(n)
    again = network_from_json(blob)
    assert again.structure() == n.structure()
    assert json.dumps(blob, sort_keys=True) == json.dumps(
        network_to_json(again), sort_keys=True)


def test_network_json_carries_connectives():
    a = atom_with(CTX_CHI1, [FOCUS1, Q])
    n = mk(CTX_CHI1, {0: a})
    blob = network_to_json(n)
    assert blob['closure']['connectives'] == [
        {'name': 'chi1', 'arity': 1, 'body': '[F]x | q1'}]
    again = network_from_json(blob)
    assert again.structure() == n.structure()
    assert find_defects(again) == find_defects(n)


def test_dot_output_is_stable():
    n = two_chain()
    first = to_dot(n)
    assert first == to_dot(n)
    assert '  n0 -> n1;' in first
    assert first.startswith('digraph network {')
    a = atom_with(CTX_CHI1, [FOCUS1], no=[Q, box('F', BOT)])
    annotated = to_dot(mk(CTX_CHI1, {0: a}))
    assert 'open: 0,1,2' in annotated

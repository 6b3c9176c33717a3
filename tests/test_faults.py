"""Seeded faults, each applied with monkeypatch so that src/ carries no
fault switch. Every fault names the checks that must catch it: selftest
rows, run through acceptance.run_all(only=...), and Tier-1 oracles.

Five faults sit in the wide-lane kernels of semantics: the bit-plane
image, its memo and complement. Rows 1-3 compare lanes with scalar
anchors or with a second reading, so they catch the image faults, and an
image memo that trusts its bucket key without the == test; row 4 does
not, because its stage laws hold for any monotone <d>. No row catches a
complement taken against every bit of the planes: the sweeps' batches
have no state past a lane's size, so there full_mask is every bit, and
only brute_force_sat's mixed-size batches tell the two apart.

Four faults sit in construct's finishing. No selftest row catches any
of them. The graft oracle of test_construct catches box families padded
with bare leaves, the pinned builds over full expansions catch a filler
that tries modal components first and a _first_finish with no scan for
a try already done, and the timeout sweeps catch a box finished at its
first neighbour only.

Five more give rows 5, 8 and 10 their first faults, and rows 1-7 one
outside the lane kernels each. A Kleene iteration one round short fails
rows 2, 4, 5 and 6, and row 10 too: the first perfect builds of #rf(q)
are one-node networks, where |W| - 1 rounds are none. A nabla expansion
without its first diamond fails rows 1 and 3, a guardified split that
drops the guarded half of an or fails row 7, _partners without its
converse loop fails row 10, and an anticonfluence test that always
passes fails row 8. A diamond clause taking the max over its neighbours
fails row 9, and only as a raise: finish_deferral raises InvariantError
before the row compares a table, and run_all records the raise as the
row's failure. Row 9's law itself, that timeouts never grow under
extension, holds for any monotone reading of the clauses; a box clause
taking the min over neighbours passes it. Only row 11 has no fault here:
it compares two `python -m flatmu` children, which a monkeypatch in this
process cannot reach.

Two sit in what compute_timeouts re-reads. A flag gain that re-reads the
converse direction's clauses fails row 9, again as a raise: a deferral
finished toward the new flag still reads open. No row catches a leaf
table that stores a box at [d]_|_ as unresolved; the timeout sweeps and
the build pool's tables do. Both start every context from an empty leaf
table, since the shared contexts of test_network keep what earlier tests
settled, and a leaf table filled before the fault hides it.
"""

import hashlib
import io
import json
import os
import random
import tempfile
from contextlib import redirect_stdout
from dataclasses import replace
from functools import reduce
from operator import and_, or_

import pytest

import test_cli
import test_construct
import test_network
import test_semantics
import test_syntax
from flatmu import acceptance, construct, network, semantics, syntax
from flatmu.cli import main
from flatmu.closure import fl_closure
from flatmu.network import Draft, NetworkContext
from flatmu.semantics import LaneBatch
from flatmu.syntax import (
    CONVERSE, Bottom, Dia, Neg, Or, Sharp, box, parse, top,
)


def _rows_in_wrong_order(self, direction, arg):
    """image rebuilding lowest row first: row v lands on state n-1-v."""
    width, lanes, planes, out = self._width, self._lanes, [], 0
    for _ in range(self.states):
        planes.append(arg & lanes)
        arg >>= width
    for row in self._toward[direction]:
        out = out << width | reduce(or_, map(and_, row, planes))
    return out


def _one_plane_short(self, direction, arg):
    """image slicing states - 1 planes, so the top state is never read;
    the 0 keeps a one-state batch from raising instead of answering."""
    width, lanes, planes, out = self._width, self._lanes, [], 0
    for _ in range(self.states - 1):
        planes.append(arg & lanes)
        arg >>= width
    for row in reversed(self._toward[direction]):
        out = out << width | reduce(or_, map(and_, row, planes), 0)
    return out


def _negation_within(mask):
    """eval_bits whose Neg on a LaneBatch returns ~x & mask(batch); int
    masks and the plans' 'not' step are left as they are."""
    real = semantics.eval_bits

    def eval_bits(formula, model, env=None, _memo=None):
        if isinstance(formula, Neg) and isinstance(model, LaneBatch):
            return ~eval_bits(formula.child, model, env, _memo) & mask(model)
        return real(formula, model, env, _memo)
    return eval_bits


def _kleene_one_round_short():
    """eval_bits iterating a # formula's body itself, |W| - 1 rounds up
    from the empty set, where the least fixpoint may need |W|; every
    other formula is left to the real one."""
    real = semantics.eval_bits

    def eval_bits(formula, model, env=None, _memo=None):
        if not isinstance(formula, Sharp):
            return real(formula, model, env, _memo)
        inner = {'q%d' % (k + 1): eval_bits(a, model, env, _memo)
                 for k, a in enumerate(formula.args)}
        out = 0
        for _ in range(model.states - 1):
            out = real(formula.connective.body, model, {**inner, 'x': out})
        return out
    return eval_bits


def _image_trusting_its_bucket(real):
    """The memoised image answering from the first image kept in arg's
    bucket with no == test: an argument that shares direction, bit length
    and low 64 bits with an earlier one gets that one's image."""
    def image(self, direction, arg):
        bucket = self._images.get(
            (direction, arg.bit_length(), arg & (1 << 64) - 1))
        return bucket[0][1] if bucket else real(self, direction, arg)
    return image


def _patch_image(image):
    return lambda mp: mp.setattr(LaneBatch, 'image', image)


def _patch_eval_bits(make):
    def apply(mp):
        faulty = make()
        for module in (semantics, acceptance, test_semantics):
            mp.setattr(module, 'eval_bits', faulty)
    return apply


def _patch_negation(mask):
    return _patch_eval_bits(lambda: _negation_within(mask))


def _nabla_without_its_first_diamond(direction, components):
    """syntax.nabla leaving out <d> of the first component."""
    comps = tuple(components)
    if not comps:
        return box(direction, Bottom())
    parts = [Dia(direction, c) for c in comps[1:]]
    parts.append(box(direction, reduce(Or, comps)))
    return reduce(syntax.and_, parts)


def _patch_nabla(mp):
    """The faulty nabla in acceptance and test_semantics, and row 1's
    law table rebuilt with it."""
    faulty, h = _nabla_without_its_first_diamond, acceptance._HOLE
    mp.setattr(acceptance, 'nabla', faulty)
    mp.setattr(test_semantics, 'nabla', faulty)
    mp.setattr(acceptance, '_NABLA_PAIRS', tuple(
        pair for d in ('F', 'B') for pair in (
            (Dia(d, h), faulty(d, (h, top()))),
            (box(d, h), Or(faulty(d, ()), faulty(d, (h,)))))))


def _split_without_guarded_or_halves(real):
    """syntax._split answering an or with unguarded x by its unguarded
    half alone: the guarded half is _|_."""
    def split(node):
        if node.kind == 'or' and syntax._has_unguarded(node.src, 'x'):
            return real(node)[0], Bottom()
        return real(node)
    return split


def _partners_one_way(self, bits, direction):
    """NetworkContext._partners without its converse loop: a partner need
    not hold the diamond back to each child that bits holds."""
    order, having = self._lanes
    lanes = (1 << len(order)) - 1
    for dia_i, child_i in self.sigma.dia_pairs[direction]:
        if not bits >> dia_i & 1:
            lanes &= ~having[child_i]
    return lanes


def _dia_clause_taking_the_max(real):
    """_clause_value reading a diamond at its worst neighbour, as a box
    is read; every other clause is left as it is."""
    def clause_value(n, values, u, dfl):
        if dfl.dnode is None or dfl.dnode.kind != 'dia':
            return real(n, values, u, dfl)
        d = dfl.direction
        nbrs = n.nbrs[d][u] if u in n.sat[d] else ()
        return max((network._component_value(n, values, w, dfl.children[0])
                    for w in nbrs), default=network.INF)
    return clause_value


class _LeavesBlindToBoxBottom(dict):
    """A context's leaf table storing None for each box deferral whose
    [d]_|_ the atom holds: a leaf copied from it reads that box as
    unresolved, where the clause gives 0."""

    def __init__(self, ctx):
        super().__init__()
        self.ctx = ctx

    def __setitem__(self, bits, values):
        sigma, deferrals = self.ctx.sigma, self.ctx.table.deferrals

        def blind(dfl):
            return dfl.dnode is not None and dfl.dnode.kind == 'box' and \
                bits >> sigma.box_bottom_index[dfl.direction] & 1
        super().__setitem__(bits, [(did, None if blind(deferrals[did]) else v)
                                   for did, v in values])


def _reads_the_converse(self):
    """NetworkContext.reads with every modal deferral's direction turned
    round: a node that gains a flag re-reads its clauses the other way."""
    return {r: CONVERSE[d] for rs in self.table.readers[1] for r, d in rs}


def _cold_contexts(mp, leaves=lambda ctx: {}):
    """Start every context from an empty leaf table made by leaves, the
    shared ones of test_network and each one made from here on, so that
    no table settled before the fault was applied hides it."""
    real = NetworkContext.__init__

    def init(self, sigma):
        real(self, sigma)
        self.leaves = leaves(self)
    mp.setattr(NetworkContext, '__init__', init)
    for ctx in test_network.TIMEOUT_CTXS:
        mp.setattr(ctx, 'leaves', leaves(ctx))
        mp.delitem(ctx.__dict__, 'reads', raising=False)


def _patch_reads(mp):
    _cold_contexts(mp)
    mp.setattr(NetworkContext, 'reads', property(_reads_the_converse))


def _pool_oracle(pool):
    """test_every_table_a_build_computes_matches_the_sweeps at one pool."""
    return lambda: \
        test_network.test_every_table_a_build_computes_matches_the_sweeps(
            pool)


def _patch_anticonfluence(mp):
    for module in (network, acceptance, construct, test_network):
        mp.setattr(module, 'is_anticonfluent', lambda n: True)


def _kernel_oracle():
    """test_the_wide_lane_kernels_match_slice_and_sum at fixed draws."""
    for density in ('sparse', 'even', 'dense'):
        test_semantics._kernels_match_the_reference(1729, density)


_SEAMS = vars(test_semantics)[
    'test_a_mixed_size_batch_agrees_with_int_masks_at_its_seams']

def _graft_oracle():
    """test_every_finishing_tree_finishes_its_deferral_once_grafted at the
    two origins whose boxes have families to pad."""
    for origin in ('#sf(#rb(#sf(q)))', '#bx(p)'):
        assert test_construct.unfinished_grafts(origin)[0] == 0, origin


def _pinned_build(formula):
    """test_build_all_prints_the_pinned_bytes at one formula."""
    digest = dict(test_cli.BUILD_PINS)[formula]

    def oracle():
        out = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, 'defs.json')
            with open(path, 'w') as fh:
                json.dump(test_cli.BENCH_DEFS, fh)
            with redirect_stdout(out):
                assert main(['build', '--all', formula, '--defs', path]) == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
    return oracle


def _box_padded_like_a_diamond(real):
    """_family_copies padding a box's families with bare leaves."""
    def copies(ctx, cand, dfl, dedicated, depth):
        if dfl.dnode.kind == 'box':
            dfl = replace(dfl, dnode=replace(dfl.dnode, kind='dia'))
        return real(ctx, cand, dfl, dedicated, depth)
    return copies


def _first_finish_without_the_done_scan(tries, budget, ids, seen):
    """_first_finish trying its tries in order with no scan for one that
    is already done, so an earlier try that can be finished wins."""
    for n, w, comp in tries:
        if not n.label[w] >> comp[0] & 1:
            continue
        start = ids.next
        try:
            return w, construct._finish_component(n, w, comp, budget, ids,
                                                  seen)
        except construct.Stuck:
            ids.next = start
    return None


def _modal_components_first(ctx, cand, comps, depth):
    """_row_filler trying the components that have a deferral first."""
    for comp in sorted(comps, key=lambda c: c[1] is None):
        sub = construct._component_tree(ctx, cand, comp, depth)
        if sub is not None:
            return sub
    return None


def _box_at_its_first_neighbour(real):
    """_finish whose box step finishes the component at the first of the
    node's neighbours only; every other step is left as it is."""
    def finish(n, u, did, budget, ids, seen):
        dfl = n.ctx.table.deferrals[did]
        direction = dfl.direction
        if dfl.dnode is None or dfl.dnode.kind != 'box' or \
                (u, did) in seen or construct._finished(n, u, did) or \
                not n.nbrs[direction][u]:
            return real(n, u, did, budget, ids, seen)
        if u not in n.sat[direction]:
            draft = Draft(n, link=False)
            construct._saturate(draft, u, direction, ids, budget)
            n = draft.freeze()
        w = n.nbrs[direction][u][0]
        ext = construct._finish_component(n, w, dfl.children[0], budget,
                                          ids, frozenset())
        return construct._fold(n, u, {w: ext}, direction)
    return finish


def _patch_construct(name, make):
    return lambda mp: mp.setattr(construct, name,
                                 make(getattr(construct, name)))


def _lane_mask_oracle():
    """test_lane_masks_eliminate_atoms_as_the_pairwise_oracle at one
    formula of each direction."""
    conns = {c.name: c for c in test_network.STAGES}
    for text in ('#rf(p)', '#rb(q)'):
        test_network._lane_masks_match_the_oracle(
            fl_closure(parse(text, conns)))


def _seeded_timeouts():
    """test_seeded_timeouts_match_the_sweeps at fixed draws."""
    for ctx in test_network.TIMEOUT_CTXS:
        for seed in range(20):
            with test_network._tables_checked_against_the_oracle():
                test_network._grow_and_tabulate(ctx, random.Random(seed), 6)


# name -> (apply, selftest rows that must fail, Tier-1 oracles that must)
FAULTS = {
    'image rebuilds its rows in the wrong order': (
        _patch_image(_rows_in_wrong_order), ('1', '2', '3', '6'),
        (_kernel_oracle, _SEAMS)),
    'image slices one plane too few': (
        _patch_image(_one_plane_short), ('1', '2', '3'),
        (_kernel_oracle, _SEAMS)),
    'negation keeps the lanes of one plane': (
        _patch_negation(lambda b: b._lanes), ('1', '2', '3', '4', '6', '7'),
        (_kernel_oracle, _SEAMS)),
    'negation keeps every bit of the planes': (
        _patch_negation(lambda b: (1 << b.states * len(b)) - 1), (),
        (_kernel_oracle, _SEAMS)),
    'box families padded with bare leaves': (
        _patch_construct('_family_copies', _box_padded_like_a_diamond), (),
        (_graft_oracle, _pinned_build(test_cli.DEEP_GRAFT))),
    'the row filler tries modal components first': (
        _patch_construct('_row_filler', lambda _: _modal_components_first),
        (), (_pinned_build('#nf(p, ~p)'), _pinned_build('#nb(~p, ~p)'))),
    'a box finished at its first neighbour only': (
        _patch_construct('_finish', _box_at_its_first_neighbour), (),
        (_seeded_timeouts, _pinned_build('#sb(<F>p)'))),
    'first finish without its scan for a try already done': (
        _patch_construct('_first_finish',
                         lambda _: _first_finish_without_the_done_scan),
        (), (_pinned_build('#nf(p, ~p)'), _pinned_build('#nb(~p, ~p)'))),
    'Kleene iteration one round short': (
        _patch_eval_bits(_kleene_one_round_short), ('2', '4', '5', '6', '10'),
        (test_semantics.test_kleene_matches_prefixpoint_intersection,
         test_semantics.test_approximants_grow_to_the_fixpoint)),
    'nabla expansion without its first diamond': (
        _patch_nabla, ('1', '3'),
        (test_semantics.test_nabla_expansion_laws_exhaustive_two_states,
         test_semantics.test_nabla_via_relation_matches_expansion)),
    'guardified split dropping the guarded half of an or': (
        lambda mp: mp.setattr(syntax, '_split',
                              _split_without_guarded_or_halves(syntax._split)),
        ('7',),
        (test_syntax.test_guardify_mixed_disjunction,
         test_syntax.test_guardify_invariants_on_small_corpus)),
    'partners without their converse loop': (
        lambda mp: mp.setattr(NetworkContext, '_partners', _partners_one_way),
        ('10',), (_lane_mask_oracle, _pinned_build('#rf(p)'))),
    'image trusting its bucket without the == test': (
        lambda mp: mp.setattr(LaneBatch, 'image',
                              _image_trusting_its_bucket(LaneBatch.image)),
        ('1', '2', '3'),
        (test_semantics.test_a_kept_image_answers_only_its_own_argument,)),
    'a diamond clause taking the max over its neighbours': (
        lambda mp: mp.setattr(network, '_clause_value',
                              _dia_clause_taking_the_max(
                                  network._clause_value)),
        ('9',),
        (test_network.test_timeouts_dia_kind_takes_the_best_successor,
         _seeded_timeouts)),
    'a leaf table reading a box at [d]_|_ as unresolved': (
        lambda mp: _cold_contexts(mp, _LeavesBlindToBoxBottom), (),
        (_seeded_timeouts, _pool_oracle(test_network.BUILD_POOL))),
    'a flag gain re-reading the converse direction': (
        _patch_reads, ('9',),
        (_seeded_timeouts, _pool_oracle(test_network.BUILD_POOL))),
    'anticonfluence that always holds': (
        _patch_anticonfluence, ('8',),
        (test_network.test_anticonfluence_matches_quadruple_oracle,
         test_network.test_diamond_is_not_anticonfluent)),
}


@pytest.mark.parametrize('name', FAULTS)
def test_a_seeded_fault_fails_its_named_checks(name, monkeypatch):
    apply, rows, oracles = FAULTS[name]
    apply(monkeypatch)
    assert [(r.ident, r.passed) for r in acceptance.run_all(only=rows)] \
        == [(ident, False) for ident in rows]
    for oracle in oracles:
        with pytest.raises(AssertionError):
            oracle()

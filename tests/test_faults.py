"""Seeded faults, each applied with monkeypatch so that src/ carries no
fault switch. Every fault names the checks that must catch it: selftest
rows, run through acceptance.run_all(only=...), and Tier-1 oracles.

Four faults sit in the wide-lane kernels of semantics: the bit-plane
image and complement. Rows 1-3 compare lanes with scalar anchors or with
a second reading, so they catch the image faults; row 4 does not,
because its stage laws hold for any monotone <d>. No row catches a
complement taken against every bit of the planes: the sweeps' batches
have no state past a lane's size, so there full_mask is every bit, and
only brute_force_sat's mixed-size batches tell the two apart.

Three faults sit in construct's finishing. No selftest row catches any
of them. The graft oracle of test_construct catches box families padded
with bare leaves, the pinned builds over full expansions catch a filler that tries
modal components first, and the timeout sweeps catch a box finished at
its first neighbour only.
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
from flatmu import acceptance, construct, semantics
from flatmu.cli import main
from flatmu.network import Draft
from flatmu.semantics import LaneBatch
from flatmu.syntax import Neg


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


def _patch_image(image):
    return lambda mp: mp.setattr(LaneBatch, 'image', image)


def _patch_negation(mask):
    def apply(mp):
        faulty = _negation_within(mask)
        mp.setattr(semantics, 'eval_bits', faulty)
        mp.setattr(acceptance, 'eval_bits', faulty)
        mp.setattr(test_semantics, 'eval_bits', faulty)
    return apply


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

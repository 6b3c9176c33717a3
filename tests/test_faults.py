"""Seeded faults, each applied with monkeypatch so that src/ carries no
fault switch. Every fault names the checks that must catch it: selftest
rows, run through acceptance.run_all(only=...), and Tier-1 oracles.

The four faults here sit in the wide-lane kernels of semantics: the
bit-plane image and complement. Rows 1-3 compare lanes with scalar
anchors or with a second reading, so they catch the image faults; row 4
does not, because its stage laws hold for any monotone <d>. No row
catches a complement taken against every bit of the planes: the sweeps'
batches have no state past a lane's size, so there full_mask is every
bit, and only brute_force_sat's mixed-size batches tell the two apart.
"""

from functools import reduce
from operator import and_, or_

import pytest

import test_semantics
from flatmu import acceptance, semantics
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

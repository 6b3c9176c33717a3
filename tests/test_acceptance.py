"""Release gate: every check row must pass, within its time budget.

The full battery runs once per session through run_all; each test then
asserts its own row so the report stays one line per check.
"""

import gc
import weakref
from pathlib import Path

import pytest

from flatmu import acceptance
from flatmu.cli import main
from flatmu.semantics import (
    LaneBatch, approximant, axiom_instances, brute_force_sat, eval_bits,
    model_lanes,
)
from flatmu.syntax import Sharp, parse, to_string

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope='module')
def rows():
    return {r.ident: r for r in acceptance.run_all()}


def _row(rows, ident, limit=None):
    row = rows[ident]
    assert row.passed, row.detail
    if limit is not None:
        assert row.seconds < limit, \
            'check %s took %.1fs (budget %ds)' % (ident, row.seconds, limit)


def test_1_cover_equivalences_under_60s(rows):
    _row(rows, '1', 60)


def test_2_axiom_instances_valid_under_60s(rows):
    _row(rows, '2', 60)


def test_3_relation_cover_matches_expansion(rows):
    _row(rows, '3')


def test_4_stages_bound_and_close_the_fixpoint(rows):
    _row(rows, '4')


def test_5_kleene_equals_intersection_under_30s(rows):
    _row(rows, '5', 30)


def test_6_no_finite_model_pair_under_120s(rows):
    _row(rows, '6', 120)


def test_7_guardification_equivalence_valid(rows):
    _row(rows, '7')


def test_8_network_algebra_against_brute_force(rows):
    _row(rows, '8')


def test_9_finished_deferrals_survive_extension(rows):
    _row(rows, '9')


def test_10_truth_lemma_at_desk_scale_under_300s(rows):
    _row(rows, '10', 300)


def test_11_build_output_is_byte_deterministic(rows):
    _row(rows, '11')


@pytest.mark.skipif(not (REPO / 'src' / 'flatmu').is_dir(),
                    reason='needs the src/ layout of a checkout')
def test_11_passes_under_a_relative_pythonpath(monkeypatch):
    # Row 11 runs its children in a temporary directory, where the relative
    # entry of `PYTHONPATH=src python -m pytest` names nothing.
    monkeypatch.chdir(REPO)
    monkeypatch.setenv('PYTHONPATH', 'src')
    [row] = acceptance.run_all(only={'11'})
    assert row.passed, row.detail
    assert row.detail == 'two runs, 755 output bytes, byte-identical'


def test_every_row_reported(rows):
    assert sorted(rows) == sorted(i for i, _, _ in acceptance.CHECKS)
    assert len(rows) == 11


def test_formula_pool_has_twenty_members():
    assert len(acceptance._POOL) == 20


def test_mutation_hook_fails_only_its_row():
    got = acceptance.run_all(only={'2'}, mutate='corrupt-axiom')
    assert len(got) == 1 and not got[0].passed
    assert 'instance 0' in got[0].detail


def test_unknown_mutation_is_rejected():
    with pytest.raises(ValueError):
        acceptance.run_all(only={'6'}, mutate='no-such-hook')


def test_a_raising_check_fails_its_own_row_and_the_next_one_runs(
        monkeypatch, capsys):
    def raising():
        raise ValueError('no such frame')

    monkeypatch.setattr(acceptance, 'CHECKS', tuple(
        (ident, title, raising if ident == '6' else fn)
        for ident, title, fn in acceptance.CHECKS))
    got = acceptance.run_all(only={'6', '8'})
    assert [(r.ident, r.passed) for r in got] == [('6', False), ('8', True)]
    assert got[0].detail == 'check 6 raised ValueError: no such frame'
    assert main(['selftest', '--only', '6', '8']) == 2
    out = capsys.readouterr().out
    assert 'check 6 raised ValueError' in out
    assert out.splitlines()[-1] == '1/2 checks passed'


def test_no_lane_batch_outlives_its_operation(monkeypatch):
    # each batch's image memo fills and dies inside the operation that
    # reads it: reference counts alone free every batch
    made, init = [], LaneBatch.__init__

    def counted(self, *args):
        init(self, *args)
        made.append(weakref.ref(self))

    monkeypatch.setattr(LaneBatch, '__init__', counted)
    gc.disable()
    try:
        assert acceptance.run_all(only={'4'})[0].passed
        assert brute_force_sat(parse('p & <F>~p & [F]p'), 3) is None
    finally:
        gc.enable()
    # row 4: 27 frame chunks on 1-4 states and 2 random-model sizes; the
    # query: one chunk of 876 lanes
    assert len(made) == 30 and [r for r in made if r() is not None] == []


# ---------------------------------------------------------------------------
# the random models of checks 2 and 4 as lanes

def _sweep_formulas():
    """Check 4's fixpoints and stages 1..6 of every connective-argument
    pair, then check 2's 43 axiom instances."""
    out = [f for chi in acceptance._STAGE_CONNS
           for theta in acceptance._STAGE_ARGS
           for f in [Sharp(chi, (theta,))]
           + [approximant(chi, k, (theta,)) for k in range(6)]]
    instances = list(axiom_instances(acceptance._AX_POOL))
    assert len(out) == 56 and len(instances) == 43
    return out + instances


def _first_lane_off_its_model():
    """(size, lane, formula) of the first lane of the random-model batches
    that acceptance packs whose truth set differs from eval_bits on that
    lane's own KripkeModel, or None."""
    formulas, models = _sweep_formulas(), acceptance._random_models()
    for n in (5, 6):
        group = [m for m in models if m.states == n]
        batch = acceptance.model_lanes(group)
        assert (batch.states, len(batch)) == (n, len(group))
        memo, memos = {}, [{} for _ in group]
        for f in formulas:
            x = eval_bits(f, batch, None, memo)
            for i, m in enumerate(group):
                if batch.lane(x, i) != eval_bits(f, m, None, memos[i]):
                    return n, i, to_string(f)
    return None


def test_every_random_lane_equals_eval_bits_on_its_own_model():
    assert _first_lane_off_its_model() is None


def test_the_lane_oracle_catches_swapped_edge_rows(monkeypatch):
    # every law checks 2 and 4 test also holds on the converse model, so
    # a packing that swaps F and B passes both rows; the oracle does not
    pack = acceptance.model_lanes

    def swapped(models):
        batch = pack(models)
        batch._toward = {'F': batch._toward['B'], 'B': batch._toward['F']}
        return batch

    monkeypatch.setattr(acceptance, 'model_lanes', swapped)
    assert _first_lane_off_its_model() is not None


def test_a_random_lane_failure_names_the_model_by_its_draw_index():
    models = acceptance._random_models()
    six = model_lanes([m for m in models if m.states == 6])
    full, width = six.full_mask, len(six)
    # lane 7 splits at state 0 and lane 3 at state 5: the lowest lane
    # names the model, not the lowest bit
    cut = full & ~(1 << 7) & ~(1 << 5 * width + 3)
    assert acceptance._where(None, six, full, cut) == \
        'random model 6 (6 states)'
    five = model_lanes([m for m in models if m.states == 5])
    assert acceptance._where(None, five, 0, 1 << 4 * len(five) + 9) == \
        'random model 22 (5 states)'

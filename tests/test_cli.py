import hashlib
import json
import subprocess
import sys

import pytest

from flatmu.acceptance import child_env
from flatmu.cli import main
from flatmu.closure import fl_closure
from flatmu.network import NetworkContext
from flatmu.syntax import connectives_from_json, parse

DEFS = [{'name': 'r', 'arity': 1, 'body': 'q | <F>x'}]


@pytest.fixture
def defs_path(tmp_path):
    p = tmp_path / 'defs.json'
    p.write_text(json.dumps(DEFS))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    got = capsys.readouterr()
    return code, got.out, got.err


# -- parsing and closure-level queries ----------------------------------------

def test_parse_prints_the_canonical_form(capsys):
    code, out, _ = run(capsys, 'parse', 'p  ->   q')
    assert code == 0 and out == '~p | q\n'


def test_parse_rejects_garbage_with_exit_1(capsys):
    code, _, err = run(capsys, 'parse', 'p |')
    assert code == 1 and 'error' in err


@pytest.mark.parametrize('argv', [
    ('parse', '~' * 3000 + 'p'),
    ('parse', '(' * 1200 + 'p' + ')' * 1200),
    ('closure', '~' * 600 + 'p'),
], ids=['parse-3000-negations', 'parse-1200-parentheses',
        'closure-600-negations'])
def test_deep_nesting_is_a_one_line_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert len(err.splitlines()) == 1 and 'nested too deeply' in err
    assert 'Traceback' not in err


def test_closure_lists_members_one_per_line(capsys):
    code, out, _ = run(capsys, 'closure', 'p')
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == 'p'
    assert '[F]_|_' in lines and '<B>~_|_' in lines


def test_closure_json_mode_is_a_single_array(capsys):
    code, out, _ = run(capsys, 'closure', 'p', '--json')
    assert code == 0 and json.loads(out)[0] == 'p'


def test_atoms_count_for_one_letter(capsys):
    code, out, _ = run(capsys, 'atoms', 'p', '--count')
    assert code == 0 and out.strip() == '8'


def test_atoms_lines_are_json_records(capsys):
    code, out, _ = run(capsys, 'atoms', 'p')
    recs = [json.loads(line) for line in out.splitlines()]
    assert code == 0 and len(recs) == 8
    assert all('~_|_' in r['members'] for r in recs)


# -- model checking and satisfiability ----------------------------------------

@pytest.fixture
def model_path(tmp_path):
    p = tmp_path / 'model.json'
    p.write_text(json.dumps(
        {'states': 2, 'edges': [[0, 1]], 'valuation': {'p': [1]}}))
    return str(p)


def test_check_true_exits_zero(capsys, model_path):
    code, out, _ = run(capsys, 'check', model_path, '0', '<F>p')
    assert code == 0 and out == 'true\n'


def test_check_false_exits_two(capsys, model_path):
    code, out, _ = run(capsys, 'check', model_path, '1', '<F>p')
    assert code == 2 and out == 'false\n'


def test_check_rejects_a_state_outside_the_model(capsys, model_path):
    code, _, err = run(capsys, 'check', model_path, '5', 'p')
    assert code == 1 and 'state' in err


@pytest.mark.parametrize('blob, problems', [
    ({'states': 2.5}, ['states must be an integer >= 1, not 2.5']),
    ({'states': True}, ['states must be an integer >= 1, not true']),
    ({'states': 2, 'valuation': {'p': [0.5]}},
     ['valuation of p must list states in [0, 2)']),
    ({'states': 2, 'edges': [[0, 1.9]]},
     ['edge [0, 1.9] must join two states in [0, 2)']),
    ({'states': 2, 'edges': [[0, 'a']]},
     ['edge [0, "a"] must join two states in [0, 2)']),
    ({'states': 2, 'valuation': {'p': 5}},
     ['valuation of p must list states in [0, 2)']),
    ([1, 2], ['the file is not a JSON object']),
    ({'states': 2, 'edges': [[0]], 'valuation': {'p': [2]}},
     ['edge [0] must join two states in [0, 2)',
      'valuation of p must list states in [0, 2)']),
])
def test_check_refuses_a_malformed_model_line_by_line(capsys, tmp_path, blob,
                                                      problems):
    path = tmp_path / 'bad.json'
    path.write_text(json.dumps(blob))
    code, out, err = run(capsys, 'check', str(path), '0', 'p | <F>~p')
    assert code == 1 and out == ''
    assert err.splitlines() == ['flatmu: error: %s: %s' % (path, p)
                                for p in problems]


def test_sat_reports_none_for_bottom(capsys):
    code, out, _ = run(capsys, 'sat', '_|_', '--max-states', '3')
    assert code == 2 and out == 'none\n'


@pytest.mark.parametrize('bound', ['0', '-1'])
def test_sat_refuses_a_bound_below_one_state(capsys, bound):
    code, out, err = run(capsys, 'sat', 'p', '--max-states', bound)
    assert code == 1 and out == ''
    assert err == 'flatmu: error: --max-states must be at least 1, not %s\n' \
        % bound


def test_sat_witness_is_a_real_model(capsys):
    code, out, _ = run(capsys, 'sat', 'p & <B>q')
    assert code == 0
    blob = json.loads(out)
    assert blob['state'] in range(blob['model']['states'])


# -- guardify ------------------------------------------------------------------

def test_guardify_prints_the_three_parts(capsys, defs_path):
    code, out, _ = run(capsys, 'guardify', defs_path, 'r')
    assert code == 0
    assert out.splitlines()[0] == 'gamma1: _|_'
    assert out.splitlines()[1] == 'gamma2: q1 | <F>x'


def test_guardify_bad_defs_is_a_clean_error(capsys, tmp_path):
    p = tmp_path / 'bad.json'
    p.write_text(json.dumps({'name': 'w', 'arity': 0, 'body': 'q | <F>x'}))
    code, _, err = run(capsys, 'guardify', str(p), 'w')
    assert code == 1 and 'stray variables' in err


def test_guardify_unknown_name_exits_one(capsys, defs_path):
    code, _, err = run(capsys, 'guardify', defs_path, 'nope')
    assert code == 1 and 'nope' in err


def test_guardify_refuses_a_non_disjunctive_body(capsys, tmp_path):
    p = tmp_path / 'bad.json'
    p.write_text(json.dumps({'name': 'w', 'arity': 0, 'body': 'x & <F>x'}))
    code, _, err = run(capsys, 'guardify', str(p), 'w')
    assert code == 2 and 'not disjunctive' in err


# -- network inspection ---------------------------------------------------------

@pytest.fixture
def network_path(capsys, tmp_path, defs_path):
    code, out, _ = run(capsys, 'build', '#r(q)', '--defs', defs_path)
    assert code == 0
    p = tmp_path / 'net.json'
    p.write_text(json.dumps(json.loads(out)['report']['network']))
    return str(p)


def test_net_validate_ok(capsys, network_path):
    code, out, _ = run(capsys, 'net', 'validate', network_path)
    assert code == 0 and out == 'ok\n'


def test_net_defects_none_on_a_perfect_network(capsys, network_path):
    code, out, _ = run(capsys, 'net', 'defects', network_path)
    assert code == 0 and out == 'none\n'


def test_net_defects_flags_a_broken_network(capsys, network_path, tmp_path):
    blob = json.load(open(network_path))
    blob['satF'] = []
    p = tmp_path / 'broken.json'
    p.write_text(json.dumps(blob))
    code, out, _ = run(capsys, 'net', 'defects', str(p))
    assert code == 2 and 'forward saturation missing' in out


def test_net_timeouts_lists_the_active_pairs(capsys, network_path):
    code, out, _ = run(capsys, 'net', 'timeouts', network_path)
    assert code == 0
    assert all('deferral' in line for line in out.splitlines())


@pytest.fixture
def self_loop_path(tmp_path):
    p = tmp_path / 'loop.json'
    p.write_text(json.dumps({
        'closure': {'formula': 'p', 'connectives': []},
        'nodes': [{'id': 0, 'atom': []}], 'edges': [[0, 0]],
        'satF': [], 'satP': []}))
    return str(p)


def test_net_validate_lists_what_a_self_loop_breaks(capsys, self_loop_path):
    code, out, _ = run(capsys, 'net', 'validate', self_loop_path)
    assert code == 2
    assert out.splitlines() == ['label of 0 is not an atom',
                                'relation has a cycle']


@pytest.mark.parametrize('query', ['defects', 'timeouts'])
def test_net_queries_refuse_a_non_network(capsys, self_loop_path, query):
    code, out, err = run(capsys, 'net', query, self_loop_path)
    assert code == 1 and out == ''
    assert len(err.splitlines()) == 1
    assert 'not a network' in err and 'relation has a cycle' in err


@pytest.fixture
def diamond_path(tmp_path):
    # atoms for labels, coherent edges, full families and no cycle, but
    # nodes 1 and 2 share the ancestor 0 and the descendant 3
    p = tmp_path / 'diamond.json'
    p.write_text(json.dumps({
        'closure': {'formula': 'p', 'connectives': []},
        'nodes': [{'id': 0, 'atom': [2, 3, 4, 6]},
                  {'id': 1, 'atom': [3, 4, 5, 6]},
                  {'id': 2, 'atom': [3, 4, 5, 6]},
                  {'id': 3, 'atom': [1, 3, 5, 6]}],
        'edges': [[0, 1], [0, 2], [1, 3], [2, 3]],
        'satF': [0, 1, 2, 3], 'satP': [0, 1, 2, 3]}))
    return str(p)


def test_net_validate_rejects_a_diamond(capsys, diamond_path):
    code, out, _ = run(capsys, 'net', 'validate', diamond_path)
    assert code == 2
    assert out.splitlines() == ['relation is not anticonfluent']


@pytest.mark.parametrize('query', ['defects', 'timeouts'])
def test_net_queries_refuse_a_diamond(capsys, diamond_path, query):
    code, out, err = run(capsys, 'net', query, diamond_path)
    assert code == 1 and out == ''
    assert 'relation is not anticonfluent' in err


def _one_node_file(tmp_path, edit):
    blob = {'closure': {'formula': 'p', 'connectives': []},
            'nodes': [{'id': 0, 'atom': [2, 3, 4, 6]}], 'edges': [],
            'satF': [], 'satP': []}
    edit(blob)
    p = tmp_path / 'bad.json'
    p.write_text(json.dumps(blob))
    return str(p)


@pytest.mark.parametrize('edit, problems', [
    (lambda b: b['nodes'][0].update(id='a'),
     ['node id "a" is not an integer']),
    (lambda b: b['nodes'].append({'id': 0, 'atom': [1]}),
     ['node id 0 appears twice']),
    (lambda b: b['nodes'][0].update(atom=[-1]),
     ['atom of node 0 has index -1 outside [0, 8)']),
    (lambda b: b.pop('closure'), ["missing key 'closure'"]),
    (lambda b: b.update(edges=[[0]]), ['edge [0] must join two node ids']),
    (lambda b: b.update(nodes=[]), ['nodes must be a non-empty list']),
    (lambda b: b.update(edges=[[0, 7]], satP=[0, 'x']),
     ['edge [0, 7] must join two node ids',
      'satP names "x", which is no node id']),
])
@pytest.mark.parametrize('query', ['validate', 'defects', 'timeouts'])
def test_net_refuses_a_malformed_file_line_by_line(capsys, tmp_path, query,
                                                   edit, problems):
    path = _one_node_file(tmp_path, edit)
    code, out, err = run(capsys, 'net', query, path)
    assert code == 1 and out == ''
    assert err.splitlines() == ['flatmu: error: %s: %s' % (path, p)
                                for p in problems]


# -- build ----------------------------------------------------------------------

def test_build_is_byte_deterministic(capsys, defs_path):
    one = run(capsys, 'build', '#r(q)', '--defs', defs_path)
    two = run(capsys, 'build', '#r(q)', '--defs', defs_path)
    assert one == two and one[0] == 0


# the connectives of perfbench/workloads.py, and the sha256 of what
# `flatmu build --all` prints for each formula over them
BENCH_DEFS = [
    {'name': 'rf', 'arity': 1, 'body': 'q | <F>x'},
    {'name': 'rb', 'arity': 1, 'body': 'q | <B>x'},
    {'name': 'sf', 'arity': 1, 'body': '[F]x | q'},
    {'name': 'sb', 'arity': 1, 'body': '[B]x | q'},
]


@pytest.mark.parametrize('formula, digest', [
    ('#rf(p)',
     'cb76a958ff495a3a607a6716605056e25fe6a8f529d35a27770abbc1cb0d2036'),
    ('#sb(<F>p)',
     'f8848d8f479a8ead1782aa502e1a12793ff6f47bcb7975de5e6775588659d9bb'),
    ('#rf(p) & #rb(q)',
     '84e3899af5d24f9898517dfc2baf6b870ccceecb99cea1abfdd4fdf6916bd0a8'),
])
def test_build_all_prints_the_pinned_bytes(capsys, tmp_path, formula, digest):
    p = tmp_path / 'defs.json'
    p.write_text(json.dumps(BENCH_DEFS))
    code, out, _ = run(capsys, 'build', '--all', formula, '--defs', str(p))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_build_writes_dot_with_saturation_marks(capsys, tmp_path, defs_path):
    dot = tmp_path / 'n.dot'
    code, _, _ = run(capsys, 'build', '#r(q)', '--defs', defs_path,
                     '--dot', str(dot))
    assert code == 0
    text = dot.read_text()
    assert text.startswith('digraph') and '[FP]' in text


def test_build_under_a_tight_budget_reports_radius(capsys):
    code, out, _ = run(capsys, 'build', '<F>p', '--max-nodes', '1')
    assert code == 2
    assert json.loads(out)['report']['verdict'] == 'radius'


def test_build_stuck_atom_is_reported_not_hidden(capsys, tmp_path):
    body = {'name': 't', 'arity': 1, 'body': 'q | ~(~<F>x | ~<B>x)'}
    p = tmp_path / 'tangle.json'
    p.write_text(json.dumps(body))
    f = parse('#t(q)', connectives_from_json(body))
    ctx = NetworkContext(fl_closure(f))
    fi = ctx.sigma.index_of(f)
    seed = next(a for a in ctx.atoms_by_duty if a >> fi & 1)
    code, out, _ = run(capsys, 'build', '#t(q)', '--defs', str(p),
                       '--atom', str(seed))
    assert code == 2
    rep = json.loads(out)['report']
    assert rep['verdict'] == 'stuck' and 'disjunctive' in rep['detail']


def test_build_rejects_a_non_atom_seed(capsys, defs_path):
    code, _, err = run(capsys, 'build', '#r(q)', '--defs', defs_path,
                       '--atom', '0')
    assert code == 1 and 'atom' in err


def test_build_all_reports_every_candidate_in_atom_order(capsys, defs_path):
    code, out, _ = run(capsys, 'build', 'p', '--all', '--max-rounds', '2')
    assert code == 0
    runs = json.loads(out)['runs']
    assert [r['atom'] for r in runs] == sorted(r['atom'] for r in runs)
    assert len(runs) == 4  # half of the 8 atoms carry p


# -- plumbing --------------------------------------------------------------------

def test_seed_flag_is_rejected_everywhere(capsys):
    for argv in (['sat', 'p', '--seed', '7'],
                 ['build', 'p', '--seed', '0'],
                 ['selftest', '--seed', '1']):
        code, _, err = run(capsys, *argv)
        assert code == 1 and 'reserved' in err


def test_usage_error_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(['closure'])
    assert exc.value.code == 1


def test_missing_file_exits_one(capsys):
    code, _, err = run(capsys, 'check', '/nonexistent.json', '0', 'p')
    assert code == 1 and 'error' in err


def test_selftest_slice_prints_the_table(capsys):
    code, out, _ = run(capsys, 'selftest', '--only', '6')
    assert code == 0
    assert out.splitlines()[-1] == '1/1 checks passed'
    assert '[ok  ]' in out


def test_selftest_mutation_fails_the_axiom_row(capsys):
    code, out, _ = run(capsys, 'selftest', '--only', '2', '--mutate',
                       'corrupt-axiom')
    assert code == 2 and '[FAIL]' in out


def test_module_entry_point_runs():
    got = subprocess.run([sys.executable, '-m', 'flatmu', 'parse', 'p'],
                         capture_output=True, env=child_env())
    assert got.returncode == 0 and got.stdout == b'p\n'

import hashlib
import io
import json
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from flatmu.acceptance import child_env
from flatmu.cli import main
from flatmu.closure import fl_closure
from flatmu.construct import extract_model
from flatmu.network import NetworkContext, network_from_json, validate
from flatmu.semantics import MAX_STATES, KripkeModel, eval_bits
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
    ('closure', '~' * 1200 + 'p'),
], ids=['parse-3000-negations', 'parse-1200-parentheses',
        'closure-1200-negations'])
def test_deep_nesting_is_a_one_line_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert len(err.splitlines()) == 1 and 'nested too deeply' in err
    assert 'Traceback' not in err


def test_the_closure_of_six_hundred_negations_is_listed(capsys):
    # no formula's first hash recurses, so closure nests as deep as parse
    code, out, _ = run(capsys, 'closure', '~' * 600 + 'p')
    assert code == 0
    assert [m for m in out.splitlines() if m.endswith('p')] == [
        '~' * k + 'p' for k in range(600, -1, -1)]


def test_two_hundred_nested_parentheses_parse(capsys):
    code, out, _ = run(capsys, 'parse', '(' * 200 + 'p' + ')' * 200)
    assert code == 0 and out == 'p\n'


def _nested_nabla(depth):
    return 'nablaF{' * depth + 'p' + '}' * depth


@pytest.mark.parametrize('command', ['parse', 'closure'])
def test_a_deep_nabla_is_refused_in_seconds(command):
    # each level prints its component twice: 4**101 characters otherwise
    got = subprocess.run(
        [sys.executable, '-m', 'flatmu', command, _nested_nabla(101)],
        capture_output=True, text=True, env=child_env(), timeout=60)
    assert got.returncode == 1 and got.stdout == ''
    assert len(got.stderr.splitlines()) == 1
    assert got.stderr.startswith('flatmu: error: ')


def test_the_closure_of_a_deep_nabla_meets_the_print_limit():
    got = subprocess.run(
        [sys.executable, '-m', 'flatmu', 'closure', _nested_nabla(101)],
        capture_output=True, text=True, env=child_env(), timeout=60)
    assert (got.returncode, got.stdout, got.stderr) == (
        1, '', 'flatmu: error: output would print more than 1000000 '
        'formula nodes\n')


@pytest.mark.parametrize('command, length, digest', [
    ('parse', 372,
     '5ebfab5af69bdca78fab9206e47065a692fbdbddc1e620c3951b36133a3a7f6e'),
    ('closure', 3466,
     'ba7e768cf22c7ea6c196b696d0cc62c8f9a308b150fddbaa5e2c9cea5f8b6170'),
])
def test_a_shallow_nabla_prints_in_full(capsys, command, length, digest):
    code, out, _ = run(capsys, command, _nested_nabla(5))
    assert code == 0 and len(out) == length
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_a_huge_connective_arity_loads_in_under_a_second(tmp_path):
    # the parameters are read off each variable's name; a set of q1..qN
    # took 0.6 s and 142 MB at arity 10**6, so the child's address space
    # is capped in case that comes back
    defs = tmp_path / 'defs.json'
    defs.write_text(json.dumps([{'name': 'c', 'arity': 10 ** 12,
                                 'body': 'x | q1000000000000 | q7'}]))
    load = ('import sys, time; from flatmu.cli import main; '
            't = time.perf_counter(); code = main(sys.argv[1:]); '
            'print(time.perf_counter() - t); sys.exit(code)')
    got = subprocess.run(
        [sys.executable, '-c', load, 'parse', 'p', '--defs', str(defs)],
        capture_output=True, text=True, env=child_env(), timeout=60,
        preexec_fn=lambda: resource.setrlimit(
            resource.RLIMIT_AS, (1 << 30, 1 << 30)))
    assert got.returncode == 0 and got.stderr == ''
    printed, seconds = got.stdout.splitlines()
    assert printed == 'p' and float(seconds) < 1


@pytest.mark.parametrize('arity, tail', [(0, ''), (1, ', q')])
def test_a_deep_nabla_connective_body_is_read_in_seconds(tmp_path, arity,
                                                         tail):
    # each level's expansion holds the one below twice, so reading the
    # body as a tree took 15.7 s at 18 levels (arity 0), and 4.4 s to
    # parse and 9.0 s to close at 14 levels (arity 1)
    body = 'x'
    for _ in range(40):
        body = 'nablaF{%s%s}' % (body, tail)
    defs = tmp_path / 'defs.json'
    defs.write_text(json.dumps([{'name': 'c', 'arity': arity, 'body': body}]))

    def flatmu(*argv):
        return subprocess.run(
            [sys.executable, '-m', 'flatmu', *argv, '--defs', str(defs)],
            capture_output=True, text=True, env=child_env(), timeout=60)

    got = flatmu('parse', 'p')
    assert got.returncode == 0 and got.stdout == 'p\n'
    got = flatmu('closure', '#c(p)' if arity else '#c()')
    assert got.returncode == 1 and got.stdout == ''
    assert got.stderr == ('flatmu: error: output would print more than '
                          '1000000 formula nodes\n')


def test_atoms_within_the_free_bit_limit_are_counted(capsys):
    code, out, _ = run(capsys, 'atoms', '--count', _nested_nabla(5))
    assert code == 0 and out == '8192\n'


@pytest.mark.parametrize('argv', [['atoms', '--count'], ['atoms'], ['build']])
def test_atoms_beyond_the_free_bit_limit_are_refused_in_seconds(argv):
    # 20 nested nablas leave 43 free bits: 2^43 candidates otherwise
    got = subprocess.run(
        [sys.executable, '-m', 'flatmu', *argv, _nested_nabla(20)],
        capture_output=True, text=True, env=child_env(), timeout=60)
    assert got.returncode == 1 and got.stdout == ''
    assert got.stderr == (
        'flatmu: error: the closure has 43 free atom bits (letters, '
        'diamonds and # formulas); atoms are enumerated for at most 20\n')


def test_output_over_the_print_limit_is_refused(capsys):
    # 14 levels print 1,473,760 closure nodes but a 196,596-byte formula
    code, out, err = run(capsys, 'closure', _nested_nabla(14))
    assert code == 1 and out == ''
    assert err == ('flatmu: error: output would print more than 1000000 '
                   'formula nodes\n')
    code, out, _ = run(capsys, 'parse', _nested_nabla(14))
    assert code == 0 and len(out) == 196596


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


@pytest.mark.parametrize('states', [MAX_STATES + 1, 2 ** 40])
def test_check_refuses_too_many_states_before_building_a_model(
        capsys, tmp_path, monkeypatch, states):
    def build(*args):
        raise AssertionError('a model was built')

    monkeypatch.setattr(KripkeModel, '__init__', build)
    path = tmp_path / 'huge.json'
    path.write_text(json.dumps({'states': states, 'edges': [[0, 1]]}))
    code, out, err = run(capsys, 'check', str(path), '0', 'p')
    assert code == 1 and out == ''
    assert err == 'flatmu: error: %s: states must be at most %d, not %d\n' \
        % (path, MAX_STATES, states)


def test_check_accepts_a_model_at_the_state_limit(capsys, tmp_path):
    last = MAX_STATES - 1
    path = tmp_path / 'large.json'
    path.write_text(json.dumps({'states': MAX_STATES, 'edges': [[0, last]],
                                'valuation': {'p': [last]}}))
    code, out, _ = run(capsys, 'check', str(path), '0', '<F>p')
    assert code == 0 and out == 'true\n'


def test_sat_reports_none_for_bottom(capsys):
    code, out, _ = run(capsys, 'sat', '_|_', '--max-states', '3')
    assert code == 2 and out == 'none\n'


@pytest.mark.parametrize('bound', ['0', '-1'])
def test_sat_refuses_a_bound_below_one_state(capsys, bound):
    code, out, err = run(capsys, 'sat', 'p', '--max-states', bound)
    assert code == 1 and out == ''
    assert err == 'flatmu: error: --max-states must be at least 1, not %s\n' \
        % bound


@pytest.mark.parametrize('bound, frames', [('5', 25), ('6', 36)])
def test_sat_refuses_a_bound_beyond_four_states(capsys, bound, frames):
    code, out, err = run(capsys, 'sat', '_|_', '--max-states', bound)
    assert code == 1 and out == ''
    assert err == ('flatmu: error: --max-states must be at most 4, not %s: '
                   '%s states have 2^%d frames\n' % (bound, bound, frames))


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


@pytest.mark.parametrize('edit, problems', [
    ({'arity': 1.7}, ['arity of connective "r" must be an integer >= 0, '
                      'not 1.7']),
    ({'arity': '1'}, ['arity of connective "r" must be an integer >= 0, '
                      'not "1"']),
    ({'arity': True}, ['arity of connective "r" must be an integer >= 0, '
                       'not true']),
    ({'arity': -1}, ['arity of connective "r" must be an integer >= 0, '
                     'not -1']),
    ({'extra': 0}, ['connective {"name": "r", "arity": 1, "body": '
                    '"q | <F>x", "extra": 0} must hold exactly a name, an '
                    'arity and a body']),
    ({'body': 5}, ['body of connective "r" is not a string']),
    ({'name': ['r']}, ['connective name ["r"] is not a string']),
])
def test_parse_refuses_a_malformed_connective_file_line_by_line(
        capsys, tmp_path, edit, problems):
    path = tmp_path / 'bad.json'
    path.write_text(json.dumps([{**DEFS[0], **edit}]))
    code, out, err = run(capsys, 'parse', '#r(p)', '--defs', str(path))
    assert code == 1 and out == ''
    assert err.splitlines() == ['flatmu: error: %s: %s' % (path, p)
                                for p in problems]


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


# the connectives of perfbench/workloads.py and two full expansions, and
# the sha256 of what `flatmu build --all` prints for each formula over them
BENCH_DEFS = [
    {'name': 'rf', 'arity': 1, 'body': 'q | <F>x'},
    {'name': 'rb', 'arity': 1, 'body': 'q | <B>x'},
    {'name': 'sf', 'arity': 1, 'body': '[F]x | q'},
    {'name': 'sb', 'arity': 1, 'body': '[B]x | q'},
    {'name': 'nf', 'arity': 2, 'body': 'q1 | nablaF{x, q2}'},
    {'name': 'nb', 'arity': 2, 'body': 'q1 | nablaB{x, ~q2}'},
]
DEEP_GRAFT = '#sf(#rb(#sf(q)))'
DEEP_GRAFT_DIGEST = \
    '7bdf2aff39e8695ab6bf86929d14a0c215432d6c9a53c22c31328cfdffd59261'


BUILD_PINS = [
    ('#rf(p)',
     'cb76a958ff495a3a607a6716605056e25fe6a8f529d35a27770abbc1cb0d2036'),
    ('#sb(<F>p)',
     'f8848d8f479a8ead1782aa502e1a12793ff6f47bcb7975de5e6775588659d9bb'),
    ('#rf(p) & #rb(q)',
     '84e3899af5d24f9898517dfc2baf6b870ccceecb99cea1abfdd4fdf6916bd0a8'),
    # a graft that would pass the node budget below an amalgam already
    # over it
    ('#rf(#sb(p)) & #rb(#sf(q))',
     'c6fd26450cdeb05f861430320ad851781f4f7d2cd30b817daab8843cf3728735'),
    (DEEP_GRAFT, DEEP_GRAFT_DIGEST),
    # family copies padded with a free component where the atom holds
    # one, and with x's finishing tree where it does not
    ('#nf(p, ~p)',
     'e6d1e15b634d7e0d86ac06184eadbe163c9379d6c8361489214287cec8e1e3f6'),
    ('#nb(~p, ~p)',
     '5a4634fb9e4adb343490629ef445034cde07782b0b0718dd5ca02707fa7f0e12'),
]


@pytest.mark.parametrize('formula, digest', BUILD_PINS)
def test_build_all_prints_the_pinned_bytes(capsys, tmp_path, formula, digest):
    p = tmp_path / 'defs.json'
    p.write_text(json.dumps(BENCH_DEFS))
    code, out, _ = run(capsys, 'build', '--all', formula, '--defs', str(p))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_a_deep_graft_template_builds_in_seconds(tmp_path):
    # the template's family copies share subtrees: read as a tree it has
    # millions of nodes at this depth, against a 200-node budget
    p = tmp_path / 'defs.json'
    p.write_text(json.dumps(BENCH_DEFS))
    got = subprocess.run(
        [sys.executable, '-m', 'flatmu', 'build', '--all', DEEP_GRAFT,
         '--defs', str(p), '--max-depth', '8'],
        capture_output=True, text=True, env=child_env(), timeout=60)
    assert got.returncode == 0
    assert hashlib.sha256(got.stdout.encode()).hexdigest() == \
        DEEP_GRAFT_DIGEST


def test_build_writes_dot_with_saturation_marks(capsys, tmp_path, defs_path):
    dot = tmp_path / 'n.dot'
    code, _, _ = run(capsys, 'build', '#r(q)', '--defs', defs_path,
                     '--dot', str(dot))
    assert code == 0
    text = dot.read_text()
    assert text.startswith('digraph') and '[FP]' in text


@pytest.mark.parametrize('where', ['directory', 'missing-directory'])
def test_build_dot_to_an_unwritable_path_is_a_one_line_error(capsys, tmp_path,
                                                             where):
    dot = tmp_path if where == 'directory' else tmp_path / 'no' / 'n.dot'
    code, out, err = run(capsys, 'build', 'p', '--dot', str(dot))
    assert code == 1 and json.loads(out)['report']['verdict'] == 'perfect'
    assert len(err.splitlines()) == 1
    assert err.startswith('flatmu: error: ') and str(dot) in err


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


def test_build_over_an_unguarded_connective_ends_in_verdicts(tmp_path):
    # x | q1 puts x outside every modality, so finishing the deferral
    # meets itself at the same node
    defs = [{'name': 'u', 'arity': 1, 'body': 'x | q1'}]
    p = tmp_path / 'defs.json'
    p.write_text(json.dumps(defs))
    got = subprocess.run(
        [sys.executable, '-m', 'flatmu', 'build', '#u(p)', '--defs', str(p),
         '--all'], capture_output=True, text=True, env=child_env(),
        timeout=60)
    assert (got.returncode, got.stderr) == (0, '')
    runs = json.loads(got.stdout)['runs']
    verdicts = [r['report']['verdict'] for r in runs]
    assert verdicts.count('perfect') == 4 and verdicts.count('stuck') == 4
    f = parse('#u(p)', connectives_from_json(defs))
    for r in runs:
        if r['report']['verdict'] == 'perfect':
            n = network_from_json(r['report']['network'])
            assert validate(n) == []
            assert eval_bits(f, extract_model(n)) & 1


@pytest.mark.parametrize('depth, code', [('100', 2), ('1000', 1)])
def test_a_finishing_search_too_deep_to_recurse_names_max_depth(
        capsys, tmp_path, depth, code):
    # _|_ never holds, so the search for a tree finishing #rf(_|_) goes
    # down to the bottom of --max-depth, some frames per diamond
    p = tmp_path / 'defs.json'
    p.write_text(json.dumps(BENCH_DEFS))
    got, _, err = run(capsys, 'build', '#rf(_|_)', '--defs', str(p),
                      '--max-depth', depth)
    assert got == code
    if code == 1:
        assert len(err.splitlines()) == 1 and '--max-depth 1000' in err
        assert 'Traceback' not in err


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


def test_building_and_model_checking_leave_numpy_unloaded():
    probe = '\n'.join([
        'import sys',
        'from flatmu import acceptance, construct, network, semantics',
        'from flatmu.closure import fl_closure',
        'from flatmu.syntax import FixpointConnective, Sharp, Var, parse',
        "chi = FixpointConnective('r', 1, parse('q | <F>x', {}))",
        "f = Sharp(chi, (Var('p'),))",
        'ctx = network.NetworkContext(fl_closure(f))',
        'seed = next(a for a in ctx.atoms_by_duty',
        '            if a >> ctx.sigma.index_of(f) & 1)',
        "assert construct.build(ctx, seed).verdict == 'perfect'",
        "m = semantics.KripkeModel(2, [(0, 1)], {'p': [1]})",
        'assert semantics.eval_bits(f, m) == 0b11',
        "print('numpy' in sys.modules)"])
    got = subprocess.run([sys.executable, '-c', probe], capture_output=True,
                         text=True, env=child_env())
    assert got.returncode == 0, got.stderr
    assert got.stdout == 'False\n'


@pytest.mark.parametrize('argv, code', [
    (['sat', 'p & q & ~p', '--max-states', '4'], 2),
    (['sat', 'p & <F>~p', '--max-states', '4'], 0),
    (['selftest', '--only', '4'], 0),
])
def test_lanes_leave_numpy_unloaded(argv, code):
    probe = ('import sys; from flatmu.cli import main; code = main(%r); '
             "print(code, 'numpy' in sys.modules)" % (argv,))
    got = subprocess.run([sys.executable, '-c', probe], capture_output=True,
                         text=True, env=child_env(), timeout=300)
    assert got.returncode == 0, got.stderr
    assert got.stdout.splitlines()[-1] == '%d False' % code


def test_importing_the_cli_leaves_numpy_and_the_selftest_unloaded():
    probe = ("import sys, flatmu.cli; "
             "print('numpy' in sys.modules, 'flatmu.acceptance' in sys.modules)")
    got = subprocess.run([sys.executable, '-c', probe], capture_output=True,
                         text=True, env=child_env())
    assert got.returncode == 0, got.stderr
    assert got.stdout == 'False False\n'


# -- fuzzing -------------------------------------------------------------------

_SEED_FORMULAS = ('p', '~<F>q | [B]p', '#r(p) & <B>q', 'nablaF{p, ~q}',
                  '(p -> q) <-> #r(_|_)', 'nablaB{} & #r(~#r(q))')
_SEED_MODEL = {'states': 3, 'edges': [[0, 1], [1, 2], [2, 0]],
               'valuation': {'p': [1], 'q': [0, 2]}}
_SYMBOLS = '()|&~,{}<>[]-#FBnablapqrx_01 '
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2 ** 40)
    | st.floats(allow_nan=False) | st.text('pqrx#<>F()|~', max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(['id', 'atom', 'name', 'p']), inner,
                      max_size=2),
    max_leaves=5)


@st.composite
def _mutated_text(draw, text):
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        i = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 1))
        text = text[:i] + draw(st.sampled_from(_SYMBOLS)) + text[i + cut:]
    return text


def _slots(doc):
    """Every (container, key) pair inside a decoded JSON value."""
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    out = []
    for key, value in items:
        out.append((doc, key))
        out.extend(_slots(value))
    return out


@st.composite
def _mutated_file(draw, doc):
    """The JSON text of doc after a few of its slots are replaced, deleted
    or edited as text, sometimes cut short."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        slots = _slots(doc)
        if not slots:
            break
        holder, key = draw(st.sampled_from(slots))
        how = draw(st.sampled_from(['replace', 'delete', 'text']))
        if how == 'delete':
            del holder[key]
        elif how == 'text' and isinstance(holder[key], str):
            holder[key] = draw(_mutated_text(holder[key]))
        else:
            holder[key] = draw(_JSON_VALUES)
    text = json.dumps(doc)
    return text[:draw(st.sampled_from([len(text)] * 7 + [len(text) // 2]))]


def _fuzz_argv(tmp):
    formula = st.sampled_from(_SEED_FORMULAS).flatmap(_mutated_text)
    defs = ['--defs', str(tmp / 'defs.json')]
    budget = ['--max-nodes', '12', '--max-depth', '2', '--max-rounds', '2']
    dots = [str(tmp / 'n.dot')] * 2 + [str(tmp), str(tmp / 'no' / 'n.dot')]
    return st.one_of(
        st.tuples(st.sampled_from(['parse', 'closure']), formula).map(
            lambda t: [*t, *defs]),
        st.tuples(st.sampled_from(['0', '2', '7']), formula).map(
            lambda t: ['check', str(tmp / 'model.json'), *t, *defs]),
        st.tuples(st.sampled_from(['1', '2']), formula).map(
            lambda t: ['sat', t[1], '--max-states', t[0], *defs]),
        st.sampled_from(['validate', 'defects', 'timeouts']).map(
            lambda q: ['net', q, str(tmp / 'network.json')]),
        st.tuples(formula, st.sampled_from(dots)).map(
            lambda t: ['build', t[0], *budget, '--dot', t[1], *defs]),
    )


def test_cli_never_prints_a_traceback_on_mutated_input(tmp_path,
                                                     network_path):
    seeds = (('defs.json', DEFS), ('model.json', _SEED_MODEL),
             ('network.json', json.load(open(network_path))))

    @given(st.data())
    @settings(max_examples=150, deadline=None, database=None)
    def one_run(data):
        for name, seed in seeds:
            (tmp_path / name).write_text(data.draw(_mutated_file(seed)))
        argv = data.draw(_fuzz_argv(tmp_path))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage error
                code = exc.code
                assert code == 1
        assert code in (0, 1, 2), argv
        assert 'Traceback' not in err.getvalue()
        assert all(line.startswith(('flatmu', 'usage:', ' '))
                   for line in err.getvalue().splitlines()), argv

    one_run()

"""flatmu benchmark: one workload, measured end to end or layer by layer.

    python3 perfbench/run.py --workload build --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package under test is the checkout's
src/flatmu. Each workload runs in fresh single-threaded child processes,
one at a time, in a closed loop (one client; each operation starts when
the previous one returns). With --trace 0 the end-to-end metrics are
measured: set-up time is the median over SETUP_SAMPLES fresh processes,
the rest come from one child that repeats its round of operations until
--seconds have passed. With --trace 1 one round runs untraced and once
more with spans around every layer, and the per-layer metrics come from
the traced round; their difference is the tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The line before it ("facts {...}") holds
unchecked facts about the machine, the code and the run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import child

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ('build', 'modelcheck', 'sat', 'sweep')
SETUP_SAMPLES = 5
RUN_DEADLINE_S = 170

END_TO_END = {
    'setup_s': 's',
    'ops_per_s': '1/s',
    'op_p50_s': 's',
    'op_tail_s': 's',
    'peak_rss_mb': 'MB',
}

PER_LAYER = {
    'cli.import_s': 's',
    'cli.modules_loaded': 'count',
    'syntax.parse_s': 's',
    'syntax.parse_calls': 'count',
    'closure.fl_closure_s': 's',
    'closure.size': 'count',
    'closure.enumerate_atoms_s': 's',
    'closure.atoms': 'count',
    'network.viability_s': 's',
    'network.viable_atoms': 'count',
    'network.compute_timeouts_s': 's',
    'network.compute_timeouts_calls': 'count',
    'network.find_defects_s': 's',
    'network.find_defects_calls': 'count',
    'network.amalgamate_s': 's',
    'network.amalgamate_calls': 'count',
    'network.containment_s': 's',
    'network.containment_calls': 'count',
    'network.is_anticonfluent_s': 's',
    'network.is_anticonfluent_calls': 'count',
    'network.networks_built': 'count',
    'construct.repair_all_s': 's',
    'construct.repair_rounds': 'count',
    'construct.finish_deferral_s': 's',
    'construct.finish_deferral_calls': 'count',
    'construct.saturate_self_s': 's',
    'construct.nodes_final': 'count',
    'construct.verdict_perfect': 'count',
    'construct.verdict_radius': 'count',
    'construct.verdict_stuck': 'count',
    'semantics.eval_bits_s': 's',
    'semantics.eval_bits_calls': 'count',
    'semantics.model_init_s': 's',
    'semantics.model_init_calls': 'count',
    'semantics.brute_force_sat_self_s': 's',
    'semantics.models_per_query': 'count',
    'acceptance.row_s': 's',
    'acceptance.scalar_eval_s': 's',
    'acceptance.scalar_eval_calls': 'count',
    'acceptance.vector_self_s': 's',
    'trace.overhead_share': 'share',
}


class ChildFailed(Exception):
    pass


def child_env(src, seed):
    """The environment of a workload child.

    PYTHONPATH holds only the absolute path of the package under test, so
    the child imports it wherever it runs; the hash seed follows the
    workload seed, so string hashing differs from run to run and the
    expected outputs are checked under many hash seeds.
    """
    env = dict(os.environ)
    env['PYTHONPATH'] = src
    env['PYTHONHASHSEED'] = str(seed % 4294967296)
    return env


def spawn(args, mode, src, deadline, spans=None, hash_seed=None):
    """Run one child to its end.

    Returns (setup seconds, setup seconds scaled by the calibration the
    child took right after set-up or None, result or None).
    """
    cmd = [sys.executable, os.path.join(HERE, 'child.py'),
           '--workload', args.workload, '--seed', str(args.seed),
           '--seconds', str(args.seconds), '--mode', mode, '--src', src]
    if spans:
        cmd += ['--spans', spans]
    env = child_env(src, args.seed if hash_seed is None else hash_seed)
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed('%s child of %s ran past the deadline'
                          % (mode, args.workload))
    lines = [json.loads(line) for line in out.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines or 'ready' not in lines[0]:
        raise ChildFailed('%s child of %s exited with %s'
                          % (mode, args.workload, proc.returncode))
    ready = lines[0]
    setup_s = ready['ready'] - started - ready.get('sampling_s', 0.0)
    scaled = None
    if 'setup_reference' in ready:
        scaled = (setup_s * child.CALIBRATION_NOMINAL_S
                  / ready['setup_reference'])
    if mode == 'setup':
        return setup_s, scaled, None
    if len(lines) != 2:
        raise ChildFailed('%s child of %s printed no result'
                          % (mode, args.workload))
    return setup_s, scaled, lines[1]


def tail(op_times):
    """(percentile, value, samples beyond it) over one round's times.

    The highest whole percentile with at least ten samples beyond it; with
    ten operations or fewer in a round there is no tail and the maximum is
    reported as percentile 100.
    """
    n = len(op_times)
    pct = 100 if n <= 10 else math.floor(100 * (1 - 10 / n))
    ranked = sorted(op_times)
    index = max(0, math.ceil(pct / 100 * len(ranked)) - 1)
    return pct, ranked[index], len(ranked) - index - 1


def metric(value, unit):
    return {'value': value, 'unit': unit}


def end_to_end(args, src, deadline, facts):
    setups = [spawn(args, 'setup', src, deadline)[:2]
              for _ in range(SETUP_SAMPLES - 1)]
    setup_s, scaled, res = spawn(args, 'run', src, deadline)
    setups.append((setup_s, scaled))
    d = res['op_times']
    pct, tail_s, beyond = tail(d)
    values = {
        'setup_s': statistics.median(s for _, s in setups),
        'ops_per_s': len(d) / sum(d),
        'op_p50_s': statistics.median(d),
        'op_tail_s': tail_s,
        'peak_rss_mb': res['peak_rss_mb'],
    }
    facts.update({
        'setup_samples_s': [s for s, _ in setups],
        'setup_samples_scaled_s': [s for _, s in setups],
        'tail_percentile': pct,
        'tail_samples_beyond': beyond,
        'operations': res['attempted'],
        'rounds': res['rounds'],
        'speed_factor': res['speed_factor'],
        'timed_unscaled_s': res['timed'],
        'failed_share': res['failed'] / res['attempted'],
        'problems': res['problems'],
        'numpy': res['numpy'],
        'flatmu': res['flatmu'],
        'workload_facts': res['facts'],
    })
    metrics = {name: metric(values[name], unit)
               for name, unit in END_TO_END.items()}
    return res['attempted'], res['failed'], metrics


def per_layer(args, src, deadline, facts):
    _, _, base = spawn(args, 'round', src, deadline)
    out_dir = os.path.join(os.getcwd(), '.perfbench-out')
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, '%s-%d-spans.jsonl'
                         % (args.workload, args.seed))
    _, _, traced = spawn(args, 'trace', src, deadline, spans=spans)
    values = dict(traced['layers'])
    values['trace.overhead_share'] = traced['timed'] / base['timed'] - 1
    facts.update({
        'untraced_round_s': base['timed'],
        'traced_round_s': traced['timed'],
        'spans_file': os.path.relpath(spans),
        'problems': base['problems'] + traced['problems'],
        'numpy': traced['numpy'],
        'flatmu': traced['flatmu'],
    })
    metrics = {name: metric(values[name], unit)
               for name, unit in PER_LAYER.items()}
    return (base['attempted'] + traced['attempted'],
            base['failed'] + traced['failed'], metrics)


def _commit(root):
    try:
        out = subprocess.run(['git', 'rev-parse', 'HEAD'], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return 'unknown'
    return out.stdout.strip() if out.returncode == 0 else 'unknown'


def machine_facts(root, src):
    lines = 0
    for dirpath, _, files in os.walk(os.path.join(src, 'flatmu')):
        for name in files:
            if name.endswith('.py'):
                with open(os.path.join(dirpath, name)) as fh:
                    lines += sum(1 for _ in fh)
    return {
        'nproc': os.cpu_count(),
        'python': sys.version.split()[0],
        'loadavg_start': os.getloadavg(),
        'commit': _commit(root),
        'src_lines': lines,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument('--workload', required=True, choices=WORKLOADS)
    p.add_argument('--seed', type=int, required=True)
    p.add_argument('--seconds', type=float, default=10.0)
    p.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    root = os.getcwd()
    src = os.path.join(root, 'src')
    if not os.path.isfile(os.path.join(src, 'flatmu', '__init__.py')):
        print('perfbench: no src/flatmu under %s; run from the root of a '
              'checkout' % root, file=sys.stderr)
        return 2
    facts = machine_facts(root, src)
    facts.update({'workload': args.workload, 'seed': args.seed,
                  'hash_seed': args.seed % 4294967296})
    measure = per_layer if args.trace else end_to_end
    try:
        attempted, failed, metrics = measure(args, src, deadline, facts)
    except ChildFailed as exc:
        print('perfbench: %s' % exc, file=sys.stderr)
        return 1
    print('facts ' + json.dumps(facts, sort_keys=True))
    print(json.dumps({'correct': failed == 0, 'attempted': attempted,
                      'failed': failed, 'metrics': metrics}))
    return 0


if __name__ == '__main__':
    sys.exit(main())

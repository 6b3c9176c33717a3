"""Correctness pass over every recorded input, under two hash seeds.

    python3 perfbench/verify.py            # compare with expected.json
    python3 perfbench/verify.py --write    # rewrite expected.json

Runs every build pair of the corpus, the whole sat query universe and
selftest row 4 once in fresh children under PYTHONHASHSEED 0 and 1. The
two passes must produce identical entries (build report hashes, sat
verdicts and witness hashes, the row-4 detail string), and, unless
--write is given, those entries must match perfbench/expected.json.
Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from types import SimpleNamespace

import run

RECORDED = ('build', 'sat', 'sweep')
HASH_SEEDS = (0, 1)
DEADLINE_S = 900


def record(hash_seed, src):
    entries, failed, problems = {}, 0, []
    for name in RECORDED:
        args = SimpleNamespace(workload=name, seed=0, seconds=0)
        deadline = time.monotonic() + DEADLINE_S
        _, _, res = run.spawn(args, 'record', src, deadline,
                              hash_seed=hash_seed)
        entries.update(res['record'])
        failed += res['failed']
        problems += res['problems']
        print('hash seed %d  %-6s %4d operations  %d failed  %.1f s'
              % (hash_seed, name, res['attempted'], res['failed'],
                 res['timed']), flush=True)
    return entries, failed, problems


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument('--write', action='store_true',
                   help='rewrite expected.json from this pass')
    args = p.parse_args(argv)
    src = os.path.join(os.getcwd(), 'src')
    passes = [record(h, src) for h in HASH_SEEDS]
    first = passes[0][0]
    if any(entries != first for entries, _, _ in passes[1:]):
        print('outputs differ between hash seeds', file=sys.stderr)
        return 1
    if args.write:
        with open(os.path.join(run.HERE, 'expected.json'), 'w') as fh:
            json.dump(first, fh, indent=1, sort_keys=True)
            fh.write('\n')
        print('wrote expected.json: %d build formulas, %d sat queries'
              % (len(first.get('build', {})), len(first.get('sat', {}))))
        return 0
    failed = sum(f for _, f, _ in passes)
    for line in passes[0][2] + passes[1][2]:
        print(line, file=sys.stderr)
    print('identical under hash seeds %s; %d answers differ from '
          'expected.json' % (HASH_SEEDS, failed))
    return 0 if failed == 0 else 1


if __name__ == '__main__':
    sys.exit(main())

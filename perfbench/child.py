"""One workload in one fresh process: import, set up, measure, check.

Started by run.py (and verify.py) with PYTHONPATH set to the absolute
path of the package under test. Prints one JSON line as soon as set-up is
done ({"ready": <time.monotonic()>}, in the setup and run modes also with
the time spent on calibration samples during set-up and their mean,
"sampling_s" and "setup_reference") and, unless the mode is "setup", one
JSON line with the measurements when it ends.

Modes:
  setup   import and set up, then exit
  run     repeat the round of operations until --seconds have passed
  round   run the round once
  trace   run the round once with spans around every layer
  record  run the whole input universe once and report the entries of
          the expected-outputs file
"""

from __future__ import annotations

import argparse
import array
import bisect
import gc
import json
import os
import resource
import statistics
import sys
import signal
import time
from contextlib import contextmanager, nullcontext

# On a shared host (measured: 2 vCPUs) the speed a process gets swings by
# half or more in spells of seconds to tens of seconds. A measuring child
# therefore also times calibration_chunk, a fixed mix of the work flatmu
# does, once for every CALIBRATION_EVERY_S of operation time, and scales
# each operation's time by CALIBRATION_NOMINAL_S over the harmonic mean of
# the samples taken within CALIBRATION_WINDOW_S of it (at least
# CALIBRATION_LOCAL_MIN of the nearest).
#
# Samples are taken between operations (at most CALIBRATION_MAX after
# one), and from a timer signal inside an operation that runs past
# CALIBRATION_LONG_S, whose time then leaves the samples out. Set-up is
# sampled from the timer signal every CALIBRATION_EVERY_S: a fresh process
# on that host often speeds up by a third after its first tenth of a
# second, so samples taken after set-up do not tell how fast it ran.
#
# Why, as measured on that host: in one-second windows of build operations
# the interquartile spread of operation time over chunk time was 4 %,
# against 16 % over a pure-Python arithmetic loop and 44 % unscaled.
# Samples are spread evenly over time, so their harmonic mean weighs each
# spell of speed by its length, where a median takes the speed of the
# longest spell for the whole of a long operation; a slow sample (the
# process was interrupted) barely moves it. Each burst of samples starts
# with one unrecorded chunk: an operation pushes the chunk's data out of
# the caches, and a cold chunk ran up to a fifth slower than a warm one.
CALIBRATION_EVERY_S = 0.02
CALIBRATION_MAX = 20
CALIBRATION_NOMINAL_S = 0.0012
CALIBRATION_LONG_S = 1.0
CALIBRATION_WINDOW_S = 0.25
CALIBRATION_LOCAL_MIN = 9


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument('--workload', required=True)
    p.add_argument('--seed', type=int, default=0)
    p.add_argument('--seconds', type=float, default=10.0)
    p.add_argument('--mode', default='run',
                   choices=('setup', 'run', 'round', 'trace', 'record'))
    p.add_argument('--src', required=True,
                   help='absolute path of the directory holding flatmu')
    p.add_argument('--spans', default=None,
                   help='file the trace mode writes its spans to')
    return p.parse_args(argv)


def calibration_chunk():
    """Fixed interpreter work of the kinds flatmu does, about a millisecond.

    Everything it allocates is freed by reference counting; the caller
    turns the collector off around it, so its time does not depend on the
    size of the heap.
    """
    acc = 0
    groups = {}
    for i in range(700):
        key = (i % 97, i % 13)
        members = groups.get(key)
        if members is None:
            members = groups[key] = set()
        members.add(frozenset((i & 31, i % 7)))
        acc += len(members)
    pairs = [((i * 2654435761) & 1023, i) for i in range(1000)]
    pairs.sort()
    for a, _ in pairs[::3]:
        acc += a * a % 7
    return acc


class Speedometer:
    """Times a calibration chunk in proportion to operation time.

    Wrap each operation in `with meter.during():`, then call
    meter.after(took) with its time less meter.inside, the time spent
    sampling during it. scale(start, end, took) is took in nominal
    seconds: took times the nominal sample time over the harmonic mean of
    the samples taken around [start, end].
    """

    def __init__(self, chunk=calibration_chunk,
                 nominal=CALIBRATION_NOMINAL_S, clock=time.perf_counter):
        self.chunk = chunk
        self.nominal = nominal
        self.clock = clock
        self.stamps = []
        self.samples = []
        self.owed = 0.0
        self.inside = 0.0

    def _chunk(self):
        """One calibration_chunk with the collector off; its start and
        duration."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = self.clock()
            self.chunk()
            return start, self.clock() - start
        finally:
            if enabled:
                gc.enable()

    def _burst(self, count):
        """count samples after one unrecorded chunk, which brings the
        chunk's data back into the caches the operation pushed it out of;
        returns the time taken."""
        start = self.clock()
        self._chunk()
        for _ in range(count):
            stamp, took = self._chunk()
            self.stamps.append(stamp)
            self.samples.append(took)
        return self.clock() - start

    def _tick(self, signum, frame):
        self.inside += self._burst(1)

    @contextmanager
    def during(self, first=CALIBRATION_LONG_S,
               every=CALIBRATION_EVERY_S * 5):
        """Sample from the timer signal, after first and then every."""
        self.inside = 0.0
        old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, first, every)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def after(self, took):
        if self.inside:
            return
        self.owed += took
        count = min(CALIBRATION_MAX, int(self.owed / CALIBRATION_EVERY_S))
        self.owed = max(0.0, self.owed - count * CALIBRATION_EVERY_S)
        if count:
            self._burst(count)

    def reference(self, start, end):
        """The harmonic mean of the samples within the window of
        [start, end]."""
        n = len(self.samples)
        if not n:
            return self.nominal
        lo = bisect.bisect_left(self.stamps, start - CALIBRATION_WINDOW_S)
        hi = bisect.bisect_right(self.stamps, end + CALIBRATION_WINDOW_S)
        if hi - lo < CALIBRATION_LOCAL_MIN:
            mid = bisect.bisect_left(self.stamps, (start + end) / 2)
            hi = min(n, max(hi, mid + (CALIBRATION_LOCAL_MIN + 1) // 2))
            lo = max(0, min(lo, hi - CALIBRATION_LOCAL_MIN))
            hi = min(n, max(hi, lo + CALIBRATION_LOCAL_MIN))
        return statistics.harmonic_mean(self.samples[lo:hi])

    def scale(self, start, end, took):
        return took * self.nominal / self.reference(start, end)

    def mean(self):
        """The harmonic mean sample; the nominal time without samples."""
        if not self.samples:
            return self.nominal
        return statistics.harmonic_mean(self.samples)

    def factor(self):
        """Nominal over mean sample time."""
        return self.nominal / self.mean()


def measure(batch, seconds, one_round, raised, quiet=nullcontext,
            meter=None):
    """Closed loop over the round until seconds of operations have passed.

    Only the operations are timed. Each answer of the first round is
    checked right after it returns, and every later round must give the
    same answers; quiet() surrounds that work. Rounds are never cut
    short, so every run sees the same mix; batch.order(round) gives the
    order of each. The meter, if any, is told each operation's time.

    Returns (times, stamps, rounds, failed, problems, summary): each
    operation's times by round, when each of them started and when it
    ended (two arrays by round, filled with a meter only), the number of
    rounds, the failed operation count, the first messages and the batch
    summary.
    """
    clock = time.perf_counter
    # flat arrays, so the record of a long run does not show in the peak
    # resident memory of the child
    times = [array.array('d') for _ in batch.items]
    starts = [array.array('d') for _ in batch.items]
    ends = [array.array('d') for _ in batch.items]
    first, wrong, changed = {}, {}, []
    timed, rounds = 0.0, 0
    while True:
        for i in batch.order(rounds):
            with meter.during() if meter else nullcontext():
                start = clock()
                try:
                    answer = batch.run(batch.items[i])
                except Exception as exc:  # counted as a failed operation
                    answer = raised(exc)
                took = clock() - start
            if meter is not None:
                starts[i].append(start)
                ends[i].append(start + took + meter.inside)
                took -= meter.inside
                meter.after(took)
            times[i].append(took)
            timed += took
            with quiet():
                if rounds == 0:
                    first[i] = batch.digest(answer)
                    problem = batch.check(i, answer)
                    if problem is not None:
                        wrong[i] = problem
                elif batch.digest(answer) != first[i] and i not in wrong:
                    changed.append('operation %d answered differently in '
                                   'round %d' % (i, rounds + 1))
            del answer
        rounds += 1
        if one_round or timed >= seconds:
            break
    with quiet():
        summary = batch.summary()
    for i, problem in summary.get('wrong', {}).items():
        wrong.setdefault(i, problem)
    failed = len(wrong) * rounds + len(changed)
    return times, list(zip(starts, ends)), rounds, failed, \
        (list(wrong.values()) + changed)[:5], summary


def layer_metrics(tracer, facts, import_s, modules_loaded):
    """The per-layer figures of a traced round, by metric name."""
    import tracing

    spans = tracer.spans
    tot = tracing.totals(spans)

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0))[0]

    def secs(name):
        return tot.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return tot.get(name, (0, 0.0, 0.0))[2]

    scalar_calls, scalar_s = tracing.under(
        spans, 'semantics.eval_bits', 'acceptance.row')
    sat_models = tracing.under(
        spans, 'semantics.model_init', 'semantics.brute_force_sat')[0]
    queries = calls('semantics.brute_force_sat')
    verdicts = facts.get('verdicts', {})
    out = {
        'cli.import_s': import_s,
        'cli.modules_loaded': modules_loaded,
        'syntax.parse_s': secs('syntax.parse'),
        'syntax.parse_calls': calls('syntax.parse'),
        'closure.fl_closure_s': secs('closure.fl_closure'),
        'closure.size': facts.get('closure_size', 0),
        'closure.enumerate_atoms_s': secs('closure.enumerate_atoms'),
        'closure.atoms': facts.get('atoms', 0),
        'network.viability_s': own('network.atoms_by_duty'),
        'network.viable_atoms': facts.get('viable_atoms', 0),
        'network.networks_built': tracer.counts['network.networks_built'],
        'construct.repair_all_s': secs('construct.repair_all'),
        'construct.repair_rounds': calls('construct.repair_all'),
        'construct.finish_deferral_s': secs('construct.finish_deferral'),
        'construct.finish_deferral_calls': calls('construct.finish_deferral'),
        'construct.saturate_self_s': own('construct.repair_all'),
        'construct.nodes_final': facts.get('nodes_final', 0),
        'construct.verdict_perfect': verdicts.get('perfect', 0),
        'construct.verdict_radius': verdicts.get('radius', 0),
        'construct.verdict_stuck': verdicts.get('stuck', 0),
        'semantics.eval_bits_s': secs('semantics.eval_bits'),
        'semantics.eval_bits_calls': calls('semantics.eval_bits'),
        'semantics.model_init_s': secs('semantics.model_init'),
        'semantics.model_init_calls': calls('semantics.model_init'),
        'semantics.brute_force_sat_self_s': own('semantics.brute_force_sat'),
        'semantics.models_per_query': sat_models / queries if queries else 0,
        'acceptance.row_s': secs('acceptance.row'),
        'acceptance.scalar_eval_s': scalar_s,
        'acceptance.scalar_eval_calls': scalar_calls,
        'acceptance.vector_self_s': own('acceptance.row'),
    }
    for name in ('compute_timeouts', 'find_defects', 'amalgamate',
                 'containment', 'is_anticonfluent'):
        out['network.%s_s' % name] = secs('network.' + name)
        out['network.%s_calls' % name] = calls('network.' + name)
    return out


def main(argv=None):
    args = _parse(argv)
    meter = Speedometer() if args.mode in ('setup', 'run') else None
    if meter is None:
        return _main(args, None)
    with meter.during(CALIBRATION_EVERY_S, CALIBRATION_EVERY_S):
        return _main(args, meter)


def _main(args, meter):
    """Set up and, unless the mode is "setup", measure; with a meter, set-up
    runs under its timer signal, which _main stops when set-up is done."""
    before = len(sys.modules)
    start = time.perf_counter()
    import flatmu.cli
    import_s = time.perf_counter() - start
    modules_loaded = len(sys.modules) - before
    src = os.path.realpath(args.src)
    where = os.path.realpath(flatmu.cli.__file__)
    if not where.startswith(src + os.sep):
        print('perfbench: flatmu imported from %s, not from %s'
              % (where, src), file=sys.stderr)
        return 3

    import tracing
    import workloads

    expected = {}
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        'expected.json')
    if os.path.exists(path):
        with open(path) as fh:
            expected = json.load(fh)
    tracer = None
    span, quiet = workloads._no_span, nullcontext
    if args.mode == 'trace':
        tracer = tracing.Tracer()
        tracer.install()
        span, quiet = tracer.span, tracer.paused
    seed = None if args.mode == 'record' else args.seed
    batch = workloads.PREPARE[args.workload](seed, expected, span)
    ready = time.monotonic()
    if meter is not None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        ready = {'ready': ready, 'sampling_s': meter.inside,
                 'setup_reference': meter.mean()}
    else:
        ready = {'ready': ready}
    print(json.dumps(ready), flush=True)
    if args.mode == 'setup':
        return 0
    if meter is not None:
        meter = Speedometer()

    times, stamps, rounds, failed, problems, summary = measure(
        batch, args.seconds, meter is None, workloads.Raised, quiet, meter)
    # before the scaled times below take their memory
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    timed = sum(map(sum, times))
    if meter is not None:
        times = [[meter.scale(a, b, t) for a, b, t in zip(ss, es, ts)]
                 for (ss, es), ts in zip(stamps, times)]
    if tracer is not None:
        tracer.restore()
    facts = summary.get('facts', {})
    result = {
        # each operation's median time over the rounds, scaled in a run
        'op_times': [statistics.median(ts) for ts in times],
        'speed_factor': meter.factor() if meter else 1.0,
        'timed': timed,
        'rounds': rounds,
        'attempted': rounds * len(times),
        'failed': failed,
        'problems': problems,
        'peak_rss_mb': peak_rss_mb,
        'facts': facts,
        'import_s': import_s,
        'numpy': getattr(sys.modules.get('numpy'), '__version__', None),
        'flatmu': os.path.dirname(where),
    }
    if args.mode == 'record':
        result['record'] = summary.get('record', {})
    if tracer is not None:
        result['layers'] = layer_metrics(tracer, facts, import_s,
                                         modules_loaded)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == '__main__':
    sys.exit(main())

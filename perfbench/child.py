"""One benchmark child: a fresh interpreter that sets kmalg up, runs one
workload's op stream, checks every output and prints one JSON line.

run.py starts it; see README.md for the workloads and the rules.

    python3 perfbench/child.py MODE WORKLOAD SEED SECONDS

Every time the child reports is read from its work clock (WorkClock):
seconds of work at a fixed reference speed, not raw wall time.

MODE is one of
  setup   only set up (import kmalg.cli, build the shared state);
  run     set up, then run the op stream untraced for SECONDS;
  traced  import, install the tracer, set up and run the op stream
          traced for SECONDS, then remove the tracer.

The op stream always runs its first timed stream whole, so SECONDS 0
runs exactly one: all of catalog or gram, or one jacobi pass.

``python3 perfbench/child.py record`` rewrites expected.json from the
current program (only when a report change is intended).
"""
# Only light modules are imported up front; the rest are imported where
# used, so that modules kmalg also imports (json, ...) load inside the
# timed set-up, as they do for a CLI user.  fractions is the exception:
# the work clock needs it before set-up starts (about 4 ms of import).
import itertools
import os
import signal
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

CATALOG_ARGV = ["osaka-catalog", "--degree", "5"]
GRAM_DEGREE = "60"
# (algebra, twist order), taken round-robin; one op is one random triple.
JACOBI_KINDS = (("su2c", 1), ("su2c", 2), ("sl2c", 2), ("su2su2c", 1))
JACOBI_DEGREE = 6
PASS_OPS = 200  # jacobi ops per pass, as in jacobi-check --trials 200
EXPECTED = os.path.join(HERE, "expected.json")
CAL_STEPS = 120  # steps of calibration_loop in one work-clock sample, about 1 ms
CAL_REF_S = 1.0e-3  # the reference speed: a sample takes exactly this
TICK_S = 0.05  # wall time between work-clock samples


def calibration_loop(steps):
    """A fixed pure-Python Fraction loop with no kmalg in it."""
    acc = Fraction(0)
    for i in range(1, steps + 1):
        acc += Fraction(i % 7 + 1, i % 11 + 2) * Fraction(3, i % 5 + 1)
    return acc


class WorkClock:
    """A clock that counts seconds of work at a fixed reference speed.

    The shared host this benchmark was defined on changes speed by up to
    1.8x from one second to the next, with other tenants' load, and the
    share of fast stretches in a minute varies from run to run; raw wall
    time of the same work then varies far more than a program change of
    a few percent.  So every TICK_S of wall time a SIGALRM handler times
    calibration_loop(CAL_STEPS), and the wall time until the next sample
    counts at the speed last measured (the median of the last three
    samples), scaled so that a sample taking CAL_REF_S counts one for one.
    The same work then reads the same on a fast or a slow stretch, while a
    program that does more or less work reads more or less.  The handler's
    own time counts for nothing.  The timer is re-armed by the handler,
    so no sample can interrupt another.
    """

    def __init__(self):
        self.work = 0.0
        self.ticks = 0
        self.samples = []
        self.wall0 = time.perf_counter()
        self._sample()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S)

    def _sample(self):
        t0 = time.perf_counter()
        calibration_loop(CAL_STEPS)
        self.last = time.perf_counter()
        self.samples.append(self.last - t0)
        recent = sorted(self.samples[-3:])
        self.scale = CAL_REF_S / recent[len(recent) // 2]

    def _tick(self, signum, frame):
        now = time.perf_counter()
        self.work += (now - self.last) * self.scale
        self._sample()
        self.ticks += 1
        signal.setitimer(signal.ITIMER_REAL, TICK_S)

    def read(self):
        """Seconds of work so far."""
        while True:
            ticks = self.ticks
            value = self.work + (time.perf_counter() - self.last) * self.scale
            if ticks == self.ticks:  # no sample ran in between
                return value

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        samples = sorted(self.samples)
        return {"wall_s": time.perf_counter() - self.wall0, "work_s": self.read(),
                "sample_ms": [1000 * samples[i] for i in (0, len(samples) // 2, -1)]}


def setup(workload, clock, tracer=None):
    """Import kmalg.cli and build the shared state the workload's commands
    read; returns the seconds it took on the work clock.  With a tracer,
    the tracer is installed between the import and the build."""
    t0 = clock.read()
    import kmalg.cli  # noqa: F401  (imports every layer)
    from kmalg import osaka, serialize

    if tracer is not None:
        tracer.install()
        t0 = clock.read()
    if workload == "jacobi":
        serialize.registry()
    else:
        osaka.build_catalog_a1()
    return clock.read() - t0


def run_cli(argv):
    """Run one CLI command in this process; returns (exit code, report
    with timing_ms removed, as the CLI prints it)."""
    import contextlib
    import io
    import json

    from kmalg import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    report = json.loads(out.getvalue())
    report.pop("timing_ms", None)
    return code, json.dumps(report, indent=2, ensure_ascii=False)


def digest(text):
    import hashlib

    return hashlib.sha256(text.encode()).hexdigest()


def gram_argv(form):
    return ["killing-gram", "--form", form, "--degree", GRAM_DEGREE]


def cli_op(argv, expected):
    """An op that runs one command; it fails unless the command exits 0
    and its report matches the recorded digest."""
    def op():
        code, text = run_cli(argv)
        if code != 0:
            raise AssertionError(f"{' '.join(argv)} exited {code}")
        if digest(text) != expected:
            raise AssertionError(f"{' '.join(argv)}: report differs from the recorded one")
    return op


def jacobi_op(seed, t, algebra, twist):
    """Trial t of the jacobi stream, run the way jacobi-check runs one."""
    from kmalg import kmext, rand

    def op():
        rng = rand.TrialRng(seed, t)
        x = rand.random_extended_element(algebra, twist, rng, max_degree=JACOBI_DEGREE)
        y = rand.random_extended_element(algebra, twist, rng, max_degree=JACOBI_DEGREE)
        z = rand.random_extended_element(algebra, twist, rng, max_degree=JACOBI_DEGREE)
        if not kmext.jacobi_residual(x, y, z).is_zero():
            raise AssertionError(f"nonzero Jacobi residual: seed {seed}, trial {t}, "
                                 f"{JACOBI_KINDS[t % len(JACOBI_KINDS)]}")
    return op


def load_expected():
    import json

    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def streams(workload, seed, expected):
    """The workload's op stream, cut into timed streams: one for catalog
    and gram (every command once), passes of PASS_OPS triples for jacobi."""
    from kmalg.osaka import build_catalog_a1
    from kmalg.serialize import lookup_algebra

    if workload == "catalog":
        yield [cli_op(CATALOG_ARGV, expected["catalog"])]
    elif workload == "gram":
        yield [cli_op(gram_argv(r.name), expected["gram"][r.name]) for r in build_catalog_a1()]
    else:
        kinds = [lookup_algebra(*kind) for kind in JACOBI_KINDS]
        for start in itertools.count(0, PASS_OPS):
            yield [jacobi_op(seed, t, *kinds[t % len(kinds)]) for t in range(start, start + PASS_OPS)]


class Stats:
    """Times, on the given clock, and failures of the ops run through it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stream_s = []
        self.op_ms = []
        self.failed = 0
        self.errors = []

    def run(self, ops):
        clock = self.clock
        start = clock()
        op_ms = []
        for op in ops:
            t0 = clock()
            try:
                op()
            except Exception as exc:  # a failed op is counted, never fatal
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(f"{type(exc).__name__}: {exc}")
            op_ms.append(1000 * (clock() - t0))
        self.stream_s.append(clock() - start)
        self.op_ms.append(op_ms)


def run_streams(workload, seed, seconds, stats, expected):
    """Run timed streams until SECONDS of wall time have passed, at least
    one.  catalog and gram have one stream only: their inputs are fixed,
    and a command may not be repeated on the same inputs."""
    start = time.perf_counter()
    for ops in streams(workload, seed, expected):
        stats.run(ops)
        if time.perf_counter() - start >= seconds:
            break


def main(argv):
    if argv[:1] == ["record"]:
        return record()
    mode, workload, seed, seconds = argv[0], argv[1], argv[2], float(argv[3])
    if mode not in ("setup", "run", "traced"):
        raise SystemExit(f"unknown mode {mode!r}")
    if workload not in ("catalog", "jacobi", "gram"):
        raise SystemExit(f"unknown workload {workload!r}")
    clock = WorkClock()
    tracer = None
    if mode == "traced":
        import kmalg.cli  # noqa: F401  (the tracer wraps what is imported)
        from tracer import Tracer

        tracer = Tracer(clock.read)
    setup_s = setup(workload, clock, tracer)

    import json
    import resource

    out = {"setup_s": setup_s}
    if mode != "setup":
        expected = load_expected()
        stats = Stats(clock.read)
        covered0 = tracer.top_s if tracer else 0.0
        run_streams(workload, seed, seconds, stats, expected)
        if tracer:
            covered = tracer.top_s - covered0
            tracer.remove()
            out["layers"] = tracer.metrics(sum(stats.stream_s), covered)
            out["leftover_wrappers"] = tracer.leftover_wrappers()
        out.update(stream_s=stats.stream_s, op_ms=stats.op_ms, failed=stats.failed, errors=stats.errors)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["clock"] = clock.stop()
    print(json.dumps(out))
    return 0


def record():
    """Write the digests of every catalog and gram report."""
    import json

    from kmalg.osaka import build_catalog_a1

    def checked(argv):
        code, text = run_cli(argv)
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited {code}; nothing recorded")
        return digest(text)

    data = {"catalog": checked(CATALOG_ARGV),
            "gram": {rec.name: checked(gram_argv(rec.name)) for rec in build_catalog_a1()}}
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py

1. Digest gate: the cheapest gram command passes against its recorded
   digest and is counted as failed against a corrupted copy of it.
2. Tracer: while installed, names imported into other modules and class
   aliases hold wrappers; traced reports equal untraced ones; after
   removal every binding site holds its original object again.
3. Work clock: it takes samples while work runs, never reads backwards,
   and leaves no timer armed once stopped.

Prints one line per check and exits 0 only when all hold.
"""
import signal
import sys

import child
from tracer import COUNTERS, SPANS, Tracer, resolve

# Commands that reach every traced layer; small, so each runs in seconds.
COMMANDS = (
    ["killing-gram", "--form", "IV", "--degree", "3"],
    ["osaka-verify", "--record", "III[Id,mu]", "--degree", "2"],
    ["jacobi-check", "--trials", "8", "--degree", "4", "--seed", "5",
     "--twist", "2", "--algebra", "sl2c"],
    ["osaka-catalog", "--degree", "1"],
)
# Binding sites other than the defining one, which the scan must find.
ALIASES = (
    ("kmalg.cli", "killing_gram"),
    ("kmalg.osaka", "killing_gram"),
    ("kmalg.kmext", "loop_bracket"),
    ("kmalg.involution", "hat_bracket"),
    ("kmalg.scalars", "Scalar.__rmul__"),
    ("kmalg.scalars", "Scalar.__radd__"),
)


def check_digest_gate():
    form = "I[Id,mu]"
    recorded = child.load_expected()["gram"][form]
    corrupted = ("0" if recorded[0] != "0" else "1") + recorded[1:]
    argv = child.gram_argv(form)
    good, bad = child.Stats(), child.Stats()
    good.run([child.cli_op(argv, recorded)])
    bad.run([child.cli_op(argv, corrupted)])
    return good.failed == 0 and bad.failed == 1


def check_tracer():
    import kmalg.cli  # noqa: F401

    targets = [(m, p) for m, p, _ in SPANS + COUNTERS] + list(ALIASES)
    originals = {t: resolve(*t) for t in targets}
    untraced = [child.run_cli(argv) for argv in COMMANDS]
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = all(getattr(resolve(*t), "_perfbench_wrapped", False) for t in targets)
        traced = [child.run_cli(argv) for argv in COMMANDS]
    finally:
        tracer.remove()
    restored = all(resolve(*t) is originals[t] for t in targets)
    return {
        "aliases wrapped while installed": wrapped,
        "traced reports equal untraced": traced == untraced,
        "spans recorded": tracer.calls["kmext.hat_bracket"] > 0 and tracer.counts["scalars.mul"] > 0,
        "originals restored": restored,
        "no wrapper left": not Tracer.leftover_wrappers(),
    }


def check_work_clock():
    clock = child.WorkClock()
    reads = [clock.read()]
    while clock.ticks < 5:
        child.calibration_loop(50)
        reads.append(clock.read())
    figures = clock.stop()
    return {
        "work clock never reads backwards": all(a <= b for a, b in zip(reads, reads[1:])),
        "work clock counts work": 0 < reads[-1] <= figures["work_s"],
        "work clock disarmed when stopped": signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0),
    }


def main():
    results = {"corrupted digest counts as failed": check_digest_gate()}
    results.update(check_tracer())
    results.update(check_work_clock())
    for name, ok in results.items():
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    return 0 if all(results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

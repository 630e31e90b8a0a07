"""One repetition of a benchmark workload, in a fresh interpreter.

Usage: child.py SPAWN_NS SPEC_JSON

SPAWN_NS is run.py's ``time.monotonic_ns()`` just before it started this
process (on Linux both processes read the same CLOCK_MONOTONIC), so the
set-up time includes interpreter start-up.  SPEC_JSON names the commands to
run through ``coxbalance.cli.main``, the file that receives each command's
standard output, and optionally a file for the span trace.

The calibration kernel runs once after set-up and once after each command,
outside the timed commands, so run.py can rescale the times by the
machine's speed during this process (see run.py).  The last line of
standard output is a JSON object with the set-up time, the commands' summed
wall and CPU times and each kernel time in nanoseconds, each command's exit
code and the peak resident memory.
"""

import contextlib
import gc
import io
import json
import re
import resource
import sys
import time
import traceback
from fractions import Fraction


def calibration_kernel() -> None:
    """Fixed pure-Python work: exact fractions, tuples and dict stores.

    Its duration measures the interpreter's speed on this machine at this
    moment.  Changing it changes every reported time, so it stays fixed.
    """
    acc = Fraction(0)
    for i in range(1, 10000):
        acc += Fraction(i % 7 + 1, i + 1)
        if acc.denominator > 10**12:
            acc = Fraction(acc.numerator % 1000, 7)
    table = {}
    for i in range(130000):
        table[(i * 7919) % 97, i & 3] = (i, i >> 1)


def timed_kernel_ns() -> int:
    # Without the collector, the kernel's time does not depend on how many
    # objects the program left alive.
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        calibration_kernel()
        return time.perf_counter_ns() - t0
    finally:
        gc.enable()


def cpu_ns() -> int:
    """CPU time of this process and of the children it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return int(1e9 * (own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime))


def run_command(cli, argv):
    """Exit code of one CLI invocation and its captured standard output.

    ``cli.main`` is looked up at each call, so a traced wrapper is used.
    """
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is reported as a failed command, not fatal
        traceback.print_exc()
        code = 1
    return code, out.getvalue()


def peak_rss_kib() -> int:
    # VmHWM belongs to this process image alone; getrusage's ru_maxrss also
    # counts the parent's resident set inherited across fork and exec.
    with open("/proc/self/status") as fh:
        return int(re.search(r"^VmHWM:\s+(\d+) kB", fh.read(), re.M).group(1))


def main() -> None:
    spawn_ns = int(sys.argv[1])
    from coxbalance import cli  # set-up ends once the CLI is imported

    setup_ns = time.monotonic_ns() - spawn_ns
    with open(sys.argv[2]) as fh:
        spec = json.load(fh)
    tracer = None
    if spec.get("trace"):
        import spans

        tracer = spans.Tracer()
        tracer.install()
    codes = []
    outputs = []
    wall = cpu = 0
    kernel = [timed_kernel_ns()]
    for command in spec["commands"]:
        c0 = cpu_ns()
        t0 = time.perf_counter_ns()
        code, text = run_command(cli, command["argv"])
        wall += time.perf_counter_ns() - t0
        cpu += cpu_ns() - c0
        codes.append(code)
        outputs.append(text)
        kernel.append(timed_kernel_ns())
    for command, text in zip(spec["commands"], outputs):
        if command.get("stdout"):
            with open(command["stdout"], "w") as fh:
                fh.write(text)
    if tracer is not None:
        tracer.dump(spec["trace"])
    print(json.dumps({
        "setup_ns": setup_ns,
        "wall_ns": wall,
        "cpu_ns": cpu,
        "kernel_ns": kernel,
        "exit_codes": codes,
        "peak_rss_kib": peak_rss_kib(),
    }))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""coxbalance benchmark: three campaign workloads driven through the CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ``src/``.
Each repetition runs the workload's commands through ``coxbalance.cli.main``
in a fresh interpreter (``child.py``), one repetition at a time, because a
CLI user pays root-system construction on every invocation.  An in-process
cache would otherwise carry over between repetitions and hide that cost.
The seed becomes the child's ``PYTHONHASHSEED``; the outputs must come out
byte-identical to ``expected/`` under every seed.

Repetitions are started until the next one would end past ``--seconds``.
With ``--trace 0`` the last line reports the end-to-end metrics (medians
over repetitions, times in reference seconds: see ``KERNEL_REF_NS``).  With ``--trace 1`` untraced and traced repetitions
alternate and the last line reports the per-layer metrics of the traced ones
(see ``spans.py``), plus the tracing overhead.  See README.md for the
metrics and the layers they belong to.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from statistics import mean, median, quantiles
from typing import Dict, List, Optional, Tuple

import spans

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(BENCH_DIR, "expected")

# workload -> commands in order, each as (label, CLI arguments).  A verify
# command's --out bundle is checked against expected/<label>.json; any other
# command's standard output against expected/<label>.txt.
WORKLOADS = {
    "root-ideals": (
        ("table1", ("verify", "table1")),
        ("exits", ("verify", "exits", "--e8")),
        ("semiorder", ("verify", "semiorder")),
    ),
    "convex-scan": (
        ("conjecture", ("verify", "conjecture")),
        ("geometry", ("verify", "geometry")),
    ),
    "groups-heaps": (
        ("group-E6", ("group", "--type", "E", "--rank", "6")),
        ("classify", ("verify", "classify")),
        ("equality", ("verify", "equality")),
        ("counterexamples", ("verify", "counterexamples")),
    ),
}

SETUP_PROBES = 6  # import-only children per run, for a steadier setup_s

# The host's speed drifts by tens of percent within seconds to minutes on
# shared CPUs, and moves every time alike.  Each time is therefore reported
# in reference seconds: scaled by KERNEL_REF_NS over the mean duration of the
# calibration kernel runs (child.py) in the same process, i.e. seconds on a
# machine that runs the kernel in exactly 0.05 s.  The raw wall time is
# printed alongside.
KERNEL_REF_NS = 50_000_000
MIN_REPS = 3
DEADLINE_S = 170  # a child still running then is killed and counted failed


def is_bundle(argv) -> bool:
    return argv[0] == "verify"


CAMPAIGNS = tuple(
    argv[1] for commands in WORKLOADS.values() for _, argv in commands
    if is_bundle(argv)
)


def output_name(label: str, argv) -> str:
    return label + (".json" if is_bundle(argv) else ".txt")


def records_of(data: bytes) -> List[bool]:
    """Pass flags of every record in a verify --out bundle."""
    bundle = json.loads(data)
    return [r["pass"] for c in bundle["campaigns"] for r in c["records"]]


class Launcher:
    """Starts child interpreters one at a time, all within one deadline."""

    def __init__(self, root: str, seed: int, scratch: str):
        self.root = root
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + path if path else "")
        self.env["PYTHONHASHSEED"] = str(seed % 2**32)
        self.spec_path = os.path.join(scratch, "spec.json")
        self.deadline = time.monotonic() + DEADLINE_S

    def run(self, spec: dict) -> Tuple[Optional[dict], float]:
        """The child's report (None if it failed) and its elapsed seconds."""
        with open(self.spec_path, "w") as fh:
            json.dump(spec, fh)
        t0 = time.monotonic_ns()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "child.py"), str(t0), self.spec_path],
            cwd=self.root, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
        elapsed_s = (time.monotonic_ns() - t0) / 1e9
        if err:
            sys.stderr.write(err.decode(errors="replace"))
        lines = out.decode().strip().splitlines()
        if proc.returncode != 0 or not lines:
            return None, elapsed_s
        return json.loads(lines[-1]), elapsed_s


def scaled_times(report: dict) -> dict:
    """A child's times in reference seconds, and its raw wall time."""
    scale = KERNEL_REF_NS / mean(report["kernel_ns"])
    return {
        "setup_s": report["setup_ns"] * scale / 1e9,
        "wall_s": report["wall_ns"] * scale / 1e9,
        "cpu_s": report["cpu_ns"] * scale / 1e9,
        "raw_wall_s": report["wall_ns"] / 1e9,
        "scale": scale,
    }


def check_outputs(commands, workdir: str, exit_codes: Optional[List[int]]) -> dict:
    """Operations attempted and failed, and the records the program wrote.

    One operation per command (its output bytes against the expected bytes,
    and a zero exit) and one per expected report record.
    """
    attempted = failed = records = records_failed = 0
    for k, (label, argv) in enumerate(commands):
        with open(os.path.join(EXPECTED_DIR, output_name(label, argv)), "rb") as fh:
            want = fh.read()
        got_path = os.path.join(workdir, output_name(label, argv))
        got = None
        if os.path.exists(got_path):
            with open(got_path, "rb") as fh:
                got = fh.read()
        attempted += 1
        if exit_codes is None or exit_codes[k] != 0 or got != want:
            failed += 1
        if is_bundle(argv):
            n_want = len(records_of(want))
            try:
                flags = records_of(got) if got is not None else []
            except (ValueError, KeyError, TypeError):
                flags = []
            passed = sum(1 for f in flags if f is True)
            attempted += n_want
            failed += n_want - min(passed, n_want)
            records += len(flags)
            records_failed += len(flags) - passed
    return {"attempted": attempted, "failed": failed,
            "records": records, "records_failed": records_failed}


def command_spec(commands, workdir: str) -> List[dict]:
    spec = []
    for label, argv in commands:
        target = os.path.join(workdir, output_name(label, argv))
        if is_bundle(argv):
            spec.append({"argv": list(argv) + ["--out", target]})
        else:
            spec.append({"argv": list(argv), "stdout": target})
    return spec


def summarize(values: List[float]) -> str:
    q1, _, q3 = quantiles(values, n=4)
    return f"median {median(values):.6g} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})"


class Run:
    """The repetitions of one benchmark run and what they measured."""

    def __init__(self, launcher: Launcher, commands, scratch: str):
        self.launcher = launcher
        self.commands = commands
        self.scratch = scratch
        self.setups: List[float] = []
        self.untraced: List[dict] = []
        self.traced: List[dict] = []
        self.attempted = self.failed = 0
        self.problems: List[str] = []

    def probe_setup(self) -> bool:
        """Import-only children for setup_s.  The first one also fills the
        bytecode cache, as an installed package would have it, and is not
        counted."""
        for k in range(SETUP_PROBES + 1):
            report, _ = self.launcher.run({"commands": []})
            if report is None:
                return False
            if k:
                self.setups.append(scaled_times(report)["setup_s"])
        return True

    def repetition(self, with_trace: bool) -> Tuple[bool, float]:
        """Run the workload once; False if the child did not complete."""
        workdir = tempfile.mkdtemp(dir=self.scratch)
        spec = {"commands": command_spec(self.commands, workdir)}
        if with_trace:
            spec["trace"] = os.path.join(workdir, "trace.json")
        report, elapsed_s = self.launcher.run(spec)
        check = check_outputs(self.commands, workdir, report and report["exit_codes"])
        self.attempted += check["attempted"]
        self.failed += check["failed"]
        if report is None:
            self.problems.append("a repetition did not complete")
            return False, elapsed_s
        rep = scaled_times(report)
        rep["peak_rss_mb"] = report["peak_rss_kib"] / 1024
        if with_trace:
            with open(spec["trace"]) as fh:
                dump = json.load(fh)
            if spans.total_self_ns(dump) > report["wall_ns"]:
                self.problems.append("summed self times exceed the traced wall time")
            layers = spans.layer_metrics(dump, CAMPAIGNS)
            for name in layers:
                if spans.unit_of(name) == "s":
                    layers[name] *= rep["scale"]
            layers["verify.records"] = check["records"]
            layers["verify.records_failed"] = check["records_failed"]
            rep["layers"] = layers
            self.traced.append(rep)
        else:
            self.setups.append(rep["setup_s"])
            self.untraced.append(rep)
        shutil.rmtree(workdir, ignore_errors=True)
        return True, elapsed_s

    def end_to_end(self) -> Dict[str, dict]:
        print(f"raw_wall_s: {summarize([r['raw_wall_s'] for r in self.untraced])} s "
              "(not rescaled)")
        series = {
            "wall_s": ([r["wall_s"] for r in self.untraced], "s"),
            "setup_s": (self.setups, "s"),
            "cpu_s": ([r["cpu_s"] for r in self.untraced], "s"),
            "peak_rss_mb": ([r["peak_rss_mb"] for r in self.untraced], "MiB"),
        }
        metrics = {}
        for name, (values, unit) in series.items():
            print(f"{name}: {summarize(values)} {unit}")
            metrics[name] = {"value": median(values), "unit": unit}
        return metrics

    def per_layer(self) -> Dict[str, dict]:
        layers = [r["layers"] for r in self.traced]
        metrics = {}
        for name in sorted(layers[0]):
            values = [rep[name] for rep in layers]
            unit = spans.unit_of(name)
            if unit == "s":
                value = median(values)
            else:  # a count or ratio must repeat exactly
                value = values[0]
                if len(set(values)) != 1:
                    self.problems.append(
                        f"{name} differs between traced repetitions: {values}")
            metrics[name] = {"value": value, "unit": unit}
        metrics["trace.overhead_s"] = {
            "value": median(r["wall_s"] for r in self.traced)
            - median(r["wall_s"] for r in self.untraced),
            "unit": "s",
        }
        for name, m in metrics.items():
            print(f"{name}: {m['value']:.6g} {m['unit']}")
        return metrics


def measure(root: str, workload: str, seed: int, seconds: int, trace: bool) -> int:
    build_dir = os.path.join(root, ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="coxbalance-", dir=build_dir)
    try:
        run = Run(Launcher(root, seed, scratch), WORKLOADS[workload], scratch)
        if not run.probe_setup():
            print("error: coxbalance.cli could not be imported", file=sys.stderr)
            return 1
        # With tracing, untraced and traced repetitions alternate, so the
        # overhead compares repetitions made under the same host conditions.
        durations: List[float] = []
        start = time.monotonic()
        while True:
            enough = (len(run.traced) >= 2 and run.untraced if trace
                      else len(run.untraced) >= MIN_REPS)
            if enough and time.monotonic() - start + median(durations) > seconds:
                break
            ok, elapsed_s = run.repetition(trace and len(durations) % 2 == 1)
            durations.append(elapsed_s)
            if not ok:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if run.failed:
        run.problems.append(f"{run.failed} of {run.attempted} operations failed")
    print(f"fail_ratio: {run.failed / run.attempted:.6g} "
          f"({run.failed} failed of {run.attempted} operations)")
    metrics: Dict[str, dict] = {}
    if not run.problems:
        metrics = run.per_layer() if trace else run.end_to_end()
    for problem in run.problems:
        print(f"error: {problem}", file=sys.stderr)
    correct = not run.problems
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "coxbalance", "cli.py")):
        print("error: run from the root of a coxbalance checkout "
              "(src/coxbalance/cli.py not found)", file=sys.stderr)
        return 2
    return measure(root, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

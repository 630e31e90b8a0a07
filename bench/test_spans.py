"""Checks of the benchmark's span tracer.

    PYTHONPATH=src python3 -m pytest -q bench/test_spans.py

The tracer patches the coxbalance modules for the rest of the process, so
every check here reads the trace of one small traced run.
"""

import json
import time

import pytest

import spans

SLEEP_S = 0.002


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    import coxbalance
    from coxbalance import cli, rootsys, semiorder, verify

    originals = {
        "build": rootsys.build_root_system,
        "ideals": rootsys.iter_ideal_masks,
    }
    tracer = spans.Tracer()
    tracer.install()
    bound = {
        "package": coxbalance.build_root_system,
        "rootsys": rootsys.build_root_system,
        "verify": verify.build_root_system,
        "semiorder": semiorder.build_root_system,
        "cli": cli.build_root_system,
        "verify.ideals": verify.iter_ideal_masks,
        "semiorder.ideals": semiorder.iter_ideal_masks,
    }
    rs = rootsys.build_root_system("A", 3)
    n_ideals = 0
    for _ in rootsys.iter_ideal_masks(rs):
        n_ideals += 1
        time.sleep(SLEEP_S)  # consumer time, outside the generator's spans
    semiorder.scan_exit_witnesses(rs)
    path = tmp_path_factory.mktemp("trace") / "trace.json"
    tracer.dump(str(path))
    with open(path) as fh:
        trace = json.load(fh)
    return {"originals": originals, "bound": bound, "trace": trace,
            "n_ideals": n_ideals}


def test_every_binding_is_wrapped(traced):
    for where, fn in traced["bound"].items():
        original = traced["originals"]["ideals" if "ideals" in where else "build"]
        assert fn is not original, where
        assert fn.__wrapped__ is original, where


def test_counts(traced):
    m = spans.layer_metrics(traced["trace"], ())
    assert m["rootsys.build_calls"] == 1
    assert m["rootsys.build_distinct_ratio"] == 1.0
    # A3 has 14 root-poset ideals; the exit scan streams them a second time.
    assert traced["n_ideals"] == 14
    assert m["rootsys.ideals_enumerated"] == 28
    assert m["semiorder.ideals_scanned"] == 13


def test_generator_spans_exclude_the_consumer(traced):
    m = spans.layer_metrics(traced["trace"], ())
    assert m["rootsys.ideal_enum_s"] < 14 * SLEEP_S


def test_spans_nest_and_self_times_partition(traced):
    trace = traced["trace"]
    start, end, parent = trace["start"], trace["end"], trace["parent"]
    for i, p in enumerate(parent):
        assert start[i] <= end[i]
        if p >= 0:
            assert start[p] <= start[i] and end[i] <= end[p]
    roots = sum(e - s for s, e, p in zip(start, end, parent) if p < 0)
    assert spans.total_self_ns(trace) == roots
    assert min(spans.self_times(trace)) >= 0

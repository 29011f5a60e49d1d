"""Checks of the benchmark itself: run with `python3 -m pytest perfbench -q`.

The work counters must repeat exactly between passes and match the values
measured at the commit that introduced the benchmark; every invocation must
reproduce its pinned exit code and verdict.
"""
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import run
from tracing import Tracer

SEED_COUNTERS = {
    "pool-deep": {"variety.pool_members": 63},
    "dfc-counterexample": {"dfc.verify_dfc.counterexamples": 105254},
    "free-witness": {"freealg.carrier": 256, "positivize.witness_rank": 524288},
}


@pytest.fixture(scope="module")
def package():
    cwd = os.getcwd()
    os.chdir(run.ROOT)
    run.import_package()
    yield run.load_expected()
    os.chdir(cwd)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_counters_repeat_and_verdicts_hold(package, workload):
    counts = []
    for _ in range(2):
        tracer = Tracer()
        with tracer.installed():
            _, failed = run.run_in_process(run.WORKLOADS[workload], package, tracer)
        assert failed == 0
        counts.append(tracer.counts)
    assert counts[0] == counts[1]
    for name, value in SEED_COUNTERS.get(workload, {}).items():
        assert counts[0][name] == value, name


def test_tracer_restores_package(package):
    import factorlab.cli as cli
    import factorlab.dfc as dfc

    before = (cli.main, cli.verify_dfc, dfc.factor_pairs)
    with Tracer().installed():
        assert cli.verify_dfc is not before[1]
        assert dfc.factor_pairs is not before[2]
    assert (cli.main, cli.verify_dfc, dfc.factor_pairs) == before


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "free-witness",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_speedometer_counts_and_stops():
    meter = run.Speedometer()
    try:
        first = meter.reading()
        time.sleep(0.2)
        second = meter.reading()
    finally:
        meter.close()
    assert second[0] > first[0] and second[1] > first[1]
    assert meter.proc.poll() is not None

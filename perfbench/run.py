"""factorlab benchmark: workloads, timing loop and result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With `--trace 0` it runs the workload's `factorlab` CLI invocations as a
closed loop with one client: each invocation is a fresh `python -m factorlab
... --format machine` subprocess, started only after the previous one ended.
It reports end-to-end wall time, child CPU time and peak RSS per workload
iteration, and the interpreter-plus-import set-up time; times are normalised
to a reference CPU speed measured by `speedometer.py`.  With `--trace 1` it
runs the same invocations in process, once untraced and once with the layer
tracer of `tracing.py` installed, and reports per-layer times and work
counters.  `--workload all` runs every workload in a seed-dependent order.

Every workload is exhaustive and deterministic; the seed only permutes the
order of workloads and invocations.  Each invocation's exit code and verdict
fields are checked against `expected.json`; a mismatch counts as failed.

Output: one JSON record line per workload (environment, samples, counters),
then, as the last line, the result object
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""
from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
from tracing import COUNTERS, Tracer  # noqa: E402

# Paths are relative to the repository root, which is the working directory
# of every invocation.  Why each workload is here:
WORKLOADS = {
    # The paper's end-to-end run at the scaled setting: verify_dfc dominates
    # the lattice half, correspondence_check over Z2^4's factor pairs the
    # ring half.
    "pipeline-scaled": (
        ("pipeline", "fixtures/lattices.ctx",
         "fixtures/formulas/lattice_mixed.fm", "--max-size", "16"),
        ("pipeline", "fixtures/rings.ctx",
         "fixtures/formulas/ring_mixed.fm", "--max-size", "16"),
    ),
    # Pool generation and congruence closure (63 members), with no formula
    # evaluation to speak of and no large free algebra.
    "pool-deep": (
        ("correspondence", "fixtures/lattices.ctx",
         "fixtures/formulas/lattice_dfc.fm", "--pool-depth", "3",
         "--max-size", "27"),
    ),
    # Free-algebra closure (Boolean rank 3, carrier 256) and the witness
    # search in F(x) x F(x,y) for a 4-bound-variable formula whose witness
    # lies deep in lexicographic order.
    "free-witness": (
        ("freealg", "dump", "fixtures/boolean.ctx", "--rank", "3"),
        ("positivize", "fixtures/rings.ctx", "perfbench/w4.fm"),
    ),
    # A failing formula: building and sorting 105,254 counterexamples, and
    # the memory they take.
    "dfc-counterexample": (
        ("dfc", "verify", "fixtures/lattices.ctx",
         "fixtures/formulas/not_dfc.fm", "--pool-depth", "3",
         "--max-size", "16"),
    ),
}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# Machine-output keys that state a verdict.  Pool-dependent counts such as
# pairs_tested are deliberately absent: pruning isomorphic pool members is a
# legitimate change that alters them.
VERDICT_KEYS = ("status", "failed_stage", "phi_prime", "k", "witnesses",
                "size", "generators", "first_counterexample")

SETUP_SAMPLES = 3

# Speedometer kernel passes per CPU second at which normalised times are
# stated: about the median speed of the shared 2-CPU Xeon the benchmark was
# written on.  Changing it rescales every end-to-end time.
REF_SPEED = 6000.0


def verdict(doc: dict) -> dict:
    """The verdict fields of one machine-output document, per pipeline stage."""
    out = {key: doc[key] for key in VERDICT_KEYS if key in doc}
    for stage in doc.get("stages", ()):
        out[f"stage:{stage['name']}"] = {
            key: stage[key] for key in VERDICT_KEYS if key in stage
        }
    return out


def invocation_key(argv) -> str:
    return " ".join(argv)


def load_expected() -> dict:
    return json.loads((HERE / "expected.json").read_text(encoding="utf-8"))


def matches(expected: dict, argv, code: int, stdout: str) -> bool:
    want = expected[invocation_key(argv)]
    if code != want["exit"]:
        return False
    try:
        doc = json.loads(stdout.strip().splitlines()[-1])
    except (json.JSONDecodeError, IndexError):
        return False
    return verdict(doc) == want["verdict"]


def child_env() -> dict:
    """The caller's environment with only the checkout's `src/` importable,
    the default budget, and bytecode caching on, as for an installed
    package: the first import writes `src/factorlab/__pycache__`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("FACTORLAB_BUDGET", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
    }


# -- end-to-end: one subprocess per invocation -------------------------------


def run_child(argv, env) -> tuple[float, float, float, int, str]:
    """Wall s, CPU s, peak RSS MB, exit code and stdout of one child."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *argv], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
            proc.returncode, out.decode("utf-8", "replace"))


class Speedometer:
    """`speedometer.py` running beside the timed children on their CPU."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "speedometer.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def reading(self) -> tuple[int, float]:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        passes, spent = self.proc.stdout.readline().split()
        return int(passes), float(spent)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()


def timed_child(argv, env, meter) -> tuple[float, float, float, int, str, float]:
    """`run_child` plus the CPU's speed while the child ran, relative to
    REF_SPEED: the child's times multiplied by it are normalised times."""
    p0, s0 = meter.reading()
    wall, cpu, rss, code, out = run_child(argv, env)
    p1, s1 = meter.reading()
    if s1 > s0:
        speed = (p1 - p0) / (s1 - s0)
    else:  # too short for a speedometer burst: use the run so far
        speed = p1 / s1
    return wall, cpu, rss, code, out, speed / REF_SPEED


def import_once(env, meter) -> tuple[float, float]:
    """Raw and normalised wall time of one fresh interpreter running
    `import factorlab.cli`."""
    wall, _, _, code, _, speed = timed_child(
        ("-c", "import factorlab.cli"), env, meter)
    if code != 0:
        raise RuntimeError("cannot import factorlab.cli from src/")
    return wall, wall * speed


def end_to_end(name, rng, seconds, expected) -> tuple[dict, dict]:
    """Closed loop with one client until `seconds` have passed.

    The benchmark pins itself, and so its children and the speedometer, to one
    CPU.  Times are normalised per child by the speed the speedometer saw.
    Set-up samples are taken before the first iteration and after every
    iteration, so that they see the same machine state as the iterations.
    """
    env = child_env()
    invocations = WORKLOADS[name]
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(affinity)})
    meter = Speedometer()
    try:
        deadline = time.perf_counter() + seconds
        import_once(env, meter)  # may byte-compile the package; not kept
        setup = [import_once(env, meter) for _ in range(SETUP_SAMPLES)]
        iterations = []
        attempted = failed = 0
        while True:
            raw_wall = wall = cpu = rss = 0.0
            for argv in rng.sample(invocations, len(invocations)):
                w, c, r, code, out, speed = timed_child(
                    ("-m", "factorlab", *argv, "--format", "machine"), env, meter)
                raw_wall += w
                wall += w * speed
                cpu += c * speed
                rss = max(rss, r)
                attempted += 1
                if not matches(expected, argv, code, out):
                    failed += 1
                    print(f"mismatch: factorlab {invocation_key(argv)} "
                          f"exited {code}", file=sys.stderr)
            iterations.append((raw_wall, wall, cpu, rss))
            setup.append(import_once(env, meter))
            longest = max(it[0] for it in iterations)
            if time.perf_counter() + longest > deadline:
                break
    finally:
        meter.close()
        os.sched_setaffinity(0, affinity)
    raw_walls, walls, cpus, rsss = zip(*iterations)
    raw_setup, setup = zip(*setup)
    values = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(rsss),
        "setup_s": statistics.median(setup),
    }
    record = {
        "samples": len(iterations),
        "raw_wall_s": raw_walls, "wall_s": walls, "cpu_s": cpus,
        "peak_rss_mb": rsss, "raw_setup_s": raw_setup, "setup_s": setup,
        "attempted": attempted, "failed": failed,
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}, record


# -- traced: the same invocations in process ------------------------------------


def import_package():
    sys.path.insert(0, str(SRC))
    import factorlab
    if Path(factorlab.__file__).resolve().parent != SRC / "factorlab":
        raise RuntimeError(f"factorlab imported from {factorlab.__file__}")


def run_in_process(invocations, expected, tracer=None) -> tuple[float, int]:
    """Elapsed s and failed count of one in-process pass."""
    import factorlab.cli as cli

    failed = 0
    gc.collect()
    start = time.perf_counter()
    for i, argv in enumerate(invocations):
        out = io.StringIO()
        if tracer is not None:
            tracer.request = i
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main([*argv, "--format", "machine"])
        failed += not matches(expected, argv, code, out.getvalue())
    return time.perf_counter() - start, failed


def traced(name, rng, seconds, expected) -> tuple[dict, dict]:
    import_package()
    invocations = WORKLOADS[name]
    untraced_s, traced_s, layers, coverage = [], [], [], []
    counts = None
    repeat_ok = True
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while True:
        order = rng.sample(invocations, len(invocations))
        tracer = Tracer()
        # Alternate which pass runs first, so neither always runs warm.
        for is_traced in ((False, True) if len(traced_s) % 2 == 0 else (True, False)):
            if is_traced:
                with tracer.installed():
                    elapsed, bad = run_in_process(order, expected, tracer)
                traced_s.append(elapsed)
            else:
                elapsed, bad = run_in_process(order, expected)
                untraced_s.append(elapsed)
            attempted += len(order)
            failed += bad
        layers.append(tracer.layer_metrics())
        coverage.append(tracer.covered_s() / traced_s[-1])
        if counts is not None and tracer.counts != counts:
            repeat_ok = False
        counts = tracer.counts
        if time.perf_counter() + untraced_s[-1] + traced_s[-1] > deadline:
            break

    metrics = {}
    for key in layers[0]:
        unit = "count" if key.endswith(".calls") else "s"
        metrics[key] = (statistics.median(m[key] for m in layers), unit)
    for key in COUNTERS:
        metrics[key] = (counts[key], "count")
    evaluator_s = (metrics["dfc.verify_dfc.self_s"][0]
                   + metrics["dfc.correspondence_check.self_s"][0])
    metrics["formulas.assignments_per_s"] = (
        counts["formulas.assignments"] / evaluator_s if evaluator_s else 0.0,
        "1/s")
    t_off, t_on = statistics.median(untraced_s), statistics.median(traced_s)
    metrics["trace.untraced_s"] = (t_off, "s")
    metrics["trace.traced_s"] = (t_on, "s")
    metrics["trace.overhead_s"] = (t_on - t_off, "s")
    metrics["trace.span_coverage"] = (statistics.median(coverage), "fraction")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    spans_file = HERE / "results" / f"spans-{name}.json"
    tracer.dump(spans_file)
    record = {
        "spans_file": str(spans_file.relative_to(ROOT)),
        "samples": len(traced_s),
        "untraced_s": untraced_s, "traced_s": traced_s,
        "counters": counts, "counters_repeat": repeat_ok,
        "attempted": attempted, "failed": failed,
    }
    return metrics, record


# -- main -----------------------------------------------------------------------


def check_checkout() -> None:
    missing = [p for p in (SRC / "factorlab" / "cli.py", ROOT / "fixtures")
               if not p.exists()]
    if missing:
        raise SystemExit(
            "error: the benchmark runs from a factorlab checkout; missing "
            + ", ".join(str(p.relative_to(ROOT)) for p in missing))


def as_json(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    check_checkout()
    os.chdir(ROOT)

    rng = random.Random(args.seed)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    rng.shuffle(names)
    expected = load_expected()
    env = environment()
    run = traced if args.trace else end_to_end
    nproc = env["nproc"] or 1
    total_attempted = total_failed = 0
    all_correct = True
    combined = {}
    for name in names:
        load_start = os.getloadavg()
        metrics, record = run(name, rng, args.seconds, expected)
        load_end = os.getloadavg()
        correct = record["failed"] == 0 and record.get("counters_repeat", True)
        print(json.dumps({
            "workload": name, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, **env,
            "loadavg_start": load_start, "loadavg_end": load_end,
            "loaded": load_start[0] > nproc,
            **record, "metrics": as_json(metrics),
        }))
        total_attempted += record["attempted"]
        total_failed += record["failed"]
        all_correct = all_correct and correct
        prefix = "" if len(names) == 1 else f"{name}/"
        combined.update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps({
        "correct": all_correct, "attempted": total_attempted,
        "failed": total_failed, "metrics": as_json(combined),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Samples the speed of the CPU it runs on, for `run.py`.

    python3 perfbench/speedometer.py

Run it pinned to the same CPU as the processes being timed.  Every PERIOD_S
it wakes for BURST_S of a fixed pure-Python kernel and counts kernel passes
and its own CPU time; the ratio is the CPU's speed while the timed process
ran beside it.  Each line read on stdin is answered with the running totals
"<passes> <cpu seconds>"; end of input stops it.

On a shared host the same code can take up to twice as long from one minute
to the next, because other tenants contend for the core; this kernel slows
with it, so dividing by its speed removes most of that drift.
"""
import select
import sys
import time

PERIOD_S = 0.019
BURST_S = 0.001
N = 48
TABLE = tuple((i * 31 + 7) % N for i in range(N * N))


def one_pass(seen: dict) -> None:
    """Table lookups, tuple building and dict traffic, the mix of the
    closure and evaluation loops being timed; it tracks their slowdowns
    under contention more closely than a loop over integers alone."""
    for a in range(6):
        for b in range(N):
            v = TABLE[(TABLE[a * N + b] * N + b) % (N * N)]
            key = (a, b, v)
            seen[key] = seen.get(key, 0) + 1


def main() -> None:
    seen: dict = {}
    passes = 0
    spent = 0.0
    while True:
        ready, _, _ = select.select([sys.stdin], [], [], PERIOD_S)
        if ready:
            if not sys.stdin.readline():
                return
            print(passes, spent, flush=True)
            continue
        start = time.thread_time()
        stop = time.perf_counter() + BURST_S
        while time.perf_counter() < stop:
            one_pass(seen)
            passes += 1
        spent += time.thread_time() - start


if __name__ == "__main__":
    main()

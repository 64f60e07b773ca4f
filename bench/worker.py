"""One batch of one workload, in a fresh interpreter.

Usage (spawned by run.py): worker.py WORKLOAD SEED MODE T0

MODE is ``probe`` (import and report set-up time only), ``plain`` or
``traced``, optionally prefixed ``small-`` for the smoke size.  T0 is the
parent's ``time.monotonic()`` just before the spawn, so the reported
``setup_s`` runs from spawning the interpreter until ``knotfield`` and
``knotfield.cli`` are imported.  The last line of stdout is a JSON object.
"""

import sys
import time

import knotfield
import knotfield.cli  # noqa: F401  (every CLI call pays this import)

IMPORTED = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# --- host speed -------------------------------------------------------------
# A shared host runs the same code up to 1.8 times slower for minutes at a
# time, and interpreter-bound code slows more than big-integer code.  So every
# time the worker reports is scaled by nominal / measured, where measured is
# the time of a fixed reference loop run just before and just after the timed
# code, and nominal is that loop's time on the host when it runs fast: a
# reported time reads as seconds on that host.  Each workload names the loop
# closest to its own work (workloads.REFERENCE).  The reference loops import
# nothing from knotfield, so a change to the program does not move them.


def _interp_loop():
    total, table = 0, {}
    for i in range(60000):
        total += i * i % 7
        table[i & 1023] = total
    return total


_BIG_X, _BIG_Y = 7 ** 4000, 3 ** 2500 + 1


def _bigint_loop():
    total = 0
    for i in range(160):
        q, r = divmod(_BIG_X + i, _BIG_Y)
        total += (q * r) & 0xFFFF
    return total


# reference name -> (loop, nominal seconds)
REFERENCES = {"interp": (_interp_loop, 0.0075), "bigint": (_bigint_loop, 0.0125)}


def reference_time(name):
    """Seconds the named reference loop takes now."""
    loop = REFERENCES[name][0]
    start = time.perf_counter()
    loop()
    return time.perf_counter() - start


class DeadlineExceeded(BaseException):
    """Raised by the alarm handler inside a case that ran past its deadline."""


def _alarm(signum, frame):
    raise DeadlineExceeded()


def run_case(case, deadline):
    """Returns (seconds, failure kind or None, detail)."""
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            value = case.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        return time.perf_counter() - start, "deadline", f"ran past the {deadline:g} s deadline"
    except Exception as exc:
        seconds = time.perf_counter() - start
        name = type(exc).__name__
        if name == case.expect_error:
            return seconds, None, ""
        return seconds, f"raised:{name}", str(exc)[:200]
    seconds = time.perf_counter() - start
    if case.expect_error:
        return seconds, f"expected:{case.expect_error}", "the oracle expects a refusal here"
    problem = case.check(value)
    if problem:
        return seconds, problem[0], problem[1][:200]
    return seconds, None, ""


def main():
    workload, seed, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    setup_s = IMPORTED - float(sys.argv[4])
    expected = os.path.join(ROOT, "src", "knotfield", "__init__.py")
    if os.path.realpath(knotfield.__file__) != os.path.realpath(expected):
        sys.exit(f"knotfield was imported from {knotfield.__file__}, not from this checkout")
    if mode == "probe":
        loop_s = reference_time("interp")
        print(json.dumps({"setup_s": setup_s * REFERENCES["interp"][1] / loop_s,
                          "setup_wall_s": setup_s}))
        return

    import tracing
    import workloads

    small = mode.startswith("small-")
    cases = workloads.build(workload, seed, small)
    tracer = tracing.Tracer()
    if mode.endswith("traced"):
        tracer.install()
    deadline = workloads.DEADLINES[workload]
    signal.signal(signal.SIGALRM, _alarm)

    reference = workloads.REFERENCE[workload]
    nominal = REFERENCES[reference][1]
    outcomes = []
    wrong_counts = {}
    job_s = job_wall_s = 0.0
    before = reference_time(reference)
    for case in cases:
        start = time.perf_counter()
        seconds, kind, detail = run_case(case, deadline)
        wall = time.perf_counter() - start  # the case's run and check
        after = reference_time(reference)
        scale = nominal / ((before + after) / 2)
        before = after
        outcomes.append([case.name, seconds * scale, kind, detail, case.known.get(kind) if kind else None])
        job_s += wall * scale
        job_wall_s += wall
        if case.counter and kind in ("wrong", "wrong_float"):
            wrong_counts[case.counter] = wrong_counts.get(case.counter, 0) + 1

    result = {
        "job_s": job_s,
        "job_wall_s": job_wall_s,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "cases": outcomes,
        "known_defects": [[c.name, kind, tag] for c in cases for kind, tag in c.known.items()],
    }
    if mode.endswith("traced"):
        memo = knotfield.cluster._mutate_seed_cached.cache_info()
        result["layers"] = tracing.layer_metrics(tracer, memo, wrong_counts.get("af.perron.wrong", 0))
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"spans-{workload}-{seed}.jsonl"), "w") as fh:
            for span in tracer.spans():
                fh.write(json.dumps(span) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()

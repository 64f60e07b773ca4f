"""knotfield benchmark: seeded, checked workloads timed in fresh interpreters.

Run from the root of a source checkout:

    python3 bench/run.py --workload torus-deep --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 40 --trace 1 --out result.json
    python3 bench/run.py --compare before.json after.json

Each repetition spawns ``worker.py`` in a fresh interpreter with
``PYTHONPATH=src``, so the import and the ``mutate_seed`` memo start cold,
as they do for a CLI user.  The worker runs the workload's fixed batch of
cases and checks every answer against ``oracles.py``.  Repetitions go on
until ``--seconds`` is used up; the figures are medians over them.  Every
time is scaled for host speed by a reference loop run beside it (see
``worker.REFERENCES``); the summary also prints wall-clock set-up and job
times.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics of the
traced ones, plus the tracing overhead.  The last line of stdout is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from tracing import UNITS as LAYER_UNITS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("torus-deep", "closure", "linkgroup", "fields")
SETUP_PROBES = 15
WORKER_TIMEOUT_S = 120
TAIL_LADDER = (99.9, 99, 95, 90, 75, 50)
# The tail percentile is chosen as if each case ran this many times, so that
# it is the same in every run, however many repetitions fit.
TAIL_REPS = 4

# End-to-end metrics of the JSON line.  fail_ratio is only printed (and
# carried by ``failed`` / ``attempted``): it is zero on the workloads listed
# in BENCHMARK.json, and a listed metric must never be zero.
E2E_UNITS = {
    "setup_s": "s",
    "job_s": "s",
    "case_p50_s": "s",
    "case_tail_s": "s",
    "peak_rss_mib": "MiB",
}


class BenchError(Exception):
    """The benchmark could not run or a worker crashed."""


def environment(seed: int) -> dict:
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):  # an exported tree has no commit
        try:
            proc = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            )
            if proc.returncode == 0:
                commit = proc.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": sys.version,
        "implementation": platform.python_implementation(),
        "version_info": list(sys.version_info[:3]),
        "nproc": os.cpu_count(),
        "commit": commit,
        "seed": seed,
    }


def spawn(workload: str, seed: int, mode: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, workload, str(seed), mode, repr(t0)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {workload}/{mode} ran past {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {workload}/{mode} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - t0
    return result


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten of ``n`` samples beyond it."""
    for q in TAIL_LADDER:
        if n * (100 - q) / 100 >= 10:
            return q
    return 100.0


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    rank = q / 100 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def measure(workload: str, seed: int, seconds: float, trace: bool, small: bool) -> dict:
    prefix = "small-" if small else ""
    started = time.monotonic()
    spawn(workload, seed, "probe")  # warm-up: byte-compiles a fresh checkout
    probes = [spawn(workload, seed, "probe") for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    while True:
        want_traced = trace and len(traced) < len(plain)
        batch = spawn(workload, seed, prefix + ("traced" if want_traced else "plain"))
        (traced if want_traced else plain).append(batch)
        if trace and not traced:
            continue
        longest = max(b["wall_s"] for b in plain + traced)
        if time.monotonic() - started + longest > seconds:
            break

    batches = plain + traced
    ncases = len(plain[0]["cases"])
    latencies = [statistics.median(b["cases"][i][1] for b in plain) for i in range(ncases)]
    q = tail_percentile(TAIL_REPS * ncases)
    failures = [c for b in batches for c in b["cases"] if c[2]]
    unexpected = [c for c in failures if c[4] is None]
    out = {
        "workload": workload,
        "seed": seed,
        "repetitions": {"plain": len(plain), "traced": len(traced)},
        "cases_per_batch": ncases,
        "tail_percentile": q,
        "correct": not unexpected,
        "attempted": sum(len(b["cases"]) for b in batches),
        "failed": len(failures),
        "failures": sorted({(c[0], c[2], c[4] or "UNEXPECTED", c[3]) for c in failures}),
        "known_defects": plain[0]["known_defects"],
        "samples": {"setup_s": [p["setup_s"] for p in probes], "job_s": [b["job_s"] for b in plain]},
        "wall": {
            "setup_s": statistics.median(p["setup_wall_s"] for p in probes),
            "job_s": statistics.median(b["job_wall_s"] for b in plain),
        },
        "metrics": {
            "setup_s": statistics.median(p["setup_s"] for p in probes),
            "job_s": statistics.median(b["job_s"] for b in plain),
            "case_p50_s": percentile(latencies, 50),
            "case_tail_s": percentile(latencies, q),
            "peak_rss_mib": statistics.median(b["peak_rss_kib"] for b in plain) / 1024,
        },
    }
    if trace:
        layers = {
            name: statistics.median(b["layers"][name] for b in traced)
            for name in traced[0]["layers"]
        }
        layers["trace.overhead_ratio"] = (
            statistics.median(b["job_s"] for b in traced) / out["metrics"]["job_s"]
        )
        out["layers"] = layers
    return out


def summary(res: dict) -> list[str]:
    m = res["metrics"]
    reps = res["repetitions"]
    lines = [
        f"== {res['workload']} seed {res['seed']}: {reps['plain']} untraced + {reps['traced']} traced "
        f"batches of {res['cases_per_batch']} cases",
        f"  setup_s       {m['setup_s']:.4f} s  (wall {res['wall']['setup_s']:.4f} s)",
        f"  job_s         {m['job_s']:.4f} s  (wall {res['wall']['job_s']:.4f} s)",
        f"  case_p50_s    {m['case_p50_s']:.4f} s",
        f"  case_tail_s   {m['case_tail_s']:.4f} s  (p{res['tail_percentile']:g}; "
        f"{res['cases_per_batch']} cases x {reps['plain']} repetitions)",
        f"  peak_rss_mib  {m['peak_rss_mib']:.2f} MiB",
        f"  fail_ratio    {res['failed'] / res['attempted']:.4f}  ({res['failed']} of {res['attempted']} "
        f"case runs failed)",
    ]
    for name, kind, tag, detail in res["failures"]:
        lines.append(f"  failed  [{tag}] {name}: {kind}: {detail}")
    expected = sorted({(tag, name) for name, kind, tag in res["known_defects"]})
    if expected:
        lines.append("  known defects that may fail here (ROADMAP 3): "
                     + ", ".join(f"{name} [{tag}]" for tag, name in expected))
    for name, value in res.get("layers", {}).items():
        lines.append(f"  {name:32s} {value:.6g}")
    return lines


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    env_a, env_b = a["environment"], b["environment"]
    for key in ("implementation", "version_info"):
        if env_a[key] != env_b[key]:
            print(f"refusing to compare: {key} {env_a[key]} vs {env_b[key]} "
                  "(big-int division differs between interpreter versions)", file=sys.stderr)
            return 2
    for workload, res_a in a["results"].items():
        res_b = b["results"].get(workload)
        if res_b is None:
            continue
        for name, value in res_a["metrics"].items():
            other = res_b["metrics"][name]
            ratio = other / value if value else float("nan")
            print(f"{workload:12s} {name:14s} {value:12.6g} -> {other:12.6g}  x{ratio:.3f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small runs a few tiny cases per workload (smoke test)")
    parser.add_argument("--out", help="also write the full result, with its environment, here")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="compare two --out files made on the same interpreter")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(ROOT, "src", "knotfield", "__init__.py")):
        print(f"no knotfield sources under {ROOT}/src; run from a source checkout", file=sys.stderr)
        return 2

    env = environment(args.seed)
    print("environment " + json.dumps(env))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, bool(args.trace), args.size == "small")
            print("\n".join(summary(results[name])), flush=True)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"environment": env, "results": results}, fh, indent=1)

    key = "layers" if args.trace else "metrics"
    units = LAYER_UNITS if args.trace else E2E_UNITS
    metrics = {}
    for name, res in results.items():
        for metric, unit in units.items():
            label = metric if len(results) == 1 else f"{name}/{metric}"
            metrics[label] = {"value": res[key][metric], "unit": unit}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

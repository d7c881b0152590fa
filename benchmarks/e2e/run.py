"""The benchmark command: end-to-end metrics, correctness gate, traced run.

    PYTHONPATH=src python -m benchmarks.e2e.run --seed 7

runs every workload through ``run_ptsbe_stream`` in a fresh worker
process each, prints every metric by name and unit, checks the outputs and
writes ``results/e2e-<seed>.json``; then a second worker per workload
repeats the same calls with the layers' entry points wrapped and prints
the per-layer numbers.  With ``--workload NAME --trace 0|1`` (how the
benchmark driver calls it, as ``python3 benchmarks/e2e/run.py``) it runs
one workload in one mode and ends with one JSON line.  README.md has the
metric tables.
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
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# Runnable as a plain script from any checkout: the package under src/
# and this package are importable without PYTHONPATH.
for _path in (str(ROOT), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.e2e.trace import PER_LAYER  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS  # noqa: E402

#: name -> (unit, better, bound): how much the median may worsen, as a
#: share of the parent's median, before a change counts as a regression.
END_TO_END = {
    "shots_per_s": ("shots/s", "higher", 0.25),
    "first_chunk_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.10),
    "setup_s": ("s", "lower", 0.25),
    "failed_share": ("ratio", "lower", 0.0),
}
DEFAULT_SECONDS = 20
#: Set-up-only workers per run besides the measuring one; ``setup_s`` is
#: the median over all of them.
SETUP_PROBES = 6
WORKER_TIMEOUT = 170

#: glibc serves an allocation above its mmap threshold from fresh pages,
#: and on the sandbox first-touching them costs 0.06-10 s, bimodally (see
#: README.md).  Pinning the threshold to its 32 MiB ceiling and never
#: trimming keeps state-sized buffers on the reused heap.
MALLOC_PINS = {
    "MALLOC_MMAP_THRESHOLD_": str(32 * 1024 * 1024),
    "MALLOC_TRIM_THRESHOLD_": str(1024 * 1024 * 1024),
}


#: One BLAS thread: on the 2-vCPU sandbox a second, spinning thread doubles
#: the CPU time of every workload without making any of them faster.
BLAS_THREADS = 1


def worker_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(BLAS_THREADS)
    env.update(MALLOC_PINS)
    # setup_s is what a user's script pays, and that reads cached bytecode:
    # the first worker in a fresh checkout writes it, the others find it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(workload: str, mode: str, seed: int, seconds: float, smoke: bool,
          trace_file: Optional[Path] = None) -> Dict[str, Any]:
    """Run one worker to completion and parse its last line."""
    command = [
        sys.executable, "-m", "benchmarks.e2e.worker",
        "--workload", workload, "--mode", mode, "--seed", str(seed),
        "--seconds", str(seconds), "--spawned-at", repr(time.time()),
    ]
    if smoke:
        command.append("--smoke")
    if trace_file is not None:
        command += ["--trace-file", str(trace_file)]
    done = subprocess.run(
        command, cwd=ROOT, env=worker_env(), capture_output=True, text=True,
        timeout=WORKER_TIMEOUT,
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker {workload}/{mode} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(values: Sequence[float], unit: str) -> Dict[str, Any]:
    """Median, quartiles and sample count of one metric's samples."""
    values = list(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values), "q1": q1, "q3": q3,
        "n": len(values), "unit": unit, "values": values,
    }


def run_untraced(name: str, seed: int, seconds: float, smoke: bool) -> Dict[str, Any]:
    """The end-to-end metrics of one workload (tracing off).

    Timings are quiet-host seconds: wall time less the host probe's own
    samples, divided by the slowdown those samples measured (hostprobe.py).
    The wall-clock readings and the slowdowns go under ``host``.
    """
    probes = 0 if smoke else SETUP_PROBES
    setups = [spawn(name, "setup", seed, 0, smoke) for _ in range(probes)]
    out = spawn(name, "timed", seed, seconds, smoke)
    setups.append(out)
    reps = out["reps"]
    quiet = [(r["seconds"] - r["probe_s"]) / r["slowdown"] for r in reps]
    samples = {
        "shots_per_s": [r["shots"] / q for r, q in zip(reps, quiet)],
        "first_chunk_s": [
            (r["first_chunk_s"] - r["first_probe_s"]) / r["slowdown"] for r in reps
        ],
        "peak_rss_mb": [out["peak_rss_mb"]],
        "setup_s": [s["setup_s"] / s["setup_slowdown"] for s in setups],
        "failed_share": [len(out["failures"]) / out["attempted"]],
    }
    host = {
        "host.slowdown": ([r["slowdown"] for r in reps], "ratio"),
        "host.setup_slowdown": ([s["setup_slowdown"] for s in setups], "ratio"),
        "wall.shots_per_s": ([r["shots"] / r["seconds"] for r in reps], "shots/s"),
        "wall.first_chunk_s": ([r["first_chunk_s"] for r in reps], "s"),
        "wall.setup_s": ([s["setup_s"] for s in setups], "s"),
    }
    return {
        "end_to_end": {
            metric: summarise(values or [float("nan")], END_TO_END[metric][0])
            for metric, values in samples.items()
        },
        "host": {
            metric: summarise(values or [float("nan")], unit)
            for metric, (values, unit) in host.items()
        },
        "trajectories": reps[0]["trajectories"] if reps else 0,
        "shots": reps[0]["shots"] if reps else 0,
        **{k: out[k] for k in ("attempted", "failures", "sizes", "env")},
    }


def run_traced(name: str, seed: int, seconds: float, smoke: bool, out_dir: Path) -> Dict[str, Any]:
    """The per-layer metrics of one workload (entry points wrapped)."""
    out = spawn(name, "traced", seed, seconds, smoke, out_dir / f"trace-{name}.json")
    layers = out["layers"]
    return {
        "per_layer": {
            metric: summarise([rep[metric] for rep in layers] or [float("nan")], unit)
            for metric, (unit, _) in PER_LAYER.items()
        },
        **{k: out[k] for k in ("attempted", "failures", "sizes", "env")},
    }


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def print_rows(title: str, rows: List[List[str]]) -> None:
    print(f"\n{title}")
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())


def metric_specs() -> Dict[str, Dict[str, Any]]:
    return {
        metric: {"unit": unit, "better": better, "bound": bound}
        for metric, (unit, better, bound) in END_TO_END.items()
    }


def run_benchmark(names: Sequence[str], seed: int, seconds: float, smoke: bool,
                  modes: Sequence[int], out_dir: Path) -> Dict[str, Any]:
    """Run ``names`` in ``modes`` (0 untraced, 1 traced); print and return."""
    document: Dict[str, Any] = {
        "seed": seed, "seconds": seconds, "smoke": smoke,
        "nproc": len(os.sched_getaffinity(0)), "platform": platform.platform(),
        "git_commit": git_commit(), "malloc_pins": MALLOC_PINS,
        "metrics": metric_specs(),
        "workloads": {},
    }
    for name in names:
        entry: Dict[str, Any] = {
            "why": WORKLOADS[name].why, "gated": WORKLOADS[name].gated,
            "attempted": 0, "failures": [],
        }
        for mode in modes:
            part = run_traced(name, seed, seconds, smoke, out_dir) if mode else run_untraced(
                name, seed, seconds, smoke)
            entry["attempted"] += part.pop("attempted")
            entry["failures"] += part.pop("failures")
            entry.update(part)
        document["workloads"][name] = entry

    header = ["workload", "metric", "median", "q1", "q3", "n", "unit"]
    for section, title in (("end_to_end", "End to end (tracing off; quiet-host seconds)"),
                           ("host", "Host slowdown and the same timings by the wall clock"),
                           ("per_layer", "Per layer (traced run; self times and counts)")):
        rows = [
            [name, metric, f"{s['median']:.6g}", f"{s['q1']:.6g}", f"{s['q3']:.6g}",
             str(s["n"]), s["unit"]]
            for name, entry in document["workloads"].items()
            for metric, s in entry.get(section, {}).items()
        ]
        if rows:
            print_rows(title, [header] + rows)
    for name, entry in document["workloads"].items():
        for failure in entry["failures"]:
            print(f"\nFAILED {name}: {failure}")
    return document


def write_document(document: Dict[str, Any], out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"e2e-{document['seed']}.json"
    path.write_text(json.dumps(document, indent=1) + "\n")
    return path


def driver_line(entry: Dict[str, Any], section: str) -> str:
    """The one JSON object the benchmark driver reads."""
    metrics = {
        metric: {"value": s["median"], "unit": s["unit"]}
        for metric, s in entry[section].items()
        # The driver takes the failure share from `failed` / `attempted`.
        if metric != "failed_share"
    }
    failed = len(entry["failures"])
    return json.dumps({
        "correct": failed == 0, "attempted": entry["attempted"], "failed": failed,
        "metrics": metrics,
    })


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), help="default: all five")
    parser.add_argument("--seed", type=int, default=7, help="run_ptsbe_stream(seed=...)")
    parser.add_argument("--seconds", type=float,
                        help="timed repetitions run at least this long (and at least 5); "
                        f"default {DEFAULT_SECONDS}, or 0 with --smoke")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end only, 1: traced run only; default: both")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the tests")
    parser.add_argument("--out", type=Path, default=HERE / "results",
                        help="directory for e2e-<seed>.json and trace-<workload>.json")
    args = parser.parse_args(argv)

    if args.seconds is None:
        args.seconds = 0 if args.smoke else DEFAULT_SECONDS
    names = [args.workload] if args.workload else list(WORKLOADS)
    modes = [0, 1] if args.trace is None else [args.trace]
    document = run_benchmark(names, args.seed, args.seconds, args.smoke, modes, args.out)
    failed = any(entry["failures"] for entry in document["workloads"].values())
    if args.workload and args.trace is not None:
        section = "per_layer" if args.trace else "end_to_end"
        print(driver_line(document["workloads"][args.workload], section))
    else:
        print(f"\nwrote {write_document(document, args.out)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

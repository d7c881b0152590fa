"""One workload in one fresh process: set-up, untimed checks, timed reps.

``run.py`` starts this module once per workload (and a few more times in
``--mode setup`` to sample set-up time) so imports, allocator state and
``ru_maxrss`` are per workload.  The last line of standard output is one
JSON object; ``run.py`` is the only reader.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

import repro
from benchmarks.e2e import trace
from benchmarks.e2e.hostprobe import HostProbe, slowdown, spot_slowdown
from benchmarks.e2e.workloads import WORKLOADS

#: Timed repetitions per run, whatever ``--seconds`` says.
MIN_REPS = 5


def check_table(table, records, nshots: int, full: bool) -> Optional[str]:
    """Shots == sum of spec shots and ids align with the records.

    ``full`` compares every id; otherwise only the table's ends, which is
    all a timed streamed repetition can afford per chunk.
    """
    if table.num_shots != nshots * len(records):
        return f"{table.num_shots} shots for {len(records)} specs of {nshots}"
    ids = table.trajectory_ids
    if ids[0] != records[0].trajectory_id or ids[-1] != records[-1].trajectory_id:
        return "trajectory ids do not start and end with the records' ids"
    if full:
        expected = np.repeat([r.trajectory_id for r in records], nshots)
        if not np.array_equal(ids, expected):
            return "trajectory ids do not align with the records"
    return None


def repetition(
    workload, seed: int, smoke: bool, *, verify: bool, serial: bool = False, tracer=None
) -> Dict[str, Any]:
    """Build the circuit, run the timed region once, check the outputs.

    ``verify`` adds the full id check and the SHA-256 of bits+ids (inside
    the loop for the streamed workload, so a verify repetition's time is
    not a measurement).  ``serial`` swaps in the default serial backend
    for the cross-strategy digest.
    """
    circuit, sampler = workload.build(smoke)
    backend = repro.BackendSpec() if serial else workload.backend()
    hasher = hashlib.sha256() if verify else None
    problems: List[str] = []
    shots = trajectories = 0

    def consume(table, records):
        nonlocal shots, trajectories
        shots += table.num_shots
        trajectories += len(records)
        problem = check_table(table, records, sampler.nshots, full=verify)
        if problem:
            problems.append(problem)
        if hasher is not None:
            hasher.update(np.ascontiguousarray(table.bits))
            hasher.update(np.ascontiguousarray(table.trajectory_ids))

    root = tracer.begin("timed_region") if tracer is not None else None
    start = time.perf_counter()
    stream = repro.run_ptsbe_stream(
        circuit, sampler, backend=backend, seed=seed, retain=workload.materialised
    )
    if workload.materialised:
        next(stream)
        first = time.perf_counter()
        result = stream.finalize()
        table = result.shot_table()
    else:
        first = None
        for chunk in stream:
            if first is None:
                first = time.perf_counter()
            consume(chunk.shot_table(), chunk.records)
    end = time.perf_counter()
    if root is not None:
        tracer.end(root)
    if workload.materialised:
        consume(table, result.records)

    expected = "serial" if serial else workload.engine
    if stream.engine != expected:
        problems.append(f"engine {stream.engine!r}, expected {expected!r}")
    if not stream.routing:
        problems.append("no routing trail on the stream")
    if trajectories != stream.delivered_trajectories:
        problems.append("delivered trajectory count disagrees with the tables")
    return {
        "start": start,
        "seconds": end - start,
        "first_chunk_s": first - start,
        "shots": shots,
        "trajectories": trajectories,
        "digest": hasher.hexdigest() if hasher is not None else None,
        "problems": problems,
        "root": root,
    }


def host_speed(rep: Dict[str, Any], samples) -> Dict[str, Any]:
    """What the probe samples inside ``rep``'s timed region say (hostprobe.py)."""
    start, end = rep["start"], rep["start"] + rep["seconds"]
    first = start + rep["first_chunk_s"]
    inside = [(t, d) for t, d in samples if start <= t < end]
    return {
        "probe_samples": len(inside),
        "probe_s": sum(d for _, d in inside),
        "first_probe_s": sum(d for t, d in inside if t < first),
        # Too short a repetition for a sample (--smoke) reads as a quiet host.
        "slowdown": slowdown([d for _, d in inside]) if inside else 1.0,
    }


class Run:
    """Repetitions of one workload, with failures counted, not raised."""

    def __init__(self, workload, seed: int, smoke: bool):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.attempted = 0
        self.failures: List[str] = []

    def rep(self, kind: str, **kwargs) -> Optional[Dict[str, Any]]:
        self.attempted += 1
        try:
            out = repetition(self.workload, self.seed, self.smoke, **kwargs)
        except Exception:  # the benchmark must report a failed repetition, not die
            self.failures.append(f"{kind}: {traceback.format_exc()}")
            return None
        if out["problems"]:
            self.failures.append(f"{kind}: {'; '.join(out['problems'])}")
            return None
        return out

    def same_digest(self, kind: str, reference: Optional[Dict], **kwargs) -> None:
        """One more verify repetition whose digest must equal ``reference``'s."""
        out = self.rep(kind, verify=True, **kwargs)
        if out and reference and out["digest"] != reference["digest"]:
            self.failures.append(
                f"{kind}: digest {out['digest'][:12]} != warm-up {reference['digest'][:12]}"
            )

    def timed(self, seconds: float, min_reps: int) -> List[Dict[str, Any]]:
        """Repeat for ``seconds`` and at least ``min_reps``; stop at a failure."""
        reps: List[Dict[str, Any]] = []
        deadline = time.perf_counter() + seconds
        with HostProbe() as probe:
            while len(reps) < min_reps or time.perf_counter() < deadline:
                probe.take()
                rep = self.rep("timed", verify=False)
                if rep is None:
                    break
                rep.update(host_speed(rep, probe.take()))
                reps.append(rep)
        return reps


def environment() -> Dict[str, Any]:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "malloc": {
            k: os.environ[k]
            for k in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")
            if k in os.environ
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace-file", type=Path)
    args = parser.parse_args(argv)

    # Set-up, as a user's script pays it: the imports above, then circuit,
    # noise model, freeze and sampler.
    workload = WORKLOADS[args.workload]
    circuit, sampler = workload.build(args.smoke)
    out: Dict[str, Any] = {"setup_s": time.time() - args.spawned_at}
    out["setup_slowdown"] = spot_slowdown()
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    run = Run(workload, args.seed, args.smoke)
    warm = run.rep("warm-up", verify=True)
    if args.mode == "timed":
        run.same_digest("verify", warm)
        if workload.serial_digest:
            run.same_digest("serial", warm, serial=True)
        reps = run.timed(args.seconds, 2 if args.smoke else MIN_REPS)
        out["reps"] = [
            {k: r[k] for k in ("seconds", "first_chunk_s", "shots", "trajectories",
                               "probe_samples", "probe_s", "first_probe_s", "slowdown")}
            for r in reps
        ]
    else:
        # Untraced and traced repetitions alternate, so each traced wall has
        # a neighbour in time to be compared with (trace.overhead).
        layers: List[Dict[str, float]] = []
        tracer = None
        deadline = time.perf_counter() + args.seconds
        while not layers or time.perf_counter() < deadline:
            plain = run.rep("untraced", verify=False)
            with trace.install(), trace.tracing(f"{workload.name}-{args.seed}") as tracer:
                rep = run.rep("traced", verify=False, tracer=tracer)
            if plain is None or rep is None:
                break
            layers.append(trace.layer_metrics(tracer, rep["root"], plain["seconds"]))
        out["layers"] = layers
        if args.trace_file is not None and tracer is not None:
            args.trace_file.parent.mkdir(parents=True, exist_ok=True)
            args.trace_file.write_text(json.dumps(tracer.to_json()))

    out["attempted"] = run.attempted
    out["failures"] = run.failures
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["sizes"] = {
        "num_qubits": circuit.num_qubits, "nsamples": sampler.nsamples, "nshots": sampler.nshots,
    }
    out["env"] = environment()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

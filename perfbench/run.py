"""Benchmark of parareach: one workload per run, each in fresh processes.

    python3 perfbench/run.py --workload {sec5-reach,sec5-verify,driven-rides} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; parareach is imported from the
checkout's src/.  Set-up (a fresh interpreter up to inputs ready) is timed
in SETUP_ONLY interpreters that stop there and in the workload's own, which
then runs whole rounds for about S seconds and checks its outputs after the
clock stops.  Untraced, each round is scaled to a reference machine speed
by probes made as it runs (calib.py).  With --trace 1 the workload runs
under spans (spans.py) and the layer metrics are reported instead of the
end-to-end ones.

The last line printed is one JSON object with the keys correct, attempted,
failed and metrics.  A record of the run (environment, per-round wall and
CPU times, spans) is written to perfbench/out/runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sec5-reach", "sec5-verify", "driven-rides")
SETUP_ONLY = 4            # plus the workload's own interpreter: 5 samples
IMPORTTIME_SAMPLES = 3
DEADLINE_S = 170.0        # a run must end within 180 s


class BenchError(Exception):
    pass


def _start(cmd, env):
    """Start a worker and wait for its READY line; returns the process and
    the seconds from spawning it to that line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not get ready: {line!r}")
    return proc, ready


def _finish(proc, deadline):
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker ran past the deadline")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    return out


def _import_times(env):
    """Median cumulative -X importtime of parareach and parareach.signals, s."""
    samples = {"parareach": [], "parareach.signals": []}
    for _ in range(IMPORTTIME_SAMPLES):
        res = subprocess.run([sys.executable, "-X", "importtime", "-c", "import parareach"],
                             env=env, capture_output=True, text=True, timeout=60)
        for line in res.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in samples:
                samples[parts[2].strip()].append(int(parts[1]) / 1e6)
    if any(len(v) != IMPORTTIME_SAMPLES for v in samples.values()):
        raise BenchError("-X importtime did not report parareach and parareach.signals")
    return {k: statistics.median(v) for k, v in samples.items()}


def _steal_s():
    """CPU time the hypervisor took from this machine, summed over its CPUs
    (/proc/stat); None where it cannot be read."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _git_sha(root):
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def run(workload, seed, seconds, trace):
    deadline = time.perf_counter() + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "parareach" / "__init__.py").is_file():
        raise BenchError(f"no src/parareach under {root}; run from a checkout's root")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    env.pop("PARAREACH_THREADS", None)   # the library default: one thread
    out_root = HERE / "out"
    work_dir = out_root / f"work-{os.getpid()}"
    worker = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
              "--seed", str(seed)]

    setup = []
    for _ in range(SETUP_ONLY):
        proc, ready = _start(worker + ["--setup-only"], env)
        _finish(proc, deadline)
        setup.append(ready)
    steal = _steal_s()
    proc, ready = _start(worker + ["--seconds", str(seconds), "--trace", str(trace),
                                   "--work", str(work_dir)], env)
    setup.append(ready)
    res = json.loads(_finish(proc, deadline).strip().splitlines()[-1])
    if steal is not None:
        steal = _steal_s() - steal

    if trace:
        if res["missing_spans"]:
            raise BenchError(f"no call recorded for {', '.join(res['missing_spans'])}")
        imports = _import_times(env)
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in res["layers"].items()}
        metrics["setup.import_s"] = {"value": imports["parareach"], "unit": "s"}
        metrics["setup.import.signals_s"] = {"value": imports["parareach.signals"], "unit": "s"}
        metrics["trace.solve_s"] = {"value": statistics.median(res["round_wall_s"]), "unit": "s"}
        metrics["trace.spans"] = {"value": len(res["spans"]) / len(res["round_wall_s"]),
                                  "unit": "count"}
    else:
        metrics = {
            "solve_s": {"value": statistics.median(res["round_ref_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    summary = {"correct": not res["problems"], "attempted": res["attempted"],
               "failed": res["failed"], "metrics": metrics}

    record = dict(summary, workload=workload, seed=seed, seconds=seconds, trace=trace,
                  nproc=os.cpu_count(), cpus_usable=len(os.sched_getaffinity(0)),
                  git_sha=_git_sha(root), **res["versions"],
                  problems=res["problems"], setup_s=setup,
                  round_wall_s=res["round_wall_s"], round_cpu_s=res["round_cpu_s"],
                  round_ref_s=res["round_ref_s"], round_probes_s=res["round_probes_s"],
                  steal_s=steal,
                  spans=res.get("spans", []))
    (out_root / "runs").mkdir(parents=True, exist_ok=True)
    path = out_root / "runs" / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for problem in res["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        summary = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

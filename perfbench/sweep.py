"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/sweep.py --label A [--seeds 1-10] [--workloads sec5-reach,...] [--trace 1]
    python3 perfbench/sweep.py --compare A B

Runs run.py once per (seed, workload), seeds in the outer loop so that a slow
spell of the machine touches every workload alike, with run_seconds from
BENCHMARK.json.  For each metric it prints the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median; beside
solve_s also the median wall and CPU time per round, without the probes of
calib.py, and the median probe time.  All values go to
perfbench/out/sweep-<label>.json.  --compare prints, per workload and
end-to-end metric, how far the second set's median is from the first's,
against the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def sweep(label, seeds, workloads, trace):
    runs = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
            res = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if res.returncode != 0:
                sys.exit(f"{w} seed {seed} failed:\n{res.stderr}")
            summary = json.loads(res.stdout.strip().splitlines()[-1])
            record = json.loads(
                (HERE / "out" / "runs" / f"{w}-seed{seed}-trace{trace}.json").read_text())
            for key in ("round_wall_s", "round_cpu_s", "round_probes_s"):
                summary[key] = record[key]
            summary["seed"] = seed
            runs[w].append(summary)
            values = {k: round(v["value"], 4) for k, v in summary["metrics"].items()
                      if not trace or k.endswith("solve_s")}
            print(f"{w} seed {seed}: correct={summary['correct']} "
                  f"attempted={summary['attempted']} failed={summary['failed']} {values}",
                  flush=True)
    out = HERE / "out" / f"sweep-{label}.json"
    out.write_text(json.dumps({"label": label, "trace": trace, "runs": runs}, indent=1))
    return out


def summarize(path):
    data = json.loads(Path(path).read_text())
    print(f"\nset {data['label']} ({'traced' if data['trace'] else 'untraced'})")
    print("| workload | metric | median | q1 | q3 | spread |")
    print("|---|---|---|---|---|---|")
    for w, runs in data["runs"].items():
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = _quartiles(vals)
            spread = (q3 - q1) / med if med else 0.0
            print(f"| {w} | {name} | {med:.4g} | {q1:.4g} | {q3:.4g} | {spread:.3f} |")
        per_run = {
            "wall time per round (s)": [statistics.median(r["round_wall_s"]) for r in runs],
            "cpu per round (s)": [statistics.median(r["round_cpu_s"]) for r in runs],
            "probe (ms)": [1e3 * statistics.median(p for ps in r["round_probes_s"] for p in ps)
                           for r in runs if r["round_probes_s"]],
        }
        for label, vals in per_run.items():
            if vals:
                q1, med, q3 = _quartiles(vals)
                print(f"| {w} | {label} | {med:.4g} | {q1:.4g} | {q3:.4g} | "
                      f"{(q3 - q1) / med:.3f} |")
        print(f"| {w} | attempted / failed | {sum(r['attempted'] for r in runs)} | | | "
              f"{sum(r['failed'] for r in runs)} failed |")


def compare(path_a, path_b):
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    print(f"\n| workload | metric | median {a['label']} | median {b['label']} | shift | bound |")
    print("|---|---|---|---|---|---|")
    for m in SPEC["end_to_end"]:
        for w in a["runs"]:
            ma = statistics.median(r["metrics"][m["name"]]["value"] for r in a["runs"][w])
            mb = statistics.median(r["metrics"][m["name"]]["value"] for r in b["runs"][w])
            print(f"| {w} | {m['name']} | {ma:.4g} | {mb:.4g} | {(mb - ma) / ma:+.3f} | "
                  f"{m['bound']} |")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar="LABEL")
    args = ap.parse_args()
    if args.compare:
        compare(*(HERE / "out" / f"sweep-{x}.json" for x in args.compare))
        return
    if not args.label:
        ap.error("--label is required unless --compare is given")
    summarize(sweep(args.label, _seeds(args.seeds), args.workloads.split(","), args.trace))


if __name__ == "__main__":
    main()

"""One benchmark process: build a workload's inputs, run it as a closed loop
of one caller, then check its outputs.

Started by run.py from the root of a checkout whose src/ holds parareach:

    python3 perfbench/worker.py --workload W --seed N --setup-only
    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 --work DIR

It prints READY once the inputs are built (run.py times set-up up to that
line) and then, unless --setup-only, one JSON line of results.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import inputs


class Sec5Cli:
    """One CLI command per round, run in process through parareach.cli.main."""

    def __init__(self, workload: str, seed: int, work: Path):
        import parareach.cli  # noqa: F401  (set-up covers the CLI's imports)

        self.workload, self.seed, self.work = workload, seed, work
        self.ops = []          # (output directory, exit code, family built)
        self._family = None

    def start(self):
        """Keep the family each verify command builds, for its check."""
        if self.workload == "sec5-verify":
            import parareach.cli as cli

            build = cli.build_family

            def keep_family(*args, **kwargs):
                self._family = build(*args, **kwargs)
                return self._family

            cli.build_family = keep_family

    def round(self):
        import parareach.cli as cli

        out = self.work / f"op{len(self.ops)}"
        code = cli.main(inputs.sec5_argv(self.workload, self.seed, out))
        self.ops.append((out, code, self._family))
        self._family = None
        return 1, int(code != 0)

    def check(self):
        import checks

        if self.workload == "sec5-reach":
            return [p for out, code, _ in self.ops
                    for p in checks.sec5_reach(out, code, inputs.SEC5_TIME)]
        from parareach import membership_margins

        return [p for out, code, family in self.ops
                for p in checks.sec5_verify(out, code, inputs.SEC5_TIME, family,
                                            membership_margins)]

    def bytes_written(self):
        return sum(p.stat().st_size for p in self.work.rglob("*") if p.is_file())


class DrivenRides:
    """Per round: propagate the driven system to t=3, then ride the surface
    from each seeded start and trace the ride's endpoint back to the seed."""

    def __init__(self, seed: int):
        import parareach as pr

        u = pr.SampledSignal(inputs.DRIVEN_U_TIMES, inputs.DRIVEN_U_VALUES)
        self.system = pr.make_system(inputs.DRIVEN_A, inputs.DRIVEN_B,
                                     inputs.DRIVEN_BU, inputs.DRIVEN_M, u=u)
        self.seed_par = pr.Paraboloid(inputs.DRIVEN_E0, inputs.DRIVEN_F0,
                                      inputs.DRIVEN_G0)
        self.cfg = pr.IntegratorConfig(t_end=inputs.DRIVEN_T_END,
                                       **inputs.DRIVEN_TOLS)
        self.starts = [pr.AugmentedState(x, xq)
                       for x, xq in inputs.driven_starts(seed)]
        self.rounds = []

    def start(self):
        pass

    def round(self):
        import parareach as pr

        tvp = pr.propagate(self.seed_par, self.system, self.cfg)
        rides = []
        for X0 in self.starts:
            try:
                traj = pr.touching_trajectory(tvp, X0, self.system, self.cfg)
                back = pr.trace_back_to_seed(tvp, self.system, self.cfg,
                                             float(traj.grid[-1]), traj.x_samples[-1])
            except pr.ParareachError as e:
                print(f"ride from {X0} failed: {e!r}", file=sys.stderr)
                continue
            rides.append((X0, traj, back))
        self.rounds.append((tvp, rides))
        return len(self.starts), len(self.starts) - len(rides)

    def check(self):
        import checks
        import refs

        solution = refs.driven_solution()
        return [p for tvp, rides in self.rounds
                for p in checks.driven_round(tvp, rides, solution)]

    def bytes_written(self):
        return 0


def run_rounds(work, seconds: float, clock=None):
    """Whole rounds, one after another, until the next would likely end past
    ``seconds``; always at least one.  With a ``clock`` (calib.SpeedClock)
    each round is also scaled to the reference speed.  The peak resident set
    is read when the first round ends: later rounds repeat its work, and what
    they add is only the results kept for the checks."""
    rounds = {"wall": [], "cpu": [], "ref": [], "probes": []}
    attempted = failed = 0
    begin = time.perf_counter()
    while True:
        if clock:
            (a, f), wall, cpu, ref, probes = clock.time_round(work.round)
            rounds["ref"].append(ref)
            rounds["probes"].append(probes)
        else:
            t0, c0 = time.perf_counter(), time.process_time()
            a, f = work.round()
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        rounds["wall"].append(wall)
        rounds["cpu"].append(cpu)
        if len(rounds["wall"]) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted += a
        failed += f
        if time.perf_counter() - begin + wall > seconds:
            return rounds, attempted, failed, peak_rss_mb


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import parareach

    expected = (Path.cwd() / "src" / "parareach").resolve()
    if Path(parareach.__file__).resolve().parent != expected:
        print(f"parareach imported from {parareach.__file__}, not {expected}",
              file=sys.stderr)
        return 2
    if args.workload == "driven-rides":
        work = DrivenRides(args.seed)
    else:
        work = Sec5Cli(args.workload, args.seed, args.work)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    import numpy
    import calib
    import spans

    tracer = spans.Tracer().install() if args.trace else None
    clock = None if args.trace else calib.SpeedClock().install()
    work.start()
    rounds, attempted, failed, peak_rss_mb = run_rounds(work, args.seconds, clock)
    closed = list(tracer.spans) if tracer else []
    result = {
        "round_wall_s": rounds["wall"], "round_cpu_s": rounds["cpu"],
        "round_ref_s": rounds["ref"], "round_probes_s": rounds["probes"],
        "attempted": attempted, "failed": failed, "peak_rss_mb": peak_rss_mb,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__,
                     "scipy": sys.modules["scipy"].__version__},
    }
    if tracer:
        layers = spans.layer_metrics(closed, len(rounds["wall"]))
        layers["cli.bytes_written"] = (work.bytes_written() / len(rounds["wall"]), "B")
        result["layers"] = layers
        result["missing_spans"] = [n for n in spans.EXPECTED[args.workload]
                                   if not any(s["name"] == n for s in closed)]
        result["spans"] = closed
    result["problems"] = work.check()
    if not result["problems"] and args.work is not None:
        shutil.rmtree(args.work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

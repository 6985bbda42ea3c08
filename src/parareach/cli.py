"""Command-line entry point.

Subcommands: propagate (single paraboloid flow), reach (family + slices),
verify (Monte-Carlo soundness and coverage), examples (embedded presets).
Artifacts are written as CSV (plot-friendly) with JSON mirrors; all
randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import json
import sys as _sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .errors import ConfigError, ParareachError, RejectionStarvation
from .family import (build_family, check_assumptions, membership_margins,
                     mesh_points, reach_slice)
from .model import IqcSystem, Paraboloid, _count, _quantity, _within, system_from_json
from .oracle import OracleConfig, coverage, sample_admissible
from .presets import load_preset, preset_names
from .riccati import IntegratorConfig, propagate

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_ESCAPE = 2

SOUNDNESS_MARGIN_TOL = 1e-8


@dataclass
class RunConfig:
    """Validated inputs of one CLI run."""

    system: IqcSystem
    seed_paraboloid: Paraboloid
    times: list
    eps_q: float
    n_members: int
    gammas: Optional[list]
    gamma_spacing: Optional[str]        # None: build_family's defaults
    sampler_density: Optional[int]
    grid_window: tuple
    grid_points: int
    integrator: IntegratorConfig
    oracle: Optional[OracleConfig]      # verify only
    cells_per_dim: int
    out_dir: Path
    fmt: str
    preset_name: Optional[str] = None


def _parse_json_flag(text, what, convert):
    """``convert`` of ``text`` parsed as JSON; a ConfigError if either fails."""
    try:
        return convert(json.loads(text))
    except (TypeError, ValueError) as e:        # JSONDecodeError is a ValueError
        raise ConfigError(f"could not parse {what}: {e}") from e


def _with_flags(base: dict, **flags) -> dict:
    """``base`` with the flags set on the command line put over it."""
    return {**base, **{name: v for name, v in flags.items() if v is not None}}


def _build_config(args) -> RunConfig:
    preset = {}
    if args.example:
        preset = load_preset(args.example)
        system, seed = preset["system"], preset["seed"]
    elif args.system:
        path = Path(args.system)
        if not path.exists():
            raise ConfigError(f"system file not found: {path}")
        system = _parse_json_flag(path.read_text(), f"system file {path}", system_from_json)
        if args.e0 is None:
            raise ConfigError("--e0 is required with --system (plus --f0/--g0)")
        seed = Paraboloid(np.zeros((system.n, system.n)), np.zeros(system.n), 0.0)
    else:
        raise ConfigError("one of --example or --system is required")
    def seed_flag(text, flag):          # a JSON array of finite numbers
        return _parse_json_flag(text, flag, partial(_quantity, name=flag))

    seed_par = Paraboloid(      # the seed flags over the preset's or 0
        seed.E if args.e0 is None else seed_flag(args.e0, "--e0"),
        seed.f if args.f0 is None else seed_flag(args.f0, "--f0"),
        seed.g if args.g0 is None else float(_quantity(args.g0, "--g0")))

    def pick(flag, key, fallback):
        return flag if flag is not None else preset.get(key, fallback)

    # flags over the preset over the library's defaults
    integrator = IntegratorConfig(
        **_with_flags(preset.get("integrator", {}), max_step=args.max_step,
                      t_end=pick(args.t_end, "t_end", None), escape_norm=args.escape_norm))
    t_end = integrator.t_end
    oracle = None
    if args.command == "verify":
        oracle = OracleConfig(
            **_with_flags({"n_trajectories": 2000, **preset.get("oracle", {})},
                          n_trajectories=args.n, segments=args.segments,
                          w_scale=args.w_scale, seed=args.seed),
            t_end=t_end)

    times = [float(t) for t in (args.time or preset.get("times", [t_end]))]
    if args.command != "propagate":
        _within(times, t_end, "times")
    if args.gammas:
        try:
            gammas = [float(g) for g in args.gammas.split(",") if g.strip()]
        except ValueError as e:
            raise ConfigError(f"--gammas must be numbers, got {args.gammas}") from e
        _quantity(gammas, "--gammas")
    else:               # an explicit member count drops the preset's scalings
        gammas = None if args.members is not None else preset.get("gammas")

    window = preset.get("grid_window", ([-2.0] * system.n, [2.0] * system.n))
    if args.window is not None:
        half = float(_quantity(args.window, "--window", "positive"))
        window = ([-half] * system.n, [half] * system.n)

    grid_points = _count(pick(args.grid_points, "grid_points", 61), "--grid-points")
    cells = _count(args.cells, "--cells")
    eps_q = float(_quantity(pick(args.eps_q, "eps_q", 1e-3 * max(abs(seed_par.g), 1e-6)),
                            "--eps-q", "positive"))

    return RunConfig(
        system=system, seed_paraboloid=seed_par, times=times, eps_q=eps_q,
        n_members=pick(args.members, "n_members", 16), gammas=gammas,
        gamma_spacing=pick(args.gamma_spacing, "gamma_spacing", None),
        sampler_density=preset.get("sampler_density"),
        grid_window=window, grid_points=grid_points,
        integrator=integrator, oracle=oracle, cells_per_dim=cells,
        out_dir=Path(args.out), fmt=args.format, preset_name=args.example)


def _grid_from_window(rc: RunConfig):
    lo, hi = rc.grid_window
    return mesh_points([np.linspace(lo[d], hi[d], rc.grid_points) for d in range(rc.system.n)])


def _write(rc: RunConfig, name: str, text: str):
    rc.out_dir.mkdir(parents=True, exist_ok=True)
    path = rc.out_dir / name
    path.write_text(text)
    return path


def _write_json(rc: RunConfig, name: str, obj):
    return _write(rc, name, json.dumps(obj, indent=2) + "\n")


def _names(prefix: str, count: int) -> list:
    return [f"{prefix}_{i}" for i in range(count)]


def _format_rows(rc: RunConfig, rows) -> list:
    """The rows of a 2-D float array as a table holds them: lists of floats
    for ``--format json``, CSV lines of each value's ``repr`` otherwise."""
    rows = np.asarray(rows, dtype=float)
    if rc.fmt == "json":
        return rows.tolist()
    values = map(repr, rows.ravel().tolist())
    return list(map(",".join, zip(*[values] * rows.shape[1])))     # k values a line


def _write_table(rc: RunConfig, stem: str, columns: list, rows: list):
    """Write formatted rows as ``stem.csv`` (a header line, then the rows) or
    as ``stem.json`` holding ``{"columns", "rows"}``."""
    if rc.fmt == "json":
        _write_json(rc, f"{stem}.json", {"columns": columns, "rows": rows})
    else:
        _write(rc, f"{stem}.csv", "\n".join([",".join(columns)] + rows) + "\n")


def _family(rc: RunConfig):
    return build_family(rc.seed_paraboloid, rc.system, rc.eps_q, rc.n_members,
                        rc.integrator, gammas=rc.gammas,
                        **_with_flags({}, spacing=rc.gamma_spacing,
                                      sampler_density=rc.sampler_density))


def cmd_propagate(rc: RunConfig) -> int:
    tvp = propagate(rc.seed_paraboloid, rc.system, rc.integrator)
    n = tvp.n
    rows = np.column_stack([tvp.grid, tvp.E_samples.reshape(len(tvp.grid), -1),
                            tvp.f_samples, tvp.g_samples])
    _write_table(rc, "tvp", ["t"] + [f"E_{i}{j}" for i in range(n) for j in range(n)]
                 + _names("f", n) + ["g"], _format_rows(rc, rows))
    E, f, g = tvp.params_at(tvp.t_end)
    manifest = {
        "t_end_requested": rc.integrator.t_end,
        "t_end_reached": tvp.t_end,
        "escape_time": tvp.escape_time,
        "n_grid_points": int(len(tvp.grid)),
        "final": {"t": tvp.t_end, "E": E.tolist(), "f": f.tolist(), "g": g},
        "seed": {"E": rc.seed_paraboloid.E.tolist(),
                 "f": rc.seed_paraboloid.f.tolist(),
                 "g": rc.seed_paraboloid.g},
        "preset": rc.preset_name,
    }
    _write_json(rc, "manifest.json", manifest)
    return EXIT_OK if tvp.escape_time is None else EXIT_ESCAPE


def cmd_reach(rc: RunConfig) -> int:
    fam = _family(rc)
    grid = _grid_from_window(rc)
    report = check_assumptions(fam, rc.integrator, probe_grid=grid,
                               max_rim_points=6)
    columns = _names("x", rc.system.n) + ["xq_max", "argmin_gamma"]
    tube = []           # the slices' formatted rows, each led by its t
    for t in rc.times:
        slc = reach_slice(fam, t, grid)
        rows = _format_rows(rc, np.column_stack([slc.x_grid, slc.xq_max, slc.argmin_gamma]))
        _write_table(rc, f"slice_t{t:g}".replace(".", "p"), columns, rows)
        tube += ([[t] + row for row in rows] if rc.fmt == "json"
                 else [f"{t!r},{row}" for row in rows])
    _write_table(rc, "tube", ["t"] + columns, tube)
    _write_json(rc, "family_manifest.json", fam.to_manifest(report))
    return EXIT_OK


def cmd_verify(rc: RunConfig) -> int:
    fam = _family(rc)
    sample_times = sorted(set(rc.times))
    samples = sample_admissible(rc.system, rc.seed_paraboloid, rc.oracle, family=fam,
                                sample_times=sample_times)
    if not len(samples):
        raise RejectionStarvation(
            f"no admissible trajectory among {rc.oracle.n_trajectories} draws")
    violations = []
    worst = -np.inf
    for t in sample_times:
        k = int(np.argmin(np.abs(samples.times - t)))
        xs, xqs = samples.x[k], samples.x_q[k]
        margins = membership_margins(fam, t, xs, xqs)
        worst = max(worst, float(margins.max()))
        for j in np.nonzero(margins > SOUNDNESS_MARGIN_TOL)[0]:
            violations.append({"t": float(t), "x": xs[j].tolist(),
                               "x_q": float(xqs[j]), "margin": float(margins[j])})

    t_cov = sample_times[-1]
    k = int(np.argmin(np.abs(samples.times - t_cov)))
    cov = coverage(fam, t_cov, samples.x[k], cells_per_dim=rc.cells_per_dim)

    _write_table(rc, "endpoints", _names("x", rc.system.n) + ["x_q"],
                 _format_rows(rc, np.column_stack([samples.x[k], samples.x_q[k]])))
    _write_json(rc, "coverage.json", cov.to_json())
    report = {
        "n_requested": rc.oracle.n_trajectories,
        "n_admissible": len(samples),
        "check_times": list(map(float, sample_times)),
        "worst_margin": worst,
        "margin_tolerance": SOUNDNESS_MARGIN_TOL,
        "n_violations": len(violations),
        "violations": violations[:100],
        "coverage_fraction": cov.fraction,
        "coverage_time": float(t_cov),
        "seed": rc.oracle.seed,
    }
    _write_json(rc, "verify_report.json", report)
    return EXIT_OK if not violations else EXIT_ERROR


def cmd_examples(args) -> int:
    if args.show:
        preset = load_preset(args.show)
        out = {
            "name": args.show,
            "system": preset["system"].to_json(),
            "seed_paraboloid": {"E": preset["seed"].E.tolist(),
                                "f": preset["seed"].f.tolist(),
                                "g": preset["seed"].g},
            **{key: preset[key] for key in
               ("t_end", "times", "eps_q", "n_members", "gamma_spacing")},
        }
        print(json.dumps(out, indent=2))
    else:
        for name in preset_names():
            print(name)
    return EXIT_OK


def _add_common(sp):
    sp.add_argument("--system", help="system JSON file")
    sp.add_argument("--example", help=f"embedded preset ({', '.join(preset_names())})")
    sp.add_argument("--e0", help="seed quadratic coefficient, JSON matrix")
    sp.add_argument("--f0", help="seed linear coefficient, JSON vector")
    sp.add_argument("--g0", type=float, help="seed offset")
    sp.add_argument("--t-end", dest="t_end", type=float, help="horizon")
    sp.add_argument("--time", type=float, action="append",
                    help="evaluation time (repeatable)")
    sp.add_argument("--max-step", dest="max_step", type=float)
    sp.add_argument("--escape-norm", dest="escape_norm", type=float)
    sp.add_argument("--gammas", help="explicit comma-separated scalings")
    sp.add_argument("--members", type=int, help="family size")
    sp.add_argument("--eps-q", dest="eps_q", type=float, help="rim slab thickness")
    sp.add_argument("--gamma-spacing", dest="gamma_spacing",
                    choices=("uniform", "log"))
    sp.add_argument("--grid-points", dest="grid_points", type=int)
    sp.add_argument("--window", type=float,
                    help="half-width of the symmetric evaluation window")
    sp.add_argument("--n", type=int, help="oracle trajectory draws")
    sp.add_argument("--segments", type=int, help="disturbance segments")
    sp.add_argument("--w-scale", dest="w_scale", type=float)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--cells", type=int, default=10, help="coverage cells per dim")
    sp.add_argument("--out", default="parareach_out", help="output directory")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")


class _Parser(argparse.ArgumentParser):
    """Usage errors are ConfigErrors: exit 1, as for any bad flag."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def main(argv=None) -> int:
    parser = _Parser(
        prog="parareach",
        description="Reachable sets of LTI systems under integral quadratic "
                    "constraints, via time-varying paraboloids.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("propagate", cmd_propagate), ("reach", cmd_reach),
                     ("verify", cmd_verify)):
        sp = sub.add_parser(name)
        _add_common(sp)
        sp.set_defaults(fn=fn)
    spx = sub.add_parser("examples")
    spx.add_argument("--show", help="print one preset as JSON")
    spx.set_defaults(fn=None)

    try:
        args = parser.parse_args(argv)
        if args.command == "examples":
            return cmd_examples(args)
        rc = _build_config(args)
        return args.fn(rc)
    except ParareachError as e:
        msg = {"error": type(e).__name__, "message": str(e)}
        print(f"error: {json.dumps(msg)}", file=_sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())

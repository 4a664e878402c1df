"""Command line interface: experiment configs in, CSV/JSON records out.

Configs are plain-text key=value files with [section] headers; command-line
flags override file values.  Every command writes deterministic CSV records
(floats at 12 significant digits); solve, scan and sample also write a JSON
record of their result's fields, whose meta block is the only place a
timestamp appears.

Exit codes: 0 success, 1 internal error, 2 infeasible/unconverged, 3 config
error (a bad config file, an unknown section or key, an unreadable profile
CSV, or input the library rejects with ValueError).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import ensemble, functional, potential, solver, transition

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INFEASIBLE = 2
EXIT_CONFIG = 3

SCHEMA_VERSION = 1

# the keys each config section takes
SECTION_KEYS = {"potential": potential.CONFIG_KEYS, "solver": {"grid"},
                "window": {"xi", "rho", "delta", "deltas"},
                "run": {"n", "steps", "chains", "seed"}}


class ConfigError(ValueError):
    """Raised for unparseable or inconsistent run configuration."""


class InfeasibleError(RuntimeError):
    """Raised when a requested computation has no converged answer."""


def fmt(x) -> str:
    return f"{float(x):.12g}"


def parse_config(text: str) -> dict:
    """Parse [section] key=value text into nested dicts, tracking line numbers."""
    sections: dict[str, dict[str, str]] = {}
    current = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"config line {ln}: expected key=value, got {raw.strip()!r}")
        if current is None:
            raise ConfigError(f"config line {ln}: key=value outside any [section]")
        key, val = line.split("=", 1)
        sections[current][key.strip()] = val.strip()
    return sections


def load_config(path: str | None) -> dict:
    """Read and parse a config file, refusing sections and keys no command reads."""
    if path is None:
        return {}
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    sections = parse_config(p.read_text())
    for name, block in sections.items():
        if name not in SECTION_KEYS:
            raise ConfigError(f"unknown config section [{name}]")
        for key in block:
            if key not in SECTION_KEYS[name]:
                raise ConfigError(f"unknown key in [{name}]: {key}")
    return sections


def _potential_from(sections: dict) -> potential.Potential:
    block = sections.get("potential")
    if not block:
        raise ConfigError("missing [potential] section")
    try:
        return potential.from_mapping(block)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad [potential] section: {exc}") from exc


def _get(sections, section, key, cast, default=None, flag=None):
    if flag is not None:
        return cast(flag)
    block = sections.get(section, {})
    if key in block:
        try:
            return cast(block[key])
        except ValueError as exc:
            raise ConfigError(f"bad value for [{section}] {key}: {exc}") from exc
    if default is None:
        raise ConfigError(f"missing [{section}] {key} (no flag given)")
    return default


def _out_dir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _read_profile(path: str) -> functional.OccupancyProfile:
    """Read a cell_center,value CSV; a missing or unparseable one is a config error."""
    try:
        return functional.profile_from_csv(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"unreadable profile CSV {path}: {exc}") from exc


def _json_record(result) -> str:
    """A result dataclass as strict JSON: its fields between schema_version and meta."""
    record = {"schema_version": SCHEMA_VERSION, **_plain(result),
              "meta": {"created_unix": time.time()}}
    return json.dumps(record, indent=2, allow_nan=False) + "\n"


def _plain(obj):
    """JSON-ready copy: a dataclass becomes the dict of its fields, arrays and
    tuples become lists, numpy scalars Python values, and a non-finite float
    its repr ("nan", "inf", "-inf"), so the JSON stays standard."""
    if dataclasses.is_dataclass(obj):
        return {f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


# --- commands ---------------------------------------------------------------

def cmd_lambda(args, sections, pot) -> int:
    lam = potential.integrated_interaction(pot)
    print(fmt(lam))
    (_out_dir(args) / "lambda.csv").write_text("lambda\n" + fmt(lam) + "\n")
    return EXIT_OK


def cmd_solve(args, sections, pot) -> int:
    m = _get(sections, "solver", "grid", int, default=solver.DEFAULT_GRID, flag=args.grid)
    xi_t = _get(sections, "window", "xi", float, flag=args.xi)
    rho = _get(sections, "window", "rho", float, flag=args.rho)
    result = solver.solve_entropy(pot, xi_t, rho, m=m)
    out = _out_dir(args)
    (out / "solve_result.json").write_text(_json_record(result))
    (out / "profile.csv").write_text(functional.profile_to_csv(result.profile))
    print(f"converged={'true' if result.converged else 'false'} "
          f"branch={result.branch} S={fmt(result.entropy_S)} "
          f"beta={fmt(result.multipliers.beta)} mu={fmt(result.multipliers.mu)}")
    return EXIT_OK if result.converged else EXIT_INFEASIBLE


def cmd_scan(args, sections, pot) -> int:
    m = _get(sections, "solver", "grid", int, default=solver.DEFAULT_GRID, flag=args.grid)
    rho = _get(sections, "window", "rho", float, flag=args.rho)
    raw = args.deltas or sections.get("window", {}).get("deltas", "")
    deltas = [float(tok) for tok in str(raw).split(",") if tok.strip()]
    if not deltas:
        raise ConfigError("scan needs a nonempty comma-separated delta list")
    try:
        scan = transition.scan_transition(pot, rho, deltas, m=m)
    except transition.UnscannableCurve as exc:
        raise InfeasibleError(str(exc)) from exc
    out = _out_dir(args)
    (out / "scan.csv").write_text(transition.scan_to_csv(scan))
    (out / "scan_summary.json").write_text(_json_record(scan))
    print(f"kink_ok={'true' if scan.kink_ok else 'false'} "
          f"left_slope={fmt(scan.left_slope)} right_slope={fmt(scan.right_slope)} "
          f"bound={fmt(scan.kink_lower_bound)}")
    return EXIT_OK if scan.kink_ok else EXIT_INFEASIBLE


def _window_from(sections, args) -> ensemble.EnsembleWindow:
    xi_t = _get(sections, "window", "xi", float, flag=args.xi)
    rho = _get(sections, "window", "rho", float, flag=args.rho)
    delta = _get(sections, "window", "delta", float, default=0.01, flag=args.delta)
    return ensemble.EnsembleWindow(xi=xi_t, rho=rho, delta=delta)


def cmd_sample(args, sections, pot) -> int:
    window = _window_from(sections, args)
    n = _get(sections, "run", "n", int, flag=args.n)
    steps = _get(sections, "run", "steps", int, default=20000, flag=args.steps)
    chains = _get(sections, "run", "chains", int, default=4, flag=args.chains)
    seed = _get(sections, "run", "seed", int, default=1, flag=args.seed)
    init = _read_profile(args.init_profile) if args.init_profile else None
    try:
        stats = ensemble.mcmc_sample(n, pot, window, steps, chains, seed, init=init)
    except RuntimeError as exc:  # the anneal found no state in the energy window
        raise InfeasibleError(str(exc)) from exc
    out = _out_dir(args)
    (out / "mcmc_stats.json").write_text(_json_record(stats))
    (out / "mean_profile.csv").write_text(functional.profile_to_csv(stats.mean_profile))
    print(f"acceptance_rate={fmt(stats.acceptance_rate)} "
          f"stuck={'true' if stats.stuck_warning else 'false'}")
    return EXIT_OK


def cmd_enumerate(args, sections, pot) -> int:
    window = _window_from(sections, args)
    n = _get(sections, "run", "n", int, flag=args.n)
    count, emp_S = ensemble.enumerate_entropy(n, pot, window)
    record = ensemble.enumeration_record(n, count, emp_S)
    print(record)
    (_out_dir(args) / "enumeration.csv").write_text(
        "n,count,total,empirical_S\n" + record + "\n")
    return EXIT_OK


def cmd_feasibility(args, sections, pot) -> int:
    rho = _get(sections, "window", "rho", float, flag=args.rho)
    probe = transition.feasibility_probe(pot, rho)
    verdict = "interior" if probe.interior else "not-certified"
    print(f"xi1={fmt(probe.xi1)} xi2={fmt(probe.xi2)} xi3={fmt(probe.xi3)} {verdict}")
    (_out_dir(args) / "feasibility.csv").write_text(
        "xi1,xi2,xi3,interior\n"
        f"{fmt(probe.xi1)},{fmt(probe.xi2)},{fmt(probe.xi3)},"
        f"{'true' if probe.interior else 'false'}\n")
    return EXIT_OK if probe.interior else EXIT_INFEASIBLE


def cmd_eval(args, sections, pot) -> int:
    if not args.profile:
        raise ConfigError("eval needs --profile pointing at a cell_center,value CSV")
    prof = _read_profile(args.profile)
    K = potential.cell_kernel(pot, prof.m)
    h = functional.entropy_H(prof)
    x = functional.xi(prof, K)
    dens = functional.density_N(prof)
    print(f"H={fmt(h)} xi={fmt(x)} N={fmt(dens)}")
    (_out_dir(args) / "eval.csv").write_text(
        "H,xi,N\n" + ",".join((fmt(h), fmt(x), fmt(dens))) + "\n")
    return EXIT_OK


# --- argument plumbing -------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latgas",
        description="long-range lattice gas entropy and transition numerics")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file with [section] headers")
        p.add_argument("--out", help="output directory (default: current)")

    p = sub.add_parser("lambda", help="print the integrated interaction")
    common(p)
    p.set_defaults(fn=cmd_lambda)

    p = sub.add_parser("solve", help="entropy-maximizing profile at (xi, rho)")
    common(p)
    p.add_argument("--grid", type=int, help="profile grid size m")
    p.add_argument("--xi", type=float)
    p.add_argument("--rho", type=float)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("scan", help="entropy scan across the transition curve")
    common(p)
    p.add_argument("--grid", type=int, help="profile grid size m")
    p.add_argument("--rho", type=float)
    p.add_argument("--deltas", help="comma-separated offsets from the curve")
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("sample", help="window-constrained Monte Carlo sampling")
    common(p)
    p.add_argument("--xi", type=float)
    p.add_argument("--rho", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--chains", type=int)
    p.add_argument("--init-profile", help="CSV profile used to seed the chains")
    p.add_argument("--seed", type=int, help="64-bit RNG seed")
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("enumerate", help="exact window enumeration on a small lattice")
    common(p)
    p.add_argument("--xi", type=float)
    p.add_argument("--rho", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--n", type=int)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("feasibility", help="closed-form feasibility window at rho")
    common(p)
    p.add_argument("--rho", type=float)
    p.set_defaults(fn=cmd_feasibility)

    p = sub.add_parser("eval", help="evaluate H, xi, N on a profile CSV")
    common(p)
    p.add_argument("--profile", help="path to a cell_center,value CSV")
    p.set_defaults(fn=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        sections = load_config(args.config)
        return args.fn(args, sections, _potential_from(sections))
    except ValueError as exc:  # ConfigError and the library's input checks
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

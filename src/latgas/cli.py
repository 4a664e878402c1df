"""Command line interface: experiment configs in, CSV/JSON records out.

Configs are plain-text key=value files with [section] headers.  Each setting
is declared once, in SETTINGS: it is a flag of each command that reads it and
a key of its section, and the flag wins.  The [potential] block is read once,
by read_potential: its kind names the keys it takes (POTENTIAL_KEYS).  Every
CSV record is written by functional.csv_text (floats at 12 significant
digits); solve, scan and sample also write a JSON record of their result's
fields, whose meta block is the only place a timestamp appears.

Exit codes: 0 success, 1 internal error, 2 infeasible/unconverged, 3 config
error (a bad config file, an unknown section or key, a [potential] key of
another kind, an unreadable profile CSV, an --out that cannot be made a
directory, or input the library rejects with ValueError).  main makes the
--out directory before the command runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import math
import sys
import time
from collections.abc import Mapping
from pathlib import Path

import numpy as np

from . import ensemble, functional, potential, solver, transition

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INFEASIBLE = 2
EXIT_CONFIG = 3

SCHEMA_VERSION = 1

# name -> (config section, type, default or None when required, flag help)
SETTINGS = {
    "grid": ("solver", int, solver.DEFAULT_GRID, "profile grid size m"),
    "xi": ("window", float, None, "energy xi (the window centre for sample and enumerate)"),
    "rho": ("window", float, None, "particle density rho"),
    "delta": ("window", float, 0.01, "half-width of the energy and density window"),
    "deltas": ("window", str, "", "comma-separated offsets from the curve"),
    "n": ("run", int, None, "lattice sites"),
    "steps": ("run", int, 20000, "proposals per chain"),
    "chains": ("run", int, 4, "independent chains"),
    "seed": ("run", int, 1, "64-bit RNG seed"),
}

# the keys each settings section takes
SECTION_KEYS = {section: {key for key, row in SETTINGS.items() if row[0] == section}
                for section, *_ in SETTINGS.values()}

# the [potential] keys each kind reads besides kind; any kind also takes the
# legacy periodic (true only) and d (1 only)
POTENTIAL_KEYS = {potential.POWER_PLATEAU: ("r", "M"), potential.CONSTANT: ("J",),
                  potential.TABULATED: ("samples",)}


class ConfigError(ValueError):
    """Raised for unparseable or inconsistent run configuration."""


def fmt(x) -> str:
    return format(float(x), functional.FLOAT_FORMAT)


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
        key, val = (part.strip() for part in line.split("=", 1))
        if key in sections[current]:
            raise ConfigError(f"config line {ln}: [{current}] {key} is given a second time")
        sections[current][key] = val
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
        if name == "potential":
            continue  # its keys depend on its kind: read_potential checks them
        if name not in SECTION_KEYS:
            raise ConfigError(f"unknown config section [{name}]")
        for key in block:
            if key not in SECTION_KEYS[name]:
                raise ConfigError(f"unknown key in [{name}]: {key}")
    return sections


def read_potential(sections: dict) -> potential.Potential:
    """The Potential of the [potential] block.

    The block holds kind and the keys of that kind in POTENTIAL_KEYS, plus the
    optional periodic (true, 1 or yes) and d (1); a missing key or any other
    one, of another kind too, is refused, so none is silently ignored.
    Tabulated knots are written t:value;t:value;...  Potential checks values.
    """
    block = sections.get("potential")
    if not block:
        raise ConfigError("missing [potential] section")
    kind = block.get("kind")
    if kind not in POTENTIAL_KEYS:
        raise ConfigError(f"[potential] kind must be one of {', '.join(POTENTIAL_KEYS)}, "
                          f"got {kind!r}")
    keys = POTENTIAL_KEYS[kind]
    if block.keys() - {"periodic", "d"} != {"kind", *keys}:
        raise ConfigError(f"[potential] of kind {kind} needs the keys kind, {', '.join(keys)} "
                          f"(periodic and d optional), got {', '.join(block)}")
    try:
        if block.get("periodic", "true").lower() not in ("true", "1", "yes"):
            raise ValueError(f"only periodic boundaries are supported, "
                             f"got periodic = {block['periodic']!r}")
        if int(block.get("d", "1")) != 1:
            raise ValueError(f"potentials are one dimensional, got d = {block['d']}")
        if kind == potential.TABULATED:
            knots = (item.split(":") for item in block["samples"].split(";"))
            return potential.Potential.tabulated([(float(t), float(v)) for t, v in knots])
        return potential.Potential(kind, **{key: float(block[key]) for key in keys})
    except ValueError as exc:
        raise ConfigError(f"bad [potential] section: {exc}") from exc


def _settings(args, sections) -> dict:
    """The settings the command reads, in its order: each the flag if given,
    else the config value, else the default."""
    values = {}
    for key in args.settings:
        section, cast, default, _ = SETTINGS[key]
        values[key] = getattr(args, key)
        if values[key] is None:
            raw = sections.get(section, {}).get(key)
            if raw is None and default is None:
                raise ConfigError(f"missing [{section}] {key} (no flag given)")
            try:
                values[key] = default if raw is None else cast(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for [{section}] {key}: {exc}") from exc
    return values


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
    """JSON-ready copy: a dataclass becomes the dict of its fields, any mapping
    (a solver certificate too) a dict, arrays and tuples lists, numpy scalars
    Python values, and a non-finite float its repr ("nan", "inf", "-inf"), so
    the JSON stays standard."""
    if dataclasses.is_dataclass(obj):
        return {f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, Mapping):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


# --- commands ---------------------------------------------------------------

def cmd_lambda(args, pot) -> int:
    lam = potential.integrated_interaction(pot)
    print(fmt(lam))
    (args.out / "lambda.csv").write_text(functional.csv_text("lambda", [(lam,)]))
    return EXIT_OK


def cmd_solve(args, pot, grid, xi, rho) -> int:
    result = solver.solve_entropy(pot, xi, rho, m=grid)
    (args.out / "solve_result.json").write_text(_json_record(result))
    (args.out / "profile.csv").write_text(functional.profile_to_csv(result.profile))
    print(f"converged={'true' if result.converged else 'false'} "
          f"branch={result.branch} S={fmt(result.entropy_S)} "
          f"beta={fmt(result.multipliers.beta)} mu={fmt(result.multipliers.mu)}")
    return EXIT_OK if result.converged else EXIT_INFEASIBLE


def cmd_scan(args, pot, grid, rho, deltas) -> int:
    deltas = [float(tok) for tok in deltas.split(",") if tok.strip()]
    scan = transition.scan_transition(pot, rho, deltas, m=grid)
    (args.out / "scan.csv").write_text(functional.csv_text(
        "xi,S,branch,beta,mu,converged",
        [(p.xi_target, p.S, p.branch, p.beta, p.mu, p.converged) for p in scan.points]))
    (args.out / "scan_summary.json").write_text(_json_record(scan))
    print(f"kink_ok={'true' if scan.kink_ok else 'false'} "
          f"left_slope={fmt(scan.left_slope)} right_slope={fmt(scan.right_slope)} "
          f"bound={fmt(scan.kink_lower_bound)}")
    return EXIT_OK if scan.kink_ok else EXIT_INFEASIBLE


def cmd_sample(args, pot, xi, rho, delta, n, steps, chains, seed) -> int:
    window = ensemble.EnsembleWindow(xi=xi, rho=rho, delta=delta)
    init = _read_profile(args.init_profile) if args.init_profile else None
    stats = ensemble.mcmc_sample(n, pot, window, steps, chains, seed, init=init)
    (args.out / "mcmc_stats.json").write_text(_json_record(stats))
    (args.out / "mean_profile.csv").write_text(functional.profile_to_csv(stats.mean_profile))
    print(f"acceptance_rate={fmt(stats.acceptance_rate)} "
          f"stuck={'true' if stats.stuck_warning else 'false'}")
    return EXIT_OK


def cmd_enumerate(args, pot, xi, rho, delta, n) -> int:
    window = ensemble.EnsembleWindow(xi=xi, rho=rho, delta=delta)
    count, emp_S = ensemble.enumerate_entropy(n, pot, window)
    text = functional.csv_text("n,count,total,empirical_S", [(n, count, 1 << n, emp_S)])
    print(text.partition("\n")[2], end="")
    (args.out / "enumeration.csv").write_text(text)
    return EXIT_OK


def cmd_feasibility(args, pot, rho) -> int:
    probe = transition.feasibility_probe(pot, rho)
    verdict = "interior" if probe.interior else "not-certified"
    print(f"xi1={fmt(probe.xi1)} xi2={fmt(probe.xi2)} xi3={fmt(probe.xi3)} {verdict}")
    (args.out / "feasibility.csv").write_text(functional.csv_text(
        "xi1,xi2,xi3,interior", [(*probe.as_tuple(), probe.interior)]))
    return EXIT_OK if probe.interior else EXIT_INFEASIBLE


def cmd_eval(args, pot) -> int:
    if not args.profile:
        raise ConfigError("eval needs --profile pointing at a cell_center,value CSV")
    prof = _read_profile(args.profile)
    K = potential.cell_kernel(pot, prof.m)
    h = functional.entropy_H(prof)
    x = functional.xi(prof, K)
    dens = functional.density_N(prof)
    print(f"H={fmt(h)} xi={fmt(x)} N={fmt(dens)}")
    (args.out / "eval.csv").write_text(functional.csv_text("H,xi,N", [(h, x, dens)]))
    return EXIT_OK


# --- argument plumbing -------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latgas",
        description="long-range lattice gas entropy and transition numerics")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = (
        ("lambda", cmd_lambda, "print the integrated interaction"),
        ("solve", cmd_solve, "entropy-maximizing profile at (xi, rho)"),
        ("scan", cmd_scan, "entropy scan across the transition curve"),
        ("sample", cmd_sample, "window-constrained Monte Carlo sampling"),
        ("enumerate", cmd_enumerate, "exact window enumeration on a small lattice"),
        ("feasibility", cmd_feasibility, "closed-form feasibility window at rho"),
        ("eval", cmd_eval, "evaluate H, xi, N on a profile CSV"),
    )
    for name, fn, summary in commands:
        # the settings a command reads are its parameters after (args, pot), in order
        settings = tuple(inspect.signature(fn).parameters)[2:]
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="key=value config file with [section] headers")
        p.add_argument("--out", type=Path, default=Path("."), help="output directory (default: .)")
        for key in settings:
            section, cast, _, flag_help = SETTINGS[key]
            p.add_argument(f"--{key}", type=cast, help=f"{flag_help} (or [{section}] {key})")
        p.set_defaults(fn=fn, settings=settings)
    sub.choices["sample"].add_argument("--init-profile",
                                       help="CSV profile used to seed the chains")
    sub.choices["eval"].add_argument("--profile", help="path to a cell_center,value CSV")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        sections = load_config(args.config)
        pot = read_potential(sections)
        settings = _settings(args, sections)
        try:
            args.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create the output directory {args.out}: {exc}") from exc
        return args.fn(args, pot, **settings)
    except (ensemble.UnreachableWindow, transition.UnscannableCurve) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValueError as exc:  # ConfigError and the library's input checks
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

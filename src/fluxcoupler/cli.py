"""Config parsing, the subcommand table, and bit-stable CSV emission.

Config format: line-oriented sections with `key = value` entries,

    [circuit]
    L_j = 817 pH
    beta_c = 0.43

Physical quantities require a unit; dimensionless ones forbid it.  Unknown
keys, a key given twice in one section, a branch named twice, malformed or
non-finite numbers, malformed grids, out-of-range integers, a critical
current given with its screening parameter and circuit values that
CircuitParams rejects are parse errors that name the line.  The [circuit]
values become a circuit through `circuit.circuit_from`.

Subcommands: spectrum, sweep-beta, sweep-flux, susceptibility, compare-swt,
gap-scan.  `_COMMANDS` gives each its `analysis` call, default grid and
other [sweep] keys read; the call runs and records every point and returns
a table that declares its own columns.  main writes it as one CSV with a `#`
comment header (tool version plus the resolved config the run read) and
12-significant-digit scientific rows with LF line endings, so identical
configs give byte-identical files.
A field holding a comma, a double quote or a line break is quoted (RFC 4180).
"""

import argparse
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .circuit import REFERENCE, CircuitParams, circuit_from
from .analysis import (BRANCHES, Truncations, sweep_beta, sweep_flux,
                       compare_swt, gap_scan, two_excitation_scan,
                       susceptibility_table)

_UNIT_SCALE = {
    "H": 1.0, "mH": 1e-3, "uH": 1e-6, "nH": 1e-9, "pH": 1e-12,
    "F": 1.0, "mF": 1e-3, "uF": 1e-6, "nF": 1e-9, "pF": 1e-12, "fF": 1e-15,
    "A": 1.0, "mA": 1e-3, "uA": 1e-6, "nA": 1e-9,
}

_PHYSICAL_KEYS = {
    "L_j": "H", "C_j": "F", "I_cj": "A", "M_j": "H",
    "L_c": "H", "C_c": "F", "I_cc": "A",
}
_DIMENSIONLESS_CIRCUIT = {"beta_c", "beta_j"}

_SCHEMA = {
    "circuit": set(_PHYSICAL_KEYS) | _DIMENSIONLESS_CIRCUIT,
    "truncation": {"qubit_states", "coupler_states", "n_keep"},
    "sweep": {"grid", "ratio_grid", "qubit_offsets", "common_mode"},
    "extraction": {"branches"},
    "output": {"precision"},
}


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    circuit: CircuitParams
    truncations: Truncations
    sweep: dict = field(default_factory=dict)
    branches: tuple = ("spectral_fit",)
    precision: int = 12


def _number(text, lineno):
    """The finite float that text spells.  Text float() cannot read, and the
    NaN and infinities it can, are ConfigErrors that name the line."""
    text = text.strip()
    try:
        x = float(text)
    except ValueError:
        raise ConfigError(f"line {lineno}: malformed number '{text}'") from None
    if not np.isfinite(x):
        raise ConfigError(f"line {lineno}: number '{text}' is not finite")
    return x


def _parse_quantity(key, value, lineno):
    parts = value.split()
    if key in _PHYSICAL_KEYS:
        if len(parts) != 2:
            raise ConfigError(
                f"line {lineno}: '{key}' requires a value with a unit "
                f"(dimension {_PHYSICAL_KEYS[key]})")
        num, unit = parts
        if unit not in _UNIT_SCALE:
            raise ConfigError(f"line {lineno}: unknown unit '{unit}' for '{key}'")
        return _number(num, lineno) * _UNIT_SCALE[unit]
    if len(parts) > 1:
        raise ConfigError(f"line {lineno}: '{key}' is dimensionless, no unit allowed")
    return _number(value, lineno)


def _parse_grid(text, lineno):
    """Grid spec: either 'start:stop:step' or a comma-separated list."""
    text = text.strip()
    if ":" in text:
        vals = [_number(x, lineno) for x in text.split(":")]
        if len(vals) == 3 and vals[2] > 0 and vals[1] >= vals[0]:
            start, stop, step = vals
            # the last point never passes stop, but one within rounding of
            # it is kept
            n = np.floor((stop - start) / step * (1.0 + 1e-9)) + 1
            try:
                return start + step * np.arange(int(n))
            except (OverflowError, ValueError, MemoryError):  # too many
                pass
    else:
        vals = np.array([_number(x, lineno) for x in text.split(",")])
        if np.all(np.diff(vals) > 0):
            return vals
    raise ConfigError(f"line {lineno}: malformed grid '{text}'")


def _builds(circ):
    try:
        circuit_from(circ)
    except ValueError:
        return False
    return True


def parse_config(text) -> RunConfig:
    sections = {name: {} for name in _SCHEMA}
    section = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section '{section}'")
            continue
        if section is None:
            raise ConfigError(f"line {lineno}: entry before any [section] header")
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SCHEMA[section]:
            raise ConfigError(f"line {lineno}: unknown key '{key}' in [{section}]")
        if key in sections[section]:
            raise ConfigError(f"line {sections[section][key][1]}, line "
                              f"{lineno}: {key!r} given twice in [{section}]")
        sections[section][key] = (value, lineno)

    given = sections["circuit"]
    # a critical current and its screening parameter say the same thing
    for pair in (("I_cc", "beta_c"), ("I_cj", "beta_j")):
        if set(pair) <= set(given):
            where = ", ".join(f"line {n}" for n in
                              sorted(given[key][1] for key in pair))
            raise ConfigError(f"{where}: give {pair[0]!r} or {pair[1]!r}, "
                              "not both")
    circ = dict(REFERENCE)
    for key, (value, lineno) in given.items():
        circ[key] = _parse_quantity(key, value, lineno)
    try:
        params = circuit_from(circ)
    except ValueError as exc:
        # name the given keys that fail on their own, with every other value
        # at its reference; if none does, it takes the given keys together
        keys = [key for key in given
                if not _builds({**REFERENCE, key: circ[key]})] or list(given)
        where = ", ".join(f"line {given[key][1]}" for key in keys)
        raise ConfigError(f"{where}: no valid circuit from "
                          f"{', '.join(map(repr, keys))} ({exc})") from None

    sizes = {}
    for key, (value, lineno) in sections["truncation"].items():
        try:
            sizes[key] = int(value)
        except ValueError:
            raise ConfigError(f"line {lineno}: '{key}' must be an integer")
    trunc = Truncations(**sizes)
    ranges = trunc.ranges()
    for key, (value, lineno) in sections["truncation"].items():
        lo, hi = ranges[key]
        if not lo <= sizes[key] <= hi:
            raise ConfigError(f"line {lineno}: '{key}' must be in [{lo}, {hi}]")

    sweep = {}
    for key, (value, lineno) in sections["sweep"].items():
        if key in ("grid", "ratio_grid"):
            sweep[key] = _parse_grid(value, lineno)
        elif key == "qubit_offsets":
            vals = np.array([_number(x, lineno) for x in value.split(",")])
            if vals.shape != (4,):
                raise ConfigError(
                    f"line {lineno}: qubit_offsets needs 4 comma-separated values")
            sweep[key] = vals
        else:
            if value.lower() not in ("true", "false"):
                raise ConfigError(f"line {lineno}: common_mode must be true/false")
            sweep[key] = value.lower() == "true"

    branches = RunConfig.branches
    for value, lineno in sections["extraction"].values():
        branches = tuple(b.strip() for b in value.split(","))
        bad = set(branches) - set(BRANCHES)
        if bad:
            raise ConfigError(f"line {lineno}: unknown branch {sorted(bad)}")
        for i, branch in enumerate(branches):
            if branch in branches[:i]:
                raise ConfigError(
                    f"line {lineno}: branch {branch!r} given twice")

    precision = RunConfig.precision
    for key, (value, lineno) in sections["output"].items():
        try:
            precision = int(value)
        except ValueError:
            raise ConfigError(f"line {lineno}: precision must be an integer")
        if precision < 1:
            raise ConfigError(f"line {lineno}: precision must be >= 1")

    return RunConfig(circuit=params, truncations=trunc, sweep=sweep,
                     branches=branches, precision=precision)


def _format_value(x, precision):
    if isinstance(x, str):
        if any(c in x for c in ',"\r\n'):
            return '"' + x.replace('"', '""') + '"'
        return x
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if x is None:
        return "nan"
    if isinstance(x, float) and not math.isfinite(x):
        return "nan" if math.isnan(x) else ("inf" if x > 0 else "-inf")
    return f"{float(x):.{precision - 1}e}"


def write_csv(path, columns, rows, cfg: RunConfig, subcommand):
    """Comment-headed CSV, 12-significant-digit scientific, LF, byte-stable."""
    lines = [f"# fluxcoupler {__version__}", f"# subcommand: {subcommand}",
             "# resolved config:"]
    lines.append(f"#   truncation: qubit_states={cfg.truncations.qubit_states} "
                 f"coupler_states={cfg.truncations.coupler_states} "
                 f"n_keep={cfg.truncations.n_keep}")
    c = cfg.circuit
    lines.append("#   circuit: L_j=%.6e H, C_j=%.6e F, I_cj=%.6e A, M_j=%.6e H,"
                 % (c.L_j[0], c.C_j[0], c.I_cj[0], c.M_j[0]))
    lines.append("#            L_c=%.6e H, C_c=%.6e F, I_cc=%.6e A"
                 % (c.L_c, c.C_c, c.I_cc))
    # the [sweep] keys that were set and that the subcommand reads
    reads = _COMMANDS[subcommand][3] if subcommand in _COMMANDS else ()
    sweep = [f"{k}={str(v).lower()}" if isinstance(v, bool)
             else f"{k}=" + ",".join(f"{x:.11e}" for x in v)
             for k, v in sorted(cfg.sweep.items()) if k in reads]
    if sweep:
        lines.append("#   sweep: " + " ".join(sweep))
    lines.append("# columns: " + ",".join(columns))
    for row in rows:
        lines.append(",".join(_format_value(row.get(col), cfg.precision)
                              for col in columns))
    data = "\n".join(lines) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(data)


_BETA_GRID = 0.02 + 0.02 * np.arange(30)   # 0.02 .. 0.60

# Each subcommand: its analysis call on the config and the grid, the
# [sweep] key and default of that grid, and the other [sweep] keys the call
# reads.  main writes the SweepResult it returns under its own columns.
_COMMANDS = {
    "spectrum": (lambda cfg, ratios: two_excitation_scan(
                     cfg.circuit, ratios, cfg.truncations),
                 "ratio_grid", 0.96 + 0.005 * np.arange(17), ()),
    "sweep-beta": (lambda cfg, grid: sweep_beta(
                       cfg.circuit, grid, cfg.truncations, cfg.branches),
                   "grid", _BETA_GRID, ()),
    "sweep-flux": (lambda cfg, grid: sweep_flux(
                       cfg.circuit, grid, cfg.sweep.get("qubit_offsets"),
                       cfg.sweep.get("common_mode", False), cfg.truncations,
                       cfg.branches),
                   "grid", -3e-3 + 2.5e-4 * np.arange(25),
                   ("common_mode", "qubit_offsets")),
    "susceptibility": (lambda cfg, _: susceptibility_table(cfg.circuit),
                       None, None, ()),
    "compare-swt": (lambda cfg, grid: compare_swt(
                        cfg.circuit, grid, cfg.truncations),
                    "grid", _BETA_GRID, ()),
    "gap-scan": (lambda cfg, grid: gap_scan(
                     cfg.circuit, grid, cfg.truncations),
                 "grid", 0.05 + 0.05 * np.arange(18), ()),   # 0.05 .. 0.90
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="fluxcoupler",
        description="Effective Ising couplings of a four-qubit flux coupler circuit")
    parser.add_argument("subcommand", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="path to a run config file")
    parser.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)

    try:
        if args.config:
            # utf-8-sig: a leading byte-order mark is not part of the config
            with open(args.config, encoding="utf-8-sig") as fh:
                cfg = parse_config(fh.read())
        else:
            cfg = parse_config("")
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        os.makedirs(args.out, exist_ok=True)
        call, key, grid, _ = _COMMANDS[args.subcommand]
        res = call(cfg, cfg.sweep.get(key, grid))
        write_csv(os.path.join(args.out,
                               args.subcommand.replace("-", "_") + ".csv"),
                  res.columns, res.rows, cfg, args.subcommand)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failures = [r for r in res.rows
                if any(str(v).startswith("error") for v in r.values())]
    if failures:
        print(f"{len(failures)} of {len(res.rows)} points failed",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

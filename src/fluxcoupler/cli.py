"""Config parsing, subcommand dispatch, and bit-stable CSV emission.

Config format: line-oriented sections with `key = value` entries,

    [circuit]
    L_j = 817 pH
    beta_c = 0.43

Physical quantities require a unit; dimensionless ones forbid it.  Unknown
keys, malformed grids and out-of-range integers are parse errors that name
the line.

Subcommands: spectrum, sweep-beta, sweep-flux, susceptibility, compare-swt,
gap-scan.  Each writes one CSV with a `#` comment header (tool version plus
the fully resolved config) and 12-significant-digit scientific rows with LF
line endings, so identical configs give byte-identical files.
"""

import argparse
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .circuit import (CircuitParams, critical_current_from_beta,
                      derive_unitless, rescaled_coupler_inductance)
from .analysis import (BRANCHES, Truncations, sweep_beta, sweep_flux,
                       compare_swt, susceptibility, with_beta_c, build_system)
from .hamiltonian import assemble_full
from .spectrum import eigendecompose, gap_diagnostics, two_excitation_splitting

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
        try:
            return float(num) * _UNIT_SCALE[unit]
        except ValueError:
            raise ConfigError(f"line {lineno}: malformed number '{num}' for '{key}'")
    if len(parts) != 1:
        raise ConfigError(f"line {lineno}: '{key}' is dimensionless, no unit allowed")
    try:
        return float(parts[0])
    except ValueError:
        raise ConfigError(f"line {lineno}: malformed number '{parts[0]}' for '{key}'")


def _parse_grid(text, lineno):
    """Grid spec: either 'start:stop:step' or a comma-separated list."""
    text = text.strip()
    try:
        if ":" in text:
            start, stop, step = (float(x) for x in text.split(":"))
            if step <= 0 or stop < start:
                raise ValueError
            n = int(round((stop - start) / step)) + 1
            return start + step * np.arange(n)
        vals = np.array([float(x) for x in text.split(",")])
        if vals.size == 0 or np.any(np.diff(vals) <= 0):
            raise ValueError
        return vals
    except ValueError:
        raise ConfigError(f"line {lineno}: malformed grid '{text}'") from None


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
        sections[section][key] = (value, lineno)

    circ = {}
    for key, (value, lineno) in sections["circuit"].items():
        circ[key] = _parse_quantity(key, value, lineno)

    defaults = {"L_j": 817e-12, "C_j": 77e-15, "M_j": 40e-12,
                "L_c": 170e-12, "C_c": 407e-15}
    for key, val in defaults.items():
        circ.setdefault(key, val)
    L_j = np.full(4, circ["L_j"])
    M_j = np.full(4, circ["M_j"])
    if "I_cj" in circ:
        I_cj = np.full(4, circ["I_cj"])
    else:
        I_cj = critical_current_from_beta(np.full(4, circ.get("beta_j", 1.1)), L_j)
    if "I_cc" in circ:
        I_cc = circ["I_cc"]
    else:
        I_cc = critical_current_from_beta(
            circ.get("beta_c", 0.43),
            rescaled_coupler_inductance(circ["L_c"], M_j, L_j))
    params = CircuitParams(L_j=L_j, C_j=np.full(4, circ["C_j"]), I_cj=I_cj,
                           M_j=M_j, L_c=circ["L_c"], C_c=circ["C_c"], I_cc=I_cc)

    trunc = Truncations()
    for key, (value, lineno) in sections["truncation"].items():
        try:
            setattr(trunc, key, int(value))
        except ValueError:
            raise ConfigError(f"line {lineno}: '{key}' must be an integer")
    ranges = trunc.ranges()
    for key, (value, lineno) in sections["truncation"].items():
        lo, hi = ranges[key]
        if not lo <= getattr(trunc, key) <= hi:
            raise ConfigError(f"line {lineno}: '{key}' must be in [{lo}, {hi}]")

    sweep = {}
    for key, (value, lineno) in sections["sweep"].items():
        if key in ("grid", "ratio_grid"):
            sweep[key] = _parse_grid(value, lineno)
        elif key == "qubit_offsets":
            try:
                vals = np.array([float(x) for x in value.split(",")])
                if vals.shape != (4,):
                    raise ValueError
            except ValueError:
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
        return x
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if x is None:
        return "nan"
    if isinstance(x, float) and not np.isfinite(x):
        return "nan" if np.isnan(x) else ("inf" if x > 0 else "-inf")
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
    lines.append("# columns: " + ",".join(columns))
    for row in rows:
        lines.append(",".join(_format_value(row.get(col), cfg.precision)
                              for col in columns))
    data = "\n".join(lines) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(data)


def _coupling_columns(branches):
    cols = []
    for b in branches:
        p = BRANCHES[b]
        cols += [f"{p}_J1", f"{p}_J2", f"{p}_J3", f"{p}_J4",
                 f"{p}_residual", f"{p}_status"]
    return cols


def _default_beta_grid(cfg):
    grid = cfg.sweep.get("grid")
    if grid is None:
        grid = 0.02 + 0.02 * np.arange(30)   # 0.02 .. 0.60
    return grid


def cmd_sweep_beta(cfg, outdir):
    grid = _default_beta_grid(cfg)
    res = sweep_beta(cfg.circuit, grid, cfg.truncations, branches=cfg.branches)
    cols = (["beta_c"] + _coupling_columns(cfg.branches)
            + ["delta_gap", "delta_max"])
    write_csv(os.path.join(outdir, "sweep_beta.csv"), cols, res.rows, cfg,
              "sweep-beta")
    return res.rows


def cmd_sweep_flux(cfg, outdir):
    grid = cfg.sweep.get("grid")
    if grid is None:
        grid = -3e-3 + 2.5e-4 * np.arange(25)
    res = sweep_flux(cfg.circuit, grid,
                     qubit_offsets=cfg.sweep.get("qubit_offsets"),
                     common_mode=cfg.sweep.get("common_mode", False),
                     trunc=cfg.truncations, branches=cfg.branches)
    cols = (["flux_offset"] + _coupling_columns(cfg.branches)
            + ["delta_gap", "delta_max"])
    write_csv(os.path.join(outdir, "sweep_flux.csv"), cols, res.rows, cfg,
              "sweep-flux")
    return res.rows


def cmd_compare_swt(cfg, outdir):
    grid = _default_beta_grid(cfg)
    res = compare_swt(cfg.circuit, grid, cfg.truncations)
    cols = ["beta_c"] + _coupling_columns(BRANCHES)
    write_csv(os.path.join(outdir, "compare_swt.csv"), cols, res.rows, cfg,
              "compare-swt")
    return res.rows


def cmd_gap_scan(cfg, outdir):
    grid = cfg.sweep.get("grid")
    if grid is None:
        grid = 0.05 + 0.05 * np.arange(18)   # 0.05 .. 0.90
    rows = []
    for b in grid:
        row = {"beta_c": float(b)}
        try:
            u = derive_unitless(with_beta_c(cfg.circuit, b))
            qubits, coupler = build_system(u, cfg.truncations)
            spec = eigendecompose(assemble_full(qubits, coupler, u,
                                                cfg.truncations.n_keep))
            gd = gap_diagnostics(spec)
            row.update(delta_gap=gd.delta_gap, delta_max=gd.delta_max,
                       valid=gd.valid, status="ok")
        except Exception as exc:
            row["status"] = f"error: {exc}"
        rows.append(row)
    write_csv(os.path.join(outdir, "gap_scan.csv"),
              ["beta_c", "delta_gap", "delta_max", "valid", "status"],
              rows, cfg, "gap-scan")
    return rows


def cmd_spectrum(cfg, outdir):
    """Two-excitation level structure vs the qubit frequency ratio.

    Qubits 1,2 keep their splitting; qubits 3,4 are scaled by the grid ratio
    (through their inductive energy), and the six manifold levels are written
    relative to their mean.
    """
    ratios = cfg.sweep.get("ratio_grid")
    if ratios is None:
        ratios = 0.96 + 0.005 * np.arange(17)
    rows = []
    for r in ratios:
        row = {"omega_ratio": float(r)}
        try:
            u = derive_unitless(cfg.circuit)
            u.E_Lj = u.E_Lj * np.array([1.0, 1.0, r, r])
            qubits, coupler = build_system(u, cfg.truncations)
            spec = eigendecompose(assemble_full(qubits, coupler, u,
                                                cfg.truncations.n_keep))
            omega = np.array([q.omega for q in qubits])
            man = two_excitation_splitting(spec, np.full(4, omega.mean()))
            levels = man["levels"] - man["levels"].mean()
            for k in range(6):
                row[f"level_{k}"] = levels[k]
            row["status"] = "ok"
        except Exception as exc:
            row["status"] = f"error: {exc}"
        rows.append(row)
    write_csv(os.path.join(outdir, "spectrum.csv"),
              ["omega_ratio"] + [f"level_{k}" for k in range(6)] + ["status"],
              rows, cfg, "spectrum")
    return rows


def cmd_susceptibility(cfg, outdir):
    rows = []
    for parameter in ("E_Jj", "E_Jc", "L_c", "E_Ltilde_c", "E_Lj"):
        row = {"parameter": parameter}
        try:
            chi = susceptibility(cfg.circuit, parameter)
            row.update(chi_4J=chi.chi_4J, chi_2J=chi.chi_2J,
                       normalization=chi.normalization, step=chi.step,
                       richardson_ok=chi.richardson_ok, status="ok")
        except Exception as exc:
            row["status"] = f"error: {exc}"
        rows.append(row)
    write_csv(os.path.join(outdir, "susceptibility.csv"),
              ["parameter", "chi_4J", "chi_2J", "normalization", "step",
               "richardson_ok", "status"],
              rows, cfg, "susceptibility")
    return rows


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "sweep-beta": cmd_sweep_beta,
    "sweep-flux": cmd_sweep_flux,
    "susceptibility": cmd_susceptibility,
    "compare-swt": cmd_compare_swt,
    "gap-scan": cmd_gap_scan,
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
            with open(args.config, encoding="utf-8") as fh:
                cfg = parse_config(fh.read())
        else:
            cfg = parse_config("")
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    os.makedirs(args.out, exist_ok=True)
    try:
        rows = _COMMANDS[args.subcommand](cfg, args.out)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failures = [r for r in rows
                if any(str(v).startswith("error") for v in r.values())]
    if failures:
        print(f"{len(failures)} of {len(rows)} points failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

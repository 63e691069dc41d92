import csv
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from fluxcoupler.analysis import BRANCHES
from fluxcoupler.circuit import CircuitParams, reference_circuit
from fluxcoupler.cli import (ConfigError, _format_value, _parse_grid, main,
                             parse_config)


# ------------------------------------------------------------- parsing

def test_parse_defaults_to_reference_circuit():
    cfg = parse_config("")
    ref = reference_circuit()
    for f in fields(CircuitParams):
        assert np.array_equal(getattr(cfg.circuit, f.name),
                              getattr(ref, f.name)), f.name
    assert cfg.truncations.qubit_states == 50
    assert cfg.truncations.coupler_states == 40
    assert cfg.truncations.n_keep == 8
    assert cfg.branches == ("spectral_fit",)
    assert cfg.precision == 12


def test_parse_units_and_overrides():
    cfg = parse_config("""
[circuit]
L_j = 900 pH
C_c = 0.407 pF
beta_c = 0.3
[truncation]
n_keep = 12
""")
    assert np.allclose(cfg.circuit.L_j, 900e-12)
    assert cfg.circuit.C_c == pytest.approx(0.407e-12)
    assert cfg.truncations.n_keep == 12
    from fluxcoupler.circuit import derive_unitless
    assert derive_unitless(cfg.circuit).beta_c == pytest.approx(0.3, rel=1e-12)


def test_parse_comments_and_blank_lines():
    cfg = parse_config("""
# a comment
[circuit]   # trailing comment
beta_c = 0.25  # inline
""")
    from fluxcoupler.circuit import derive_unitless
    assert derive_unitless(cfg.circuit).beta_c == pytest.approx(0.25, rel=1e-12)


@pytest.mark.parametrize("text,fragment", [
    ("[circuit]\nL_j = 817", "line 2: 'L_j' requires a value with a unit"),
    ("[circuit]\nL_j = 817 lightyears", "line 2: unknown unit"),
    ("[circuit]\nbeta_c = 0.3 pH", "line 2: 'beta_c' is dimensionless"),
    ("[circuit]\nbeta_c = abc", "line 2: malformed number"),
    ("[circuit]\nbeta_c =", "line 2: malformed number ''"),
    ("[nonsense]\n", "line 1: unknown section"),
    ("beta_c = 0.3\n", "line 1: entry before any [section]"),
    ("[circuit]\nbeta_c 0.3", "line 2: expected 'key = value'"),
    ("[circuit]\nflux_capacitor = 1", "line 2: unknown key"),
    ("[truncation]\nn_keep = eight", "line 2: 'n_keep' must be an integer"),
    ("\n[sweep]\ngrid = 0.5:0.1:0.1", "line 3: malformed grid"),
    ("[sweep]\ngrid = 0:1:1e-300", "line 2: malformed grid"),
    ("[sweep]\ngrid = 0:1:1e-320", "line 2: malformed grid"),
    # 1e17 points, 711 PiB: more than any 64-bit address space maps
    ("[sweep]\ngrid = 0:1:1e-17", "line 2: malformed grid"),
    ("[sweep]\nqubit_offsets = 1,2,3", "line 2: qubit_offsets needs 4"),
    ("[extraction]\nbranches = magic", "line 2: unknown branch"),
    ("[extraction]\nfit_J3 = maybe", "line 2: unknown key 'fit_J3'"),
    ("[output]\nprecision = 0", "line 2: precision must be >= 1"),
    ("[output]\nprecision = -3", "line 2: precision must be >= 1"),
    ("[truncation]\nn_keep = 0", "line 2: 'n_keep' must be in [1, 40]"),
    ("[truncation]\nn_keep = 50", "line 2: 'n_keep' must be in [1, 40]"),
    ("[truncation]\ncoupler_states = 12\nn_keep = 13",
     "line 3: 'n_keep' must be in [1, 12]"),
    ("[truncation]\ncoupler_states = 5", "line 2: 'coupler_states' must be"),
    ("[truncation]\nqubit_states = 1", "line 2: 'qubit_states' must be"),
    ("[circuit]\nbeta_c = -0.1",
     "line 2: no valid circuit from 'beta_c' (L_c, C_c, I_cc must be"),
    ("[circuit]\nL_j = 817 pH\nbeta_j = 0", "line 3: no valid circuit from "
     "'beta_j' (I_cj entries must be strictly positive)"),
    ("[circuit]\nC_c = -4 fF\nbeta_c = -1",
     "line 2, line 3: no valid circuit from 'C_c', 'beta_c'"),
    ("[circuit]\nbeta_c = nan", "line 2: number 'nan' is not finite"),
    ("[circuit]\nL_j = 817 pH\nC_c = inf fF",
     "line 3: number 'inf' is not finite"),
    ("[sweep]\ngrid = 0.2, nan", "line 2: number 'nan' is not finite"),
    ("[sweep]\nqubit_offsets = 0, 0, nan, 0",
     "line 2: number 'nan' is not finite"),
    ("[circuit]\nbeta_c = 0.3\nL_c = 170 pH\nI_cc = 1 uA",
     "line 2, line 4: give 'I_cc' or 'beta_c', not both"),
    ("[circuit]\nI_cj = 1 uA\nbeta_j = 1.2",
     "line 2, line 3: give 'I_cj' or 'beta_j', not both"),
    ("[circuit]\nbeta_c = 0.3\nbeta_c = 0.5",
     "line 2, line 3: 'beta_c' given twice in [circuit]"),
    ("[extraction]\nbranches = analytic_swt, analytic_swt",
     "line 2: branch 'analytic_swt' given twice"),
])
def test_parse_errors_name_the_line(text, fragment):
    with pytest.raises(ConfigError, match="line \\d+"):
        try:
            parse_config(text)
        except ConfigError as exc:
            assert fragment in str(exc)
            raise


GRID_CASES = [
    ("0.1:0.5:0.1", 0.1 + 0.1 * np.arange(5)),
    ("0.05, 0.1, 0.43", [0.05, 0.1, 0.43]),
    # a range never passes its stop
    ("0.5:0.95:0.3", [0.5, 0.8]),
    ("0.05:0.60:0.07", 0.05 + 0.07 * np.arange(8)),
    # a stop on the lattice keeps every point and every value
    ("0.05:0.60:0.05", 0.05 + 0.05 * np.arange(12)),
    ("0.02:0.60:0.02", 0.02 + 0.02 * np.arange(30)),
    ("0.1:0.3:0.1", 0.1 + 0.1 * np.arange(3)),
]


def test_parse_grid_forms():
    for text, expected in GRID_CASES:
        g = _parse_grid(text, 1)
        assert np.array_equal(g, expected), text


def test_format_value():
    assert _format_value(1234.5678, 12) == "1.23456780000e+03"
    assert _format_value(np.nan, 12) == "nan"
    assert _format_value(np.inf, 12) == "inf"
    assert _format_value(True, 12) == "1"
    assert _format_value(None, 12) == "nan"
    assert _format_value("ok", 12) == "ok"
    assert _format_value("error: a, b", 12) == '"error: a, b"'
    assert _format_value('say "x"', 12) == '"say ""x"""'


# ------------------------------------------------------------- subcommands

def _write(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text)
    return str(p)


def _read_csv(path):
    """(header lines, columns, rows as lists of fields) of a written CSV."""
    lines = path.read_text().splitlines()
    header = [l for l in lines if l.startswith("#")]
    columns = header[-1].removeprefix("# columns: ").split(",")
    rows = list(csv.reader(l for l in lines if not l.startswith("#")))
    return header, columns, rows


FAST_TRUNC = """
[truncation]
qubit_states = 40
coupler_states = 30
n_keep = 8
"""


def test_sweep_beta_csv_byte_stable(tmp_path):
    cfg = _write(tmp_path, FAST_TRUNC + """
[sweep]
grid = 0.2, 0.4
""")
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["sweep-beta", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["sweep-beta", "--config", cfg, "--out", str(out2)]) == 0
    b1 = (out1 / "sweep_beta.csv").read_bytes()
    b2 = (out2 / "sweep_beta.csv").read_bytes()
    assert b1 == b2
    assert b"\r" not in b1
    text = b1.decode()
    header = [l for l in text.splitlines() if l.startswith("#")]
    assert any("fluxcoupler" in l for l in header)
    assert any("columns:" in l for l in header)
    data = [l for l in text.splitlines() if not l.startswith("#")]
    assert len(data) == 2
    first = data[0].split(",")
    assert first[0] == "2.00000000000e-01"


def test_config_with_a_byte_order_mark(tmp_path):
    # an editor's UTF-8 byte-order mark is not part of the first line
    text = FAST_TRUNC.lstrip() + "[sweep]\ngrid = 0.43\n"
    files = []
    for name, encoding in (("plain", "utf-8"), ("bom", "utf-8-sig")):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text, encoding=encoding)
        assert main(["sweep-beta", "--config", str(cfg),
                     "--out", str(tmp_path / name)]) == 0
        files.append((tmp_path / name / "sweep_beta.csv").read_bytes())
    assert (tmp_path / "bom.cfg").read_bytes().startswith(b"\xef\xbb\xbf")
    assert files[0] == files[1]


# each subcommand at a short grid, gap-scan's ending in an error row
BYTE_CONFIGS = {
    "spectrum": ("[sweep]\nratio_grid = 0.98, 1.0\n", 0),
    "sweep-beta": ("[sweep]\ngrid = 0.2, 0.43\n", 0),
    "sweep-flux": ("[sweep]\ngrid = -0.001, 0.0005\n", 0),
    "susceptibility": ("", 0),
    "compare-swt": ("[sweep]\ngrid = 0.2, 0.43\n", 0),
    "gap-scan": ("[sweep]\ngrid = 0.43, 0.9\n", 1),
}


@pytest.mark.parametrize("subcommand", list(BYTE_CONFIGS))
def test_every_table_is_byte_stable(tmp_path, subcommand):
    # the same config, run twice in one process, writes the same bytes
    config, code = BYTE_CONFIGS[subcommand]
    cfg = _write(tmp_path, FAST_TRUNC + config)
    name = subcommand.replace("-", "_") + ".csv"
    files = []
    for out in ("a", "b"):
        assert main([subcommand, "--config", cfg,
                     "--out", str(tmp_path / out)]) == code
        files.append((tmp_path / out / name).read_bytes())
    assert files[0] == files[1]


FAILING_CONFIGS = {  # subcommand: (config, rows)
    "spectrum": ("[circuit]\nbeta_c = 1.05\n[sweep]\nratio_grid = 0.98, 1.0\n",
                 2),
    "susceptibility": ("[circuit]\nbeta_c = 1.05\n", 5),
    "sweep-flux": ("[circuit]\nbeta_c = 1.05\n[sweep]\ngrid = 0.0, 0.001\n", 2),
    "sweep-beta": ("[sweep]\ngrid = 0.3, 1.05\n", 2),
    "compare-swt": ("[sweep]\ngrid = 0.3, 1.05\n", 2),
    "gap-scan": ("[sweep]\ngrid = 0.3, 1.05\n", 2),
}


@pytest.mark.parametrize("subcommand", list(FAILING_CONFIGS))
def test_failed_points_keep_their_rows(tmp_path, subcommand):
    # every subcommand records a failed point in its row and exits 1
    config, n_rows = FAILING_CONFIGS[subcommand]
    cfg = _write(tmp_path, FAST_TRUNC + config)
    assert main([subcommand, "--config", cfg, "--out", str(tmp_path)]) == 1
    _, columns, rows = _read_csv(tmp_path / (subcommand.replace("-", "_")
                                             + ".csv"))
    assert len(rows) == n_rows
    statuses = [row[i] for row in rows
                for i, col in enumerate(columns) if col.endswith("status")]
    failed = [s for s in statuses if s != "ok"]
    assert failed and all(s.startswith("error: ") for s in failed)


def test_error_status_with_a_comma_stays_in_its_field(tmp_path):
    # at 3.7 times the coupler capacitance the numerical SWT converges at
    # beta_c = 0.02 and loses its gap at beta_c = 0.95, and that message
    # holds a comma
    cfg = _write(tmp_path, FAST_TRUNC + """
[circuit]
C_c = 1500 fF
[sweep]
grid = 0.02, 0.95
[extraction]
branches = numerical_swt
""")
    assert main(["sweep-beta", "--config", cfg, "--out", str(tmp_path)]) == 1
    _, columns, rows = _read_csv(tmp_path / "sweep_beta.csv")
    assert [len(row) for row in rows] == [len(columns)] * 2
    status = [dict(zip(columns, row))["numswt_status"] for row in rows]
    assert status == ["ok", "error: gap collapse: coupler gap below qubit "
                            "splitting, SWT convergence lost"]


def test_header_carries_the_sweep_settings(tmp_path):
    headers = {}
    for name, setting in (("plain", ""),
                          ("offsets", "qubit_offsets = 0.001, 0, 0, 0\n"),
                          ("common", "common_mode = true\n")):
        cfg = _write(tmp_path, FAST_TRUNC + "[sweep]\ngrid = 0.0\n" + setting)
        out = tmp_path / name
        assert main(["sweep-flux", "--config", cfg, "--out", str(out)]) == 0
        headers[name], _, _ = _read_csv(out / "sweep_flux.csv")
    assert not any(l.startswith("#   sweep:") for l in headers["plain"])
    assert ("#   sweep: qubit_offsets=1.00000000000e-03,0.00000000000e+00,"
            "0.00000000000e+00,0.00000000000e+00") in headers["offsets"]
    assert "#   sweep: common_mode=true" in headers["common"]
    assert headers["offsets"] != headers["common"]


def test_header_names_only_the_sweep_settings_the_run_reads(tmp_path):
    # sweep-beta reads neither common_mode nor qubit_offsets, so setting
    # them changes nothing in its file, header included
    files = {}
    for name, setting in (("plain", ""),
                          ("unread", "common_mode = true\n"
                                     "qubit_offsets = 0.001, 0, 0, 0\n")):
        cfg = _write(tmp_path, FAST_TRUNC + "[sweep]\ngrid = 0.3\n" + setting)
        out = tmp_path / name
        assert main(["sweep-beta", "--config", cfg, "--out", str(out)]) == 0
        files[name] = (out / "sweep_beta.csv").read_bytes()
    assert b"#   sweep:" not in files["unread"]
    assert files["unread"] == files["plain"]


def test_config_error_exit_code(tmp_path, capsys):
    cfg = _write(tmp_path, "[circuit]\nL_j = 817\n")
    assert main(["sweep-beta", "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["sweep-beta", "--config", str(tmp_path / "missing.cfg")]) == 2
    cfg = _write(tmp_path, "[circuit]\nbeta_c = -0.1\n")
    assert main(["gap-scan", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "config error: line 2: no valid circuit from 'beta_c'" in (
        capsys.readouterr().err)
    cfg = _write(tmp_path, "[circuit]\nbeta_c = 0.3\nI_cc = 1 uA\n")
    assert main(["sweep-flux", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "config error: line 2, line 3: give 'I_cc' or 'beta_c'" in (
        capsys.readouterr().err)


def test_unusable_out_is_an_error_line(tmp_path, capsys):
    # --out names a file, not a directory: one error line and exit 1
    out = tmp_path / "taken"
    out.write_text("")
    assert main(["gap-scan", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_non_positive_beta_c_is_an_error_row(tmp_path):
    cfg = _write(tmp_path, FAST_TRUNC + "[sweep]\ngrid = -0.1, 0.2\n")
    out = tmp_path / "both"
    assert main(["gap-scan", "--config", cfg, "--out", str(out)]) == 1
    _, _, rows = _read_csv(out / "gap_scan.csv")
    assert rows[0][1:] == ["nan", "nan", "nan", "error: L_c, C_c, I_cc must "
                           "be strictly positive"]
    cfg = _write(tmp_path, FAST_TRUNC + "[sweep]\ngrid = 0.2\n")
    assert main(["gap-scan", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert rows[1] == _read_csv(tmp_path / "gap_scan.csv")[2][0]


def test_non_positive_frequency_ratio_is_an_error_row(tmp_path):
    # the ratio scales E_Lj of qubits 3 and 4; a ratio that makes it zero or
    # negative is refused where those qubits are built
    cfg = _write(tmp_path, "[truncation]\nqubit_states = 30\n"
                 "coupler_states = 20\n[sweep]\nratio_grid = -1, 0, 0.5, 1\n")
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 1
    _, columns, rows = _read_csv(tmp_path / "spectrum.csv")
    status = {row[0]: row[columns.index("status")] for row in rows}
    for ratio in ("-1.00000000000e+00", "0.00000000000e+00"):
        assert status[ratio] == "error: E_Lj must be strictly positive"
    assert status["1.00000000000e+00"] == "ok"


def test_start_up_imports_no_scipy_optimize():
    # scipy.optimize costs a third of a second of every run's start-up; it
    # must not come back, at import or lazily at the first point
    code = "\n".join([
        "import sys",
        "import fluxcoupler.cli",
        "from fluxcoupler import analysis",
        "from fluxcoupler.circuit import derive_unitless, reference_circuit",
        "print('scipy.optimize' in sys.modules)",
        "u = derive_unitless(reference_circuit())",
        "for branch in ('numerical_swt', 'analytic_swt'):",
        "    analysis.couplings_point(u, extraction=branch)",
        "    print('scipy.optimize' in sys.modules)",
    ])
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.split() == ["False", "False", "False"]


def test_start_up_imports_no_scipy_subpackage_but_special():
    # importing scipy costs most of a run's start-up; scipy.special was once
    # the one subpackage allowed, and since the cosine matrix's special
    # functions are ported, not even it: no scipy module may be loaded, at
    # import or lazily at the first point of any branch
    code = "\n".join([
        "import sys",
        "import fluxcoupler.cli",
        "from fluxcoupler import analysis",
        "from fluxcoupler.circuit import derive_unitless, reference_circuit",
        "def loaded():",
        "    print(sum(m.split('.')[0] == 'scipy' for m in sys.modules))",
        "loaded()",
        "u = derive_unitless(reference_circuit())",
        "for branch in analysis.BRANCHES:",
        "    analysis.couplings_point(u, extraction=branch)",
        "    loaded()",
    ])
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.split() == ["0"] * (1 + len(BRANCHES))


def test_sweep_flux_csv(tmp_path):
    cfg = _write(tmp_path, FAST_TRUNC + """
[circuit]
beta_c = 0.3
[sweep]
grid = -0.001, 0.0, 0.001
""")
    assert main(["sweep-flux", "--config", cfg, "--out", str(tmp_path)]) == 0
    text = (tmp_path / "sweep_flux.csv").read_text()
    data = [l for l in text.splitlines() if not l.startswith("#")]
    assert len(data) == 3


def test_compare_swt_csv(tmp_path):
    cfg = _write(tmp_path, FAST_TRUNC + """
[sweep]
grid = 0.3
""")
    assert main(["compare-swt", "--config", cfg, "--out", str(tmp_path)]) == 0
    text = (tmp_path / "compare_swt.csv").read_text()
    cols = [l for l in text.splitlines() if l.startswith("# columns:")][0]
    for prefix in ("spectral", "analytic", "numswt"):
        assert f"{prefix}_J4" in cols


@pytest.mark.usefixtures("cold_memos")
def test_compare_swt_bytes_do_not_depend_on_the_memos(tmp_path):
    # the first run builds every qubit and cosine matrix, the second reads
    # them from the process-wide memos: the same bytes
    cfg = _write(tmp_path, FAST_TRUNC + "[sweep]\ngrid = 0.2, 0.43\n")
    for run in ("cold", "warm"):
        assert main(["compare-swt", "--config", cfg,
                     "--out", str(tmp_path / run)]) == 0
    cold, warm = ((tmp_path / run / "compare_swt.csv").read_bytes()
                  for run in ("cold", "warm"))
    assert cold == warm


def test_compare_swt_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the default compare-swt, run with one and with two OpenBLAS threads,
    # must write the same bytes; every default point stays within the
    # numerical SWT's convergence threshold
    src = Path(__file__).resolve().parents[1] / "src"
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(src),
               "OPENBLAS_NUM_THREADS": threads}
        out = tmp_path / threads
        out.mkdir()
        subprocess.run([sys.executable, "-m", "fluxcoupler.cli", "compare-swt",
                        "--out", str(out)], env=env, check=True,
                       capture_output=True, timeout=300)
    one, two = ((tmp_path / t / "compare_swt.csv").read_bytes()
                for t in ("1", "2"))
    assert one == two
    _, columns, rows = _read_csv(tmp_path / "1" / "compare_swt.csv")
    status = [r[columns.index("numswt_status")] for r in rows]
    assert status == ["ok"] * 30


def test_extra_columns_follow_the_branches(tmp_path):
    # delta_gap and delta_max are the spectral branch's columns: absent
    # without it, present wherever it runs
    cfg = _write(tmp_path, FAST_TRUNC + """
[sweep]
grid = 0.3
[extraction]
branches = numerical_swt
""")
    assert main(["sweep-beta", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, columns, _ = _read_csv(tmp_path / "sweep_beta.csv")
    assert columns == ["beta_c", "numswt_J1", "numswt_J2", "numswt_J3",
                       "numswt_J4", "numswt_residual", "numswt_status"]
    cfg = _write(tmp_path, FAST_TRUNC + "[sweep]\ngrid = 0.3\n")
    assert main(["compare-swt", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, columns, rows = _read_csv(tmp_path / "compare_swt.csv")
    assert columns[-3:] == ["numswt_status", "delta_gap", "delta_max"]
    assert all(np.isfinite(float(x)) for x in rows[0][-2:])


def test_gap_scan_csv(tmp_path):
    cfg = _write(tmp_path, FAST_TRUNC + """
[sweep]
grid = 0.2, 0.5
""")
    assert main(["gap-scan", "--config", cfg, "--out", str(tmp_path)]) == 0
    text = (tmp_path / "gap_scan.csv").read_text()
    data = [l.split(",") for l in text.splitlines() if not l.startswith("#")]
    assert len(data) == 2
    # delta_gap shrinks and delta_max grows toward beta_c = 1
    assert float(data[0][1]) > float(data[1][1])


def test_susceptibility_csv(tmp_path):
    cfg = _write(tmp_path, FAST_TRUNC)
    assert main(["susceptibility", "--config", cfg, "--out", str(tmp_path)]) == 0
    text = (tmp_path / "susceptibility.csv").read_text()
    data = [l.split(",") for l in text.splitlines() if not l.startswith("#")]
    assert [d[0] for d in data] == ["E_Jj", "E_Jc", "L_c", "E_Ltilde_c", "E_Lj"]
    row = dict(zip(["parameter", "chi_4J", "chi_2J"], data[3]))
    assert float(row["chi_4J"]) == pytest.approx(1.0, abs=1e-6)
    assert float(row["chi_2J"]) == pytest.approx(4.0, abs=1e-6)


def test_spectrum_csv(tmp_path):
    cfg = _write(tmp_path, FAST_TRUNC + """
[sweep]
ratio_grid = 1.0
""")
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 0
    text = (tmp_path / "spectrum.csv").read_text()
    data = [l.split(",") for l in text.splitlines() if not l.startswith("#")]
    assert len(data) == 1
    levels = np.array([float(x) for x in data[0][1:7]])
    # six manifold levels written relative to their mean
    assert abs(np.mean(levels)) < 1e-3 * (np.max(levels) - np.min(levels) + 1.0)


def test_unknown_subcommand_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])

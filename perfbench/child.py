"""One batch of one workload in a fresh interpreter.

A CLI user starts a new process for every sweep, so each batch runs in its
own interpreter: nothing a batch leaves in memory can speed up the next one.
The timer starts before `fluxcoupler` is imported.  Every point of a batch
(a sweep point or a chip) is timed on its own.  The last line of stdout is
one JSON object with the batch's timings and outputs.

    python3 perfbench/child.py WORKLOAD MODE SEED OUTDIR

MODE is `setup` (import and build the inputs only), `run` (one untraced
batch), `trace` (one traced batch) or `selfcheck` (one traced point under a
profiler that catches calls no span saw).
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

import fluxcoupler  # noqa: E402
from fluxcoupler import analysis, circuit, cli, hamiltonian, spectrum  # noqa

import fab  # noqa: E402
import tracer as tracing  # noqa: E402

# swt-sweep: the CLI's default beta_c grid (0.02 .. 0.60, as compare-swt and
# sweep-beta use it) through the numerical-SWT branch, and the CSV columns
# compare-swt gives that branch
SWEEP_GRID = 0.02 + 0.02 * np.arange(30)
SWEEP_COLUMNS = ["beta_c", "numswt_J1", "numswt_J2", "numswt_J3", "numswt_J4",
                 "numswt_residual", "numswt_status"]


def build_inputs(workload, seed):
    if workload == "fab-spread":
        return fab.make_batch(seed)
    # swt-sweep runs the default config, which is the empty file
    return cli.parse_config("")


def run_sweep(cfg, outdir, grid=SWEEP_GRID):
    """One beta_c point at a time, as sweep-beta with the numerical_swt
    branch computes it, timed point by point; rows go through the CLI's
    CSV writer."""
    rows, point_s, point_ok = [], [], []
    for b in grid:
        t0 = time.perf_counter()
        row = {"beta_c": float(b)}
        try:
            u = analysis.derive_unitless(analysis.with_beta_c(cfg.circuit, b))
            cs = analysis.couplings_point(u, cfg.truncations, "numerical_swt")
            for name in ("J1", "J2", "J3", "J4"):
                row[f"numswt_{name}"] = getattr(cs, name)
            row.update(numswt_residual=cs.residual, numswt_status="ok")
        except Exception as exc:  # a failed point stays in the table
            row["numswt_status"] = f"error: {exc}"
        point_s.append(time.perf_counter() - t0)
        point_ok.append(row["numswt_status"] == "ok")
        rows.append(row)
    path = os.path.join(outdir, "swt_sweep.csv")
    cli.write_csv(path, SWEEP_COLUMNS, rows, cfg, "swt-sweep")
    return {"output": path, "point_s": point_s, "point_ok": point_ok}


def run_chips(chips, seed, outdir, tracer=None):
    """derive_unitless -> build_system -> assemble_full -> eigendecompose ->
    gap_diagnostics for each chip, timed chip by chip."""
    trunc = analysis.Truncations()
    rows, point_s, point_ok = [], [], []
    for i, p in enumerate(chips):
        if tracer is not None:
            tracer.new_row()
            frame = tracer.enter("bench.chip")
        t0 = time.perf_counter()
        row = {"chip": i}
        try:
            u = circuit.derive_unitless(p)
            qubits, coupler = analysis.build_system(u, trunc)
            spec = spectrum.eigendecompose(
                hamiltonian.assemble_full(qubits, coupler, u, trunc.n_keep))
            gd = spectrum.gap_diagnostics(spec)
            omega = [q.omega for q in qubits]
            row.update(beta_c=u.beta_c, omega_min=min(omega),
                       omega_max=max(omega),
                       ground_levels=int(spec.subspace_label.sum()),
                       delta_gap=gd.delta_gap,
                       delta_max=gd.delta_max,
                       gap_ratio=gd.delta_gap / gd.delta_max,
                       valid=gd.valid, status="ok")
        except Exception as exc:  # a failed chip stays in the table
            row["status"] = f"error: {exc}"
        point_s.append(time.perf_counter() - t0)
        point_ok.append(row["status"] == "ok")
        if tracer is not None:
            tracer.exit(frame)
        rows.append(row)
    path = os.path.join(outdir, "chips.csv")
    with open(path, "w", newline="\n") as fh:
        fh.write(fab.chip_table(seed, rows))
    return {"output": path, "point_s": point_s, "point_ok": point_ok}


def check_first_chip(chips):
    """Recompute chip 0 and compare its spectrum with an independent eigvalsh
    of the same product-space matrix."""
    trunc = analysis.Truncations()
    u = circuit.derive_unitless(chips[0])
    qubits, coupler = analysis.build_system(u, trunc)
    full = hamiltonian.assemble_full(qubits, coupler, u, trunc.n_keep)
    spec = spectrum.eigendecompose(full)
    ref = np.linalg.eigvalsh(full.data)
    scale = float(np.max(np.abs(ref)))
    return bool(np.max(np.abs(spec.eigenvalues - ref)) <= 1e-9 * scale)


def provenance():
    import scipy
    blas = None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas']['version']}"
    except (TypeError, KeyError):  # older numpy has no dict mode
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "fluxcoupler": fluxcoupler.__version__,
            "fluxcoupler_path": os.path.dirname(fluxcoupler.__file__)}


def selfcheck(workload, inputs, seed, outdir):
    """One point with every import site wrapped, under a profiler."""
    tracer = tracing.Tracer()
    tracer.install()
    if workload == "fab-spread":
        bypassed = tracer.profile_check(
            lambda: run_chips(inputs[:1], seed, outdir, tracer))
    else:
        bypassed = tracer.profile_check(
            lambda: run_sweep(inputs, outdir, [0.43]))
    return {"bypassed": bypassed, "sites": dict(tracer.sites),
            "missing": tracer.missing}


def main():
    workload, mode, seed, outdir = sys.argv[1:5]
    seed = int(seed)
    os.makedirs(outdir, exist_ok=True)
    inputs = build_inputs(workload, seed)
    setup_s = time.perf_counter() - T0
    result = {"setup_s": setup_s}
    if mode == "setup":
        result["provenance"] = provenance()
    elif mode == "selfcheck":
        result.update(selfcheck(workload, inputs, seed, outdir))
    else:
        tracer = None
        if mode == "trace":
            tracer = tracing.Tracer()
            tracer.install()
        t0 = time.perf_counter()
        if workload == "fab-spread":
            result.update(run_chips(inputs, seed, outdir, tracer))
        else:
            result.update(run_sweep(inputs, outdir))
        result["wall_s"] = time.perf_counter() - t0
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if tracer is not None:
            result["trace"] = tracer.summary()
            tracer.dump(os.path.join(outdir, "spans.json"))
        if workload == "fab-spread":
            result["first_chip_ok"] = check_first_chip(inputs)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

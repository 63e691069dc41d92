"""fluxcoupler benchmark: one workload, one run.

    python3 perfbench/run.py --workload swt-sweep --seed 1 \
        --seconds 60 --trace 0

Run from the root of a source checkout; the library is imported from
`src/`.  Each batch (one sweep, or one batch of fab-spread chips) runs in a
fresh interpreter (perfbench/child.py), one at a time, until the measuring
time is used up.  With `--trace 0` the last line of stdout is a JSON object
with the end-to-end metrics; with `--trace 1` it has the per-layer metrics of
traced batches, with untraced batches in between to measure the tracing
overhead.  Everything else on stdout is a readable report.  Outputs, spans and
the provenance record go to `.perfbench_out/<workload>/`.  See README.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import fab  # noqa: E402

WORKLOADS = ("swt-sweep", "fab-spread")
# BLAS threads per process.  One thread gave steadier sweep times than two.
BLAS_THREADS = 1
SETUP_SAMPLES = 3        # setup-only interpreters per run, after one warm-up
HARD_LIMIT_S = 170.0     # the whole run, setup included, ends before this
SWEEP_POINTS = 30        # the CLI's default beta_c grid: 0.02..0.60

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("ok_points_per_s", "1/s"),
    ("ok_share", "ratio"), ("peak_rss_mb", "MB"),
)

# per-layer metrics: call counts and self times of these spans, then the
# computed counts (metric name, key in Tracer.summary, unit)
PER_LAYER_CALLS = (
    "oscillator.cosine_matrix", "hamiltonian.build_qubit_bare",
    "hamiltonian.build_coupler", "hamiltonian.reduce_qubit",
    "hamiltonian.assemble_full", "spectrum.eigendecompose",
    "swt.numerical_swt", "analysis.build_system", "circuit.derive_unitless",
)
PER_LAYER_SELF = (
    "oscillator.cosine_matrix", "hamiltonian.build_qubit_bare",
    "hamiltonian.build_coupler", "hamiltonian.reduce_qubit",
    "hamiltonian.assemble_full", "spectrum.eigendecompose",
    "swt.numerical_swt", "swt.swt_effective_block", "swt.pauli_decompose",
    "cli.write_csv",
)
PER_LAYER_COUNTS = (
    ("oscillator.cosine_matrix.repeat_share", "cosine_matrix.repeat_share",
     "ratio"),
    ("oscillator.cosine_matrix.per_build_system",
     "cosine_matrix.per_build_system", "count"),
    ("hamiltonian.assemble_full.bytes_computed",
     "assemble_full.bytes_computed", "B"),
    ("swt.swt_effective_block.flops_computed",
     "swt_effective_block.flops_computed", "flop"),
    ("spectrum.manifold_ok_ratio", "manifold_ok_ratio", "ratio"),
    ("cli.write_csv.bytes", "write_csv.bytes", "B"),
)


def per_layer_names():
    names = [(n + ".calls", "count") for n in PER_LAYER_CALLS]
    names += [(n + ".self_s", "s") for n in PER_LAYER_SELF]
    names += [(n, unit) for n, _, unit in PER_LAYER_COUNTS]
    names += [("analysis.point_s.p50", "s"), ("analysis.point_s.p90", "s"),
              ("trace.spans", "count"), ("trace.overhead_s", "s")]
    return names


class BenchError(RuntimeError):
    """A batch could not be run: no result is printed."""


class OutputError(ValueError):
    """An output failed a check: the result says correct false."""


class Runner:
    def __init__(self, workload, seed, root):
        self.workload = workload
        self.seed = seed
        self.root = root
        self.out = os.path.join(root, ".perfbench_out", workload)
        self.start = time.perf_counter()
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)
        self.batches = 0

    def elapsed(self):
        return time.perf_counter() - self.start

    def child(self, mode):
        outdir = os.path.join(self.out, f"{mode}-{self.batches:03d}")
        self.batches += 1
        cmd = [sys.executable, os.path.join(HERE, "child.py"), self.workload,
               mode, str(self.seed), outdir]
        budget = HARD_LIMIT_S - self.elapsed()
        if budget <= 0:
            raise BenchError("time limit reached before a batch could start")
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=budget)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} batch did not finish within the limit")
        if proc.returncode != 0:
            raise BenchError(f"{mode} batch exited {proc.returncode}:\n"
                             + proc.stderr[-2000:])
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise BenchError(f"{mode} batch printed nothing:\n"
                             + proc.stderr[-2000:])
        return json.loads(lines[-1])


def available_cores():
    return len(os.sched_getaffinity(0))


def cpu_model():
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return None


def source_digest(root):
    """sha256 over every file under src/, so runs of different code differ
    even where the checkout is not a git repository."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_sha(root):
    """HEAD of the checkout when it is a git repository itself; git is not
    asked to search the directories above it."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


# -- output checks ------------------------------------------------------------

def read_table(path):
    with open(path, "rb") as fh:
        data = fh.read()
    lines = data.decode().split("\n")
    if lines[-1] != "":
        raise OutputError(f"{path}: no final newline")
    lines = lines[:-1]
    header = [ln for ln in lines if ln.startswith("# columns: ")]
    if len(header) != 1:
        raise OutputError(f"{path}: no single columns line")
    columns = header[0][len("# columns: "):].split(",")
    rows = []
    for ln in lines:
        if ln.startswith("#"):
            continue
        cells = ln.split(",", len(columns) - 1)
        if len(cells) != len(columns):
            raise OutputError(f"{path}: row with {len(cells)} cells")
        rows.append(dict(zip(columns, cells)))
    return data, rows


def finite(cell):
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def check_sweep_rows(rows):
    """Rows failed, after checking that every ok value is finite."""
    if len(rows) != SWEEP_POINTS:
        raise OutputError(f"expected {SWEEP_POINTS} grid points, "
                          f"got {len(rows)}")
    beta = [float(r["beta_c"]) for r in rows]
    if abs(beta[0] - 0.02) > 1e-12 or abs(beta[-1] - 0.60) > 1e-12:
        raise OutputError("the sweep grid is not 0.02 .. 0.60")
    failed = 0
    for r in rows:
        status = r["numswt_status"]
        if status == "ok":
            vals = [r[f"numswt_{k}"] for k in
                    ("J1", "J2", "J3", "J4", "residual")]
            if not all(finite(v) for v in vals):
                raise OutputError(f"non-finite value in an ok row: {r}")
        elif status.startswith("error"):
            failed += 1
        else:
            raise OutputError(f"unknown status {status!r}")
    return failed


def check_chip_rows(rows):
    if len(rows) != fab.CHIPS_PER_BATCH:
        raise OutputError(f"expected {fab.CHIPS_PER_BATCH} chips, "
                          f"got {len(rows)}")
    failed = 0
    for r in rows:
        if r["status"] == "ok":
            vals = [r[c] for c in ("beta_c", "omega_min", "omega_max",
                                   "delta_gap", "delta_max", "gap_ratio")]
            if not all(finite(v) for v in vals) or float(r["delta_max"]) <= 0:
                raise OutputError(f"bad values in an ok chip row: {r}")
        elif r["status"].startswith("error"):
            failed += 1
        else:
            raise OutputError(f"unknown status {r['status']!r}")
    return failed


def check_batch(workload, res, reference):
    """Check one batch's output.  Returns (rows, failed, data, problem)."""
    try:
        data, rows = read_table(res["output"])
        if workload == "fab-spread":
            failed = check_chip_rows(rows)
            if not res["first_chip_ok"]:
                raise OutputError("chip 0 spectrum disagrees with eigvalsh")
        else:
            failed = check_sweep_rows(rows)
        if reference is not None and data != reference:
            raise OutputError("output differs from the first batch of the run")
    except (ValueError, OSError, KeyError) as exc:
        return None, None, None, f"{res['output']}: {exc}"
    return len(rows), failed, data, None


# -- statistics ---------------------------------------------------------------

def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


# -- run ----------------------------------------------------------------------

def setup_phase(runner, samples):
    """A warm-up interpreter (bytecode and file cache), then `samples` timed
    ones; returns the warm-up alone when samples is 0."""
    warm = runner.child("setup")
    return [runner.child("setup") for _ in range(samples)] or [warm]


def measure(runner, seconds, modes):
    """Run batches, cycling through modes, while the next one is expected to
    end within `seconds`; at least one batch of each mode."""
    t_start = runner.elapsed()
    results = {m: [] for m in modes}
    durations = []
    k = 0
    while True:
        mode = modes[k % len(modes)]
        t0 = runner.elapsed()
        results[mode].append(runner.child(mode))
        durations.append(runner.elapsed() - t0)
        k += 1
        if k < len(modes):
            continue
        next_end = runner.elapsed() - t_start + statistics.median(durations)
        if next_end > seconds:
            break
    return results


def run(workload, seed, seconds, trace, root):
    """One run; returns (result, provenance, checks, report lines)."""
    runner = Runner(workload, seed, root)
    shutil.rmtree(runner.out, ignore_errors=True)
    os.makedirs(runner.out)
    checks, problems, report = [], [], []

    setups = setup_phase(runner, 0 if trace else SETUP_SAMPLES)
    prov = dict(setups[0]["provenance"])
    prov.update(git_sha=git_sha(root), src_sha256=source_digest(root),
                nproc=os.cpu_count(), cores_available=available_cores(),
                cpu_model=cpu_model(), blas_threads=BLAS_THREADS,
                workload=workload, seed=seed, seconds=seconds, trace=trace)
    if os.path.realpath(prov["fluxcoupler_path"]) != os.path.realpath(
            os.path.join(root, "src", "fluxcoupler")):
        raise BenchError("fluxcoupler was not imported from this checkout")
    with open(os.path.join(runner.out, "provenance.json"), "w") as fh:
        json.dump(prov, fh, indent=1, sort_keys=True)

    selfcheck = runner.child("selfcheck") if trace else None
    results = measure(runner, seconds, ("run", "trace") if trace else ("run",))

    reference, attempted, failed, sha = None, 0, 0, None
    for res in results["run"] + results.get("trace", []):
        n, f, data, problem = check_batch(workload, res, reference)
        if problem is not None:
            problems.append(problem)
            res["ok"] = 0
            continue
        if reference is None:
            reference, sha = data, hashlib.sha256(data).hexdigest()
        res["ok"] = n - f
        res["points"] = n
        attempted += n
        failed += f
    batches = len(results["run"]) + len(results.get("trace", []))
    checks.append(f"{batches} batch outputs compared byte for byte with the "
                  f"first: sha256 {sha}")
    checks.append(f"{failed} of {attempted} points failed, all counted")

    if trace:
        metrics = per_layer_metrics(results, selfcheck, checks, problems,
                                    report)
    else:
        metrics = end_to_end_metrics(results["run"], setups, report)
    result = {"correct": not problems, "attempted": max(attempted, 1),
              "failed": failed, "metrics": metrics}
    return result, prov, checks + [f"FAILED: {p}" for p in problems], report


def batch_time(runs, report):
    """One batch's wall time at the host's unloaded speed: the points of a
    batch times its fastest ok point of the run.  Every point of a workload
    does the same work (the numerical SWT on fixed 640-dimensional matrices;
    a chip of the same circuit within its spreads at the same truncation),
    so the batch would take that long on an unloaded core.  Outside load on
    the host slows a core by up to 1.8x in phases of seconds to minutes: the
    fastest of a hundred or more short points finds the unloaded speed in
    nearly every run, where a median of batches measures how long the run
    was loaded.  Failed points are left out, so a point that fails early
    cannot make the batch look fast."""
    wall = [r["wall_s"] for r in runs]
    report.append(f"batch wall time: median {statistics.median(wall):.4f} s "
                  f"of {len(wall)} batches, max {max(wall):.4f} s (too few "
                  "batches for a percentile); batches: "
                  + " ".join(f"{w:.4f}" for w in wall))
    ok_s = [t for r in runs for t, ok in zip(r["point_s"], r["point_ok"])
            if ok]
    if not ok_s:
        return statistics.median(wall)
    points = len(runs[0]["point_s"])
    fastest = min(ok_s)
    report.append(f"fastest of {len(ok_s)} ok points: {fastest:.6f} s, "
                  f"times {points} points = {fastest * points:.4f} s")
    return fastest * points


def end_to_end_metrics(runs, setups, report):
    setup = [r["setup_s"] for r in setups + runs]
    wall = batch_time(runs, report)
    share = [r["ok"] / r["points"] for r in runs if "points" in r]
    point_s = [t for r in runs for t in r.get("point_s", [])]
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "ok_points_per_s": statistics.median(r["ok"] for r in runs) / wall,
        "ok_share": statistics.median(share) if share else 0.0,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    report.append(f"setup_s: median of {len(setup)} fresh interpreters, "
                  f"min {min(setup):.4f} s, max {max(setup):.4f} s")
    report.append(f"failed_share = {1.0 - values['ok_share']:.6g} "
                  f"(1 - ok_share)")
    if point_s:
        report.append(f"point latency, timed from outside: p50 "
                      f"{statistics.median(point_s):.6f} s, p90 "
                      f"{p90(point_s):.6f} s, n = {len(point_s)}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def per_layer_metrics(results, selfcheck, checks, problems, report):
    traced = [r["trace"] for r in results["trace"]]
    bypassed = {k: v for k, v in selfcheck["bypassed"].items() if v}
    if bypassed:
        problems.append(f"self-check: calls that no span saw: {bypassed}")
    else:
        checks.append(f"self-check: all {len(selfcheck['bypassed'])} traced "
                      "functions were entered only through their spans")
    for label, sites in sorted(selfcheck["sites"].items()):
        report.append(f"span {label}: {', '.join(sites)}")
    if selfcheck["missing"]:
        report.append("not in the library: " + ", ".join(selfcheck["missing"]))

    first = traced[0]
    if any(t["calls"] != first["calls"] or t["counts"] != first["counts"]
           for t in traced[1:]):
        problems.append("call counts or computed counts differ between "
                        "traced batches")
    else:
        checks.append(f"counts identical across {len(traced)} traced batches")
    calls = first["calls"]
    builds = calls.get("analysis.build_system", 0)
    if builds:
        report.append(
            "calls per build_system: "
            + ", ".join(f"{n.split('.')[-1]} {calls.get(n, 0) / builds:g}"
                        for n in ("oscillator.cosine_matrix",
                                  "hamiltonian.build_qubit_bare",
                                  "hamiltonian.reduce_qubit",
                                  "hamiltonian.build_coupler"))
            + " (5, 4, 4, 1 at the seed: four qubits and one coupler)")

    values = {n + ".calls": calls.get(n, 0) for n in PER_LAYER_CALLS}
    for n in PER_LAYER_SELF:
        values[n + ".self_s"] = statistics.median(
            t["self_s"].get(n, 0.0) for t in traced)
    for name, key, _ in PER_LAYER_COUNTS:
        values[name] = first["counts"][key]
    rows = [s for t in traced for s in t["row_s"]]
    values["analysis.point_s.p50"] = statistics.median(rows) if rows else 0.0
    values["analysis.point_s.p90"] = p90(rows) if rows else 0.0
    values["trace.spans"] = first["spans"]
    untraced = statistics.median(r["wall_s"] for r in results["run"])
    traced_wall = statistics.median(r["wall_s"] for r in results["trace"])
    values["trace.overhead_s"] = traced_wall - untraced
    report.append(f"tracing overhead: {traced_wall:.4f} s traced - "
                  f"{untraced:.4f} s untraced = "
                  f"{traced_wall - untraced:.4f} s per batch "
                  f"({len(results['trace'])} traced, "
                  f"{len(results['run'])} untraced batches)")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in per_layer_names()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fluxcoupler",
                                       "__init__.py")):
        print("no fluxcoupler source at ./src/fluxcoupler: run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    try:
        result, prov, checks, report = run(args.workload, args.seed,
                                           args.seconds, bool(args.trace),
                                           root)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    print(f"# fluxcoupler benchmark: {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    for key in sorted(prov):
        print(f"#   {key}: {prov[key]}")
    for line in checks:
        print(f"check: {line}")
    for line in report:
        print(line)
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

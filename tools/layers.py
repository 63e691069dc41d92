"""Per-layer timings of fluxcoupler at the operating point, side by side for
one or more source trees.

    python tools/layers.py --out BENCH.json parent=../parent change=.

An A/A column, which shows how far two columns of the same code differ on
one machine, is a second clone of the parent passed as one more NAME=ROOT
(parent_aa=../parent_aa).

For each NAME=ROOT the library is imported from ROOT/src, with one BLAS
thread.  Each layer of a point at beta_c 0.43, truncation 50/40/8, is timed
in REPEATS passes per round, each pass the mean of enough calls to fill
about 2 ms.  One more layer is a fabrication-spread chip (the operating
point with every qubit element 1 % off its design value) through the whole
spectral pipeline, its qubit, qubit-side and cosine memos emptied in every
call, since no chip of a Monte-Carlo batch reuses them.  bare_frame and
assemble_full are timed warm, as a beta_c sweep point reads them, and with
the qubit-side memo emptied before each call; the layers that empty a memo
are timed after the warm ones.  The first cosine matrix of a
truncation (40, 50 and 1000 levels) is timed with every memo of the
oscillator module emptied before each call, after the other layers, which
read those memos warm; the 1000-level one is sampled once per round.  Once
per round each CLI subcommand's default run is timed in a fresh
interpreter, start-up included, and so are a fresh interpreter's `import
fluxcoupler.cli` and the minor page faults (ru_minflt) of one default
30-point numerical-SWT sweep, the latter from a copy of the tree's src/ at
one fixed temporary path, since the count moves with the directory name
the library is imported from.  The sha256 of each subcommand's default
table is kept per tree, and so is the sha256 of its rows alone (its `#`
lines removed), so two columns show whether the tables, or their rows,
kept their bytes; a round whose table or rows differ from an earlier
round's of the same tree stops the harness.  Every sample is kept, and
each column is reduced by one function (spread) to its best and its [q1,
median, q3].  The samples come in ROUNDS rounds, and every round measures
each tree once, in alternating order, so a slow spell of a shared machine
falls on all trees alike.  The tier-1 suite of ROOT/tests is run once per tree, with its time
per file.  The JSON file --out gets one column per tree, with the machine,
the Python, numpy and scipy versions (scipy null where it is not installed)
and the git sha of the tree.
"""

import argparse
import collections
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from dataclasses import replace

BLAS_THREADS = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
REPEATS = 8    # layer samples per tree and round
ROUNDS = 10    # rounds of samples, each over every tree
SUBCOMMANDS = ("spectrum", "sweep-beta", "sweep-flux", "susceptibility",
               "compare-swt", "gap-scan")


def _env(root):
    return {**os.environ, **BLAS_THREADS,
            "PYTHONPATH": os.path.join(root, "src")}


def pass_ms(cases, repeats):
    """{name: [the mean time of one call in each of `repeats` passes, in ms]}
    for {name: call}, every case sampled once per pass."""
    calls = {}
    for name, f in cases.items():
        t0 = time.perf_counter()
        f()
        calls[name] = max(1, int(2e-3 / max(time.perf_counter() - t0, 1e-7)))
    samples = {name: [] for name in cases}
    for _ in range(repeats):
        for name, f in cases.items():
            t0 = time.perf_counter()
            for _ in range(calls[name]):
                f()
            samples[name].append(
                1e3 * (time.perf_counter() - t0) / calls[name])
    return samples


def perturbed_circuit(seed):
    """The operating point (beta_c 0.43, beta_j 1.1) with L_j, C_j, I_cj
    and M_j of every qubit 1 % off their design values and each qubit 1e-4
    Phi_0 off its bias, drawn from seed: four distinct qubits and 16
    distinct coupler forces, as on a fabricated chip."""
    import numpy as np
    from fluxcoupler.analysis import with_flux_offsets
    from fluxcoupler.circuit import reference_circuit

    rng = np.random.default_rng(seed)
    p = reference_circuit(beta_c=0.43, beta_j=1.1)
    spread = {name: getattr(p, name) * (1.0 + 0.01 * rng.normal(size=4))
              for name in ("L_j", "C_j", "I_cj", "M_j")}
    return with_flux_offsets(replace(p, **spread), 0.0,
                             1e-4 * rng.normal(size=4))


def perturbed_chip():
    """Unitless parameters of perturbed_circuit(1), the chip every tree's
    layers are timed on."""
    from fluxcoupler.circuit import derive_unitless

    return derive_unitless(perturbed_circuit(1))


def layers(repeats):
    """{layer: [ms per pass]} at the operating point, for the library on
    sys.path; every input is built once, and the memoised cosine_matrix is
    warm except where it is called uncached or the layer empties it."""
    from fluxcoupler import analysis, hamiltonian as ham, oscillator, swt
    from fluxcoupler.circuit import derive_unitless, reference_circuit
    from fluxcoupler.oscillator import cosine_matrix
    from fluxcoupler.spectrum import (_two_excitation_levels, eigendecompose,
                                      extract_couplings)

    p = reference_circuit(beta_c=0.43)
    u = derive_unitless(p)
    trunc = analysis.Truncations(50, 40, 8)
    qubits, coupler = analysis.build_system(u, trunc)
    omega = [q.omega for q in qubits]
    bare = ham.build_qubit_bare(u, 0, 50)
    phase = ham.qubit_phase(u, 0, 50)
    H = ham.assemble_full(qubits, coupler, u, 8)
    spec = eigendecompose(H)
    e_c, phi_c = ham.coupler_eigenbasis(coupler, u)
    h0, V, R = ham.bare_frame(qubits, u, e_c, phi_c)
    h_eff = swt.numerical_swt(u, qubits, coupler)[0]
    uncached = getattr(cosine_matrix, "__wrapped__", cosine_matrix)
    r_c = ham._phase(u.xi_c, 1.0, 40)[1]
    r_q = ham._phase(u.xi_j[0], 1.0 + u.alpha[0] ** 2, 50)[1]
    chip = perturbed_chip()
    chip_qubits = analysis.build_system(chip, trunc)[0]
    forces = ham._QubitSide(chip_qubits, chip).force
    if len({q.omega for q in chip_qubits}) != 4 or len(set(forces)) != 16:
        raise RuntimeError("the perturbed chip must have four distinct "
                           "qubits and 16 distinct forces")

    def cold_chip():
        ham._REDUCED.clear()
        ham._SIDE.clear()
        cosine_matrix.cache_clear()
        analysis.spectral_system(chip, trunc)

    def cold_side(build):
        def call():
            ham._SIDE.clear()
            build()
        return call

    cases = {
        # the validated circuit copy that every beta_c sweep row makes
        "analysis.with_beta_c": lambda: analysis.with_beta_c(p, 0.43),
        "oscillator.cosine_matrix (coupler, 40, uncached)":
            lambda: uncached(40, r_c),
        "oscillator.cosine_matrix (qubit, 50, uncached)":
            lambda: uncached(50, r_q),
        "hamiltonian.build_qubit_bare": lambda: ham.build_qubit_bare(u, 0, 50),
        "hamiltonian.reduce_qubit": lambda: ham.reduce_qubit(bare, phase),
        "hamiltonian.build_coupler": lambda: ham.build_coupler(u, 40),
        "hamiltonian.assemble_full":
            lambda: ham.assemble_full(qubits, coupler, u, 8),
        "spectrum.eigendecompose": lambda: eigendecompose(H),
        "spectrum.extract_couplings": lambda: extract_couplings(spec, omega),
        "spectrum._two_excitation_levels":
            lambda: _two_excitation_levels(spec),
        "hamiltonian.coupler_eigenbasis":
            lambda: ham.coupler_eigenbasis(coupler, u),
        "hamiltonian.bare_frame":
            lambda: ham.bare_frame(qubits, u, e_c, phi_c),
        "swt.swt_effective_block": lambda: swt.swt_effective_block(h0, *V),
        "swt.pauli_decompose": lambda: swt.pauli_decompose(h_eff),
        "swt.ising_couplings": lambda: swt.ising_couplings(h_eff),
        "swt.numerical_swt": lambda: swt.numerical_swt(u, qubits, coupler),
    }
    for branch in analysis.BRANCHES:
        cases[f"analysis.couplings_point ({branch})"] = (
            lambda b=branch: analysis.couplings_point(u, trunc, b))
    # the layers that empty memos, timed after the warm ones, which would
    # otherwise pay the first call after a perturbed chip
    cold = {
        "hamiltonian.assemble_full (cold qubit side)": cold_side(
            lambda: ham.assemble_full(qubits, coupler, u, 8)),
        "hamiltonian.bare_frame (cold qubit side)": cold_side(
            lambda: ham.bare_frame(qubits, u, e_c, phi_c)),
        "analysis.spectral_system (perturbed chip, cold memos)": cold_chip}

    def first_size(n, r):
        def call():
            for f in vars(oscillator).values():
                if hasattr(f, "cache_clear"):
                    f.cache_clear()
            cosine_matrix(n, r)
        return call

    out = pass_ms(cases, repeats)
    out.update(pass_ms(cold, repeats))
    out.update(pass_ms({
        "oscillator.cosine_matrix (coupler, 40, first size)":
            first_size(40, r_c),
        "oscillator.cosine_matrix (qubit, 50, first size)":
            first_size(50, r_q)}, repeats))
    out.update(pass_ms({"oscillator.cosine_matrix (qubit r, 1000, first size)":
                        first_size(1000, r_q)}, 1))
    return out


def in_child(flag, root):
    """What this script prints with `flag ROOT` (--layers-of: layers(REPEATS);
    --faults-of: sweep_minflt()) for the tree at root, in a fresh
    interpreter."""
    run = subprocess.run([sys.executable, os.path.abspath(__file__), flag,
                          root], env=_env(root), capture_output=True,
                         text=True, check=True)
    return json.loads(run.stdout)


def subcommand_s(root, name, tmp):
    """Wall time of one default run of a subcommand, start-up included, the
    sha256 of the table it writes and the sha256 of its rows alone (every
    line that starts with `#` removed).  A run that writes no table stops
    the harness; exit status 1 with a table only reports error rows, as
    gap-scan's default grid has."""
    table = os.path.join(tmp, name.replace("-", "_") + ".csv")
    if os.path.exists(table):
        os.remove(table)
    t0 = time.perf_counter()
    run = subprocess.run([sys.executable, "-m", "fluxcoupler.cli", name,
                          "--out", tmp], env=_env(root), cwd=tmp,
                         stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                         text=True)
    wall = time.perf_counter() - t0
    if run.returncode not in (0, 1) or not os.path.exists(table):
        raise RuntimeError(f"{name} of {root} failed (exit status "
                           f"{run.returncode}): {run.stderr.strip()}")
    with open(table, "rb") as f:
        data = f.read()
    rows = b"".join(line for line in data.splitlines(keepends=True)
                    if not line.startswith(b"#"))
    return (wall, hashlib.sha256(data).hexdigest(),
            hashlib.sha256(rows).hexdigest())


def import_s(root):
    """Time of `import fluxcoupler.cli` in a fresh interpreter, the
    interpreter's own start-up excluded."""
    code = ("import time; t0 = time.perf_counter(); import fluxcoupler.cli; "
            "print(time.perf_counter() - t0)")
    run = subprocess.run([sys.executable, "-c", code], env=_env(root),
                         capture_output=True, text=True, check=True)
    return float(run.stdout)


def faults_at_one_path(root, tmp):
    """in_child("--faults-of", ...) for a copy of root/src, without its
    bytecode caches, at the one path tmp/faults/src that every tree is
    copied to: the same src/ read 188 to 231 faults under four directory
    names, so the count is taken where only the code differs."""
    copy = os.path.join(tmp, "faults")
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(os.path.join(root, "src"), os.path.join(copy, "src"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    return in_child("--faults-of", copy)


def sweep_minflt():
    """Minor page faults of one default 30-point beta_c sweep through the
    numerical SWT, for the library on sys.path, imported beforehand."""
    from fluxcoupler import analysis, cli
    from fluxcoupler.circuit import reference_circuit

    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    analysis.sweep_beta(reference_circuit(), cli._BETA_GRID,
                        analysis.Truncations(), ("numerical_swt",))
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


# the samples of each column, and the digits its spread is rounded to
DIGITS = {"layers_ms": 4, "subcommands_s": 3, "import_cli_s": 4,
          "swt_sweep_minflt": 1}


def spread(samples, digits):
    """The best (smallest) of samples and their [q1, median, q3], rounded."""
    return {"best": round(min(samples), digits),
            "quartiles": [round(q, digits) for q in statistics.quantiles(
                samples, n=4, method="inclusive")]}


def tier1(root):
    """Wall time, outcome counts and the summed test time per file of the
    tier-1 suite under root/tests."""
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "tier1.xml")
        t0 = time.perf_counter()
        run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p",
                              "no:cacheprovider",
                              "--continue-on-collection-errors",
                              f"--junitxml={report}", "tests"], cwd=root,
                             env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL)
        wall = time.perf_counter() - t0
        # 0: all passed, 1: some failed; anything else means no full run
        if run.returncode not in (0, 1):
            raise RuntimeError(f"tier-1 suite of {root} did not run: pytest "
                               f"exit status {run.returncode}")
        per_file, passed, failed = {}, 0, 0
        for case in ET.parse(report).getroot().iter("testcase"):
            name = case.get("classname").rsplit(".", 1)[-1] + ".py"
            per_file[name] = per_file.get(name, 0.0) + float(case.get("time"))
            bad = case.find("failure") is not None or \
                case.find("error") is not None
            failed += bad
            passed += not bad and case.find("skipped") is None
    return {"wall_s": round(wall, 2), "passed": passed, "failed": failed,
            "per_file_s": {k: round(t, 2)
                           for k, t in sorted(per_file.items())}}


def provenance(root):
    """The git sha of root, whether its src/ differs from it, the machine
    and the library versions of this interpreter."""
    import numpy
    try:
        import scipy
    except ImportError:  # a test-only dependency
        scipy = None

    def git(*args):
        run = subprocess.run(["git", "-C", root, *args], capture_output=True,
                             text=True)
        return run.stdout.strip() if run.returncode == 0 else None

    model = None
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), None)
    status = git("status", "--porcelain", "--", "src")
    return {"git_sha": git("rev-parse", "HEAD"),
            "src_differs_from_sha": None if status is None else bool(status),
            "machine": {"cpu": model, "cpus": os.cpu_count(),
                        "arch": platform.machine(),
                        "system": platform.platform()},
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy and scipy.__version__}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", metavar="NAME=ROOT",
                        help="a column name and the source tree it measures")
    parser.add_argument("--out", help="JSON file to write")
    parser.add_argument("--layers-of", metavar="ROOT", help=argparse.SUPPRESS)
    parser.add_argument("--faults-of", metavar="ROOT", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.layers_of:
        sys.path.insert(0, os.path.join(args.layers_of, "src"))
        json.dump(layers(REPEATS), sys.stdout)
        return
    if args.faults_of:
        sys.path.insert(0, os.path.join(args.faults_of, "src"))
        print(json.dumps(sweep_minflt()))
        return
    if not args.trees or not args.out:
        parser.error("need --out and at least one NAME=ROOT")
    trees = {name: os.path.abspath(root)
             for name, root in (tree.split("=", 1) for tree in args.trees)}

    # samples[name][column, key]: every sample, key None for a column
    # that is one number
    samples = {name: collections.defaultdict(list) for name in trees}
    # tables[name][kind][subcommand]: the sha256 of its default table
    # (csv_sha256) and of that table's rows (csv_rows_sha256)
    tables = {name: {"csv_sha256": {}, "csv_rows_sha256": {}}
              for name in trees}
    with tempfile.TemporaryDirectory() as tmp:
        for r in range(ROUNDS):
            for name in list(trees)[::-1 if r % 2 else 1]:
                root, got = trees[name], samples[name]
                for layer, ms in in_child("--layers-of", root).items():
                    got["layers_ms", layer] += ms
                for cmd in SUBCOMMANDS:
                    wall, *digests = subcommand_s(root, cmd, tmp)
                    got["subcommands_s", cmd].append(wall)
                    for seen, digest in zip(tables[name].values(), digests):
                        if seen.setdefault(cmd, digest) != digest:
                            raise RuntimeError(
                                f"the {cmd} table of {root} changed its "
                                "bytes between rounds")
                got["import_cli_s", None].append(import_s(root))
                got["swt_sweep_minflt", None].append(
                    faults_at_one_path(root, tmp))
    columns = {}
    for name, root in trees.items():
        column = columns[name] = provenance(root)
        for (kind, key), values in samples[name].items():
            s = spread(values, DIGITS[kind])
            if key is None:
                column[kind] = s
            else:
                column.setdefault(kind, {})[key] = s
        column.update(tables[name])
        column["tier1"] = tier1(root)
    each = "best and [q1, median, q3]"
    setup = {"point": "reference circuit, beta_c 0.43, truncation 50/40/8",
             "chip": "the point with each qubit element 1 % off, seed 1",
             "blas_threads": 1,
             "layers_ms": f"{each} of {ROUNDS} x {REPEATS} passes, each the "
                 "mean time of one call (the 1000-level first size: "
                 f"{ROUNDS} passes)",
             "subcommands_s": f"default run, {each} of {ROUNDS}",
             "csv_sha256": "sha256 of each subcommand's default table, "
                 f"the same in all {ROUNDS} rounds",
             "csv_rows_sha256": "sha256 of the same table with every line "
                 f"that starts with # removed, the same in all {ROUNDS} "
                 "rounds",
             "import_cli_s": "import fluxcoupler.cli in a fresh "
                 f"interpreter, {each} of {ROUNDS}",
             "swt_sweep_minflt": "ru_minflt of the default 30-point "
                 "numerical-SWT sweep_beta in a fresh interpreter, "
                 f"{each} of {ROUNDS}",
             "order": "each round measures every tree, in alternating order"}
    with open(args.out, "w") as f:
        json.dump({"setup": setup, "columns": columns}, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()

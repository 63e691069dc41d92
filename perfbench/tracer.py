"""Span tracing of the fluxcoupler layers from outside the library.

Each traced library function is replaced by one wrapper at every place that
holds it: its defining module and every module that imported the name
directly (`from .hamiltonian import assemble_full` binds a second reference in
`analysis` and in `cli`, so wrapping only the defining module would miss those
calls).  A wrapper records a span (name, parent, row, start, end) and the
span's self time, which is its duration minus the time covered by its traced
children.  Spans stay in memory until `dump` writes them out.

A row is one output row of a sweep or one fab-spread chip; all spans made
while it is computed carry its number, so they share an identifier.
"""

import collections
import functools
import importlib
import json
import os
import sys
import time

# Library functions that get a span, grouped by the module that defines them.
TRACED = {
    "circuit": ("derive_unitless",),
    "oscillator": ("cosine_matrix", "qubit_reduction"),
    "hamiltonian": ("build_qubit_bare", "build_coupler", "reduce_qubit",
                    "assemble_full", "assemble_ising_model"),
    "spectrum": ("eigendecompose", "extract_couplings", "gap_diagnostics"),
    "swt": ("numerical_swt", "swt_effective_block", "pauli_decompose",
            "analytic_couplings"),
    "analysis": ("build_system", "spectral_point", "couplings_point"),
    "cli": ("parse_config", "write_csv"),
}

# Spans that compute one point; a row's latency is the sum of its top-level
# point spans.  `bench.chip` is the fab-spread workload's own span per chip.
POINT_SPANS = ("analysis.spectral_point", "analysis.couplings_point",
               "bench.chip")

# 16 dense N x N products in the seed's 4th-order generator recursion
# (S2: 1 commutator, S3: 3, effective block: 4), 2 N^3 flops each.
SWT_MATMULS = 16


class Tracer:
    def __init__(self):
        self.spans = []          # (id, parent id, name, row, t0, t1)
        self.stack = []          # [id, name, t0, child time, top point]
        self.calls = collections.Counter()
        self.self_s = collections.Counter()
        self.row = -1
        self.row_s = collections.Counter()
        # computed counts, see README.md
        self.cosine_seen = set()
        self.cosine_repeats = 0
        self.assemble_bytes = 0
        self.swt_flops = 0
        self.manifold_attempts = 0
        self.manifold_ok = 0
        self.csv_bytes = 0
        self.sites = collections.defaultdict(list)
        self.missing = []
        self.originals = {}

    # -- spans ---------------------------------------------------------------

    def new_row(self):
        self.row += 1

    def _in_point(self):
        return any(frame[1] in POINT_SPANS for frame in self.stack)

    def enter(self, name):
        if name == "circuit.derive_unitless" and not self._in_point():
            # a sweep derives the unitless parameters once per row, first
            self.new_row()
        top_point = name in POINT_SPANS and not self._in_point()
        frame = [len(self.spans) + len(self.stack), name, time.perf_counter(),
                 0.0, top_point]
        self.stack.append(frame)
        return frame

    def exit(self, frame):
        t1 = time.perf_counter()
        self.stack.pop()
        span_id, name, t0, child, top_point = frame
        dur = t1 - t0
        parent = self.stack[-1][0] if self.stack else -1
        if self.stack:
            self.stack[-1][3] += dur
        self.calls[name] += 1
        self.self_s[name] += dur - child
        if top_point:
            self.row_s[self.row] += dur
        self.spans.append((span_id, parent, name, self.row, t0, t1))

    def wrap(self, name, fn):
        hook = getattr(self, "_after_" + name.split(".")[-1], None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(frame)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    # -- computed counts -----------------------------------------------------

    def _after_cosine_matrix(self, args, kwargs, result):
        n = args[0] if args else kwargs.get("n_trunc")
        r = args[1] if len(args) > 1 else kwargs.get("r")
        theta = args[2] if len(args) > 2 else kwargs.get("theta", 0.0)
        key = (int(n), float(r), float(theta))
        if key in self.cosine_seen:
            self.cosine_repeats += 1
        self.cosine_seen.add(key)

    def _after_assemble_full(self, args, kwargs, result):
        self.assemble_bytes += int(result.data.nbytes)

    def _after_swt_effective_block(self, args, kwargs, result):
        n = len(args[0] if args else kwargs["h0_diag"])
        self.swt_flops += SWT_MATMULS * 2 * n**3

    def _after_eigendecompose(self, args, kwargs, result):
        if getattr(result, "basis", None) == "product":
            self.manifold_attempts += 1
            if int(result.subspace_label.sum()) >= 16:
                self.manifold_ok += 1

    def _after_write_csv(self, args, kwargs, result):
        path = args[0] if args else kwargs["path"]
        self.csv_bytes += os.path.getsize(path)

    # -- install -------------------------------------------------------------

    def install(self):
        """Wrap every TRACED function at every module attribute holding it."""
        pkg = importlib.import_module("fluxcoupler")
        for modname in TRACED:
            try:
                importlib.import_module("fluxcoupler." + modname)
            except ImportError:
                pass
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "fluxcoupler" or name.startswith("fluxcoupler.")]
        for modname, names in TRACED.items():
            mod = getattr(pkg, modname, None)
            for attr in names:
                label = f"{modname}.{attr}"
                orig = getattr(mod, attr, None)
                if not callable(orig):
                    self.missing.append(label)
                    continue
                self.originals[label] = orig
                wrapper = self.wrap(label, orig)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, key, wrapper)
                            self.sites[label].append(f"{m.__name__}.{key}")

    def profile_check(self, fn):
        """Run fn with a profiler that sees every execution of a traced
        function's code and checks that a wrapper span was open for it.

        Returns {label: calls that bypassed every wrapper}; a complete
        installation gives all zeros.
        """
        codes = {}
        for label, orig in self.originals.items():
            inner = getattr(orig, "__wrapped__", orig)
            code = getattr(inner, "__code__", None)
            if code is not None:
                codes[code] = label
        bypassed = collections.Counter({label: 0 for label in codes.values()})

        def profiler(frame, event, arg):
            if event == "call":
                label = codes.get(frame.f_code)
                if label is not None and (not self.stack
                                          or self.stack[-1][1] != label):
                    bypassed[label] += 1

        sys.setprofile(profiler)
        try:
            fn()
        finally:
            sys.setprofile(None)
        return dict(bypassed)

    # -- results -------------------------------------------------------------

    def summary(self):
        """Per-batch counts and self times, keyed by span label."""
        calls = self.calls
        cos = calls["oscillator.cosine_matrix"]
        builds = calls["analysis.build_system"]
        return {
            "calls": dict(calls),
            "self_s": dict(self.self_s),
            "row_s": [self.row_s[r] for r in sorted(self.row_s)],
            "spans": len(self.spans),
            "counts": {
                "cosine_matrix.repeat_share":
                    self.cosine_repeats / cos if cos else 0.0,
                "cosine_matrix.per_build_system":
                    cos / builds if builds else 0.0,
                "assemble_full.bytes_computed": self.assemble_bytes,
                "swt_effective_block.flops_computed": self.swt_flops,
                "manifold_ok_ratio":
                    (self.manifold_ok / self.manifold_attempts
                     if self.manifold_attempts else 0.0),
                "write_csv.bytes": self.csv_bytes,
            },
        }

    def dump(self, path):
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"names": names,
                       "fields": ["id", "parent", "name", "row", "t0", "t1"],
                       "spans": [[s[0], s[1], index[s[2]], s[3], s[4], s[5]]
                                 for s in self.spans]},
                      fh, separators=(",", ":"))

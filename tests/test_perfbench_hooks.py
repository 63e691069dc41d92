"""The library functions that the benchmark's tracer wraps must exist, and a
traced batch of each workload must see every point succeed."""

import importlib
import importlib.util
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    # tracer.py needs only the standard library; loading it wraps nothing
    tracer = _load("perfbench_tracer", TRACER)
    missing = []
    for module, names in tracer.TRACED.items():
        mod = importlib.import_module("fluxcoupler." + module)
        missing += [f"{module}.{name}" for name in names
                    if not callable(getattr(mod, name, None))]
    assert tracer.TRACED and not missing


@pytest.mark.usefixtures("cold_memos")
def test_traced_workloads_keep_their_contract(tmp_path, monkeypatch):
    # both workloads, shortened, through the tracer the benchmark installs:
    # two fab-spread chips of seed 3 and the swt-sweep point beta_c = 0.43
    monkeypatch.syspath_prepend(str(PERFBENCH))
    child = _load("perfbench_child", PERFBENCH / "child.py")
    tracer = child.tracing.Tracer()
    tracer.install()
    try:
        chips = child.run_chips(child.fab.make_batch(3, 2), 3, tmp_path,
                                tracer)
        chip_calls = dict(tracer.calls)
        sweep = child.run_sweep(child.build_inputs("swt-sweep", 3), tmp_path,
                                [0.43])
    finally:
        for label, sites in tracer.sites.items():
            for site in sites:
                modname, key = site.rsplit(".", 1)
                setattr(sys.modules[modname], key, tracer.originals[label])
    assert tracer.missing == []
    assert chips["point_ok"] == [True, True]
    assert sweep["point_ok"] == [True]
    assert tracer.summary()["counts"]["manifold_ok_ratio"] == 1.0
    # build_system builds each distinct qubit once: the sweep point's four
    # identical qubits are one build, and no fab chip has two equal qubits
    layers = ("hamiltonian.build_qubit_bare", "hamiltonian.reduce_qubit",
              "oscillator.cosine_matrix")
    assert [chip_calls[name] for name in layers] == [8, 8, 10]
    assert [tracer.calls[name] - chip_calls[name] for name in layers] \
        == [1, 1, 2]


@pytest.mark.parametrize("workload", ["fab-spread", "swt-sweep"])
def test_selfcheck_sees_no_bypassed_call(workload, tmp_path, monkeypatch):
    # the benchmark's selfcheck, one point of the workload under a profiler:
    # every call of a traced function must go through its wrapper
    monkeypatch.syspath_prepend(str(PERFBENCH))
    child = _load("perfbench_child", PERFBENCH / "child.py")
    saved = {name: dict(vars(module)) for name, module in sys.modules.items()
             if name == "fluxcoupler" or name.startswith("fluxcoupler.")}
    try:
        result = child.selfcheck(workload, child.build_inputs(workload, 3), 3,
                                 str(tmp_path))
    finally:
        for name, attrs in saved.items():
            module = sys.modules[name]
            for key, value in attrs.items():
                if getattr(module, key, None) is not value:
                    setattr(module, key, value)
    assert result["missing"] == []
    assert result["bypassed"]
    assert all(count == 0 for count in result["bypassed"].values()), \
        result["bypassed"]

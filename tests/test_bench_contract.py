"""The traced benchmark wraps gmech names from outside ``src/``.

``bench/tracing.py`` patches functions and methods by name in every gmech
module that binds them.  Installing and restoring it here makes a refactor
that drops or renames one of those names, or that changes which layers a
workload reaches, fail in the test suite rather than in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import gmech
import gmech.cli
from gmech import Generator, GeneratorFlags, TerminalClaim
from gmech.analysis import grid_points

from util import random_lipschitz_generator

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name, file, monkeypatch=None):
    """Import a bench module by path; given ``monkeypatch``, it sits in
    ``sys.modules`` for the test, as its dataclasses and sibling imports need."""
    spec = importlib.util.spec_from_file_location(name, BENCH / file)
    mod = importlib.util.module_from_spec(spec)
    if monkeypatch is not None:
        monkeypatch.setitem(sys.modules, name, mod)
    spec.loader.exec_module(mod)
    return mod


def _load_tracing():
    return _load("gmech_bench_tracing", "tracing.py")


def _bindings():
    """Every name bound in a gmech module or on a gmech class, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "gmech" or name.startswith("gmech.")):
            continue
        for attr, value in vars(mod).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("gmech"):
                for cattr, cvalue in vars(value).items():
                    out[(value.__module__, value.__qualname__, cattr)] = cvalue
    return out


def test_install_wraps_and_restore_puts_originals_back():
    tracing = _load_tracing()
    before = _bindings()
    tracer = tracing.Tracer()
    installed = tracing.install(tracer, gmech)
    try:
        assert gmech.engine.solve_bsde is not before[("gmech.engine", "solve_bsde")]
        lattice = gmech.build_lattice(gmech.build_grid(0.0, 1.0, 4))
        driver = Generator(fn=lambda t, y, z: 0.1 * np.abs(z) + 0.0 * y, mu=0.1,
                           flags=GeneratorFlags(zero_at_zero=True))
        claim = TerminalClaim(lambda b: np.asarray(b, dtype=float))
        gmech.solve_bsde(driver, claim, None, lattice)
        summary = tracer.summary()
        assert summary["engine.solve"]["calls"] == 1
        assert summary["engine.batch"]["calls"] == 0
        assert tracer.counters["picard_evals"] > 0
    finally:
        installed.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_traced_recovery_bypasses_the_batch_entry_point():
    # the blackbox workload predicts engine.batch.calls == 0 and a nonzero
    # analysis.probe.builds; recovery prices through price_rows, which
    # reaches the kernel without solve_terminal_batch
    tracing = _load_tracing()
    lattice = gmech.build_lattice(gmech.build_grid(0.0, 1.0, 16))
    mech = gmech.as_mechanism(random_lipschitz_generator(np.random.default_rng(41)), lattice)
    pts = grid_points([-1, 0, 1], [0, 1])
    untraced = gmech.recover_generator(mech, 3, pts, lattice)
    tracer = tracing.Tracer()
    installed = tracing.install(tracer, gmech)
    try:
        traced = gmech.recover_generator(mech, 3, pts, lattice)
    finally:
        installed.restore()
    summary = tracer.summary()
    assert summary["engine.batch"]["calls"] == 0
    assert summary["analysis.recover"]["calls"] == 1
    assert summary["analysis.probe"]["calls"] >= 1
    assert traced.table.tobytes() == untraced.table.tobytes()


def test_traced_blackbox_sequence_reaches_every_predicted_layer(monkeypatch, tmp_path):
    # the batched law suite and rebuild price through price_rows and the
    # kernel, which the tracer does not span; the blackbox workload's layers
    # must still be reached, by price_surface, check_domination and the CLI
    _load("reference", "reference.py", monkeypatch)
    blackbox = _load("workloads", "workloads.py", monkeypatch).WORKLOADS["blackbox"]
    tracing = _load_tracing()
    driver = random_lipschitz_generator(np.random.default_rng(43))
    lat8 = gmech.build_lattice(gmech.build_grid(0.0, 1.0, 8))
    lat16 = gmech.build_lattice(gmech.build_grid(0.0, 1.0, 16))
    tracer = tracing.Tracer()
    installed = tracing.install(tracer, gmech)
    try:
        gmech.axiom_suite(gmech.as_mechanism(driver, lat8), lat8, samples=20, seed=5)
        rc = gmech.cli.main(["axioms", "--gen", "gmu:0.5", "--samples", "20",
                             "--steps", "8", "--out", str(tmp_path / "axioms.json")])
        gmech.verify_main_theorem(gmech.as_mechanism(driver, lat16), lat16,
                                  samples=4, seed=7, level=4)
    finally:
        installed.restore()
    assert rc == 0
    metrics = tracing.layer_metrics(tracer.summary(), tracer.counters)
    assert [m for m in blackbox.exercised if not metrics[m][0]] == []
    assert [m for m in blackbox.bypassed if metrics[m][0]] == []
    assert metrics["engine.batch.calls"][0] == 0


def test_traced_audit_reaches_every_predicted_layer(monkeypatch, tmp_path):
    # the chain_audit workload predicts engine.batch spans and no driver
    # evaluation or analysis routine; the audit runs the batch kernel for
    # call_put and put_call only (call_call and put_put are binomial sums)
    _load("reference", "reference.py", monkeypatch)
    chain_audit = _load("workloads", "workloads.py", monkeypatch).WORKLOADS["chain_audit"]
    tracing = _load_tracing()
    chain = tmp_path / "chain.csv"
    assert gmech.cli.main(["synth", "--n-strikes", "5", "--out", str(chain)]) == 0
    tracer = tracing.Tracer()
    installed = tracing.install(tracer, gmech)
    try:
        rc = gmech.cli.main(["audit", "--chain", str(chain), "--mu", "0.5", "--steps", "32",
                             "--vol", "0.2", "--out", str(tmp_path / "audit.json")])
    finally:
        installed.restore()
    assert rc == 0
    metrics = tracing.layer_metrics(tracer.summary(), tracer.counters)
    assert [m for m in chain_audit.exercised if not metrics[m][0]] == []
    assert [m for m in chain_audit.bypassed if metrics[m][0]] == []
    assert metrics["engine.batch.calls"][0] == 2

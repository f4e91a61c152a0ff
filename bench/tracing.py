"""Span tracing of gmech from outside: wrappers installed around public calls.

Nothing in ``src/`` is edited.  :func:`install` patches the names a workload
reaches, in every ``gmech`` module namespace that holds them (``analysis``,
``cli`` and ``market`` bind engine and generator names with ``from .x import
y``, so patching the defining module alone would miss their calls), plus a
few methods on their classes.  :func:`Installed.restore` puts every original
back, so untraced passes run the unmodified program.

Spans (name, start, end, parent, op id) are kept in flat arrays while a pass
runs.  Self time is a span's duration minus the time its direct children
cover; one thread runs everything, so children never overlap.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from array import array

import numpy as np

# Every span name the wrappers record, in report order.
SPAN_NAMES = (
    "lattice.node_values",
    "lattice.process",
    "generators.driver",
    "generators.exact_step",
    "engine.solve",
    "engine.batch",
    "engine.mech",
    "engine.verdict",
    "analysis.axioms",
    "analysis.recover",
    "analysis.probe",
    "analysis.decompose",
    "analysis.rebuild",
    "market.audit",
    "market.chain_io",
    "cli.main",
)

# Counters derived from call arguments and results, not from timers.
COUNTERS = (
    "solve_nodes",       # sum of slice sizes solved by solve_bsde
    "picard_steps",      # implicit steps solved by iteration (no exact_step)
    "picard_evals",      # driver evaluations made inside solves and batches
    "picard_divergences",
    "batch_rows",
    "batch_row_nodes",   # rows x nodes solved by solve_terminal_batch
    "batch_bytes",       # computed minimum traffic of the batch kernel
    "audit_pairs",
    "recover_cells",
    "recover_mech_calls",
)

_GENERATOR_CONSTRUCTORS = (
    "zero_generator",
    "domination_generator",
    "abs_z_generator",
    "linear_generator",
    "black_scholes_generator",
)


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self):
        self._ids = {name: k for k, name in enumerate(SPAN_NAMES)}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack = []
        self.op_id = -1
        self.counters = dict.fromkeys(COUNTERS, 0)

    def begin(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(self._ids[name])
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def inside(self, *names: str) -> bool:
        """True when an open span of one of these names encloses the call."""
        ks = {self._ids[name] for name in names}
        return any(self.name[i] in ks for i in self.stack)

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        names = np.frombuffer(self.name, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        child_cover = np.bincount(parent[has_parent], weights=dur[has_parent],
                                  minlength=dur.size)
        self_time = dur - child_cover
        k = len(SPAN_NAMES)
        calls = np.bincount(names, minlength=k)
        incl = np.bincount(names, weights=dur, minlength=k)
        excl = np.bincount(names, weights=self_time, minlength=k)
        return {name: {"calls": int(calls[i]), "total_s": float(incl[i]),
                       "self_s": float(excl[i])}
                for i, name in enumerate(SPAN_NAMES)}

    def save(self, path) -> None:
        """Write the raw spans (one row per span) and the name table."""
        np.savez(path,
                 names=np.array(SPAN_NAMES),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 op=np.frombuffer(self.op, dtype=np.int32))


def _spanned(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.finish(idx)
    return wrapper


class Installed:
    """The patches made by :func:`install`; ``restore`` undoes all of them."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def replace_everywhere(self, original, wrapper):
        """Rebind ``original`` in every loaded gmech module that holds it."""
        hit = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "gmech" or mod_name.startswith("gmech.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, wrapper)
                    hit += 1
        if hit == 0:
            raise RuntimeError(f"no gmech namespace holds {original!r}")

    def restore(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def install(tracer: Tracer, gm) -> Installed:
    """Wrap the public calls of every gmech layer; see the module docstring."""
    latticemod, generators, engine = gm.lattice, gm.generators, gm.engine
    analysis, market, cli = gm.analysis, gm.market, gm.cli
    counters = tracer.counters
    inst = Installed()

    # -- lattice: methods patched on the class
    inst.set(latticemod.Lattice, "node_values",
             _spanned(tracer, "lattice.node_values", latticemod.Lattice.node_values))
    inst.set(latticemod.AdaptedProcess, "__init__",
             _spanned(tracer, "lattice.process", latticemod.AdaptedProcess.__init__))

    # -- generators: every driver evaluation goes through Generator.__call__;
    # closed-form steps are wrapped on each generator the library builds
    call = generators.Generator.__call__

    def driver_call(self, t, y, z):
        if tracer.inside("engine.solve", "engine.batch"):
            counters["picard_evals"] += 1
        idx = tracer.begin("generators.driver")
        try:
            return call(self, t, y, z)
        finally:
            tracer.finish(idx)

    inst.set(generators.Generator, "__call__", driver_call)

    def wrap_generator(gen):
        step = gen.exact_step
        if step is None or getattr(step, "_bench_wrapped", False):
            return gen
        wrapped = _spanned(tracer, "generators.exact_step", step)
        wrapped._bench_wrapped = True
        return dataclasses.replace(gen, exact_step=wrapped)

    def returns_generator(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return wrap_generator(fn(*args, **kwargs))
        return wrapper

    for ctor in _GENERATOR_CONSTRUCTORS:
        inst.replace_everywhere(getattr(generators, ctor),
                                returns_generator(getattr(generators, ctor)))
    inst.replace_everywhere(cli.parse_generator, returns_generator(cli.parse_generator))
    inst.set(analysis.RecoveredGenerator, "to_generator",
             returns_generator(analysis.RecoveredGenerator.to_generator))

    # -- engine
    solve = engine.solve_bsde

    def solve_bsde(g, claim, dividends, lattice, t_step=None, s_step=0):
        n = lattice.n_steps if t_step is None else t_step
        counters["solve_nodes"] += (n * (n + 1) - s_step * (s_step + 1)) // 2
        picard = g.exact_step is None
        if picard:
            counters["picard_steps"] += max(n - s_step, 0)
        idx = tracer.begin("engine.solve")
        try:
            return solve(g, claim, dividends, lattice, t_step=t_step, s_step=s_step)
        except engine.PicardDivergence:
            counters["picard_divergences"] += 1
            raise
        finally:
            tracer.finish(idx)

    inst.replace_everywhere(solve, functools.wraps(solve)(solve_bsde))

    batch = engine.solve_terminal_batch

    def solve_terminal_batch(g, terminal, lattice, t_step=None):
        n = lattice.n_steps if t_step is None else t_step
        rows = int(np.atleast_2d(terminal).shape[0])
        if g.exact_step is None:
            counters["picard_steps"] += n
        counters["batch_rows"] += rows
        counters["batch_row_nodes"] += rows * n * (n + 1) // 2
        # per step: read the (i + 2)-wide next slice, write the (i + 1)-wide one
        counters["batch_bytes"] += 8 * rows * (n * n + 2 * n)
        idx = tracer.begin("engine.batch")
        try:
            return batch(g, terminal, lattice, t_step=t_step)
        finally:
            tracer.finish(idx)

    inst.replace_everywhere(batch, functools.wraps(batch)(solve_terminal_batch))

    for cls_attr in ("price_at", "price_surface"):
        inst.set(engine.MechanismHandle, cls_attr,
                 _spanned(tracer, "engine.mech",
                          getattr(engine.MechanismHandle, cls_attr)))
    for fn in (engine.check_domination, engine.compare):
        inst.replace_everywhere(fn, _spanned(tracer, "engine.verdict", fn))

    # -- analysis
    inst.replace_everywhere(analysis.axiom_suite,
                            _spanned(tracer, "analysis.axioms", analysis.axiom_suite))
    inst.replace_everywhere(analysis.build_probe_path,
                            _spanned(tracer, "analysis.probe", analysis.build_probe_path))
    inst.replace_everywhere(analysis.doob_meyer,
                            _spanned(tracer, "analysis.decompose", analysis.doob_meyer))
    inst.replace_everywhere(analysis.verify_main_theorem,
                            _spanned(tracer, "analysis.rebuild",
                                     analysis.verify_main_theorem))
    recover = analysis.recover_generator
    recover_span = _spanned(tracer, "analysis.recover", recover)
    mech_span = SPAN_NAMES.index("engine.mech")

    @functools.wraps(recover)
    def recover_generator(*args, **kwargs):
        first = len(tracer.name)
        result = recover_span(*args, **kwargs)
        counters["recover_mech_calls"] += tracer.name[first:].count(mech_span)
        counters["recover_cells"] += int(result.table.size)
        return result

    inst.replace_everywhere(recover, recover_generator)

    # -- market
    audit = market.run_domination_test
    audit_span = _spanned(tracer, "market.audit", audit)

    @functools.wraps(audit)
    def run_domination_test(chain, *args, **kwargs):
        counters["audit_pairs"] += 4 * chain.n_strikes * (chain.n_strikes - 1)
        return audit_span(chain, *args, **kwargs)

    inst.replace_everywhere(audit, run_domination_test)
    inst.replace_everywhere(market.load_chain,
                            _spanned(tracer, "market.chain_io", market.load_chain))
    inst.set(market.OptionChain, "to_csv",
             _spanned(tracer, "market.chain_io", market.OptionChain.to_csv))

    # -- cli
    inst.replace_everywhere(cli.main, _spanned(tracer, "cli.main", cli.main))
    return inst


def layer_metrics(summary: dict, counters: dict) -> dict:
    """Per-layer metrics of one traced pass, as ``name -> (value, unit)``."""
    def calls(name):
        return summary[name]["calls"]

    def self_s(name):
        return summary[name]["self_s"]

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "lattice.node_values.calls": (calls("lattice.node_values"), "count"),
        "lattice.node_values.self_s": (self_s("lattice.node_values"), "s"),
        "lattice.process.builds": (calls("lattice.process"), "count"),
        "lattice.process.self_s": (self_s("lattice.process"), "s"),
        "generators.driver.evals": (calls("generators.driver"), "count"),
        "generators.driver.self_s": (self_s("generators.driver"), "s"),
        "generators.exact_step.calls": (calls("generators.exact_step"), "count"),
        "generators.exact_step.self_s": (self_s("generators.exact_step"), "s"),
        "engine.solve.calls": (calls("engine.solve"), "count"),
        "engine.solve.nodes": (counters["solve_nodes"], "count"),
        "engine.solve.ns_per_node": (
            1e9 * ratio(summary["engine.solve"]["total_s"], counters["solve_nodes"]), "ns"),
        "engine.picard.iters_per_step": (
            ratio(counters["picard_evals"], counters["picard_steps"]), "iter/step"),
        "engine.picard.divergences": (counters["picard_divergences"], "count"),
        "engine.batch.calls": (calls("engine.batch"), "count"),
        "engine.batch.rows": (counters["batch_rows"], "count"),
        "engine.batch.ns_per_node": (
            1e9 * ratio(summary["engine.batch"]["total_s"], counters["batch_row_nodes"]),
            "ns"),
        "engine.batch.computed_bytes": (counters["batch_bytes"], "B"),
        "engine.mech.calls": (calls("engine.mech"), "count"),
        "engine.mech.overhead_us_per_call": (
            1e6 * ratio(self_s("engine.mech"), calls("engine.mech")), "us"),
        "engine.verdict.self_s": (self_s("engine.verdict"), "s"),
        "analysis.axioms.calls": (calls("analysis.axioms"), "count"),
        "analysis.axioms.self_s": (self_s("analysis.axioms"), "s"),
        "analysis.recover.calls": (calls("analysis.recover"), "count"),
        "analysis.recover.self_s": (self_s("analysis.recover"), "s"),
        "analysis.recover.mech_calls_per_cell": (
            ratio(counters["recover_mech_calls"], counters["recover_cells"]), "call/cell"),
        "analysis.probe.builds": (calls("analysis.probe"), "count"),
        "analysis.decompose.calls": (calls("analysis.decompose"), "count"),
        "analysis.decompose.self_s": (self_s("analysis.decompose"), "s"),
        "analysis.rebuild.calls": (calls("analysis.rebuild"), "count"),
        "analysis.rebuild.self_s": (self_s("analysis.rebuild"), "s"),
        "market.audit.self_s": (self_s("market.audit"), "s"),
        "market.audit.pairs": (counters["audit_pairs"], "count"),
        "market.chain_io_s": (summary["market.chain_io"]["total_s"], "s"),
        "cli.main.calls": (calls("cli.main"), "count"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
    }
    return out

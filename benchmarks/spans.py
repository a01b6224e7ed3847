"""Per-layer tracing from outside the package.

``Tracer.install`` replaces each wrapped public function of ``noonforge``
with a wrapper that records a span (name, start, end, parent, operation id)
and updates work counters. A function imported by name into another module
is replaced at every such import site (``noonforge.noon.transition_amplitude``
as well as ``noonforge.evolve.transition_amplitude``), so calls between
modules are seen too. ``uninstall`` puts every original back.

Spans stay in memory until ``metrics`` reduces them. A span's self time is
its duration minus the time covered by its direct child spans; calls are
single-threaded and strictly nested, so children never overlap.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute) pairs wrapped with a span. Dotted attributes are methods.
SPANNED = (
    ("cli", "main"),
    ("cli", "reproduction_claims"),
    ("reference", "bundled_matrix"),
    ("unitary", "load_matrix"),
    ("unitary", "save_matrix"),
    ("unitary", "unitarize"),
    ("unitary", "validate_symmetry"),
    ("unitary", "max_unitarity_defect"),
    ("unitary", "effective_hamiltonian"),
    ("unitary", "matrix_exp"),
    ("fock", "enumerate_basis"),
    ("fock", "state_from_spec"),
    ("evolve", "permanent"),
    ("evolve", "transition_amplitude"),
    ("evolve", "evolve_state"),
    ("evolve", "TransitionTable.to_payload"),
    ("evolve", "fock_hamiltonian"),
    ("evolve", "evolve_state_hamiltonian"),
    ("noon", "extract_noon"),
    ("noon", "post_select"),
    ("noon", "sweep_inputs"),
    ("serialize", "dumps"),
)
# Called too often for a span to be cheap next to the call: counted only.
COUNTED = (("fock", "FockBasis.index_of"),)

# Per-layer metrics and their units, in the order they are reported.
PER_LAYER = (
    ("evolve.permanent.calls", "count"),
    ("evolve.permanent.s", "s"),
    ("evolve.permanent.gray_steps", "count"),
    ("evolve.permanent.cmul_computed", "count"),
    ("evolve.permanent.max_n", "count"),
    ("evolve.transition_amplitude.calls", "count"),
    ("evolve.transition_amplitude.self_s", "s"),
    ("evolve.evolve_state.self_s", "s"),
    ("evolve.TransitionTable.to_payload.s", "s"),
    ("evolve.fock_hamiltonian.s", "s"),
    ("evolve.hamiltonian_dim.max", "count"),
    ("evolve.evolve_state_hamiltonian.self_s", "s"),
    ("evolve.norm_residual.max", "ratio"),
    ("unitary.matrix_exp.s", "s"),
    ("unitary.effective_hamiltonian.s", "s"),
    ("unitary.load_matrix.s", "s"),
    ("unitary.unitarize.s", "s"),
    ("unitary.validate_symmetry.s", "s"),
    ("unitary.save_matrix.s", "s"),
    ("unitary.max_unitarity_defect.calls", "count"),
    ("fock.enumerate_basis.calls", "count"),
    ("fock.enumerate_basis.s", "s"),
    ("fock.basis_states.sum", "count"),
    ("fock.state_from_spec.s", "s"),
    ("fock.FockBasis.index_of.calls", "count"),
    ("noon.extract_noon.s", "s"),
    ("noon.post_select.s", "s"),
    ("noon.post_select.dropped_weight", "ratio"),
    ("noon.sweep_inputs.self_s", "s"),
    ("noon.sweep_inputs.zero_weight_frac", "ratio"),
    ("serialize.dumps.s", "s"),
    ("serialize.dumps.bytes", "B"),
    ("reference.bundled_matrix.s", "s"),
    ("cli.reproduction_claims.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def _norm_residual(table) -> float:
    return abs(float(np.linalg.norm(table.amplitudes)) - 1.0)


def _observe_permanent(tr, args, result):
    n = len(args[0])
    tr.counters["evolve.permanent.gray_steps"] += (1 << n) - 1
    tr.counters["evolve.permanent.cmul_computed"] += ((1 << n) - 1) * n
    tr.maxima["evolve.permanent.max_n"] = max(tr.maxima["evolve.permanent.max_n"], n)


def _observe_basis(tr, args, result):
    tr.counters["fock.basis_states.sum"] += len(result)


def _observe_table(tr, args, result):
    tr.maxima["evolve.norm_residual.max"] = max(
        tr.maxima["evolve.norm_residual.max"], _norm_residual(result))


def _observe_hamiltonian(tr, args, result):
    tr.maxima["evolve.hamiltonian_dim.max"] = max(
        tr.maxima["evolve.hamiltonian_dim.max"], result.shape[0])


def _observe_post_select(tr, args, result):
    tr.counters["noon.post_select.dropped_weight"] += 1.0 - result[1]


def _observe_sweep(tr, args, result):
    tr.counters["noon.sweep_inputs.rows"] += len(result)
    tr.counters["noon.sweep_inputs.zero_rows"] += sum(
        1 for _, report in result if report.success_probability == 0.0)


def _observe_dumps(tr, args, result):
    tr.counters["serialize.dumps.bytes"] += len(result.encode())


OBSERVERS = {
    "evolve.permanent": _observe_permanent,
    "fock.enumerate_basis": _observe_basis,
    "evolve.evolve_state": _observe_table,
    "evolve.evolve_state_hamiltonian": _observe_table,
    "evolve.fock_hamiltonian": _observe_hamiltonian,
    "noon.post_select": _observe_post_select,
    "noon.sweep_inputs": _observe_sweep,
    "serialize.dumps": _observe_dumps,
}


def _resolve(module_name: str, attr: str):
    """(owner, name, original) for a wrapped attribute of a noonforge module."""
    owner = sys.modules[f"noonforge.{module_name}"]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


class Tracer:
    """Spans and counters for the wrapped noonforge functions."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counters: defaultdict[str, float] = defaultdict(int)
        self.maxima: defaultdict[str, float] = defaultdict(int)
        self.op_id = 0
        self._stack: list[int] = []

    def _spanned(self, name: str, fn):
        observe = OBSERVERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counters, key = self.counters, name + ".calls"

        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every listed function at each module that binds it."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        self.reset()
        modules = [m for key, m in sys.modules.items()
                   if key == "noonforge" or key.startswith("noonforge.")]
        for wrap, targets in ((self._spanned, SPANNED), (self._counted, COUNTED)):
            for module_name, attr in targets:
                owner, name, original = _resolve(module_name, attr)
                wrapped = wrap(f"{module_name}.{attr}", original)
                sites = [(owner, name)]
                if "." not in attr:
                    sites += [(m, name) for m in modules
                              if m is not owner and m.__dict__.get(name) is original]
                for site, site_name in sites:
                    self._patches.append((site, site_name, original))
                    setattr(site, site_name, wrapped)

    def uninstall(self) -> None:
        """Restore every original function."""
        while self._patches:
            site, name, original = self._patches.pop()
            setattr(site, name, original)

    def metrics(self) -> dict[str, float]:
        """Per-layer totals over the spans recorded since the last install."""
        calls: defaultdict[str, int] = defaultdict(int)
        total: defaultdict[str, float] = defaultdict(float)
        child: list[float] = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_s: defaultdict[str, float] = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child):
            self_s[name] += end - start - covered

        out: dict[str, float] = dict.fromkeys((m for m, _ in PER_LAYER), 0)
        for metric in out:
            key, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = calls.get(key, 0)
            elif kind == "s":
                out[metric] = total.get(key, 0.0)
            elif kind == "self_s":
                out[metric] = self_s.get(key, 0.0)
        for source in (self.counters, self.maxima):
            out.update((k, v) for k, v in source.items() if k in out)
        if calls["noon.post_select"]:
            out["noon.post_select.dropped_weight"] /= calls["noon.post_select"]
        rows = self.counters["noon.sweep_inputs.rows"]
        if rows:
            out["noon.sweep_inputs.zero_weight_frac"] = (
                self.counters["noon.sweep_inputs.zero_rows"] / rows)
        return out

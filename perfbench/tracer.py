"""Span recording around the thermodelay layers, installed from outside the package.

`Tracer.install()` replaces every public function of the layer modules, the
public methods of their public classes, and the `scipy.linalg.eigvals`
binding the spectral module calls, with wrappers that record spans.  A
function imported by name into another module (`cli.simulate`,
`integrate.energy`, ...) or stored in a module-level table (`cli.COMMANDS`)
is rewrapped at each of those bindings too, so every call path is seen.
`uninstall()` restores the originals.

A span is (id, name, start, end, parent id, operation id).  Parents follow
a per-thread stack; the first span in a pool thread takes as its parent the
span the operation's own thread has open.  Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import statistics
import sys
import threading
import time
from contextlib import contextmanager

LAYERS = ("constants", "discretization", "integrate", "delay", "observables",
          "spectral", "config", "cli")
# cli exports only main(); its commands and the per-point sweep worker are
# the boundaries between the command layer and the library.
CLI_FUNCTIONS = ("main", "cmd_certify", "cmd_simulate", "cmd_sweep",
                 "cmd_spectrum", "_sweep_point")


def _nnz(args, result):
    return result.matrix.nnz


def _dense_dim(args, result):
    return args[0].shape[0]


def _converged(args, result):
    return (int(result.converged.sum()), len(result.converged))


def _trials(args, result):
    return result["trials"]


# span name -> function of (args, result) whose value is kept as a note
PROBES = {
    "discretization.assemble_generator": _nnz,
    "spectral.eigvals": _dense_dim,
    "spectral.spectrum_dense": _converged,
    "spectral.dissipativity_test": _trials,
}


class _ModuleProxy:
    """Stands in for a foreign module, overriding some of its attributes."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans = []               # (id, name, t0, t1, parent, op)
        self.notes = {}               # span name -> list of probe values
        self.wrapped = set()          # span names that exist and are wrapped
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op = None               # (op id, op span id, op thread's stack)
        self._restore = []            # (setter, original) pairs

    # -- recording ---------------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        probe = PROBES.get(name)
        ids, spans, notes = self._ids, self.spans, self.notes
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            op = self._op
            if stack:
                parent = stack[-1]
            elif op:      # first span in a pool thread: whatever span submitted it
                parent = op[2][-1] if op[2] else op[1]
            else:
                parent = None
            sid = next(ids)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, name, t0, t1, parent, op[0] if op else None))
            if probe is not None:
                notes.setdefault(name, []).append(probe(args, result))
            return result

        self.wrapped.add(name)
        return wrapper

    @contextmanager
    def operation(self, op_id, kind):
        """Root span of one benchmark operation; its id tags all spans inside."""
        sid = next(self._ids)
        self._op = (op_id, sid, self._stack())
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((sid, f"op.{kind}", t0, time.perf_counter(), None, op_id))
            self._op = None

    # -- installation ------------------------------------------------------
    def install(self):
        import scipy.linalg
        mods = {layer: sys.modules[f"thermodelay.{layer}"] for layer in LAYERS}
        originals = {}                # id(original) -> (original, wrapper)
        for layer, mod in mods.items():
            names = CLI_FUNCTIONS if layer == "cli" else getattr(mod, "__all__", ())
            for attr in names:
                obj = getattr(mod, attr, None)
                if inspect.isfunction(obj):
                    originals[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and not meth.startswith("_"):
                            wrapper = self._wrap(f"{layer}.{attr}.{meth}", fn)
                            self._set(obj, meth, wrapper, fn)

        # rebind every reference the package holds to a wrapped function
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "thermodelay"
                                   or mod_name.startswith("thermodelay.")):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in originals and originals[id(val)][0] is val:
                    self._set(mod, attr, originals[id(val)][1], val)
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if id(item) in originals and originals[id(item)][0] is item:
                            self._set(val, key, originals[id(item)][1], item)

        spectral = mods["spectral"]
        if getattr(spectral, "sla", None) is scipy.linalg:
            proxy = _ModuleProxy(scipy.linalg, eigvals=self._wrap(
                "spectral.eigvals", scipy.linalg.eigvals))
            self._set(spectral, "sla", proxy, scipy.linalg)

    def _set(self, target, key, value, original):
        if isinstance(target, dict):
            target[key] = value
            self._restore.append((functools.partial(target.__setitem__, key), original))
        else:
            setattr(target, key, value)
            self._restore.append((functools.partial(setattr, target, key), original))

    def uninstall(self):
        for setter, original in reversed(self._restore):
            setter(original)
        self._restore.clear()


# -- analysis ----------------------------------------------------------------

def _union_length(intervals):
    total, end = 0.0, -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class SpanIndex:
    """Queries over a finished span list: totals, medians and self time."""

    def __init__(self, spans):
        self.by_name = {}
        self.children = {}
        self.by_id = {}
        for s in spans:
            self.by_name.setdefault(s[1], []).append(s)
            self.by_id[s[0]] = s
            if s[4] is not None:
                self.children.setdefault(s[4], []).append(s)

    def durations(self, name, parent_prefix=None):
        out = []
        for s in self.by_name.get(name, ()):
            if parent_prefix is not None:
                parent = self.by_id.get(s[4])
                if parent is None or not parent[1].startswith(parent_prefix):
                    continue
            out.append(s[3] - s[2])
        return out

    def count(self, name):
        return len(self.by_name.get(name, ()))

    def total(self, name):
        return sum(self.durations(name))

    def self_time(self, name):
        """Span durations minus the part of each interval its children cover."""
        total = 0.0
        for s in self.by_name.get(name, ()):
            kids = [(max(c[2], s[2]), min(c[3], s[3]))
                    for c in self.children.get(s[0], ())]
            total += (s[3] - s[2]) - _union_length(kids)
        return total

    def op_spans(self, op_id):
        return [s for s in self.by_id.values() if s[5] == op_id]


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """Nearest-rank percentile; 0.0 when nothing was recorded."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


RECORD_SPANS = ("observables.energy", "observables.lyapunov_components",
                "observables.theta_mass")


def layer_metrics(spans, notes, wrapped, workers=1):
    """Per-layer metrics from one traced pass.

    Returns name -> (value, unit).  A metric whose span names are not all
    in `wrapped` (the function no longer exists) is None; one whose spans
    exist but did not fire reads 0.
    """
    ix = SpanIndex(spans)
    us = 1e6
    steps = ix.durations("integrate.step_imex")
    certs = ix.durations("constants.certify")
    records = ix.durations("observables.energy", parent_prefix="integrate.simulate")
    record_time = sum(sum(ix.durations(n, parent_prefix="integrate.simulate"))
                      for n in RECORD_SPANS)
    conv = notes.get("spectral.spectrum_dense", [])
    refined = sum(n for _, n in conv)
    trials = sum(notes.get("spectral.dissipativity_test", []))
    points = ix.durations("cli._sweep_point")
    sweep = ix.total("cli.cmd_sweep")
    cli_spans = [n for n in ix.by_name if n.startswith("cli.")]

    table = {
        "constants.find_beta0_s": (ix.total("constants.find_beta0"), "s",
                                   ["constants.find_beta0"]),
        "constants.certify_calls": (len(certs), "count", ["constants.certify"]),
        "constants.certify_us": (median(certs) * us, "us", ["constants.certify"]),
        "discretization.build_operators_s": (
            ix.total("discretization.build_operators"), "s",
            ["discretization.build_operators"]),
        "discretization.assemble_generator_s": (
            ix.total("discretization.assemble_generator"), "s",
            ["discretization.assemble_generator"]),
        "discretization.generator_nnz": (
            max(notes.get("discretization.assemble_generator", [0])), "count",
            ["discretization.assemble_generator"]),
        "integrate.factor_implicit_s": (ix.total("integrate.factor_implicit"), "s",
                                        ["integrate.factor_implicit"]),
        "integrate.factorizations": (ix.count("integrate.factor_implicit"), "count",
                                     ["integrate.factor_implicit"]),
        "integrate.step_us": (median(steps) * us, "us", ["integrate.step_imex"]),
        "integrate.step_us_p99": (percentile(steps, 99) * us, "us",
                                  ["integrate.step_imex"]),
        "integrate.steps": (len(steps), "count", ["integrate.step_imex"]),
        "delay.as_field_us": (median(ix.durations("delay.HistoryBuffer.as_field")) * us,
                              "us", ["delay.HistoryBuffer.as_field"]),
        "delay.init_history_s": (ix.total("delay.init_history"), "s",
                                 ["delay.init_history"]),
        "observables.record_us": (record_time / len(records) * us if records else 0.0,
                                  "us", list(RECORD_SPANS)),
        "observables.records": (len(records), "count", ["observables.energy"]),
        "observables.decay_rate_fit_s": (ix.total("observables.decay_rate_fit"), "s",
                                         ["observables.decay_rate_fit"]),
        "spectral.restriction_maps_s": (ix.total("spectral.restriction_maps"), "s",
                                        ["spectral.restriction_maps"]),
        "spectral.reduce_s": (ix.self_time("spectral.reduced_generator"), "s",
                              ["spectral.reduced_generator"]),
        "spectral.eigvals_s": (ix.total("spectral.eigvals"), "s", ["spectral.eigvals"]),
        "spectral.refine_s": (ix.self_time("spectral.spectrum_dense"), "s",
                              ["spectral.spectrum_dense"]),
        "spectral.dense_dim": (max(notes.get("spectral.eigvals", [0])), "count",
                               ["spectral.eigvals"]),
        "spectral.refine_converged": (
            sum(c for c, _ in conv) / refined if refined else 0.0, "ratio",
            ["spectral.spectrum_dense"]),
        "spectral.refined": (refined, "count", ["spectral.spectrum_dense"]),
        "spectral.dissipativity_trials": (trials, "count",
                                          ["spectral.dissipativity_test"]),
        "spectral.dissipativity_us_per_trial": (
            ix.total("spectral.dissipativity_test") / trials * us if trials else 0.0,
            "us", ["spectral.dissipativity_test"]),
        "config.load_config_s": (median(ix.durations("config.load_config")), "s",
                                 ["config.load_config"]),
        "cli.self_s": (sum(ix.self_time(n) for n in cli_spans), "s", ["cli.main"]),
        "cli.sweep_busy_ratio": (
            sum(points) / (workers * sweep) if sweep else 0.0, "ratio",
            ["cli._sweep_point", "cli.cmd_sweep"]),
        "cli.sweep_points": (len(points), "count", ["cli._sweep_point"]),
    }
    return {name: (None if any(n not in wrapped for n in need) else value, unit)
            for name, (value, unit, need) in table.items()}


def outermost_total(ix, op_id, prefix):
    """Time inside spans named `prefix`* of one operation, nested ones counted once."""
    mine = [s for s in ix.op_spans(op_id) if s[1].startswith(prefix)]
    ids = {s[0] for s in mine}
    return sum(s[3] - s[2] for s in mine if s[4] not in ids)

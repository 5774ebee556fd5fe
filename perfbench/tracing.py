"""Out-of-program tracing of the twpc layers.

``Tracer.install`` wraps every public function of each layer module and a
few named methods, patching the attributes through which callers look them
up (the defining module, every other ``twpc`` module that imported the
name, and the package namespace).  It also wraps the LU entry points the
solvers call: ``scipy.sparse.linalg.splu`` (and ``.solve`` of the factor it
returns), ``scipy.linalg.solve_banded``, ``lu_factor`` and ``lu_solve``.
An LU span is charged to the innermost enclosing layer span.  Names that
do not exist are listed in ``absent`` and their metrics read 0.

Spans are aggregated in memory as they close: per traced name the
inclusive and self durations, per layer the exclusive (self) time, and
per layer the LU factor/solve durations, fill and right-hand-side columns.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("device", "dispersion", "matching", "coupled_mode", "network",
          "harmonic_balance", "sidebands", "tdr", "touchstone", "cli")

#: methods and private functions traced besides the public functions
EXTRA = ("sidebands._PumpedLinearizer.solve",
         "sidebands._PumpedLinearizer.__init__",
         "cli.Runner.write_csv", "cli.Runner.write_json", "cli.Runner.finish")

#: (module, attribute, kind, position of the right-hand side): LU entry
#: points; kind "factor+solve" solves in the same call and counts as one
#: factor
LU_ENTRIES = (("scipy.sparse.linalg", "splu", "factor", None),
              ("scipy.linalg", "solve_banded", "factor+solve", 2),
              ("scipy.linalg", "lu_factor", "factor", None),
              ("scipy.linalg", "lu_solve", "solve", 1))


class Stats:
    """Durations (s) of one traced name."""

    __slots__ = ("layer", "total", "self_", "lu", "raised", "extra")

    def __init__(self, layer):
        self.layer = layer
        self.total = array("d")
        self.self_ = array("d")
        self.lu = array("d")    # LU time charged to each span
        self.raised = 0
        self.extra = 0          # name-specific count (see Tracer._after)


class _Frame:
    __slots__ = ("layer", "child", "lu")

    def __init__(self, layer):
        self.layer = layer
        self.child = 0.0        # time covered by child layer spans
        self.lu = 0.0           # time of LU spans charged to this span


class Tracer:
    def __init__(self):
        self.stack = []
        self.names = {}                     # traced name -> Stats
        self.layer_self = defaultdict(float)
        self.lu = defaultdict(lambda: {"factor": array("d"),
                                       "solve": array("d"),
                                       "fill": array("d"), "rhs": 0})
        self.brentq_calls = defaultdict(int)    # enclosing layer -> calls
        self.brentq_evals = defaultdict(int)    # enclosing layer -> f evals
        self.points = set()                 # distinct solve_corrected args
        self.absent = []
        self.bookkeeping = 0.0              # LU accounting kept out of spans
        self._patches = []                  # (owner, attr, original)

    # -- spans -----------------------------------------------------------

    def _layer_wrapper(self, name, layer, fn):
        stats = self.names[name] = Stats(layer)
        stack = self.stack
        after = self._after(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = _Frame(layer)
            stack.append(frame)
            t0 = perf_counter()
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                dt = perf_counter() - t0
                stack.pop()
                own = dt - frame.child
                stats.total.append(dt)
                stats.self_.append(own)
                stats.lu.append(frame.lu)
                self.layer_self[layer] += own
                if stack:
                    stack[-1].child += dt
                if not ok:
                    stats.raised += 1
                if after is not None:
                    after(stats, args, out if ok else None)
            return out
        return traced

    def _after(self, name):
        """Per-name hook run when a call ends, for exact counts; ``out``
        is None when the call raised."""
        if name == "harmonic_balance.pump_harmonic_balance":
            def hook(stats, args, out):
                stats.extra += getattr(out, "iterations", 0)
            return hook
        if name == "matching.solve_corrected":
            def hook(stats, args, out):
                self.points.add(args[:3])
            return hook
        if name == "touchstone.write_touchstone":
            def hook(stats, args, out):
                if os.path.exists(args[0]):
                    stats.extra += os.path.getsize(args[0])
            return hook
        return None

    def _charge_lu(self, kind, dt, fill=0.0, rhs=0):
        frame = self.stack[-1] if self.stack else None
        layer = frame.layer if frame else "other"
        rec = self.lu[layer]
        if kind != "solve":
            rec["factor"].append(dt)
            rec["fill"].append(fill)
        if kind != "factor":
            rec["solve"].append(dt)
            rec["rhs"] += rhs
        if frame:
            frame.lu += dt

    def _lu_wrapper(self, kind, fn, rhs_at):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            dt = perf_counter() - t0
            # fill and rhs bookkeeping is excluded from the enclosing
            # span's self time
            t1 = perf_counter()
            rhs = _columns(args[rhs_at]) if rhs_at is not None else 0
            fill = _FILL[fn.__name__](args, out) if kind != "solve" else 0
            self._charge_lu(kind, dt, fill, rhs)
            if kind == "factor" and fn.__name__ == "splu":
                out = _TracedLU(out, self)
            spent = perf_counter() - t1
            self.bookkeeping += spent
            if self.stack:
                self.stack[-1].child += spent
            return out
        return traced

    # -- installation ----------------------------------------------------

    def install(self):
        import twpc.cli  # noqa: F401  (loads every layer module)
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "twpc" or n.startswith("twpc."))]
        replace = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"twpc.{layer}")
            if mod is None:
                self.absent.append(f"twpc.{layer}")
                continue
            for attr, obj in list(vars(mod).items()):
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    replace[obj] = self._layer_wrapper(
                        f"{layer}.{attr}", layer, obj)
        for dotted in EXTRA:
            layer, *path = dotted.split(".")
            owner = sys.modules.get(f"twpc.{layer}")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            fn = getattr(owner, path[-1], None) if owner is not None else None
            if fn is None:
                self.absent.append(dotted)
                continue
            self._patch(owner, path[-1],
                        self._layer_wrapper(dotted, layer, fn))
        for modname, attr, kind, rhs_at in LU_ENTRIES:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.absent.append(f"{modname}.{attr}")
                continue
            replace[fn] = self._lu_wrapper(kind, fn, rhs_at)
            self._patch(mod, attr, replace[fn])
        from scipy import optimize
        replace[optimize.brentq] = self._brentq_wrapper(optimize.brentq)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                try:
                    wrapper = replace.get(obj)
                except TypeError:       # unhashable attribute
                    continue
                if wrapper is not None:
                    self._patch(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _brentq_wrapper(self, fn):
        @functools.wraps(fn)
        def traced(f, *args, **kwargs):
            layer = self.stack[-1].layer if self.stack else "other"

            def counted(*a):
                self.brentq_evals[layer] += 1
                return f(*a)
            self.brentq_calls[layer] += 1
            return fn(counted, *args, **kwargs)
        return traced

    # -- metrics ---------------------------------------------------------

    def stats(self, name) -> Stats:
        """Stats of a traced name; an empty one, recorded as absent, for a
        name that was not found at install time."""
        if name not in self.names:
            if name not in self.absent:
                self.absent.append(name)
            return Stats(None)
        return self.names[name]

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of one traced pass: name -> Sample.

        ``*_ms`` values are the median duration of one call (or one LU
        span) with the tail percentile kept alongside; counts are exact.
        """
        out = {}

        def calls(name):
            return len(self.stats(name).total)

        def timing(metric, samples):
            out[metric] = Sample.of_durations(samples)

        def count(metric, value):
            out[metric] = Sample(float(value))

        def ratio(metric, num, den):
            out[metric] = Sample(num / den if den else 0.0)

        def lu(layer, metric_layer=None):
            rec = self.lu[layer]
            metric_layer = metric_layer or layer
            timing(f"{metric_layer}.lu_factor_ms", rec["factor"])
            timing(f"{metric_layer}.lu_solve_ms", rec["solve"])
            fill = np.median(rec["fill"]) if len(rec["fill"]) else 0.0
            count(f"{metric_layer}.lu_fill_nnz", fill)
            return rec

        def self_minus_lu(name):
            st = self.stats(name)
            return np.subtract(st.self_, st.lu)

        scatter = "network.linear_scattering"
        count("network.scatter_calls", calls(scatter))
        timing("network.scatter_ms", self.stats(scatter).total)
        timing("network.assembly_ms",
               self.stats("network.admittance_matrix").total)
        lu("network")
        timing("network.port_impedances_ms",
               self.stats("network.port_impedances").total)

        write = self.stats("touchstone.write_touchstone")
        timing("touchstone.write_ms", write.total)
        timing("touchstone.read_ms",
               self.stats("touchstone.read_touchstone").total)
        count("touchstone.bytes", write.extra)
        timing("tdr.impulse_ms", self.stats("tdr.impulse_response").total)
        timing("tdr.locate_ms", self.stats("tdr.locate_defect").total)

        for fn in ("wavevector", "pump_wavevector"):
            count(f"dispersion.{fn}_calls", calls(f"dispersion.{fn}"))
            timing(f"dispersion.{fn}_ms",
                   self.stats(f"dispersion.{fn}").total)

        solve = self.stats("matching.solve_corrected")
        count("matching.solve_calls", len(solve.total))
        ratio("matching.solves_per_point", len(solve.total), len(self.points))
        timing("matching.solve_ms", solve.total)
        timing("matching.self_ms", solve.self_)
        count("matching.brentq_calls", self.brentq_calls["matching"])
        ratio("matching.evals_per_root", self.brentq_evals["matching"],
              self.brentq_calls["matching"])
        ratio("matching.no_solution_frac", solve.raised, len(solve.total))

        hb = self.stats("harmonic_balance.pump_harmonic_balance")
        count("harmonic_balance.solve_calls", len(hb.total))
        timing("harmonic_balance.solve_ms", hb.total)
        count("harmonic_balance.newton_iterations", hb.extra)
        rec = lu("harmonic_balance")
        count("harmonic_balance.lu_factors", len(rec["factor"]))
        ratio("harmonic_balance.useful_factor_frac", hb.extra,
              len(rec["factor"]))
        timing("harmonic_balance.assembly_ms",
               self_minus_lu("harmonic_balance.pump_harmonic_balance"))

        probe = "sidebands._PumpedLinearizer.solve"
        n_probe = calls(probe)
        count("sidebands.probe_solves", n_probe)
        timing("sidebands.probe_ms", self.stats(probe).total)
        timing("sidebands.assembly_ms", self_minus_lu(probe))
        rec = lu("sidebands")
        n_solve = len(rec["solve"])
        per_solve = rec["rhs"] / n_solve if n_solve else 0.0
        count("sidebands.rhs_columns", per_solve)
        # callers read the probe-sideband columns of the two Sigma ports
        ratio("sidebands.used_rhs_frac", 2.0 if n_solve else 0.0, per_solve)
        count("sidebands.failed_probes", self.stats(probe).raised)

        timing("coupled_mode.solve_ms",
               self.stats("coupled_mode.solve_uniform").total)
        timing("device.build_chain_ms",
               self.stats("network.build_chain").total)
        timing("cli.output_ms", [
            t for m in ("write_csv", "write_json", "finish")
            for t in self.stats(f"cli.Runner.{m}").total])

        for layer in LAYERS:
            ratio(f"{layer}.wall_share", self.layer_self[layer], wall_s)
        return out


class Sample:
    """One metric value, with the tail percentile of its per-call
    durations (ms) where it is a timing.  Units are in BENCHMARK.json."""

    __slots__ = ("value", "n", "tail")

    def __init__(self, value, n=None, tail=None):
        self.value, self.n, self.tail = value, n, tail

    @classmethod
    def of_durations(cls, seconds):
        ms = np.asarray(seconds, float) * 1e3
        if not len(ms):
            return cls(0.0, 0)
        return cls(float(np.median(ms)), len(ms), tail_percentile(ms))

    def to_json(self):
        doc = {"value": self.value}
        if self.n is not None:
            doc["n"] = self.n
        if self.tail is not None:
            doc["tail"] = self.tail
        return doc


def tail_percentile(values):
    """(p, value) for the highest of the usual percentiles that leaves at
    least ten samples above it, or None when there are too few samples."""
    n = len(values)
    for p in (99.9, 99.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            return [p, float(np.percentile(values, p))]
    return None


class _TracedLU:
    """SuperLU stand-in whose ``solve`` is a traced LU span."""

    __slots__ = ("_lu", "_tracer")

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, rhs, *args, **kwargs):
        t0 = perf_counter()
        out = self._lu.solve(rhs, *args, **kwargs)
        self._tracer._charge_lu("solve", perf_counter() - t0,
                                rhs=_columns(rhs))
        return out

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


def _columns(rhs) -> int:
    shape = np.shape(rhs)
    return shape[1] if len(shape) > 1 else 1


def _splu_fill(args, lu):
    return lu.L.nnz + lu.U.nnz


def _banded_fill(args, out):
    (lower, upper), ab = args[0], np.asarray(args[1])
    return ab.shape[-1] * (2 * lower + upper + 1)   # LAPACK gbtrf storage


def _dense_fill(args, out):
    return np.asarray(args[0]).size


_FILL = {"splu": _splu_fill, "solve_banded": _banded_fill,
         "lu_factor": _dense_fill}

"""Span tracer installed from outside the package, by rebinding module attributes.

`stress_kernel`, `greens`, `cli` and the package `__init__` bind their imports
by name (`from .airy_engine import airy_eval`), so wrapping only the defining
module would miss most calls.  `install` therefore replaces every binding of
a target function in every loaded `casimir_plate` module, plus the suite table
in `verify`, and returns a function that puts the originals back.

Spans are (id, name, start_ns, end_ns, parent_id, op_id) tuples kept in memory
(the first KEEP of them; the rest are only aggregated) and written out by the caller when
the run ends.  Self time is a span's duration minus the durations of its
direct children; calls nest on one thread, so children never overlap.
"""

from __future__ import annotations

import collections
import functools
import sys
import time


KEEP = 50_000


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[tuple] = []
        self.dropped = 0
        self.calls: collections.Counter = collections.Counter()
        self.total_ns: collections.Counter = collections.Counter()
        self.self_ns: collections.Counter = collections.Counter()
        self.counts: collections.Counter = collections.Counter()
        self.op_id = None
        self.z_switch = float("inf")
        self._stack: list[list] = []  # [span_id, name, start_ns, child_ns]
        self._next_id = 0

    def begin(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, self.clock(), 0])

    def end(self) -> None:
        end = self.clock()
        span_id, name, start, child_ns = self._stack.pop()
        dur = end - start
        self.calls[name] += 1
        self.total_ns[name] += dur
        self.self_ns[name] += dur - child_ns
        parent = None
        if self._stack:
            self._stack[-1][3] += dur
            parent = self._stack[-1][0]
        if len(self.spans) < KEEP:
            self.spans.append((span_id, name, start, end, parent, self.op_id))
        else:
            self.dropped += 1

    def wrap(self, fn, name: str, after=None):
        """fn wrapped in a span; after(tracer, args, result) runs on success."""
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end()
            if after is not None:
                after(self, args, result)
            return result

        return wrapper


# ---------------------------------------------------------------------------
# Count hooks: read the layer's public inputs and outputs only.


def _airy_after(tr, args, result):
    tr.counts["airy_engine.calls"] += 1
    if result.z >= tr.z_switch:
        tr.counts["airy_engine.series"] += 1


def _tail_after(tr, args, result):
    tr.counts["stress_kernel.tail_checks"] += 1
    tr.counts["stress_kernel.tail_ok"] += bool(result[0])


def _quad_after_for(consumer: str):
    def after(tr, args, result):
        tr.counts["quadrature.calls"] += 1
        tr.counts["quadrature.evals"] += result.n_evals
        tr.counts["quadrature.unconverged"] += not result.converged
        if consumer == "casimir_plate.stress_kernel":
            tr.counts["stress_kernel.segments"] += 1
    return after


def _fd_after(tr, args, result):
    grid = args[3]
    tr.counts["oracle_ode.fd_integrand_calls"] += 1
    tr.counts["oracle_ode.grid_nodes"] += 2 * grid.n  # solves at eps and 2 eps


def _verify_after(tr, args, result):
    tr.counts["verify.checks_failed"] += sum(not c.passed for c in result)


def _greens_after(tr, args, result):
    tr.counts["greens.calls"] += 1


# (defining module, function, span name, count hook or factory of hooks by consumer)
TARGETS = [
    ("airy_engine", "airy_eval", "airy_engine.airy_eval", _airy_after),
    ("airy_engine", "log_deriv_ai", "airy_engine.log_deriv", None),
    ("airy_engine", "log_deriv_bi", "airy_engine.log_deriv", None),
    ("airy_engine", "airy_via_ode_oracle", "airy_engine.ode_oracle", None),
    ("stress_kernel", "integrand_net", "stress_kernel.integrand_net", None),
    ("stress_kernel", "integrand_above", "stress_kernel.integrand_side", None),
    ("stress_kernel", "integrand_below", "stress_kernel.integrand_side", None),
    ("stress_kernel", "tail_mismatch", "stress_kernel.tail_mismatch", _tail_after),
    ("stress_kernel", "force_exact", "stress_kernel.force", None),
    ("stress_kernel", "force_classic", "stress_kernel.force", None),
    ("stress_kernel", "force_perturbative", "stress_kernel.force", None),
    ("quadrature", "integrate_finite", "quadrature.integrate", _quad_after_for),
    ("quadrature", "integrate_semi_infinite", "quadrature.integrate_semi_infinite", None),
    ("greens", "greens_free_between", "greens.eval", _greens_after),
    ("greens", "greens_free_above", "greens.eval", _greens_after),
    ("greens", "greens_linear_above", "greens.eval", _greens_after),
    ("greens", "greens_linear_below", "greens.eval", _greens_after),
    ("greens", "below_ratio_from_construction", "greens.eval", _greens_after),
    ("oracle_ode", "integrand_from_fd", "oracle_ode.integrand_from_fd", _fd_after),
    ("oracle_ode", "fd_setup", "oracle_ode.fd_setup", None),
    ("oracle_ode", "solve_bvp_above", "oracle_ode.solve_bvp", None),
    ("oracle_ode", "solve_bvp_full", "oracle_ode.solve_bvp", None),
    ("oracle_ode", "force_from_fd", "oracle_ode.force_from_fd", None),
    ("verify", "suite_airy", "verify.suite.airy", _verify_after),
    ("verify", "suite_greens", "verify.suite.greens", _verify_after),
    ("verify", "suite_stress", "verify.suite.stress", _verify_after),
    ("cli", "main", "cli.main", None),
]

PACKAGE = "casimir_plate"


def install(tracer: Tracer):
    """Wrap every binding of each target; returns a callable that undoes it."""
    mods = {name: mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))}
    # the series/scipy split is read from the argument, against the module's switch
    tracer.z_switch = mods[PACKAGE + ".airy_engine"].Z_SWITCH
    undo = []
    for mod_name, attr, span, hook in TARGETS:
        home = mods.get(f"{PACKAGE}.{mod_name}")
        if home is None:
            continue
        original = getattr(home, attr)
        for consumer, mod in mods.items():
            if getattr(mod, attr, None) is not original:
                continue
            after = hook(consumer) if hook is _quad_after_for else hook
            setattr(mod, attr, tracer.wrap(original, span, after))
            undo.append((setattr, mod, attr, original))
        suites = getattr(home, "SUITES", None)
        if isinstance(suites, dict):
            for key, fn in list(suites.items()):
                if fn is original:
                    suites[key] = getattr(home, attr)
                    undo.append((dict.__setitem__, suites, key, original))

    def restore():
        for setter, obj, key, original in reversed(undo):
            setter(obj, key, original)

    return restore

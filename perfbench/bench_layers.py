"""Per-layer accounting from outside the program.

Two instruments, both installed by the benchmark and removed after it:

* ``Probe`` wraps a few public functions in every ``abcf`` module that
  binds them and reads work counts off their arguments and return values
  (orbit lengths, staircase levels, digits, sampled points).  These
  functions run a few times per item, so the probe stays on in untraced
  runs and gives each item its work counts.
* ``cProfile`` (deterministic) runs only in traced passes; ``layer_metrics``
  turns its table into per-module self time and per-function calls and
  inclusive ("busy") time.  A module's self time is the time in frames
  whose code lives in the module plus the C builtins they call directly.
"""

from __future__ import annotations

import importlib
import inspect
import os
import pstats
import sys
from collections import Counter
from contextlib import contextmanager
from typing import Callable

#: abcf modules timed as layers; svg is left out, no benchmarked path reaches it
LAYERS = ["scalars", "mobius", "params", "cf", "cycles", "natext", "attractor", "exceptional", "measures", "cli"]


def _orbit_steps(res) -> dict:
    orbits = [o for c in (res.cycle_a, res.cycle_b) for o in (c.upper_orbit, c.lower_orbit)]
    return {"orbit_steps": sum(len(o.values) for o in orbits if o is not None)}


#: (module, function) -> counts read from (bound arguments, return value)
COUNT_HOOKS: dict[tuple[str, str], Callable[[dict, object], dict]] = {
    ("cycles", "truncated_orbits"): lambda args, res: _orbit_steps(res),
    ("attractor", "build_attractor"): lambda args, res: {"levels": len(res.upper) + len(res.lower)},
    ("natext", "sample_attractor"): lambda args, res: {
        "sampled_points": args["n_points"],
        "sampler_point_steps": args["n_points"] * args["burn_in"],
        "dropped_points": res.dropped_projective,
    },
    ("exceptional", "exceptional_b"): lambda args, res: {"digits": len(str(res.b_mid.denominator))},
    ("measures", "sample_nu"): lambda args, res: {"nu_points": args["n"]},
    ("measures", "birkhoff_average"): lambda args, res: {"birkhoff_steps": args["n_steps"]},
}
#: called thousands of times per item, so counted in traced passes only
TRACE_HOOKS: dict[tuple[str, str], Callable[[dict, object], dict]] = {
    ("natext", "F_step_array"): lambda args, res: {"point_steps": len(args["xs"])},
}


class Probe:
    """Counts work through wrappers patched into every module binding a hook."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()

    def _wrap(self, fn: Callable, hook: Callable) -> Callable:
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            res = fn(*args, **kwargs)
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            self.counts.update(hook(bound.arguments, res))
            return res

        return wrapper

    @contextmanager
    def installed(self, hooks: dict):
        patched = []
        mods = [m for name, m in list(sys.modules.items()) if name == "abcf" or name.startswith("abcf.")]
        for (mod_name, fn_name), hook in hooks.items():
            fn = getattr(importlib.import_module(f"abcf.{mod_name}"), fn_name)
            wrapper = self._wrap(fn, hook)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, attr, wrapper)
                        patched.append((mod, attr, fn))
        try:
            yield self
        finally:
            for mod, attr, fn in patched:
                setattr(mod, attr, fn)


# -- the profile table -------------------------------------------------------


def _qualnames(path: str) -> dict[tuple[int, str], str]:
    """(first line, name) -> qualified name for every code object in a file;
    cProfile keys frames by first line and bare name only."""
    with open(path) as fh:
        top = compile(fh.read(), path, "exec")
    out: dict[tuple[int, str], str] = {}
    stack = [top]
    while stack:
        code = stack.pop()
        out[(code.co_firstlineno, code.co_name)] = code.co_qualname
        stack.extend(c for c in code.co_consts if inspect.iscode(c))
    return out


def _norm(path: str) -> str:
    return os.path.normcase(os.path.realpath(path))


class LayerTable:
    """Per-layer self time and per-function calls / busy time of one profile."""

    def __init__(self, stats: pstats.Stats) -> None:
        files = {_norm(importlib.import_module(f"abcf.{m}").__file__): m for m in LAYERS}
        names = {m: _qualnames(importlib.import_module(f"abcf.{m}").__file__) for m in LAYERS}
        self.self_s: Counter = Counter()
        self.funcs: dict[str, tuple[int, float]] = {}  # "mod.qualname" -> (calls, busy)
        layer_of = {}
        for key in stats.stats:
            layer_of[key] = files.get(_norm(key[0])) if key[0] != "~" else None
        for key, (_cc, nc, tt, ct, callers) in stats.stats.items():
            mod = layer_of[key]
            if mod is not None:
                self.self_s[mod] += tt
                qual = names[mod].get((key[1], key[2]), key[2])
                calls, busy = self.funcs.get(f"{mod}.{qual}", (0, 0.0))
                self.funcs[f"{mod}.{qual}"] = (calls + nc, busy + ct)
            elif key[0] == "~":  # C builtin: charge it to the module that called it
                for caller, (_c, _n, c_tt, _ct) in callers.items():
                    if layer_of.get(caller) is not None:
                        self.self_s[layer_of[caller]] += c_tt

    def calls(self, name: str) -> int:
        return self.funcs.get(name, (0, 0.0))[0]

    def busy(self, name: str) -> float:
        return self.funcs.get(name, (0, 0.0))[1]


#: per-layer metric name -> unit; every name is reported on every workload
#: (zero where the layer does not run), per pass over the item list.  The two
#: rates divide a work count by busy time under the profiler, so they read
#: low by its overhead.
PER_LAYER_UNITS = {
    "scalars.self_s": "s",
    "scalars.cmp_exact.calls": "count",
    "scalars.cmp_exact.busy_s": "s",
    "scalars.cmp_bound.calls": "count",
    "scalars.Surd.bounds.calls": "count",
    "scalars.midpoint_rational.busy_s": "s",
    "mobius.self_s": "s",
    "mobius.Mobius.__matmul__.calls": "count",
    "mobius.Mobius.apply.calls": "count",
    "params.self_s": "s",
    "params.Params.cmp.calls": "count",
    "cf.self_s": "s",
    "cf.evaluate_minus_cf.busy_s": "s",
    "cf.digit_ab.calls": "count",
    "cycles.self_s": "s",
    "cycles.truncated_orbits.busy_s": "s",
    "cycles.finiteness_check.busy_s": "s",
    "cycles.orbit_steps": "count",
    "attractor.self_s": "s",
    "attractor.solve_corners.busy_s": "s",
    "attractor.build_attractor.busy_s": "s",
    "attractor.verify_bijectivity.busy_s": "s",
    "attractor.levels": "count",
    "attractor.compare_with_oracle.busy_s": "s",
    "attractor.reduction_scan.busy_s": "s",
    "natext.self_s": "s",
    "natext.sample_attractor.busy_s": "s",
    "natext.F_step_array.calls": "count",
    "natext.point_steps": "count",
    "natext.point_steps_per_s": "1/s",
    "natext.dropped_frac": "ratio",
    "exceptional.self_s": "s",
    "exceptional.exceptional_b.busy_s": "s",
    "exceptional.SubstitutionScheme.triangle.busy_s": "s",
    "exceptional.base_length.busy_s": "s",
    "exceptional.digits": "count",
    "measures.self_s": "s",
    "measures.sample_nu.busy_s": "s",
    "measures.invariance_check.busy_s": "s",
    "measures.quad_s": "s",
    "measures.birkhoff_average.busy_s": "s",
    "measures.birkhoff_steps_per_s": "1/s",
    "cli.self_s": "s",
    "cli.emit_s": "s",
    "trace_overhead_frac": "ratio",
}


def layer_metrics(table: LayerTable, counts: Counter, passes: int, overhead: float) -> dict[str, float]:
    """Every per-layer metric, per traced pass, from the profile and the probe."""
    out: dict[str, float] = {}
    for name in PER_LAYER_UNITS:
        head, _, kind = name.rpartition(".")
        if kind == "self_s":
            out[name] = table.self_s[head] / passes
        elif kind == "calls":
            out[name] = table.calls(head) / passes
        elif kind == "busy_s":
            out[name] = table.busy(head) / passes
    f_step_busy = table.busy("natext.F_step_array")
    birkhoff_busy = table.busy("measures.birkhoff_average")
    sampled = counts["sampled_points"]
    out.update({
        "cycles.orbit_steps": counts["orbit_steps"] / passes,
        "attractor.levels": counts["levels"] / passes,
        "natext.point_steps": counts["point_steps"] / passes,
        "natext.point_steps_per_s": counts["point_steps"] / f_step_busy if f_step_busy else 0.0,
        "natext.dropped_frac": counts["dropped_points"] / sampled if sampled else 0.0,
        "exceptional.digits": counts["digits"] / passes,
        "measures.quad_s": (table.busy("measures.mu_mass") + table.busy("measures.rokhlin_integral")) / passes,
        "measures.birkhoff_steps_per_s": counts["birkhoff_steps"] / birkhoff_busy if birkhoff_busy else 0.0,
        "cli.emit_s": table.busy("cli._emit") / passes,
        "trace_overhead_frac": overhead,
    })  # fmt: skip
    return out

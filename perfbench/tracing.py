"""Spans around the package's public functions, recorded from outside it.

``Tracer.install`` replaces each target function, wherever a loaded
``photonstats`` module or class holds it, by a wrapper that records one span
(name, start, end, parent) per call; a few wrappers also count work read off
the arguments or the returned value.  The package's source is not edited.
Spans are kept in compact arrays in memory and written once, by ``dump``.

``summarize`` turns the span files of traced processes into the per-layer
metrics: call counts and inclusive times of the outermost span of each
layer, self times (a span's duration minus its children's), the counters,
and the share of each process's wall time that no span covers.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from array import array

# (module, attribute, span name); "Class.method" targets a method.
TARGETS = (
    ("photonstats.models.jc", "JaynesCummingsModel.dressed_liouvillian", "models.generator"),
    ("photonstats.models.lambda_system", "LambdaModel.dressed_liouvillian", "models.generator"),
    ("photonstats.models.lambda_system", "LambdaPeriodicModel.dressed_liouvillian",
     "models.periodic_generator"),
    ("photonstats.bessel", "bessel_j", "bessel.j"),
    ("photonstats.charpoly", "char_poly", "charpoly.char_poly"),
    ("photonstats.charpoly", "coefficient_derivatives", "charpoly.coefficient_derivatives"),
    ("photonstats.charpoly", "truncated_root", "charpoly.truncated_root"),
    ("photonstats.charpoly", "first_cumulant_rate", "charpoly.first_cumulant_rate"),
    ("photonstats.charpoly", "second_cumulant_rate", "charpoly.second_cumulant_rate"),
    ("photonstats.numdiff", "central_derivative", "numdiff.stencil"),
    ("photonstats.counting", "cumulants", "counting.cumulants"),
    ("photonstats.counting", "lambda0_nearest", "counting.lambda0"),
    ("photonstats.counting", "spectral_gap", "counting.gap"),
    ("photonstats.counting", "dynamical_mgf", "counting.mgf"),
    ("photonstats.superop", "one_period_propagator", "superop.monodromy"),
    ("photonstats.superop", "effective_liouvillian", "superop.logm"),
    ("photonstats.superop", "propagate", "superop.propagate"),
    ("photonstats.superop", "spectral_decompose", "superop.eig"),
    ("photonstats.distributions", "reconstruct_from_mgf", "distributions.reconstruct"),
    ("photonstats.cli", "_scan_point", "cli.sweep_point"),
    ("photonstats.cli", "_fig4_point", "cli.sweep_point"),
    ("photonstats.cli", "_write_csv", "cli.csv"),
)
L_OF_T_FACTORY = ("photonstats.models.lambda_system", "LambdaPeriodicModel.liouvillian_of_t")

# per-layer metric -> (kind, span names); kinds: calls, incl (inclusive
# seconds of the outermost spans), self (summed self seconds)
LAYER_METRICS = {
    "setup.import_s": ("incl", ("setup.import",)),
    "config.parse_s": ("incl", ("config.parse",)),
    "models.generator_calls": ("calls", ("models.generator",)),
    "models.generator_s": ("incl", ("models.generator",)),
    "bessel.calls": ("calls", ("bessel.j",)),
    "bessel.s": ("incl", ("bessel.j",)),
    "counting.lambda0_calls": ("calls", ("counting.lambda0",)),
    "counting.lambda0_s": ("incl", ("counting.lambda0",)),
    "counting.gap_calls": ("calls", ("counting.gap",)),
    "counting.cumulant_reports": ("calls", ("counting.cumulants",)),
    "counting.cumulants_s": ("incl", ("counting.cumulants",)),
    "numdiff.stencil_calls": ("calls", ("numdiff.stencil",)),
    "numdiff.stencil_s": ("incl", ("numdiff.stencil",)),
    "charpoly.calls": ("calls", tuple(t[2] for t in TARGETS if t[0] == "photonstats.charpoly")),
    "charpoly.s": ("incl", tuple(t[2] for t in TARGETS if t[0] == "photonstats.charpoly")),
    "cli.sweep_points": ("calls", ("cli.sweep_point",)),
    "models.l_of_t_calls": ("calls", ("models.l_of_t",)),
    "models.l_of_t_s": ("incl", ("models.l_of_t",)),
    "superop.monodromy_calls": ("calls", ("superop.monodromy",)),
    "superop.monodromy_s": ("incl", ("superop.monodromy",)),
    "superop.logm_calls": ("calls", ("superop.logm",)),
    "superop.logm_s": ("incl", ("superop.logm",)),
    "counting.mgf_samples": ("calls", ("counting.mgf",)),
    "counting.mgf_s": ("incl", ("counting.mgf",)),
    "superop.propagate_calls": ("calls", ("superop.propagate",)),
    "superop.propagate_s": ("incl", ("superop.propagate",)),
    "superop.eig_calls": ("calls", ("superop.eig",)),
    "superop.eig_s": ("incl", ("superop.eig",)),
    "distributions.fft_window_s": ("self", ("distributions.reconstruct",)),
    "cli.csv_s": ("incl", ("cli.csv",)),
}
COUNTERS = (
    "superop.rk4_steps",
    "superop.branch_cut_flags",
    "counting.flagged_reports",
    "superop.expm_fallbacks",
    "distributions.grid_points",
    "cli.csv_rows",
    "cli.csv_bytes",
)


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_monodromy(counters, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    steps = a["steps"]
    counters["superop.rk4_steps"] += steps + (2 * steps if a["check_tol"] is not None else 0)


def _count_branch_cuts(counters, fn, args, kwargs, result):
    counters["superop.branch_cut_flags"] += int(result.branch_cut_flags.sum())


def _count_flagged(counters, fn, args, kwargs, result):
    counters["counting.flagged_reports"] += int(bool(result.flagged))


def _count_fallback(counters, fn, args, kwargs, result):
    counters["superop.expm_fallbacks"] += int(bool(result.fallback))


def _count_grid(counters, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    counters["distributions.grid_points"] += int(a["n"]) ** int(a["n_modes"])


def _count_csv(counters, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    counters["cli.csv_rows"] += len(a["rows"])
    counters["cli.csv_bytes"] += os.path.getsize(a["path"])


AFTER = {
    "superop.monodromy": _count_monodromy,
    "superop.logm": _count_branch_cuts,
    "counting.cumulants": _count_flagged,
    "superop.propagate": _count_fallback,
    "distributions.reconstruct": _count_grid,
    "cli.csv": _count_csv,
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.code = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.missing: list[str] = []

    def _name_code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a top-level span measured elsewhere (import, parse)."""
        self.code.append(self._name_code(name))
        self.parent.append(-1)
        self.start.append(start)
        self.end.append(end)

    def wrap(self, fn, name: str):
        code_id = self._name_code(name)
        codes, parents, starts, ends = self.code, self.parent, self.start, self.end
        stack, counters, after = self._stack, self.counters, AFTER.get(name)
        clock = time.monotonic

        def traced(*args, **kwargs):
            idx = len(codes)
            codes.append(code_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(counters, fn, args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _wrap_factory(self, factory, name: str):
        """Wrap a method that returns a callback so that the callback is traced."""
        wrap = self.wrap

        def traced_factory(*args, **kwargs):
            return wrap(factory(*args, **kwargs), name)

        return functools.update_wrapper(traced_factory, factory)

    def install(self) -> None:
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "photonstats" or n.startswith("photonstats."))
        ]
        plan = [(mod, attr, lambda fn, s=span: self.wrap(fn, s)) for mod, attr, span in TARGETS]
        plan.append((*L_OF_T_FACTORY, lambda fn: self._wrap_factory(fn, "models.l_of_t")))
        for mod_name, attr, make in plan:
            owner = sys.modules.get(mod_name)
            for part in attr.split(".")[:-1]:
                owner = getattr(owner, part, None)
            leaf = attr.split(".")[-1]
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            traced = make(original)
            if "." in attr:
                setattr(owner, leaf, traced)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
        if self.missing:
            print("tracing: targets not found: " + ", ".join(self.missing), file=sys.stderr)

    def dump(self, path: str) -> None:
        import numpy as np

        np.savez(
            path,
            code=np.frombuffer(self.code, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            names=np.array(self.names, dtype=str),
            extra=np.array(json.dumps({"counters": self.counters, "missing": self.missing})),
        )


def load(path: str) -> dict:
    import numpy as np

    with np.load(path, allow_pickle=False) as data:
        out = {k: data[k] for k in ("code", "parent", "start", "end", "names")}
        out.update(json.loads(str(data["extra"])))
    return out


def _has_ancestor_in(member, parent):
    """For each span, whether some ancestor is flagged in ``member``."""
    import numpy as np

    valid = parent >= 0
    up = np.where(valid, parent, 0)
    has = np.zeros(member.shape, dtype=bool)
    while True:  # one level of the span tree per pass
        nxt = valid & (member[up] | has[up])
        if np.array_equal(nxt, has):
            return has
        has = nxt


def summarize(traces: list[tuple[str, float, float]]) -> tuple[dict, dict]:
    """Per-layer metrics and self seconds per span name.

    ``traces`` lists (span file, process spawn time, process end time) for
    the traced processes of one round.  The process itself is the root
    span: its self time is the wall time that no recorded span covers.
    """
    import numpy as np

    metrics = dict.fromkeys(LAYER_METRICS, 0.0)
    metrics.update(dict.fromkeys(COUNTERS, 0.0))
    self_by_name: dict[str, float] = {}
    wall = uncovered = 0.0
    n_spans = 0
    for path, spawn, finish in traces:
        t = load(path)
        names = [str(n) for n in t["names"]]
        code, parent = t["code"], t["parent"]
        dur = t["end"] - t["start"]
        n = code.size
        n_spans += n
        covered = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=n)
        self_t = dur - covered
        top = float(dur[parent < 0].sum())
        wall += finish - spawn
        uncovered += (finish - spawn) - top
        by_code = np.bincount(code, weights=self_t, minlength=len(names))
        for i, name in enumerate(names):
            self_by_name[name] = self_by_name.get(name, 0.0) + float(by_code[i])
        for key, value in t["counters"].items():
            metrics[key] += value
        for metric, (kind, span_names) in LAYER_METRICS.items():
            ids = [names.index(s) for s in span_names if s in names]
            if not ids:
                continue
            member = np.isin(code, ids)
            if kind == "self":
                metrics[metric] += float(self_t[member].sum())
                continue
            outer = member & ~_has_ancestor_in(member, parent)
            metrics[metric] += float(outer.sum()) if kind == "calls" else float(dur[outer].sum())
    self_by_name["(uncovered)"] = uncovered
    metrics["trace.spans"] = float(n_spans)
    metrics["trace.wall_s"] = wall
    metrics["trace.uncovered_share"] = uncovered / wall if wall > 0 else 0.0
    return metrics, self_by_name

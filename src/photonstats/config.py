"""Strict scenario-configuration parsing.

Scenarios are YAML documents with nested sections for the model, method,
task, sweep(s) and numeric knobs.  Parsing is strict: unknown keys, type
mismatches and range violations are all collected and reported together,
each with its path and the expected form.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields, replace
from functools import partial

import yaml

from .counting import DEFAULT_METHOD, Method
from .models.jc import WEIGHT_SUM_TOL, JcParams
from .models.lambda_system import LambdaParams

__all__ = [
    "Task",
    "SweepSpec",
    "Numerics",
    "DistributionSpec",
    "ClosedSpec",
    "Scenario",
    "ScenarioError",
    "WindowOverflowError",
    "route_violations",
    "parse_scenario",
    "load_scenario",
]


class Task(enum.Enum):
    CUMULANTS = "Cumulants"
    SCAN = "Scan"
    DISTRIBUTION = "Distribution"
    CLOSED = "ClosedSystem"
    CONSERVE = "ConservationCheck"


class ScenarioError(ValueError):
    """All violations found while validating a scenario document."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__(
            "invalid scenario:\n" + "\n".join(f"  - {v}" for v in self.violations)
        )


class WindowOverflowError(ValueError):
    """Estimated support does not fit in the FFT window.

    ``photonstats.distributions`` raises it; it lives here, beside
    ``ScenarioError``, so that the CLI maps both to exit 2 without importing
    the distributions in commands that build none.
    """

    def __init__(self, needed: int, n: int):
        self.suggested_n = 1 << max(needed - 1, 1).bit_length()
        super().__init__(
            f"estimated support of {needed} integers exceeds the N={n} window; "
            f"suggested N = {self.suggested_n}"
        )


MIN_N = 128  # smallest FFT window (numerics.n_fft); every window is a power of two


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    start: float
    stop: float
    points: int
    log: bool = False
    name: str = ""
    repeat_param: str | None = None
    repeat_values: tuple[float, ...] = ()

    def grid(self) -> list[float]:
        import numpy as np

        if self.log:
            return list(
                np.logspace(math.log10(self.start), math.log10(self.stop), self.points)
            )
        return list(np.linspace(self.start, self.stop, self.points))


@dataclass(frozen=True)
class Numerics:
    n_fft: int = 1024
    threads: int = 1


@dataclass(frozen=True)
class DistributionSpec:
    modes: tuple[int, ...] = (1,)
    time: float = 25.0
    law: str = "gaussian"
    nbar: tuple[float, ...] = (1000.0,)
    sigma2: tuple[float, ...] = (100.0,)
    alphas: tuple[float, ...] = (10.0,)


@dataclass(frozen=True)
class ClosedSpec:
    weights: tuple[float, float] = (0.5, 0.5)
    time: float = 30.0
    mode: int = 1


@dataclass(frozen=True)
class Scenario:
    model_kind: str
    model_params: JcParams | LambdaParams
    method: Method = DEFAULT_METHOD
    task: Task = Task.CUMULANTS
    mode: int | str = 1
    sweeps: tuple[SweepSpec, ...] = ()
    numerics: Numerics = field(default_factory=Numerics)
    distribution: DistributionSpec = field(default_factory=DistributionSpec)
    closed: ClosedSpec = field(default_factory=ClosedSpec)
    output: str | None = None


# A check takes (out, path, value) and returns the parsed value, or None
# after it appended a violation to ``out`` (or for a null that leaves the
# key unset).  Each section is a table from key to check.


def _number(out: list, path: str, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        out.append(f"{path}: expected a number, got {value!r}")
    elif not math.isfinite(float(value)):
        out.append(f"{path}: must be finite")
    else:
        return float(value)


def _integer(out: list, path: str, value):
    if isinstance(value, bool) or not isinstance(value, int):
        out.append(f"{path}: expected an integer, got {value!r}")
    else:
        return value


def _instance(kind: type, what: str):
    def check(out: list, path: str, value):
        if isinstance(value, kind):
            return value
        out.append(f"{path}: expected {what}")

    return check


def _one_of(options, message: str | None = None, spelling=lambda option: option):
    """One of ``options``, told apart by the repr of its spelling in the
    document (so ``true`` is not 1, nor 1.0 an integer)."""
    table = {repr(spelling(option)): option for option in options}
    message = message or f"expected one of {sorted(map(spelling, options))}, got {{!r}}"

    def check(out: list, path: str, value):
        if repr(value) in table:
            return table[repr(value)]
        out.append(f"{path}: {message.format(value)}")

    return check


def _numbers(what: str, length: int | None = None):
    """A nonempty list of numbers (of ``length`` entries, if given), as a tuple."""
    def check(out: list, path: str, value):
        if not isinstance(value, list) or not value or length not in (None, len(value)):
            out.append(f"{path}: expected {what}")
            return None
        values = [_number(out, f"{path}[{i}]", v) for i, v in enumerate(value)]
        if None not in values:
            return tuple(values)

    return check


def _bounded(check, ok, message: str):
    """``check``, then the bound ``ok``; ``message`` may show the value as {}."""
    def bounded(out: list, path: str, value):
        value = check(out, path, value)
        if value is not None and not ok(value):
            out.append(f"{path}: {message.format(value)}")
            return None
        return value

    return bounded


def _nullable(check):
    """``check``, except that null leaves the key unset."""
    return lambda out, path, value: None if value is None else check(out, path, value)


def _section(out: list, path: str, doc, schema: dict) -> dict | None:
    """The valid values of the mapping ``doc``, checked against ``schema``.

    Unknown keys, and each present key's violations, go to ``out``; a key
    that is invalid or null-for-unset is left out of the result.
    """
    if not isinstance(doc, dict):
        out.append(f"{path}: expected a mapping")
        return None
    prefix = f"{path}." if path else ""
    for key in doc:
        if key not in schema:
            out.append(f"{prefix}{key}: unknown key (allowed: {', '.join(sorted(schema))})")
    values = {key: check(out, prefix + key, doc[key])
              for key, check in schema.items() if key in doc}
    return {key: value for key, value in values.items() if value is not None}


def _spec(cls, schema: dict):
    """A check building ``cls`` from a section; invalid keys take the defaults."""
    return _nullable(
        lambda out, path, value: cls(**(_section(out, path, value, schema) or {}))
    )


_PARAMS = {"jc": JcParams, "lambda": LambdaParams}
_MODEL = {
    # the kind is checked before the section
    kind: {"kind": lambda out, path, value: None} | {
        f.name: _integer if f.type in (int, "int") else _number for f in fields(cls)
    }
    for kind, cls in _PARAMS.items()
}
_VARIABLES = {"jc": set(_MODEL["jc"]) - {"kind"},
              "lambda": set(_MODEL["lambda"]) - {"kind"} | {"omega_delta"}}
# a document of unknown kind has only its kind refused: any kind's variable passes
_VARIABLES[None] = _VARIABLES["jc"] | _VARIABLES["lambda"]
_SWEEP = {
    kind: {
        "variable": _one_of(names),
        "start": _number,
        "stop": _number,
        "points": _bounded(_integer, lambda n: n >= 2, "must be >= 2"),
        "log": _instance(bool, "a boolean"),
        "name": _instance(str, "a string"),
        "repeat_param": _nullable(_one_of(names, "unknown parameter {!r}")),
        "repeat_values": _numbers("a nonempty list"),
    }
    for kind, names in _VARIABLES.items()
}
_NUMERICS = {
    "n_fft": _bounded(_integer, lambda n: n >= MIN_N and not n & (n - 1),
                      f"must be a power of two >= {MIN_N}, got {{}}"),
    "threads": _bounded(_integer, lambda n: n >= 1, "must be >= 1, got {}"),
}
_nonnegative_numbers = _bounded(_numbers("a nonempty list of numbers"),
                                lambda v: min(v) >= 0, "must be nonnegative")
_DISTRIBUTION = {
    "modes": _nullable(_one_of(((1,), (2,), (1, 2), (2, 1)),
                               "expected [1], [2], [1, 2] or [2, 1]", list)),
    "time": _bounded(_number, lambda t: t >= 0, "must be nonnegative"),
    "law": _nullable(_one_of(("poisson", "gaussian"), "expected 'poisson' or 'gaussian'")),
    "nbar": _nonnegative_numbers,
    "sigma2": _nonnegative_numbers,
    "alphas": _nonnegative_numbers,
}
_CLOSED = {
    "weights": _nullable(_bounded(_numbers("a list of two numbers summing to 1", length=2),
                                  lambda w: abs(sum(w) - 1.0) <= WEIGHT_SUM_TOL and min(w) >= 0,
                                  "must be nonnegative and sum to 1")),
    "time": _bounded(_number, lambda t: t >= 0, "must be nonnegative"),
    "mode": _bounded(_integer, lambda m: m in (1, 2), "must be 1 or 2"),
}


def _model(out: list, path: str, doc):
    """``(kind, params)``; the kind picks the parameter table."""
    if not isinstance(doc, dict):
        out.append(f"{path}: expected a mapping with a 'kind' key")
        return None
    kind = doc.get("kind")
    if kind not in ("jc", "lambda"):
        out.append(f"{path}.kind: expected 'jc' or 'lambda', got {kind!r}")
        return None
    try:
        return kind, _PARAMS[kind](**_section(out, path, doc, _MODEL[kind]))
    except ValueError as exc:
        out.append(f"{path}: {exc}")


def _sweep(out: list, path: str, doc, kind: str) -> SweepSpec | None:
    if isinstance(doc, dict):
        # the variable is required and the grid has defaults; repeat values
        # and a repeat parameter come together (null or [] gives no values)
        doc = {"variable": None, "start": 0.0, "stop": 1.0, "points": 2, **doc}
        if doc.get("repeat_param") is None:
            if doc.pop("repeat_values", None) not in (None, []):
                out.append(f"{path}.repeat_values: given without a repeat_param")
        else:
            doc.setdefault("repeat_values", [])
    values = _section(out, path, doc, _SWEEP[kind])
    if values is None:
        return None
    nonpositive = [end for end in ("start", "stop") if values.get(end, 1.0) <= 0]
    if values.get("log") and nonpositive:
        out.extend(f"{path}.{end}: must be positive for a log sweep" for end in nonpositive)
        return None
    if not {"variable", "start", "stop", "points"} <= values.keys():
        return None
    spec = SweepSpec(**{**values, "name": values.get("name") or values["variable"]})
    out.extend(f"{path}.{violation}" for violation in _mislabelled_rows(spec))
    return spec


def _mislabelled_rows(spec: SweepSpec) -> list[str]:
    """Why some rows of the sweep would not be computed at the values that
    label them: a non-integer r, which the model cannot take, or a repeat
    parameter that the sweep variable, set after it, overwrites (a
    detuning sets omega_1, and is eps_c - omega_1)."""
    out = []
    odd = ([float(x) for x in spec.grid() if not float(x).is_integer()]
           if spec.variable == "r" else [])
    if odd:
        out.append(f"variable: r takes integers, but the grid holds {odd[0]!r}")
    if spec.repeat_param == "r" and not all(v.is_integer() for v in spec.repeat_values):
        out.append(f"repeat_values: r takes integers, got {list(spec.repeat_values)}")
    sets = {spec.variable, "omega_1" if spec.variable == "omega_delta" else spec.variable}
    reads = ({"omega_delta", "eps_c", "omega_1"} if spec.repeat_param == "omega_delta"
             else {spec.repeat_param})
    if sets & reads:
        out.append(f"repeat_param: the sweep variable {spec.variable!r} overwrites "
                   f"{spec.repeat_param!r}")
    return out


def _sweeps(out: list, path: str, value, kind: str) -> list[SweepSpec] | None:
    if not isinstance(value, list) or not value:
        out.append("sweeps: expected a nonempty list of sweep mappings")
        return None
    specs = [_sweep(out, f"sweeps[{i}]", entry, kind) for i, entry in enumerate(value)]
    first: dict[str, int] = {}  # each sweep's name names its CSV
    for i, spec in enumerate(specs):
        if spec and first.setdefault(spec.name, i) != i:
            used = first[spec.name]
            out.append(f"sweeps[{i}].name: {spec.name!r} is already used by sweeps[{used}]")
    return [spec for spec in specs if spec]


def _distribution(out: list, path: str, doc) -> DistributionSpec:
    valid = _section(out, path, doc, _DISTRIBUTION) or {}
    spec = DistributionSpec(**valid)
    # a list refused above keeps its violation alone, not its default's too
    refused = set(doc) - set(valid) if isinstance(doc, dict) else set()
    for key in ("alphas",) if spec.law == "poisson" else ("nbar", "sigma2"):
        if key not in refused and len(getattr(spec, key)) < len(spec.modes):
            out.append(f"{path}.{key}: needs one entry per resolved mode ({len(spec.modes)})")
    return spec


_SELECTORS = (1, 2, "drive", "bath")
# the counting selectors that each method serves, per model kind; a method
# missing from a kind's table does not apply to that kind
_SERVED = {
    "jc": {method: _SELECTORS for method in Method
           if method not in (Method.PERTURBATION, Method.PERIODIC_NUMERIC)},
    "lambda": {method: _SELECTORS for method in Method}
    # the closed-form slow eigenvalue counts drive photons only
    | {Method.ANALYTIC_ORACLE: (1, 2, "drive")},
}


def route_violations(kind: str, method: Method, selectors) -> list[str]:
    """Why ``method`` cannot count ``selectors`` on the ``kind`` model (empty
    when it can), from the table ``_SERVED``."""
    served = _SERVED[kind].get(method)
    if served is None:
        kinds = " and ".join(k for k, table in _SERVED.items() if method in table)
        return [f"method: {method.value} applies to the {kinds} model only"]
    refused = [s for s in selectors if s not in served]
    if not refused:
        return []
    return [f"mode: {method.value} counts {', '.join(map(repr, served))} on the "
            f"{kind} model, not {', '.join(map(repr, refused))}"]


_TOP = {
    kind: {
        "model": _model,
        "method": _one_of(Method, spelling=lambda method: method.value),
        "task": _one_of(Task, spelling=lambda task: task.value),
        "mode": _one_of((1, 2, "drive", "bath"), "expected 1, 2, 'drive' or 'bath', got {!r}"),
        "sweep": partial(_sweep, kind=kind),
        "sweeps": partial(_sweeps, kind=kind),
        "numerics": _spec(Numerics, _NUMERICS),
        "distribution": _nullable(_distribution),
        "closed": _spec(ClosedSpec, _CLOSED),
        "output": _nullable(_instance(str, "a path string")),
    }
    for kind in _VARIABLES
}


def parse_scenario(text: str, method: str | None = None,
                   threads: int | None = None) -> Scenario:
    """Validate a YAML scenario document, reporting every violation at once.

    ``method`` and ``threads`` (the CLI's ``--method`` and ``--threads``)
    replace the document's ``method`` and ``numerics.threads`` before it is
    validated.
    """
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioError([f"document: not valid YAML ({exc})"]) from exc
    if not isinstance(doc, dict):
        raise ScenarioError(["document: expected a top-level mapping"])
    doc = {"model": None, **doc}  # a missing model is reported like a malformed one
    if method:
        doc["method"] = method
    numerics = doc.get("numerics")
    if threads is not None and isinstance(numerics, (dict, type(None))):
        doc["numerics"] = {**(numerics or {}), "threads": threads}
    out: list[str] = []
    # sweep variables are those of the document's model kind, if it is known
    kind = doc["model"].get("kind") if isinstance(doc["model"], dict) else None
    top = _section(out, "", doc, _TOP[kind if kind in ("jc", "lambda") else None])
    model = top.pop("model", None)
    if "sweep" in doc and "sweeps" in doc:
        out.append("sweep: give either 'sweep' or 'sweeps', not both")
    sweeps = ([top.pop("sweep")] if "sweep" in top else []) + top.pop("sweeps", [])
    scenario = Scenario(*(model or ("jc", JcParams())), sweeps=tuple(sweeps), **top)
    if scenario.task is Task.SCAN and not {"sweep", "sweeps"} & doc.keys():
        out.append("sweep: a Scan task requires a sweep specification")
    if scenario.task is Task.CLOSED and model and model[0] != "jc":
        out.append("task: ClosedSystem statistics are defined for the jc model")
    if model:
        out += route_violations(model[0], scenario.method, (scenario.mode,))
    if out:
        raise ScenarioError(out)
    return scenario


def load_scenario(path: str, method: str | None = None,
                  threads: int | None = None) -> Scenario:
    """:func:`parse_scenario` of the file at ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read(), method=method, threads=threads)


def apply_sweep_value(
    params: JcParams | LambdaParams, variable: str, value: float
):
    """Return a copy of the parameters with one (possibly derived) field set."""
    if variable == "omega_delta":
        return params.with_detuning(value)
    if variable == "r":  # integral: a non-integer r is refused when parsed
        return replace(params, r=int(value))
    return replace(params, **{variable: value})

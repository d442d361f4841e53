"""Strict scenario-configuration parsing.

Scenarios are YAML documents with nested sections for the model, method,
task, sweep(s) and numeric knobs.  Parsing is strict: unknown keys, type
mismatches and range violations are all collected and reported together,
each with its path and the expected form.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

import yaml

from .counting import DEFAULT_METHOD, STEP_METHODS, Method, no_step_message
from .distributions import MIN_N
from .models.jc import JcParams
from .models.lambda_system import LambdaParams
from .superop import MIN_STEPS

__all__ = [
    "Task",
    "SweepSpec",
    "Numerics",
    "DistributionSpec",
    "ClosedSpec",
    "Scenario",
    "ScenarioError",
    "parse_scenario",
    "load_scenario",
    "method_violations",
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
    h: float | None = None
    n_fft: int = 1024
    steps: int = 2048
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


_JC_FIELDS = {
    "eps_delta": float,
    "omega1": float,
    "omega2": float,
    "phi1": float,
    "phi2": float,
    "gamma": float,
}
_LAMBDA_FIELDS = {
    "eps_a": float,
    "eps_b": float,
    "eps_c": float,
    "omega_p": float,
    "omega_1": float,
    "omega_d": float,
    "r": int,
    "omega_s": float,
    "omega_p0": float,
    "omega_p1": float,
    "gamma": float,
    "phi1": float,
    "phi2": float,
}
_SWEEP_VARIABLES_JC = set(_JC_FIELDS)
_SWEEP_VARIABLES_LAMBDA = set(_LAMBDA_FIELDS) | {"omega_delta"}


def _want_number(out: list, path: str, value, integer: bool = False):
    if integer:
        if isinstance(value, bool) or not isinstance(value, int):
            out.append(f"{path}: expected an integer, got {value!r}")
            return None
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        out.append(f"{path}: expected a number, got {value!r}")
        return None
    if not math.isfinite(float(value)):
        out.append(f"{path}: must be finite")
        return None
    return float(value)


def _check_unknown(out: list, path: str, doc: dict, allowed: set[str]):
    for key in doc:
        if key not in allowed:
            out.append(f"{path}{key}: unknown key (allowed: {', '.join(sorted(allowed))})")


def _parse_model(out: list, doc) -> tuple[str, JcParams | LambdaParams] | None:
    if not isinstance(doc, dict):
        out.append("model: expected a mapping with a 'kind' key")
        return None
    kind = doc.get("kind")
    if kind not in ("jc", "lambda"):
        out.append(f"model.kind: expected 'jc' or 'lambda', got {kind!r}")
        return None
    fields = _JC_FIELDS if kind == "jc" else _LAMBDA_FIELDS
    _check_unknown(out, "model.", doc, set(fields) | {"kind"})
    kwargs = {}
    for key, typ in fields.items():
        if key in doc:
            v = _want_number(out, f"model.{key}", doc[key], integer=(typ is int))
            if v is not None:
                kwargs[key] = typ(v)
    try:
        params = JcParams(**kwargs) if kind == "jc" else LambdaParams(**kwargs)
    except ValueError as exc:
        out.append(f"model: {exc}")
        return None
    return kind, params


def _parse_sweep(out: list, path: str, doc, kind: str) -> SweepSpec | None:
    allowed = {
        "variable",
        "start",
        "stop",
        "points",
        "log",
        "name",
        "repeat_param",
        "repeat_values",
    }
    if not isinstance(doc, dict):
        out.append(f"{path}: expected a mapping")
        return None
    _check_unknown(out, f"{path}.", doc, allowed)
    variables = _SWEEP_VARIABLES_JC if kind == "jc" else _SWEEP_VARIABLES_LAMBDA
    variable = doc.get("variable")
    if variable not in variables:
        out.append(
            f"{path}.variable: expected one of {sorted(variables)}, got {variable!r}"
        )
    start = _want_number(out, f"{path}.start", doc.get("start", 0.0))
    stop = _want_number(out, f"{path}.stop", doc.get("stop", 1.0))
    points = _want_number(out, f"{path}.points", doc.get("points", 2), integer=True)
    log = doc.get("log", False)
    if not isinstance(log, bool):
        out.append(f"{path}.log: expected a boolean")
        log = False
    if points is not None and points < 2:
        out.append(f"{path}.points: must be >= 2")
        points = None
    if log and start is not None and start <= 0:
        out.append(f"{path}.start: must be positive for a log sweep")
        start = None
    name = doc.get("name", "")
    if not isinstance(name, str):
        out.append(f"{path}.name: expected a string")
        name = ""
    repeat_param = doc.get("repeat_param")
    repeat_values: tuple[float, ...] = ()
    if repeat_param is not None:
        if repeat_param not in variables:
            out.append(f"{path}.repeat_param: unknown parameter {repeat_param!r}")
            repeat_param = None
        raw = doc.get("repeat_values", [])
        if not isinstance(raw, list) or not raw:
            out.append(f"{path}.repeat_values: expected a nonempty list")
        else:
            vals = [_want_number(out, f"{path}.repeat_values[{i}]", v)
                    for i, v in enumerate(raw)]
            if all(v is not None for v in vals):
                repeat_values = tuple(vals)
    if None in (start, stop, points) or variable not in variables:
        return None
    return SweepSpec(
        variable=variable,
        start=start,
        stop=stop,
        points=points,
        log=log,
        name=name or variable,
        repeat_param=repeat_param,
        repeat_values=repeat_values,
    )


def _parse_numerics(out: list, doc) -> Numerics:
    if doc is None:
        return Numerics()
    allowed = {"h", "n_fft", "steps", "threads"}
    if not isinstance(doc, dict):
        out.append("numerics: expected a mapping")
        return Numerics()
    _check_unknown(out, "numerics.", doc, allowed)
    kwargs = {}
    if "h" in doc:
        v = _want_number(out, "numerics.h", doc["h"])
        if v is not None and v <= 0:
            out.append("numerics.h: must be positive")
        elif v is not None:
            kwargs["h"] = v
    for key, least in (("n_fft", MIN_N), ("steps", MIN_STEPS), ("threads", 1)):
        if key in doc:
            v = _want_number(out, f"numerics.{key}", doc[key], integer=True)
            if v is not None and (v < least or (key == "n_fft" and v & (v - 1))):
                power = "a power of two " if key == "n_fft" else ""
                out.append(f"numerics.{key}: must be {power}>= {least}, got {v}")
            elif v is not None:
                kwargs[key] = v
    return Numerics(**kwargs)


def _parse_distribution(out: list, doc) -> DistributionSpec:
    if doc is None:
        return DistributionSpec()
    allowed = {"modes", "time", "law", "nbar", "sigma2", "alphas"}
    if not isinstance(doc, dict):
        out.append("distribution: expected a mapping")
        return DistributionSpec()
    _check_unknown(out, "distribution.", doc, allowed)
    kwargs = {}
    modes = doc.get("modes")
    if modes is not None:
        if (
            not isinstance(modes, list)
            or not modes
            or not all(type(m) is int and m in (1, 2) for m in modes)
            or len(set(modes)) != len(modes)
        ):
            out.append("distribution.modes: expected [1], [2], [1, 2] or [2, 1]")
        else:
            kwargs["modes"] = tuple(modes)
    if "time" in doc:
        v = _want_number(out, "distribution.time", doc["time"])
        if v is not None and v < 0:
            out.append("distribution.time: must be nonnegative")
        elif v is not None:
            kwargs["time"] = v
    law = doc.get("law")
    if law is not None:
        if law not in ("poisson", "gaussian"):
            out.append("distribution.law: expected 'poisson' or 'gaussian'")
        else:
            kwargs["law"] = law
    for key in ("nbar", "sigma2", "alphas"):
        if key in doc:
            raw = doc[key]
            if not isinstance(raw, list) or not raw:
                out.append(f"distribution.{key}: expected a nonempty list of numbers")
                continue
            vals = [_want_number(out, f"distribution.{key}[{i}]", v)
                    for i, v in enumerate(raw)]
            if all(v is not None for v in vals):
                kwargs[key] = tuple(vals)
    spec = DistributionSpec(**kwargs)
    keys = ("alphas",) if spec.law == "poisson" else ("nbar", "sigma2")
    for key in keys:
        if len(getattr(spec, key)) < len(spec.modes):
            out.append(
                f"distribution.{key}: needs one entry per resolved mode "
                f"({len(spec.modes)})"
            )
    return spec


def _parse_closed(out: list, doc) -> ClosedSpec:
    if doc is None:
        return ClosedSpec()
    allowed = {"weights", "time", "mode"}
    if not isinstance(doc, dict):
        out.append("closed: expected a mapping")
        return ClosedSpec()
    _check_unknown(out, "closed.", doc, allowed)
    kwargs = {}
    weights = doc.get("weights")
    if weights is not None:
        if not isinstance(weights, list) or len(weights) != 2:
            out.append("closed.weights: expected a list of two numbers summing to 1")
        else:
            vals = [_want_number(out, f"closed.weights[{i}]", v)
                    for i, v in enumerate(weights)]
            if all(v is not None for v in vals):
                if abs(sum(vals) - 1.0) > 1e-9 or any(v < 0 for v in vals):
                    out.append("closed.weights: must be nonnegative and sum to 1")
                else:
                    kwargs["weights"] = (vals[0], vals[1])
    if "time" in doc:
        v = _want_number(out, "closed.time", doc["time"])
        if v is not None:
            kwargs["time"] = v
    if "mode" in doc:
        v = _want_number(out, "closed.mode", doc["mode"], integer=True)
        if v is not None and v not in (1, 2):
            out.append("closed.mode: must be 1 or 2")
        elif v is not None:
            kwargs["mode"] = v
    return ClosedSpec(**kwargs)


_TOP_KEYS = {
    "model",
    "method",
    "task",
    "mode",
    "sweep",
    "sweeps",
    "numerics",
    "distribution",
    "closed",
    "output",
}


def method_violations(
    method: Method, kind: str | None, numerics: Numerics
) -> list[str]:
    """Combinations of method, model kind and numerics that cannot be honoured."""
    out = []
    if method is Method.PERIODIC_NUMERIC and kind == "jc":
        out.append("method: PeriodicNumeric applies to the lambda model only")
    if numerics.h is not None and method not in STEP_METHODS:
        out.append(f"numerics.h: {no_step_message(method)}; leave h null")
    return out


def parse_scenario(text: str) -> Scenario:
    """Validate a YAML scenario document, reporting every violation at once."""
    out: list[str] = []
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioError([f"document: not valid YAML ({exc})"]) from exc
    if not isinstance(doc, dict):
        raise ScenarioError(["document: expected a top-level mapping"])
    _check_unknown(out, "", doc, _TOP_KEYS)
    model = _parse_model(out, doc.get("model"))
    method = DEFAULT_METHOD
    if "method" in doc:
        names = {m.value: m for m in Method}
        if doc["method"] not in names:
            out.append(f"method: expected one of {sorted(names)}, got {doc['method']!r}")
        else:
            method = names[doc["method"]]
    task = Task.CUMULANTS
    if "task" in doc:
        names = {t.value: t for t in Task}
        if doc["task"] not in names:
            out.append(f"task: expected one of {sorted(names)}, got {doc['task']!r}")
        else:
            task = names[doc["task"]]
    mode: int | str = 1
    if "mode" in doc:
        raw = doc["mode"]
        if raw in ("drive", "bath"):
            mode = raw
        elif isinstance(raw, int) and not isinstance(raw, bool) and raw in (1, 2):
            mode = raw
        else:
            out.append(f"mode: expected 1, 2, 'drive' or 'bath', got {raw!r}")
    kind = model[0] if model else "jc"
    sweeps: list[SweepSpec] = []
    if "sweep" in doc and "sweeps" in doc:
        out.append("sweep: give either 'sweep' or 'sweeps', not both")
    if "sweep" in doc:
        spec = _parse_sweep(out, "sweep", doc["sweep"], kind)
        if spec:
            sweeps.append(spec)
    if "sweeps" in doc:
        raw = doc["sweeps"]
        if not isinstance(raw, list) or not raw:
            out.append("sweeps: expected a nonempty list of sweep mappings")
        else:
            for i, entry in enumerate(raw):
                spec = _parse_sweep(out, f"sweeps[{i}]", entry, kind)
                if spec:
                    sweeps.append(spec)
    numerics = _parse_numerics(out, doc.get("numerics"))
    distribution = _parse_distribution(out, doc.get("distribution"))
    closed = _parse_closed(out, doc.get("closed"))
    output = doc.get("output")
    if output is not None and not isinstance(output, str):
        out.append("output: expected a path string")
        output = None
    if task is Task.SCAN and not sweeps:
        out.append("sweep: a Scan task requires a sweep specification")
    if task is Task.CLOSED and (model and model[0] != "jc"):
        out.append("task: ClosedSystem statistics are defined for the jc model")
    out += method_violations(method, model[0] if model else None, numerics)
    if out or model is None:
        raise ScenarioError(out or ["model: section is required"])
    return Scenario(
        model_kind=model[0],
        model_params=model[1],
        method=method,
        task=task,
        mode=mode,
        sweeps=tuple(sweeps),
        numerics=numerics,
        distribution=distribution,
        closed=closed,
        output=output,
    )


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def apply_sweep_value(
    params: JcParams | LambdaParams, variable: str, value: float
):
    """Return a copy of the parameters with one (possibly derived) field set."""
    if variable == "omega_delta":
        return params.with_detuning(value)
    if variable == "r":
        return replace(params, r=int(round(value)))
    return replace(params, **{variable: value})

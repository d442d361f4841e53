"""The benchmark's workloads: generated scenarios, references and checks.

Each workload writes its scenario files from the seed, names the CLI
commands of one round, computes its references before anything is timed,
and checks the outputs of a round against those references.  The program
sees only the scenario files.

Check tolerances start from the pinned acceptance tolerances of the
package's own tests (1e-6 relative for flux, 1e-5 for noise) and add an
absolute floor: FLOOR_SHARE times that tolerance times the largest
reference value of the column over the same one-dimensional sweep (one
sweep variable and one repeat value of one file).
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
from importlib import resources

import numpy as np
import yaml

import references

RTOL_FLUX = 1e-6
RTOL_NOISE = 1e-5
# share of rtol * (sweep maximum) used as the absolute floor; the largest
# share the default route needed over 14 seeds and 3000 random fig5 points
# was 3.3e-2 (README.md)
FLOOR_SHARE = 0.1
# pinned distribution-moment tolerance of the acceptance suite (relative)
RTOL_TABLE = 1e-3
# Richardson safety factor on the estimated fourth-order truncation of PT2
PT2_SAFETY = 2.0

HALF_PI = math.pi / 2.0


@dataclasses.dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    structural: list = dataclasses.field(default_factory=list)
    misses: dict = dataclasses.field(default_factory=dict)
    worst: dict = dataclasses.field(default_factory=dict)

    def miss(self, label: str) -> None:
        self.misses[label] = self.misses.get(label, 0) + 1

    def within(self, label: str, value: float, ref: float, rtol: float, floor: float) -> bool:
        """Whether value is within rtol * |ref| + floor of ref; tracks the worst ratio."""
        tol = rtol * abs(ref) + floor
        err = abs(value - ref) if math.isfinite(value) else math.inf
        ratio = err / tol if tol > 0 else (0.0 if err == 0 else math.inf)
        self.worst[label] = max(self.worst.get(label, 0.0), ratio)
        if ratio > 1.0:
            self.miss(label)
            return False
        return True

    def merge(self, other: "CheckResult") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.structural += other.structural
        for k, v in other.misses.items():
            self.misses[k] = self.misses.get(k, 0) + v
        for k, v in other.worst.items():
            self.worst[k] = max(self.worst.get(k, 0.0), v)


def read_csv(path: str) -> tuple[list[str], list[dict]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        return list(reader.fieldnames or []), list(reader)


def _write_yaml(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)


def _shifted_sweep(spec: dict, frac: float) -> dict:
    """Offset a sweep's grid by ``frac`` of its step (a factor, for log sweeps)."""
    spec = dict(spec)
    n = spec["points"]
    if spec.get("log"):
        ratio = (spec["stop"] / spec["start"]) ** (frac / (n - 1))
        spec["start"] *= ratio
        spec["stop"] *= ratio
    else:
        step = (spec["stop"] - spec["start"]) / (n - 1)
        spec["start"] += frac * step
        spec["stop"] += frac * step
    return spec


def bundled_scenario(name: str) -> dict:
    """A scenario shipped with the package, without its ``method`` key."""
    text = resources.files("photonstats.scenarios").joinpath(f"{name}.yaml").read_text("utf-8")
    doc = yaml.safe_load(text)
    doc.pop("method", None)
    return doc


def _grid(spec: dict) -> np.ndarray:
    if spec.get("log"):
        return np.exp(np.linspace(math.log(spec["start"]), math.log(spec["stop"]), spec["points"]))
    return np.linspace(spec["start"], spec["stop"], spec["points"])


# ---------------------------------------------------------------------------
# static-sweep


# The fig5 grid keeps its first point, omega_p1 = 0, and gains a fixed point
# one hundredth of a step above it.  Between 0 and one step the r = 2 noise is
# below the program's round-off and whether its step ladder gets it right
# depends on the exact point (CHANGES.md): the fixed point at 0.01 of a step
# fails on every run, and no seeded point falls in that first step.
FIG5_FIXED_SHARE = 0.01


class StaticSweep:
    """The fig2 grid (jc, 549 points) and the fig5 grid (lambda, 324 points).

    Every sweep of the bundled ``fig2`` and ``fig5`` scenarios is offset by
    a fraction in [0, 1) of its step, drawn from the seed; the fig5 grid's
    first point stays put and gains a fixed neighbour (FIG5_FIXED_SHARE).
    The scenarios name no ``method``, so the program's default cumulant
    route is measured.  One operation is one sweep point (both modes).
    """

    name = "static-sweep"

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        jc = bundled_scenario("fig2")
        jc["sweeps"] = [_shifted_sweep(s, float(rng.random())) for s in jc["sweeps"]]
        lam = bundled_scenario("fig5")
        sweep = lam.pop("sweep")
        step = (sweep["stop"] - sweep["start"]) / (sweep["points"] - 1)
        fixed = dict(sweep, name=f"{sweep['name']}-start", points=2,
                     stop=sweep["start"] + FIG5_FIXED_SHARE * step)
        seeded = _shifted_sweep(dict(sweep, points=sweep["points"] - 1,
                                     start=sweep["start"] + step), float(rng.random()))
        lam["sweeps"] = [fixed, seeded]
        self.scenarios = {"jc": jc, "lambda": lam}
        self.refs: dict = {}
        self.scales: dict = {}

    def write_inputs(self, indir: str) -> None:
        for key, doc in self.scenarios.items():
            _write_yaml(os.path.join(indir, f"{key}.yaml"), doc)

    def commands(self, indir: str, outdir: str) -> list[list[str]]:
        return [
            ["scan", "--config", os.path.join(indir, f"{key}.yaml"),
             "--out", os.path.join(outdir, key), "--threads", "1"]
            for key in self.scenarios
        ]

    def _files(self):
        """(scenario key, sweep spec, base model parameters, model factory)."""
        from photonstats.models.jc import JaynesCummingsModel, JcParams
        from photonstats.models.lambda_system import LambdaModel, LambdaParams

        build = {"jc": lambda kw: JaynesCummingsModel(JcParams(**kw)),
                 "lambda": lambda kw: LambdaModel(LambdaParams(**kw))}
        for key, doc in self.scenarios.items():
            base = {k: v for k, v in doc["model"].items() if k != "kind"}
            for spec in doc["sweeps"]:
                yield key, spec, base, build[key]

    def prepare(self) -> None:
        for key, spec, base, build in self._files():
            rows = []
            for rv in spec["repeat_values"]:
                for x in _grid(spec):
                    kw = dict(base, **{spec["repeat_param"]: rv, spec["variable"]: float(x)})
                    if "r" in kw:
                        kw["r"] = int(kw["r"])
                    model = build(kw)
                    i1, s1 = references.static_cumulants(model, 1)
                    i2, s2 = references.static_cumulants(model, 2)
                    rows.append((float(x), float(rv), i1, s1, i2, s2))
            self.refs[(key, spec["name"])] = np.array(rows)
        # the floor's scale: the largest |reference| over all points of the
        # same file, sweep variable and repeat value
        groups: dict = {}
        for key, spec, _, _ in self._files():
            groups.setdefault((key, spec["variable"]), []).append(spec["name"])
        for (key, _), names in groups.items():
            ref = np.concatenate([self.refs[(key, n)] for n in names])
            for name in names:
                own = self.refs[(key, name)]
                scale = np.empty((len(own), 4))
                for rv in np.unique(own[:, 1]):
                    scale[own[:, 1] == rv] = np.abs(ref[ref[:, 1] == rv, 2:]).max(axis=0)
                self.scales[(key, name)] = scale

    def check(self, outdir: str) -> CheckResult:
        res = CheckResult()
        for key, spec, _, _ in self._files():
            ref = self.refs[(key, spec["name"])]
            res.attempted += len(ref)
            path = os.path.join(outdir, key, f"scan_{spec['name']}.csv")
            try:
                _, rows = read_csv(path)
            except OSError as exc:
                res.structural.append(f"{path}: {exc}")
                res.failed += len(ref)
                continue
            if len(rows) != len(ref):
                res.structural.append(f"{path}: {len(rows)} rows, expected {len(ref)}")
                res.failed += len(ref)
                continue
            res.merge(check_sweep_rows(rows, ref, self.scales[(key, spec["name"])],
                                       spec["repeat_param"]))
        return res


def check_sweep_rows(rows: list[dict], ref: np.ndarray, scale: np.ndarray,
                     repeat_param: str) -> CheckResult:
    """Check scan rows against reference rows (x, repeat, I1, S1, I2, S2).

    ``scale`` holds, per row and column, the sweep maximum that sets the
    absolute floor.
    """
    res = CheckResult()
    rtols = np.array([RTOL_FLUX, RTOL_NOISE, RTOL_FLUX, RTOL_NOISE])
    floors = FLOOR_SHARE * rtols * scale
    columns = ("I_1", "sigma2_1", "I_2", "sigma2_2")
    for row, (x, rv, *refs), floor in zip(rows, ref, floors):
        ok = True
        try:
            values = [float(row[c]) for c in columns]
            grid_ok = (abs(float(row["sweep_value"]) - x) <= 1e-12 * max(1.0, abs(x))
                       and abs(float(row[repeat_param]) - rv) <= 1e-12 * max(1.0, abs(rv)))
        except (KeyError, TypeError, ValueError):
            res.miss("malformed row")
            res.failed += 1
            continue
        if not grid_ok:
            res.miss("grid")
            ok = False
        if row.get("error"):
            res.miss("error column")
            ok = False
        for col, value, refv, rtol, fl in zip(columns, values, refs, rtols, floor):
            ok &= res.within(col, value, refv, rtol, fl)
        res.failed += not ok
    return res


# ---------------------------------------------------------------------------
# floquet-periodic


# Two detunings of the fig4 grid, away from the resonances at +-omega_p0
# where the slow Floquet branch is not isolated; the bundled scenario
# repeats them for each order r = 0, 1, 2.
FLOQUET_DETUNINGS = (-2.0, 2.0)


class FloquetPeriodic:
    """A fixed six-point subset of the fig4 sweep through ``photonstats fig4``.

    The inputs do not depend on the seed: the PeriodicNumeric noise column
    misses its reference at every point (a known fault of the program), and
    the failed share must be the same on every run.  One operation is one
    (detuning, r) point.
    """

    name = "floquet-periodic"

    def __init__(self, seed: int):
        self.scenario = bundled_scenario("fig4")
        start, stop = FLOQUET_DETUNINGS
        self.scenario["sweep"] = dict(self.scenario["sweep"], start=start, stop=stop, points=2)
        self.refs: list = []

    def write_inputs(self, indir: str) -> None:
        _write_yaml(os.path.join(indir, "fig4.yaml"), self.scenario)

    def commands(self, indir: str, outdir: str) -> list[list[str]]:
        return [["fig4", "--config", os.path.join(indir, "fig4.yaml"),
                 "--out", os.path.join(outdir, "fig4.csv"), "--threads", "1"]]

    def points(self):
        from photonstats.models.lambda_system import LambdaParams

        base = LambdaParams(**{k: v for k, v in self.scenario["model"].items() if k != "kind"})
        sweep = self.scenario["sweep"]
        for r in sweep["repeat_values"]:
            for w in _grid(sweep):
                yield float(w), int(r), dataclasses.replace(base, r=int(r)).with_detuning(float(w))

    def prepare(self) -> None:
        from photonstats.models.lambda_system import LambdaModel, LambdaPeriodicModel

        for w, r, p in self.points():
            i_a, s_a = references.static_cumulants(LambdaModel(p), 2)
            # fourth-order truncation of PT2, from the signal-amplitude scaling
            half = dataclasses.replace(p, omega_s=0.5 * p.omega_s)
            i_h, s_h = references.static_cumulants(LambdaModel(half), 2)
            trunc_i = abs(i_a - 4.0 * i_h) * 4.0 / 3.0
            trunc_s = abs(s_a - 4.0 * s_h) * 4.0 / 3.0
            i_b, s_b = references.periodic_cumulants(LambdaPeriodicModel(p), 2)
            self.refs.append((w, r, i_a, s_a, trunc_i, trunc_s, i_b, s_b))

    def check(self, outdir: str) -> CheckResult:
        path = os.path.join(outdir, "fig4.csv")
        res = CheckResult(attempted=len(self.refs))
        try:
            _, rows = read_csv(path)
        except OSError as exc:
            res.structural.append(f"{path}: {exc}")
            res.failed = len(self.refs)
            return res
        if len(rows) != len(self.refs):
            res.structural.append(f"{path}: {len(rows)} rows, expected {len(self.refs)}")
            res.failed = len(self.refs)
            return res
        res.merge(check_fig4_rows(rows, self.refs))
        res.attempted = len(self.refs)
        return res


def check_fig4_rows(rows: list[dict], refs: list) -> CheckResult:
    res = CheckResult()
    ref = np.array(refs)
    floors = np.empty((len(ref), 2))
    for r in np.unique(ref[:, 1]):
        block = ref[:, 1] == r
        floors[block] = FLOOR_SHARE * np.array([RTOL_FLUX, RTOL_NOISE]) * np.abs(
            ref[block, 6:8]).max(axis=0)
    for row, (w, r, i_a, s_a, t_i, t_s, i_b, s_b), (floor_i, floor_s) in zip(rows, refs, floors):
        try:
            v = {c: float(row[c]) for c in ("omega_delta", "r", "I_2_pt2", "sigma2_2_pt2",
                                            "I_2_numeric", "sigma2_2_numeric")}
        except (KeyError, TypeError, ValueError):
            res.miss("malformed row")
            res.failed += 1
            continue
        ok = abs(v["omega_delta"] - w) <= 1e-12 and int(v["r"]) == r
        if not ok:
            res.miss("grid")
        if row.get("error"):
            res.miss("error column")
            ok = False
        ok &= res.within("I_2_pt2", v["I_2_pt2"], i_a, RTOL_FLUX, PT2_SAFETY * t_i + floor_i)
        ok &= res.within("sigma2_2_pt2", v["sigma2_2_pt2"], s_a, RTOL_NOISE,
                         PT2_SAFETY * t_s + floor_s)
        ok &= res.within("I_2_numeric", v["I_2_numeric"], i_b, RTOL_FLUX, floor_i)
        ok &= res.within("sigma2_2_numeric", v["sigma2_2_numeric"], s_b, RTOL_NOISE, floor_s)
        res.failed += not ok
    return res


# ---------------------------------------------------------------------------
# joint-distribution


JOINT_MODEL = {"kind": "jc", "eps_delta": 0.1, "omega1": 1.0, "omega2": 1.0,
               "phi1": 0.0, "phi2": HALF_PI, "gamma": 0.001}
JOINT_SPEC = {"modes": [1, 2], "law": "gaussian", "nbar": [1000.0, 1000.0],
              "sigma2": [25.0, 25.0], "time": 10.0}
JOINT_N = 256


class JointDistribution:
    """Two-mode photon-number distribution of the jc model at weak dissipation.

    The seed offsets the detuning within [0.1, 0.15).  One operation is one
    256 x 256 distribution.
    """

    name = "joint-distribution"

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        model = dict(JOINT_MODEL, eps_delta=JOINT_MODEL["eps_delta"] + 0.05 * float(rng.random()))
        self.scenario = {"model": model, "task": "Distribution",
                         "distribution": dict(JOINT_SPEC), "numerics": {"n_fft": JOINT_N}}
        self.refs: list = []

    def write_inputs(self, indir: str) -> None:
        _write_yaml(os.path.join(indir, "joint.yaml"), self.scenario)

    def commands(self, indir: str, outdir: str) -> list[list[str]]:
        return [["distribution", "--config", os.path.join(indir, "joint.yaml"),
                 "--out", os.path.join(outdir, "joint.csv"), "--threads", "1"]]

    def prepare(self) -> None:
        from photonstats.models.jc import JaynesCummingsModel, JcParams

        p = JcParams(**{k: v for k, v in self.scenario["model"].items() if k != "kind"})
        model = JaynesCummingsModel(p)
        spec = self.scenario["distribution"]
        rho0 = _jc_stationary_vector(model)
        self.refs = [
            references.distribution_moments(model, rho0, spec["time"], k + 1,
                                            spec["nbar"][k], spec["sigma2"][k])
            for k in range(2)
        ]

    def check(self, outdir: str) -> CheckResult:
        path = os.path.join(outdir, "joint.csv")
        res = CheckResult(attempted=1)
        try:
            header, rows = read_csv(path)
            with open(path + ".json", encoding="utf-8") as fh:
                meta = json.load(fh)
        except (OSError, ValueError) as exc:
            res.structural.append(f"{path}: {exc}")
            res.failed = 1
            return res
        check_joint_table(res, header, rows, meta, self.refs, JOINT_N)
        res.failed = int(bool(res.misses))
        return res


def _jc_stationary_vector(model) -> np.ndarray:
    """Stationary Pauli vector of the jc generator, from its null space."""
    l0 = model.dressed_liouvillian((0.0, 0.0), (0.0,))
    return references.stationary_right_vector(l0, model.trace_vector())


def check_joint_table(res: CheckResult, header, rows, meta, refs, n: int) -> None:
    """Record in ``res`` the checks that a two-mode distribution table misses."""
    if header != ["n_1", "n_2", "probability"] or len(rows) != n * n:
        res.miss("table shape")
        return
    try:
        table = np.array([[float(r["n_1"]), float(r["n_2"]), float(r["probability"])]
                          for r in rows])
    except (TypeError, ValueError):
        res.miss("malformed row")
        return
    n1 = table[:, 0].reshape(n, n)
    n2 = table[:, 1].reshape(n, n)
    prob = table[:, 2].reshape(n, n)
    if not (np.all(n1 == n1[:, :1]) and np.all(np.diff(n1[:, 0]) == 1)
            and np.all(n2 == n2[:1, :]) and np.all(np.diff(n2[0]) == 1)):
        res.miss("window")
    if not np.all(np.isfinite(prob)) or prob.min() < 0.0:
        res.miss("negative probability")
    res.within("normalization", float(prob.sum()), 1.0, 0.0, 1e-6)
    if int(meta.get("n", -1)) != n:
        res.miss("sidecar n")
    for k, (mean, var) in enumerate(refs):
        try:
            mgf_mean = float(meta["mgf_mean"][k])
            mgf_var = float(meta["mgf_variance"][k])
        except (KeyError, IndexError, TypeError, ValueError):
            res.miss("sidecar moments")
            continue
        res.within(f"mgf_mean_{k + 1}", mgf_mean, mean, RTOL_FLUX, 0.0)
        res.within(f"mgf_variance_{k + 1}", mgf_var, var, RTOL_NOISE, 0.0)
        marginal = prob.sum(axis=1 - k)
        offsets = (n1[:, 0], n2[0])[k]
        t_mean = float(marginal @ offsets)
        t_var = float(marginal @ (offsets - t_mean) ** 2)
        # the mean sits on an arbitrary offset, so it is held to the spread
        res.within(f"table_mean_{k + 1}", t_mean, mean, 0.0, RTOL_TABLE * math.sqrt(var))
        res.within(f"table_variance_{k + 1}", t_var, var, RTOL_TABLE, 0.0)


WORKLOADS = {w.name: w for w in (StaticSweep, FloquetPeriodic, JointDistribution)}

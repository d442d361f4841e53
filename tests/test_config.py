"""Strict scenario parsing: every violation reported, derived sweeps applied."""

import math
import re
from dataclasses import replace
from importlib import resources
from pathlib import Path

import pytest

from photonstats import counting
from photonstats.cli import build_model
from photonstats.config import (
    Scenario,
    ScenarioError,
    Task,
    apply_sweep_value,
    parse_scenario,
    route_violations,
)
from photonstats.counting import DEFAULT_METHOD, Method
from photonstats.models.jc import JcParams
from photonstats.models.lambda_system import LambdaParams

MINIMAL = """
model:
  kind: jc
  eps_delta: 0.1
"""


def test_minimal_document():
    s = parse_scenario(MINIMAL)
    assert isinstance(s, Scenario)
    assert s.model_kind == "jc"
    assert s.model_params.eps_delta == 0.1
    assert s.task is Task.CUMULANTS
    assert s.method is DEFAULT_METHOD


def test_model_section_required():
    with pytest.raises(ScenarioError):
        parse_scenario("task: Cumulants")


def test_unknown_keys_rejected_with_path():
    doc = MINIMAL + "\nbogus: 1\n"
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(doc)
    assert any("bogus" in v for v in exc.value.violations)


def test_negative_gamma_names_the_field():
    doc = """
model:
  kind: jc
  gamma: -0.5
"""
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(doc)
    assert any("gamma" in v for v in exc.value.violations)


def test_all_violations_collected():
    doc = """
model:
  kind: jc
  gamma: -1
  bogus_param: 3
task: Dance
method: Magic
"""
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(doc)
    text = "\n".join(exc.value.violations)
    assert "gamma" in text and "bogus_param" in text
    assert "task" in text and "method" in text
    assert len(exc.value.violations) >= 4


def test_invalid_yaml():
    with pytest.raises(ScenarioError):
        parse_scenario("model: [unterminated")


def test_scan_requires_sweep():
    doc = MINIMAL + "task: Scan\n"
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(doc)
    assert any("sweep" in v for v in exc.value.violations)


def test_periodic_numeric_is_lambda_only():
    doc = MINIMAL + "method: PeriodicNumeric\n"
    with pytest.raises(ScenarioError):
        parse_scenario(doc)


def _engine_refuses(model, method: Method, selector) -> bool:
    """Whether the engine refuses ``selector`` by ``method`` on ``model``:
    the model lacks the route's hook, or the selector is out of range or the
    hook, asked with it where it takes one, refuses it (no route is run)."""
    hook = counting._ROUTES[method][1]
    if hook is not None and not hasattr(model, hook):
        return True
    try:
        counting._fields_for(model, selector, 0.0)
        if hook in ("oracle_rates", "harmonic_derivatives"):  # the hooks that take it
            getattr(model, hook)(selector)
    except ValueError:
        return True
    return False


@pytest.mark.parametrize("kind", ["jc", "lambda"])
def test_the_route_table_refuses_exactly_what_the_engine_refuses(kind):
    base = parse_scenario(f"model:\n  kind: {kind}\n")
    for method in Method:
        model = build_model(replace(base, method=method))
        for selector in (1, 2, "drive", "bath"):
            refused = bool(route_violations(kind, method, (selector,)))
            assert refused == _engine_refuses(model, method, selector), (method, selector)


def test_closed_task_is_jc_only():
    doc = """
model:
  kind: lambda
task: ClosedSystem
"""
    with pytest.raises(ScenarioError):
        parse_scenario(doc)


@pytest.mark.parametrize(
    "extra, paths",
    [
        ("numerics:\n  n_fft: 100\n", "numerics.n_fft"),
        ("numerics:\n  n_fft: 384\n", "numerics.n_fft"),
        ("numerics:\n  steps: 32\n", "numerics.steps"),
        ("distribution:\n  modes: [3]\n", "distribution.modes"),
        ("distribution:\n  modes: [2, 2]\n", "distribution.modes"),
        ("distribution:\n  modes: [1, 2]\n", "distribution.nbar distribution.sigma2"),
        ("distribution:\n  modes: [1, 2]\n  nbar: [1.0, 2.0]\n", "distribution.sigma2"),
        ("distribution:\n  modes: [1, 2]\n  law: poisson\n", "distribution.alphas"),
    ],
)
def test_bounds_that_the_numerics_enforce_are_violations(extra, paths):
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(MINIMAL + extra)
    assert [v.split(":")[0] for v in exc.value.violations] == paths.split()


def test_two_mode_distribution_with_matching_laws_parses():
    s = parse_scenario(MINIMAL + """
distribution:
  modes: [1, 2]
  nbar: [1000.0, 1000.0]
  sigma2: [25.0, 25.0]
numerics:
  n_fft: 256
  steps: 64
""")
    assert s.distribution.modes == (1, 2) and s.numerics.n_fft == 256


def test_log_sweep_needs_positive_start():
    doc = MINIMAL + """
task: Scan
sweep:
  variable: gamma
  start: 0.0
  stop: 1.0
  points: 5
  log: true
"""
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(doc)
    assert any("start" in v for v in exc.value.violations)


def test_sweep_grid():
    doc = MINIMAL + """
task: Scan
sweep:
  variable: gamma
  start: 0.0001
  stop: 1.0
  points: 5
  log: true
"""
    s = parse_scenario(doc)
    grid = s.sweeps[0].grid()
    assert grid[0] == pytest.approx(1e-4)
    assert grid[-1] == pytest.approx(1.0)
    assert len(grid) == 5


def test_repeat_values():
    doc = MINIMAL + """
task: Scan
sweep:
  variable: eps_delta
  start: -1
  stop: 1
  points: 3
  repeat_param: phi2
  repeat_values: [0.0, 1.5707963267948966]
"""
    s = parse_scenario(doc)
    assert s.sweeps[0].repeat_param == "phi2"
    assert len(s.sweeps[0].repeat_values) == 2


def test_apply_sweep_value_plain_and_derived():
    p = JcParams()
    assert apply_sweep_value(p, "eps_delta", 0.7).eps_delta == 0.7
    lp = LambdaParams()
    assert apply_sweep_value(lp, "omega_delta", -2.0).eps_c_delta == pytest.approx(-2.0)
    assert apply_sweep_value(lp, "r", 2.0).r == 2


def test_every_yaml_block_of_the_readme_parses():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```yaml\n(.*?)```", readme, re.S)
    assert blocks
    for block in blocks:
        assert isinstance(parse_scenario(block), Scenario)


@pytest.mark.parametrize("name", ["fig2.yaml", "fig3.yaml", "fig4.yaml", "fig5.yaml"])
def test_bundled_scenarios_parse(name):
    text = (
        resources.files("photonstats.scenarios").joinpath(name).read_text("utf-8")
    )
    s = parse_scenario(text)
    assert isinstance(s, Scenario)


def test_bundled_detuning_scan_shape():
    text = (
        resources.files("photonstats.scenarios").joinpath("fig2.yaml").read_text("utf-8")
    )
    s = parse_scenario(text)
    assert len(s.sweeps) == 3
    for sweep in s.sweeps:
        assert len(sweep.repeat_values) == 3  # three relative phases
    names = {sw.name for sw in s.sweeps}
    assert names == {"detuning", "amplitude", "gamma"}


JC = "model:\n  kind: jc\n"
LAMBDA = "model:\n  kind: lambda\n"
SWEEP = "sweep:\n  variable: gamma\n"
SPECTRAL = "method: SpectralFD\n"
# the stencil step is each route's own choice, so numerics.h is no key
NO_STEP = ["numerics.h: unknown key (allowed: n_fft, steps, threads)"]
TOP_KEYS = "closed, distribution, method, mode, model, numerics, output, sweep, sweeps, task"
METHODS = "['AnalyticOracle', 'CharPoly', 'PeriodicNumeric', 'PerturbationTheory', 'PseudoInverse', 'SpectralFD']"
TASKS = "['ClosedSystem', 'ConservationCheck', 'Cumulants', 'Distribution', 'Scan']"
JC_VARIABLES = "['eps_delta', 'gamma', 'omega1', 'omega2', 'phi1', 'phi2']"

# (id, invalid document, its exact violation list): every section's unknown
# keys, kinds, bounds and list shapes, and the checks across sections
INVALID = [
    ("unknown-top", JC + "bogus: 1\n",
     [f"bogus: unknown key (allowed: {TOP_KEYS})"]),
    ("unknown-model", JC + "  bogus: 1\n",
     ["model.bogus: unknown key (allowed: eps_delta, gamma, kind, omega1, omega2, phi1, phi2)"]),
    ("unknown-numerics", JC + "numerics:\n  bogus: 1\n",
     ["numerics.bogus: unknown key (allowed: n_fft, steps, threads)"]),
    ("unknown-distribution", JC + "distribution:\n  bogus: 1\n",
     ["distribution.bogus: unknown key (allowed: alphas, law, modes, nbar, sigma2, time)"]),
    ("unknown-closed", JC + "closed:\n  bogus: 1\n",
     ["closed.bogus: unknown key (allowed: mode, time, weights)"]),
    ("unknown-sweep", JC + SWEEP + "  bogus: 1\n",
     ["sweep.bogus: unknown key (allowed: log, name, points, repeat_param, repeat_values, start, stop, variable)"]),
    ("model-bool-number", JC + "  eps_delta: true\n",
     ["model.eps_delta: expected a number, got True"]),
    ("model-bool-integer", LAMBDA + "  r: true\n",
     ["model.r: expected an integer, got True"]),
    ("model-float-integer", LAMBDA + "  r: 1.5\n",
     ["model.r: expected an integer, got 1.5"]),
    ("model-string-number", JC + "  gamma: '0.1'\n",
     ["model.gamma: expected a number, got '0.1'"]),
    ("model-inf", JC + "  omega1: .inf\n",
     ["model.omega1: must be finite"]),
    ("model-nan", JC + "  phi1: .nan\n",
     ["model.phi1: must be finite"]),
    ("n_fft-float", JC + "numerics:\n  n_fft: 1024.0\n",
     ["numerics.n_fft: expected an integer, got 1024.0"]),
    ("threads-bool", JC + "numerics:\n  threads: true\n",
     ["numerics.threads: expected an integer, got True"]),
    ("h-string", JC + SPECTRAL + "numerics:\n  h: '0.1'\n", NO_STEP),
    ("distribution-time-inf", JC + "distribution:\n  time: .inf\n",
     ["distribution.time: must be finite"]),
    ("closed-time-string", JC + "closed:\n  time: '10'\n",
     ["closed.time: expected a number, got '10'"]),
    ("closed-mode-bool", JC + "closed:\n  mode: true\n",
     ["closed.mode: expected an integer, got True"]),
    ("sweep-points-bool", JC + SWEEP + "  points: true\n",
     ["sweep.points: expected an integer, got True"]),
    ("sweep-log-integer", JC + SWEEP + "  log: 1\n",
     ["sweep.log: expected a boolean"]),
    ("sweep-name-integer", JC + SWEEP + "  name: 5\n",
     ["sweep.name: expected a string"]),
    ("sweep-start-nan", JC + SWEEP + "  start: .nan\n",
     ["sweep.start: must be finite"]),
    ("model-not-mapping", "model: 3\n",
     ["model: expected a mapping with a 'kind' key"]),
    ("model-kind", "model:\n  kind: rabi\n  bogus: 1\n",
     ["model.kind: expected 'jc' or 'lambda', got 'rabi'"]),
    ("model-missing", "task: Cumulants\n",
     ["model: expected a mapping with a 'kind' key"]),
    ("method", JC + "method: Magic\n",
     [f"method: expected one of {METHODS}, got 'Magic'"]),
    ("task", JC + "task: Dance\n",
     [f"task: expected one of {TASKS}, got 'Dance'"]),
    ("mode-bool", JC + "mode: true\n",
     ["mode: expected 1, 2, 'drive' or 'bath', got True"]),
    ("mode-3", JC + "mode: 3\n",
     ["mode: expected 1, 2, 'drive' or 'bath', got 3"]),
    ("mode-string", JC + "mode: '1'\n",
     ["mode: expected 1, 2, 'drive' or 'bath', got '1'"]),
    ("output-integer", JC + "output: 5\n",
     ["output: expected a path string"]),
    ("numerics-not-mapping", JC + "numerics: 5\n",
     ["numerics: expected a mapping"]),
    ("distribution-not-mapping", JC + "distribution: [1]\n",
     ["distribution: expected a mapping"]),
    ("closed-not-mapping", JC + "closed: true\n",
     ["closed: expected a mapping"]),
    ("gamma-negative", JC + "  gamma: -0.5\n",
     ["model: gamma must be nonnegative"]),
    ("omega_d-zero", LAMBDA + "  omega_d: 0\n",
     ["model: omega_d must be positive"]),
    ("h-zero", JC + SPECTRAL + "numerics:\n  h: 0\n", NO_STEP),
    ("n_fft-100", JC + "numerics:\n  n_fft: 100\n",
     ["numerics.n_fft: must be a power of two >= 128, got 100"]),
    ("n_fft-384", JC + "numerics:\n  n_fft: 384\n",
     ["numerics.n_fft: must be a power of two >= 128, got 384"]),
    ("steps-32", JC + "numerics:\n  steps: 32\n",
     ["numerics.steps: must be >= 64, got 32"]),
    ("threads-0", JC + "numerics:\n  threads: 0\n",
     ["numerics.threads: must be >= 1, got 0"]),
    ("distribution-time-negative", JC + "distribution:\n  time: -1\n",
     ["distribution.time: must be nonnegative"]),
    ("alphas-negative", JC + "distribution:\n  law: poisson\n  alphas: [-3.0]\n",
     ["distribution.alphas: must be nonnegative"]),
    ("nbar-negative",
     JC + "distribution:\n  law: gaussian\n  nbar: [-100.0]\n  sigma2: [100.0]\n",
     ["distribution.nbar: must be nonnegative"]),
    ("sigma2-negative", JC + "distribution:\n  law: gaussian\n  sigma2: [-4.0]\n",
     ["distribution.sigma2: must be nonnegative"]),
    ("sigma2-negative-two-modes",
     JC + "distribution:\n  modes: [1, 2]\n  nbar: [1.0, 1.0]\n  sigma2: [-4.0, 1.0]\n",
     ["distribution.sigma2: must be nonnegative"]),
    ("closed-time-negative", JC + "closed:\n  time: -10\n",
     ["closed.time: must be nonnegative"]),
    ("closed-mode-3", JC + "closed:\n  mode: 3\n",
     ["closed.mode: must be 1 or 2"]),
    ("closed-weights-sum", JC + "closed:\n  weights: [0.7, 0.7]\n",
     ["closed.weights: must be nonnegative and sum to 1"]),
    ("closed-weights-negative", JC + "closed:\n  weights: [-0.5, 1.5]\n",
     ["closed.weights: must be nonnegative and sum to 1"]),
    ("sweep-points-1", JC + SWEEP + "  points: 1\n",
     ["sweep.points: must be >= 2"]),
    ("modes-bool", JC + "distribution:\n  modes: [true]\n",
     ["distribution.modes: expected [1], [2], [1, 2] or [2, 1]"]),
    ("modes-empty", JC + "distribution:\n  modes: []\n",
     ["distribution.modes: expected [1], [2], [1, 2] or [2, 1]"]),
    ("modes-scalar", JC + "distribution:\n  modes: 1\n",
     ["distribution.modes: expected [1], [2], [1, 2] or [2, 1]"]),
    ("modes-3", JC + "distribution:\n  modes: [1, 3]\n",
     ["distribution.modes: expected [1], [2], [1, 2] or [2, 1]"]),
    ("weights-one", JC + "closed:\n  weights: [0.5]\n",
     ["closed.weights: expected a list of two numbers summing to 1"]),
    ("weights-bool", JC + "closed:\n  weights: [0.5, true]\n",
     ["closed.weights[1]: expected a number, got True"]),
    ("nbar-empty", JC + "distribution:\n  nbar: []\n",
     ["distribution.nbar: expected a nonempty list of numbers"]),
    ("nbar-string", JC + "distribution:\n  nbar: [a, 1.0]\n",
     ["distribution.nbar[0]: expected a number, got 'a'"]),
    ("sigma2-scalar", JC + "distribution:\n  sigma2: 5\n",
     ["distribution.sigma2: expected a nonempty list of numbers"]),
    ("alphas-short", JC + "distribution:\n  law: poisson\n  modes: [1, 2]\n  alphas: [1.0]\n",
     ["distribution.alphas: needs one entry per resolved mode (2)"]),
    ("law", JC + "distribution:\n  law: cauchy\n",
     ["distribution.law: expected 'poisson' or 'gaussian'"]),
    ("sweep-and-sweeps", JC + SWEEP + "sweeps:\n  - variable: gamma\n",
     ["sweep: give either 'sweep' or 'sweeps', not both"]),
    ("sweeps-empty", JC + "sweeps: []\n",
     ["sweeps: expected a nonempty list of sweep mappings"]),
    ("sweeps-entry", JC + "sweeps: [3]\n",
     ["sweeps[0]: expected a mapping"]),
    ("sweep-not-mapping", JC + "sweep: 3\n",
     ["sweep: expected a mapping"]),
    ("sweep-variable-of-lambda", JC + "sweep:\n  variable: omega_delta\n",
     [f"sweep.variable: expected one of {JC_VARIABLES}, got 'omega_delta'"]),
    ("sweeps-variable-of-jc", LAMBDA + "sweeps:\n  - variable: omega_delta\n  - variable: omega2\n",
     ["sweeps[1].variable: expected one of ['eps_a', 'eps_b', 'eps_c', 'gamma', 'omega_1', 'omega_d', 'omega_delta', 'omega_p', 'omega_p0', 'omega_p1', 'omega_s', 'phi1', 'phi2', 'r'], got 'omega2'"]),
    ("sweep-variable-missing", JC + "sweep:\n  start: 1\n",
     [f"sweep.variable: expected one of {JC_VARIABLES}, got None"]),
    ("log-sweep-start-0", JC + SWEEP + "  start: 0\n  stop: 1\n  points: 5\n  log: true\n",
     ["sweep.start: must be positive for a log sweep"]),
    ("log-sweep-default-start", JC + SWEEP + "  log: true\n",
     ["sweep.start: must be positive for a log sweep"]),
    ("log-sweep-stop-0", JC + SWEEP + "  start: 0.1\n  stop: 0.0\n  points: 3\n  log: true\n",
     ["sweep.stop: must be positive for a log sweep"]),
    ("log-sweep-both-ends", JC + SWEEP + "  start: -1\n  stop: 0\n  log: true\n",
     ["sweep.start: must be positive for a log sweep",
      "sweep.stop: must be positive for a log sweep"]),
    # each sweep's name names its CSV, so a reused name would overwrite one
    ("sweeps-same-default-name", JC + "sweeps:\n  - variable: gamma\n  - variable: gamma\n",
     ["sweeps[1].name: 'gamma' is already used by sweeps[0]"]),
    ("sweeps-same-given-name",
     JC + "sweeps:\n  - variable: gamma\n  - {variable: omega1, name: a}\n"
     "  - {variable: omega2, name: gamma}\n  - {variable: phi1, name: a}\n",
     ["sweeps[2].name: 'gamma' is already used by sweeps[0]",
      "sweeps[3].name: 'a' is already used by sweeps[1]"]),
    ("repeat-param-without-values", JC + SWEEP + "  repeat_param: phi2\n",
     ["sweep.repeat_values: expected a nonempty list"]),
    ("repeat-values-without-param", JC + "sweep:\n  variable: gamma\n  repeat_values: bogus\n",
     ["sweep.repeat_values: given without a repeat_param"]),
    ("sweep-variable-of-failed-lambda", LAMBDA + "  gamma: -1\nsweep:\n  variable: omega_delta\n",
     ["model: gamma and omega_s must be nonnegative"]),
    # an unknown kind has its kind refused and no kind's sweep variable
    ("sweep-variable-of-unknown-kind", "model:\n  kind: rabi\nsweep:\n  variable: omega_delta\n",
     ["model.kind: expected 'jc' or 'lambda', got 'rabi'"]),
    ("sweep-variable-of-unhashable-kind", "model:\n  kind: [1]\nsweep:\n  variable: omega_delta\n",
     ["model.kind: expected 'jc' or 'lambda', got [1]"]),
    ("repeat-param-unknown", JC + SWEEP + "  repeat_param: r\n  repeat_values: [1]\n",
     ["sweep.repeat_param: unknown parameter 'r'"]),
    ("repeat-values-string", JC + SWEEP + "  repeat_param: phi2\n  repeat_values: [0.0, a]\n",
     ["sweep.repeat_values[1]: expected a number, got 'a'"]),
    ("scan-without-sweep", JC + "task: Scan\n",
     ["sweep: a Scan task requires a sweep specification"]),
    # a refused sweep is reported once, not also as a missing one
    ("scan-log-sweep-stop-0", JC + "task: Scan\n" + SWEEP + "  start: 0.1\n  stop: 0.0\n"
     "  points: 3\n  log: true\n",
     ["sweep.stop: must be positive for a log sweep"]),
    ("scan-sweep-points-0", JC + "task: Scan\n" + SWEEP + "  points: 0\n",
     ["sweep.points: must be >= 2"]),
    ("scan-sweep-variable-missing", JC + "task: Scan\nsweep:\n  start: 1\n",
     [f"sweep.variable: expected one of {JC_VARIABLES}, got None"]),
    ("closed-task-lambda", LAMBDA + "task: ClosedSystem\n",
     ["task: ClosedSystem statistics are defined for the jc model"]),
    ("periodic-numeric-jc", JC + "method: PeriodicNumeric\n",
     ["method: PeriodicNumeric applies to the lambda model only"]),
    ("perturbation-theory-jc", JC + "method: PerturbationTheory\n",
     ["method: PerturbationTheory applies to the lambda model only"]),
    ("oracle-bath-lambda", LAMBDA + "method: AnalyticOracle\nmode: bath\n",
     ["mode: AnalyticOracle counts 1, 2, 'drive' on the lambda model, not 'bath'"]),
    ("h-with-oracle", JC + "method: AnalyticOracle\nnumerics:\n  h: 0.01\n", NO_STEP),
    ("many-sections", JC + "  gamma: -1\n  bogus_param: 3\ntask: Dance\nmethod: Magic\nbogus: 1\n", [
        f"bogus: unknown key (allowed: {TOP_KEYS})",
        "model.bogus_param: unknown key (allowed: eps_delta, gamma, kind, omega1, omega2, phi1, phi2)",
        "model: gamma must be nonnegative",
        f"method: expected one of {METHODS}, got 'Magic'",
        f"task: expected one of {TASKS}, got 'Dance'",
    ]),
    ("document-not-mapping", "[1, 2]\n",
     ["document: expected a top-level mapping"]),
]


@pytest.mark.parametrize(
    "doc, violations", [case[1:] for case in INVALID], ids=[case[0] for case in INVALID]
)
def test_exact_violations(doc, violations):
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(doc)
    assert exc.value.violations == violations


@pytest.mark.parametrize("sweep", [
    "  repeat_values: null\n",
    "  repeat_values: []\n",
    "  repeat_param: null\n  repeat_values: null\n",
    "  repeat_param: null\n  repeat_values: []\n",
])
def test_unset_repeat_values_parse(sweep):
    # null means unset, as elsewhere in the schema, and [] gives no values
    s = parse_scenario(JC + SWEEP + sweep)
    assert s.sweeps[0].repeat_param is None
    assert s.sweeps[0].repeat_values == ()

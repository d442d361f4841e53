"""Strict scenario parsing: every violation reported, derived sweeps applied."""

import math
from importlib import resources

import pytest

from photonstats.config import (
    Scenario,
    ScenarioError,
    Task,
    apply_sweep_value,
    parse_scenario,
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

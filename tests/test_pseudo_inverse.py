"""PseudoInverse: exact static cumulants from the pseudo-inverse of the generator."""

import csv
import math
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from click.testing import CliRunner
from test_acceptance import LAMBDA_PARAM_SETS, probe_sweep_grid

from photonstats.charpoly import DegenerateRootError
from photonstats.cli import build_model, main
from photonstats.config import apply_sweep_value, parse_scenario
from photonstats.counting import (
    DEFAULT_METHOD,
    Method,
    conservation_check,
    cumulants,
    cumulants_many,
)
from photonstats.models.jc import JaynesCummingsModel, JcParams, jc_exact_cumulants
from photonstats.models.lambda_system import (
    LambdaModel,
    LambdaParams,
    LambdaPeriodicModel,
)

def fig5_params(r, omega_p1):
    """A point of the bundled fig5 amplitude sweep."""
    text = resources.files("photonstats.scenarios").joinpath("fig5.yaml").read_text()
    params = apply_sweep_value(parse_scenario(text).model_params, "r", r)
    return apply_sweep_value(params, "omega_p1", omega_p1)


def assert_agrees_with_charpoly(model, selector):
    rep = cumulants(model, selector, method=Method.PSEUDO_INVERSE)
    ref = cumulants(model, selector, method=Method.CHARPOLY)
    # the absolute floor only matters where a rate vanishes (the sweeps reach 1e-5)
    assert rep.flux == pytest.approx(ref.flux, rel=1e-6, abs=1e-15)
    assert rep.noise == pytest.approx(ref.noise, rel=1e-5, abs=1e-15)
    assert not rep.flagged


def test_is_the_default_route():
    assert DEFAULT_METHOD is Method.PSEUDO_INVERSE
    rep = cumulants(JaynesCummingsModel(JcParams()), 1)
    assert rep.method is Method.PSEUDO_INVERSE and rep.h == 0.0


def test_matches_exact_jc_cumulants_on_the_acceptance_grid():
    for p in probe_sweep_grid():
        rep = cumulants(JaynesCummingsModel(p), 1)
        flux, noise = jc_exact_cumulants(p, "mode1")
        assert rep.flux == pytest.approx(flux, rel=1e-6)
        assert rep.noise == pytest.approx(noise, rel=1e-5)
        assert not rep.flagged


@pytest.mark.parametrize("params", LAMBDA_PARAM_SETS)
def test_matches_charpoly_on_lambda(params):
    model = LambdaModel(params)
    for selector in (1, 2, "drive", "bath"):
        assert_agrees_with_charpoly(model, selector)


@pytest.mark.parametrize(
    "r, omega_p1, selector",
    # fig5 points where SpectralFD's step ladder or its error estimate fails
    [(2, 0.02, 2), (2, 9.72023757330519, 2), (2, 192.0, 1)],
)
def test_matches_charpoly_where_spectral_stencils_fail(r, omega_p1, selector):
    assert_agrees_with_charpoly(LambdaModel(fig5_params(r, omega_p1)), selector)


def test_error_estimate_follows_the_conditioning():
    # eps * cond_1 of the bordered matrix grows as the dissipative gap closes
    errors = [
        cumulants(JaynesCummingsModel(JcParams(gamma=g)), 1).stencil_error
        for g in (1.0, 1e-2, 1e-4)
    ]
    assert 0.0 < errors[0] < errors[1] < errors[2] < 1e-10
    assert errors[2] > 100.0 * errors[0]


@pytest.mark.parametrize(
    "model",
    [
        JaynesCummingsModel(JcParams(eps_delta=-0.3, omega2=2.0, phi2=2.2, gamma=1e-3)),
        LambdaModel(fig5_params(2, 160.0)),
    ],
)
def test_default_conservation_check_closes_the_ledger(model):
    rep = conservation_check(model)
    assert rep.drive.method is Method.PSEUDO_INVERSE
    assert rep.bath.method is Method.PSEUDO_INVERSE
    assert rep.passed


def test_degenerate_stationary_state_is_refused():
    # lossless emitter: every state commuting with the Hamiltonian is stationary
    m = JaynesCummingsModel(JcParams(eps_delta=0.0, omega2=1.0, phi2=math.pi, gamma=0.0))
    with pytest.raises(DegenerateRootError):
        cumulants(m, 1, method=Method.PSEUDO_INVERSE)


@pytest.mark.parametrize("name", ["fig2", "fig5"])
def test_stacked_sweep_matches_per_point_cumulants(tmp_path, name):
    # every point of the bundled grid on the default route, against cumulants()
    text = resources.files("photonstats.scenarios").joinpath(f"{name}.yaml").read_text()
    doc = text.replace("method: AnalyticOracle\n", "")
    assert doc != text
    (tmp_path / "s.yaml").write_text(doc)
    result = CliRunner().invoke(
        main, ["scan", "--config", str(tmp_path / "s.yaml"), "--out", str(tmp_path)]
    )
    assert result.exit_code == 0, result.output
    scenario = parse_scenario(doc)
    columns = ("I_1", "sigma2_1", "I_2", "sigma2_2")
    for sweep in scenario.sweeps:
        with open(tmp_path / f"scan_{sweep.name}.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        expected = []
        for rv in sweep.repeat_values:
            base = apply_sweep_value(scenario.model_params, sweep.repeat_param, rv)
            for x in sweep.grid():
                model = build_model(
                    replace(scenario, model_params=apply_sweep_value(base, sweep.variable, x))
                )
                reports = [cumulants(model, mode) for mode in (1, 2)]
                expected.append([v for rep in reports for v in (rep.flux, rep.noise)])
        assert len(rows) == len(expected)
        assert not any(row["error"] for row in rows)
        got = np.array([[float(row[c]) for c in columns] for row in rows])
        expected = np.array(expected)
        scale = np.abs(expected).max(axis=0)
        assert (np.abs(got - expected) <= 1e-15 * scale).all()


class Frozen(JaynesCummingsModel):
    """A zero generator: every state is stationary, the bordered matrix singular."""

    @staticmethod
    def field_components(models):
        zero = np.zeros((3, len(models), 4, 4), dtype=complex)
        return zero[0], zero, zero


class Broken(JaynesCummingsModel):
    @staticmethod
    def field_components(models):
        raise RuntimeError("no generator here")


JC_CHUNK = [JcParams(eps_delta=e, gamma=g) for e, g in ((-0.5, 0.1), (0.2, 1e-3), (0.9, 0.05))]


@pytest.mark.parametrize(
    "odd, error",
    [
        (Frozen, "DegenerateRootError: the bordered generator is singular"),
        (Broken, "RuntimeError: no generator here"),
    ],
)
def test_a_failing_model_mid_chunk_fails_alone(odd, error):
    models = [JaynesCummingsModel(p) for p in JC_CHUNK]
    models.insert(1, odd(JcParams()))
    results = cumulants_many(models, (1, 2))
    assert f"{type(results[1]).__name__}: {results[1]}".startswith(error)
    for model, reports in zip(models[::2] + models[3:], results[::2] + results[3:]):
        assert reports == [cumulants(model, mode) for mode in (1, 2)]


def test_many_loops_over_other_methods_and_structured_models():
    jc = JaynesCummingsModel(JcParams())
    periodic = LambdaPeriodicModel(LambdaParams(r=1).with_detuning(2.0))
    assert cumulants_many([jc], ("bath",), Method.CHARPOLY) == [
        [cumulants(jc, "bath", method=Method.CHARPOLY)]
    ]
    [reports] = cumulants_many([periodic], (1, 2))
    assert reports == [cumulants(periodic, mode) for mode in (1, 2)]
    [refused] = cumulants_many([jc], (1,), h=1e-3)
    assert isinstance(refused, ValueError) and "stencil step" in str(refused)


class CountingJc(JaynesCummingsModel):
    """The emitter, counting the calls of its class's component hook."""

    calls = 0

    @staticmethod
    def field_components(models):
        CountingJc.calls += 1
        return JaynesCummingsModel.field_components(models)


@pytest.mark.parametrize("classes, calls", [
    ((JaynesCummingsModel, CountingJc, JaynesCummingsModel), 1),
    ((CountingJc, CountingJc, JaynesCummingsModel), 1),
    ((CountingJc, JaynesCummingsModel, CountingJc), 2),
])
def test_a_mixed_chunk_goes_through_each_class_hook(classes, calls):
    # one hook call per run of consecutive models of one class, and the
    # numbers of the models alone
    models = [cls(p) for cls, p in zip(classes, JC_CHUNK)]
    CountingJc.calls = 0
    results = cumulants_many(models, (1, 2))
    assert CountingJc.calls == calls
    for model, reports in zip(models, results):
        assert reports == [cumulants(JaynesCummingsModel(model.params), mode) for mode in (1, 2)]


def test_a_chunk_of_one_stacking_class_never_calls_the_one_sample_generator(monkeypatch):
    calls = []
    original = JaynesCummingsModel.dressed_liouvillian
    monkeypatch.setattr(JaynesCummingsModel, "dressed_liouvillian",
                        lambda self, chi, xi: calls.append(1) or original(self, chi, xi))
    results = cumulants_many([JaynesCummingsModel(p) for p in JC_CHUNK], (1, 2))
    assert calls == [] and all(isinstance(r, list) for r in results)


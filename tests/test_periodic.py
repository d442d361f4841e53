"""Periodic lambda model: the variational one-period propagator
(PeriodicNumeric) and the photon-resolved Floquet (Sambe) generator."""

import csv
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as la
from click.testing import CliRunner

from photonstats import cli, counting, superop
from photonstats.charpoly import DegenerateRootError, fourier_derivatives
from photonstats.cli import main
from photonstats.config import ScenarioError, parse_scenario
from photonstats.counting import (
    CountingFields,
    Method,
    _pseudo_inverse_rates,
    cumulants,
    dynamical_mgf,
)
from photonstats.models import lambda_system
from photonstats.models.lambda_system import (
    LambdaModel,
    LambdaParams,
    LambdaPeriodicModel,
)
from photonstats.superop import StepConvergenceError, variational_monodromy


def periodic(p, steps=1024, **kw):
    return cumulants(
        LambdaPeriodicModel(p, steps=steps, **kw), 2, method=Method.PERIODIC_NUMERIC
    )


def test_constant_generator_matches_rwa_charpoly():
    # without pump modulation and at r = 0 every harmonic but the static one vanishes
    p = LambdaParams(r=0, omega_p1=0.0, phi2=0.4).with_detuning(0.7)
    model = LambdaPeriodicModel(p, steps=512)
    orders, mats = model.time_harmonics((0.3, -0.2), (0.1,))
    static = LambdaModel(p).dressed_liouvillian((0.3, -0.2), (0.1,))
    nonzero = [n for n, m in zip(orders, mats) if np.abs(m).max() > 0.0]
    assert nonzero == [0]
    assert np.allclose(mats[list(orders).index(0)], static, atol=1e-14)
    for mode in (1, 2, "drive", "bath"):
        num = cumulants(model, mode, method=Method.PERIODIC_NUMERIC)
        ref = cumulants(LambdaModel(p), mode, method=Method.CHARPOLY)
        assert num.flux == pytest.approx(ref.flux, rel=1e-8)
        assert num.noise == pytest.approx(ref.noise, rel=1e-8)
        assert not num.flagged


@pytest.mark.parametrize(
    "omega_delta, flux, noise",
    [(2.0, -8.6917224e-6, 1.1716098e-6), (-2.0, -8.6899130e-6, 1.1660752e-6)],
)
def test_fig4_working_points(omega_delta, flux, noise):
    # reference values: slow Floquet exponent log(mu)/T, differentiated by
    # trigonometric interpolation over eight counting fields (2048 steps)
    p = LambdaParams(r=2).with_detuning(omega_delta)
    rep = periodic(p)
    assert rep.method is Method.PERIODIC_NUMERIC
    assert rep.flux == pytest.approx(flux, rel=1e-6)
    assert rep.noise == pytest.approx(noise, rel=1e-5)
    assert rep.stencil_error < 1e-6 and not rep.flagged


@pytest.mark.parametrize("omega_delta", [-2.5, -0.5, 0.5, 2.0])
def test_noise_approaches_rwa_at_deep_drive_separation(omega_delta):
    p = LambdaParams(omega_d=400.0, omega_p1=800.0).with_detuning(omega_delta)
    num = periodic(p)
    rwa = cumulants(LambdaModel(p), 2, method=Method.CHARPOLY)
    assert num.noise == pytest.approx(rwa.noise, rel=1e-2)
    assert num.flux == pytest.approx(rwa.flux, rel=1e-2)


def test_coarse_grid_is_caught():
    p = LambdaParams(omega_p1=400.0).with_detuning(2.0)
    try:
        rep = periodic(p, steps=64)
    except StepConvergenceError as exc:
        assert exc.rel_change > 1e-6
    else:
        assert rep.flagged


def test_step_doubling_error_is_reported_without_propagator_check():
    p = LambdaParams(omega_p1=400.0).with_detuning(2.0)
    rep = periodic(p, steps=64, check_tol=None)
    assert rep.stencil_error > 1e-6 and rep.flagged


# numerics.h is a stencil step: only SpectralFD and PerturbationTheory take one
STEP_FREE_ROUTES = (
    (Method.CHARPOLY, LambdaModel),
    (Method.ANALYTIC_ORACLE, LambdaModel),
    (Method.PERIODIC_NUMERIC, LambdaPeriodicModel),
    (Method.PSEUDO_INVERSE, LambdaModel),
)


def test_stencil_step_is_refused():
    for method, model_cls in STEP_FREE_ROUTES:
        with pytest.raises(ValueError, match="stencil step"):
            cumulants(model_cls(LambdaParams()), 2, method=method, h=1e-3)


def test_static_model_has_no_periodic_route():
    with pytest.raises(NotImplementedError):
        cumulants(LambdaModel(LambdaParams()), 2, method=Method.PERIODIC_NUMERIC)


def test_scenario_rejects_stencil_step_for_periodic_numeric():
    step = "numerics:\n  h: 0.001\n"
    for method, _ in STEP_FREE_ROUTES:
        doc = f"model:\n  kind: lambda\nmethod: {method.value}\n"
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(doc + step)
        assert any(v.startswith("numerics.h") for v in exc.value.violations)
        parse_scenario(doc)
    for method in (Method.SPECTRAL_FD, Method.PERTURBATION):
        parse_scenario(f"model:\n  kind: lambda\nmethod: {method.value}\n" + step)


def test_cli_method_override_rejects_stencil_step(tmp_path):
    cfg = tmp_path / "s.yaml"
    cfg.write_text("model:\n  kind: lambda\nnumerics:\n  h: 0.001\n")
    for method, _ in STEP_FREE_ROUTES:
        result = CliRunner().invoke(
            main, ["cumulants", "--config", str(cfg), "--method", method.value]
        )
        assert result.exit_code == 2
        assert "numerics.h" in result.output


def test_time_harmonics_reproduce_callback():
    p = LambdaParams(r=3, phi1=0.3, phi2=0.7).with_detuning(1.3)
    model = LambdaPeriodicModel(p)
    orders, mats = model.time_harmonics((0.4, -0.2), (0.1,))
    assert list(orders) == [-3, -1, 0, 1, 3]
    l_of_t = model.liouvillian_of_t((0.4, -0.2), (0.1,))
    for t in (0.0, 0.01, 0.07):
        direct = sum(np.exp(1j * n * p.omega_d * t) * m for n, m in zip(orders, mats))
        assert np.allclose(l_of_t(t), direct, atol=1e-13)


def sampled_derivatives(model, selector, fn):
    """fn(chi, xi) at zero field and its first two derivatives along
    ``selector``, from four field samples over one period: exact for a
    function of trigonometric degree 1, and independent of the model's
    field components."""
    fields = [counting._fields_for(model, selector, math.pi * j / 2) for j in range(4)]
    samples = [fn(f.chi, f.xi) for f in fields]
    _, _, d1, d2 = fourier_derivatives(samples)
    return samples[0], d1, d2


def sambe_propagator(model, chi, xi, t):
    """U(t) = sum_m' [exp(F t)]_{0, m'} from the model's Sambe generator F."""
    n = 2 * model.cutoff + 1
    prop = la.expm(model.dressed_liouvillian(chi, xi) * t)
    return prop.reshape(n, 9, n, 9)[model.cutoff].sum(axis=1)


def test_variational_propagator_matches_finite_differences():
    # the frequency-domain reference: U(T) and its field finite differences
    # from the Sambe identity; the whole propagator, coherences included,
    # needs more photon blocks than the flux and noise
    p = LambdaParams(r=1).with_detuning(0.5)
    model = LambdaPeriodicModel(p, check_tol=None)
    model.cutoff = 24

    orders, _ = model.time_harmonics((0.0, 0.0), (0.0,))
    derivs = np.stack(
        sampled_derivatives(model, 2, lambda chi, xi: model.time_harmonics(chi, xi)[1])
    )
    u, du, d2u = variational_monodromy(orders, derivs, model.period, 512)
    d = 1e-3
    u0, up, um = (
        sambe_propagator(model, (0.0, x), (0.0,), model.period) for x in (0.0, d, -d)
    )
    assert np.allclose(u, u0, rtol=0.0, atol=1e-8)
    assert np.allclose(du, (up - um) / (2 * d), rtol=0.0, atol=1e-8)
    assert np.allclose(d2u, (up - 2 * u0 + um) / d**2, rtol=0.0, atol=1e-7)


@pytest.mark.parametrize("r", [0, 1, 2])
@pytest.mark.parametrize("omega_delta", [-2.0, 2.0])
def test_pseudo_inverse_on_sambe_generator_matches_periodic_numeric(r, omega_delta):
    p = LambdaParams(r=r).with_detuning(omega_delta)
    sambe = cumulants(LambdaPeriodicModel(p), 2, method=Method.PSEUDO_INVERSE)
    rk4 = periodic(p)
    assert sambe.flux == pytest.approx(rk4.flux, rel=1e-9)
    assert sambe.noise == pytest.approx(rk4.noise, rel=1e-9)
    assert not sambe.flagged


def rk4_trace(l_of_t, rho0, t, steps):
    """tr rho(t) of d rho/dt = L(t) rho by fixed-step RK4."""
    h, y = t / steps, rho0
    for n in range(steps):
        s = n * h
        k1 = l_of_t(s) @ y
        k2 = l_of_t(s + h / 2) @ (y + h / 2 * k1)
        k3 = l_of_t(s + h / 2) @ (y + h / 2 * k2)
        k4 = l_of_t(s + h) @ (y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y[0] + y[4] + y[8]


@pytest.mark.parametrize("periods", [3.0, 3.25])
def test_dynamical_mgf_matches_time_domain_integration(periods):
    p = LambdaParams(r=2, omega_s=0.3).with_detuning(1.0)
    model = LambdaPeriodicModel(p)
    fields = CountingFields((0.4, -0.7), (0.3,))
    t = periods * model.period
    mgf = dynamical_mgf(model, fields, model.stationary_vector(), t).value
    ground = np.zeros(9, dtype=complex)
    ground[0] = 1.0
    plus, minus = (
        rk4_trace(model.liouvillian_of_t(f.chi, f.xi), ground, t, int(1200 * periods))
        for f in (fields, fields.negated_chi())
    )
    assert abs(mgf - (plus + np.conj(minus)) / 2) < 1e-10


SIX_POINTS = [(r, w) for r in (0, 1, 2) for w in (-2.0, 2.0)]


@pytest.mark.parametrize("r, omega_delta", SIX_POINTS)
def test_truncation_check_matches_the_route_at_both_cutoffs(r, omega_delta):
    # the check's rates at M and M + 4 against the route on models cut there
    model = LambdaPeriodicModel(LambdaParams(r=r).with_detuning(omega_delta))
    assert model.truncation_change < 1e-6
    coarse, fine = model._truncation[1:3]
    for rows, extra in ((coarse, 0), (fine, 4)):
        plain = LambdaPeriodicModel(model.params, check_tol=None)
        plain.cutoff += extra
        for mode, (flux, noise) in zip((1, 2), rows):
            rep = cumulants(plain, mode, method=Method.PSEUDO_INVERSE)
            assert flux == pytest.approx(rep.flux, rel=1e-12, abs=0.0)
            assert noise == pytest.approx(rep.noise, rel=1e-12, abs=0.0)


def dense_bordered_rates(model, selector):
    """(flux, noise) and eps * cond_1(B) from the dense bordered inverse of the Sambe generator."""
    l0, l1, l2 = sampled_derivatives(model, selector, model.dressed_liouvillian)
    flux, noise, cond_error = _pseudo_inverse_rates(
        l0[None], model.trace_vector()[None], l1[None, None], l2[None, None]
    )
    return (flux[0, 0], noise[0, 0]), cond_error[0]


# the six floquet-periodic points and the fig5 end point (M = 20, 2M + 1 odd
# photon blocks in pairs: the last group is padded)
STRUCTURED_POINTS = [LambdaParams(r=r).with_detuning(w) for r, w in SIX_POINTS] + [
    LambdaParams(r=2, omega_1=32.0, omega_p1=320.0, phi1=math.pi / 2)
]


@pytest.mark.parametrize("p", STRUCTURED_POINTS, ids=lambda p: f"r{p.r}-{p.omega_1}-{p.omega_p1}")
def test_shifted_block_solve_matches_dense_bordered_inverse(p):
    model = LambdaPeriodicModel(p, check_tol=None)
    if p is STRUCTURED_POINTS[-1]:
        assert model.cutoff == 20
    # the bath flux reads the small excited populations of the stationary
    # state: it catches a shift that pollutes their rows
    for selector in (1, 2, "drive", "bath"):
        (flux, noise), dense_cond = dense_bordered_rates(model, selector)
        rep = cumulants(model, selector, method=Method.PSEUDO_INVERSE)
        assert rep.flux == pytest.approx(flux, rel=1e-12, abs=0.0)
        assert rep.noise == pytest.approx(noise, rel=1e-12, abs=0.0)
        assert not rep.flagged
    cond_error = model._shifted_sambe(model.cutoff).cond_error
    assert dense_cond / 10 <= cond_error <= 10 * dense_cond
    assert rep.stencil_error >= cond_error


def test_singular_sambe_generator_raises():
    # no pump, no signal, no decay: every harmonic vanishes, so the m = 0
    # block of the shifted generator is the rank-one trace shift alone
    p = LambdaParams(omega_p0=0.0, omega_p1=0.0, omega_s=0.0, gamma=0.0).with_detuning(0.0)
    assert p.eps_b_delta == 0.0 and p.eps_c_delta == 0.0
    with pytest.raises(DegenerateRootError):
        cumulants(LambdaPeriodicModel(p), 2)
    with pytest.raises(DegenerateRootError):
        cumulants(LambdaPeriodicModel(p, check_tol=None), 2)


def test_fig4_point_factors_once_per_cutoff(monkeypatch):
    # the route reuses the cutoff check's factorization at M
    shapes = []

    class Counted(lambda_system.BlockTridiagonalLU):
        def __init__(self, lower, diag, upper):
            shapes.append(diag.shape)
            super().__init__(lower, diag, upper)

    monkeypatch.setattr(lambda_system, "BlockTridiagonalLU", Counted)
    params = LambdaParams(r=2).with_detuning(2.0)
    scenario = replace(parse_scenario("model:\n  kind: lambda\n"), model_params=params)
    row = cli._fig4_point(scenario)
    assert row[6] == ""
    cutoff = LambdaPeriodicModel(params).cutoff
    assert shapes == [(-(-(2 * m + 1) // 2), 18, 18) for m in (cutoff, cutoff + 4)]


def count_component_builds(monkeypatch) -> list:
    """Record each build of the harmonics' field components; refuse any
    call of ``time_harmonics``."""
    builds = []
    original = lambda_system._harmonic_components

    def counted(params, orders):
        builds.append(params)
        return original(params, orders)

    def refuse(self, chi, xi):
        raise AssertionError("the route called time_harmonics")

    monkeypatch.setattr(lambda_system, "_harmonic_components", counted)
    monkeypatch.setattr(LambdaPeriodicModel, "time_harmonics", refuse)
    return builds


@pytest.mark.parametrize("r", [0, 1, 2])
def test_fig4_point_builds_the_harmonic_components_once(monkeypatch, r):
    # the cutoff check, both factorizations and the route read one build
    builds = count_component_builds(monkeypatch)
    params = LambdaParams(r=r).with_detuning(2.0)
    scenario = replace(parse_scenario("model:\n  kind: lambda\n"), model_params=params)
    assert cli._fig4_point(scenario)[6] == ""
    assert builds == [params]


def test_periodic_numeric_reads_the_harmonic_components(monkeypatch):
    # two PeriodicNumeric reports read one build of the components, with
    # the numbers of a fresh model
    params = LambdaParams(r=2).with_detuning(2.0)
    fresh = [
        cumulants(LambdaPeriodicModel(params, steps=512), mode, method=Method.PERIODIC_NUMERIC)
        for mode in (1, 2)
    ]
    builds = count_component_builds(monkeypatch)
    model = LambdaPeriodicModel(params, steps=512)
    reports = [cumulants(model, mode, method=Method.PERIODIC_NUMERIC) for mode in (1, 2)]
    assert builds == [params]
    assert reports == fresh


def test_fig4_numeric_columns_match_rk4_without_running_it(tmp_path, monkeypatch):
    refs = {(r, w): periodic(LambdaParams(r=r).with_detuning(w)) for r, w in SIX_POINTS}

    def refuse(*args, **kwargs):
        raise AssertionError("fig4 ran the RK4 monodromy")

    monkeypatch.setattr(superop, "variational_monodromy", refuse)
    monkeypatch.setattr(counting, "variational_monodromy", refuse)
    cfg = tmp_path / "fig4.yaml"
    cfg.write_text(
        "model:\n  kind: lambda\nmode: 2\n"
        "sweep:\n  variable: omega_delta\n  start: -2.0\n  stop: 2.0\n"
        "  points: 2\n  repeat_param: r\n  repeat_values: [0, 1, 2]\n"
    )
    out = tmp_path / "fig4.csv"
    result = CliRunner().invoke(
        main, ["fig4", "--config", str(cfg), "--out", str(out), "--threads", "1"]
    )
    assert result.exit_code == 0, result.output
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(refs)
    for row in rows:
        ref = refs[(int(row["r"]), float(row["omega_delta"]))]
        for column, value in (("I_2", ref.flux), ("sigma2_2", ref.noise), ("snr_2", ref.snr)):
            assert float(row[column + "_numeric"]) == pytest.approx(value, rel=1e-9)


class TooFewPhotons(LambdaPeriodicModel):
    def __init__(self, params, **kw):
        super().__init__(params, **kw)
        self.cutoff = 3


def test_sambe_truncation_check_catches_small_cutoff():
    p = LambdaParams(r=2).with_detuning(2.0)
    with pytest.raises(StepConvergenceError) as exc:
        cumulants(TooFewPhotons(p), 2)
    assert exc.value.rel_change > 1e-6
    rep = cumulants(TooFewPhotons(p, check_tol=None), 2)
    assert rep.flux != pytest.approx(cumulants(LambdaPeriodicModel(p), 2).flux, rel=1e-6)


def test_fig4_csv_carries_provenance_and_is_reproducible(tmp_path):
    cfg = tmp_path / "fig4.yaml"
    cfg.write_text(
        "model:\n  kind: lambda\nmode: 2\n"
        "sweep:\n  variable: omega_delta\n  start: -2.0\n  stop: 2.0\n"
        "  points: 2\n  repeat_param: r\n  repeat_values: [2]\n"
    )
    outputs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        result = CliRunner().invoke(
            main, ["fig4", "--config", str(cfg), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    header, *rows = outputs[0].decode().splitlines()
    assert header.split(",") == [
        "omega_delta", "r",
        "I_2_pt2", "sigma2_2_pt2", "snr_2_pt2",
        "I_2_numeric", "sigma2_2_numeric", "snr_2_numeric",
        "error",
        "stencil_error_pt2", "flagged_pt2",
        "stencil_error_numeric", "flagged_numeric",
    ]
    assert len(rows) == 2
    for row in rows:
        cells = row.split(",")
        assert cells[8] == ""
        assert float(cells[11]) < 1e-6 and cells[12] == "0"


def test_fig4_flags_a_small_cutoff_that_the_check_lets_through(monkeypatch):
    class Tolerant(TooFewPhotons):
        def __init__(self, params):
            super().__init__(params, check_tol=math.inf)

    monkeypatch.setattr(cli, "LambdaPeriodicModel", Tolerant)
    scenario = replace(
        parse_scenario("model:\n  kind: lambda\n"),
        model_params=LambdaParams(r=2).with_detuning(2.0),
    )
    row = cli._fig4_point(scenario)
    assert row[6] == ""
    assert row[9] > 1e-6 and row[10] == 1

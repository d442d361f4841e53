"""Command-line interface: outputs, exit codes, determinism."""

import csv
import json
import math
from importlib import resources

import numpy as np
import pytest
from click.testing import CliRunner

from photonstats.cli import main
from photonstats.counting import Method, cumulants
from photonstats.distributions import PhotonDistribution
from photonstats.models.lambda_system import LambdaParams, LambdaPeriodicModel

CUMULANTS_DOC = """
model:
  kind: jc
  eps_delta: 0.1
  omega2: 1.0
  phi2: 1.5707963267948966
  gamma: 0.01
task: Cumulants
mode: 1
"""

SCAN_DOC = """
model:
  kind: jc
  eps_delta: 0.1
  omega2: 1.0
  gamma: 0.01
task: Scan
method: AnalyticOracle
mode: 1
sweep:
  variable: eps_delta
  start: -1.0
  stop: 1.0
  points: 5
  repeat_param: phi2
  repeat_values: [0.0, 1.5707963267948966]
"""

CLOSED_DOC = """
model:
  kind: jc
  omega2: 1.0
  phi2: 1.5707963267948966
  gamma: 0.0
task: ClosedSystem
closed:
  weights: [0.5, 0.5]
  time: 10.0
  mode: 1
numerics:
  n_fft: 1024
"""

DIST_DOC = """
model:
  kind: jc
  omega2: 1.0
  gamma: 0.1
task: Distribution
distribution:
  law: gaussian
  nbar: [1000.0]
  sigma2: [100.0]
  time: 25.0
  modes: [1]
numerics:
  n_fft: 1024
"""


@pytest.fixture
def runner():
    return CliRunner()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestCumulantsCommand:
    def test_reports_flux_and_noise(self, runner, tmp_path):
        cfg = write(tmp_path, "c.yaml", CUMULANTS_DOC)
        result = runner.invoke(main, ["cumulants", "--config", cfg])
        assert result.exit_code == 0
        assert "I=" in result.output and "sigma2=" in result.output

    def test_writes_csv(self, runner, tmp_path):
        cfg = write(tmp_path, "c.yaml", CUMULANTS_DOC)
        out = tmp_path / "out"
        out.mkdir()
        result = runner.invoke(main, ["cumulants", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 0
        text = (out / "cumulants.csv").read_text()
        header = text.splitlines()[0]
        assert header == "mode,I,sigma2,snr,method,h,stencil_error"

    def test_method_override(self, runner, tmp_path):
        cfg = write(tmp_path, "c.yaml", CUMULANTS_DOC)
        result = runner.invoke(
            main, ["cumulants", "--config", cfg, "--method", "CharPoly"]
        )
        assert result.exit_code == 0
        assert "method=CharPoly" in result.output

    def test_bad_method_is_config_error(self, runner, tmp_path):
        cfg = write(tmp_path, "c.yaml", CUMULANTS_DOC)
        result = runner.invoke(
            main, ["cumulants", "--config", cfg, "--method", "Magic"]
        )
        assert result.exit_code == 2


class TestConfigErrors:
    def test_invalid_config_exits_2(self, runner, tmp_path):
        cfg = write(tmp_path, "bad.yaml", "model:\n  kind: bogus\n")
        result = runner.invoke(main, ["cumulants", "--config", cfg])
        assert result.exit_code == 2
        assert "model.kind" in result.output

    def test_distribution_with_an_invalid_fft_size_exits_2(self, runner, tmp_path):
        cfg = write(tmp_path, "bad.yaml", DIST_DOC.replace("n_fft: 1024", "n_fft: 100"))
        result = runner.invoke(main, ["distribution", "--config", cfg])
        assert result.exit_code == 2
        assert "numerics.n_fft" in result.output

    def test_missing_config_for_plain_command(self, runner):
        result = runner.invoke(main, ["cumulants"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("command, doc, method, message", [
        ("cumulants", "model:\n  kind: jc\n", "PerturbationTheory",
         "method: PerturbationTheory applies to the lambda model only"),
        ("cumulants", "model:\n  kind: lambda\nmode: bath\n", "AnalyticOracle",
         "mode: AnalyticOracle counts 1, 2, 'drive' on the lambda model, not 'bath'"),
        ("conserve", "model:\n  kind: lambda\n", "AnalyticOracle",
         "not 'bath'; conserve counts 'drive' and 'bath'"),
        ("conserve", "model:\n  kind: jc\n", "PerturbationTheory",
         "method: PerturbationTheory applies to the lambda model only"),
    ])
    def test_a_route_that_cannot_serve_the_count_exits_2(
        self, runner, tmp_path, command, doc, method, message
    ):
        cfg = write(tmp_path, "s.yaml", doc)
        result = runner.invoke(main, [command, "--config", cfg, "--method", method])
        assert result.exit_code == 2
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert message in result.output


class TestScanCommand:
    def test_csv_schema_and_rows(self, runner, tmp_path):
        cfg = write(tmp_path, "s.yaml", SCAN_DOC)
        out = tmp_path / "out"
        out.mkdir()
        result = runner.invoke(main, ["scan", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 0
        lines = (out / "scan_eps_delta.csv").read_text().splitlines()
        assert lines[0] == (
            "sweep_value,phi2,I_1,sigma2_1,snr_1,I_2,sigma2_2,snr_2,"
            "method,stencil_error,flagged,error"
        )
        assert len(lines) == 1 + 5 * 2  # grid x repeat values

    def test_determinism(self, runner, tmp_path):
        cfg = write(tmp_path, "s.yaml", SCAN_DOC)
        outputs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            out.mkdir()
            result = runner.invoke(main, ["scan", "--config", cfg, "--out", str(out)])
            assert result.exit_code == 0
            outputs.append((out / "scan_eps_delta.csv").read_bytes())
        assert outputs[0] == outputs[1]


class TestClosedCommand:
    def test_variance_matches_analytic(self, runner, tmp_path):
        cfg = write(tmp_path, "cl.yaml", CLOSED_DOC)
        out = tmp_path / "out"
        out.mkdir()
        result = runner.invoke(main, ["closed", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 0
        lines = (out / "closed.csv").read_text().splitlines()
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(row["variance"]) == pytest.approx(50.0, rel=1e-10)
        assert float(row["fft_variance"]) == pytest.approx(50.0, rel=0.01)


class TestDistributionCommand:
    def test_csv_and_metadata_sidecar(self, runner, tmp_path):
        cfg = write(tmp_path, "d.yaml", DIST_DOC)
        out = tmp_path / "out"
        out.mkdir()
        result = runner.invoke(
            main, ["distribution", "--config", cfg, "--out", str(out)]
        )
        assert result.exit_code == 0
        lines = (out / "distribution.csv").read_text().splitlines()
        assert lines[0] == "n_1,probability"
        total = sum(float(line.split(",")[1]) for line in lines[1:])
        assert total == pytest.approx(1.0, abs=1e-6)
        meta = json.loads((out / "distribution.csv.json").read_text())
        assert meta["n"] == 1024
        assert meta["expm_fallbacks"] == 0


class TestConserveCommand:
    def test_pass_line(self, runner, tmp_path):
        cfg = write(tmp_path, "c.yaml", CUMULANTS_DOC)
        result = runner.invoke(main, ["conserve", "--config", cfg])
        assert result.exit_code == 0
        assert result.output.startswith("PASS")


JC_MODEL = "model:\n  kind: jc\n"
LAMBDA_MODEL = "model:\n  kind: lambda\nmode: 2\n"
DETUNING_SWEEP = (
    "sweep:\n  variable: omega_delta\n  start: -2.0\n  stop: 2.0\n  points: 2\n"
)
FIG4_SWEEP = "sweep: fig4 takes exactly one omega_delta sweep, repeated over r if at all"


@pytest.mark.parametrize(
    "command, doc, message",
    [
        ("fig2", JC_MODEL, "sweep"),
        ("fig5", LAMBDA_MODEL, "sweep"),
        ("fig4", LAMBDA_MODEL, "sweep"),
        ("fig4", JC_MODEL + "sweep:\n  variable: gamma\n", "model.kind"),
        ("fig4", LAMBDA_MODEL + "sweep:\n  variable: gamma\n", FIG4_SWEEP),
        ("fig4", LAMBDA_MODEL + "sweeps:\n  - variable: omega_delta\n"
         "  - variable: omega_delta\n    name: again\n", FIG4_SWEEP),
        ("fig4", LAMBDA_MODEL + DETUNING_SWEEP
         + "  repeat_param: gamma\n  repeat_values: [0.1, 0.2]\n", FIG4_SWEEP),
        ("fig3", LAMBDA_MODEL, "model.kind"),
    ],
)
def test_figure_commands_refuse_bad_configurations(runner, tmp_path, command, doc,
                                                   message):
    cfg = write(tmp_path, "bad.yaml", doc)
    result = runner.invoke(main, [command, "--config", cfg, "--out", str(tmp_path)])
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert not list(tmp_path.glob("*.csv"))


# a two-mode distribution whose MGF grid rows run in worker processes
JOINT_DOC = """
model:
  kind: jc
  eps_delta: 0.1
  omega2: 1.0
  phi2: 1.5707963267948966
  gamma: 0.1
task: Distribution
distribution:
  modes: [1, 2]
  law: gaussian
  nbar: [1000.0, 1000.0]
  sigma2: [25.0, 25.0]
  time: 10.0
numerics:
  n_fft: 128
"""

# 160 points on the default route: the stacked chunks cut the grid mid-sweep
LONG_SCAN_DOC = SCAN_DOC.replace("method: AnalyticOracle\n", "").replace(
    "points: 5", "points: 80"
)


@pytest.mark.parametrize(
    "command, doc, name",
    [
        ("scan", SCAN_DOC, "scan_eps_delta.csv"),
        ("scan", LONG_SCAN_DOC, "scan_eps_delta.csv"),
        ("fig4", LAMBDA_MODEL + DETUNING_SWEEP, "fig4.csv"),
        ("distribution", JOINT_DOC, "distribution.csv"),
    ],
)
def test_worker_processes_write_the_same_bytes(runner, tmp_path, command, doc, name):
    cfg = write(tmp_path, "s.yaml", doc)
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        result = runner.invoke(
            main, [command, "--config", cfg, "--out", str(out), "--threads", threads]
        )
        assert result.exit_code == 0, result.output
        # the CSV, and a distribution's JSON sidecar
        outputs.append({path.name: path.read_bytes() for path in out.iterdir()})
    assert name in outputs[0]
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["distribution", "fig3"])
def test_fft_window_overflow_is_a_configuration_error(runner, tmp_path, command):
    doc = DIST_DOC.replace("[100.0]", "[2500.0]").replace("1024", "128")
    cfg = write(tmp_path, "d.yaml", doc)
    result = runner.invoke(main, [command, "--config", cfg, "--out", str(tmp_path)])
    assert result.exit_code == 2, result.output
    assert "numerics.n_fft" in result.stderr and "suggested N = 1024" in result.stderr
    assert not list(tmp_path.glob(f"{command}*.csv*"))


def test_fig3_writes_nothing_when_only_the_joint_window_overflows(runner, tmp_path):
    # the marginal fits N = 128; the weakly damped joint needs N = 512
    cfg = write(tmp_path, "d.yaml", DIST_DOC.replace("1024", "128"))
    result = runner.invoke(main, ["fig3", "--config", cfg, "--out", str(tmp_path)])
    assert result.exit_code == 2, result.output
    assert "suggested N = 512" in result.stderr
    assert not list(tmp_path.glob("fig3_*.csv"))
    assert not list(tmp_path.glob("fig3_*.json"))


def test_fig3_writes_the_metadata_of_every_distribution(runner, tmp_path, monkeypatch):
    # the bundled fig3 takes minutes: each distribution is a small stand-in
    def small_distribution(model, rho0, law, t, modes, n, mapper):
        offsets = tuple(np.arange(2) + 10 * mode for mode in modes)
        probabilities = np.full((2,) * len(modes), 0.5 ** len(modes))
        return PhotonDistribution(offsets, probabilities, {"time": t, "modes": list(modes)})

    monkeypatch.setattr("photonstats.distributions.reconstruct", small_distribution)
    result = runner.invoke(main, ["fig3", "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    marginal = json.loads((tmp_path / "fig3_marginal.csv.json").read_text())
    assert marginal == [{"time": t, "modes": [1]} for t in (0.0, 25.0, 50.0)]
    joint = json.loads((tmp_path / "fig3_joint.csv.json").read_text())
    assert joint == {"time": 50.0, "modes": [1, 2]}
    assert (tmp_path / "fig3_marginal.csv").read_text().splitlines() == [
        "time,n_1,probability",
        *(f"{t:.16e},{n},{0.5:.16e}" for t in (0.0, 25.0, 50.0) for n in (10, 11)),
    ]
    assert len((tmp_path / "fig3_joint.csv").read_text().splitlines()) == 1 + 4


@pytest.mark.parametrize("method", ["", "method: AnalyticOracle\n"])
def test_a_point_whose_model_cannot_be_built_gets_an_error_row(runner, tmp_path, method):
    # the model parameters refuse the grid's negative gamma values
    doc = (
        resources.files("photonstats.scenarios").joinpath("fig5.yaml").read_text()
        .replace("method: AnalyticOracle\n", method)
        .replace("variable: omega_p1\n  start: 0.0\n  stop: 320.0\n  points: 161",
                 "variable: gamma\n  start: -0.15\n  stop: 0.25\n  points: 5")
    )
    cfg = write(tmp_path, "s.yaml", doc)
    result = runner.invoke(main, ["scan", "--config", cfg, "--out", str(tmp_path)])
    assert result.exit_code == 1, result.output
    with open(tmp_path / "scan_amplitude.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10
    for row in rows:
        if float(row["sweep_value"]) < 0.0:
            assert row["error"] == "ValueError: gamma and omega_s must be nonnegative"
            assert row["I_2"] == row["flagged"] == "nan"
        else:
            assert row["error"] == "" and row["flagged"] == "0"
            assert math.isfinite(float(row["I_2"]))
    assert sum(bool(row["error"]) for row in rows) == 4


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_is_a_configuration_error(runner, tmp_path, monkeypatch, threads):
    def no_workers(*args):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr("photonstats.cli._map_points", no_workers)
    cfg = write(tmp_path, "s.yaml", SCAN_DOC)
    result = runner.invoke(main, ["scan", "--config", cfg, "--out", str(tmp_path),
                                  "--threads", threads])
    assert result.exit_code == 2, result.output
    assert f"numerics.threads: must be >= 1, got {threads}" in result.stderr
    assert not list(tmp_path.glob("*.csv"))


def test_periodic_numeric_scan_runs_the_periodic_model(runner, tmp_path):
    cfg = write(tmp_path, "s.yaml", LAMBDA_MODEL + DETUNING_SWEEP)
    result = runner.invoke(main, ["scan", "--config", cfg, "--out", str(tmp_path),
                                  "--method", "PeriodicNumeric"])
    assert result.exit_code == 0, result.output
    with open(tmp_path / "scan_omega_delta.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(row["sweep_value"]) for row in rows] == [-2.0, 2.0]
    for row in rows:
        model = LambdaPeriodicModel(LambdaParams().with_detuning(float(row["sweep_value"])))
        for mode in (1, 2):
            rep = cumulants(model, mode, method=Method.PERIODIC_NUMERIC)
            assert (float(row[f"I_{mode}"]), float(row[f"sigma2_{mode}"])) == (rep.flux, rep.noise)
        assert row["method"] == "PeriodicNumeric" and row["error"] == ""


@pytest.mark.parametrize("modes, nbar", [([2], [100.0]), ([2, 1], [100.0, 400.0])])
def test_distribution_columns_name_the_resolved_modes(runner, tmp_path, modes, nbar):
    doc = JOINT_DOC.replace("modes: [1, 2]", f"modes: {modes}").replace(
        "nbar: [1000.0, 1000.0]", f"nbar: {nbar}"
    )
    cfg = write(tmp_path, "d.yaml", doc)
    out = str(tmp_path / "d.csv")
    result = runner.invoke(main, ["distribution", "--config", cfg, "--out", out])
    assert result.exit_code == 0, result.output
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == [f"n_{m}" for m in modes] + ["probability"]
    p = np.array([float(row["probability"]) for row in rows])
    # each column's mean is its own mode's initial mean, give or take the
    # few photons that the dynamics move
    for m, mean in zip(modes, nbar):
        assert np.array([int(row[f"n_{m}"]) for row in rows]) @ p == pytest.approx(mean, abs=5.0)


def distribution_cumulants(path):
    """Total, mean, variance and third central moment of a one-mode table."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    n = np.array([int(row["n_1"]) for row in rows])
    p = np.array([float(row["probability"]) for row in rows])
    mean = float(n @ p)
    return float(p.sum()), mean, float((n - mean) ** 2 @ p), float((n - mean) ** 3 @ p)


def test_poisson_law_distribution(runner, tmp_path):
    # a coherent state of 900 photons against a Gaussian of equal mean and
    # variance: the same first two moments after the dynamics, and the
    # Poisson skewness of 900 photons^3 on top
    tables = []
    for name, law in (("poisson", "law: poisson\n  alphas: [30.0]\n"),
                      ("gaussian", "law: gaussian\n  nbar: [900.0]\n  sigma2: [900.0]\n")):
        doc = DIST_DOC.replace("law: gaussian\n  nbar: [1000.0]\n  sigma2: [100.0]\n", law)
        assert doc != DIST_DOC
        cfg = write(tmp_path, f"{name}.yaml", doc)
        out = str(tmp_path / f"{name}.csv")
        result = runner.invoke(main, ["distribution", "--config", cfg, "--out", out])
        assert result.exit_code == 0, result.output
        tables.append(distribution_cumulants(out))
    (total, mean, variance, third), (_, g_mean, g_variance, g_third) = tables
    assert total == pytest.approx(1.0, abs=1e-12)
    assert mean == pytest.approx(g_mean, rel=1e-8)
    assert variance == pytest.approx(g_variance, rel=1e-6)
    assert third - g_third == pytest.approx(900.0, rel=0.01)


def test_conserve_writes_its_csv(runner, tmp_path):
    cfg = write(tmp_path, "c.yaml", CUMULANTS_DOC)
    path = tmp_path / "ledger.csv"
    result = runner.invoke(main, ["conserve", "--config", cfg, "--out", str(path)])
    assert result.exit_code == 0, result.output
    with open(path, newline="") as fh:
        [row] = list(csv.DictReader(fh))
    assert row["status"] == "PASS"
    assert float(row["I_drive"]) == pytest.approx(-float(row["I_bath"]), rel=1e-8)
    assert float(row["sigma2_drive"]) == pytest.approx(float(row["sigma2_bath"]), rel=1e-6)
    assert float(row["flux_residual"]) == float(row["I_drive"]) + float(row["I_bath"])


def test_fig4_point_whose_model_cannot_be_built_gets_an_error_row(runner, tmp_path):
    doc = LAMBDA_MODEL + DETUNING_SWEEP + "  repeat_param: r\n  repeat_values: [-1, 1]\n"
    cfg = write(tmp_path, "s.yaml", doc)
    result = runner.invoke(main, ["fig4", "--config", cfg, "--out", str(tmp_path)])
    assert result.exit_code == 1, result.output
    with open(tmp_path / "fig4.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(row["omega_delta"], row["r"]) for row in rows] == [
        (f"{w:.16e}", r) for r in ("-1", "1") for w in (-2.0, 2.0)
    ]
    for bad in rows[:2]:
        assert bad["error"] == "ValueError: r must be a nonnegative integer"
        assert bad["I_2_numeric"] == bad["flagged_numeric"] == "nan"
    for good in rows[2:]:
        assert good["error"] == "" and math.isfinite(float(good["I_2_numeric"]))


def test_one_sweep_scan_writes_to_the_csv_path_given(runner, tmp_path):
    cfg = write(tmp_path, "s.yaml", SCAN_DOC)
    path = tmp_path / "x.csv"
    result = runner.invoke(main, ["scan", "--config", cfg, "--out", str(path)])
    assert result.exit_code == 0, result.output
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == ["x.csv"]
    assert len(path.read_text().splitlines()) == 1 + 5 * 2


@pytest.mark.parametrize("command, doc, violation", [
    ("cumulants", LAMBDA_MODEL + "method: PeriodicNumeric\nnumerics:\n  steps: 64\n",
     "numerics.steps: unknown key (allowed: n_fft, threads)"),
    ("scan", LAMBDA_MODEL + DETUNING_SWEEP + "  repeat_param: r\n  repeat_values: [0.4, 1.6]\n",
     "sweep.repeat_values: r takes integers, got [0.4, 1.6]"),
    ("fig4", LAMBDA_MODEL + DETUNING_SWEEP + "  repeat_param: r\n  repeat_values: [0.4, 1.6]\n",
     "sweep.repeat_values: r takes integers, got [0.4, 1.6]"),
    ("scan", LAMBDA_MODEL + "sweep:\n  variable: r\n  start: 1\n  stop: 2\n  points: 3\n",
     "sweep.variable: r takes integers, but the grid holds 1.5"),
    ("scan", LAMBDA_MODEL + "sweep:\n  variable: gamma\n  start: 0.1\n  stop: 1.0\n"
     "  points: 2\n  repeat_param: gamma\n  repeat_values: [0.5, 0.9]\n",
     "sweep.repeat_param: the sweep variable 'gamma' overwrites 'gamma'"),
    ("scan", LAMBDA_MODEL + DETUNING_SWEEP + "  repeat_param: omega_1\n"
     "  repeat_values: [20.0, 25.0]\n",
     "sweep.repeat_param: the sweep variable 'omega_delta' overwrites 'omega_1'"),
    ("closed", CLOSED_DOC.replace("[0.5, 0.5]", "[0.5, 0.5000000001]"),
     "closed.weights: must be nonnegative and sum to 1"),
], ids=["numerics-steps", "r-repeat", "r-repeat-fig4", "r-grid", "repeat-is-variable",
        "omega_1-repeat-under-detuning", "closed-weights"])
def test_a_document_whose_rows_would_mislead_exits_2(runner, tmp_path, command, doc,
                                                     violation):
    # each would otherwise run to values it does not label, or to a traceback
    cfg = write(tmp_path, "s.yaml", doc)
    result = runner.invoke(main, [command, "--config", cfg, "--out", str(tmp_path)])
    assert result.exit_code == 2, result.output
    assert result.stderr == f"invalid scenario:\n  - {violation}\n"
    assert not list(tmp_path.glob("*.csv"))

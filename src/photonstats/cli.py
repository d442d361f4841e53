"""Command-line interface: scenario runs and figure-data reproduction.

All commands emit deterministic CSV (17 significant digits, fixed column
order); repeated runs of the same scenario are byte-identical.  Exit codes:
0 success, 1 partial per-point failure, 2 invalid configuration.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys
from dataclasses import replace
from functools import partial
from importlib import resources

import click

from .config import (
    Scenario,
    ScenarioError,
    WindowOverflowError,
    apply_sweep_value,
    load_scenario,
    parse_scenario,
    route_violations,
)
from .counting import (
    STENCIL_FLAG_RTOL,
    Method,
    conservation_check,
    cumulants,
    cumulants_many,
)
from .models.jc import JaynesCummingsModel, jc_closed_statistics
from .models.lambda_system import LambdaModel, LambdaPeriodicModel

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_CONFIG = 2


def _fmt(x) -> str:
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return f"{x:.16e}"
    return str(x)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_distribution(path: str, header: list[str], rows: list[list], metadata) -> None:
    """A distribution table as CSV, and its metadata as the JSON sidecar
    ``path + '.json'``."""
    _write_csv(path, header, rows)
    with open(path + ".json", "w", encoding="utf-8") as fh:
        json.dump(metadata, fh, indent=2, sort_keys=True, default=str)
    click.echo(f"wrote {path} ({len(rows)} rows)")


def _model_params(scenario: Scenario):
    """The model parameters; a sweep point whose values they refused carries
    that error instead, and it is raised here."""
    if isinstance(scenario.model_params, Exception):
        raise scenario.model_params
    return scenario.model_params


def build_model(scenario: Scenario):
    params = _model_params(scenario)
    if scenario.model_kind == "jc":
        return JaynesCummingsModel(params)
    if scenario.method is Method.PERIODIC_NUMERIC:
        return LambdaPeriodicModel(params, steps=scenario.numerics.steps)
    return LambdaModel(params)


def _map_points(fn, payloads: list, threads: int):
    """``fn`` over ``payloads`` in order: in worker processes when threads > 1,
    else lazily in this process, as the builtin ``map``."""
    if threads > 1:
        # imported here: multiprocessing costs every single-process run its start-up
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, len(payloads) // (16 * threads))
        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, payloads, chunksize=chunk))
    return map(fn, payloads)


_SCAN_COLUMNS = [
    "I_1", "sigma2_1", "snr_1", "I_2", "sigma2_2", "snr_2",
    "method", "stencil_error", "flagged", "error",
]
# points per sweep chunk, whose PseudoInverse solves are stacked: fixed, so
# the bytes do not depend on --threads; small, so the stacked samples and
# their transforms (about 40 KiB per lambda point) leave the peak memory of
# a sweep flat, and far below the 256-entry Bessel-factor cache of the
# lambda model
_CHUNK = 16


def _scan_row(method: Method, outcome) -> tuple:
    """Both drive modes' values, then provenance and the error cell."""
    if isinstance(outcome, Exception):
        return (math.nan,) * 6 + (
            method.value, math.nan, math.nan, f"{type(outcome).__name__}: {outcome}"
        )
    values = []
    for rep in outcome:
        values.extend([rep.flux, rep.noise, rep.snr])
    err = max(rep.stencil_error for rep in outcome)
    return tuple(values) + (method.value, err, int(err > STENCIL_FLAG_RTOL), "")


def _scan_rows(chunk: list[Scenario]) -> list[tuple]:
    """Worker: one row per point of a chunk; a point whose model cannot be
    built or whose cumulants fail is recorded, and the chunk continues."""
    method = chunk[0].method
    built, models = [], []
    for scenario in chunk:
        try:
            models.append(build_model(scenario))
            built.append(None)
        except Exception as exc:  # recorded per point
            built.append(exc)
    reports = iter(cumulants_many(models, (1, 2), method))
    return [_scan_row(method, next(reports) if exc is None else exc) for exc in built]


def _run_sweep(scenario: Scenario, sweep, path: str, rows_of, header: list[str],
               key) -> bool:
    """Write one sweep's CSV; True when some point failed.

    Every grid value, repeated for each repeat value, is one row:
    ``key(x, repeat_value, params)`` and then the values that
    ``rows_of(chunk)`` returns for the scenario with that row's model
    parameters (or the error that refused them), where the grid is cut into
    chunks of ``_CHUNK`` points.  A nonempty ``error`` cell marks a failed
    point.
    """
    grid = []
    for rv in sweep.repeat_values or (None,):
        for x in sweep.grid():
            try:
                params = scenario.model_params
                if rv is not None:
                    params = apply_sweep_value(params, sweep.repeat_param, rv)
                grid.append((x, rv, apply_sweep_value(params, sweep.variable, x)))
            except ValueError as exc:  # recorded in the point's row
                grid.append((x, rv, exc))
    payloads = [replace(scenario, model_params=params) for _, _, params in grid]
    chunks = [payloads[i:i + _CHUNK] for i in range(0, len(payloads), _CHUNK)]
    results = [
        row for rows in _map_points(rows_of, chunks, scenario.numerics.threads)
        for row in rows
    ]
    rows = [key(x, rv, params) + list(res) for (x, rv, params), res in zip(grid, results)]
    _write_csv(path, header, rows)
    click.echo(f"wrote {path} ({len(rows)} rows)")
    col = header.index("error")
    return any(row[col] for row in rows)


def _sweep_output_path(scenario: Scenario, sweep, out_override: str | None,
                       prefix: str) -> str:
    base = out_override or scenario.output or "."
    if base.endswith(".csv") and len(scenario.sweeps) <= 1:
        return base
    root = base[:-4] if base.endswith(".csv") else os.path.join(base, prefix)
    return f"{root}_{sweep.name}.csv"


def _single_output_path(
    out_override: str | None, scenario_output: str | None, default_name: str
) -> str | None:
    """Resolve one CSV path; a directory target gets the default file name."""
    base = out_override or scenario_output
    if base is None:
        return None
    if os.path.isdir(base) or not base.endswith(".csv"):
        return os.path.join(base, default_name)
    return base


@click.group()
def main() -> None:
    """Photon counting statistics of driven dissipative quantum systems."""


def _command(name: str, default_resource: str | None = None, kind: str | None = None,
             sweep: bool = False):
    """Register ``body(scenario, out)`` as the command ``name``; it returns
    the exit code.

    The command takes the shared options and loads its scenario, with the
    ``--method`` and ``--threads`` flags merged in, from ``--config`` or
    else the bundled ``default_resource``; a model of another kind than
    ``kind``, or a scenario without a sweep when ``sweep`` is set, is
    refused.  Configuration errors exit 2 with their message on stderr.
    An FFT window too small for the distribution's support is one of them:
    ``numerics.n_fft`` sets it, and the message suggests a sufficient size.
    """
    def register(body):
        def run(config, out, threads, method):
            try:
                if config:
                    scenario = load_scenario(config, method=method, threads=threads)
                elif default_resource:
                    text = (
                        resources.files("photonstats.scenarios")
                        .joinpath(default_resource)
                        .read_text(encoding="utf-8")
                    )
                    scenario = parse_scenario(text, method=method, threads=threads)
                else:
                    raise click.UsageError("--config is required for this command")
                if kind and scenario.model_kind != kind:
                    raise ScenarioError([f"model.kind: {name} needs the {kind!r} model"])
                if sweep and not scenario.sweeps:
                    raise ScenarioError(["sweep: this command requires a sweep specification"])
                code = body(scenario, out)
            except (ScenarioError, click.UsageError) as exc:
                message = str(exc)
            except WindowOverflowError as exc:
                message = f"numerics.n_fft: {exc}"
            else:
                sys.exit(code)
            click.echo(message, err=True)
            sys.exit(EXIT_CONFIG)

        run.__doc__ = body.__doc__
        for option in (
            click.option("--method", type=str, default=None),
            click.option("--threads", type=int, default=None),
            click.option("--out", type=click.Path(), default=None),
            click.option("--config", type=click.Path(exists=True, dir_okay=False), default=None),
        ):
            run = option(run)
        main.command(name)(run)
        return body

    return register


@_command("cumulants")
def _cumulants(scenario: Scenario, out) -> int:
    """Flux and noise of one counted channel."""
    model = build_model(scenario)
    rep = cumulants(model, scenario.mode, method=scenario.method)
    header = ["mode", "I", "sigma2", "snr", "method", "h", "stencil_error"]
    row = [rep.mode, rep.flux, rep.noise, rep.snr, rep.method.value, rep.h,
           rep.stencil_error]
    path = _single_output_path(out, scenario.output, "cumulants.csv")
    if path:
        _write_csv(path, header, [row])
    click.echo(
        f"mode={rep.mode} I={_fmt(rep.flux)} sigma2={_fmt(rep.noise)} "
        f"snr={_fmt(rep.snr)} method={rep.method.value}"
    )
    return EXIT_PARTIAL if rep.flagged else EXIT_OK


def _sweep_command(name: str, default_resource: str | None, doc: str) -> None:
    """Register scan, fig2 or fig5: every sweep through :func:`_scan_rows`."""
    def body(scenario: Scenario, out) -> int:
        failed = False
        for sweep in scenario.sweeps:
            header = ["sweep_value"] + ([sweep.repeat_param] if sweep.repeat_param else [])
            path = _sweep_output_path(scenario, sweep, out, name)
            failed |= _run_sweep(
                scenario, sweep, path, _scan_rows, header + _SCAN_COLUMNS,
                lambda x, rv, params: [x] if rv is None else [x, rv],
            )
        return EXIT_PARTIAL if failed else EXIT_OK

    body.__doc__ = doc
    _command(name, default_resource, sweep=True)(body)


_sweep_command("scan", None, "Cumulant reports over a parameter sweep.")
_sweep_command("fig2", "fig2.yaml",
               "Probe-flux/noise sweeps (detuning, amplitude, gamma) x three phases.")
_sweep_command("fig5", "fig5.yaml", "Signal-mode statistics vs pump-modulation amplitude.")


def _table(dist) -> tuple[list[str], list[list]]:
    """Header and rows of a distribution table: the photon numbers of the
    resolved modes, in their order, then their probability."""
    header = [f"n_{m}" for m in dist.metadata["modes"]] + ["probability"]
    numbers = itertools.product(*(list(map(int, offsets)) for offsets in dist.offsets))
    rows = [[*ns, p] for ns, p in zip(numbers, dist.probabilities.ravel().tolist())]
    return header, rows


@_command("distribution")
def _distribution(scenario: Scenario, out) -> int:
    """Photon-number distribution of the resolved drive modes."""
    from .distributions import GaussianLaw, PoissonLaw, reconstruct

    model = build_model(scenario)
    spec = scenario.distribution
    if spec.law == "poisson":
        law = PoissonLaw(spec.alphas[: len(spec.modes)])
    else:
        law = GaussianLaw(
            spec.nbar[: len(spec.modes)], spec.sigma2[: len(spec.modes)]
        )
    dist = reconstruct(
        model,
        model.stationary_vector(),
        law,
        spec.time,
        spec.modes,
        scenario.numerics.n_fft,
        partial(_map_points, threads=scenario.numerics.threads),
    )
    path = _single_output_path(out, scenario.output, "distribution.csv") or "distribution.csv"
    _write_distribution(path, *_table(dist), dist.metadata)
    return EXIT_OK


@_command("closed", kind="jc")
def _closed(scenario: Scenario, out) -> int:
    """Closed-system (lossless) photon statistics from quasienergy branches."""
    from .distributions import closed_mgf, reconstruct_from_mgf

    p = scenario.model_params
    spec = scenario.closed
    mean, variance = jc_closed_statistics(p, spec.weights, spec.mode, spec.time)
    dist = reconstruct_from_mgf(
        lambda chi: closed_mgf(
            p,
            spec.weights,
            (chi[0], 0.0) if spec.mode == 1 else (0.0, chi[0]),
            spec.time,
        ),
        1,
        scenario.numerics.n_fft,
        signed=True,
    )
    header = [
        "time", "mode", "mean", "variance", "fft_mean", "fft_variance",
        "clipped_mass",
    ]
    row = [
        spec.time, spec.mode, mean, variance,
        dist.mean(0), dist.variance(0),
        float(dist.metadata["clipped_mass"]),
    ]
    path = _single_output_path(out, scenario.output, "closed.csv")
    if path:
        _write_csv(path, header, [row])
    click.echo(
        f"mean={_fmt(mean)} variance={_fmt(variance)} "
        f"fft_mean={_fmt(dist.mean(0))} fft_variance={_fmt(dist.variance(0))}"
    )
    return EXIT_OK


@_command("conserve")
def _conserve(scenario: Scenario, out) -> int:
    """Drive-vs-bath photon-ledger consistency check."""
    refused = route_violations(scenario.model_kind, scenario.method, ("drive", "bath"))
    if refused:
        raise ScenarioError([f"{v}; conserve counts 'drive' and 'bath'" for v in refused])
    model = build_model(scenario)
    rep = conservation_check(model, method=scenario.method)
    status = "PASS" if rep.passed else "FAIL"
    worst = max(abs(rep.flux_residual), abs(rep.noise_residual))
    line = (
        f"{status} max_violation={_fmt(worst)} "
        f"flux_residual={_fmt(rep.flux_residual)} "
        f"noise_residual={_fmt(rep.noise_residual)}"
    )
    click.echo(line)
    path = _single_output_path(out, scenario.output, "conserve.csv")
    if path:
        _write_csv(
            path,
            ["status", "flux_residual", "noise_residual", "I_drive", "I_bath",
             "sigma2_drive", "sigma2_bath"],
            [[status, rep.flux_residual, rep.noise_residual, rep.drive.flux,
              rep.bath.flux, rep.drive.noise, rep.bath.noise]],
        )
    return EXIT_OK if rep.passed else EXIT_PARTIAL


@_command("fig3", "fig3.yaml", kind="jc")
def _fig3(scenario: Scenario, out) -> int:
    """Photon-number distributions of the probe mode and the joint pair."""
    from .distributions import GaussianLaw, reconstruct

    spec = scenario.distribution
    n = scenario.numerics.n_fft
    mapper = partial(_map_points, threads=scenario.numerics.threads)
    base = scenario.model_params
    # (b): single-mode marginal at phi = 0, strong dissipation
    model_b = JaynesCummingsModel(
        apply_sweep_value(apply_sweep_value(base, "phi2", 0.0), "gamma", 0.1)
    )
    law1 = GaussianLaw((spec.nbar[0],), (spec.sigma2[0],))
    marginal, marginal_metadata = [], []
    for t in (0.0, 25.0, 50.0):
        dist = reconstruct(model_b, model_b.stationary_vector(), law1, t, (1,), n, mapper)
        marginal += [[t] + row for row in _table(dist)[1]]
        marginal_metadata.append(dist.metadata)
    # (c): joint distribution at phi = pi/2, weak dissipation
    model_c = JaynesCummingsModel(
        apply_sweep_value(apply_sweep_value(base, "phi2", math.pi / 2), "gamma", 0.001)
    )
    law2 = GaussianLaw((spec.nbar[0],) * 2, (spec.sigma2[0],) * 2)
    joint = reconstruct(model_c, model_c.stationary_vector(), law2, 50.0, (1, 2), n, mapper)
    # both windows fit (else WindowOverflowError above): only now write
    out_dir = out or scenario.output or "."
    os.makedirs(out_dir, exist_ok=True)
    tables = [("fig3_marginal.csv", ["time", "n_1", "probability"], marginal, marginal_metadata),
              ("fig3_joint.csv", *_table(joint), joint.metadata)]
    for name, header, rows, metadata in tables:
        _write_distribution(os.path.join(out_dir, name), header, rows, metadata)
    return EXIT_OK


@_command("fig4", "fig4.yaml", kind="lambda", sweep=True)
def _fig4(scenario: Scenario, out) -> int:
    """Signal-mode flux vs detuning: closed-form PT next to Sambe-space numerics."""
    [sweep, *others] = scenario.sweeps
    if others or sweep.variable != "omega_delta" or sweep.repeat_param not in (None, "r"):
        raise ScenarioError(["sweep: fig4 takes exactly one omega_delta sweep, "
                             "repeated over r if at all"])
    path = _single_output_path(out, scenario.output, "fig4.csv") or "fig4.csv"
    # r is the repeat value, also in the row of a point that it made invalid
    failed = _run_sweep(
        scenario, sweep, path, _fig4_rows, _FIG4_HEADER,
        lambda x, rv, params: [x, getattr(params, "r", math.nan) if rv is None
                               else int(round(rv))],
    )
    return EXIT_PARTIAL if failed else EXIT_OK


_FIG4_HEADER = [
    "omega_delta", "r",
    "I_2_pt2", "sigma2_2_pt2", "snr_2_pt2",
    "I_2_numeric", "sigma2_2_numeric", "snr_2_numeric",
    "error",
    "stencil_error_pt2", "flagged_pt2",
    "stencil_error_numeric", "flagged_numeric",
]


def _fig4_point(scenario: Scenario):
    """One fig4 row after (omega_delta, r): the values, error, then provenance."""
    try:
        params = _model_params(scenario)
        pt = cumulants(LambdaModel(params), 2, method=Method.ANALYTIC_ORACLE)
        num = cumulants(LambdaPeriodicModel(params), 2, method=Method.PSEUDO_INVERSE)
    except Exception as exc:
        return (math.nan,) * 6 + (f"{type(exc).__name__}: {exc}",) + (math.nan,) * 4
    return (
        pt.flux, pt.noise, pt.snr, num.flux, num.noise, num.snr, "",
        pt.stencil_error, int(pt.flagged), num.stencil_error, int(num.flagged),
    )


def _fig4_rows(chunk: list[Scenario]) -> list[tuple]:
    return [_fig4_point(scenario) for scenario in chunk]


if __name__ == "__main__":
    main()

"""The checkers count an injected error in a copy of real output as a failure.

Each test runs the CLI in-process on a reduced version of a workload's
inputs, checks the untouched output, then perturbs a copy of it.
"""

import csv
import os
import shutil

import numpy as np
from click.testing import CliRunner

import workloads
from photonstats.cli import main as cli_main


def _run(workload, tmp_path):
    indir, outdir = tmp_path / "in", tmp_path / "out"
    indir.mkdir()
    workload.write_inputs(str(indir))
    workload.prepare()
    for args in workload.commands(str(indir), str(outdir)):
        result = CliRunner().invoke(cli_main, args)
        assert result.exit_code in (0, 1), result.output
    return str(outdir)


def _perturbed_copy(outdir, relpath, edit, suffix="perturbed"):
    """Copy outdir and apply edit(rows) to one CSV file of the copy."""
    copy = f"{outdir}_{suffix}"
    shutil.copytree(outdir, copy)
    path = os.path.join(copy, relpath)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header, rows = reader.fieldnames, list(reader)
    edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return copy


def _scale(rows, index, column, factor):
    rows[index][column] = repr(float(rows[index][column]) * factor)


def _reduced_static_sweep(tmp_path):
    wl = workloads.StaticSweep(seed=5)
    jc = wl.scenarios["jc"]
    jc["sweeps"] = [dict(s, points=4) for s in jc["sweeps"]]
    fixed, seeded = wl.scenarios["lambda"]["sweeps"]
    seeded["points"] = 4
    outdir = _run(wl, tmp_path)
    clean = wl.check(outdir)
    # the fixed fig5 point 0.01 of a step above omega_p1 = 0 fails for r = 2
    assert (clean.attempted, clean.failed, clean.structural) == (48, 1, [])
    assert clean.misses == {"sigma2_2": 1}
    return wl, outdir


def test_static_sweep_checker_counts_perturbed_points(tmp_path):
    wl, outdir = _reduced_static_sweep(tmp_path)
    _, rows = workloads.read_csv(os.path.join(outdir, "jc", "scan_detuning.csv"))
    noisiest = int(np.argmax([abs(float(r["sigma2_1"])) for r in rows]))
    brightest = int(np.argmax([abs(float(r["I_2"])) for r in rows]))
    assert noisiest != brightest

    def edit(rows):
        _scale(rows, noisiest, "sigma2_1", 1.01)
        _scale(rows, brightest, "I_2", 1.0 + 1e-5)

    bad = wl.check(_perturbed_copy(outdir, os.path.join("jc", "scan_detuning.csv"), edit))
    assert bad.failed == 3
    assert bad.misses == {"sigma2_1": 1, "I_2": 1, "sigma2_2": 1}


def test_static_sweep_floor_leaves_small_values_checked(tmp_path):
    wl, outdir = _reduced_static_sweep(tmp_path)
    _, rows = workloads.read_csv(os.path.join(outdir, "jc", "scan_gamma.csv"))
    # the large-gamma end of the quadrature sweep: its noise is ~1e-4 of the
    # sweep maximum, so the absolute floor is largest relative to the value
    quadrature = [k for k, r in enumerate(rows) if abs(float(r["phi2"]) - np.pi / 2) < 1e-12]
    quietest = min(quadrature, key=lambda k: abs(float(rows[k]["sigma2_1"])))
    loudest = max(abs(float(rows[k]["sigma2_1"])) for k in quadrature)
    assert abs(float(rows[quietest]["sigma2_1"])) < 1e-3 * loudest

    bad = wl.check(_perturbed_copy(
        outdir, os.path.join("jc", "scan_gamma.csv"),
        lambda rows: _scale(rows, quietest, "sigma2_1", 1.02)))
    assert bad.failed == 2
    assert bad.misses == {"sigma2_1": 1, "sigma2_2": 1}


def test_floquet_checker_counts_perturbed_points(tmp_path):
    wl = workloads.FloquetPeriodic(seed=0)
    wl.scenario["sweep"] = dict(wl.scenario["sweep"], stop=-1.9, repeat_values=[2])
    outdir = _run(wl, tmp_path)
    shipped = wl.check(outdir)
    # the PeriodicNumeric noise column misses reference (b) at every point
    assert (shipped.attempted, shipped.failed) == (2, 2)
    assert shipped.misses == {"sigma2_2_numeric": 2}

    def with_reference_noise(rows):
        for row, ref in zip(rows, wl.refs):
            row["sigma2_2_numeric"] = repr(ref[7])

    repaired = _perturbed_copy(outdir, "fig4.csv", with_reference_noise, "repaired")
    assert wl.check(repaired).failed == 0

    def edit(rows):
        with_reference_noise(rows)
        _scale(rows, 0, "sigma2_2_pt2", 1.01)
        _scale(rows, 1, "I_2_numeric", 1.0 + 1e-5)

    bad = wl.check(_perturbed_copy(outdir, "fig4.csv", edit))
    assert bad.failed == 2
    assert bad.misses == {"sigma2_2_pt2": 1, "I_2_numeric": 1}


def test_joint_checker_counts_moved_probability_mass(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "JOINT_N", 128)
    wl = workloads.JointDistribution(seed=0)
    wl.scenario["numerics"]["n_fft"] = 128
    wl.scenario["distribution"]["time"] = 2.0
    outdir = _run(wl, tmp_path)
    clean = wl.check(outdir)
    assert (clean.attempted, clean.failed, clean.misses) == (1, 0, {})

    def edit(rows):
        probs = [float(r["probability"]) for r in rows]
        top = int(np.argmax(probs))
        rows[top]["probability"] = "0.0"
        target = top + 8 * 128  # eight photons further in mode 1
        rows[target]["probability"] = repr(float(rows[target]["probability"]) + probs[top])

    bad = wl.check(_perturbed_copy(outdir, "joint.csv", edit))
    assert bad.failed == 1
    assert "table_variance_1" in bad.misses

"""Importing the package, running the default cumulant route (on the periodic
model's Sambe generator too) and the analytic oracle load no scipy; the CLI
import leaves multiprocessing out, and the Sambe route leaves numpy.ma out.
A sweep chunk and the fig4 routes leave out the modules that only the
distributions and the stencil routes use."""

import os
import subprocess
import sys

import photonstats

SCRIPT = """
import sys

import photonstats.cli
assert "concurrent.futures.process" not in sys.modules
from photonstats.config import parse_scenario
from photonstats.counting import Method, cumulants
from photonstats.models.jc import JaynesCummingsModel, JcParams
from photonstats.models.lambda_system import LambdaModel, LambdaParams, LambdaPeriodicModel

UNUSED = ("photonstats.distributions", "photonstats.perturbation", "photonstats.numdiff")
for kind in ("jc", "lambda"):
    scenario = parse_scenario("{model: {kind: %s}, sweep: {variable: gamma}}" % kind)
    rows = photonstats.cli._scan_rows([scenario] * 3)
    assert len(rows) == 3 and not any(row[-1] for row in rows)
assert not [name for name in UNUSED if name in sys.modules]
cumulants(JaynesCummingsModel(JcParams()), 1)
cumulants(LambdaModel(LambdaParams()), 2)
cumulants(LambdaPeriodicModel(LambdaParams()), 2, method=Method.PSEUDO_INVERSE)
assert "numpy.ma" not in sys.modules
cumulants(LambdaModel(LambdaParams()), 2, method=Method.ANALYTIC_ORACLE)
assert not [name for name in UNUSED if name in sys.modules]
print(sorted(name for name in sys.modules if name.startswith("scipy")))
"""


def test_default_route_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(photonstats.__file__)))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    run = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.strip() == "[]"

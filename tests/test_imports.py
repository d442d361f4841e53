"""Importing the package, running the default cumulant route (on the periodic
model's Sambe generator too) and the analytic oracle load no scipy; the CLI
import leaves multiprocessing out, and the Sambe route leaves numpy.ma out."""

import os
import subprocess
import sys

import photonstats

SCRIPT = """
import sys

import photonstats.cli
assert "concurrent.futures.process" not in sys.modules
from photonstats.counting import Method, cumulants
from photonstats.models.jc import JaynesCummingsModel, JcParams
from photonstats.models.lambda_system import LambdaModel, LambdaParams, LambdaPeriodicModel

cumulants(JaynesCummingsModel(JcParams()), 1)
cumulants(LambdaModel(LambdaParams()), 2)
cumulants(LambdaPeriodicModel(LambdaParams()), 2, method=Method.PSEUDO_INVERSE)
assert "numpy.ma" not in sys.modules
cumulants(LambdaModel(LambdaParams()), 2, method=Method.ANALYTIC_ORACLE)
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

"""Importing the package and running the default cumulant route load no scipy."""

import os
import subprocess
import sys

import photonstats

SCRIPT = """
import sys

import photonstats.cli
from photonstats.counting import cumulants
from photonstats.models.jc import JaynesCummingsModel, JcParams
from photonstats.models.lambda_system import LambdaModel, LambdaParams

cumulants(JaynesCummingsModel(JcParams()), 1)
cumulants(LambdaModel(LambdaParams()), 2)
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

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cmtheta
from cmtheta.harness import HarnessEnv, SuiteConfig


@pytest.fixture(scope="session")
def env():
    return HarnessEnv(SuiteConfig())


@pytest.fixture(scope="session")
def ctx(env):
    return env.ctx


@pytest.fixture(scope="session")
def settings(env):
    return env.settings


@pytest.fixture(scope="session")
def optimized():
    """The outcome of every probe in optimized_probes.py, from one `python -O` run on this source tree.

    It is the one interpreter a Tier-1 test run starts: the input checks that must survive -O, the CLI checks
    and the import facts test_layout.py reads all come from it, one test per probe.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(cmtheta.__file__).resolve().parents[1]))
    script = Path(__file__).with_name("optimized_probes.py")
    proc = subprocess.run([sys.executable, "-O", str(script)], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    outcomes = json.loads(proc.stdout)
    assert outcomes.pop("optimize") == 1, "the probes ran without -O"
    return outcomes

"""Smoke runs of the scripts in scripts/: each must import the package and
finish cleanly on its smallest input."""

import pathlib
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).parents[1] / "scripts"


@pytest.mark.parametrize(
    "argv",
    [
        ["covariance_survey.py", "--d", "2", "--n", "1"],
        ["negativity_census.py", "--n", "1"],
    ],
)
def test_script_runs(argv):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout

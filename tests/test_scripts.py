"""Smoke runs of the scripts in scripts/: each must import the package and
finish cleanly on its smallest input; and the golden check must see drift."""

import importlib.util
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
        # every golden still matches the CLI, and nothing is written
        ["regen_goldens.py", "--check"],
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


def test_regen_check_lists_a_drifted_golden(tmp_path, monkeypatch, capsys):
    # a copy of the goldens with one file changed: --check names it, exits
    # 1 and leaves every file as it was
    spec = importlib.util.spec_from_file_location("regen_goldens", SCRIPTS / "regen_goldens.py")
    regen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen)
    for path in regen.GOLDEN_DIR.iterdir():
        (tmp_path / path.name).write_bytes(path.read_bytes())
    drifted = tmp_path / "witness_chsh.json"
    drifted.write_text(drifted.read_text().replace("chsh", "CHSH", 1))
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    monkeypatch.setattr(regen, "GOLDEN_DIR", tmp_path)
    monkeypatch.chdir(tmp_path)
    assert regen.main_script(["--check"]) == 1
    assert "drifted: witness_chsh.json" in capsys.readouterr().out.splitlines()
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

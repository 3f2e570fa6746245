"""Negative controls: every correctness check must fire on a corrupted
output, and a fired check must count as a failed operation."""

import json
import pathlib
from fractions import Fraction

import pytest

import checks
import run
import workloads

ROOT = pathlib.Path(__file__).resolve().parents[2]
GOLDEN = ROOT / "tests" / "golden" / "witness_chsh.json"


@pytest.fixture(scope="module")
def schemas():
    return checks.SchemaBook(ROOT / "docs" / "schemas")


def _flip_one_byte(text: str, at: int) -> str:
    data = bytearray(text.encode())
    data[at] ^= 0x01
    return data.decode()


def test_golden_passes_as_is(schemas):
    golden = GOLDEN.read_text()
    assert checks.check_cli_report(0, golden, 0, schemas, golden) is None


@pytest.mark.parametrize("at", [0, 100, -2])
def test_golden_with_one_byte_flipped_fails(schemas, at):
    golden = GOLDEN.read_text()
    corrupted = _flip_one_byte(golden, at % len(golden))
    reason = checks.check_cli_report(0, corrupted, 0, schemas, golden)
    assert reason is not None and "pinned" in reason


def test_wrong_exit_code_fails(schemas):
    golden = GOLDEN.read_text()
    assert "exit code" in checks.check_cli_report(1, golden, 0, schemas, golden)


def test_schema_violation_fails(schemas):
    doc = json.loads(GOLDEN.read_text())
    doc["passed"] = "yes"
    assert "schema" in checks.check_cli_report(0, json.dumps(doc), 0, schemas)


def test_report_verdict_inverted_fails(schemas):
    doc = json.loads(GOLDEN.read_text())
    doc["passed"] = False
    assert "verdict" in checks.check_cli_report(0, json.dumps(doc), 0, schemas, verdict=True)


def test_expected_exit_follows_the_verdict_field():
    for path in (ROOT / "tests" / "golden").glob("*.json"):
        doc = json.loads(path.read_text())
        assert checks.expected_exit(doc) in (0, 1)
    assert checks.expected_exit(json.loads(GOLDEN.read_text())) == 0


def test_deviation_past_tolerance_fails():
    assert checks.check_deviation(0.0) is None
    assert checks.check_deviation(1e-9) is None
    assert checks.check_deviation(1e-9 * (1 + 1e-6)) is not None
    assert checks.check_deviation(float("nan")) is not None


def test_inexact_distribution_fails():
    assert checks.check_exact_distribution({(0,): Fraction(1, 2), (1,): Fraction(1, 2)}) is None
    assert checks.check_exact_distribution({(0,): Fraction(1, 2), (1,): Fraction(1, 3)})
    assert checks.check_exact_distribution({(0,): 0.5, (1,): 0.5000001})


def test_support_size_mismatch_fails():
    from spektoy import toy_model as toy

    state = toy.maximally_mixed(2, 1)
    assert checks.check_support(state) is None
    short = toy.EpistemicState(state.V, state.w, state.support[:-1])
    assert checks.check_support(short) is not None


def _pinned(fname):
    return (workloads.REFERENCE_DIR / fname).read_text()


def _inverted(text: str) -> str:
    doc = json.loads(text)
    doc["passed"] = not doc["passed"]
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("fname", sorted(workloads.REFERENCE_INVOCATIONS))
def test_pinned_certificate_passes_as_is(schemas, fname):
    ref = _pinned(fname)
    code = checks.expected_exit(json.loads(ref))
    assert checks.check_cli_report(code, ref, code, schemas, ref) is None


@pytest.mark.parametrize("fname", sorted(workloads.REFERENCE_INVOCATIONS))
def test_certificate_verdict_inverted_fails(schemas, fname):
    ref = _pinned(fname)
    code = checks.expected_exit(json.loads(ref))
    inverted = _inverted(ref)
    # the verdict flips in the report bytes, with or without its exit code
    assert "pinned" in checks.check_cli_report(code, inverted, code, schemas, ref)
    assert "exit code" in checks.check_cli_report(1 - code, inverted, code, schemas, ref)


def test_the_failing_candidate_is_pinned_as_failing():
    doc = json.loads(_pinned("subtheory_full_qubit_n1.json"))
    assert doc["passed"] is False and checks.expected_exit(doc) == 1


def test_failed_check_counts_as_failed_operation():
    ops = [
        workloads.Op("good", lambda: 0.0, checks.check_deviation),
        workloads.Op("bad", lambda: 2e-9, checks.check_deviation),
        workloads.Op("raises", lambda: 1 / 0, checks.check_deviation),
    ]
    records = run.run_pass(ops)
    reasons = {label: reason for label, _, reason in records}
    assert reasons["good"] is None
    assert "exceeds" in reasons["bad"]
    assert "ZeroDivisionError" in reasons["raises"]
    assert len(records) == 3  # nothing dropped, nothing retried

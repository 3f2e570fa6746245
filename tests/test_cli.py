import contextlib
import io
import itertools
import json
import math
import pathlib
from dataclasses import asdict
from fractions import Fraction

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spektoy import wigner as wg
from spektoy.cli import RunConfig, build_parser, emit, main

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
PINNED_DIR = pathlib.Path(__file__).parent / "pinned"
SCHEMA_DIR = pathlib.Path(__file__).parents[1] / "docs" / "schemas"


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


GOLDEN_CASES = {
    "wigner_factorisable_zero.json": (
        ["wigner", "--state", "+Z", "--spec", "factorisable-rebit"], 0),
    "wigner_factorisable_plus.json": (
        ["wigner", "--state", "+X", "--spec", "factorisable-rebit"], 0),
    "wigner_factorisable_bell.json": (
        ["wigner", "--state", "+XX,+ZZ", "--spec", "factorisable-rebit"], 0),
    "wigner_factorisable_tplus.json": (
        ["wigner", "--state", "T|+>", "--spec", "factorisable-rebit"], 1),
    "wigner_delfosse_zero.json": (
        ["wigner", "--state", "+Z", "--spec", "delfosse-rebit"], 0),
    "wigner_delfosse_plus.json": (
        ["wigner", "--state", "+X", "--spec", "delfosse-rebit"], 0),
    "wigner_delfosse_bell.json": (
        ["wigner", "--state", "+XX,+ZZ", "--spec", "delfosse-rebit"], 0),
    "wigner_delfosse_czpp.json": (
        ["wigner", "--state", "CZ|++>", "--spec", "delfosse-rebit"], 1),
    "wigner_gross_zero.json": (
        ["wigner", "--state", "+Z", "--spec", "gross", "--d", "3"], 0),
    "wigner_gross_plus.json": (
        ["wigner", "--state", "+X", "--spec", "gross", "--d", "3"], 0),
    "wigner_gross_bell.json": (
        ["wigner", "--state", "X1X1,Z1Z2", "--spec", "gross", "--d", "3"], 0),
    "witness_chsh.json": (["witness", "chsh"], 0),
    "witness_ghz.json": (["witness", "ghz"], 0),
    "witness_peres_mermin.json": (["witness", "peres-mermin"], 0),
    "witness_peres_mermin_s.json": (["witness", "peres-mermin-s"], 0),
    "inject_s_plus.json": (["inject", "--gate", "S", "--input", "+"], 0),
    "inject_cz_pp.json": (["inject", "--gate", "CZ", "--input", "++"], 0),
    "inject_ccz_ppp.json": (["inject", "--gate", "CCZ", "--input", "+++"], 0),
    "subtheory_minimal_n2.json": (
        ["subtheory", "verify", "minimal-rebit", "--n", "2"], 0),
    # the only CLI path through the parity blocks and in-place CZ injection
    "witness_peres_mermin_input.json": (
        ["witness", "peres-mermin", "--input", "++"], 0),
    # README's bell.circ, stored beside the goldens; run from that directory
    # so the echoed circuit_file does not depend on where the suite runs
    "equivalence_bell.json": (
        ["equivalence", "--circuit", "bell.circ", "--host", "minimal-rebit"], 0),
    # the failing certificate: S(0) has no covariance witness (exhaustive)
    "subtheory_full_qubit_n1.json": (
        ["subtheory", "verify", "full-qubit-stabilizer", "--n", "1"], 1),
    # the non-Clifford correction path: T's X-branch correction (X + Y)/sqrt(2)
    "inject_t_plus.json": (["inject", "--gate", "T", "--input", "+"], 0),
    # the passing certificates of the maximal rebit subtheory (global
    # Hadamard included) and of odd-d stabilizer mechanics
    "subtheory_css_n2.json": (["subtheory", "verify", "css-rebit", "--n", "2"], 0),
    "subtheory_qudit_d3_n1.json": (
        ["subtheory", "verify", "qudit-stabilizer", "--n", "1", "--d", "3"], 0),
}


@pytest.mark.parametrize("fname", sorted(GOLDEN_CASES))
def test_golden(fname, monkeypatch):
    monkeypatch.chdir(GOLDEN_DIR)
    argv, expected_code = GOLDEN_CASES[fname]
    golden = (GOLDEN_DIR / fname).read_text()
    for _ in range(2):  # the second run in this process reuses the parser
        code, text = run_cli(list(argv))
        assert code == expected_code
        assert text == golden, f"output drifted from {fname}"


def _schema_validators():
    validators = {}
    for path in sorted(SCHEMA_DIR.glob("*.schema.json")):
        schema = json.loads(path.read_text())
        cls = jsonschema.validators.validator_for(schema)
        cls.check_schema(schema)
        validators[schema["$id"]] = cls(schema)
    return validators


def test_every_golden_validates_against_its_schema():
    # test_golden pins each golden to the CLI's stdout byte for byte, so
    # validating the goldens validates the CLI output
    validators = _schema_validators()
    kinds = set()
    for fname in sorted(GOLDEN_CASES):
        doc = json.loads((GOLDEN_DIR / fname).read_text())
        errors = [e.message for e in validators[doc["schema"]].iter_errors(doc)]
        assert not errors, f"{fname}: {errors[:3]}"
        kinds.add(doc["schema"])
    assert kinds == set(validators), "some report kind has no golden"


def test_determinism_byte_identical_repeat_runs():
    for argv in (
        ["witness", "chsh"],
        ["wigner", "--state", "+XX,+ZZ", "--spec", "delfosse-rebit"],
        ["inject", "--gate", "CZ", "--input", "++", "--seed", "0"],
    ):
        code1, text1 = run_cli(list(argv))
        code2, text2 = run_cli(list(argv))
        assert (code1, text1) == (code2, text2)


def test_repeated_in_process_calls_share_one_parser():
    # the parser is built once per process: a failed parse, then a good
    # one, then --help must each behave as on a fresh parser
    assert run_cli(["wigner", "--bogus"])[0] == 2
    code, text = run_cli(["witness", "chsh"])
    assert code == 0 and text == (GOLDEN_DIR / "witness_chsh.json").read_text()
    code, text = run_cli(["--help"])
    assert code == 0 and "usage: spektoy" in text
    assert run_cli(["subtheory", "--help"])[0] == 0
    assert build_parser() is build_parser()


def test_schema_and_config_fields():
    code, text = run_cli(["witness", "chsh"])
    doc = json.loads(text)
    assert doc["schema"] == "spektoy/witness-report-v1"
    assert doc["config"]["seed"] == 0


class TestEquivalenceCommand:
    def test_matching_circuit(self, tmp_path):
        f = tmp_path / "bell.circ"
        f.write_text("INIT +XX,+ZZ\nMEAS ZZ 0 1 -> v\n")
        code, text = run_cli(["equivalence", "--circuit", str(f), "--host", "minimal-rebit"])
        assert code == 0
        doc = json.loads(text)
        assert doc["within_tolerance"]
        assert doc["max_deviation"] <= 1e-9

    def test_audit_error_exit_two(self, tmp_path):
        f = tmp_path / "bad.circ"
        f.write_text("GATE S 0\nMEAS Z 0 -> v\n")
        code, _ = run_cli(["equivalence", "--circuit", str(f), "--host", "minimal-rebit", "--n", "2"])
        assert code == 2

    def test_missing_file_exit_two(self):
        code, _ = run_cli(["equivalence", "--circuit", "/nonexistent.circ"])
        assert code == 2


class TestExitCodes:
    def test_usage_error(self):
        assert run_cli(["wigner"])[0] == 2  # missing --state

    def test_parse_error(self):
        assert run_cli(["wigner", "--state", "bogus!!"])[0] == 2

    def test_verified_negative(self):
        assert run_cli(["wigner", "--state", "CZ|++>", "--spec", "delfosse-rebit"])[0] == 1

    @pytest.mark.parametrize("argv,guard", [
        (["subtheory", "verify", "qudit-stabilizer", "--n", "4", "--d", "3"],
         "stabilizer census has 7439040"),
        (["subtheory", "verify", "full-qubit-stabilizer", "--n", "5"],
         "stabilizer census has 2423520"),
        (["wigner", "--state", "+++++++"], "dense oracle capped at n<=6"),
        (["subtheory", "verify", "minimal-rebit", "--n", "5"],
         "guard exceeded: stabilizer census has 2423520 > 1048576 states at d=2, n=5"),
    ])
    def test_guard_exceeded(self, argv, guard, capsys):
        # the guard named in the message fires before the enumeration or
        # dense allocation it bounds, so nothing reaches stdout
        code, out = run_cli(argv)
        assert code == 3 and out == ""
        assert guard in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["wigner", "--state", "++++++"],
        ["equivalence", "--circuit", "one_gate.circ", "--host", "minimal-rebit", "--n", "6"],
    ])
    def test_phase_point_stack_guard(self, argv, tmp_path, monkeypatch, capsys):
        # six qubits fit the dense oracle, but their d^{4n}-entry operator
        # stacks do not fit the guard, which fires before any is built
        (tmp_path / "one_gate.circ").write_text("GATE X 0\nMEAS Z 0 -> a\n")
        monkeypatch.chdir(tmp_path)

        def unreachable(*args):
            raise AssertionError("Weyl operator built past the guard")

        monkeypatch.setattr(wg, "weyl", unreachable)
        code, out = run_cli(argv)
        assert code == 3 and out == ""
        assert "phase-point stack has 16777216 > 1048576 entries" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["subtheory", "verify", "qudit-stabilizer", "--n", "1", "--d", "4"],
         "'qudit-stabilizer' needs an odd prime d, got d=4"),
        (["subtheory", "verify", "gross", "--n", "1"],
         "'gross' needs an odd prime d, got d=2"),
        (["subtheory", "verify", "minimal-rebit", "--n", "1", "--d", "3"],
         "'minimal-rebit' needs d=2, got d=3"),
        (["subtheory", "verify", "css-rebit", "--n", "1", "--d", "5"],
         "'css-rebit' needs d=2, got d=5"),
        (["subtheory", "verify", "full-qubit-stabilizer", "--n", "1", "--d", "3"],
         "'full-qubit-stabilizer' needs d=2, got d=3"),
        (["equivalence", "--circuit", str(GOLDEN_DIR / "bell.circ"), "--host", "minimal-rebit",
          "--d", "3"], "'minimal-rebit' needs d=2, got d=3"),
        (["equivalence", "--circuit", str(GOLDEN_DIR / "bell.circ"), "--host", "qudit-stabilizer"],
         "'qudit-stabilizer' needs an odd prime d, got d=2"),
        (["subtheory", "verify", "qudit-stabilizer", "--n", "1", "--d", "1"],
         "'qudit-stabilizer' needs an odd prime d, got d=1"),
        (["subtheory", "verify", "qudit-stabilizer", "--n", "1", "--d", "-3"],
         "'qudit-stabilizer' needs an odd prime d, got d=-3"),
        (["equivalence", "--circuit", str(GOLDEN_DIR / "bell.circ"), "--host", "qudit-stabilizer",
          "--d", "1", "--n", "2"], "'qudit-stabilizer' needs an odd prime d, got d=1"),
    ])
    def test_subtheory_name_and_d_must_fit(self, argv, message, capsys):
        # a d that does not fit the named subtheory is refused, not replaced
        code, out = run_cli(argv)
        assert code == 2 and out == ""
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("n", [0, -1])
    @pytest.mark.parametrize("name,d", [("minimal-rebit", 2), ("css-rebit", 2),
                                        ("full-qubit-stabilizer", 2), ("qudit-stabilizer", 3),
                                        ("gross", 3)])
    def test_subtheory_n_must_be_positive(self, name, d, n, capsys):
        # a site count below one is a usage error, not a crash (exit 1
        # means verified-negative)
        code, out = run_cli(["subtheory", "verify", name, "--n", str(n), "--d", str(d)])
        assert code == 2 and out == ""
        assert f"n={n} must be >= 1" in capsys.readouterr().err

    def test_under_determined_state_spec(self, capsys):
        code, out = run_cli(["wigner", "--state", "+ZI"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == (
            "error: generator string under-determines the state; add generators\n")

    def test_wigner_state_must_fit_n(self, capsys):
        # --n names the wire count the state spec must have, 0 included
        for n in (0, 2):
            code, out = run_cli(["wigner", "--state", "0", "--n", str(n)])
            assert code == 2 and out == ""
            assert f"state spec is not on {n} wires" in capsys.readouterr().err
        code, out = run_cli(["wigner", "--state", "0", "--n", "1"])
        assert code == 0 and json.loads(out)["config"]["n"] == 1

    @pytest.mark.parametrize("name", ["ghz", "chsh", "peres-mermin-s"])
    def test_witness_input_only_for_peres_mermin(self, name, capsys):
        # --input feeds the peres-mermin context circuits; another witness
        # refuses it rather than ignoring it
        code, out = run_cli(["witness", name, "--input", "++"])
        assert code == 2 and out == ""
        assert f"{name!r} takes none" in capsys.readouterr().err

    @pytest.mark.parametrize("host", ["bogus", "css-rebit"])
    def test_inject_host_is_the_audited_whitelist(self, host, capsys):
        # the audit checks the minimal-rebit host elements whatever --host
        # says, so another host name is refused rather than echoed
        code, out = run_cli(["inject", "--gate", "CZ", "--input", "++", "--host", host])
        assert code == 2 and out == ""
        assert "invalid choice" in capsys.readouterr().err
        code, out = run_cli(["inject", "--gate", "CZ", "--input", "++", "--host", "minimal-rebit"])
        assert code == 0 and json.loads(out)["host"] == "minimal-rebit"

    def test_table_format(self):
        code, text = run_cli(["--format", "table", "witness", "chsh"])
        assert code == 0
        assert "win_probability" in text
        assert not text.lstrip().startswith("{")


SWEEP_D = ("-3", "0", "1", "2", "3", "4", "5", "9")


def sweep_invocations():
    """The exit-code sweep: every subtheory name, state form and host over
    good and bad --d and --n values."""
    names = ("minimal-rebit", "css-rebit", "full-qubit-stabilizer", "qudit-stabilizer", "gross")
    for name, d, n in itertools.product(names, SWEEP_D, ("-1", "0", "1")):
        yield ["subtheory", "verify", name, "--d", d, "--n", n]
    for state, spec, d, n in itertools.product(
        ("0", "+", "+X", "X1Z1"), wg.SPEC_NAMES, SWEEP_D, (None, "-1", "0", "1")
    ):
        yield ["wigner", "--state", state, "--spec", spec, "--d", d] + (["--n", n] if n else [])
    hosts = ("minimal-rebit", "css-rebit", "full-qubit-stabilizer", "qudit-stabilizer")
    for host, d, n in itertools.product(hosts, SWEEP_D, ("-1", "0", "1", "2")):
        yield ["equivalence", "--circuit", "bell.circ", "--host", host, "--d", d, "--n", n]


def test_exit_code_sweep(monkeypatch, capsys):
    # exit 1 means verified-negative, so a crash must never surface as one:
    # every call returns a documented code, and a clean run (0 or 1)
    # writes nothing to stderr
    monkeypatch.chdir(GOLDEN_DIR)
    argvs = list(sweep_invocations())
    assert len(argvs) == 632
    for argv in argvs:
        code, _ = run_cli(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), argv
        assert code >= 2 or err == "", (argv, err)


def test_out_file_respects_env_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("SPEKTOY_OUT_DIR", str(tmp_path))
    code, text = run_cli(["witness", "chsh", "--out", "report.json"])
    assert code == 0
    assert (tmp_path / "report.json").read_text() == text


# ---------------------------------------------------------------------------
# the report writer against the two-walk writer it replaced

def _sanitize(obj):
    """Round floats and kill -0.0 so identical runs emit identical bytes."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return round(float(obj), 12) + 0.0
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    return obj


def _ref_table(payload):
    lines = []

    def walk(obj, depth):
        pad = "  " * depth
        if isinstance(obj, dict):
            for k in sorted(obj):
                v = obj[k]
                if isinstance(v, (dict, list)):
                    lines.append(f"{pad}{k}:")
                    walk(v, depth + 1)
                else:
                    lines.append(f"{pad}{k}: {v}")
        elif isinstance(obj, list):
            for v in obj:
                if isinstance(v, (dict, list)):
                    lines.append(f"{pad}-")
                    walk(v, depth + 1)
                else:
                    lines.append(f"{pad}- {v}")

    walk(payload, 0)
    return "\n".join(lines) + "\n"


def ref_emit(report, kind, cfg):
    """The report text as _sanitize, then json.dumps or the table walk,
    wrote it."""
    payload = {"schema": f"spektoy/{kind}-v1", "config": asdict(cfg), **_sanitize(report)}
    if cfg.fmt == "table":
        return _ref_table(payload)
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def emitted(report, kind, cfg):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        emit(report, kind, cfg, None)
    return buf.getvalue()


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 1e-13, -4e-13, 0.1 + 0.2]),
    st.text(max_size=6), st.sampled_from(["é", "日本", "\n\t\"\\", "\x00\x1f", "😀", "</s>"]),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.integers(0, 255).map(np.uint8),
    st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.booleans().map(np.bool_),
)
_ARRAYS = hnp.arrays(
    st.sampled_from([np.int64, np.float64, np.bool_]),
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
)
# keys that collide under str(): the last one of a dict wins
_KEYS = st.one_of(
    st.integers(-3, 3), st.text(max_size=3), st.booleans(),
    st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-3, 3).map(np.int64),
    st.sampled_from(["1", "True", "(0, 1)", "schema", "config"]),
)
_VALUES = st.recursive(
    _SCALARS | _ARRAYS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_KEYS, inner, max_size=4),
    ),
    max_leaves=24,
)
_CONFIGS = st.builds(
    RunConfig, d=st.integers(-5, 9), n=st.none() | st.integers(-1, 4), spec=st.text(max_size=4),
    seed=st.integers(), fmt=st.sampled_from(["json", "table"]),
    tolerance=st.floats() | st.sampled_from([1e-9, 1e-13, -0.0]),
)


@settings(max_examples=150, deadline=None)
@given(report=st.dictionaries(_KEYS, _VALUES, max_size=5), cfg=_CONFIGS)
def test_writer_matches_the_two_walk_writer(report, cfg):
    assert emitted(report, "witness-report", cfg) == ref_emit(report, "witness-report", cfg)


@pytest.mark.parametrize("value", [Fraction(1, 2), 1j, {1, 2}, object(), np.array([1j])])
def test_writer_refuses_unknown_types(value):
    report = {"a": [1, {"b": value}]}
    with pytest.raises(TypeError, match="not JSON serializable"):
        ref_emit(report, "witness-report", RunConfig())
    with pytest.raises(TypeError, match="not JSON serializable"):
        emitted(report, "witness-report", RunConfig())


# recorded from the two-walk writer; not replayed by scripts/regen_goldens.py
TABLE_CASES = {
    "table_witness_chsh.txt": ["witness", "chsh"],
    "table_inject_ccz_ppp.txt": ["inject", "--gate", "CCZ", "--input", "+++"],
    "table_subtheory_css_n2.txt": ["subtheory", "verify", "css-rebit", "--n", "2"],
}


@pytest.mark.parametrize("fname", sorted(TABLE_CASES))
def test_table_format_is_pinned(fname):
    code, text = run_cli(["--format", "table", *TABLE_CASES[fname]])
    assert code == 0
    assert text == (PINNED_DIR / fname).read_text()


def test_trailing_gate_report_is_pinned(monkeypatch):
    # recorded before the statistics stopped at the last measurement: the
    # gates after the last MEAS change no byte of the report
    monkeypatch.chdir(PINNED_DIR)
    argv = ["equivalence", "--circuit", "equivalence_trailing.circ", "--host", "minimal-rebit",
            "--n", "3"]
    code, text = run_cli(argv)
    assert code == 0
    assert text.encode() == (PINNED_DIR / "equivalence_trailing.json").read_bytes()


def test_four_rebit_report_is_pinned():
    # recorded from the level-set census; kept out of the goldens, which a
    # benchmark workload replays, since the report takes about a second
    code, text = run_cli(["subtheory", "verify", "minimal-rebit", "--n", "4"])
    assert code == 0
    assert text.encode() == (PINNED_DIR / "subtheory_minimal_n4.json").read_bytes()

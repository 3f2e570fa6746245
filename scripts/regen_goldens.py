#!/usr/bin/env python3
"""Regenerate the pinned CLI golden files under tests/golden/.

Run from the repository root after an intentional output change:

    python3 scripts/regen_goldens.py

or, to compare without writing (exit 1 and the drifted files listed when
any golden differs from the CLI's current stdout):

    python3 scripts/regen_goldens.py --check

Every golden is the byte-exact stdout of one CLI invocation; the CLI test
replays the same invocations and compares bytes.
"""

import argparse
import contextlib
import io
import os
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from spektoy.cli import main  # noqa: E402

GOLDEN_DIR = pathlib.Path(__file__).resolve().parents[1] / "tests" / "golden"

# perfbench/workloads.py (`golden_invocations`) runs exactly this list as the
# cli-reports mix of the benchmark: adding or removing an entry changes the
# benchmark, so it belongs in a benchmark change.  Pin other goldens in
# EXTRA_INVOCATIONS below.
INVOCATIONS = {
    # quasi-probability tables pinned for both rebit constructions and the
    # odd-d construction: ground state, conjugate basis state, entangled
    # pair, magic resource
    "wigner_factorisable_zero.json": ["wigner", "--state", "+Z", "--spec", "factorisable-rebit"],
    "wigner_factorisable_plus.json": ["wigner", "--state", "+X", "--spec", "factorisable-rebit"],
    "wigner_factorisable_bell.json": ["wigner", "--state", "+XX,+ZZ", "--spec", "factorisable-rebit"],
    "wigner_factorisable_tplus.json": ["wigner", "--state", "T|+>", "--spec", "factorisable-rebit"],
    "wigner_delfosse_zero.json": ["wigner", "--state", "+Z", "--spec", "delfosse-rebit"],
    "wigner_delfosse_plus.json": ["wigner", "--state", "+X", "--spec", "delfosse-rebit"],
    "wigner_delfosse_bell.json": ["wigner", "--state", "+XX,+ZZ", "--spec", "delfosse-rebit"],
    "wigner_delfosse_czpp.json": ["wigner", "--state", "CZ|++>", "--spec", "delfosse-rebit"],
    "wigner_gross_zero.json": ["wigner", "--state", "+Z", "--spec", "gross", "--d", "3"],
    "wigner_gross_plus.json": ["wigner", "--state", "+X", "--spec", "gross", "--d", "3"],
    "wigner_gross_bell.json": ["wigner", "--state", "X1X1,Z1Z2", "--spec", "gross", "--d", "3"],
    # witness certificates
    "witness_chsh.json": ["witness", "chsh"],
    "witness_ghz.json": ["witness", "ghz"],
    "witness_peres_mermin.json": ["witness", "peres-mermin"],
    "witness_peres_mermin_s.json": ["witness", "peres-mermin-s"],
    # injection reports
    "inject_s_plus.json": ["inject", "--gate", "S", "--input", "+"],
    "inject_cz_pp.json": ["inject", "--gate", "CZ", "--input", "++"],
    "inject_ccz_ppp.json": ["inject", "--gate", "CCZ", "--input", "+++"],
    # subtheory manifest
    "subtheory_minimal_n2.json": ["subtheory", "verify", "minimal-rebit", "--n", "2"],
}

#: goldens pinned beside INVOCATIONS but kept out of it, because the
#: benchmark's cli-reports workload replays exactly INVOCATIONS
EXTRA_INVOCATIONS = {
    # the only CLI path through the parity blocks and in-place CZ injection
    "witness_peres_mermin_input.json": ["witness", "peres-mermin", "--input", "++"],
    # README's bell.circ, stored beside the goldens
    "equivalence_bell.json": ["equivalence", "--circuit", "bell.circ", "--host", "minimal-rebit"],
    # the failing certificate: exhaustive no-witness verdict for S (exit 1)
    "subtheory_full_qubit_n1.json": ["subtheory", "verify", "full-qubit-stabilizer", "--n", "1"],
    # the non-Clifford correction path: T's X-branch correction (X + Y)/sqrt(2)
    "inject_t_plus.json": ["inject", "--gate", "T", "--input", "+"],
    # the passing certificates of the maximal rebit subtheory (global
    # Hadamard included) and of odd-d stabilizer mechanics
    "subtheory_css_n2.json": ["subtheory", "verify", "css-rebit", "--n", "2"],
    "subtheory_qudit_d3_n1.json": ["subtheory", "verify", "qudit-stabilizer", "--n", "1", "--d", "3"],
}


def capture(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def main_script(argv=None) -> int:
    parser = argparse.ArgumentParser(description="regenerate or check the CLI goldens")
    parser.add_argument("--check", action="store_true",
                        help="compare each golden with the CLI's stdout, write nothing")
    args = parser.parse_args(argv)
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    # run where the CLI test runs, so that circuit_file echoes bell.circ
    os.chdir(GOLDEN_DIR)
    drifted = []
    for fname, invocation in {**INVOCATIONS, **EXTRA_INVOCATIONS}.items():
        code, text = capture(invocation)
        path = GOLDEN_DIR / fname
        if not args.check:
            path.write_text(text)
            print(f"wrote {fname} (exit {code}, {len(text)} bytes)")
        elif not path.exists() or path.read_text() != text:
            drifted.append(fname)
    if args.check:
        for fname in drifted:
            print(f"drifted: {fname}")
        print(f"{len(drifted)} of {len(INVOCATIONS) + len(EXTRA_INVOCATIONS)} goldens drifted")
    return 1 if drifted else 0


if __name__ == "__main__":
    sys.exit(main_script())

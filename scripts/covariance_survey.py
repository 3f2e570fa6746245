#!/usr/bin/env python3
"""Survey of phase-space covariance for the named gates.

For each (construction, gate) pair, reports whether an affine symplectic
witness exists on the construction's allowed state set, the witness when
found, and the exhaustive no-witness certificates (notably S and single-
site H on the rebit constructions), each with the mode of
wigner.covariance_witness that decided it (transport, exhaustive or
guard-exceeded).

Usage: python3 scripts/covariance_survey.py [--d 2|3] [--n 1|2]
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from spektoy import dense_oracle as do  # noqa: E402
from spektoy import subtheory as stt  # noqa: E402
from spektoy import wigner as wg  # noqa: E402


def survey(spec, states, pool):
    print(f"\n== {spec.name} (d={spec.d}, n={spec.n}), {len(states)} states ==")
    for gen in pool:
        closed, escape = stt.permutes_states(gen.matrix, states)
        if not closed:
            print(f"  {gen.label():10s} leaves the state set (state {escape})")
            continue
        witness, mode = wg.covariance_witness(gen.matrix, spec, states)
        if witness is None:
            print(f"  {gen.label():10s} closed but NOT covariant ({mode})")
        else:
            print(
                f"  {gen.label():10s} covariant ({mode}): S={witness.S.tolist()} "
                f"a={witness.a.tolist()}"
            )


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--d", type=int, default=2, choices=(2, 3))
    ap.add_argument("--n", type=int, default=1, choices=(1, 2))
    args = ap.parse_args()

    pool = stt.named_gate_pool(args.d, args.n)
    if args.d == 2:
        for make in (wg.factorisable_rebit_spec, wg.delfosse_rebit_spec):
            spec = make(args.n)
            survey(spec, stt.allowed_states(spec), pool)
    else:
        spec = wg.gross_spec(3, args.n)
        survey(spec, stt.all_stabilizer_states(3, args.n), pool)


if __name__ == "__main__":
    main()

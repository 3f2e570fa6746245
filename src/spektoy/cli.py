"""Command-line entry point: every verification pipeline behind one
command with machine-readable, byte-deterministic JSON output.

Subcommands:
  wigner       dump a state's quasi-probability table and its verdict
  equivalence  compare toy-model and dense statistics for a circuit file
  inject       run a gate-injection scheme branch-exhaustively
  witness      run a contextuality witness
  subtheory    build and certify a named subtheory

Exit codes: 0 pass; 1 verified-negative (e.g. negativity found, statistics
deviate); 2 usage or audit error; 3 enumeration guard exceeded.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from . import dense_oracle as do
from . import equivalence as eqv
from . import injection as inj
from . import subtheory as stt
from . import wigner as wg
from . import witness as wit
from .circuits import ATOL_END2END, parse_circuit
from .errors import AuditError, CircuitParseError, GuardExceeded, SpektoyError

SCHEMA_PREFIX = "spektoy"
SCHEMA_VERSION = "v1"


@dataclass(frozen=True)
class RunConfig:
    d: int = 2
    n: int = 2
    spec: str = "factorisable-rebit"
    seed: int = 0
    fmt: str = "json"
    tolerance: float = ATOL_END2END

    @classmethod
    def from_args(cls, args) -> "RunConfig":
        return cls(
            d=getattr(args, "d", 2),
            n=getattr(args, "n", 2),
            spec=getattr(args, "spec", "factorisable-rebit"),
            seed=getattr(args, "seed", 0),
            fmt=getattr(args, "format", "json"),
            tolerance=getattr(args, "tolerance", ATOL_END2END),
        )


def _rounded(x) -> float:
    """A report float as written: rounded to 12 places with -0.0 made 0.0,
    so that identical runs emit identical bytes."""
    return round(float(x), 12) + 0.0


def _node(obj, rounded: bool = True):
    """One level of a report value as it is written: the run's config as a
    dict, a mapping with its keys as str(k) (the last of colliding keys
    wins), an array as nested lists, and a scalar as a Python one, floats
    _rounded unless not `rounded`."""
    if isinstance(obj, RunConfig):
        return vars(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {str(k): v for k, v in obj.items()}
    if isinstance(obj, (float, np.floating)):
        return _rounded(obj) if rounded else obj
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


_JSON_WORDS = {None: "null", True: "true", False: "false",
               "nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_scalar(obj) -> str:
    """A Python scalar as json.dumps writes it; TypeError for other types."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or isinstance(obj, bool):
        return _JSON_WORDS[obj]
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return _JSON_WORDS.get(text, text)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


#: JSON text of a report scalar by its exact type, for the plain Python
#: types: the writer's shortcut past _node and the checks of _json_scalar
_JSON_LEAF = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: lambda x: _json_scalar(_rounded(x)),
    bool: _JSON_WORDS.__getitem__,
    type(None): _JSON_WORDS.__getitem__,
}


def _write_json(obj, out: list[str], pad: str = "", rounded: bool = True) -> list[str]:
    """Append obj to out as json.dumps(obj, sort_keys=True, indent=2) would
    write what _node makes of each of its nodes, in one pass.  The run's
    config is written with its floats unrounded."""
    leaf = _JSON_LEAF.get(type(obj)) if rounded else None
    if leaf is not None:
        out.append(leaf(obj))
        return out
    rounded = rounded and not isinstance(obj, RunConfig)
    obj = _node(obj, rounded)
    if not isinstance(obj, (dict, list, tuple)):
        out.append(_json_scalar(obj))
        return out
    is_dict = isinstance(obj, dict)
    if not obj:
        out.append("{}" if is_dict else "[]")
        return out
    inner, sep = pad + "  ", "{\n" if is_dict else "[\n"
    for item in sorted(obj.items()) if is_dict else obj:
        out += (sep, inner)
        if is_dict:
            out += (encode_basestring_ascii(item[0]), ": ")
            item = item[1]
        _write_json(item, out, inner, rounded)
        sep = ",\n"
    out += ("\n", pad, "}" if is_dict else "]")
    return out


def emit(report: dict, kind: str, cfg: RunConfig, out: str | None) -> None:
    payload = {"schema": f"{SCHEMA_PREFIX}/{kind}-{SCHEMA_VERSION}", "config": cfg, **report}
    if cfg.fmt == "table":
        text = _as_table(payload)
    else:
        text = "".join(_write_json(payload, [])) + "\n"
    if out:
        out_dir = os.environ.get("SPEKTOY_OUT_DIR")
        if out_dir and not os.path.isabs(out):
            out = os.path.join(out_dir, out)
        with open(out, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _as_table(payload: dict) -> str:
    """Indented `key: value` and `- value` lines, each node as _node makes
    it, scalars by str()."""
    lines = []

    def walk(obj, depth, rounded):
        pad = "  " * depth
        if isinstance(obj, dict):
            entries = [(f"{pad}{k}:", obj[k]) for k in sorted(obj)]
        else:
            entries = [(f"{pad}-", v) for v in obj]
        for head, v in entries:
            v_rounded = rounded and not isinstance(v, RunConfig)
            v = _node(v, v_rounded)
            if isinstance(v, (dict, list, tuple)):
                lines.append(head)
                walk(v, depth + 1, v_rounded)
            else:
                lines.append(f"{head} {v}")

    walk(_node(payload), 0, True)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands

def cmd_wigner(args) -> int:
    cfg = RunConfig.from_args(args)
    psi = do.parse_state_spec(args.state, d=cfg.d, n=args.n)
    spec = wg.spec_by_name(args.spec, cfg.d, do.num_sites(psi.shape[0], cfg.d))
    table = wg.wigner_of_state(psi, spec)
    verdict, offending = wg.is_nonnegative(table, cfg.tolerance)
    report = {
        "state": args.state,
        "table": table.as_json(),
        "nonnegative": verdict,
        "offending_points": [[list(p) if isinstance(p, tuple) else p, v] for p, v in offending],
        "coset_indicator": wg.is_coset_indicator(table),
    }
    emit(report, "wigner-table", cfg, args.out)
    return 0 if verdict else 1


def cmd_equivalence(args) -> int:
    cfg = RunConfig.from_args(args)
    with open(args.circuit) as fh:
        text = fh.read()
    circuit = parse_circuit(text, n_wires=args.n)
    host = eqv.host_model(args.host, args.n if args.n else circuit.n_wires, cfg.d)
    toy_dist, dense_dist, dev = eqv.circuit_statistics_both_ways(circuit, host)
    rows = []
    for key in sorted(set(toy_dist) | set(dense_dist)):
        rows.append(
            {
                "outcomes": [list(k) for k in key],
                "toy": float(toy_dist.get(key, 0)),
                "dense": dense_dist.get(key, 0.0),
            }
        )
    report = {
        "host": host.sub.name,
        "circuit_file": args.circuit,
        "distribution": rows,
        "max_deviation": dev,
        "within_tolerance": dev <= cfg.tolerance,
    }
    emit(report, "equivalence-report", cfg, args.out)
    return 0 if dev <= cfg.tolerance else 1


def cmd_inject(args) -> int:
    cfg = RunConfig.from_args(args)
    gate_name = args.gate.upper()
    psi = do.parse_state_spec(args.input, d=2, n=do.gate_arity(gate_name, 2))
    if gate_name == "CCZ":
        # full pipeline: a CZ injection bootstraps the tier-2 corrections,
        # then the CCZ injection runs, 4 x 8 = 32 leaves
        demo = inj.ccz_scheme_demo(psi)
        report = {
            "gate": gate_name,
            "host": args.host,
            "input": args.input,
            **demo,
            "all_branches_match": demo["min_fidelity"] >= 1 - cfg.tolerance
            and demo["all_leaves_match_target"],
        }
        emit(report, "injection-report", cfg, args.out)
        return 0 if report["all_branches_match"] else 1
    scheme = inj.scheme_for(gate_name)
    audit = inj.AuditTrail()
    records = inj.run_injection(scheme, psi, audit=audit)
    min_fid = min(r.fidelity for r in records)
    report = {
        "gate": gate_name,
        "host": args.host,
        "input": args.input,
        "branches": [
            {
                "outcomes": list(r.outcomes),
                "probability": r.probability,
                "correction": r.correction,
                "fidelity": r.fidelity,
            }
            for r in records
        ],
        "correction_table": {
            "".join(map(str, m)): {"name": c.name, "kind": c.kind}
            for m, c in sorted(scheme.corrections.items())
        },
        "min_fidelity": min_fid,
        "audit": audit.report(),
        "all_branches_match": min_fid >= 1 - cfg.tolerance,
    }
    emit(report, "injection-report", cfg, args.out)
    return 0 if min_fid >= 1 - cfg.tolerance else 1


def cmd_witness(args) -> int:
    cfg = RunConfig.from_args(args)
    name = args.name
    if args.input is not None and name != "peres-mermin":
        raise CircuitParseError(
            f"--input runs the peres-mermin context circuits; {name!r} takes none"
        )
    if name == "peres-mermin":
        report = wit.peres_mermin_report()
        if args.input:
            psi = do.parse_state_spec(args.input, d=2, n=2)
            report["circuit_runs"] = {
                ctx: {
                    k: v
                    for k, v in wit.peres_mermin_circuit(psi, ctx).items()
                    if k != "audit"
                }
                for ctx in sorted(wit.CONTEXT_SELECTORS)
            }
        passed = report["contradiction"]
    elif name == "peres-mermin-s":
        report = wit.peres_mermin_s_variant()
        passed = report.get("contradiction", False)
    elif name == "ghz":
        report = wit.ghz_report()
        passed = report["contradiction"] and report["eigenvalues_match"]
    elif name == "chsh":
        report = wit.chsh_report()
        passed = report["quantum_advantage"]
    else:
        raise CircuitParseError(f"unknown witness {name!r}")
    report["passed"] = bool(passed)
    emit(report, "witness-report", cfg, args.out)
    return 0 if passed else 1


def cmd_subtheory(args) -> int:
    cfg = RunConfig.from_args(args)
    if args.action != "verify":
        raise CircuitParseError(f"unknown subtheory action {args.action!r}")
    sub = stt.subtheory_by_name(args.name, args.n, cfg.d)
    cert = stt.is_spekkens_subtheory(sub)
    report = sub.manifest(
        certificates={
            "closure": cert["closure"]["passed"],
            "nonnegativity": cert["nonnegativity"]["passed"],
            "covariance": cert["covariance"]["passed"],
        }
    )
    report["detail"] = cert
    report["passed"] = cert["passed"]
    emit(report, "subtheory-manifest", cfg, args.out)
    return 0 if cert["passed"] else 1


# ---------------------------------------------------------------------------

def _common_flags(parser, suppress: bool) -> None:
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument(
        "--format", choices=("json", "table"),
        default=d if suppress else "json",
    )
    parser.add_argument("--seed", type=int, default=d if suppress else 0)
    parser.add_argument(
        "--tolerance", type=float, default=d if suppress else ATOL_END2END,
        help="tolerance of the wigner non-negativity, equivalence deviation and "
        "injection fidelity verdicts only; witness and subtheory reports echo it",
    )
    parser.add_argument(
        "--out",
        default=d if suppress else None,
        help="also write the report to this file "
        "(relative paths resolve under $SPEKTOY_OUT_DIR)",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process (parsing leaves it unchanged)."""
    p = argparse.ArgumentParser(
        prog="spektoy",
        description="phase-space toy-model and state-injection verification",
    )
    _common_flags(p, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _common_flags(common, suppress=True)
    sub = p.add_subparsers(dest="command", required=True)

    w = sub.add_parser("wigner", parents=[common],
                       help="quasi-probability table of a state")
    w.add_argument("--state", required=True, help="state spec, e.g. '+Z', 'T|+>'")
    w.add_argument("--spec", default="factorisable-rebit", choices=wg.SPEC_NAMES)
    w.add_argument("--d", type=int, default=2)
    w.add_argument("--n", type=int, default=None)
    w.set_defaults(func=cmd_wigner)

    e = sub.add_parser("equivalence", parents=[common],
                       help="toy vs dense statistics for a circuit")
    e.add_argument("--circuit", required=True, help="circuit text file")
    e.add_argument("--host", default="minimal-rebit")
    e.add_argument("--d", type=int, default=2)
    e.add_argument("--n", type=int, default=None)
    e.set_defaults(func=cmd_equivalence)

    i = sub.add_parser("inject", parents=[common],
                       help="run a state-injection scheme")
    i.add_argument("--gate", required=True, choices=("S", "Z", "CZ", "CCZ", "T"))
    i.add_argument("--input", required=True)
    i.add_argument("--host", default="minimal-rebit", choices=("minimal-rebit",))
    i.set_defaults(func=cmd_inject)

    t = sub.add_parser("witness", parents=[common],
                       help="run a contextuality witness")
    t.add_argument(
        "name", choices=("peres-mermin", "peres-mermin-s", "ghz", "chsh")
    )
    t.add_argument("--input", default=None, help="two-qubit state spec for "
                   "the context-circuit runs (peres-mermin only)")
    t.set_defaults(func=cmd_witness)

    s = sub.add_parser("subtheory", parents=[common],
                       help="build and certify a subtheory")
    s.add_argument("action", choices=("verify",))
    s.add_argument("name")
    s.add_argument("--n", type=int, default=2)
    s.add_argument("--d", type=int, default=2)
    s.set_defaults(func=cmd_subtheory)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    try:
        return args.func(args)
    except GuardExceeded as e:
        print(f"guard exceeded: {e}", file=sys.stderr)
        return 3
    except (AuditError, CircuitParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (SpektoyError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

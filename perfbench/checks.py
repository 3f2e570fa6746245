"""Correctness checks applied to the output of every benchmark operation.

Each check returns None when the output is correct and a one-line reason
when it is not.  The runner counts every reason as a failed operation; a
failed operation is never dropped or retried.
"""

from __future__ import annotations

import json
import math
import pathlib

#: the tolerance every toy-vs-dense comparison is held to
DEVIATION_TOLERANCE = 1e-9


def first_difference(a: str, b: str) -> int:
    """Offset of the first character where two texts differ."""
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return min(len(a), len(b))


# ---------------------------------------------------------------------------
# equivalence: toy statistics against dense statistics

def check_deviation(dev, tol: float = DEVIATION_TOLERANCE) -> str | None:
    if isinstance(dev, float) and math.isfinite(dev) and 0.0 <= dev <= tol:
        return None
    return f"deviation {dev!r} exceeds {tol:g}"


# ---------------------------------------------------------------------------
# toy-scale: exact probabilities and support sizes

def check_exact_distribution(table) -> str | None:
    """An outcome table of exact rationals that sums to exactly 1."""
    if not table:
        return "empty outcome table"
    total = sum(table.values())
    if total != 1:
        return f"outcome probabilities sum to {total}, not exactly 1"
    if any(p <= 0 for p in table.values()):
        return "outcome table lists a non-positive probability"
    return None


def check_support(state) -> str | None:
    """The support of an epistemic state is the whole coset V-perp + w."""
    expected = state.d ** (2 * state.n - state.V.dim)
    if len(state.support) != expected:
        return f"support has {len(state.support)} points, expected {expected}"
    if len(set(state.support)) != expected:
        return "support lists a point twice"
    return None


# ---------------------------------------------------------------------------
# cli-reports: exit codes, pinned bytes and schemas

class SchemaBook:
    """Validators for every report schema under docs/schemas/, keyed by
    the schema id a report names in its "schema" field."""

    def __init__(self, schema_dir: pathlib.Path):
        import jsonschema

        self._validators = {}
        for path in sorted(schema_dir.glob("*.schema.json")):
            schema = json.loads(path.read_text())
            cls = jsonschema.validators.validator_for(schema)
            cls.check_schema(schema)
            self._validators[schema["$id"]] = cls(schema)
        if not self._validators:
            raise FileNotFoundError(f"no schemas under {schema_dir}")

    def check(self, doc) -> str | None:
        if not isinstance(doc, dict):
            return "report is not a JSON object"
        validator = self._validators.get(doc.get("schema"))
        if validator is None:
            return f"report names unknown schema {doc.get('schema')!r}"
        error = next(iter(validator.iter_errors(doc)), None)
        if error is not None:
            return f"schema violation at {list(error.absolute_path)}: {error.message}"
        return None


#: the field whose truth decides exit code 0 (true) or 1 (false), per kind
VERDICT_FIELD = {
    "spektoy/wigner-table-v1": "nonnegative",
    "spektoy/witness-report-v1": "passed",
    "spektoy/injection-report-v1": "all_branches_match",
    "spektoy/subtheory-manifest-v1": "passed",
    "spektoy/equivalence-report-v1": "within_tolerance",
}


def expected_exit(doc: dict) -> int:
    """Exit code the CLI documents for a report: 0 pass, 1 verified-negative."""
    return 0 if doc[VERDICT_FIELD[doc["schema"]]] else 1


def check_cli_report(
    code: int,
    text: str,
    expected_code: int,
    schemas: SchemaBook,
    pinned: str | None = None,
    verdict: bool | None = None,
) -> str | None:
    """Exit code, pinned bytes (a golden or a reference, when given),
    schema validity and, when given, the report's own verdict field."""
    if code != expected_code:
        return f"exit code {code}, expected {expected_code}"
    if pinned is not None and text != pinned:
        return f"stdout differs from the pinned report at offset {first_difference(text, pinned)}"
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        return f"stdout is not JSON: {e}"
    reason = schemas.check(doc)
    if reason is not None:
        return reason
    if verdict is not None and doc.get(VERDICT_FIELD[doc["schema"]]) is not verdict:
        return f"report verdict is not {verdict}"
    return None

#!/usr/bin/env python3
"""Write the pinned CLI reports that the cli-reports workload compares byte
for byte, beside the goldens of tests/golden/.

Run from the repository root after an intentional change to those reports,
and review the diff:

    python3 perfbench/make_references.py
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> None:
    workloads.REFERENCE_DIR.mkdir(parents=True, exist_ok=True)
    for fname, argv in workloads.REFERENCE_INVOCATIONS.items():
        code, text = workloads.run_cli(argv)
        path = workloads.REFERENCE_DIR / fname
        path.write_text(text)
        print(f"wrote {path.relative_to(ROOT)} (exit {code}, {len(text)} bytes)")


if __name__ == "__main__":
    main()

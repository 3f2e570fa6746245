#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/repeat.py --seeds 1-10 --out perfbench/out/set1.json
    python3 perfbench/repeat.py --seeds 1-3 --trace 1 --out perfbench/out/traced.json \
        --markdown perfbench/out/traced.md

Runs perfbench/run.py once per (workload, seed), one at a time, and
reports for every metric its median, first and third quartile
(`statistics.quantiles(values, n=4)`) and the spread (q3 - q1) / median.
With --compare FILE (an earlier summary, or perfbench/baseline.json) it
also reports each median's change against the earlier medians, positive
when worse.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def markdown_table(summary: dict, declared: list[dict]) -> str:
    """One row per metric, one column per workload: median [q1, q3]."""
    names = list(summary["workloads"])
    lines = ["| metric | unit | " + " | ".join(names) + " |",
             "|---|---|" + "---|" * len(names)]
    for m in declared:
        cells = []
        for w in names:
            s = summary["workloads"][w]["metrics"][m["name"]]
            cell = f"{s['median']:.4g}"
            if s["q1"] != s["q3"]:
                cell += f" [{s['q1']:.4g}, {s['q3']:.4g}]"
            cells.append(cell)
        lines.append(f"| `{m['name']}` | {m['unit']} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in contract["workloads"]))
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=int, default=contract["run_seconds"])
    p.add_argument("--out", required=True, type=pathlib.Path)
    p.add_argument("--compare", type=pathlib.Path, default=None)
    p.add_argument("--markdown", type=pathlib.Path, default=None,
                   help="also write the medians as a markdown table")
    args = p.parse_args(argv)

    declared = contract["per_layer" if args.trace else "end_to_end"]
    earlier = {}
    if args.compare:  # a summary written here, or perfbench/baseline.json
        doc = json.loads(args.compare.read_text())
        earlier = doc["end_to_end" if "end_to_end" in doc else "workloads"]
    summary = {"trace": args.trace, "seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= result["correct"]
            runs.append(result)
            print(f"{workload} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']}", flush=True)
        record = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": {},
        }
        for m in declared:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            stats = summarise(values)
            stats["unit"] = m["unit"]
            before = earlier.get(workload, {}).get("metrics", {}).get(m["name"])
            if before and before["median"]:
                sign = 1 if m["better"] == "lower" else -1
                stats["change_vs_compare"] = sign * (stats["median"] - before["median"]) / before["median"]
            record["metrics"][m["name"]] = stats
        summary["workloads"][workload] = record
        for m in declared:
            s = record["metrics"][m["name"]]
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                flag = f" bound {bound:.2f}"
                if m["name"] != "setup_s" and s["spread"] > bound / 3:
                    flag += "  SPREAD ABOVE BOUND/3"
            change = s.get("change_vs_compare")
            if change is not None:
                flag += f" change {change:+.3f}"
                if bound is not None and change > bound:
                    flag += "  WORSE THAN BOUND"
            print(f"  {workload:<12} {m['name']:<40} median {s['median']:<12.6g} "
                  f"spread {s['spread']:.3f}{flag}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=2) + "\n")
    if args.markdown:
        args.markdown.write_text(markdown_table(summary, declared))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

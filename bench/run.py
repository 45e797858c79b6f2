"""Offline benchmark of the dialogic pipeline against a scripted LLM.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1] [--out FILE]

Run it from the root of a checkout; it benchmarks the package under `src/`.
With `--trace 0` it measures the end-to-end metrics, with `--trace 1` it runs
untraced, traced and untraced passes and reports the per-layer metrics. Every run
checks the generated corpora and exits 1 if a check fails. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}. `--workload all` runs the four workloads, each in a fresh
process, prints every metric with its unit, and writes the per-workload
results to `--out` if given. Scratch files go to `.bench_work/` in the
checkout; the spans of a traced run are left in
`.bench_work/spans-<workload>.jsonl`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from metrics import LAYERS, PRINTED_ONLY, spec

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = spec()
NAMES = tuple(w["name"] for w in SPEC["workloads"])


def _import_program() -> str | None:
    """Make `dialogic` importable from this checkout's src/; an error message if not."""
    sys.path.insert(0, str(SRC))
    try:
        import dialogic
    except ImportError as exc:
        return f"cannot import dialogic from {SRC}: {exc}"
    if not Path(dialogic.__file__).resolve().is_relative_to(SRC.resolve()):
        return f"dialogic was imported from {dialogic.__file__}, not from {SRC}"
    return None


def _table(name: str, seed: int, result: dict, units: dict[str, str]) -> list[str]:
    """One line per metric; a per-layer metric chosen to move something here says what."""
    lines = [f"== {name}  seed {seed}  corpus sha256 {result['sha256']}"]
    for metric, unit in units.items():
        line = f"  {metric:<44} {result['metrics'][metric]:>14.6g} {unit}"
        layer = LAYERS.get(metric)
        if layer is not None and name in layer.where:
            line = f"{line:<70} -> {layer.moves}"
        lines.append(line)
    kinds = ", ".join(f"{k}={v}" for k, v in sorted(result["failures"].items())) or "none"
    lines.append(f"  failures by kind: {kinds}")
    lines.append(f"  checks: {'ok' if not result['problems'] else 'FAILED'}")
    lines += [f"    {p}" for p in result["problems"][:20]]
    return lines


def run_one(args) -> int:
    from workloads import WORKLOADS, input_paths, measure, trace

    w = WORKLOADS[args.workload]
    bench_dir = ROOT / ".bench_work"
    work = bench_dir / f"{w.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        paths = input_paths(w, ROOT, args.seed, work)
        if args.trace:
            result = trace(w, paths, args.seed, args.seconds, work,
                           bench_dir / f"spans-{w.name}.jsonl")
            units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
            printed = units
        else:
            result = measure(w, paths, args.seed, args.seconds, work)
            units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
            printed = {**units, **{m.name: m.unit for m in PRINTED_ONLY}}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in _table(w.name, args.seed, result, printed):
        print(line)
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": result["metrics"][n], "unit": u} for n, u in units.items()},
    }))
    return 0 if not result["problems"] else 1


def run_all(args) -> int:
    """Each workload in a fresh process (so peak RSS is per workload)."""
    summary, results, status = {"correct": True, "attempted": 0, "failed": 0}, {}, 0
    metrics = {}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            status = 1
        if not lines:
            summary["correct"] = False
            continue
        last = json.loads(lines[-1])
        results[name] = {"table": lines[:-1], **last}
        summary["correct"] &= last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        metrics.update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
             "workloads": results}, indent=1) + "\n", "utf-8")
    print(json.dumps({**summary, "metrics": metrics}))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="offline dialogic benchmark")
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --workload all: write the results as JSON here")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    problem = _import_program()
    if problem:
        print(f"bench: {problem}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())

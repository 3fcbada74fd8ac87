"""Served-survey benchmark: the survey daemon under three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload survey-burst --seed 1 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric listed in
``BENCHMARK.json``; ``--trace 1`` prints every per-layer metric,
measured by wrappers around each layer's public entry points
(``perfbench/tracing.py``), and writes the spans to
``perfbench/out/``.  Each metric is printed as ``name value unit``;
the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A run whose served outputs fail a check
prints ``correct: false`` with no metrics and exits 1.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / "perfbench" / "out"
#: A run still going after this is stopped without a result: a hung
#: daemon thread must not keep the benchmark past its time limit.
DEADLINE_S = 170.0


def _expire() -> None:
    print(f"perfbench: run exceeded {DEADLINE_S:.0f} s; stopping",
          file=sys.stderr, flush=True)
    os._exit(4)


def git_sha(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return "unknown"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    watchdog = threading.Timer(DEADLINE_S, _expire)
    watchdog.daemon = True
    watchdog.start()
    try:
        return _run(args)
    finally:
        watchdog.cancel()


def _run(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    import numpy

    from perfbench.session import (
        CheckFailed,
        cache_hit_rate,
        end_to_end,
        per_layer,
        run_session,
        tier0_share,
    )
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one "
              f"of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        metric["name"]: metric["unit"]
        for metric in declared["per_layer" if args.trace else "end_to_end"]
    }
    plan = WORKLOADS[args.workload](args.seed)
    info = {
        "workload": plan.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(ROOT),
        "jobs": len(plan.specs),
        "locations_per_job": plan.specs[0].n_locations,
        "repeated_job_share": plan.repeated_job_share,
    }

    try:
        session = asyncio.run(
            run_session(plan, args.seconds, bool(args.trace), OUT_DIR)
        )
    except CheckFailed as err:
        print(f"perfbench: output check failed: {err}", file=sys.stderr)
        print(json.dumps({
            "correct": False,
            "attempted": sum(spec.n_locations for spec in plan.specs),
            "failed": sum(spec.n_locations for spec in plan.specs),
            "metrics": {},
        }))
        return 1

    first = session.rounds[0]
    info.update(
        setups=len(session.setups_s),
        rounds=len(session.rounds),
        traced_rounds=len(session.traced),
        job_latency_samples=sum(len(r.latencies_s) for r in session.rounds),
        llm_cache_hit_rate=cache_hit_rate(first.cache),
        cascade_tier0_share=tier0_share(first.cascade),
    )
    if args.trace:
        values = per_layer(session)
        spans = OUT_DIR / f"spans-{plan.name}-seed{args.seed}.jsonl"
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        with spans.open("w", encoding="utf-8") as out:
            out.write(json.dumps(info, sort_keys=True) + "\n")
            for index, r in enumerate(session.traced):
                r.tracer.write_spans(out, round_index=index)
        info["spans"] = str(spans.relative_to(ROOT))
    else:
        values = end_to_end(session)
    if set(values) != set(units):
        print("perfbench: measured metrics differ from BENCHMARK.json: "
              f"{sorted(set(values) ^ set(units))}", file=sys.stderr)
        return 3

    print(json.dumps({"run": info}, sort_keys=True))
    for name in sorted(values):
        print(f"{name} {values[name]!r} {units[name]}")
    print(json.dumps({
        "correct": True,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]}
            for name in sorted(values)
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

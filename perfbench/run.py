"""The causalest benchmark: one workload, one run, one JSON line of results.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: mc_suite, estimate_csv, panel_synth (see README.md). The run
generates the workload's inputs from the seed, times the import of
causalest in fresh interpreters (setup_s), runs the workload in one fresh
worker process for about S seconds of whole rounds, checks every output,
and prints as its last line a JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end ones; with
--trace 1 they are the per-layer ones drawn from the spans of traced rounds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import calibrate
import checks
import inputs
from tracing import layer_metrics, read_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("mc_suite", "estimate_csv", "panel_synth")
SETUP_SAMPLES = 2  # before and again after the workload
RUN_LIMIT_S = 160  # a run must end within 180 s, checks included


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # one process and no worker threads: BLAS runs single-threaded too
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _prepare(workload: str, seed: int, work: Path) -> None:
    """Write the workload's seeded inputs into the work directory."""
    if workload == "estimate_csv":
        for key, (part, rows) in enumerate((("dr", inputs.DR_ROWS), ("match", inputs.MATCH_ROWS))):
            columns = inputs.observational(seed, key, rows)
            inputs.write_csv(work / f"{part}.csv", columns)
            np.savez(work / f"{part}.npz", **columns)
    elif workload == "panel_synth":
        np.savez(work / "panel.npz", **inputs.panel(seed, inputs.PANEL_UNITS, inputs.PANEL_PERIODS))
        problems = [
            {k: (v.tolist() if isinstance(v, np.ndarray) else v) for k, v in p.items()}
            for p in inputs.synthetic_control(seed)
        ]
        (work / "sc.json").write_text(json.dumps(problems))


def _setup_sample(env: dict[str, str]) -> float:
    """Time from a fresh interpreter until causalest.cli is imported."""
    argv = [sys.executable, "-c", "import causalest.cli; print('ready', flush=True)"]
    start = time.perf_counter()
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
        if proc.wait() != 0 or line.strip() != "ready":
            raise RuntimeError("causalest does not import")
    return ready - start


def _setup_samples(env: dict[str, str], count: int) -> list[tuple[float, float]]:
    """(raw, scaled) set-up times; each scaled by the calibration starts around it."""
    samples, before = [], calibrate.startup(env)
    for _ in range(count):
        raw = _setup_sample(env)
        after = calibrate.startup(env)
        samples.append((raw, raw * calibrate.STARTUP_REFERENCE_S / ((before + after) / 2.0)))
        before = after
    return samples


def _run_worker(args, work: Path, env: dict[str, str], deadline: float) -> None:
    """Run the workload in one fresh process, which writes result.json."""
    argv = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--work", str(work), "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    with open(work / "worker.log", "w") as log:
        try:
            proc = subprocess.run(
                argv, env=env, stdout=log, stderr=subprocess.STDOUT, cwd=HERE,
                timeout=deadline - time.monotonic(),
            )
        except subprocess.TimeoutExpired as exc:
            raise RuntimeError(f"{args.workload} did not finish in time") from exc
    if proc.returncode != 0:
        tail = (work / "worker.log").read_text()[-2000:]
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{tail}")


def _failed_parts(workload: str, work: Path, report: dict) -> list[set[str]]:
    """Per round, the parts whose outputs failed a check.

    The rounds repeat the same calls on the same inputs, so the first round
    is checked in full and every later round must reproduce its outputs.
    """
    first = report["rounds"][0]["outputs"]
    failed = getattr(checks, workload)(work, first, report["finish"])
    return [
        failed | {p for p in report["parts"] if r["outputs"][p] != first[p]}
        for r in report["rounds"]
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (SRC / "causalest" / "__init__.py").is_file():
        print(f"error: no causalest sources under {SRC}", file=sys.stderr)
        return 2
    work = HERE / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = _env()
    _prepare(args.workload, args.seed, work)
    try:
        # the first start writes the bytecode caches; the samples are taken
        # before and after the workload so that they span the run
        _setup_sample(env)
        setup = [] if args.trace else _setup_samples(env, SETUP_SAMPLES)
        _run_worker(args, work, env, deadline)
        setup += [] if args.trace else _setup_samples(env, SETUP_SAMPLES)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    report = json.loads((work / "result.json").read_text())
    parts = report["parts"]
    per_round = _failed_parts(args.workload, work, report)
    attempted = sum(parts.values()) * len(per_round)
    failed = sum(parts[p] for bad in per_round for p in bad)
    for r, bad in enumerate(per_round):
        for p in sorted(bad):
            print(f"round {r}: check failed for {args.workload} {p}", file=sys.stderr)

    rounds = report["rounds"]
    print("round walls:", " ".join(f"{r['wall']:.3f}" for r in rounds), file=sys.stderr)
    print("scaled walls:", " ".join(f"{r['scaled']:.3f}" for r in rounds), file=sys.stderr)
    print("loads:", " ".join(f"{x:.3f}" for r in rounds for x in r["loads"][1:]), file=sys.stderr)
    if setup:
        print("setup raw:", " ".join(f"{raw:.3f}" for raw, _ in setup), file=sys.stderr)
        print("setup scaled:", " ".join(f"{sc:.3f}" for _, sc in setup), file=sys.stderr)
    if args.trace:
        # the per-layer figures are raw seconds, so the overhead is too
        wall_s = statistics.median(r["wall"] for r in rounds if not r["traced"])
        traced = [r["wall"] for r in rounds if r["traced"]]
        per_round_layers = [layer_metrics(s) for s in read_spans(work / "spans.jsonl")]
        values = {k: statistics.median(m[k] for m in per_round_layers) for k in per_round_layers[0]}
        values["trace.wall_s"] = statistics.median(traced)
        values["trace.overhead_s"] = statistics.median(traced) - wall_s
        units = {name: "s" if name.endswith("_s") else "count" for name in values}
    else:
        wall_s = statistics.median(r["scaled"] for r in rounds if not r["traced"])
        values = {
            "setup_s": statistics.median(sc for _, sc in setup),
            "wall_s": wall_s,
            "items_per_s": sum(parts.values()) / wall_s,
            "peak_rss_mb": report["peak_rss_mb"],
        }
        units = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}
    metrics = {k: {"value": values[k], "unit": units[k]} for k in values}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

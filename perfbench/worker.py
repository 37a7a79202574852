"""Runs one workload's timed rounds inside a fresh interpreter.

``run.py`` starts this script once per benchmark run, so the process's
memory belongs to that workload alone. The worker repeats whole rounds of
the same calls, one after the other, for the requested seconds (at least
three rounds), and writes each round's wall time and outputs to
``result.json`` in the work directory, with the process's peak resident
memory as it stands after the first round: a fresh process that has run the
workload once, as a user's command would. Later rounds only add what the
allocator happens to keep from the rounds before, which varies from run to
run by 10% on estimate_csv. With ``--trace 1`` every second round
runs with the layer functions wrapped (see ``tracing.py``); the other rounds
run untraced, so the trace overhead is measured in the same process.

A round is a few steps. The fixed load of ``calibrate.py`` runs before the
first step and after every step, and each step's wall time is also recorded
scaled by ``calibrate.REFERENCE_S`` over the mean of the two loads around
it; the round's ``scaled`` time is the sum over its steps.

Usage: python3 worker.py --workload NAME --work DIR --seed N --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import resource
import statistics
import time
from pathlib import Path

import numpy as np

import causalest
import causalest.cli

import calibrate
import inputs
from tracing import Tracer, write_spans

MIN_ROUNDS = 3


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = causalest.cli.main(argv)
    return rc, out.getvalue()


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(directory)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


class McSuite:
    """``causalest simulate`` of cs1-cs6 at the paper's scale, with --check.

    Each case is its own command, ``--case csK --out mc/csK``: the loop body
    of ``--case all``, with a calibration load between the cases.
    """

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed
        self.parts = {case: inputs.MC_RUNS for case in inputs.MC_CASES}

    def _simulate(self, case: str, runs: int, out: Path, *check: str) -> tuple[int, str]:
        return _cli([
            "simulate", "--case", case, "--runs", str(runs), "--n", str(inputs.MC_N),
            "--seed", str(self.seed), "--jobs", "1", "--out", str(out), *check,
        ])

    def steps(self) -> dict:
        return {
            case: functools.partial(self._simulate, case, inputs.MC_RUNS, self.work / "mc" / case, "--check")
            for case in self.parts
        }

    def outputs(self, result) -> dict:
        return {
            case: {"rc": rc, "lines": text.splitlines(), "files": _digest(self.work / "mc" / case)}
            for case, (rc, text) in result.items()
        }

    def finish(self) -> dict:
        # the reference tolerances hold at the full run count only, so no --check
        rc, _ = self._simulate("all", inputs.MC_SHORT_RUNS, self.work / "mc_short")
        return {"short_rc": rc}


class EstimateCsv:
    """``causalest estimate`` on CSVs: DR with the bootstrap, and score matching.

    The matching bootstrap runs through ``bootstrap_variance`` with the same
    steps as ``causalest estimate --method match`` (fit, trim, match), not
    through ``--bootstrap``: that option fails on some seeds because it
    requires the percentile interval to bracket the point.
    """

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed
        with np.load(work / "match.npz") as data:
            self.match = {k: data[k] for k in data.files}
        self.parts = {"dr": 1 + inputs.DR_BOOT, "match": 1, "match_boot": inputs.MATCH_BOOT}

    def _cli(self, method: str, *boot: str) -> tuple[int, str]:
        return _cli([
            "estimate", "--method", method, "--data", str(self.work / f"{method}.csv"),
            "--outcome", "y", "--treatment", "d",
            "--covariates", ",".join(inputs.CSV_COVARIATES), "--seed", str(self.seed), *boot,
        ])

    @staticmethod
    def _match(ds):
        fit, kept = causalest.trim_overlap(causalest.estimate_propensity_binary(ds), *inputs.TRIM)
        return causalest.ate_matching(ds.take(kept), fit)

    def _match_boot(self):
        m = self.match
        ds = causalest.validate(m["y"], m["d"], np.column_stack([m[c] for c in inputs.CSV_COVARIATES]))
        return causalest.bootstrap_variance(ds, self._match, n_boot=inputs.MATCH_BOOT, seed=self.seed)

    def steps(self) -> dict:
        return {
            "dr": lambda: self._cli("dr", "--bootstrap", str(inputs.DR_BOOT)),
            "match": lambda: self._cli("match"),
            "match_boot": self._match_boot,
        }

    def outputs(self, result) -> dict:
        out = {p: {"rc": result[p][0], "stdout": result[p][1]} for p in ("dr", "match")}
        boot = result["match_boot"]
        out["match_boot"] = {"points": boot.points.tolist(), "failed": boot.n_failed}
        return out

    def finish(self) -> dict:
        return {}


class PanelSynth:
    """Library calls no CLI command reaches: the panel bootstrap and synthetic control."""

    def __init__(self, work: Path, seed: int):
        self.seed = seed
        with np.load(work / "panel.npz") as data:
            self.panel = {k: data[k] for k in data.files}
        self.problems = json.loads((work / "sc.json").read_text())
        self.parts = {"fe_boot": inputs.PANEL_BOOT}
        self.parts.update({f"sc{i}": 1 for i in range(len(self.problems))})

    def _fe_boot(self):
        pds = causalest.validate_panel(**self.panel)
        point = causalest.fit_fe(pds)
        boot = causalest.bootstrap_variance(
            pds, causalest.fit_fe, n_boot=inputs.PANEL_BOOT, seed=self.seed
        )
        return point, boot

    @staticmethod
    def _sc(problem: dict):
        return causalest.sc_fit(causalest.ScProblem(**{k: np.asarray(problem[k]) for k in inputs.SC_FIELDS}))

    def steps(self) -> dict:
        steps = {"fe_boot": self._fe_boot}
        for i, p in enumerate(self.problems):
            steps[f"sc{i}"] = functools.partial(self._sc, p)
        return steps

    def outputs(self, result) -> dict:
        point, boot = result["fe_boot"]
        fits = [result[f"sc{i}"] for i in range(len(self.problems))]
        out = {
            "fe_boot": {
                "point": point.point,
                "boot_variance": boot.variance,
                "boot_failed": boot.n_failed,
            }
        }
        for i, fit in enumerate(fits):
            out[f"sc{i}"] = {"weights": fit.weights.tolist(), "point": fit.estimate.point}
        return out

    def finish(self) -> dict:
        return {}


WORKLOADS = {"mc_suite": McSuite, "estimate_csv": EstimateCsv, "panel_synth": PanelSynth}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.work, args.seed)
    rounds, traced_spans = [], []
    begin = time.perf_counter()
    load = calibrate.load()
    while True:
        round_start = time.perf_counter()
        tracer = Tracer() if args.trace and len(rounds) % 2 == 1 else None
        result, wall, scaled, loads = {}, 0.0, 0.0, [load]
        for name, step in workload.steps().items():
            if tracer:
                tracer.install()
            start = time.perf_counter()
            result[name] = step()
            step_wall = time.perf_counter() - start
            if tracer:
                tracer.uninstall()
            after = calibrate.load()
            wall += step_wall
            scaled += step_wall * calibrate.REFERENCE_S / ((load + after) / 2.0)
            load = after
            loads.append(load)
        if tracer:
            traced_spans.append(tracer.spans)
        rounds.append({
            "elapsed": time.perf_counter() - round_start, "wall": wall, "scaled": scaled, "loads": loads,
            "traced": tracer is not None, "outputs": workload.outputs(result),
        })
        if len(rounds) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
        typical = statistics.median(r["elapsed"] for r in rounds)
        if len(rounds) >= MIN_ROUNDS and time.perf_counter() - begin + typical > args.seconds:
            break
    if traced_spans:
        write_spans(args.work / "spans.jsonl", traced_spans)
    report = {
        "parts": workload.parts,
        "rounds": rounds,
        "peak_rss_mb": peak_rss_mb,
        "finish": workload.finish(),
    }
    (args.work / "result.json").write_text(json.dumps(report))


if __name__ == "__main__":
    main()

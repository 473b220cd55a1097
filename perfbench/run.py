#!/usr/bin/env python3
"""The repository's benchmark: four seeded workloads, timed end to end,
with a separate traced run for per-layer numbers.

Run one workload (what ``BENCHMARK.json``'s command does)::

    python3 perfbench/run.py --workload social --seed 1 --seconds 12 --trace 0

``--workload all`` runs every workload, each in a fresh interpreter.
``--out FILE`` appends each run's full record (every metric with its
sample count and supported percentile, host facts, seed) to a JSON-lines
results file, and ``--compare BASE NEW`` compares two such files
metric by metric under the benchmark's bounds.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the ``end_to_end`` metrics
of ``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``).  Any failed operation or wrong answer makes the exit
code non-zero.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import metrics as M  # noqa: E402

#: Set-ups per run (at least the first, at most the second, stopping
#: once they took ``SETUP_SECONDS``); ``setup_s`` is their median.
SETUP_REPEATS = (5, 15)
SETUP_SECONDS = 3.0


def benchmark_json() -> dict:
    """The `BENCHMARK.json` at the root: which metrics the last line carries."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def host_facts() -> dict:
    import numpy

    from procs import PYTHONHASHSEED

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "child_pythonhashseed": PYTHONHASHSEED,
    }


def _git_sha() -> str:
    """HEAD's sha when the checkout is a git work tree, else "unknown"."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------
def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS, Recorder, measure

    workload = WORKLOADS[name](seed)
    rec = Recorder()
    out: dict = {}
    try:
        workload.reference()
        if trace and name == "serve":
            workload.in_process = True
        setups = []
        least, most = SETUP_REPEATS
        while len(setups) < least or (
            len(setups) < most and sum(setups) < SETUP_SECONDS
        ):
            # Garbage left by earlier work is collected outside the
            # timing, so a full collection it owes cannot land in (and
            # double) a 20 ms set-up.
            gc.collect()
            began = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - began)
        workload.run_pass(rec)  # warm-up, discarded
        rec.reset_timings()
        budget = seconds / 2 if trace else seconds
        passes, _ = measure(workload, rec, budget)
        samples = {kind: list(v) for kind, v in rec.samples.items()}
        if trace:
            from traced import traced_run

            out["per_layer"] = traced_run(workload, rec, budget, passes)
        out["rss_mb"] = workload.rss_mb()
    finally:
        workload.close()
    _check_sims(rec)
    out["samples"] = {"setup_s": setups, "pass_s": passes}
    out["end_to_end"] = _end_to_end(name, setups, passes, samples, rec, out)
    out["rec"] = rec
    return out


def _check_sims(rec) -> None:
    """The paper's simulated outputs must repeat exactly pass to pass."""
    for index, sims in enumerate(rec.sims[1:], start=1):
        if sims != rec.sims[0]:
            rec.fail(f"sim stats of pass {index} differ from pass 0")


def _end_to_end(name, setups, passes, samples, rec, out) -> dict:
    result = {
        "setup_s": M.record(statistics.median(setups), "s", len(setups), "p50"),
        "pass_s": M.record(
            M.interquartile_mean(passes), "s", len(passes), "iqm"
        ),
        "error_rate": M.record(
            len(rec.failures) / max(1, rec.attempted), "ratio",
            rec.attempted, "mean",
        ),
        "rss_mb": M.record(out["rss_mb"], "MB", 1, "max"),
    }
    if name == "serve":
        for metric, kind, p in (
            ("submit_p50_s", "submit", 50),
            ("submit_p95_s", "submit", 95),
            ("read_p50_s", "read", 50),
            ("ingest_p50_s", "ingest", 50),
        ):
            values = samples.get(kind, [])
            result[metric] = M.record(
                M.percentile(values, p), "s", len(values), f"p{p}"
            )
    else:
        first = [s for s in rec.sims[0] if len(s) == 4] if rec.sims else []
        n = len(rec.sims)
        result["sim_makespan_s"] = M.record(
            sum(s[1] for s in first), "s", n, "exact")
        result["sim_comm_mb"] = M.record(
            sum(s[2] for s in first) / 1e6, "MB", n, "exact")
        result["sim_peak_mb"] = M.record(
            max((s[3] for s in first), default=0) / 1e6, "MB", n, "exact")
    return result


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------
def _print_table(title: str, table: dict) -> None:
    print(f"== {title}")
    for key, entry in table.items():
        print(
            f"  {key:34s} {entry['value']:>14.6g} {entry['unit']:6s}"
            f" n={entry['samples']:<6d} {entry['percentile']:>5s}"
            f" (supports {entry['supports']})"
        )


def main_one(args) -> int:
    host = host_facts()
    print(f"workload {args.workload} seed {args.seed} "
          f"host {json.dumps(host, sort_keys=True)}", flush=True)
    out = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    rec = out.pop("rec")
    spec = benchmark_json()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "attempted": rec.attempted,
        "failed": len(rec.failures),
        "failures": rec.failures[:20],
        "end_to_end": out["end_to_end"],
        "per_layer": out.get("per_layer", {}),
        "samples": out["samples"],
    }
    _print_table("end to end (untraced)", record["end_to_end"])
    if record["per_layer"]:
        _print_table("per layer (traced)", record["per_layer"])
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    table = record["per_layer"] if args.trace else record["end_to_end"]
    correct = not rec.failures
    print(json.dumps({
        "correct": correct,
        "attempted": rec.attempted,
        "failed": len(rec.failures),
        "metrics": {
            name: {"value": table[name]["value"], "unit": table[name]["unit"]}
            for name in names
        },
    }))
    return 0 if correct else 1


def main_all(args) -> int:
    """Every workload, each in a fresh interpreter."""
    failed = attempted = 0
    ok = True
    metrics: dict = {}
    for name in M.ALL:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--out", args.out] if args.out else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            last = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"workload {name} produced no result (exit {proc.returncode})")
            ok = False
            continue
        ok = ok and last["correct"] and proc.returncode == 0
        attempted += last["attempted"]
        failed += last["failed"]
        metrics.update(
            {f"{name}.{key}": value for key, value in last["metrics"].items()}
        )
    print(json.dumps({
        "correct": ok, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0 if ok else 1


def main_compare(base_path: str, new_path: str) -> int:
    """Per-workload, per-metric medians, quartiles and verdicts.

    Exact metrics (bound 0: the simulated outputs, ``error_rate``) are
    compared seed by seed instead: any difference on a seed both files
    ran is ``changed``, which fails the comparison like ``worse``.
    """
    def load(path):
        runs: dict = {}
        with open(path) as fh:
            for line in fh:
                if line.strip():
                    rec = json.loads(line)
                    for section in ("end_to_end", "per_layer"):
                        for key, entry in rec.get(section, {}).items():
                            runs.setdefault(rec["workload"], {}).setdefault(
                                key, []
                            ).append((rec["seed"], entry["value"]))
        return runs

    base, new = load(base_path), load(new_path)
    failed = False
    for workload in sorted(set(base) & set(new)):
        print(f"== {workload}")
        for key in sorted(set(base[workload]) & set(new[workload])):
            metric = M.BY_NAME[key]
            b = [value for _, value in base[workload][key]]
            n = [value for _, value in new[workload][key]]
            verdict, change = M.verdict(metric, b, n)
            if metric.bound is None:
                verdict = "(layer)"
            elif metric.bound == 0:
                by_seed = dict(base[workload][key])
                verdict = "same" if all(
                    by_seed[seed] == value
                    for seed, value in new[workload][key] if seed in by_seed
                ) else "changed"
            bq, nq = M.quartiles(b), M.quartiles(n)
            print(
                f"  {key:34s} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}] n={len(b)}"
                f"  new {nq[1]:.6g} [{nq[0]:.6g}, {nq[2]:.6g}] n={len(n)}"
                f"  {change:+.1%} {verdict}"
            )
            failed = failed or verdict in ("worse", "changed")
    return 1 if failed else 0


def _terminate(signum, frame) -> None:
    # SIGTERM unwinds like an exception, so every ``finally`` that kills
    # child processes and removes scratch files still runs.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*M.ALL, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append full records to this JSONL file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return main_compare(*args.compare)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.workload is None:
        parser.error("--workload or --compare is required")
    if args.workload == "all":
        return main_all(args)
    return main_one(args)


if __name__ == "__main__":
    sys.exit(main())

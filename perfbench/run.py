"""tradenet benchmark: end-to-end and per-layer numbers for three workloads.

    python3 perfbench/run.py --workload screen --seed 7 --seconds 30 --trace 0

Run from the root of a tradenet checkout; the package is imported from its
``src/`` directory.  Each run makes its corpus from ``--seed``, then calls
the public CLI entry point ``tradenet.cli.main`` with the flags of the
README session and without ``--jobs``, in one fresh process, until
``--seconds`` have passed (at least three calls, four when tracing).  Every
call's output is checked, digested and removed by that process right after
the call, outside its timing, so one output at a time is on disk.  The last
line of standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` (stocks over all calls) and ``metrics``.

Workloads (the corpus is the input, the timed call is the subcommand):

* ``screen``: ``detect --bootstrap 0`` on 12 stocks, 2 manipulated (one
  with a partial window).  The surveillance job: CSV parsing and x_min
  scans, then networks and the re-featurized reference stocks.
* ``calibrate``: ``fit --bootstrap 5`` on 8 honest stocks.  The p-value
  job: nearly all bootstrap refits; parsing barely shows, so a parse change
  should leave it unchanged.
* ``synthesize``: ``simulate`` of the ``screen`` corpus.  The write side
  of ingest beside the simulator; work moved from parsing into writing
  shows here.

``--trace 0`` reports the end-to-end metrics, with tracing off:
``wall_s`` (median over the run's calls), ``rows_per_s`` (rows read, or
written for ``synthesize``, per ``wall_s``),
``setup_s`` (median corpus generation over several set-ups; for
``synthesize`` the package import) and ``peak_rss_mb`` of the process after
its first call.  ``failed_frac`` and, for ``screen``, ``verdict_errors`` are
printed above the JSON line; failed stocks are also its ``failed`` field.

``--trace 1`` alternates untraced and traced calls and reports the
per-layer metrics of ``spans.py`` plus ``trace.overhead_s``, the traced
minus the untraced median wall time.  Counts must repeat exactly between
traced calls.

``wall_s``, ``setup_s`` and ``trace.overhead_s`` are host-scaled: each
timed call or set-up is multiplied by ``REF_NOMINAL_S`` over the time of a
fixed reference kernel run in the same process right before and after it.
They read as seconds on a host where that kernel takes ``REF_NOMINAL_S``.
On a 2-core x86-64 share of a busy host, whose speed drifted by up to 1.8x
over minutes and alike for all three workloads, the raw median times of ten
runs on ten seeds spread 0.11 to 0.43 (quartile distance over median); the
scaled ones spread 0.06 for ``synthesize`` and 0.03 to 0.15 for ``screen``
and ``calibrate``, whose work also changes with the seed.  A change to the
program moves the call time and not the kernel, so it shows in full.  Raw
times print beside the scaled ones.

``python3 -m pytest perfbench -q`` runs the benchmark's self-test on a tiny
corpus.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import checks
import spans

HERE = Path(__file__).resolve().parent
SETUP_REPS = 3
SETUP_SECONDS = 3.0
MIN_CALLS = 3
MIN_TRACED_PAIRS = 2
# A run, child processes included, must end within this many seconds.
RUN_LIMIT_S = 170
DAYS = "30"
SCREEN_CORPUS = ["--honest", "10", "--manipulated", "2", "--partial", "1", "--days", DAYS]
CALIBRATE_CORPUS = ["--honest", "8", "--manipulated", "0", "--days", DAYS]
# Predicted inclusive share of cli.main per span; a traced run prints its
# measured shares against these, and a gap above SHARE_TOLERANCE stands out.
# Parsing grows with the rows and the scans more slowly, so at 250 days the
# screen split is closer to 60% parsing and 30% scans.
SHARE_TOLERANCE = 0.15
# The reference kernel's time on the nominal host that scaled times refer
# to: about its median on the 2-core x86-64 host the benchmark was built on.
REF_NOMINAL_S = 0.04


@dataclass(frozen=True)
class Workload:
    """A corpus made in set-up (simulate flags; None for no corpus) and the
    timed CLI call, whose CORPUS, OUT and SEED arguments are filled in."""

    name: str
    corpus: list[str] | None
    timed: list[str]
    predicted: dict[str, float]

    def argv(self, corpus, out, seed: int) -> list[str]:
        fill = {"CORPUS": str(corpus), "OUT": str(out), "SEED": str(seed)}
        return [fill.get(a, a) for a in self.timed]


WORKLOADS = {w.name: w for w in (
    Workload("screen", SCREEN_CORPUS,
             ["detect", "--corpus", "CORPUS", "--out", "OUT", "--bootstrap", "0"],
             {"ingest.parse_transactions": 0.40, "powerlaw.scan_xmin": 0.50}),
    Workload("calibrate", CALIBRATE_CORPUS,
             ["fit", "--corpus", "CORPUS", "--out", "OUT", "--bootstrap", "5",
              "--seed", "SEED"],
             {"powerlaw.gof_pvalue": 0.85, "ingest.parse_transactions": 0.07}),
    Workload("synthesize", None,
             ["simulate", "--out", "OUT", "--seed", "SEED"] + SCREEN_CORPUS,
             {"ingest.write_transactions": 0.50, "sim.simulate": 0.48}),
)}


class Child:
    """Runs child.py in fresh processes against one source tree, killing
    any that is still running at the run's deadline."""

    def __init__(self, root: Path):
        self.root = root
        self.src = root / "src"
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def __call__(self, *flags: str, argv: list[str] = ()) -> dict:
        cmd = [sys.executable, str(HERE / "child.py"), "--src", str(self.src),
               *flags, "--", *argv]
        proc = subprocess.run(cmd, cwd=self.root, capture_output=True, text=True,
                              timeout=max(1.0, self.deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError(f"child exited {proc.returncode}:\n" + proc.stderr[-2000:])
        return json.loads(proc.stdout.strip().splitlines()[-1])


def set_up(child: Child, work: Path, workload: Workload, seed: int, problems: list):
    """Make the workload's input at least SETUP_REPS times and for at least
    SETUP_SECONDS, in one process.

    Returns (corpus directory or None, set-ups, expected rows or None); each
    set-up has its ``wall_s`` and ``ref_s``.
    Generated corpora must all have the same digest.  ``synthesize`` has no
    input; its set-up is the package import, in fresh processes, and its
    expected row counts come from the simulator in memory.
    """
    if workload.corpus is None:
        imports = [child("--import-only") for _ in range(SETUP_REPS)]
        times = [{"wall_s": i["import_s"], "ref_s": i["ref_s"]} for i in imports]
        rows = child("--expected-rows", argv=workload.argv(None, "OUT", seed))["rows"]
        return None, times, rows
    base = work / "setup"
    res = child("--out-base", str(base), "--min-calls", str(SETUP_REPS),
                "--seconds", str(SETUP_SECONDS), "--keep-first",
                argv=["simulate", "--out", "OUT", "--seed", str(seed)] + workload.corpus)
    for call in res["calls"]:
        if call["exit_code"] != 0:
            problems.append(f"corpus generation exited {call['exit_code']}")
    if len({call["output"]["digest"] for call in res["calls"]}) != 1:
        problems.append("corpus digest differs between set-ups of one seed")
    return base / "call0", res["calls"], None


def host_scaled(timed: dict) -> float:
    """A call's or set-up's wall time at the nominal host speed."""
    return timed["wall_s"] * REF_NOMINAL_S / timed["ref_s"]


def run(args, root: Path, work: Path) -> dict:
    workload = WORKLOADS[args.workload]
    child = Child(root)
    problems: list[str] = []

    corpus, setups, expected_rows = set_up(child, work, workload, args.seed, problems)
    if corpus is not None:
        labels = checks.corpus_labels(corpus)
        rows, size = checks.corpus_size(corpus)
    else:
        labels = dict.fromkeys(expected_rows, False)
        rows, size = sum(expected_rows.values()), None

    expect = work / "expect.json"
    expect.write_text(json.dumps({"subcommand": workload.timed[0], "labels": labels,
                                  "expected_rows": expected_rows}), encoding="utf-8")
    flags = ["--out-base", str(work / "calls"), "--seconds", str(args.seconds),
             "--min-calls", str(2 * MIN_TRACED_PAIRS if args.trace else MIN_CALLS),
             "--expect", str(expect)]
    res = child(*flags, *(["--trace"] if args.trace else []),
                argv=workload.argv(corpus, "OUT", args.seed))
    calls = res["calls"]
    failed_total = verdict_errors = 0
    for call in calls:
        output = call["output"]
        failed_total += len(output["failed"])
        verdict_errors = max(verdict_errors, output["verdict_errors"])
        problems.extend(output["problems"])
    digests = {call["output"]["digest"] for call in calls}
    if len(digests) != 1:
        problems.append("artifact digest differs between calls of one seed")
    if size is None:
        size = calls[0]["output"]["bytes"]

    untraced = [c for c in calls if not c["traced"]]
    traced = [c for c in calls if c["traced"]]
    attempted = len(labels) * len(calls)
    wall = statistics.median(map(host_scaled, untraced))
    facts = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"), "machine": platform.machine(),
        "stocks": len(labels), "rows": rows, "bytes": size,
        "calls": len(calls), "traced_calls": len(traced),
        "argv": workload.argv("CORPUS", "OUT", args.seed),
        "digest": min(digests)[:16],
    }
    if args.trace:
        summaries = [c["summary"] for c in traced]
        counts = [spans.counts_of(s) for s in summaries]
        if any(c != counts[0] for c in counts):
            problems.append("trace counts differ between calls of one seed")
        metrics = spans.layer_metrics(summaries, len(labels))
        overhead = statistics.median(map(host_scaled, traced)) - wall
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["detector.verdict_errors"] = (verdict_errors, "count")
    else:
        setup = statistics.median(map(host_scaled, setups))
        metrics = {"wall_s": (wall, "s"), "rows_per_s": (rows / wall, "rows/s"),
                   "setup_s": (setup, "s"), "peak_rss_mb": (res["peak_rss_mb"], "MB")}

    print("facts " + json.dumps(facts, sort_keys=True))
    print(f"failed_frac {failed_total / attempted:.6g} ratio "
          f"({failed_total} of {attempted} stock outputs missing or invalid)")
    if workload.timed[0] == "detect":
        print(f"verdict_errors {verdict_errors} count "
              f"(verdicts that disagree with the simulator's labels, of {len(labels)})")
    for p in dict.fromkeys(problems):
        print(f"problem: {p}")
    walls = sorted(c["wall_s"] for c in untraced)
    refs = [c["ref_s"] for c in untraced]
    print(f"samples: {len(walls)} untraced calls, raw wall_s min {walls[0]:.4f} "
          f"median {statistics.median(walls):.4f} max {walls[-1]:.4f}; "
          f"reference {min(refs):.4f} to {max(refs):.4f}; {len(setups)} set-ups, "
          + ", ".join(f"{c['wall_s']:.4f}" for c in setups))
    if args.trace:
        measured = spans.shares(summaries[0])
        for name, predicted in workload.predicted.items():
            got = measured.get(name, 0.0)
            verdict = "agrees" if abs(got - predicted) <= SHARE_TOLERANCE else "DISAGREES"
            print(f"share {name} measured {got:.3f} predicted {predicted:.2f} ({verdict})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return {"correct": not problems and failed_total == 0, "attempted": attempted,
            "failed": failed_total,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "tradenet" / "cli.py").is_file():
        print(f"error: no tradenet source under {root / 'src'}; "
              "run from the root of a tradenet checkout", file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = run(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

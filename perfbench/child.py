"""Run tradenet CLI calls in one fresh process and report on them.

    python3 perfbench/child.py --src SRC --out-base DIR [--seconds T]
        [--min-calls N] [--trace] [--expect FILE] [--keep-first]
        -- SUBCOMMAND ARGS...
    python3 perfbench/child.py --src SRC --import-only
    python3 perfbench/child.py --src SRC --expected-rows -- simulate ARGS...

The first form imports ``tradenet`` from SRC and calls ``tradenet.cli.main``
at least N times and until T seconds have passed, replacing the argument
``OUT`` with ``DIR/call<i>`` so each call writes its own output.  After
each call, outside its timing, the output is digested, checked against the
JSON file given by --expect (see ``checks.check_output``) and removed;
--keep-first keeps the first call's output.  The peak RSS is read after the
first call, so it is that of a fresh process that ran only the timed call.
With --trace every second call is traced.  The last line printed is a JSON
object with the import time, the peak RSS, and per call the wall time, exit
code, the CLI's standard output, the output's digest, size and check
results, the reference time around the call (see ``_reference``) and, for
traced calls, the span summary.

The second form reports the import time and then the reference time.  The third prints the row
count the simulator produces for each stock of a ``simulate`` command line,
computed in memory through the library API from the command's
``--dump-config`` output, without writing any file.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import resource
import sys
import time
from pathlib import Path

import checks


def _import_tradenet(src: Path):
    sys.path.insert(0, str(src))
    import tradenet.cli
    if Path(tradenet.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"tradenet imported from {tradenet.__file__}, not {src}")
    return tradenet


def _call(tradenet, argv: list[str], trace: bool) -> dict:
    if trace:
        from spans import Tracer  # kept out of the timed package import
        tracer = Tracer()
    else:
        tracer = contextlib.nullcontext()
    out = io.StringIO()
    with tracer, contextlib.redirect_stdout(out):
        start = time.perf_counter()
        code = tradenet.cli.main(argv)
        wall = time.perf_counter() - start
    result = {"wall_s": wall, "exit_code": code, "stdout": out.getvalue(), "traced": trace}
    if trace:
        result["summary"] = tracer.summary()
    return result


def _reference() -> float:
    """Seconds taken by a fixed kernel of interpreter, numpy and scipy work,
    the best of two tries: the speed of the host at this moment.  Imports
    stay inside so they never fall in the timed package import."""
    import numpy as np
    from scipy.special import zeta

    data = np.random.default_rng(0).random(100_000)
    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        np.sort(data)
        zeta(2.5, data + 1.0)
        best = min(best, time.perf_counter() - start)
    return best


def _calls(tradenet, argv: list[str], args) -> dict:
    expect = json.loads(args.expect.read_text(encoding="utf-8")) if args.expect else None
    calls, peak_rss_mb = [], None
    ref_before = _reference()
    start = time.perf_counter()
    while (len(calls) < args.min_calls
           or time.perf_counter() - start < args.seconds):
        out = args.out_base / f"call{len(calls)}"
        gc.collect()
        call = _call(tradenet, [str(out) if a == "OUT" else a for a in argv],
                     args.trace and len(calls) % 2 == 1)
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        ref_after = _reference()
        call["ref_s"] = (ref_before + ref_after) / 2
        ref_before = ref_after
        call["output"] = checks.settle(out, call["exit_code"], expect,
                                       keep=args.keep_first and not calls)
        calls.append(call)
    return {"peak_rss_mb": peak_rss_mb, "calls": calls}


def _expected_rows(tradenet, argv: list[str]) -> dict[str, int]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if tradenet.cli.main(argv + ["--dump-config"]) != 0:
            raise SystemExit("--dump-config failed")
    cfg = json.loads(out.getvalue())
    sim = tradenet.sim
    base = sim.SimConfig(n_days=cfg["days"], n_traders=cfg["traders"],
                         trades_per_day=cfg["trades_per_day"],
                         n_colluders=cfg["colluders"],
                         wash_volume_fraction=cfg["wash_fraction"])
    group = sim.GroupSpec(capitalization_bucket=cfg["bucket"], sector=cfg["sector"],
                          honest=cfg["honest"], manipulated=cfg["manipulated"],
                          partial=cfg["partial"])
    spec = sim.CorpusSpec(groups=(group,), master_seed=cfg["seed"], base=base)
    return {r.log.meta.symbol: r.log.n_records for r in sim.generate_corpus(spec)}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--out-base", type=Path)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-calls", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--expect", type=Path)
    parser.add_argument("--keep-first", action="store_true")
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--expected-rows", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    start = time.perf_counter()
    tradenet = _import_tradenet(args.src)
    result = {"import_s": time.perf_counter() - start}
    if args.import_only:
        result["ref_s"] = _reference()
    if args.expected_rows:
        result["rows"] = _expected_rows(tradenet, argv)
    elif not args.import_only:
        result.update(_calls(tradenet, argv, args))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Output checks and artifact digests for the benchmark workloads.

Each check returns the symbols whose output is missing or invalid, plus a
list of problems that concern the run as a whole.  Nothing here imports
tradenet: the outputs are judged from the files alone.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from pathlib import Path

CSV_HEADER = b"date,time,txn_id,buyer_id,seller_id,volume,price\n"
STATS = ("degree_in", "degree_out", "strength_in", "strength_out", "strength_total")
ALPHA_MAX = 20.0


def digest(root: Path) -> str:
    """SHA-256 over every file under root except manifest.json, the one
    artifact that carries a timestamp."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        if path.name == "manifest.json":
            continue
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def corpus_labels(corpus: Path) -> dict[str, bool]:
    """Symbol -> the simulator's ``manipulated`` label, from the sidecars."""
    labels = {}
    for csv in sorted(corpus.glob("*.csv")):
        meta = json.loads(csv.with_suffix(".json").read_text(encoding="utf-8"))
        labels[meta["symbol"]] = bool(meta["manipulated"])
    return labels


def corpus_size(corpus: Path) -> tuple[int, int]:
    """(transaction rows, CSV bytes) of a corpus directory."""
    rows = size = 0
    for csv in corpus.glob("*.csv"):
        data = csv.read_bytes()
        rows += data.count(b"\n") - 1
        size += len(data)
    return rows, size


def _report_ok(report) -> bool:
    """A report is valid when its score and verdict follow from its flags."""
    try:
        flags = report["flags"]
        evaluated = [v for v in flags.values() if v is not None]
        if not all(isinstance(v, bool) for v in evaluated):
            return False
        score = sum(evaluated) / len(evaluated) if evaluated else 0.0
        threshold = report["thresholds"]["decision_threshold"]
        verdict = bool(evaluated) and score >= threshold
        return (isinstance(report["verdict"], bool) and report["verdict"] == verdict
                and math.isclose(report["score"], score, abs_tol=1e-12))
    except (KeyError, TypeError, AttributeError):
        return False


def check_reports(out: Path, labels: dict[str, bool], exit_code: int):
    """``detect`` output: one valid report per stock.  Exit code 1 means
    some stock was flagged and must agree with the verdicts; 2 is a failure.

    Returns (failed symbols, verdict errors, problems)."""
    symbols = sorted(labels)
    if exit_code not in (0, 1):
        return symbols, 0, [f"detect exited {exit_code}"]
    try:
        reports = json.loads((out / "reports.json").read_text(encoding="utf-8"))
        by_symbol: dict[str, list] = {}
        for r in reports:
            by_symbol.setdefault(r["symbol"], []).append(r)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return symbols, 0, [f"reports.json unreadable: {exc}"]
    problems = [f"report for unknown stock {s}" for s in sorted(set(by_symbol) - set(labels))]
    failed, verdict_errors, flagged = [], 0, False
    for sym in symbols:
        found = by_symbol.get(sym, [])
        if len(found) != 1 or not _report_ok(found[0]):
            failed.append(sym)
            continue
        flagged |= found[0]["verdict"]
        verdict_errors += found[0]["verdict"] != labels[sym]
    if not failed and flagged != (exit_code == 1):
        problems.append(f"exit code {exit_code} disagrees with the verdicts")
    return failed, verdict_errors, problems


def _fit_ok(fit) -> bool:
    try:
        return (math.isfinite(fit["ks_distance"])
                and 1.0 < fit["alpha"] <= ALPHA_MAX
                and fit["p_value"] is not None and 0.0 <= fit["p_value"] <= 1.0)
    except (KeyError, TypeError):
        return False


def check_fits(out: Path, symbols: list[str], exit_code: int):
    """``fit`` output: per stock five fits with finite KS, alpha in
    (1, 20] and a p-value in [0, 1].  Returns (failed symbols, problems)."""
    problems = [] if exit_code == 0 else [f"fit exited {exit_code}"]
    failed = []
    for sym in symbols:
        try:
            doc = json.loads((out / "fits" / f"{sym}.json").read_text(encoding="utf-8"))
            fits = doc["fits"]
            ok = (doc["symbol"] == sym and sorted(fits) == sorted(STATS)
                  and all(_fit_ok(fits[s]) for s in STATS))
        except (OSError, ValueError, KeyError, TypeError):
            ok = False
        if not ok:
            failed.append(sym)
    return failed, problems


def check_csvs(out: Path, expected_rows: dict[str, int], exit_code: int):
    """``simulate`` output: per stock a CSV with the header and the expected
    row count, and its JSON sidecar.  Returns (failed symbols, problems)."""
    problems = [] if exit_code == 0 else [f"simulate exited {exit_code}"]
    written = {p.stem for p in out.glob("*.csv")}
    problems += [f"unexpected CSV {s}.csv" for s in sorted(written - set(expected_rows))]
    failed = []
    for sym, rows in sorted(expected_rows.items()):
        csv = out / f"{sym}.csv"
        try:
            data = csv.read_bytes()
            ok = (data.startswith(CSV_HEADER) and data.endswith(b"\n")
                  and data.count(b"\n") - 1 == rows
                  and csv.with_suffix(".json").is_file())
        except OSError:
            ok = False
        if not ok:
            failed.append(sym)
    return failed, problems


def check_output(expect: dict, out: Path, exit_code: int):
    """One call's output judged by ``expect``: the subcommand, the corpus
    labels and, for ``simulate``, the expected rows per stock.

    Returns (failed symbols, verdict errors, problems)."""
    subcommand, labels = expect["subcommand"], expect["labels"]
    if subcommand == "detect":
        return check_reports(out, labels, exit_code)
    if subcommand == "fit":
        failed, problems = check_fits(out, sorted(labels), exit_code)
    else:
        failed, problems = check_csvs(out, expect["expected_rows"], exit_code)
    return failed, 0, problems


def settle(out: Path, exit_code: int, expect: dict | None, keep: bool) -> dict:
    """Digests one call's output, checks it against ``expect`` if given,
    and removes it unless ``keep``, so that a run holds one output at a time
    on disk however many calls it makes."""
    result = {"digest": digest(out), "bytes": corpus_size(out)[1],
              "failed": [], "verdict_errors": 0, "problems": []}
    if expect is not None:
        failed, errors, problems = check_output(expect, out, exit_code)
        result.update(failed=failed, verdict_errors=errors, problems=problems)
    if not keep:
        shutil.rmtree(out, ignore_errors=True)
    return result

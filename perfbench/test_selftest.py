"""Self-test of the benchmark on a tiny corpus.

    python3 -m pytest perfbench -q

Run from the root of a tradenet checkout.  Checks that spans nest as the
call graph does, that a traced run's counts and digests repeat exactly for
one seed, and that the output checks reject corrupted outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import checks
import run
import spans

ROOT = Path(__file__).resolve().parent.parent
TINY = ["--honest", "3", "--manipulated", "1", "--days", "10", "--traders", "300",
        "--trades-per-day", "40", "--colluders", "20"]
TINY_WORKLOADS = {
    "screen": replace(run.WORKLOADS["screen"], corpus=TINY),
    "calibrate": replace(run.WORKLOADS["calibrate"], corpus=TINY,
                         timed=["fit", "--corpus", "CORPUS", "--out", "OUT",
                                "--bootstrap", "2", "--seed", "SEED"]),
    "synthesize": replace(run.WORKLOADS["synthesize"],
                          timed=["simulate", "--out", "OUT", "--seed", "SEED"] + TINY),
}


@pytest.fixture(scope="module")
def cli():
    sys.path.insert(0, str(ROOT / "src"))
    import tradenet.cli
    return tradenet.cli


def quiet(cli, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


@pytest.fixture(scope="module")
def corpus(cli, tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("corpus")
    assert quiet(cli, ["simulate", "--out", str(path), "--seed", "3", *TINY]) == 0
    return path


def test_spans_nest_like_the_call_graph(cli, corpus, tmp_path):
    original = cli.load_corpus
    with spans.Tracer() as tracer:
        assert cli.load_corpus is not original
        assert quiet(cli, ["fit", "--corpus", str(corpus), "--out", str(tmp_path),
                           "--bootstrap", "2", "--seed", "1"]) == 0
    assert cli.load_corpus is original

    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in roots] == ["cli.main"]
    refit_scans = [tracer.ancestors(s) for s in tracer.spans
                   if s.name == "powerlaw.scan_xmin"
                   and "powerlaw.gof_pvalue" in tracer.ancestors(s)]
    assert refit_scans
    for names in refit_scans:
        assert names.index("powerlaw.gof_pvalue") < names.index("powerlaw.fit_tail")
        assert names[0] == "powerlaw.select_xmin"
    parses = [s for s in tracer.spans if s.name == "ingest.parse_transactions"]
    assert len(parses) == 4
    assert all("ingest.load_corpus" in tracer.ancestors(s) for s in parses)

    summary = tracer.summary()
    assert summary["powerlaw.refit"]["calls"] == 4 * 5 * 2
    assert summary["powerlaw.gof_pvalue"]["replicas"] == 4 * 5 * 2
    for agg in summary.values():
        if "self_s" in agg:
            assert 0.0 <= agg["self_s"] <= agg["incl_s"] + 1e-9


def _run_twice(name: str, monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(run.WORKLOADS, name, TINY_WORKLOADS[name])
    outcomes = []
    for i in range(2):
        work = tmp_path / f"{name}{i}"
        work.mkdir()
        args = argparse.Namespace(workload=name, seed=5, seconds=0.0, trace=1)
        result = run.run(args, ROOT, work)
        printed = capsys.readouterr().out.splitlines()
        facts = json.loads(next(l for l in printed if l.startswith("facts "))[6:])
        outcomes.append((result, facts))
    return outcomes


@pytest.mark.parametrize("name", sorted(TINY_WORKLOADS))
def test_counts_and_digests_repeat_for_one_seed(name, monkeypatch, tmp_path, capsys):
    (first, facts1), (second, facts2) = _run_twice(name, monkeypatch, tmp_path, capsys)
    assert first["correct"] and second["correct"]
    assert facts1["digest"] == facts2["digest"]
    assert facts1["rows"] == facts2["rows"] > 0
    counts = [{k: m["value"] for k, m in r["metrics"].items() if m["unit"] == "count"}
              for r in (first, second)]
    assert counts[0] == counts[1]
    assert set(first["metrics"]) == set(spans.layer_metrics([{}], 1)) | {
        "trace.overhead_s", "detector.verdict_errors"}
    expected_calls = {"screen": ("ingest.parse.calls", 4),
                      "calibrate": ("powerlaw.gof_pvalue.replicas", 4 * 5 * 2),
                      "synthesize": ("sim.simulate.calls", 4)}[name]
    assert counts[0][expected_calls[0]] == expected_calls[1]


def test_checks_reject_corrupted_outputs(cli, corpus, tmp_path):
    labels = checks.corpus_labels(corpus)
    det = tmp_path / "detect"
    code = quiet(cli, ["detect", "--corpus", str(corpus), "--out", str(det),
                       "--bootstrap", "0"])
    assert checks.check_reports(det, labels, code)[::2] == ([], [])
    assert checks.check_reports(det, labels, 2)[0] == sorted(labels)

    intact = checks.digest(det)
    path = det / "reports.json"
    reports = json.loads(path.read_text())
    reports[1]["verdict"] = not reports[1]["verdict"]
    path.write_text(json.dumps(reports))
    assert checks.digest(det) != intact
    assert checks.check_reports(det, labels, code)[0] == [reports[1]["symbol"]]

    fits = tmp_path / "fit"
    code = quiet(cli, ["fit", "--corpus", str(corpus), "--out", str(fits),
                       "--bootstrap", "2", "--seed", "1"])
    assert checks.check_fits(fits, sorted(labels), code) == ([], [])
    path = fits / "fits" / "S002.json"
    doc = json.loads(path.read_text())
    doc["fits"]["degree_in"]["alpha"] = 25.0
    path.write_text(json.dumps(doc))
    assert checks.check_fits(fits, sorted(labels), code)[0] == ["S002"]

    copy = tmp_path / "corpus"
    shutil.copytree(corpus, copy)
    expected = {p.stem: p.read_bytes().count(b"\n") - 1 for p in copy.glob("*.csv")}
    assert checks.check_csvs(copy, expected, 0) == ([], [])
    path = copy / "S001.csv"
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:-1]))
    assert checks.check_csvs(copy, expected, 0)[0] == ["S001"]

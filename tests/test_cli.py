import ast
import dataclasses
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest

from tradenet import __version__, cli, ingest
from tradenet.cli import build_parser, main
from tradenet.features import compute_features
from tradenet.powerlaw import GofConfig, TailFit
from tradenet.sim import simulate

SIM_ARGS = ["--traders", "300", "--trades-per-day", "50", "--days", "50",
            "--colluders", "40"]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    rc = main(["simulate", "--out", str(out), "--honest", "10",
               "--manipulated", "2", "--seed", "7", *SIM_ARGS])
    assert rc == 0
    return out


def test_simulate_layout(corpus):
    csvs = sorted(p.name for p in corpus.glob("*.csv"))
    assert len(csvs) == 12
    assert (corpus / "S000.json").exists()
    manifest = json.loads((corpus / "corpus_manifest.json").read_text())
    assert manifest["master_seed"] == 7
    assert len(manifest["stocks"]) == 12


def test_corpus_records_the_project_version(corpus):
    """A corpus names the version that simulated it: the package's, which
    pyproject.toml repeats (read with a regex, as Python 3.10 has no
    tomllib)."""
    manifest = json.loads((corpus / "corpus_manifest.json").read_text())
    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text(
        encoding="utf-8")
    assert re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE)[1] == __version__
    assert manifest["toolkit_version"] == __version__


def test_detect_end_to_end(corpus, tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["detect", "--corpus", str(corpus), "--out", str(out),
               "--bootstrap", "0", "--min-tail", "30"])
    assert rc == 1  # at least one verdict
    reports = json.loads((out / "reports.json").read_text())
    assert len(reports) == 12
    flagged = {r["symbol"] for r in reports if r["verdict"]}
    truth = {json.loads(p.read_text())["symbol"]
             for p in corpus.glob("*.json")
             if p.name != "corpus_manifest.json" and p.name != "manifest.json"
             and json.loads(p.read_text()).get("manipulated")}
    assert truth <= flagged  # both rings caught
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["config"]) == sorted(PINNED_DEFAULTS["detect"])


def test_fit_writes_reports(corpus, tmp_path):
    out = tmp_path / "fits_run"
    rc = main(["fit", "--corpus", str(corpus), "--out", str(out),
               "--bootstrap", "20", "--min-tail", "30", "--seed", "3"])
    assert rc == 0
    fits = json.loads((out / "fits" / "S000.json").read_text())
    assert fits["symbol"] == "S000"
    for stat in ("degree_in", "degree_out", "strength_in", "strength_out",
                 "strength_total"):
        entry = fits["fits"][stat]
        assert entry["x_min"] >= 1
        assert entry["alpha"] > 1.0
        assert entry["ccdf_exponent"] == pytest.approx(entry["alpha"] - 1.0)
        assert 0.0 <= entry["p_value"] <= 1.0
        assert entry["alpha_at_bound"] is False


def test_detect_never_bootstraps(corpus, tmp_path, monkeypatch):
    def no_bootstrap(*args, **kwargs):
        raise AssertionError("detect computed a bootstrap p-value")

    monkeypatch.setattr("tradenet.powerlaw.gof_pvalue", no_bootstrap)
    rc = main(["detect", "--corpus", str(corpus), "--out", str(tmp_path / "run"),
               "--min-tail", "30"])
    assert rc == 1


def test_fit_and_features_agree(corpus, tmp_path):
    """One features run writes fits/ and features.csv from the same fits:
    every TailFit field of every statistic agrees, p-values included."""
    out = tmp_path / "agree"
    assert main(["features", "--corpus", str(corpus), "--out", str(out), "--bootstrap", "2",
                 "--seed", "1", "--min-tail", "30"]) == 0
    header, *rows = (out / "features.csv").read_text().strip().split("\n")
    assert len(rows) == 12
    cells = {"x_min": int, "n_tail": int, "levy_stable": lambda c: c == "true",
             "alpha_at_bound": lambda c: c == "true"}
    for line in rows:
        row = dict(zip(header.split(","), line.split(",")))
        doc = json.loads((out / "fits" / f"{row['symbol']}.json").read_text())
        assert len(doc["fits"]) == 5
        for stat, fit in doc["fits"].items():
            assert sorted(fit) == sorted(f.name for f in dataclasses.fields(TailFit))
            assert fit["p_value"] is not None
            for name, value in fit.items():
                cell = row[f"{stat}_{'xmin' if name == 'x_min' else name}"]
                assert cells.get(name, float)(cell) == value


def test_fit_is_another_name_for_features(corpus, tmp_path, capsys):
    """fit and features with one argv print the same and write the same
    bytes; only manifest.json, which names the subcommand, differs."""
    runs = []
    for subcommand in ("fit", "features"):
        out = tmp_path / subcommand
        capsys.readouterr()
        assert main([subcommand, "--corpus", str(corpus), "--out", str(out), "--bootstrap", "2",
                     "--seed", "4", "--min-tail", "30"]) == 0
        files = {path.relative_to(out): path.read_bytes() for path in out.rglob("*")
                 if path.is_file() and path.name != "manifest.json"}
        runs.append((capsys.readouterr().out.replace(str(out), "OUT"), files))
    assert runs[0] == runs[1]
    assert {path.parts[0] for path in runs[0][1]} == {"fits", "plotdata", "features.csv"}


def test_fit_degenerate_sample_diagnostic(tmp_path, capsys):
    """A statistic whose tail cannot be fit is written as null, as
    features.csv leaves it empty, and the run goes on."""
    corpus = tmp_path / "tiny"
    corpus.mkdir()
    (corpus / "T.csv").write_text(
        "date,time,txn_id,buyer_id,seller_id,volume,price\n"
        "2004-01-05,09:30:00,1,B,A,100,5.0\n"
        "2004-01-05,09:31:00,2,D,C,100,5.0\n")
    (corpus / "T.json").write_text(json.dumps({
        "symbol": "T", "capitalization_bucket": "mid", "sector": "x",
        "manipulated": False, "manipulation_period": None}))
    rc = main(["fit", "--corpus", str(corpus), "--out", str(tmp_path / "o"),
               "--bootstrap", "0", "--min-tail", "1"])
    assert rc == 0
    assert capsys.readouterr().err == ""
    doc = json.loads((tmp_path / "o" / "fits" / "T.json").read_text())
    assert doc == {"symbol": "T", "fits": {
        stat: None for stat in ("degree_in", "degree_out", "strength_in",
                                "strength_out", "strength_total")}}


def test_features_csv(corpus, tmp_path):
    out = tmp_path / "feat_run"
    rc = main(["features", "--corpus", str(corpus), "--out", str(out),
               "--bootstrap", "0", "--min-tail", "30"])
    assert rc == 0
    lines = (out / "features.csv").read_text().strip().split("\n")
    assert len(lines) == 13
    header = lines[0].split(",")
    assert header[:4] == ["symbol", "n_days", "avg_degree", "return_ratio_corr"]
    assert "degree_in_xmin" in header and "strength_total_levy_stable" in header
    daily = out / "plotdata" / "S000_daily.csv"
    assert daily.read_text().startswith("date,avg_price,n_sellers,n_buyers")
    assert (out / "plotdata" / "S000_ccdf_degree_out.csv").exists()


def test_build_edge_lists(corpus, tmp_path):
    out = tmp_path / "nets"
    rc = main(["build", "--corpus", str(corpus), "--out", str(out)])
    assert rc == 0
    edges = (out / "networks" / "S001_edges.csv").read_text()
    assert edges.startswith("seller_idx,buyer_idx,weight")


def test_reports_deterministic(corpus, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        rc = main(["detect", "--corpus", str(corpus), "--out", str(out),
                   "--bootstrap", "0", "--min-tail", "30"])
        assert rc == 1
    assert (a / "reports.json").read_bytes() == (b / "reports.json").read_bytes()


def test_unknown_flag_rejected(corpus, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["detect", "--corpus", str(corpus), "--out", str(tmp_path / "x"),
              "--no-such-flag"])
    assert exc.value.code != 0


def test_missing_corpus_single_line_error(tmp_path, capsys):
    rc = main(["detect", "--corpus", str(tmp_path / "nowhere"),
               "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc != 0
    assert err.startswith("error:") and err.count("\n") == 1


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 99, "min_tail": 25}))
    rc = main(["fit", "--corpus", "unused", "--out", "unused",
               "--config", str(cfg), "--seed", "3", "--dump-config"])
    assert rc == 0
    effective = json.loads(capsys.readouterr().out)
    assert effective["seed"] == 3       # flag beats config file
    assert effective["min_tail"] == 25  # config file beats default
    assert effective["bootstrap"] == 1000


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    rc = main(["detect", "--corpus", "unused", "--out", "unused",
               "--config", str(cfg), "--dump-config"])
    assert rc != 0
    assert "unknown config" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["jobs", "significance"])
def test_removed_options_rejected(tmp_path, capsys, key):
    with pytest.raises(SystemExit):
        main(["fit", "--corpus", "unused", "--out", "unused",
              f"--{key}", "1", "--dump-config"])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 1}))
    rc = main(["fit", "--corpus", "unused", "--out", "unused",
               "--config", str(cfg), "--dump-config"])
    assert rc != 0
    assert "unknown config" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["build", "--corpus", "unused", "--out", "unused", "--seed", "1"],
    ["detect", "--corpus", "unused", "--out", "unused", "--seed", "1"],
    ["validate", "--config", "unused.json"],
    ["validate", "--dump-config"],
    ["validate", "-v", "--corpus", "unused"],
    ["validate", "S000.csv"],
    ["validate"],
], ids=["build-seed", "detect-seed", "validate-config", "validate-dump-config",
        "validate-verbose", "validate-file", "validate-bare"])
def test_inert_options_rejected(argv):
    """build and detect draw no random numbers, and validate reads no config
    and prints nothing more when verbose, so they take no option that could
    not change their output; validate reads a corpus and nothing else."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


# The effective defaults of each subcommand, written out as literals so that
# a change to a config dataclass's default cannot move them unnoticed.  Each
# subcommand has only the keys of its own options.
GOF_DEFAULTS = {"bootstrap": 1000, "min_tail": 50, "seed": 0}
PINNED_DEFAULTS = {
    "simulate": {
        "bucket": "mid",
        "colluders": 150,
        "days": 250,
        "honest": 10,
        "manipulated": 2,
        "partial": 0,
        "sector": "industrials",
        "seed": 0,
        "traders": 1200,
        "trades_per_day": 150.0,
        "wash_fraction": 0.5,
    },
    "build": {},
    "fit": GOF_DEFAULTS,
    "features": GOF_DEFAULTS,
    "detect": {
        "bootstrap": 1000,
        "corr_threshold": 0.2,
        "decision_threshold": 0.5,
        "elevation_factor": 1.25,
        "min_tail": 50,
    },
}


@pytest.mark.parametrize("subcommand", sorted(PINNED_DEFAULTS))
def test_dump_config_defaults_pinned(capsys, subcommand):
    corpus = [] if subcommand == "simulate" else ["--corpus", "unused"]
    assert main([subcommand, *corpus, "--out", "unused", "--dump-config"]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(PINNED_DEFAULTS[subcommand], indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("argv, key, accepted", [
    (["simulate"], "groups", True),
    (["fit", "--corpus", "unused"], "groups", False),
    (["detect", "--corpus", "unused"], "days", False),
    (["build", "--corpus", "unused"], "seed", False),
])
def test_config_file_takes_the_subcommands_own_keys(tmp_path, capsys, argv, key, accepted):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: []}))
    rc = main([*argv, "--out", "unused", "--config", str(cfg), "--dump-config"])
    out, err = capsys.readouterr()
    if accepted:
        assert rc == 0 and json.loads(out)[key] == []
    else:
        assert rc == 2 and "unknown config" in err


PARSERS = {"build": ["build", "--corpus", "CORPUS", "--out", "OUT"],
           "fit": ["fit", "--corpus", "CORPUS", "--out", "OUT"],
           "detect": ["detect", "--corpus", "CORPUS", "--out", "OUT"],
           "validate-corpus": ["validate", "--corpus", "CORPUS"]}
BAD_HEADER = (b"date,time\n", "line 1: bad header 'date,time'; "
              "expected date,time,txn_id,buyer_id,seller_id,volume,price")
INVALID_UTF8 = (b"date,time,txn_id,buyer_id,seller_id,volume,price\n"
                b"2004-01-08,09:30:01,1,B1,S1,500,7.25\n"
                b"2004-01-08,09:30:02,2,B\xff1,S1,500,7.25\n", "line 3: invalid UTF-8")


@pytest.mark.parametrize("argv, content, message", [
    *(pytest.param(argv, *BAD_HEADER, id=name) for name, argv in PARSERS.items()),
    *(pytest.param(argv, *INVALID_UTF8, id=f"{name}-invalid-utf8")
      for name, argv in PARSERS.items())])
def test_parse_error_names_the_file(tmp_path, capsys, argv, content, message):
    corpus = tmp_path / "c"
    corpus.mkdir()
    (corpus / "T.csv").write_bytes(content)
    (corpus / "T.json").write_text(json.dumps({
        "symbol": "T", "capitalization_bucket": "mid", "sector": "x",
        "manipulated": False, "manipulation_period": None}))
    rc = main([a.replace("CORPUS", str(corpus)).replace("OUT", str(tmp_path / "o"))
               for a in argv])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"error: {corpus / 'T.csv'}: {message}\n"


def _simulate_tiny(out, stocks: int, seed: int = 0) -> int:
    """Simulate a corpus of ``stocks`` small honest stocks."""
    return main(["simulate", "--out", str(out), "--honest", str(stocks),
                 "--manipulated", "0", "--seed", str(seed), "--days", "5",
                 "--traders", "40", "--trades-per-day", "10", "--colluders", "5"])


@pytest.fixture(scope="module")
def duplicate_symbol_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("dup")
    assert _simulate_tiny(out, 3) == 0
    meta = json.loads((out / "S001.json").read_text())
    meta["symbol"] = "S000"
    (out / "S001.json").write_text(json.dumps(meta))
    return out


CORPUS_SUBCOMMANDS = ["build", "fit", "features", "detect", "validate"]


def _corpus_error(subcommand, corpus, tmp_path, capsys) -> str:
    """Run a subcommand that reads a corpus (validate takes no --out) on a
    corpus it must reject: it exits 2, prints nothing to stdout and writes
    nothing.  Returns its stderr."""
    out = tmp_path / "o"
    argv = [subcommand, "--corpus", str(corpus)]
    rc = main(argv if subcommand == "validate" else [*argv, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert not out.exists()
    return captured.err


@pytest.mark.parametrize("subcommand", CORPUS_SUBCOMMANDS)
def test_duplicate_symbol_rejected(duplicate_symbol_corpus, tmp_path, capsys,
                                   subcommand):
    err = _corpus_error(subcommand, duplicate_symbol_corpus, tmp_path, capsys)
    assert err.startswith("error:") and err.count("\n") == 1
    assert "S000.csv" in err and "S001.csv" in err and "'S000'" in err


@pytest.fixture(scope="module")
def missing_sidecar_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("nosidecar")
    assert _simulate_tiny(out, 3) == 0
    (out / "S001.json").unlink()
    return out


@pytest.mark.parametrize("subcommand", CORPUS_SUBCOMMANDS)
def test_missing_sidecar_rejected(missing_sidecar_corpus, tmp_path, capsys, subcommand):
    """A CSV without its sidecar stops the run and is named: the stock never
    drops out of the corpus, and so out of its reference group, unseen."""
    err = _corpus_error(subcommand, missing_sidecar_corpus, tmp_path, capsys)
    assert err == f"error: {missing_sidecar_corpus / 'S001.csv'}: no sidecar S001.json\n"


@pytest.fixture(scope="module")
def missing_csv_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("nocsv")
    assert _simulate_tiny(out, 3) == 0
    (out / "S001.csv").unlink()
    return out


@pytest.mark.parametrize("subcommand", CORPUS_SUBCOMMANDS)
def test_missing_csv_rejected(missing_csv_corpus, tmp_path, capsys, subcommand):
    """A sidecar without its CSV stops the run and is named, as a CSV
    without its sidecar is."""
    err = _corpus_error(subcommand, missing_csv_corpus, tmp_path, capsys)
    assert err == f"error: {missing_csv_corpus / 'S001.json'}: no CSV S001.csv\n"


@pytest.fixture(scope="module")
def stale_corpus(tmp_path_factory):
    """Six stocks simulated with seed 3, then four with seed 4 into the same
    directory: S004 and S005 are left over from the first run."""
    out = tmp_path_factory.mktemp("stale")
    assert _simulate_tiny(out, 6, seed=3) == 0
    assert _simulate_tiny(out, 4, seed=4) == 0
    return out


@pytest.mark.parametrize("subcommand", CORPUS_SUBCOMMANDS)
def test_csv_missing_from_the_manifest_rejected(stale_corpus, tmp_path, capsys, subcommand):
    """A CSV that corpus_manifest.json does not list is not analysed as part
    of the corpus; the first one is named."""
    err = _corpus_error(subcommand, stale_corpus, tmp_path, capsys)
    assert err == f"error: {stale_corpus / 'S004.csv'}: not listed in corpus_manifest.json\n"


def _drop_stock(corpus):
    (corpus / "S001.csv").unlink()
    (corpus / "S001.json").unlink()


@pytest.mark.parametrize("damage, named, message", [
    (_drop_stock, "S001.csv", "listed in corpus_manifest.json but missing"),
    ("{", "corpus_manifest.json", "not a corpus manifest: Expecting"),
    ('{"master_seed": 0}', "corpus_manifest.json",
     "not a corpus manifest: no stocks[*].csv"),
    ('{"stocks": [{"symbol": "S000"}]}', "corpus_manifest.json",
     "not a corpus manifest: no stocks[*].csv"),
    ('{"stocks": [{"csv": 0}]}', "corpus_manifest.json",
     "not a corpus manifest: a csv entry is not a string"),
], ids=["listed-but-missing", "not-json", "no-stocks", "no-csv", "csv-not-a-string"])
def test_corpus_manifest_checked(tmp_path, capsys, damage, named, message):
    corpus = tmp_path / "c"
    assert _simulate_tiny(corpus, 3) == 0
    if callable(damage):
        damage(corpus)
    else:
        (corpus / "corpus_manifest.json").write_text(damage)
    capsys.readouterr()
    err = _corpus_error("validate", corpus, tmp_path, capsys)
    assert err.startswith(f"error: {corpus / named}: {message}") and err.count("\n") == 1


def test_corpus_without_manifest_read_whole(tmp_path, capsys):
    """Real-data corpora have no corpus_manifest.json: every CSV/sidecar
    pair is read."""
    corpus = tmp_path / "c"
    assert _simulate_tiny(corpus, 3) == 0
    (corpus / "corpus_manifest.json").unlink()
    capsys.readouterr()
    assert main(["validate", "--corpus", str(corpus)]) == 0
    assert [line.split(":")[0] for line in capsys.readouterr().out.splitlines()] == [
        "S000", "S001", "S002"]


def test_interrupted_resimulation_keeps_no_older_manifest(tmp_path, monkeypatch, capsys):
    """A simulate that fails mid-corpus in a directory holding a complete
    corpus leaves no corpus_manifest.json, so the older run's manifest does
    not mark the mixed directory complete."""
    out = tmp_path / "c"
    assert _simulate_tiny(out, 4) == 0
    calls = []

    def failing(cfg):
        calls.append(cfg)
        if len(calls) == 3:
            raise RuntimeError("out of luck")
        return simulate(cfg)

    monkeypatch.setattr(cli, "simulate", failing)
    capsys.readouterr()
    assert _simulate_tiny(out, 4, seed=1) == 2
    assert capsys.readouterr().err == "error: S002: out of luck\n"
    assert not (out / "corpus_manifest.json").exists()


@pytest.mark.parametrize("subcommand", ["build", "fit", "features", "detect"])
def test_out_into_the_corpus_rejected(tmp_path, capsys, monkeypatch, subcommand):
    """An --out that resolves to the --corpus directory is rejected before
    the corpus is read, and the corpus keeps every file and byte."""
    corpus = tmp_path / "c"
    assert _simulate_tiny(corpus, 3) == 0
    before = {path.name: path.read_bytes() for path in corpus.iterdir()}
    loads = []
    monkeypatch.setattr(cli, "load_corpus", loads.append)
    capsys.readouterr()
    out = corpus / ".." / "c"
    rc = main([subcommand, "--corpus", str(corpus), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2 and loads == []
    assert captured.out == ""
    assert captured.err == f"error: {out}: --out is the --corpus directory\n"
    assert {path.name: path.read_bytes() for path in corpus.iterdir()} == before


def test_validate_corpus_lists_each_stock(corpus, capsys):
    """validate --corpus reports the stocks the analysis subcommands load,
    one line per symbol."""
    assert main(["validate", "--corpus", str(corpus)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [f"S{i:03d}" for i in range(12)]
    assert all(re.fullmatch(r"S\d{3}: \d+ records", line) for line in lines)


@pytest.mark.parametrize("argv, field", [
    (["--elevation-factor", "nan"], "elevation_factor"),
    (["--elevation-factor", "-1"], "elevation_factor"),
    (["--decision-threshold", "2"], "decision_threshold"),
    (["--decision-threshold", "0"], "decision_threshold"),
    (["--corr-threshold", "inf"], "corr_threshold"),
    ({"decision_threshold": 1.5}, "decision_threshold"),
    ({"corr_threshold": -2}, "corr_threshold"),
], ids=["elevation-nan", "elevation-negative", "decision-2", "decision-0",
        "corr-inf", "file-decision", "file-corr"])
def test_detect_rejects_thresholds_that_disable_the_vote(corpus, tmp_path, capsys,
                                                         argv, field):
    """A threshold outside its range would flag every stock or none."""
    if isinstance(argv, dict):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(argv))
        argv = ["--config", str(cfg)]
    out = tmp_path / "o"
    rc = main(["detect", "--corpus", str(corpus), "--out", str(out), "--min-tail", "30",
               *argv])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {field} must ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv, field", [
    (["detect", "--elevation-factor", "nan"], "elevation_factor"),
    (["detect", "--corr-threshold", "2"], "corr_threshold"),
    (["detect", "--bootstrap", "-1"], "bootstrap_replicas"),
    (["fit", "--bootstrap", "-1"], "bootstrap_replicas"),
    (["features", "--min-tail", "0"], "min_tail_size"),
    (["fit", "--seed", "-1"], "rng_seed"),
], ids=["detect-elevation-nan", "detect-corr-2", "detect-bootstrap", "fit-bootstrap",
        "features-min-tail", "fit-seed"])
@pytest.mark.parametrize("dump", [[], ["--dump-config"]], ids=["run", "dump-config"])
def test_bad_flags_rejected_before_the_corpus_is_read(tmp_path, capsys, monkeypatch, argv,
                                                      field, dump):
    """A value the fit or detector configuration rejects fails before any
    corpus is read, and --dump-config does not print it."""
    monkeypatch.setattr(cli, "load_corpus",
                        lambda directory: pytest.fail("the corpus was read"))
    out = tmp_path / "o"
    rc = main([*argv, "--corpus", "unused", "--out", str(out), *dump])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith(f"error: {field} must ") and captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["--seed", "-1"], "master_seed must be >= 0"),
    (["--trades-per-day", "nan"], "trades_per_day must be finite and > 0, got nan"),
    (["--trades-per-day", "inf"], "trades_per_day must be finite and > 0, got inf"),
    (["--days", "0"], "n_days must be >= 1"),
    (["--traders", "1"], "n_traders must be >= 2"),
    (["--colluders", "-1"], "n_colluders must lie in [0, n_traders)"),
    (["--wash-fraction", "1"], "wash_volume_fraction must lie in [0, 1)"),
    (["--honest", "-1"], "counts must be >= 0"),
    (["--partial", "3"], "partial must lie in [0, manipulated]"),
    # A partial window covers part of the period; on one day it would be
    # the whole period.
    (["--days", "1", "--partial", "1"], "a partial manipulation window needs n_days >= 2"),
], ids=["seed", "trades-per-day-nan", "trades-per-day-inf", "days", "traders", "colluders", "wash-fraction",
        "honest", "partial", "partial-one-day"])
@pytest.mark.parametrize("dump", [[], ["--dump-config"]], ids=["run", "dump-config"])
def test_simulate_rejects_bad_values_before_printing(tmp_path, capsys, argv, message, dump):
    """simulate builds its corpus spec before it prints the configuration
    or writes a file, so --dump-config never prints a value that simulate
    rejects."""
    out = tmp_path / "o"
    rc = main(["simulate", "--out", str(out), *argv, *dump])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("subcommand, values, message", [
    ("fit", {"bootstrap": 2.7}, "bootstrap must be an integer, got 2.7"),
    ("fit", {"seed": True}, "seed must be an integer, got true"),
    ("features", {"min_tail": "5"}, 'min_tail must be an integer, got "5"'),
    ("detect", {"bootstrap": None}, "bootstrap must be an integer, got null"),
    ("detect", {"corr_threshold": "0.3"}, 'corr_threshold must be a number, got "0.3"'),
    ("detect", {"elevation_factor": False}, "elevation_factor must be a number, got false"),
    ("simulate", {"honest": 2.5}, "honest must be an integer, got 2.5"),
    ("simulate", {"honest": True}, "honest must be an integer, got true"),
    ("simulate", {"wash_fraction": [0.3]}, "wash_fraction must be a number, got [0.3]"),
    ("simulate", {"bucket": 5}, "bucket must be a string, got 5"),
], ids=["fit-bootstrap-float", "fit-seed-bool", "features-min-tail-str", "detect-null",
        "detect-corr-str", "detect-elevation-bool", "simulate-honest-float",
        "simulate-honest-bool", "simulate-wash-list", "simulate-bucket-int"])
@pytest.mark.parametrize("dump", [[], ["--dump-config"]], ids=["run", "dump-config"])
def test_config_file_values_take_their_options_type(tmp_path, capsys, monkeypatch, subcommand,
                                                    values, message, dump):
    """A config file value of another type than its option's is one error
    that names the file and the key, before any corpus is read or file is
    written: it is never cast to a value the run would not record."""
    monkeypatch.setattr(cli, "load_corpus",
                        lambda directory: pytest.fail("the corpus was read"))
    cfg, out = tmp_path / "cfg.json", tmp_path / "o"
    cfg.write_text(json.dumps(values))
    corpus = [] if subcommand == "simulate" else ["--corpus", "unused"]
    rc = main([subcommand, *corpus, "--out", str(out), "--config", str(cfg), *dump])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == f"error: {cfg}: {message}\n"
    assert not out.exists()


# Each bad file's message after "error: <file>: ", as a pattern; an unknown
# or missing group field is worded by Python, so only the field is pinned.
@pytest.mark.parametrize("content, pattern", [
    ("null", "not a config file: not a JSON object"),
    ('"abc"', "not a config file: not a JSON object"),
    ("[1, 2]", "not a config file: not a JSON object"),
    ("{bad", "not a config file: Expecting property name .*"),
    ('{"groups": {"a": 1}}', "not a config file: groups is not a list of objects"),
    ('{"groups": ["mid"]}', "not a config file: groups is not a list of objects"),
    ('{"groups": [{"capitalization_bucket": "mid", "sector": "tech", "honest": 1},'
     ' {"capitalization_bucket": "mid", "sector": "tech", "honest": 1, "bogus": 2}]}',
     r"groups\[1\]: .*'bogus'"),
    ('{"groups": [{"sector": "tech", "honest": 1}]}', r"groups\[0\]: .*'capitalization_bucket'"),
    ('{"groups": [{"capitalization_bucket": 7, "sector": "tech", "honest": 1}]}',
     r"groups\[0\]: capitalization_bucket must be a string, got 7"),
    ('{"groups": [{"capitalization_bucket": "mid", "sector": "tech", "honest": 2.5}]}',
     r"groups\[0\]: honest must be an integer, got 2\.5"),
    ('{"groups": [{"capitalization_bucket": "mid", "sector": "tech", "honest": true}]}',
     r"groups\[0\]: honest must be an integer, got True"),
], ids=["null", "string", "list", "not-json", "groups-object", "groups-of-strings",
        "group-unknown-key", "group-missing-key", "group-bucket-int", "group-honest-float",
        "group-honest-bool"])
@pytest.mark.parametrize("dump", [[], ["--dump-config"]], ids=["run", "dump-config"])
def test_bad_config_file_is_one_error_that_names_it(tmp_path, capsys, content, pattern, dump):
    """A config file that is not a JSON object, or whose groups are not
    GroupSpec fields, fails before anything is printed or written, in one
    line that names the file and, for a group, its entry."""
    cfg, out = tmp_path / "cfg.json", tmp_path / "o"
    cfg.write_text(content)
    rc = main(["simulate", "--out", str(out), "--config", str(cfg), *dump])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert re.fullmatch(f"error: {re.escape(str(cfg))}: {pattern}\n", captured.err)
    assert not out.exists()


def test_integer_for_a_float_option_recorded_as_the_flag_gives_it(tmp_path, capsys):
    """A JSON integer given for a float option is the float its flag would
    give, in --dump-config and manifest.json alike."""
    cfg, out = tmp_path / "cfg.json", tmp_path / "c"
    cfg.write_text(json.dumps({"trades_per_day": 5}))
    sizes = ["--honest", "1", "--manipulated", "0", "--days", "3", "--traders", "40",
             "--colluders", "5"]
    argv = ["simulate", "--out", str(out), "--config", str(cfg), *sizes]
    assert main([*argv, "--dump-config"]) == 0
    dumped = capsys.readouterr().out
    assert '"trades_per_day": 5.0' in dumped
    assert main(argv) == 0
    manifest = (out / "manifest.json").read_text()
    assert '"trades_per_day": 5.0' in manifest
    assert json.loads(manifest)["config"] == json.loads(dumped)
    assert main(["simulate", "--out", str(tmp_path / "flag"), *sizes,
                 "--trades-per-day", "5"]) == 0
    assert (out / "S000.csv").read_bytes() == (tmp_path / "flag" / "S000.csv").read_bytes()
    # Past the float range an integer is inf, as its digits are to the flag.
    cfg.write_text(json.dumps({"trades_per_day": 10**400}))
    assert main([*argv, "--dump-config"]) == 2
    assert capsys.readouterr().err == "error: trades_per_day must be finite and > 0, got inf\n"


def test_fit_records_the_config_it_ran(tmp_path, monkeypatch):
    """manifest.json holds the values fit ran with, as the config file gave
    them."""
    corpus, out, cfg = tmp_path / "c", tmp_path / "o", tmp_path / "cfg.json"
    assert _simulate_tiny(corpus, 2) == 0
    cfg.write_text(json.dumps({"bootstrap": 2, "seed": 1}))
    ran = []
    monkeypatch.setattr(cli, "compute_features",
                        lambda log, gof: ran.append(gof) or compute_features(log, gof))
    assert main(["fit", "--corpus", str(corpus), "--out", str(out), "--config", str(cfg)]) == 0
    assert ran == [GofConfig(bootstrap_replicas=2, rng_seed=1)] * 2
    assert json.loads((out / "manifest.json").read_text())["config"] == {
        "bootstrap": 2, "min_tail": 50, "seed": 1}


def test_config_file_groups_recorded_in_full(tmp_path, capsys):
    """A config file's groups are recorded with every GroupSpec field, the
    defaults it left out included."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"groups": [{"capitalization_bucket": "small",
                                           "sector": "tech", "honest": 2}]}))
    assert main(["simulate", "--out", "unused", "--config", str(cfg), "--dump-config"]) == 0
    assert json.loads(capsys.readouterr().out)["groups"] == [
        {"capitalization_bucket": "small", "sector": "tech", "honest": 2, "manipulated": 0,
         "partial": 0}]


TINY_SIM = ["--honest", "3", "--manipulated", "1", "--days", "5", "--traders", "40",
            "--trades-per-day", "10", "--colluders", "5"]


def test_simulate_holds_one_stock_at_a_time(tmp_path, monkeypatch):
    """When a stock is simulated, the stock before it is already written,
    CSV and sidecar, and its log is gone."""
    out = tmp_path / "c"
    refs, seen = [], []

    def tracked(cfg):
        if refs:
            symbol, ref = refs[-1]
            seen.append((symbol, ref() is None, (out / f"{symbol}.csv").exists(),
                         (out / f"{symbol}.json").exists()))
        res = simulate(cfg)
        refs.append((cfg.symbol, weakref.ref(res.log)))
        return res

    monkeypatch.setattr(cli, "simulate", tracked)
    assert main(["simulate", "--out", str(out), *TINY_SIM]) == 0
    assert seen == [(f"S00{i}", True, True, True) for i in range(3)]
    assert refs[-1][1]() is None


@pytest.mark.parametrize("stage", ["simulate", "write_transactions"])
def test_interrupted_simulate_keeps_the_stocks_before_it(tmp_path, monkeypatch, capsys, stage):
    """A failure mid-corpus, in simulating the third stock or halfway
    through writing it, exits 2 with one error line that names the failing
    stock; the stocks before it stay written as a full run writes them,
    nothing is left of the failing one, and no corpus_manifest.json marks
    the corpus complete."""
    full, out = tmp_path / "full", tmp_path / "c"
    assert main(["simulate", "--out", str(full), *TINY_SIM]) == 0
    real, calls = getattr(cli, stage), []

    def failing(first, *rest):
        calls.append(first)
        if len(calls) == 3:
            if rest:
                rest[0].write("date,time")
            raise RuntimeError("out of luck")
        return real(first, *rest)

    monkeypatch.setattr(cli, stage, failing)
    capsys.readouterr()
    rc = main(["simulate", "--out", str(out), *TINY_SIM])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == "error: S002: out of luck\n"
    assert len(calls) == 3
    written = sorted(p.name for p in out.iterdir())
    assert written == ["S000.csv", "S000.json", "S001.csv", "S001.json"]
    assert all((out / name).read_bytes() == (full / name).read_bytes() for name in written)


def _analyse(subcommand: str, corpus, out, *flags: str) -> int:
    """Run a subcommand that reads a corpus: validate takes no --out, and
    the subcommands that fit tails skip the bootstrap."""
    argv = [subcommand, "--corpus", str(corpus), *flags]
    if subcommand != "validate":
        argv += ["--out", str(out)]
    if subcommand in ("fit", "features", "detect"):
        argv += ["--bootstrap", "0"]
    return main(argv)


@pytest.mark.parametrize("subcommand", CORPUS_SUBCOMMANDS)
def test_analysis_holds_one_stock_at_a_time(tmp_path, monkeypatch, subcommand):
    """Each stock is parsed once, and when a stock is parsed the log of the
    stock before it is gone: memory holds one stock, not the corpus."""
    corpus = tmp_path / "c"
    assert main(["simulate", "--out", str(corpus), *TINY_SIM]) == 0
    refs, alive = [], []
    real = ingest.parse_transactions

    def tracked(path, meta):
        alive.append([ref() is not None for ref in refs])
        log = real(path, meta)
        refs.append(weakref.ref(log))
        return log

    monkeypatch.setattr(ingest, "parse_transactions", tracked)
    assert _analyse(subcommand, corpus, tmp_path / "o") in (0, 1)
    assert alive == [[False] * k for k in range(4)]
    assert refs[-1]() is None


@pytest.fixture(scope="module")
def like_stocks_corpus(tmp_path_factory):
    """Eight honest stocks of about 4,000 trades each."""
    out = tmp_path_factory.mktemp("like")
    assert main(["simulate", "--out", str(out), "--honest", "8", "--manipulated", "0",
                 "--seed", "1", "--days", "20", "--traders", "300",
                 "--trades-per-day", "200", "--colluders", "5"]) == 0
    return out


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("subcommand", CORPUS_SUBCOMMANDS)
def test_analysis_peak_is_one_stocks(like_stocks_corpus, tmp_path, capsys, subcommand):
    """A subcommand's traced peak over eight like stocks stays within 1.25
    times the peak of parsing and featurizing the largest of them alone
    (about 1.08 times); holding every log took about 2.7 times."""
    largest = max(like_stocks_corpus.glob("*.csv"), key=lambda path: path.stat().st_size)
    one = _traced_peak(lambda: compute_features(
        ingest.parse_transactions(largest, ingest.read_stock_meta(largest.with_suffix(".json"))),
        GofConfig(bootstrap_replicas=0)))
    codes = []
    corpus = _traced_peak(lambda: codes.append(
        _analyse(subcommand, like_stocks_corpus, tmp_path / "o")))
    assert codes[0] in (0, 1)
    assert corpus <= 1.25 * one


# Run in a fresh interpreter: tradenet and scipy are already loaded here.
STARTUP_PROBE = """
import sys
import tradenet
from tradenet import cli

corpus, out = sys.argv[1:]
loaded = {"import tradenet": "scipy" in sys.modules}
for sub in ("simulate", "build", "fit", "features", "detect"):
    argv = [sub] + ([] if sub == "simulate" else ["--corpus", corpus])
    assert cli.main(argv + ["--out", out, "--dump-config"]) == 0
    loaded[sub + " --dump-config"] = "scipy" in sys.modules
assert cli.main(["validate", "--corpus", corpus]) == 0
loaded["validate --corpus"] = "scipy" in sys.modules
assert cli.main(["build", "--corpus", corpus, "--out", out]) == 0
loaded["build"] = "scipy" in sys.modules
# The tiny stocks leave no tail of 50 samples, and detect must fit one.
assert cli.main(["detect", "--corpus", corpus, "--out", out, "--bootstrap", "0",
                 "--min-tail", "5"]) in (0, 1)
loaded["detect --bootstrap 0"] = "scipy.special" in sys.modules
print(repr(loaded))
"""


def test_only_fitting_and_simulating_load_scipy(tmp_path):
    """Only a tail fit or a simulation evaluates zeta, so only they import
    scipy: importing the package, validate, build and --dump-config start
    without it, and detect, which fits tails, still loads it."""
    corpus = tmp_path / "c"
    assert main(["simulate", "--out", str(corpus), *TINY_SIM]) == 0
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE, str(corpus), str(tmp_path / "o")],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = ast.literal_eval(proc.stdout.splitlines()[-1])
    assert loaded == {**{step: False for step in loaded}, "detect --bootstrap 0": True}


@pytest.mark.parametrize("subcommand", CORPUS_SUBCOMMANDS)
def test_first_faulty_stock_in_symbol_order_named(tmp_path, capsys, subcommand):
    corpus = tmp_path / "c"
    assert _simulate_tiny(corpus, 4) == 0
    for name in ("S003.csv", "S001.csv"):
        (corpus / name).write_bytes(BAD_HEADER[0])
    capsys.readouterr()
    assert _analyse(subcommand, corpus, tmp_path / "o") == 2
    assert capsys.readouterr().err == f"error: {corpus / 'S001.csv'}: {BAD_HEADER[1]}\n"


@pytest.mark.parametrize("subcommand", CORPUS_SUBCOMMANDS)
def test_duplicate_symbol_found_before_any_parse(tmp_path, capsys, subcommand):
    """Two sidecars naming one symbol are a contract breach, found from the
    sidecars before any CSV is parsed, so a bad CSV does not hide it."""
    corpus = tmp_path / "c"
    assert _simulate_tiny(corpus, 3) == 0
    (corpus / "S000.csv").write_bytes(BAD_HEADER[0])
    meta = json.loads((corpus / "S002.json").read_text())
    (corpus / "S002.json").write_text(json.dumps({**meta, "symbol": "S001"}))
    capsys.readouterr()
    err = _corpus_error(subcommand, corpus, tmp_path, capsys)
    assert err == (f"error: symbol 'S001' names two stocks: "
                   f"{corpus / 'S001.csv'} and {corpus / 'S002.csv'}\n")


def _no_trades(corpus):
    (corpus / "S000.csv").write_text("date,time,txn_id,buyer_id,seller_id,volume,price\n")


def _own_sector(corpus):
    meta = json.loads((corpus / "S000.json").read_text())
    (corpus / "S000.json").write_text(json.dumps({**meta, "sector": "alone"}))


@pytest.mark.parametrize("damage, message", [
    (_no_trades, "S000 has no trade in its period"),
    (_own_sector, "no reference stocks for S000 (bucket='mid', sector='alone'); "
                  "consider a coarser capitalization bucketing"),
], ids=["no-trades", "no-reference"])
@pytest.mark.parametrize("bad_csv", [False, True], ids=["alone", "with-bad-csv"])
def test_detect_reports_parse_errors_before_evaluation_errors(tmp_path, capsys, damage,
                                                              message, bad_csv):
    """Every stock is parsed before any report is evaluated, so a CSV that
    does not parse is named even after a stock whose report fails."""
    corpus = tmp_path / "c"
    assert _simulate_tiny(corpus, 4) == 0
    damage(corpus)
    if bad_csv:
        (corpus / "S002.csv").write_bytes(BAD_HEADER[0])
        message = f"{corpus / 'S002.csv'}: {BAD_HEADER[1]}"
    capsys.readouterr()
    assert _analyse("detect", corpus, tmp_path / "o") == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("subcommand", ["build", "fit", "features", "detect"])
def test_run_failing_mid_corpus_leaves_no_manifest(tmp_path, capsys, subcommand):
    """A run that fails on its third stock leaves no manifest.json in
    --out, not even an earlier run's, so the stocks it wrote before the
    failure do not read as a complete run."""
    corpus, out = tmp_path / "c", tmp_path / "o"
    assert _simulate_tiny(corpus, 4) == 0
    assert _analyse(subcommand, corpus, out) in (0, 1)
    (corpus / "S002.csv").write_bytes(BAD_HEADER[0])
    capsys.readouterr()
    assert _analyse(subcommand, corpus, out) == 2
    assert capsys.readouterr().err == f"error: {corpus / 'S002.csv'}: {BAD_HEADER[1]}\n"
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("subcommand", ["build", "fit", "features", "detect"])
def test_verbose_names_each_stock_as_it_is_visited(tmp_path, capsys, subcommand):
    """-v adds one stderr line per stock and changes neither stdout nor an
    artifact."""
    corpus = tmp_path / "c"
    assert _simulate_tiny(corpus, 3) == 0
    runs = []
    for flags in ([], ["-v"]):
        out = tmp_path / ("verbose" if flags else "quiet")
        capsys.readouterr()
        code = _analyse(subcommand, corpus, out, *flags)
        captured = capsys.readouterr()
        artifacts = [path for path in out.rglob("*.*") if path.name != "manifest.json"]
        runs.append((code, captured.out.replace(str(out), "OUT"), _digest(artifacts),
                     captured.err))
    (*quiet, quiet_err), (*verbose, verbose_err) = runs
    assert quiet == verbose and quiet_err == ""
    assert [line.split(":")[0] for line in verbose_err.splitlines()] == ["S000", "S001", "S002"]
    fitted = r", fitted [0-5] of 5 statistics" if subcommand in ("fit", "features") else ""
    assert all(re.fullmatch(r"S\d{3}: \d+ records" + fitted, line)
               for line in verbose_err.splitlines())


@pytest.mark.parametrize("subcommand", ["build", "fit", "features", "detect"])
def test_run_manifest_says_whether_the_corpus_had_one(tmp_path, subcommand):
    """A directory without corpus_manifest.json is analysed whole, as an
    interrupted simulate leaves it; the run's manifest.json says so."""
    corpus = tmp_path / "c"
    assert _simulate_tiny(corpus, 3) == 0
    for had in (True, False):
        if not had:
            (corpus / "corpus_manifest.json").unlink()
        out = tmp_path / f"out-{had}"
        assert _analyse(subcommand, corpus, out) in (0, 1)
        assert json.loads((out / "manifest.json").read_text())["corpus_manifest"] is had


@pytest.mark.parametrize("subcommand, layout", [
    ("build", ["networks"]), ("features", ["fits", "plotdata"])], ids=["build", "features"])
def test_run_directory_never_mixes_two_corpora(tmp_path, subcommand, layout):
    """A run over a 4-stock corpus and then over a 2-stock one into the same
    --out leaves exactly the files a fresh run over the second writes: S002
    and S003 go.  A file of another name under --out survives."""
    out, fresh = tmp_path / "o", tmp_path / "fresh"
    for stocks in (4, 2):
        assert _simulate_tiny(tmp_path / f"c{stocks}", stocks, seed=stocks) == 0
    assert _analyse(subcommand, tmp_path / "c4", out) == 0
    kept = [out / "notes.txt", *(out / name / "notes.txt" for name in layout)]
    for path in kept:
        path.write_text("kept\n")
    for target in (out, fresh):
        assert _analyse(subcommand, tmp_path / "c2", target) == 0

    def files(root):
        return {path.relative_to(root): path.read_bytes() for path in root.rglob("*")
                if path.is_file() and path.name != "manifest.json"}
    assert files(out) == {**files(fresh), **{path.relative_to(out): b"kept\n" for path in kept}}
    per_stock = [path.name for path in files(fresh) if path.parts[0] in layout]
    assert {name[:4] for name in per_stock} == {"S000", "S001"}


@pytest.mark.parametrize("edit, message", [
    (lambda meta: meta.pop("sector"), "missing key 'sector'"),
    (lambda meta: meta.update(manipulated="false"), "manipulated must be true or false"),
    (None, "Expecting"),
    (lambda meta: meta.update(manipulated=True,
                              manipulation_period=["20040105", "2004-01-09"]), "'20040105'"),
    (lambda meta: meta.update(symbol="../../escaped"), "symbol must be a file name"),
], ids=["missing-key", "mistyped", "not-json", "basic-date", "symbol-outside-out"])
def test_sidecar_error_names_the_file(tmp_path, capsys, edit, message):
    corpus = tmp_path / "c"
    rc = main(["simulate", "--out", str(corpus), "--honest", "2", "--manipulated", "0",
               "--days", "5", "--traders", "40", "--trades-per-day", "10",
               "--colluders", "5"])
    assert rc == 0
    sidecar = corpus / "S001.json"
    if edit is None:
        sidecar.write_text("{")
    else:
        meta = json.loads(sidecar.read_text())
        edit(meta)
        sidecar.write_text(json.dumps(meta))
    capsys.readouterr()
    rc = main(["build", "--corpus", str(corpus), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert "S001.json" in err and message in err


def test_stock_without_trades_named_in_fit_error(tmp_path, capsys):
    corpus = tmp_path / "c"
    rc = main(["simulate", "--out", str(corpus), "--honest", "2", "--manipulated", "0",
               "--days", "5", "--traders", "40", "--trades-per-day", "10",
               "--colluders", "5"])
    assert rc == 0
    (corpus / "S001.csv").write_text("date,time,txn_id,buyer_id,seller_id,volume,price\n")
    capsys.readouterr()
    rc = main(["fit", "--corpus", str(corpus), "--out", str(tmp_path / "o"),
               "--bootstrap", "0"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert "S001" in err


# SHA-256 digests of a small seeded session's artifacts: a change to how any
# file is written must keep every byte.  Owning the Hurwitz zeta (ROADMAP
# item 4) may move the last digits of the alphas, and so re-pin "fits" and
# "features.csv" only; "reports.json" holds x_min values and verdicts, never
# alphas, and must not move.  "features.csv" was re-pinned when one features
# run came to write fits/ too: its p-value cells now hold the bootstrap's
# values, and each statistic gained an alpha_at_bound column.
PINNED_DIGESTS = {
    "corpus": "cf20abeb5ab6139bd936f5ed012d702187408079f51397f34ad62f60bc2d4b5e",
    "corpus_manifest.json":
        "25880c3dd082d71c076e7fd9db5655670bec629682b153a7fbc64471955a4b9d",
    "networks": "f640327691a05ce886457dadc81285cad9b5c1c72d62b3509160386052d6fa26",
    "plotdata": "a33a1edfe631400c01f0edb6c4a8182846fea49022f32a931bb96df653b27f23",
    "features.csv": "877df2d9d7e5a19f2edf76c45e7217aa5857ff132a2f47c0625fa0707a53e975",
    "fits": "3488ecbed2c5a20a857f309ca60b2a8b7ca6d1a827f3c61c0454b4ffd2032c15",
    "reports.json": "05487d6f81e95214a05b5ce85e69148e286dad29317b92dfba50e7861e5874b7",
}


def _digest(paths) -> str:
    """One digest over each file's name and bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.name.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def test_artifacts_pinned(tmp_path):
    corpus, out = tmp_path / "corpus", tmp_path / "out"
    assert main(["simulate", "--out", str(corpus), "--honest", "2", "--manipulated", "2",
                 "--partial", "1", "--days", "12", "--traders", "120",
                 "--trades-per-day", "30", "--colluders", "20", "--seed", "5"]) == 0
    assert main(["build", "--corpus", str(corpus), "--out", str(out)]) == 0
    assert main(["features", "--corpus", str(corpus), "--out", str(out), "--bootstrap", "5",
                 "--seed", "5", "--min-tail", "10"]) == 0
    assert main(["detect", "--corpus", str(corpus), "--out", str(out),
                 "--min-tail", "10"]) == 1  # S002 and S003 are flagged
    digests = {
        "corpus": _digest([*corpus.glob("S*.csv"), *corpus.glob("S*.json")]),
        "corpus_manifest.json": _digest([corpus / "corpus_manifest.json"]),
        "networks": _digest((out / "networks").iterdir()),
        "plotdata": _digest((out / "plotdata").iterdir()),
        "features.csv": _digest([out / "features.csv"]),
        "fits": _digest((out / "fits").iterdir()),
        "reports.json": _digest([out / "reports.json"]),
    }
    assert digests == PINNED_DIGESTS


def test_readme_session_parses():
    """Each ``tradenet`` line of the README's "A full session" block parses,
    so a flag the README documents but the CLI lacks fails here."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("A full session:", 1)[1].split("```")[1]
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("tradenet ")]
    assert {argv[0] for argv in commands} == {
        "simulate", "validate", "build", "features", "detect"}
    for argv in commands:
        build_parser().parse_args(argv)

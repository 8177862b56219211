import hashlib
import json
import re
import shlex
from pathlib import Path

import pytest

from tradenet import __version__
from tradenet.cli import build_parser, main

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


def test_validate_exit_zero_and_count(corpus, capsys):
    rc = main(["validate", str(corpus / "S000.csv")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "S000.csv" in out and "records" in out


def test_validate_rejects_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("date,time,txn_id,buyer_id,seller_id,volume,price\n"
                   "2004-01-05,09:30:00,1,B,A,0,5.0\n")
    rc = main(["validate", str(bad)])
    err = capsys.readouterr().err
    assert rc != 0
    assert err.count("\n") == 1  # single-line diagnostic
    assert "line 2" in err


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
    out = tmp_path / "agree"
    args = ["--corpus", str(corpus), "--out", str(out), "--bootstrap", "0",
            "--min-tail", "30"]
    assert main(["fit", *args]) == 0
    assert main(["features", *args]) == 0
    header, *rows = (out / "features.csv").read_text().strip().split("\n")
    assert len(rows) == 12
    for line in rows:
        row = dict(zip(header.split(","), line.split(",")))
        doc = json.loads((out / "fits" / f"{row['symbol']}.json").read_text())
        assert len(doc["fits"]) == 5
        for stat, fit in doc["fits"].items():
            assert int(row[f"{stat}_xmin"]) == fit["x_min"]
            assert float(row[f"{stat}_alpha"]) == fit["alpha"]
            assert row[f"{stat}_p_value"] == "" and fit["p_value"] is None


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


def test_simulate_partial_window_needs_two_days(tmp_path, capsys):
    """A partial window covers part of the period; on one day it would be
    the whole period."""
    rc = main(["simulate", "--out", str(tmp_path), "--days", "1", "--partial", "1"])
    assert rc == 2
    assert "partial manipulation window needs n_days >= 2" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


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
    ["validate", "-v", "unused.csv"],
], ids=["build-seed", "detect-seed", "validate-config", "validate-dump-config",
        "validate-verbose"])
def test_inert_options_rejected(argv):
    """build and detect draw no random numbers, and validate reads no config
    and prints nothing more when verbose, so they take no option that could
    not change their output."""
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
           "validate-corpus": ["validate", "--corpus", "CORPUS"],
           "validate-file": ["validate", "CORPUS/T.csv"]}
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


@pytest.fixture(scope="module")
def duplicate_symbol_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("dup")
    rc = main(["simulate", "--out", str(out), "--honest", "3", "--manipulated", "0",
               "--days", "5", "--traders", "40", "--trades-per-day", "10",
               "--colluders", "5"])
    assert rc == 0
    meta = json.loads((out / "S001.json").read_text())
    meta["symbol"] = "S000"
    (out / "S001.json").write_text(json.dumps(meta))
    return out


@pytest.mark.parametrize("subcommand", ["build", "fit", "features", "detect"])
def test_duplicate_symbol_rejected(duplicate_symbol_corpus, tmp_path, capsys,
                                   subcommand):
    out = tmp_path / "o"
    rc = main([subcommand, "--corpus", str(duplicate_symbol_corpus), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert "S000.csv" in err and "S001.csv" in err and "'S000'" in err
    assert not (out / "networks").exists()


@pytest.mark.parametrize("edit, message", [
    (lambda meta: meta.pop("sector"), "missing key 'sector'"),
    (lambda meta: meta.update(manipulated="false"), "manipulated must be true or false"),
    (None, "Expecting"),
    (lambda meta: meta.update(manipulated=True,
                              manipulation_period=["20040105", "2004-01-09"]), "'20040105'"),
], ids=["missing-key", "mistyped", "not-json", "basic-date"])
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
# alphas, and must not move.
PINNED_DIGESTS = {
    "corpus": "cf20abeb5ab6139bd936f5ed012d702187408079f51397f34ad62f60bc2d4b5e",
    "corpus_manifest.json":
        "25880c3dd082d71c076e7fd9db5655670bec629682b153a7fbc64471955a4b9d",
    "networks": "f640327691a05ce886457dadc81285cad9b5c1c72d62b3509160386052d6fa26",
    "plotdata": "a33a1edfe631400c01f0edb6c4a8182846fea49022f32a931bb96df653b27f23",
    "features.csv": "1a43389666dba15530ae48c126ff6455763a6b1100c81e00285793a8c01d7d8e",
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
    assert main(["features", "--corpus", str(corpus), "--out", str(out),
                 "--bootstrap", "0", "--min-tail", "10"]) == 0
    assert main(["fit", "--corpus", str(corpus), "--out", str(out), "--bootstrap", "5",
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
        "simulate", "validate", "build", "fit", "features", "detect"}
    for argv in commands:
        build_parser().parse_args(argv)

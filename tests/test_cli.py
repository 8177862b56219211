import json

import pytest

from tradenet.cli import main

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
    assert (out / "manifest.json").exists()


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
    err = capsys.readouterr().err
    assert rc != 0
    assert "error:" in err and err.count("\n") == 1


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
    rc = main(["detect", "--corpus", "unused", "--out", "unused",
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


# The effective defaults of each subcommand, written out as literals so that
# a change to a config dataclass's default cannot move them unnoticed.
PINNED_DEFAULTS = {
    "bootstrap": 1000,
    "bucket": "mid",
    "colluders": 150,
    "corr_threshold": 0.2,
    "days": 250,
    "decision_threshold": 0.5,
    "elevation_factor": 1.25,
    "honest": 10,
    "manipulated": 2,
    "min_tail": 50,
    "partial": 0,
    "sector": "industrials",
    "seed": 0,
    "traders": 1200,
    "trades_per_day": 150.0,
    "wash_fraction": 0.5,
}


@pytest.mark.parametrize("argv", [
    ["simulate", "--out", "unused"],
    ["fit", "--corpus", "unused", "--out", "unused"],
    ["detect", "--corpus", "unused", "--out", "unused"],
])
def test_dump_config_defaults_pinned(capsys, argv):
    assert main([*argv, "--dump-config"]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(PINNED_DEFAULTS, indent=2, sort_keys=True) + "\n"
    assert type(json.loads(out)["trades_per_day"]) is float


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
], ids=["missing-key", "mistyped", "not-json"])
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

"""Command-line pipeline: simulate, validate, build, fit, features, detect.

Configuration precedence is flags > config file (JSON) > defaults, and every
run writes a machine-readable manifest.  All artifacts except the manifest
are byte-deterministic for a fixed seed: files are written atomically, keys
sorted, floats in repr form, timestamps only in the manifest.
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import os
import sys
from functools import partial
from pathlib import Path

from . import __version__
from .detector import DetectorConfig, detect_corpus
from .features import TAIL_STATS, compute_features
from .ingest import (_dump_json, _write_rows, load_corpus, write_stock_meta,
                     write_transactions)
from .network import build_network, write_edge_list
from .powerlaw import GofConfig, ccdf_points
from .sim import CorpusSpec, GroupSpec, SimConfig, corpus_configs, simulate

# Each default lives on its config dataclass; only the corpus's stock counts
# have no dataclass default.
DEFAULTS = {
    "seed": GofConfig.rng_seed,
    "bootstrap": GofConfig.bootstrap_replicas,
    "min_tail": GofConfig.min_tail_size,
    "corr_threshold": DetectorConfig.corr_threshold,
    "elevation_factor": DetectorConfig.elevation_factor,
    "decision_threshold": DetectorConfig.decision_threshold,
    "honest": 10,
    "manipulated": 2,
    "partial": GroupSpec.partial,
    "days": SimConfig.n_days,
    "traders": SimConfig.n_traders,
    "trades_per_day": SimConfig.trades_per_day,
    "colluders": SimConfig.n_colluders,
    "wash_fraction": SimConfig.wash_volume_fraction,
    "bucket": SimConfig.capitalization_bucket,
    "sector": SimConfig.sector,
}


def _atomic_write(path: Path, content) -> None:
    """Write ``content`` (text, or a function that writes to an open text
    stream) to a temporary sibling, then rename it over ``path``; a write
    that fails leaves neither file behind."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            if callable(content):
                content(fh)
            else:
                fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _effective_config(args: argparse.Namespace) -> dict:
    """The subcommand's own DEFAULTS keys, those its parser has options for;
    a config file may also give ``simulate`` its ``groups``."""
    merged = {key: DEFAULTS[key] for key in DEFAULTS if hasattr(args, key)}
    flags = {key: getattr(args, key) for key in merged if getattr(args, key) is not None}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            file_cfg = json.load(fh)
        allowed = {*merged, "groups"} if args.subcommand == "simulate" else set(merged)
        unknown = set(file_cfg) - allowed
        if unknown:
            raise ValueError(f"unknown config file keys: {sorted(unknown)}")
        merged.update(file_cfg)
    return {**merged, **flags}


def _gof_config(cfg: dict) -> GofConfig:
    """Map CLI numbers onto GofConfig; bootstrap 0 means skip p-values.
    ``detect`` never bootstraps, so it has no seed."""
    return GofConfig(bootstrap_replicas=int(cfg["bootstrap"]),
                     rng_seed=int(cfg.get("seed", GofConfig.rng_seed)),
                     min_tail_size=int(cfg["min_tail"]))


# ---------------------------------------------------------------- simulate

def _corpus_spec(cfg: dict) -> CorpusSpec:
    """The corpus a ``simulate`` configuration asks for: its ``groups``,
    or one group of the flags' counts and labels."""
    base = SimConfig(n_days=int(cfg["days"]), n_traders=int(cfg["traders"]),
                     trades_per_day=float(cfg["trades_per_day"]),
                     n_colluders=int(cfg["colluders"]),
                     wash_volume_fraction=float(cfg["wash_fraction"]))
    if "groups" in cfg:
        groups = tuple(GroupSpec(**g) for g in cfg["groups"])
    else:
        groups = (GroupSpec(capitalization_bucket=str(cfg["bucket"]),
                            sector=str(cfg["sector"]),
                            honest=int(cfg["honest"]),
                            manipulated=int(cfg["manipulated"]),
                            partial=int(cfg["partial"])),)
    return CorpusSpec(groups=groups, master_seed=int(cfg["seed"]), base=base)


def _cmd_simulate(args: argparse.Namespace, out: Path, spec: CorpusSpec) -> int:
    """Simulate, write and release one stock after another, so memory holds
    one stock; ``corpus_manifest.json`` comes last, so a corpus without it
    is incomplete, and an older run's is deleted first.  A failure names
    its stock."""
    (out / "corpus_manifest.json").unlink(missing_ok=True)
    configs = corpus_configs(spec)
    for cfg in configs:
        try:
            log = simulate(cfg).log
            _atomic_write(out / f"{cfg.symbol}.csv", partial(write_transactions, log))
            _atomic_write(out / f"{cfg.symbol}.json", partial(write_stock_meta, log.meta))
        except Exception as exc:
            raise ValueError(f"{cfg.symbol}: {exc}") from exc
        if args.verbose:
            print(f"{cfg.symbol}: {log.n_records} records "
                  f"({'manipulated' if cfg.manipulated else 'honest'})", file=sys.stderr)
        del log
    symbols = [cfg.symbol for cfg in configs]
    _atomic_write(out / "corpus_manifest.json", _dump_json({
        "master_seed": spec.master_seed,
        "stocks": [{"symbol": s, "csv": f"{s}.csv", "meta": f"{s}.json"} for s in symbols],
        "toolkit_version": __version__,
    }))
    print(f"wrote {len(symbols)} stocks to {out}")
    return 0


# ---------------------------------------------------------------- validate

def _cmd_validate(args: argparse.Namespace) -> int:
    """Parse the corpus as the other subcommands load it, one line per
    stock as it is parsed."""
    load_corpus(args.corpus, lambda log, _: print(f"{log.meta.symbol}: {log.n_records} records"))
    return 0


def _visit_corpus(args: argparse.Namespace, visit) -> dict:
    """``load_corpus`` over ``--corpus``; under ``-v``, one stderr line per
    stock once ``visit`` is done with it."""
    def visited(log, metas):
        result = visit(log, metas)
        if args.verbose:
            print(f"{log.meta.symbol}: {log.n_records} records", file=sys.stderr)
        return result
    return load_corpus(args.corpus, visited)


# ---------------------------------------------------------------- build

def _cmd_build(args: argparse.Namespace, out: Path) -> int:
    def build(log, _):
        net = build_network(log)
        _atomic_write(out / "networks" / f"{log.meta.symbol}_edges.csv",
                      partial(write_edge_list, net))
        print(f"{log.meta.symbol}: n={net.node_count} m={net.edge_count} "
              f"volume={net.total_volume()}")
    _visit_corpus(args, build)
    return 0


# ---------------------------------------------------------------- fit

def _cmd_fit(args: argparse.Namespace, out: Path, gof: GofConfig) -> int:
    def fit(log, _):
        # A statistic whose tail cannot be fit is written as null.
        sym, fits = log.meta.symbol, compute_features(log, gof).fits
        _atomic_write(out / "fits" / f"{sym}.json", _dump_json({"symbol": sym, "fits": fits}))
        if args.verbose:
            fitted = sum(fit is not None for fit in fits.values())
            print(f"{sym}: fitted {fitted} of {len(fits)} statistics", file=sys.stderr)
    stocks = load_corpus(args.corpus, fit)
    print(f"wrote fits for {len(stocks)} stocks to {out / 'fits'}")
    return 0


# ---------------------------------------------------------------- features

# features.csv's columns per tail statistic: (column suffix, TailFit field).
FIT_COLUMNS = (("xmin", "x_min"), ("alpha", "alpha"), ("ccdf_exponent", "ccdf_exponent"),
               ("ks_distance", "ks_distance"), ("p_value", "p_value"),
               ("n_tail", "n_tail"), ("levy_stable", "levy_stable"))
STOCK_COLUMNS = ("symbol", "n_days", "avg_degree", "return_ratio_corr")


def _cell(value) -> str:
    """One features.csv cell: None empty, booleans in lower case, floats in
    repr form."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _feature_row(feats) -> list[str]:
    row = [_cell(getattr(feats, col)) for col in STOCK_COLUMNS]
    for stat in TAIL_STATS:
        fit = feats.fits.get(stat)
        row.extend(_cell(None if fit is None else getattr(fit, name))
                   for _, name in FIT_COLUMNS)
    return row


def _write_plotdata(out: Path, stock) -> None:
    """One stock's CCDF points per tail statistic and its daily series."""
    sym = stock.symbol
    for stat, samples in stock.samples.items():
        if samples.size == 0:
            continue
        xs, cc = ccdf_points(samples)
        rows = zip(map(str, xs.tolist()), map(repr, cc.tolist()))
        _atomic_write(out / "plotdata" / f"{sym}_ccdf_{stat}.csv",
                      partial(_write_rows, header=("x", "ccdf"), rows=rows))
    series = stock.series
    rows = zip(map(dt.date.isoformat, series.days), map(repr, series.avg_price.tolist()),
               map(str, series.n_sellers.tolist()), map(str, series.n_buyers.tolist()))
    _atomic_write(out / "plotdata" / f"{sym}_daily.csv", partial(
        _write_rows, header=("date", "avg_price", "n_sellers", "n_buyers"), rows=rows))


def _cmd_features(args: argparse.Namespace, out: Path, gof: GofConfig) -> int:
    """Write each stock's plot data as it is featurized and keep its
    features.csv row; features.csv comes last."""
    def featurize(log, _):
        stock = compute_features(log, gof)
        _write_plotdata(out, stock)
        return _feature_row(stock)
    rows = _visit_corpus(args, featurize)
    header = [*STOCK_COLUMNS,
              *(f"{stat}_{suffix}" for stat in TAIL_STATS for suffix, _ in FIT_COLUMNS)]
    _atomic_write(out / "features.csv",
                  partial(_write_rows, header=header, rows=rows.values()))
    print(f"wrote {out / 'features.csv'} ({len(rows)} stocks)")
    return 0


# ---------------------------------------------------------------- detect

def _cmd_detect(args: argparse.Namespace, out: Path, gof: GofConfig,
                thresholds: DetectorConfig) -> int:
    reports = detect_corpus(partial(_visit_corpus, args), gof, thresholds)
    _atomic_write(out / "reports.json", _dump_json(reports))
    flagged = [r.symbol for r in reports if r.verdict]
    print(f"{len(reports)} stocks evaluated, {len(flagged)} flagged"
          + (f": {', '.join(flagged)}" if flagged else ""))
    return 1 if flagged else 0


# ---------------------------------------------------------------- parser

def _add_common(p: argparse.ArgumentParser, *, seed: bool) -> None:
    """Options of every subcommand that writes files; ``seed`` for those
    that draw random numbers."""
    p.add_argument("--config", help="JSON config file (flags override it)")
    p.add_argument("--dump-config", action="store_true",
                   help="print the effective configuration and exit")
    if seed:
        p.add_argument("--seed", type=int, help="master RNG seed")
    p.add_argument("-v", "--verbose", action="store_true")
    p.add_argument("--out", required=True, help="output directory")


def _add_gof(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bootstrap", type=int,
                   help="bootstrap replicas for p-values (0 skips them; "
                        "detect never computes p-values)")
    p.add_argument("--min-tail", dest="min_tail", type=int,
                   help="minimum tail size for the x_min scan")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tradenet",
        description="Trading-network forensics: build networks from "
                    "transaction logs, calibrate power-law tails, and flag "
                    "trade-based manipulation.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic corpus")
    _add_common(p, seed=True)
    p.add_argument("--honest", type=int, help="honest stocks to generate")
    p.add_argument("--manipulated", type=int, help="manipulated stocks")
    p.add_argument("--partial", type=int,
                   help="of the manipulated, how many get a partial window")
    p.add_argument("--days", type=int, help="trading days per stock")
    p.add_argument("--traders", type=int, help="trader population per stock")
    p.add_argument("--trades-per-day", dest="trades_per_day", type=float)
    p.add_argument("--colluders", type=int, help="colluder ring size")
    p.add_argument("--wash-fraction", dest="wash_fraction", type=float,
                   help="target colluder share of traded volume")
    p.add_argument("--bucket", help="capitalization bucket label")
    p.add_argument("--sector", help="industry sector label")

    p = sub.add_parser("validate", help="parse-only check of a corpus")
    p.add_argument("--corpus", required=True, help="corpus directory")

    p = sub.add_parser("build", help="export merged trading networks")
    _add_common(p, seed=False)
    p.add_argument("--corpus", required=True, help="corpus directory")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("fit", help="power-law tail fits per stock")
    _add_common(p, seed=True)
    p.add_argument("--corpus", required=True)
    _add_gof(p)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("features", help="feature table and plot data")
    _add_common(p, seed=True)
    p.add_argument("--corpus", required=True)
    _add_gof(p)
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("detect", help="reference comparison and verdicts")
    _add_common(p, seed=False)
    p.add_argument("--corpus", required=True)
    _add_gof(p)
    p.add_argument("--corr-threshold", dest="corr_threshold", type=float)
    p.add_argument("--elevation-factor", dest="elevation_factor", type=float)
    p.add_argument("--decision-threshold", dest="decision_threshold", type=float)
    p.set_defaults(func=_cmd_detect)

    return parser


def main(argv=None) -> int:
    """Resolve the configuration and check it, load the corpus, run the
    subcommand and record the run in ``manifest.json``; ``validate`` writes
    nothing."""
    args = build_parser().parse_args(argv)
    try:
        if args.subcommand == "validate":
            return _cmd_validate(args)
        cfg = _effective_config(args)
        # The typed configs are built before the configuration is printed
        # or a corpus is read, so a value they reject fails at once.
        configs = {}
        if args.subcommand == "simulate":
            configs["spec"] = _corpus_spec(cfg)
        if "bootstrap" in cfg:
            configs["gof"] = _gof_config(cfg)
        if args.subcommand == "detect":
            configs["thresholds"] = DetectorConfig(**{key: float(cfg[key]) for key in (
                "corr_threshold", "elevation_factor", "decision_threshold")})
        if args.dump_config:
            print(_dump_json(cfg), end="")
            return 0
        out = Path(args.out)
        run = {"subcommand": args.subcommand, "config": cfg, "inputs": []}
        if args.subcommand == "simulate":
            code = _cmd_simulate(args, out, **configs)
        else:
            corpus = Path(args.corpus)
            if out.resolve() == corpus.resolve():
                raise ValueError(f"{out}: --out is the --corpus directory")
            # A run that fails mid-corpus leaves the artifacts of the stocks
            # before the failing one; without a manifest they read as partial.
            (out / "manifest.json").unlink(missing_ok=True)
            code = args.func(args, out, **configs)
            # A directory without corpus_manifest.json is analysed whole,
            # so the run says whether the corpus had one.
            run.update(inputs=[str(corpus)],
                       corpus_manifest=(corpus / "corpus_manifest.json").exists())
        _atomic_write(out / "manifest.json", _dump_json({
            **run, "toolkit_version": __version__,
            "timestamp": dt.datetime.now(dt.timezone.utc).isoformat()}))
        return code
    except BrokenPipeError:
        return 1
    except Exception as exc:  # single-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

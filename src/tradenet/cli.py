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
from .features import TAIL_STATS, compute_features, tail_samples
from .ingest import (StockMeta, load_corpus, parse_transactions,
                     read_stock_meta, write_stock_meta, write_transactions)
from .network import build_network, write_edge_list
from .powerlaw import GofConfig, ccdf_points, fit_tail
from .sim import CorpusSpec, GroupSpec, SimConfig, generate_corpus

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
    stream) to a temporary sibling, then rename it over ``path``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        if callable(content):
            content(fh)
        else:
            fh.write(content)
    os.replace(tmp, path)


def _dump_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _effective_config(args: argparse.Namespace) -> dict:
    merged = dict(DEFAULTS)
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            file_cfg = json.load(fh)
        unknown = set(file_cfg) - set(DEFAULTS) - {"groups"}
        if unknown:
            raise ValueError(f"unknown config file keys: {sorted(unknown)}")
        merged.update(file_cfg)
    for key in DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    return merged


def _write_manifest(out: Path, subcommand: str, cfg: dict, inputs: list[str]) -> None:
    manifest = {
        "subcommand": subcommand,
        "config": {k: cfg[k] for k in sorted(cfg) if k != "groups"},
        "inputs": sorted(inputs),
        "toolkit_version": __version__,
        "timestamp": dt.datetime.now(dt.timezone.utc).isoformat(),
    }
    if "groups" in cfg:
        manifest["config"]["groups"] = cfg["groups"]
    _atomic_write(out / "manifest.json", _dump_json(manifest))


def _gof_config(cfg: dict) -> GofConfig:
    """Map CLI numbers onto GofConfig; bootstrap 0 means skip p-values."""
    return GofConfig(bootstrap_replicas=int(cfg["bootstrap"]),
                     rng_seed=int(cfg["seed"]),
                     min_tail_size=int(cfg["min_tail"]))


def _detector_config(cfg: dict) -> DetectorConfig:
    return DetectorConfig(corr_threshold=float(cfg["corr_threshold"]),
                          elevation_factor=float(cfg["elevation_factor"]),
                          decision_threshold=float(cfg["decision_threshold"]))


# ---------------------------------------------------------------- simulate

def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _effective_config(args)
    out = Path(args.out)
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
    spec = CorpusSpec(groups=groups, master_seed=int(cfg["seed"]), base=base)
    results = generate_corpus(spec)

    files = []
    for res in results:
        sym = res.log.meta.symbol
        _atomic_write(out / f"{sym}.csv", partial(write_transactions, res.log))
        _atomic_write(out / f"{sym}.json", partial(write_stock_meta, res.log.meta))
        files.append(sym)
        if args.verbose:
            print(f"{sym}: {res.log.n_records} records "
                  f"({'manipulated' if res.truth.manipulated else 'honest'})",
                  file=sys.stderr)

    corpus_manifest = {
        "master_seed": int(cfg["seed"]),
        "stocks": [{"symbol": s,
                    "csv": f"{s}.csv",
                    "meta": f"{s}.json"} for s in files],
        "toolkit_version": __version__,
    }
    _atomic_write(out / "corpus_manifest.json", _dump_json(corpus_manifest))
    _write_manifest(out, "simulate", cfg, [])
    print(f"wrote {len(files)} stocks to {out}")
    return 0


# ---------------------------------------------------------------- validate

def _cmd_validate(args: argparse.Namespace) -> int:
    paths: list[Path] = []
    if args.corpus:
        paths.extend(sorted(Path(args.corpus).glob("*.csv")))
    paths.extend(Path(p) for p in args.files)
    if not paths:
        print("error: no input files", file=sys.stderr)
        return 2
    for path in paths:
        meta_path = path.with_suffix(".json")
        if meta_path.exists():
            meta = read_stock_meta(meta_path)
        else:
            meta = StockMeta(symbol=path.stem, capitalization_bucket="unknown",
                             sector="unknown")
        log = parse_transactions(path, meta)
        print(f"{path.name}: {log.n_records} records")
    return 0


# ---------------------------------------------------------------- build

def _cmd_build(args: argparse.Namespace) -> int:
    cfg = _effective_config(args)
    out = Path(args.out)
    logs = load_corpus(args.corpus)
    for sym in sorted(logs):
        net = build_network(logs[sym])
        _atomic_write(out / "networks" / f"{sym}_edges.csv",
                      partial(write_edge_list, net))
        print(f"{sym}: n={net.node_count} m={net.edge_count} "
              f"volume={net.total_volume()}")
    _write_manifest(out, "build", cfg, [str(args.corpus)])
    return 0


# ---------------------------------------------------------------- fit

def _cmd_fit(args: argparse.Namespace) -> int:
    cfg = _effective_config(args)
    out = Path(args.out)
    gof_cfg = _gof_config(cfg)
    logs = load_corpus(args.corpus)
    for sym in sorted(logs):
        tails = tail_samples(build_network(logs[sym]))
        fits = {stat: fit_tail(sample, gof_cfg, max_candidates=cap).to_dict()
                for stat, (sample, cap) in tails.items()}
        _atomic_write(out / "fits" / f"{sym}.json",
                      _dump_json({"symbol": sym, "fits": fits}))
        if args.verbose:
            print(f"{sym}: fitted {len(fits)} statistics", file=sys.stderr)
    _write_manifest(out, "fit", cfg, [str(args.corpus)])
    print(f"wrote fits for {len(logs)} stocks to {out / 'fits'}")
    return 0


# ---------------------------------------------------------------- features

def _feature_columns() -> list[str]:
    cols = ["symbol", "n_days", "avg_degree", "return_ratio_corr"]
    for stat in TAIL_STATS:
        for field in ("xmin", "alpha", "ccdf_exponent", "ks_distance",
                      "p_value", "n_tail", "levy_stable"):
            cols.append(f"{stat}_{field}")
    return cols


def _feature_row(feats) -> list[str]:
    def cell(v):
        if v is None:
            return ""
        if isinstance(v, bool):
            return str(v).lower()
        if isinstance(v, float):
            return repr(v)
        return str(v)

    row = [feats.symbol, str(feats.n_days), repr(feats.avg_degree),
           cell(feats.return_ratio_corr)]
    for stat in TAIL_STATS:
        fit = feats.fits.get(stat)
        if fit is None:
            row.extend([""] * 7)
        else:
            row.extend([str(fit.x_min), repr(fit.alpha), repr(fit.ccdf_exponent),
                        repr(fit.ks_distance), cell(fit.p_value),
                        str(fit.n_tail), str(fit.levy_stable).lower()])
    return row


def _write_features_csv(path: Path, features_by_symbol: dict) -> None:
    lines = [",".join(_feature_columns())]
    for sym in sorted(features_by_symbol):
        lines.append(",".join(_feature_row(features_by_symbol[sym])))
    _atomic_write(path, "\n".join(lines) + "\n")


def _cmd_features(args: argparse.Namespace) -> int:
    cfg = _effective_config(args)
    out = Path(args.out)
    gof_cfg = _gof_config(cfg)
    logs = load_corpus(args.corpus)
    feats = {sym: compute_features(logs[sym], gof_cfg) for sym in sorted(logs)}
    _write_features_csv(out / "features.csv", feats)

    for sym, stock in feats.items():
        for stat, samples in stock.samples.items():
            if samples.size == 0:
                continue
            xs, cc = ccdf_points(samples)
            lines = ["x,ccdf"] + [f"{x},{float(c)!r}" for x, c in zip(xs, cc)]
            _atomic_write(out / "plotdata" / f"{sym}_ccdf_{stat}.csv",
                          "\n".join(lines) + "\n")
        series = stock.series
        lines = ["date,avg_price,n_sellers,n_buyers"]
        for i, day in enumerate(series.days):
            lines.append(f"{day.isoformat()},{float(series.avg_price[i])!r},"
                         f"{series.n_sellers[i]},{series.n_buyers[i]}")
        _atomic_write(out / "plotdata" / f"{sym}_daily.csv", "\n".join(lines) + "\n")

    _write_manifest(out, "features", cfg, [str(args.corpus)])
    print(f"wrote {out / 'features.csv'} ({len(feats)} stocks)")
    return 0


# ---------------------------------------------------------------- detect

def _cmd_detect(args: argparse.Namespace) -> int:
    cfg = _effective_config(args)
    out = Path(args.out)
    gof_cfg = _gof_config(cfg)
    logs = load_corpus(args.corpus)
    reports = detect_corpus(logs, gof_cfg, _detector_config(cfg))
    _atomic_write(out / "reports.json",
                  _dump_json([r.to_dict() for r in reports]))
    _write_manifest(out, "detect", cfg, [str(args.corpus)])
    flagged = [r.symbol for r in reports if r.verdict]
    print(f"{len(reports)} stocks evaluated, {len(flagged)} flagged"
          + (f": {', '.join(flagged)}" if flagged else ""))
    return 1 if flagged else 0


# ---------------------------------------------------------------- parser

def _add_common(p: argparse.ArgumentParser, *, out_required: bool = True) -> None:
    p.add_argument("--config", help="JSON config file (flags override it)")
    p.add_argument("--dump-config", action="store_true",
                   help="print the effective configuration and exit")
    p.add_argument("--seed", type=int, help="master RNG seed")
    p.add_argument("-v", "--verbose", action="store_true")
    if out_required:
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
    _add_common(p)
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
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("validate", help="parse-only check of transaction CSVs")
    p.add_argument("files", nargs="*", help="transaction CSV files")
    p.add_argument("--corpus", help="directory of SYMBOL.csv files")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--dump-config", action="store_true")
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("build", help="export merged trading networks")
    _add_common(p)
    p.add_argument("--corpus", required=True, help="corpus directory")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("fit", help="power-law tail fits per stock")
    _add_common(p)
    p.add_argument("--corpus", required=True)
    _add_gof(p)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("features", help="feature table and plot data")
    _add_common(p)
    p.add_argument("--corpus", required=True)
    _add_gof(p)
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("detect", help="reference comparison and verdicts")
    _add_common(p)
    p.add_argument("--corpus", required=True)
    _add_gof(p)
    p.add_argument("--corr-threshold", dest="corr_threshold", type=float)
    p.add_argument("--elevation-factor", dest="elevation_factor", type=float)
    p.add_argument("--decision-threshold", dest="decision_threshold", type=float)
    p.set_defaults(func=_cmd_detect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "dump_config", False):
            print(_dump_json(_effective_config(args)), end="")
            return 0
        return args.func(args)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # single-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

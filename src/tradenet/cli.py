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

# Every option a flag or config file sets: its type, default and help.  Its
# flag is the key with "-" for "_".  Each default lives on its config
# dataclass; only the corpus's stock counts have no dataclass default.
OPTIONS = {
    "seed": (int, GofConfig.rng_seed, "master RNG seed (>= 0)"),
    "bootstrap": (int, GofConfig.bootstrap_replicas,
                  "bootstrap replicas for p-values (0 skips them; detect ignores it)"),
    "min_tail": (int, GofConfig.min_tail_size, "minimum tail size for the x_min scan"),
    "corr_threshold": (float, DetectorConfig.corr_threshold,
                       "flag a return/seller-buyer-ratio correlation below this, in [-1, 1]"),
    "elevation_factor": (float, DetectorConfig.elevation_factor,
                         "flag a feature above this multiple of its reference mean"),
    "decision_threshold": (float, DetectorConfig.decision_threshold,
                           "share of evaluated feature flags that flags a stock, in (0, 1]"),
    "honest": (int, 10, "honest stocks to generate"),
    "manipulated": (int, 2, "manipulated stocks"),
    "partial": (int, GroupSpec.partial, "of the manipulated, how many get a partial window"),
    "days": (int, SimConfig.n_days, "trading days per stock"),
    "traders": (int, SimConfig.n_traders, "trader population per stock"),
    "trades_per_day": (float, SimConfig.trades_per_day, "mean genuine trades per day"),
    "colluders": (int, SimConfig.n_colluders, "colluder ring size"),
    "wash_fraction": (float, SimConfig.wash_volume_fraction, "colluder share of traded volume"),
    "bucket": (str, SimConfig.capitalization_bucket, "capitalization bucket label"),
    "sector": (str, SimConfig.sector, "industry sector label"),
}
TYPE_NAMES = {int: "an integer", float: "a number", str: "a string"}


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


def _read_config(path: str, keys, groups: bool) -> dict:
    """A config file's values, each of its option's type; an integer for a
    float option is the float its flag parses from the same digits.
    ``groups``, when allowed, becomes a tuple of ``GroupSpec``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            values = json.load(fh)
        if not isinstance(values, dict):
            raise ValueError("not a JSON object")
    except ValueError as exc:
        raise ValueError(f"{path}: not a config file: {exc}") from exc
    if unknown := set(values) - {*keys, *(("groups",) if groups else ())}:
        raise ValueError(f"{path}: unknown config file keys: {sorted(unknown)}")
    for key, value in values.items():
        if key == "groups":
            values[key] = _group_specs(path, value)
            continue
        kind = OPTIONS[key][0]
        if kind is float and type(value) is int:
            values[key] = float(str(value))
        elif type(value) is not kind:
            raise ValueError(f"{path}: {key} must be {TYPE_NAMES[kind]}, got {json.dumps(value)}")
    return values


def _group_specs(path: str, groups) -> tuple[GroupSpec, ...]:
    """A config file's ``groups``: a list of objects, each the fields of
    one ``GroupSpec``; an entry that is not one is named by its index."""
    if not isinstance(groups, list) or not all(isinstance(g, dict) for g in groups):
        raise ValueError(f"{path}: not a config file: groups is not a list of objects")
    specs = []
    for i, group in enumerate(groups):
        try:
            specs.append(GroupSpec(**group))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: groups[{i}]: {exc}") from exc
    return tuple(specs)


def _effective_config(args: argparse.Namespace) -> dict:
    """Defaults, then the config file, then the flags, over the subcommand's
    own option keys; a config file may also give ``simulate`` its ``groups``."""
    _, _, keys = SUBCOMMANDS[args.subcommand]
    cfg = {key: OPTIONS[key][1] for key in keys}
    if args.config:
        cfg.update(_read_config(args.config, keys, groups=args.subcommand == "simulate"))
    cfg.update((key, getattr(args, key)) for key in keys if getattr(args, key) is not None)
    return cfg


# ---------------------------------------------------------------- simulate

def _corpus_spec(cfg: dict) -> CorpusSpec:
    """The corpus a ``simulate`` configuration asks for: its ``groups``,
    or one group of the flags' counts and labels."""
    base = SimConfig(n_days=cfg["days"], n_traders=cfg["traders"],
                     trades_per_day=cfg["trades_per_day"], n_colluders=cfg["colluders"],
                     wash_volume_fraction=cfg["wash_fraction"])
    if "groups" in cfg:
        groups = cfg["groups"]
    else:
        groups = (GroupSpec(capitalization_bucket=cfg["bucket"], sector=cfg["sector"],
                            honest=cfg["honest"], manipulated=cfg["manipulated"],
                            partial=cfg["partial"]),)
    return CorpusSpec(groups=groups, master_seed=cfg["seed"], base=base)


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

GOF_OPTIONS = ("bootstrap", "min_tail")
THRESHOLDS = ("corr_threshold", "elevation_factor", "decision_threshold")
# Each subcommand's function, help line and option keys; validate has none.
SUBCOMMANDS = {
    "simulate": (_cmd_simulate, "generate a synthetic corpus",
                 ("seed", "honest", "manipulated", "partial", "days", "traders",
                  "trades_per_day", "colluders", "wash_fraction", "bucket", "sector")),
    "validate": (_cmd_validate, "parse-only check of a corpus", None),
    "build": (_cmd_build, "export merged trading networks", ()),
    "fit": (_cmd_fit, "power-law tail fits per stock", ("seed", *GOF_OPTIONS)),
    "features": (_cmd_features, "feature table and plot data", ("seed", *GOF_OPTIONS)),
    "detect": (_cmd_detect, "reference comparison and verdicts", (*GOF_OPTIONS, *THRESHOLDS)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tradenet",
        description="Trading-network forensics: build networks from "
                    "transaction logs, calibrate power-law tails, and flag "
                    "trade-based manipulation.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (run, about, keys) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=about)
        p.set_defaults(func=run)
        if name != "simulate":
            p.add_argument("--corpus", required=True, help="corpus directory")
        if keys is None:
            continue
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--dump-config", action="store_true",
                       help="print the effective configuration and exit")
        p.add_argument("-v", "--verbose", action="store_true", help="one stderr line per stock")
        for key in keys:
            kind, _, text = OPTIONS[key]
            p.add_argument("--" + key.replace("_", "-"), type=kind, help=text)
    return parser


def main(argv=None) -> int:
    """Resolve the configuration and check it, load the corpus, run the
    subcommand and record the run in ``manifest.json``; ``validate`` writes
    nothing."""
    args = build_parser().parse_args(argv)
    try:
        if args.subcommand == "validate":
            return args.func(args)
        cfg = _effective_config(args)
        # The typed configs are built before the configuration is printed
        # or a corpus is read, so a value they reject fails at once.
        configs = {}
        if args.subcommand == "simulate":
            configs["spec"] = _corpus_spec(cfg)
        if "bootstrap" in cfg:  # detect never bootstraps, so it has no seed
            configs["gof"] = GofConfig(bootstrap_replicas=cfg["bootstrap"],
                                       rng_seed=cfg.get("seed", GofConfig.rng_seed),
                                       min_tail_size=cfg["min_tail"])
        if args.subcommand == "detect":
            configs["thresholds"] = DetectorConfig(**{key: cfg[key] for key in THRESHOLDS})
        if args.dump_config:
            print(_dump_json(cfg), end="")
            return 0
        out = Path(args.out)
        run = {"subcommand": args.subcommand, "config": cfg, "inputs": []}
        if args.subcommand != "simulate":
            corpus = Path(args.corpus)
            if out.resolve() == corpus.resolve():
                raise ValueError(f"{out}: --out is the --corpus directory")
            # A run that fails mid-corpus leaves the artifacts of the stocks
            # before the failing one; without a manifest they read as partial.
            (out / "manifest.json").unlink(missing_ok=True)
            # A directory without corpus_manifest.json is analysed whole,
            # so the run says whether the corpus had one.
            run.update(inputs=[str(corpus)],
                       corpus_manifest=(corpus / "corpus_manifest.json").exists())
        code = args.func(args, out, **configs)
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

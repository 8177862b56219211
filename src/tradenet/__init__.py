"""Trading-network forensics toolkit.

Reconstructs per-stock trading networks from transaction logs, calibrates
power-law tails of degree and strength distributions, extracts price and
trader-count features, and flags trade-based manipulation by comparison
against matched reference stocks.  A seeded market simulator provides
ground truth for evaluation.
"""

from .detector import (DetectorConfig, ManipulationReport, detect_corpus,
                       evaluate, reference_values, select_reference)
from .features import (DailySeries, StockFeatures, compute_features,
                       daily_series, log_returns, pearson_corr,
                       return_ratio_correlation, seller_buyer_ratio)
from .ingest import (StockMeta, TransactionLog, TransactionParseError,
                     filter_period, load_corpus, parse_transactions,
                     read_stock_meta, write_stock_meta, write_transactions)
from .network import (DegreeSequences, StrengthSequences, TradingNetwork,
                      average_degree, build_network, degree_sequences,
                      strength_sequences, write_edge_list)
from .powerlaw import (DiscretePowerLaw, GofConfig, TailFit, ccdf_points,
                       fit_tail, gof_pvalue, scan_xmin, select_tails, select_xmin)
from .sim import (CorpusSpec, GroupSpec, SimConfig, SimResult,
                  corpus_configs, simulate, trading_days)

__version__ = "0.2.0"

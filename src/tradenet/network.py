"""Directed weighted trading networks and their degree/strength sequences.

Nodes are trader indices; an edge points from the seller to the buyer and
carries the total volume exchanged between that ordered pair (multi-edges
merged).  Self-trades (buyer == seller) stay in the network and count toward
strengths, but degrees count distinct *other* counterparties, so self-loops
never inflate them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import TransactionLog, _block_rows, _each, _format_distinct, _write_rows


@dataclass(frozen=True, eq=False)
class TradingNetwork:
    """Merged directed graph of one stock over one period.

    Node i is the log's account ``accounts[i]``; every account trades, so
    there are exactly ``node_count`` of them.  ``edge_sellers``/
    ``edge_buyers``/``edge_weights`` are parallel arrays, one entry per
    distinct ordered (seller, buyer) pair, sorted by that pair.  Every
    node's bought plus sold volume fits in int64, so every weight and
    strength is an exact int64 sum.
    """

    node_count: int
    edge_sellers: np.ndarray
    edge_buyers: np.ndarray
    edge_weights: np.ndarray

    @property
    def edge_count(self) -> int:
        return self.edge_weights.size

    def total_volume(self) -> int:
        """The sum of every weight, exact in Python int: the weights each fit
        in int64, but their sum need not."""
        return sum(self.edge_weights.tolist())


@dataclass(frozen=True, eq=False)
class DegreeSequences:
    """Per-node distinct-counterparty counts; index i is node i."""

    out_deg: np.ndarray
    in_deg: np.ndarray


@dataclass(frozen=True, eq=False)
class StrengthSequences:
    """Per-node traded volumes, index i for node i: s_in bought, s_out sold,
    s_tot their sum."""

    s_in: np.ndarray
    s_out: np.ndarray
    s_tot: np.ndarray


def _sums(groups: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Per-group int64 sums of int64 ``values``, exact while no sum leaves
    int64."""
    sums = np.zeros(size, np.int64)
    np.add.at(sums, groups, values)
    return sums


def build_network(log: TransactionLog) -> TradingNetwork:
    """Merge a transaction log into its directed weighted trading network.

    A node whose bought plus sold volume int64 cannot hold is a ValueError
    naming the stock: that total bounds each weight and strength.
    """
    if log.n_records == 0:
        raise ValueError(f"{log.meta.symbol}: cannot build a network from an empty log")
    k = len(log.accounts)
    # A node's bought plus sold volume is at most 2 * n_records times the
    # largest volume.  Only when that bound leaves int64 is each node's
    # total summed, exactly, in 32-bit halves whose sums cannot overflow.
    if 2 * log.n_records * int(log.volumes.max()) >= 2**63:
        nodes = np.concatenate((log.sellers, log.buyers))
        volumes = np.concatenate((log.volumes, log.volumes))
        low = _sums(nodes, volumes & 0xFFFFFFFF, k)
        high = _sums(nodes, volumes >> 32, k) + (low >> 32)
        if (high >= 2**31).any():
            raise ValueError(f"{log.meta.symbol}: account {log.accounts[high.argmax()]!r} "
                             "trades a volume that exceeds int64")
    keys = log.sellers * k + log.buyers
    uniq_keys, inverse = np.unique(keys, return_inverse=True)
    sellers = (uniq_keys // k).astype(np.int64)
    buyers = (uniq_keys % k).astype(np.int64)
    return TradingNetwork(node_count=k, edge_sellers=sellers, edge_buyers=buyers,
                          edge_weights=_sums(inverse, log.volumes, uniq_keys.size))


def degree_sequences(net: TradingNetwork) -> DegreeSequences:
    """Distinct out-/in-neighbor counts per node on the merged graph."""
    not_loop = net.edge_sellers != net.edge_buyers
    out_deg = np.bincount(net.edge_sellers[not_loop], minlength=net.node_count)
    in_deg = np.bincount(net.edge_buyers[not_loop], minlength=net.node_count)
    return DegreeSequences(out_deg=out_deg, in_deg=in_deg)


def strength_sequences(net: TradingNetwork) -> StrengthSequences:
    """Per-node bought/sold/total volumes (self-loops included on both sides)."""
    s_out = _sums(net.edge_sellers, net.edge_weights, net.node_count)
    s_in = _sums(net.edge_buyers, net.edge_weights, net.node_count)
    return StrengthSequences(s_in=s_in, s_out=s_out, s_tot=s_in + s_out)


def average_degree(net: TradingNetwork) -> float:
    """Mean total degree, i.e. 2m/n on a self-loop-free merged graph."""
    if net.node_count == 0:
        raise ValueError("empty network")
    return 2 * int(np.count_nonzero(net.edge_sellers != net.edge_buyers)) / net.node_count


def write_edge_list(net: TradingNetwork, dest) -> None:
    """Write the ``seller_idx,buyer_idx,weight`` CSV for external graph tools
    to an open text stream."""
    _write_rows(dest, ("seller_idx", "buyer_idx", "weight"),
                _block_rows(*(_format_distinct(col, _each(str)) for col in
                              (net.edge_sellers, net.edge_buyers, net.edge_weights))))

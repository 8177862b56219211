"""Directed weighted trading networks and their degree/strength sequences.

Nodes are trader indices; an edge points from the seller to the buyer and
carries the total volume exchanged between that ordered pair (multi-edges
merged).  Self-trades (buyer == seller) stay in the network and count toward
strengths, but degrees count distinct *other* counterparties, so self-loops
never inflate them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ingest import TransactionLog


@dataclass(frozen=True, eq=False)
class TradingNetwork:
    """Merged directed graph of one stock over one period.

    ``edge_sellers``/``edge_buyers``/``edge_weights`` are parallel arrays,
    one entry per distinct ordered (seller, buyer) pair, sorted by that pair.
    """

    nodes: np.ndarray
    edge_sellers: np.ndarray
    edge_buyers: np.ndarray
    edge_weights: np.ndarray
    transaction_count: int

    @property
    def node_count(self) -> int:
        return self.nodes.size

    @property
    def edge_count(self) -> int:
        return self.edge_weights.size

    def total_volume(self) -> int:
        return int(self.edge_weights.sum())


@dataclass(frozen=True, eq=False)
class DegreeSequences:
    """Per-node distinct-counterparty counts, aligned with ``nodes``."""

    nodes: np.ndarray
    out_deg: np.ndarray
    in_deg: np.ndarray
    tot_deg: np.ndarray


@dataclass(frozen=True, eq=False)
class StrengthSequences:
    """Per-node traded volumes, aligned with ``nodes``: s_in bought,
    s_out sold, s_tot their sum."""

    nodes: np.ndarray
    s_in: np.ndarray
    s_out: np.ndarray
    s_tot: np.ndarray


def build_network(log: TransactionLog) -> TradingNetwork:
    """Merge a transaction log into its directed weighted trading network."""
    if log.n_records == 0:
        raise ValueError("cannot build a network from an empty log")
    k = len(log.accounts)
    keys = log.sellers * k + log.buyers
    uniq_keys, inverse = np.unique(keys, return_inverse=True)
    weights = np.bincount(inverse, weights=log.volumes.astype(np.float64))
    sellers = (uniq_keys // k).astype(np.int64)
    buyers = (uniq_keys % k).astype(np.int64)
    nodes = np.unique(np.concatenate([sellers, buyers]))
    return TradingNetwork(nodes=nodes, edge_sellers=sellers, edge_buyers=buyers,
                          edge_weights=weights.astype(np.int64),
                          transaction_count=log.n_records)


def degree_sequences(net: TradingNetwork) -> DegreeSequences:
    """Distinct out-/in-neighbor counts per node on the merged graph."""
    size = int(net.nodes.max()) + 1 if net.node_count else 0
    not_loop = net.edge_sellers != net.edge_buyers
    out_full = np.bincount(net.edge_sellers[not_loop], minlength=size)
    in_full = np.bincount(net.edge_buyers[not_loop], minlength=size)
    out_deg = out_full[net.nodes]
    in_deg = in_full[net.nodes]
    return DegreeSequences(nodes=net.nodes, out_deg=out_deg, in_deg=in_deg,
                           tot_deg=out_deg + in_deg)


def strength_sequences(net: TradingNetwork) -> StrengthSequences:
    """Per-node bought/sold/total volumes (self-loops included on both sides)."""
    size = int(net.nodes.max()) + 1 if net.node_count else 0
    w = net.edge_weights.astype(np.float64)
    s_out_full = np.bincount(net.edge_sellers, weights=w, minlength=size)
    s_in_full = np.bincount(net.edge_buyers, weights=w, minlength=size)
    s_out = s_out_full[net.nodes].astype(np.int64)
    s_in = s_in_full[net.nodes].astype(np.int64)
    return StrengthSequences(nodes=net.nodes, s_in=s_in, s_out=s_out,
                             s_tot=s_in + s_out)


def average_degree(net: TradingNetwork) -> float:
    """Mean total degree, i.e. 2m/n on a self-loop-free merged graph."""
    if net.node_count == 0:
        raise ValueError("empty network")
    deg = degree_sequences(net)
    return float(deg.tot_deg.sum() / net.node_count)


def write_edge_list(net: TradingNetwork, dest) -> None:
    """Export ``seller_idx,buyer_idx,weight`` CSV for external graph tools."""
    own = isinstance(dest, (str, Path))
    stream = open(dest, "w", encoding="utf-8", newline="") if own else dest
    try:
        stream.write("seller_idx,buyer_idx,weight\n")
        for s, b, w in zip(net.edge_sellers, net.edge_buyers, net.edge_weights):
            stream.write(f"{s},{b},{w}\n")
    finally:
        if own:
            stream.close()

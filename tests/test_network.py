import datetime as dt
import io
from collections import defaultdict

import numpy as np
import pytest

from tradenet.ingest import filter_period
from tradenet.network import (average_degree, build_network, degree_sequences,
                              strength_sequences, write_edge_list)
from tradenet.sim import SimConfig, simulate

ROWS_MERGE = [
    ("2004-01-05", "09:30:00", "1", "B1", "S1", 100, 5.0),
    ("2004-01-05", "09:31:00", "2", "B1", "S1", 200, 5.1),
]


def test_multi_edges_merge(make_log):
    net = build_network(make_log(ROWS_MERGE))
    assert net.node_count == 2
    assert net.edge_count == 1
    assert net.edge_weights.tolist() == [300]


@pytest.mark.parametrize("volumes, weight", [
    ([2**53 + 1, 2], 2**53 + 3),  # no float64 is 2**53 + 3
    ([2**62, 2**62 - 1], 2**63 - 1),  # the largest int64
], ids=["beyond-float64", "int64-max"])
def test_weights_and_strengths_sum_exactly(make_log, volumes, weight):
    log = make_log([("2004-01-05", "09:30:00", str(i), "B", "A", v, 5.0)
                    for i, v in enumerate(volumes)])
    net = build_network(log)
    assert net.edge_weights.tolist() == [weight]
    stren = strength_sequences(net)
    a = log.accounts.index("A")
    assert (int(stren.s_out[a]), int(stren.s_tot[a])) == (weight, weight)


@pytest.mark.parametrize("rows", [
    [("2004-01-05", "09:30:00", "1", "B", "A", 2**62, 5.0),
     ("2004-01-05", "09:31:00", "2", "B", "A", 2**62, 5.0)],
    [("2004-01-05", "09:30:00", "1", "A", "A", 2**62, 5.0)],
], ids=["weight", "self-trade-strength"])
def test_sum_beyond_int64_names_the_stock(make_log, rows):
    """A weight, or a strength (a self-trade counts on both sides), that
    int64 cannot hold."""
    with pytest.raises(ValueError, match="^TEST: .*exceeds int64"):
        build_network(make_log(rows))


def test_total_volume_beyond_int64(make_log):
    """Every weight fits in int64 but their sum does not."""
    rows = [("2004-01-05", "09:30:00", "1", "B", "A", 2**62, 5.0),
            ("2004-01-05", "09:31:00", "2", "D", "C", 2**62, 5.0)]
    assert build_network(make_log(rows)).total_volume() == 2**63


def test_direction_distinguishes_edges(make_log):
    rows = [("2004-01-05", "09:30:00", "1", "B", "A", 50, 5.0),
            ("2004-01-05", "09:31:00", "2", "A", "B", 50, 5.0)]
    net = build_network(make_log(rows))
    assert net.node_count == 2
    assert net.edge_count == 2
    assert net.edge_weights.tolist() == [50, 50]


def test_empty_log_rejected(make_log):
    with pytest.raises(ValueError):
        build_network(make_log([]))


def test_weights_match_bruteforce_accumulation():
    """Edge weights equal a pair-indexed accumulation over raw records."""
    res = simulate(SimConfig(rng_seed=21, n_traders=60, n_days=25,
                             trades_per_day=40.0, n_colluders=20))
    log = res.log
    expected = defaultdict(int)
    for seller, buyer, volume in zip(log.sellers, log.buyers, log.volumes):
        expected[(int(seller), int(buyer))] += int(volume)
    net = build_network(log)
    assert list(zip(net.edge_sellers.tolist(), net.edge_buyers.tolist())) == sorted(expected)
    assert net.edge_weights.tolist() == [expected[pair] for pair in sorted(expected)]


def test_nodes_are_the_logs_accounts():
    """build_network takes every account of a log as a node: parsing and
    filter_period number exactly the accounts that trade, so nodes
    0..node_count-1 are all edge endpoints."""
    log = simulate(SimConfig(rng_seed=21, n_traders=60, n_days=25,
                             trades_per_day=5.0, n_colluders=20)).log
    for part in (log, filter_period(log, (dt.date(2004, 1, 12), dt.date(2004, 1, 14)))):
        net = build_network(part)
        endpoints = np.unique(np.concatenate([net.edge_sellers, net.edge_buyers]))
        assert net.node_count == len(part.accounts)
        assert np.array_equal(endpoints, np.arange(net.node_count))


def test_single_edge_degrees(make_log):
    rows = [("2004-01-05", "09:30:00", "1", "B", "A", 50, 5.0)]
    net = build_network(make_log(rows))
    deg = degree_sequences(net)
    # A sold to B: A out 1 / in 0, B out 0 / in 1
    a = make_log(rows).accounts.index("A")
    b = make_log(rows).accounts.index("B")
    assert (deg.out_deg[a], deg.in_deg[a]) == (1, 0)
    assert (deg.out_deg[b], deg.in_deg[b]) == (0, 1)


def test_star_degrees(make_log):
    rows = [("2004-01-05", "09:30:00", str(i), "HUB", f"S{i}", 100, 5.0)
            for i in range(5)]
    log = make_log(rows)
    deg = degree_sequences(build_network(log))
    hub = log.accounts.index("HUB")
    assert deg.in_deg[hub] == 5
    sellers = [i for i in range(len(log.accounts)) if i != hub]
    for s in sellers:
        assert deg.out_deg[s] == 1 and deg.in_deg[s] == 0


def test_degrees_match_bruteforce_recount():
    res = simulate(SimConfig(rng_seed=8, n_traders=80, n_days=20,
                             trades_per_day=35.0, n_colluders=20))
    net = build_network(res.log)
    deg = degree_sequences(net)
    outs = defaultdict(set)
    ins = defaultdict(set)
    for seller, buyer in zip(res.log.sellers.tolist(), res.log.buyers.tolist()):
        if seller != buyer:
            outs[seller].add(buyer)
            ins[buyer].add(seller)
    assert deg.out_deg.size == deg.in_deg.size == len(res.log.accounts)
    for node, (o, i) in enumerate(zip(deg.out_deg, deg.in_deg)):
        assert o == len(outs[node])
        assert i == len(ins[node])


def test_single_edge_strengths(make_log):
    rows = [("2004-01-05", "09:30:00", "1", "B", "A", 300, 5.0)]
    log = make_log(rows)
    stren = strength_sequences(build_network(log))
    a = log.accounts.index("A")
    b = log.accounts.index("B")
    vals = [(int(si), int(so), int(st))
            for si, so, st in zip(stren.s_in, stren.s_out, stren.s_tot)]
    assert vals[a] == (0, 300, 300)
    assert vals[b] == (300, 0, 300)


def test_strength_combines_in_and_out(make_log):
    rows = [("2004-01-05", "09:30:00", "1", "X", "A", 100, 5.0),
            ("2004-01-05", "09:31:00", "2", "B", "X", 50, 5.0)]
    log = make_log(rows)
    stren = strength_sequences(build_network(log))
    x = log.accounts.index("X")
    assert stren.s_in[x] == 100 and stren.s_out[x] == 50
    assert stren.s_tot[x] == 150


def test_strength_totals_conserve_volume():
    res = simulate(SimConfig(rng_seed=3, n_traders=90, n_days=15,
                             trades_per_day=30.0, n_colluders=20))
    net = build_network(res.log)
    stren = strength_sequences(net)
    total = int(res.log.volumes.sum())
    assert int(stren.s_in.sum()) == total
    assert int(stren.s_out.sum()) == total
    assert int(stren.s_tot.sum()) == 2 * total


def test_average_degree_trivial(make_log):
    one = [("2004-01-05", "09:30:00", "1", "B", "A", 50, 5.0)]
    assert average_degree(build_network(make_log(one))) == 1.0
    chain = [("2004-01-05", "09:30:00", "1", "B", "A", 50, 5.0),
             ("2004-01-05", "09:31:00", "2", "C", "B", 50, 5.0)]
    assert average_degree(build_network(make_log(chain))) == pytest.approx(4 / 3)


def test_handshake_identities():
    res = simulate(SimConfig(rng_seed=17, n_traders=100, n_days=20,
                             trades_per_day=30.0, n_colluders=20))
    net = build_network(res.log)
    deg = degree_sequences(net)
    assert int(deg.out_deg.sum()) == int(deg.in_deg.sum()) == net.edge_count
    assert np.all(deg.out_deg + deg.in_deg > 0), "no isolated nodes"


def test_merge_is_order_independent(make_log):
    rows = [("2004-01-05", "09:30:00", str(i), f"B{i % 4}", f"S{i % 3}",
             100 + i, 5.0) for i in range(30)]
    rng = np.random.default_rng(0)
    net_a = build_network(make_log(rows))
    for _ in range(5):
        shuffled = [rows[j] for j in rng.permutation(len(rows))]
        net_b = build_network(make_log(shuffled))
        assert np.array_equal(net_b.edge_sellers, net_a.edge_sellers)
        assert np.array_equal(net_b.edge_buyers, net_a.edge_buyers)
        assert np.array_equal(net_b.edge_weights, net_a.edge_weights)


def test_self_trade_kept_in_strengths_not_degrees(make_log):
    rows = [("2004-01-05", "09:30:00", "1", "A", "A", 400, 5.0),
            ("2004-01-05", "09:31:00", "2", "B", "A", 100, 5.0)]
    log = make_log(rows)
    net = build_network(log)
    assert int((net.edge_sellers == net.edge_buyers).sum()) == 1
    assert net.total_volume() == 500
    deg = degree_sequences(net)
    stren = strength_sequences(net)
    a = log.accounts.index("A")
    # the self-trade adds no counterparty, but both strength sides
    assert deg.out_deg[a] == 1 and deg.in_deg[a] == 0
    assert stren.s_out[a] == 500 and stren.s_in[a] == 400


def test_edge_list_export(make_log):
    net = build_network(make_log(ROWS_MERGE))
    buf = io.StringIO()
    write_edge_list(net, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "seller_idx,buyer_idx,weight"
    assert len(lines) == 2
    s, b, w = lines[1].split(",")
    assert int(w) == 300

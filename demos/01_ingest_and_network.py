"""Parse a transaction log and inspect its trading network.

Walks the smallest interesting example end to end: a hand-written CSV with a
multi-trade pair, a reciprocal pair, and a self-trade, parsed into a log and
merged into the directed weighted network.
"""

import io

from tradenet import (StockMeta, build_network, degree_sequences,
                      parse_transactions, strength_sequences, average_degree)

CSV = """\
date,time,txn_id,buyer_id,seller_id,volume,price
2004-01-05,09:30:00,1,BOB,ANA,500,7.25
2004-01-05,09:31:10,2,BOB,ANA,300,7.30
2004-01-05,09:32:45,3,ANA,BOB,200,7.28
2004-01-05,10:02:00,4,CHE,ANA,100,7.31
2004-01-05,10:15:30,5,CHE,CHE,900,7.33
2004-01-06,09:30:05,1,DAN,CHE,400,7.40
"""

meta = StockMeta(symbol="DEMO", capitalization_bucket="mid", sector="demo")
log = parse_transactions(io.StringIO(CSV), meta)

print(f"parsed {log.n_records} records, {len(log.accounts)} accounts: "
      f"{', '.join(log.accounts)}")
print(f"span {log.date_range()[0]} .. {log.date_range()[1]}, "
      f"total volume {int(log.volumes.sum())}")

net = build_network(log)
print(f"\nnetwork: {net.node_count} nodes, {net.edge_count} merged edges "
      f"(from {log.n_records} trades), "
      f"{int((net.edge_sellers == net.edge_buyers).sum())} self-loop")
print("edges (seller -> buyer: shares):")
for s, b, w in zip(net.edge_sellers, net.edge_buyers, net.edge_weights):
    print(f"  {log.accounts[s]:>3} -> {log.accounts[b]:<3} {w:>5}")

deg = degree_sequences(net)
stren = strength_sequences(net)
print("\nper-trader summary (self-trade counts toward strength, "
      "not degree):")
print(f"{'trader':>7} {'out':>4} {'in':>4} {'sold':>6} {'bought':>7}")
for i, account in enumerate(log.accounts):  # node i is account i
    print(f"{account:>7} {deg.out_deg[i]:>4} {deg.in_deg[i]:>4} "
          f"{stren.s_out[i]:>6} {stren.s_in[i]:>7}")

print(f"\naverage degree: {average_degree(net):.3f}")
print(f"handshake check: sum(out) = sum(in) = "
      f"{int(deg.out_deg.sum())} non-loop edges")

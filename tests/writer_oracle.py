"""Reference CSV writers: one f-string per record or edge, written
independently of the column writers in ``tradenet.ingest`` and
``tradenet.network`` so the tests can check those byte for byte against
these."""

import datetime as dt

from tradenet.ingest import CSV_HEADER


def write_transactions(log, stream) -> None:
    stream.write(",".join(CSV_HEADER) + "\n")
    date_cache: dict[int, str] = {}
    time_cache: dict[int, str] = {}
    for i in range(log.n_records):
        d = int(log.dates[i])
        d_s = date_cache.get(d)
        if d_s is None:
            d_s = dt.date.fromordinal(d).isoformat()
            date_cache[d] = d_s
        t = int(log.times[i])
        t_s = time_cache.get(t)
        if t_s is None:
            t_s = f"{t // 3600:02d}:{t % 3600 // 60:02d}:{t % 60:02d}"
            time_cache[t] = t_s
        stream.write(f"{d_s},{t_s},{log.txn_names[log.txns[i]]},"
                     f"{log.accounts[log.buyers[i]]},{log.accounts[log.sellers[i]]},"
                     f"{log.volumes[i]},{float(log.prices[i])!r}\n")


def write_edge_list(net, stream) -> None:
    stream.write("seller_idx,buyer_idx,weight\n")
    for s, b, w in zip(net.edge_sellers, net.edge_buyers, net.edge_weights):
        stream.write(f"{s},{b},{w}\n")

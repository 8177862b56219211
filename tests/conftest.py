import datetime as dt

import pytest
from hypothesis import settings

from line_oracle import build_log
from tradenet.ingest import StockMeta

# Property tests draw the same examples on every run and carry no per-example
# deadline, so a slow or shared host cannot make them flake.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def _log_from_rows(rows, meta=None):
    """Build a TransactionLog from (date_str, time_str, txn, buyer, seller,
    volume, price) tuples."""
    meta = meta or StockMeta(symbol="TEST", capitalization_bucket="mid",
                             sector="industrials")
    dates, times, txns, buyers, sellers, vols, prices = [], [], [], [], [], [], []
    for d, t, txn, b, s, v, p in rows:
        dates.append(dt.date.fromisoformat(d).toordinal())
        h, m, sec = (int(x) for x in t.split(":"))
        times.append(h * 3600 + m * 60 + sec)
        txns.append(txn)
        buyers.append(b)
        sellers.append(s)
        vols.append(v)
        prices.append(p)
    return build_log(meta, dates, times, txns, buyers, sellers, vols, prices)


@pytest.fixture
def make_log():
    return _log_from_rows

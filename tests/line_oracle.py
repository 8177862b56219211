"""Reference transaction-file parser: each line decoded, split and checked on
its own, with the date, volume and price parsers of ``tradenet.ingest`` and a
time check of its own, so the tests can check that module's column passes
against it line for line.  ``build_log`` turns its rows, or any records with
string ids, into a log."""

import re

import numpy as np

from tradenet.ingest import (CSV_HEADER, TransactionParseError, _parse_date, _parse_price,
                             _parse_volume, _sorted_log)


def build_log(meta, dates, times, txn_ids, buyer_ids, seller_ids, volumes, prices):
    """The log of parallel record columns with string txn and account ids.

    Dates are proleptic ordinals, times seconds since midnight.
    ``np.unique`` ranks the ids in sorted order, then ``_sorted_log`` sorts
    the records and numbers the accounts by first appearance, as it does for
    a parsed file.  This is the reference path the column parser is checked
    against, so it checks no id and no value: only ``_sorted_log``'s
    repeated (date, txn_id) is an error.
    """
    txn_names, txns = np.unique(np.asarray(txn_ids, dtype=np.str_), return_inverse=True)
    ids = np.concatenate([np.asarray(c, dtype=np.str_) for c in (buyer_ids, seller_ids)])
    names, codes = np.unique(ids, return_inverse=True)
    n = txns.size
    return _sorted_log(meta, np.asarray(dates, np.int64), np.asarray(times, np.int64), txns,
                       txn_names.tolist(), codes[:n], codes[n:], names.tolist(),
                       np.asarray(volumes, np.int64), np.asarray(prices, np.float64))


def _decoded(lineno: int, line: bytes) -> str:
    try:
        return line.decode("utf-8")
    except UnicodeDecodeError:
        raise TransactionParseError(lineno, "invalid UTF-8") from None


def _data_lines(data: bytes):
    """Check a file's header and yield ``(lineno, line)`` for each non-blank
    data line, 1-based, with one final ``"\\r"`` dropped."""
    lines = data.split(b"\n")
    header = _decoded(1, lines[0]).removesuffix("\r")
    if header != ",".join(CSV_HEADER):
        raise TransactionParseError(1, f"bad header {header!r}; "
                                       f"expected {','.join(CSV_HEADER)}")
    for lineno, line in enumerate(lines[1:], start=2):
        line = _decoded(lineno, line).removesuffix("\r")
        if line:
            yield lineno, line


_CLOCK = re.compile(r"([01][0-9]|2[0-3]):[0-5][0-9]:[0-5][0-9]")


def _clock_seconds(text: str) -> int:
    """Seconds since midnight of one ``HH:MM:SS`` time in ASCII digits."""
    if not _CLOCK.fullmatch(text):
        raise ValueError(f"time {text!r} is not HH:MM:SS within a day")
    return int(text[0:2]) * 3600 + int(text[3:5]) * 60 + int(text[6:8])


def _check_line(lineno: int, line: str, seen: set[tuple[int, str]]) -> tuple:
    """The parsed fields of one data line: (date ordinal, seconds, txn_id,
    buyer_id, seller_id, volume, price).  Raises TransactionParseError if
    the line is malformed or its (date, txn_id) is already in ``seen``, to
    which it is added."""
    if "\x00" in line or "\r" in line:
        raise TransactionParseError(lineno, "NUL or carriage return inside a line")
    fields = line.split(",")
    if len(fields) != 7:
        raise TransactionParseError(lineno, f"expected 7 fields, got {len(fields)}")
    d_s, t_s, txn, buyer, seller, vol_s, price_s = fields
    try:
        ordinal = _parse_date(d_s).toordinal()
        seconds = _clock_seconds(t_s)
    except ValueError as exc:
        raise TransactionParseError(lineno, f"unparseable timestamp: {exc}") from exc
    try:
        volume = _parse_volume(vol_s)
    except ValueError as exc:
        raise TransactionParseError(lineno, str(exc)) from exc
    if volume < 1:
        raise TransactionParseError(lineno, f"volume must be >= 1, got {volume}")
    if volume > np.iinfo(np.int64).max:
        raise TransactionParseError(lineno, f"volume {volume} exceeds int64")
    try:
        price = _parse_price(price_s)
    except ValueError as exc:
        raise TransactionParseError(lineno, str(exc)) from exc
    if not price > 0 or not np.isfinite(price):
        raise TransactionParseError(lineno, f"price must be > 0, got {price_s}")
    if not buyer or not seller or not txn:
        raise TransactionParseError(lineno, "empty identifier field")
    key = (ordinal, txn)
    if key in seen:
        raise TransactionParseError(lineno, f"duplicate (date, txn_id) = ({d_s}, {txn})")
    seen.add(key)
    return ordinal, seconds, txn, buyer, seller, volume, price

"""Transaction-log ingestion: CSV parsing, validation, and period filtering.

One stock's executed trades live in one UTF-8 CSV with the fixed header
``date,time,txn_id,buyer_id,seller_id,volume,price`` plus a JSON sidecar
carrying the stock metadata.  Parsed logs are immutable and columnar
(numpy arrays).

Account identifiers are opaque strings mapped to dense integer indices in a
canonical order (first appearance, buyer before seller, over the sorted
record sequence), so two logs with the same trades compare equal no matter
how their source files were ordered.
"""

from __future__ import annotations

import datetime as dt
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CSV_HEADER = ("date", "time", "txn_id", "buyer_id", "seller_id", "volume", "price")
_HEADER_LINE = ",".join(CSV_HEADER).encode()


class TransactionParseError(ValueError):
    """Malformed input; carries the 1-based line number of the offender."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass(frozen=True)
class StockMeta:
    """Per-stock attributes used for reference matching and ground truth."""

    symbol: str
    capitalization_bucket: str
    sector: str
    manipulated: bool = False
    manipulation_period: tuple[dt.date, dt.date] | None = None

    def __post_init__(self) -> None:
        if self.manipulated != (self.manipulation_period is not None):
            raise ValueError(
                "manipulation_period must be present iff manipulated is true")
        if self.manipulation_period is not None:
            start, end = self.manipulation_period
            if start > end:
                raise ValueError("manipulation_period start must be <= end")

    def to_dict(self) -> dict:
        period = None
        if self.manipulation_period is not None:
            period = [d.isoformat() for d in self.manipulation_period]
        return {
            "symbol": self.symbol,
            "capitalization_bucket": self.capitalization_bucket,
            "sector": self.sector,
            "manipulated": self.manipulated,
            "manipulation_period": period,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "StockMeta":
        """Read a sidecar's fields, which must carry their JSON types:
        strings, a boolean, and a period that is null or two ISO dates."""
        for key in ("symbol", "capitalization_bucket", "sector"):
            if not isinstance(d[key], str):
                raise ValueError(f"{key} must be a string, got {d[key]!r}")
        if not isinstance(d["manipulated"], bool):
            raise ValueError(f"manipulated must be true or false, got {d['manipulated']!r}")
        period = d.get("manipulation_period")
        if period is not None:
            if not (isinstance(period, list) and len(period) == 2
                    and all(isinstance(day, str) for day in period)):
                raise ValueError("manipulation_period must be null or two ISO dates, "
                                 f"got {period!r}")
            period = (dt.date.fromisoformat(period[0]), dt.date.fromisoformat(period[1]))
        return cls(
            symbol=d["symbol"],
            capitalization_bucket=d["capitalization_bucket"],
            sector=d["sector"],
            manipulated=d["manipulated"],
            manipulation_period=period,
        )


@dataclass(frozen=True, eq=False)
class TransactionLog:
    """Immutable, sorted transaction sequence of one stock.

    Columns are parallel numpy arrays sorted by (date, time, txn_id); dates
    are proleptic ordinals, times seconds since midnight.
    """

    meta: StockMeta
    dates: np.ndarray
    times: np.ndarray
    txn_ids: np.ndarray
    buyers: np.ndarray
    sellers: np.ndarray
    volumes: np.ndarray
    prices: np.ndarray
    accounts: tuple[str, ...]

    @property
    def n_records(self) -> int:
        return self.dates.size

    def total_volume(self) -> int:
        return int(self.volumes.sum())

    def date_range(self) -> tuple[dt.date, dt.date]:
        if self.n_records == 0:
            raise ValueError("empty log has no date range")
        return (dt.date.fromordinal(int(self.dates[0])),
                dt.date.fromordinal(int(self.dates[-1])))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TransactionLog):
            return NotImplemented
        return (self.meta == other.meta
                and self.accounts == other.accounts
                and np.array_equal(self.dates, other.dates)
                and np.array_equal(self.times, other.times)
                and np.array_equal(self.txn_ids, other.txn_ids)
                and np.array_equal(self.buyers, other.buyers)
                and np.array_equal(self.sellers, other.sellers)
                and np.array_equal(self.volumes, other.volumes)
                and np.array_equal(self.prices, other.prices))


def _sorted_log(meta: StockMeta, dates, times, txn_ids, txn_keys, buyers, sellers,
                names, volumes, prices) -> TransactionLog:
    """The log of these records in (date, time, txn_id) order.

    ``txn_keys`` sort like ``txn_ids`` (the ids themselves, or their ranks);
    ``buyers``/``sellers`` index the account ids ``names``.
    """
    dates = np.asarray(dates, dtype=np.int64)
    times = np.asarray(times, dtype=np.int64)
    keys = (txn_keys, times, dates)
    # Files written by write_transactions are already in order, and a check
    # is far cheaper than a sort.
    order = np.arange(dates.size) if _lexsorted(keys) else np.lexsort(keys)
    kept, buyers, sellers = _first_appearance(buyers[order], sellers[order])
    return TransactionLog(meta=meta, dates=dates[order], times=times[order],
                          txn_ids=txn_ids[order], buyers=buyers, sellers=sellers,
                          volumes=np.asarray(volumes, dtype=np.int64)[order],
                          prices=np.asarray(prices, dtype=np.float64)[order],
                          accounts=tuple(str(a) for a in names[kept]))


def _lexsorted(keys) -> bool:
    """Whether rows are already in ``np.lexsort(keys)`` order (the last key
    is the primary one)."""
    after = np.zeros(max(len(keys[0]) - 1, 0), bool)  # row i + 1 sorts after row i
    tied = ~after
    for key in reversed(keys):
        after |= tied & (key[1:] > key[:-1])
        tied &= key[1:] == key[:-1]
    return bool((after | tied).all())


def _first_appearance(buyers: np.ndarray, sellers: np.ndarray):
    """Renumber non-negative integer account codes densely in order of first
    appearance (buyer before seller) over the record sequence.

    Returns the codes in that order and the renumbered buyers and sellers.
    """
    interleaved = np.empty(2 * buyers.size, dtype=np.int64)
    interleaved[0::2] = buyers
    interleaved[1::2] = sellers
    first_pos = np.full(int(interleaved.max(initial=-1)) + 1, interleaved.size)
    np.minimum.at(first_pos, interleaved, np.arange(interleaved.size))
    # Absent codes keep first_pos == interleaved.size and sort last.
    appearance = np.argsort(first_pos)[:np.count_nonzero(first_pos < interleaved.size)]
    rank = np.empty(first_pos.size, dtype=np.int64)
    rank[appearance] = np.arange(appearance.size)
    return appearance, rank[buyers], rank[sellers]


def build_log(meta: StockMeta, dates, times, txn_ids, buyer_ids, seller_ids,
              volumes, prices) -> TransactionLog:
    """Assemble a log from parallel columns with string account ids.

    Dates are proleptic ordinals, times seconds since midnight.  The records
    are sorted by (date, time, txn_id) and the accounts numbered densely in
    first-appearance order (buyer before seller) over the sorted sequence,
    exactly like a parsed file, so in-memory construction and CSV
    round-trips agree bit for bit.
    """
    txn_ids = np.asarray(txn_ids, dtype=np.str_)
    ids = np.concatenate((np.asarray(buyer_ids, dtype=np.str_),
                          np.asarray(seller_ids, dtype=np.str_)))
    names, codes = np.unique(ids, return_inverse=True)
    n = txn_ids.size
    return _sorted_log(meta, dates, times, txn_ids, txn_ids, codes[:n], codes[n:],
                       names, volumes, prices)


def _parse_time(text: str) -> int:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"time {text!r} is not HH:MM:SS")
    h, m, s = (int(p) for p in parts)
    if not (0 <= h < 24 and 0 <= m < 60 and 0 <= s < 60):
        raise ValueError(f"time {text!r} out of range")
    return h * 3600 + m * 60 + s


def _read_bytes(source) -> bytes:
    """The bytes a source holds: bytes as given, a path's contents, or a
    stream read to its end and left open (a text stream's text encoded as
    strict UTF-8)."""
    if isinstance(source, bytes):
        return source
    if isinstance(source, (str, Path)):
        return Path(source).read_bytes()
    data = source.read()
    return data.encode("utf-8") if isinstance(data, str) else data


def parse_transactions(source, meta: StockMeta) -> TransactionLog:
    """Parse one stock's transaction CSV into a sorted, validated log.

    ``source`` may be a path, bytes, or an open text/binary stream; a stream
    is read to its end and left open.  Any source is read as bytes, and
    every source holding the same bytes gives the same outcome.

    A line ends at ``"\\n"`` or at the end of the file, and one ``"\\r"``
    right before that end is dropped.  A NUL byte or any other ``"\\r"``
    makes the line malformed.  Blank lines are skipped.  Every malformed
    line raises TransactionParseError with its line number; no record is
    dropped silently.

    Every file that parses is parsed in whole-column passes
    (``_parse_columns``); a file that pass declines is checked line by line
    (``_check_line``) only to name its first bad line.
    """
    data = _read_bytes(source)
    log = _parse_columns(data, meta)
    if log is not None:
        return log
    seen: set[tuple[int, str]] = set()
    for lineno, line in _data_lines(data):
        _check_line(lineno, line, seen)
    raise AssertionError("the column pass declined a file with no bad line")


def _cut(buf: np.ndarray, lo: np.ndarray, width: np.ndarray) -> np.ndarray:
    """Copy the fields ``buf[lo[i]:lo[i] + width[i]]`` into one ``S`` array.

    ``buf`` must extend at least ``width.max()`` bytes past every ``lo``.
    """
    w = max(int(width.max()), 1)
    rows = np.lib.stride_tricks.sliding_window_view(buf, w)[lo]
    rows *= np.arange(w) < width[:, None]
    return rows.view(f"S{w}")[:, 0]


def _distinct(col: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rank each field of a bytes column among its distinct fields, in byte
    order; also return the index of one field of each rank."""
    w = col.dtype.itemsize
    padded = np.zeros((col.size, -(-w // 8) * 8), np.uint8)
    padded[:, :w] = col.view(np.uint8).reshape(col.size, w)
    # Big-endian 8-byte words compare as the bytes they hold, and integer
    # sorts are much faster than string sorts.
    words = padded.view(">u8").astype(np.uint64)
    keys = list(words.T)
    order = np.lexsort(keys[::-1]) if len(keys) > 1 else np.argsort(keys[0])
    new = np.zeros(col.size, bool)
    new[0] = True
    for key in keys:
        key = key[order]
        new[1:] |= key[1:] != key[:-1]
    rank = np.empty(col.size, np.int64)
    rank[order] = np.cumsum(new) - 1
    return rank, order[new]


def _map_distinct(col: np.ndarray, convert, dtype) -> np.ndarray:
    """Apply ``convert`` to each distinct field of a bytes column."""
    rank, first = _distinct(col)
    return np.array([convert(col[i].decode("utf-8")) for i in first], dtype)[rank]


def _clock_seconds(col: np.ndarray) -> np.ndarray:
    """Seconds since midnight of a time column.  Fields strictly of the form
    ``HH:MM:SS`` are read by digit arithmetic; any other column goes
    through ``_parse_time`` one distinct field at a time."""
    if col.dtype.itemsize == 8:
        chars = col.view(np.uint8).reshape(col.size, 8)
        digits = chars[:, [0, 1, 3, 4, 6, 7]].astype(np.int64) - ord("0")
        h, m, s = digits[:, 0::2].T * 10 + digits[:, 1::2].T
        if ((chars[:, [2, 5]] == ord(":")).all() and ((digits >= 0) & (digits <= 9)).all()
                and (h < 24).all() and (m < 60).all() and (s < 60).all()):
            return h * 3600 + m * 60 + s
    return _map_distinct(col, _parse_time, np.int64)


def _parse_columns(data: bytes, meta: StockMeta) -> TransactionLog | None:
    """Parse a well-formed file in whole-column passes over its bytes.

    Returns None whenever a check fails: a NUL byte, invalid UTF-8, a
    ``"\\r"`` that does not end a line, or a bad field.  Every check here is
    one ``_check_line`` makes, and every check it makes is made here, so
    this pass gives the log of every file that parses and declines exactly
    the files with a bad line.
    """
    buf = np.frombuffer(data, np.uint8)
    newlines = np.flatnonzero(buf == ord("\n"))
    ends = newlines if data.endswith(b"\n") else np.append(newlines, buf.size)
    if data[:ends[0]].removesuffix(b"\r") != _HEADER_LINE:
        return None
    # numpy ``S`` strings drop trailing NULs, so a NUL would hide in a field.
    if buf.min() == 0:
        return None
    ascii_only = bool(buf.max() < 0x80)
    if not ascii_only:
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            return None
    carriage = np.flatnonzero(buf[:-1] == ord("\r"))  # a final "\r" ends its line
    if (buf[carriage + 1] != ord("\n")).any():
        return None

    starts = np.concatenate(([0], ends[:-1] + 1))[1:]
    stops = (ends - (buf[ends - 1] == ord("\r")))[1:]
    blank = stops == starts
    starts, stops = starts[~blank], stops[~blank]
    n = starts.size
    if not n:
        return build_log(meta, *[()] * 7)
    commas = np.flatnonzero(buf == ord(","))[len(CSV_HEADER) - 1:]
    if commas.size != 6 * n:
        return None
    # Every comma lies in some data line, so when each line's six commas
    # fall inside it, each line holds exactly six.
    commas = commas.reshape(n, 6)
    if (commas[:, 0] < starts).any() or (commas[:, 5] >= stops).any():
        return None
    lo = [starts, *(commas.T + 1)]
    width = [hi - first for hi, first in zip([*commas.T, stops], lo)]
    if not all(width[k].all() for k in (2, 3, 4)):
        return None
    padded = np.concatenate((buf, np.zeros(max(int(w.max()) for w in width), np.uint8)))
    d_col, t_col, txn_col, b_col, s_col, v_col, p_col = (
        _cut(padded, first, w) for first, w in zip(lo, width))

    try:
        dates = _map_distinct(d_col, lambda s: dt.date.fromisoformat(s).toordinal(),
                              np.int64)
        times = _clock_seconds(t_col)
        volumes = _map_distinct(v_col, int, np.int64)
        prices = _map_distinct(p_col, float, np.float64)
    except (ValueError, OverflowError):
        return None
    if (volumes < 1).any() or not (np.isfinite(prices) & (prices > 0)).all():
        return None
    txn_rank, _ = _distinct(txn_col)
    order = np.lexsort((txn_rank, dates))
    if ((dates[order][1:] == dates[order][:-1])
            & (txn_rank[order][1:] == txn_rank[order][:-1])).any():
        return None

    def text(col):
        if not ascii_only:
            return np.char.decode(col, "utf-8")
        # ASCII bytes widen to the same code points; far faster than astype.
        chars = col.view(np.uint8).reshape(col.size, col.dtype.itemsize)
        return chars.astype(np.uint32).view(f"U{col.dtype.itemsize}")[:, 0]

    ids = np.concatenate((b_col, s_col))
    codes, first = _distinct(ids)
    return _sorted_log(meta, dates, times, text(txn_col), txn_rank, codes[:n], codes[n:],
                       text(ids[first]), volumes, prices)


def _data_lines(data: bytes):
    """Check a file's header and yield ``(lineno, line)`` for each non-blank
    data line, 1-based, with one final ``"\\r"`` dropped."""
    lines = data.decode("utf-8").split("\n")
    header = lines[0].removesuffix("\r")
    if header != ",".join(CSV_HEADER):
        raise TransactionParseError(1, f"bad header {header!r}; "
                                       f"expected {','.join(CSV_HEADER)}")
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.removesuffix("\r")
        if line:
            yield lineno, line


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
        ordinal = dt.date.fromisoformat(d_s).toordinal()
        seconds = _parse_time(t_s)
    except ValueError as exc:
        raise TransactionParseError(lineno, f"unparseable timestamp: {exc}") from exc
    try:
        volume = int(vol_s)
    except ValueError as exc:
        raise TransactionParseError(lineno, f"bad volume {vol_s!r}") from exc
    if volume < 1:
        raise TransactionParseError(lineno, f"volume must be >= 1, got {volume}")
    if volume > np.iinfo(np.int64).max:
        raise TransactionParseError(lineno, f"volume {volume} exceeds int64")
    try:
        price = float(price_s)
    except ValueError as exc:
        raise TransactionParseError(lineno, f"bad price {price_s!r}") from exc
    if not price > 0 or not np.isfinite(price):
        raise TransactionParseError(lineno, f"price must be > 0, got {price_s}")
    if not buyer or not seller or not txn:
        raise TransactionParseError(lineno, "empty identifier field")
    key = (ordinal, txn)
    if key in seen:
        raise TransactionParseError(lineno, f"duplicate (date, txn_id) = ({d_s}, {txn})")
    seen.add(key)
    return ordinal, seconds, txn, buyer, seller, volume, price


def write_transactions(log: TransactionLog, dest) -> None:
    """Serialize a log back to the CSV format (inverse of parse_transactions)."""
    own = isinstance(dest, (str, Path))
    stream = open(dest, "w", encoding="utf-8", newline="") if own else dest
    try:
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
            stream.write(f"{d_s},{t_s},{log.txn_ids[i]},"
                         f"{log.accounts[log.buyers[i]]},{log.accounts[log.sellers[i]]},"
                         f"{log.volumes[i]},{float(log.prices[i])!r}\n")
    finally:
        if own:
            stream.close()


def read_stock_meta(source) -> StockMeta:
    """Read a JSON sidecar from a path or an open text stream.  Any error in
    a sidecar read from a path is a ValueError that names the file."""
    if not isinstance(source, (str, Path)):
        return StockMeta.from_dict(json.load(source))
    try:
        with open(source, "r", encoding="utf-8") as fh:
            return StockMeta.from_dict(json.load(fh))
    except KeyError as exc:
        raise ValueError(f"{source}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{source}: {exc}") from exc


def write_stock_meta(meta: StockMeta, dest) -> None:
    payload = json.dumps(meta.to_dict(), indent=2, sort_keys=True) + "\n"
    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        dest.write(payload)


def filter_period(log: TransactionLog, interval: tuple[dt.date, dt.date]) -> TransactionLog:
    """Restrict a log to records with start <= date <= end (order preserved).

    An empty result is legal; downstream stages decide whether that is fatal.
    """
    start, end = interval
    if start > end:
        raise ValueError(f"interval start {start} after end {end}")
    mask = (log.dates >= start.toordinal()) & (log.dates <= end.toordinal())
    if mask.all():
        return log
    # The kept records stay in canonical order; only the accounts renumber.
    kept, buyers, sellers = _first_appearance(log.buyers[mask], log.sellers[mask])
    return TransactionLog(meta=log.meta, dates=log.dates[mask], times=log.times[mask],
                          txn_ids=log.txn_ids[mask], buyers=buyers, sellers=sellers,
                          volumes=log.volumes[mask], prices=log.prices[mask],
                          accounts=tuple(log.accounts[i] for i in kept))


def load_stock(csv_path, meta_path=None) -> TransactionLog:
    """Load one stock from SYMBOL.csv plus its SYMBOL.json sidecar."""
    csv_path = Path(csv_path)
    if meta_path is None:
        meta_path = csv_path.with_suffix(".json")
    meta = read_stock_meta(meta_path)
    return parse_transactions(csv_path, meta)


def load_corpus(directory) -> dict[str, TransactionLog]:
    """Load every SYMBOL.csv/SYMBOL.json pair under a corpus directory.

    Two sidecars naming the same symbol are an error, not one stock.
    """
    directory = Path(directory)
    logs: dict[str, TransactionLog] = {}
    sources: dict[str, Path] = {}
    for csv_path in sorted(directory.glob("*.csv")):
        if not csv_path.with_suffix(".json").exists():
            continue
        log = load_stock(csv_path)
        symbol = log.meta.symbol
        if symbol in sources:
            raise ValueError(f"symbol {symbol!r} names two stocks: "
                             f"{sources[symbol]} and {csv_path}")
        sources[symbol] = csv_path
        logs[symbol] = log
    if not logs:
        raise FileNotFoundError(f"no stock CSV/JSON pairs found under {directory}")
    return logs

"""Transaction-log ingestion: CSV parsing, validation, and period filtering.

One stock's executed trades live in one UTF-8 CSV with the fixed header
``date,time,txn_id,buyer_id,seller_id,volume,price`` plus a JSON sidecar
carrying the stock metadata.  Dates are ``YYYY-MM-DD``, times ``HH:MM:SS``,
volumes ASCII digits, and prices ASCII digits with an optional fraction and
exponent.  Parsed logs are immutable and columnar (numpy arrays).

Txn and account ids are opaque strings held once each: records carry codes
into the sorted txn ids and into the accounts in a canonical order (first
appearance, buyer before seller, over the sorted records).  So a long id
costs memory once, a day may hold any number of trades, and two logs with
the same trades compare equal however their source files were ordered.
"""

from __future__ import annotations

import datetime as dt
import itertools
import json
import math
import os
import re
import traceback
from dataclasses import asdict, dataclass, fields, is_dataclass
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

CSV_HEADER = ("date", "time", "txn_id", "buyer_id", "seller_id", "volume", "price")
_HEADER_LINE = ",".join(CSV_HEADER).encode()
# Lines per write of a CSV writer: few writes, and never a whole-file string.
WRITE_BLOCK = 4096


class TransactionParseError(ValueError):
    """Malformed input; carries the 1-based line number of the offender and
    names the file it was read from, if any."""

    def __init__(self, lineno: int, message: str, path=None):
        where = "" if path is None else f"{path}: "
        super().__init__(f"{where}line {lineno}: {message}")
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
        # The symbol names every artifact of the stock, so it must be one
        # file name: never a path, nor one that leaves the directory.
        if self.symbol in ("", ".", "..") or any(c in self.symbol for c in "/\\\0"):
            raise ValueError(f"symbol must be a file name, without / \\ or NUL, "
                             f"got {self.symbol!r}")
        if self.manipulated != (self.manipulation_period is not None):
            raise ValueError(
                "manipulation_period must be present iff manipulated is true")
        if self.manipulation_period is not None:
            start, end = self.manipulation_period
            if start > end:
                raise ValueError("manipulation_period start must be <= end")

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
            period = (_parse_date(period[0]), _parse_date(period[1]))
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
    are proleptic ordinals, times seconds since midnight.  ``txns`` index
    ``txn_names`` (the used txn ids, sorted) and ``buyers``/``sellers``
    index ``accounts`` (the used account ids).
    """

    meta: StockMeta
    dates: np.ndarray
    times: np.ndarray
    txns: np.ndarray
    buyers: np.ndarray
    sellers: np.ndarray
    volumes: np.ndarray
    prices: np.ndarray
    accounts: tuple[str, ...]
    txn_names: tuple[str, ...]

    @property
    def n_records(self) -> int:
        return self.dates.size

    def date_range(self) -> tuple[dt.date, dt.date]:
        if self.n_records == 0:
            raise ValueError("empty log has no date range")
        return (dt.date.fromordinal(int(self.dates[0])),
                dt.date.fromordinal(int(self.dates[-1])))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TransactionLog):
            return NotImplemented
        pairs = [(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)]
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
                   for a, b in pairs)


def _sorted_log(meta: StockMeta, dates, times, txns, txn_names, buyers, sellers,
                names, volumes, prices) -> TransactionLog:
    """The log of these records in (date, time, txn_id) order.

    Every column is an int64 array but ``prices`` (float64).  ``txns`` index
    the distinct txn ids ``txn_names``, listed in sorted order so that the
    codes sort like the ids; ``buyers``/``sellers`` index the account ids
    ``names``.  Ids no record uses are dropped.  The only record rule checked
    is a repeated (date, txn_id), a ValueError worded like the parser's: the
    parser checks the others on every line, and the simulator meets them.
    """
    # A repeat is a neighbour in (date, txn_id) order, which simulated rows
    # already run in.  Rows already in order are gathered by the slice of
    # every row, a view of each column, not a copy.
    by_txn = (txns, dates)
    order = slice(None) if _lexsorted(by_txn) else np.lexsort(by_txn)
    day, key = dates[order], txns[order]
    repeat = (day[1:] == day[:-1]) & (key[1:] == key[:-1])
    if repeat.any():
        i = np.arange(dates.size)[order][repeat.argmax() + 1]
        raise ValueError(f"duplicate (date, txn_id) = "
                         f"({dt.date.fromordinal(int(dates[i]))}, {txn_names[txns[i]]})")
    del day, key, repeat
    keys = (txns, times, dates)
    # Files written by write_transactions are already in order, and a check
    # is far cheaper than a sort.
    order = slice(None) if _lexsorted(keys) else np.lexsort(keys)
    kept, buyers, sellers = _first_appearance(buyers[order], sellers[order])
    # Renumbering the used txn names in order keeps the codes sorted like them.
    used = np.bincount(txns, minlength=len(txn_names)) > 0
    return TransactionLog(meta=meta, dates=dates[order], times=times[order],
                          txns=(np.cumsum(used) - 1)[txns[order]], buyers=buyers,
                          sellers=sellers, volumes=volumes[order], prices=prices[order],
                          accounts=tuple(names[i] for i in kept.tolist()),
                          txn_names=tuple(itertools.compress(txn_names, used)))


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


def _parse_date(text: str) -> dt.date:
    """A ``YYYY-MM-DD`` date; Python 3.11+ ``fromisoformat`` also takes
    ``YYYYMMDD`` and ISO week dates, which no file may use."""
    day = dt.date.fromisoformat(text)
    if day.isoformat() != text:
        raise ValueError(f"date {text!r} is not YYYY-MM-DD")
    return day


def _parse_volume(text: str) -> int:
    """A volume in ASCII digits, at least 1 and within int64; ``int`` also
    takes signs, blanks, ``_`` and non-ASCII digits, which no file may use."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"bad volume {text!r}")
    volume = int(text)
    if volume < 1:
        raise ValueError(f"volume must be >= 1, got {volume}")
    if volume >= 2**63:
        raise ValueError(f"volume {volume} exceeds int64")
    return volume


_PRICE = re.compile(r"[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?")


def _parse_price(text: str) -> float:
    """A finite price > 0 in ASCII digits with an optional fraction and
    exponent, as every ``repr`` of a positive finite float is spelled."""
    if not _PRICE.fullmatch(text):
        raise ValueError(f"bad price {text!r}")
    price = float(text)
    if not 0 < price < math.inf:
        raise ValueError(f"price must be > 0, got {text}")
    return price


# A file is held in memory with this many slack bytes after it, so that an
# 8-byte word can be read at any of its offsets.
_SLACK = 8
# _MASKS[k] keeps the first k bytes of a little-endian word.
_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)
# A file of at most this many bytes, slack included, has its field offsets
# held as int32.  Every offset sum the parser forms stays below twice that
# (``lo + width``, and ``lo + 8 * j``, which is below ``lo + 2 * width`` for
# the words ``_words`` reads), so below 2**31.
_OFFSET32_BYTES = 2**30


def _read_padded(source) -> tuple[bytes | bytearray, int]:
    """The bytes a source holds followed by at least ``_SLACK`` zero bytes,
    and their count: bytes as given, a path's contents, or a stream read to
    its end and left open (a text stream's text encoded as UTF-8, a lone
    surrogate as the bytes that are not UTF-8 it stands for, so that its
    line is malformed).  A path is read straight into a buffer that has the
    slack."""
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            buf = bytearray(os.fstat(fh.fileno()).st_size + _SLACK)
            size = fh.readinto(buf)
            if size > len(buf) - _SLACK:  # the file grew after its size was read
                buf[size:] = fh.read() + bytes(_SLACK)
                size = len(buf) - _SLACK
        return buf, size
    data = source if isinstance(source, bytes) else source.read()
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    return data + bytes(_SLACK), len(data)


def parse_transactions(source, meta: StockMeta) -> TransactionLog:
    """Parse one stock's transaction CSV into a sorted, validated log.

    ``source`` may be a path, bytes, or an open text/binary stream; a stream
    is read to its end and left open.  Any source is read as bytes, and
    every source holding the same bytes gives the same outcome.

    A line ends at ``"\\n"`` or at the end of the file, and one ``"\\r"``
    right before that end is dropped.  A NUL byte, any other ``"\\r"`` or
    bytes that are not UTF-8 make the line malformed.  Blank lines are
    skipped.  Every malformed line raises TransactionParseError with its
    line number, and names the file when ``source`` is a path; no record is
    dropped silently.

    A file is parsed in whole-column passes (``_parse_columns``).  Each rule
    reads one line, or one line and an earlier one for a repeated
    (date, txn_id), so the file cut after line k parses exactly when k comes
    before the first bad line; a bisection over those cuts names that line.
    """
    buf, size = _read_padded(source)
    try:
        return _parse_columns(buf, size, meta)
    except ValueError as exc:
        error = _released(exc)
    cuts = np.flatnonzero(np.frombuffer(buf, np.uint8, size) == ord("\n")) + 1
    if buf[size - 1:size] != b"\n":
        cuts = np.append(cuts, size)
    # Lines up to ``good`` are good; the cut after line ``bad`` does not parse.
    good, bad = 0, cuts.size
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            _parse_columns(buf, int(cuts[mid - 1]), meta)
            good = mid
        except ValueError as exc:
            bad, error = mid, _released(exc)
    path = source if isinstance(source, (str, Path)) else None
    raise TransactionParseError(bad, str(error), path) from error


def _released(exc: BaseException) -> BaseException:
    """``exc`` with the locals of the returned frames on its traceback, and
    on its causes', cleared: a kept parse error must not keep the parse's
    columns alive while the bisection parses again."""
    cause = exc
    while cause is not None:
        traceback.clear_frames(cause.__traceback__)
        cause = cause.__cause__
    return exc


def _word_at(buf) -> np.ndarray:
    """The little-endian 8-byte word at each byte offset of ``buf`` but its
    last seven: a stride-1 view, no copy."""
    return np.ndarray((len(buf) - 7,), "<u8", buf, strides=(1,))


def _word_class(width):
    """The width class of fields ``width`` bytes wide: class k holds the
    fields of at most 2**k words, and of more than 2**(k - 1) if k > 0."""
    return np.frexp(np.maximum(-(-width // 8) - 1, 0))[1]


def _words(buf, lo: np.ndarray, width: np.ndarray, n_words: int) -> list[np.ndarray]:
    """The fields ``buf[lo[i]:lo[i] + width[i]]``, none wider than
    ``8 * n_words`` bytes, as ``n_words`` columns of big-endian 8-byte words
    padded with zeros, most significant first.  Rows compare as the fields'
    bytes do, since no field holds a NUL.

    ``buf`` must hold ``_SLACK`` bytes past every field's end.
    """
    every = _word_at(buf)
    filled = min(int(width.min()) // 8, n_words)  # words that every field fills
    cols = [every[lo + 8 * j] for j in range(filled)]
    for j in range(filled, n_words):
        # A word past a field's end is read at that end and masked to zero.
        col = every[np.minimum(lo + 8 * j, lo + width) if j else lo]
        col &= _MASKS[np.clip(width - 8 * j, 0, 8)]
        cols.append(col)
    for col in cols:
        col.byteswap(inplace=True)
    return cols


def _class_rank(cols: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Rank rows of word columns (most significant first) among the
    distinct rows, in order; also return a row index of each distinct row.
    Rows already in order are not sorted.

    ``cols`` is emptied: each column is let go once its sorted copy is made,
    and the sorted copies once the distinct rows are found."""
    keys = cols[::-1]  # least significant first, as lexsort takes them
    order = None
    if not _lexsorted(keys):
        order = np.lexsort(keys) if len(keys) > 1 else np.argsort(keys[0])
    del keys
    if order is not None:
        for j in range(len(cols)):
            cols[j] = cols[j][order]
    new = np.empty(cols[0].size, bool)
    new[0] = True
    new[1:] = cols[0][1:] != cols[0][:-1]
    for col in cols[1:]:
        new[1:] |= col[1:] != col[:-1]
    cols.clear()
    rank = np.cumsum(new) - 1
    if order is None:
        return rank, np.flatnonzero(new)
    in_rows = np.empty(rank.size, np.int64)
    in_rows[order] = rank
    return in_rows, order[new]


def _distinct(buf, lo: np.ndarray, width: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Rank each field ``buf[lo[i]:lo[i] + width[i]]`` of a column among its
    distinct fields, in byte order; also return the text of the distinct
    fields in that order.

    Fields are compared as 8-byte words in width classes of up to 8, 16,
    32, ... bytes, so a long field costs words only in its own rows.  When
    a column spans classes, each class is ranked apart and one string sort
    orders their distinct texts together: code point order is UTF-8 byte
    order, and a prefix sorts first.
    """
    top = int(_word_class(width.max()))
    if _word_class(width.min()) == top:
        rank, first = _class_rank(_words(buf, lo, width, 2**top))
        return rank, _texts(buf, lo[first], width[first])
    cls = _word_class(width)
    rank = np.empty(lo.size, np.int64)
    firsts = []
    for k in np.flatnonzero(np.bincount(cls)).tolist():
        rows = np.flatnonzero(cls == k)
        r, f = _class_rank(_words(buf, lo[rows], width[rows], 2**k))
        rank[rows] = r + sum(map(len, firsts))
        firsts.append(rows[f])
    first = np.concatenate(firsts)
    texts = _texts(buf, lo[first], width[first])
    order = sorted(range(len(texts)), key=texts.__getitem__)
    return np.argsort(order)[rank], [texts[i] for i in order]


def _texts(buf, lo: np.ndarray, width: np.ndarray) -> list[str]:
    """The fields ``buf[lo[i]:lo[i] + width[i]]`` as text: gathered with
    the byte after each, which becomes a comma (no field holds one), and
    decoded in one call."""
    stop = np.cumsum(width + 1)
    joined = np.frombuffer(buf, np.uint8)[np.arange(stop[-1])
                                          + np.repeat(lo - stop + width + 1, width + 1)]
    joined[stop - 1] = ord(",")
    return joined.tobytes().decode("utf-8").split(",")[:-1]


def _map_distinct(buf, lo: np.ndarray, width: np.ndarray, convert, dtype) -> np.ndarray:
    """Apply ``convert`` to each distinct field of a column."""
    rank, texts = _distinct(buf, lo, width)
    return np.array([convert(text) for text in texts], dtype)[rank]


def _clock_seconds(buf, lo: np.ndarray, width: np.ndarray) -> np.ndarray:
    """Seconds since midnight of a column of ``HH:MM:SS`` times in ASCII
    digits, read by digit arithmetic on each field's 8-byte word.  Any other
    field is a ValueError that quotes the first one."""
    chars = _word_at(buf)[lo].view(np.uint8).reshape(lo.size, 8)
    digits = chars[:, [0, 1, 3, 4, 6, 7]] - np.uint8(ord("0"))  # bytes below "0" wrap past 9
    h, m, s = digits[:, 0::2].T.astype(np.int64) * 10 + digits[:, 1::2].T
    ok = ((width == 8) & (chars[:, 2] == ord(":")) & (chars[:, 5] == ord(":"))
          & (digits <= 9).all(axis=1) & (h < 24) & (m < 60) & (s < 60))
    if not ok.all():
        i = ok.argmin()
        raise ValueError(f"time {buf[lo[i]:lo[i] + width[i]].decode('utf-8')!r} is not "
                         "HH:MM:SS within a day")
    return h * 3600 + m * 60 + s


def _parse_columns(buf, size: int, meta: StockMeta) -> TransactionLog:
    """Parse the file ``buf[:size]`` in whole-column passes over its bytes;
    ``buf`` holds at least ``_SLACK`` more bytes, which are not read as
    part of the file.

    A bad line is a ValueError that says what is wrong with it.  The checks
    run in the order they apply to one line: UTF-8, the header, a NUL or a
    ``"\\r"`` that does not end the line, the field count, the date and
    time, the volume, the price, empty ids, and a repeated (date, txn_id).
    So in a file whose only bad line is its last, the error is that line's
    first fault.
    """
    chars = np.frombuffer(buf, np.uint8, size)
    if size and chars.max() >= 0x80:
        try:
            str(memoryview(buf)[:size], "utf-8")
        except UnicodeDecodeError:
            raise ValueError("invalid UTF-8") from None
    newlines = np.flatnonzero(chars == ord("\n"))
    ends = newlines if buf[size - 1:size] == b"\n" else np.append(newlines, size)
    header = bytes(buf[:ends[0]]).removesuffix(b"\r")
    if header != _HEADER_LINE:
        raise ValueError(f"bad header {header.decode()!r}; "
                         f"expected {_HEADER_LINE.decode()}")
    # Words pad fields with NULs, so a NUL in a field would go unseen.
    carriage = np.flatnonzero(chars[:-1] == ord("\r"))  # a final "\r" ends its line
    if chars.min() == 0 or (chars[carriage + 1] != ord("\n")).any():
        raise ValueError("NUL or carriage return inside a line")

    # Scanned while few line arrays are held: the scan's byte mask and its
    # int64 offsets are the largest arrays of the parse.
    commas = np.flatnonzero(chars == ord(","))
    stops = ends[1:] - (chars[ends[1:] - 1] == ord("\r"))
    kept = stops > ends[:-1] + 1
    n = np.count_nonzero(kept)
    if not n:
        none = np.empty(0, np.int64)
        return _sorted_log(meta, none, none, none, [], none, none, [], none, np.empty(0))
    # A line's commas lie between its end and the previous line's.
    count = np.diff(np.searchsorted(commas, ends))[kept]
    if (count != 6).any():
        raise ValueError(f"expected 7 fields, got {count[count != 6][0] + 1}")
    del count
    # Row k holds the byte before field k of each line (its "\n" or a
    # comma), row 7 the line's stop; every comma past the header's lies in
    # a data line, six to a line.
    bounds = np.empty((8, n), np.int32 if size + _SLACK <= _OFFSET32_BYTES else np.int64)
    bounds[0] = ends[:-1][kept]
    bounds[1:7] = commas[len(CSV_HEADER) - 1:].reshape(n, 6).T
    bounds[7] = stops[kept]
    del newlines, ends, carriage, stops, kept, commas

    try:
        dates = _map_distinct(buf, *_fields(bounds, 0), lambda s: _parse_date(s).toordinal(),
                              np.int64)
        times = _clock_seconds(buf, *_fields(bounds, 1))
    except ValueError as exc:
        raise ValueError(f"unparseable timestamp: {exc}") from exc
    volumes = _map_distinct(buf, *_fields(bounds, 5), _parse_volume, np.int64)
    prices = _map_distinct(buf, *_fields(bounds, 6), _parse_price, np.float64)
    if (np.diff(bounds[2:6], axis=0) == 1).any():
        raise ValueError("empty identifier field")

    accounts, txn_ids = _fields(bounds, 3, 2), _fields(bounds, 2)
    del bounds
    codes, names = _distinct(buf, *accounts)
    del accounts
    txns, txn_names = _distinct(buf, *txn_ids)
    del txn_ids
    return _sorted_log(meta, dates, times, txns, txn_names, codes[:n], codes[n:], names,
                       volumes, prices)


def _fields(bounds: np.ndarray, k: int, m: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """The offsets and widths of fields k to k + m - 1 of every line, one
    field after another, from the field-bound rows of ``_parse_columns``."""
    lo = bounds[k:k + m] + 1
    return lo.ravel(), (bounds[k + 1:k + m + 1] - lo).ravel()


def _format_distinct(values: np.ndarray, texts) -> tuple[np.ndarray, np.ndarray]:
    """Spell each distinct value of a column once (the write-side twin of
    ``_map_distinct``): the strings ``texts`` gives for the sorted distinct
    values, as an object array, and each row's code into them.  The codes
    take the narrowest type that holds them, so the codes of columns
    already spelled cost little while the next is ranked."""
    uniq, codes = np.unique(values, return_inverse=True)
    return np.asarray(texts(uniq), dtype=object), codes.astype(np.min_scalar_type(uniq.size))


def _each(fmt):
    """The ``texts`` of ``_format_distinct`` that applies ``fmt`` to each value."""
    return lambda values: [fmt(v) for v in values.tolist()]


def _clock_texts(seconds: np.ndarray) -> np.ndarray:
    """``HH:MM:SS`` of each of an array of seconds since midnight, as an
    object array of strings: spelled as code points, one row of 8 each,
    and read back as 8-character strings."""
    h, rest = np.divmod(seconds, 3600)
    hms = np.stack((h, rest // 60, rest % 60), axis=1)
    chars = np.full((seconds.size, 8), ord(":"), np.uint32)
    chars[:, [0, 3, 6]] = hms // 10 + ord("0")
    chars[:, [1, 4, 7]] = hms % 10 + ord("0")
    return chars.view("U8").ravel().astype(object)


def _block_rows(*columns: tuple[np.ndarray, np.ndarray]):
    """The rows of cells of columns given as (strings, codes) pairs, each
    row cell ``strings[codes[i]]``.  A block of ``WRITE_BLOCK`` rows is
    gathered only when it is reached, so no column is ever held as one
    string per row."""
    n = columns[0][1].size
    return itertools.chain.from_iterable(
        zip(*(strings[codes[i:i + WRITE_BLOCK]].tolist() for strings, codes in columns))
        for i in range(0, n, WRITE_BLOCK))


def _write_rows(stream, header, rows) -> None:
    """Write a CSV of string cells to an open text stream: the header line,
    then the comma-joined rows in blocks of ``WRITE_BLOCK`` lines, one
    ``write`` per block, so the file is never built as one string."""
    stream.write(",".join(header) + "\n")
    lines = map(",".join, rows)
    while block := list(itertools.islice(lines, WRITE_BLOCK)):
        block.append("")  # so the joined block ends with a newline
        stream.write("\n".join(block))


def _json_default(value):
    """A dataclass record as its fields, a date as its ISO string."""
    if is_dataclass(value) and not isinstance(value, type):
        return asdict(value)
    if isinstance(value, dt.date):
        return value.isoformat()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _dump_json(payload) -> str:
    """The one JSON spelling of every sidecar and JSON artifact."""
    return json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n"


def write_transactions(log: TransactionLog, dest) -> None:
    """Write a log as CSV to an open text stream (inverse of parse_transactions)."""
    names = np.array(log.accounts, dtype=object)
    _write_rows(dest, CSV_HEADER, _block_rows(
        _format_distinct(log.dates, _each(lambda d: dt.date.fromordinal(d).isoformat())),
        _format_distinct(log.times, _clock_texts),
        (np.array(log.txn_names, dtype=object), log.txns),
        (names, log.buyers), (names, log.sellers),
        _format_distinct(log.volumes, _each(str)), _format_distinct(log.prices, _each(repr))))


def read_stock_meta(path) -> StockMeta:
    """Read the JSON sidecar at a path.  Any error in it is a ValueError
    that names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return StockMeta.from_dict(json.load(fh))
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def write_stock_meta(meta: StockMeta, dest) -> None:
    """Write a JSON sidecar to an open text stream."""
    dest.write(_dump_json(meta))


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
    return _sorted_log(log.meta, log.dates[mask], log.times[mask], log.txns[mask],
                       log.txn_names, log.buyers[mask], log.sellers[mask], log.accounts,
                       log.volumes[mask], log.prices[mask])


def _listed_csvs(path: Path) -> set[str]:
    """The CSV file names a ``corpus_manifest.json`` lists."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            names = {stock["csv"] for stock in json.load(fh)["stocks"]}
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: not a corpus manifest: no stocks[*].csv") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: not a corpus manifest: {exc}") from exc
    if not all(isinstance(name, str) for name in names):
        raise ValueError(f"{path}: not a corpus manifest: a csv entry is not a string")
    return names


def _list_corpus(directory: Path) -> tuple[dict[str, Path], dict[str, StockMeta]]:
    """Each stock's CSV and sidecar meta by symbol, with the corpus
    contract checked from the file names, ``corpus_manifest.json`` and the
    sidecars alone; no CSV is parsed."""
    csv_paths = sorted(directory.glob("*.csv"))
    csvs = {path.stem for path in csv_paths}
    sidecars = {path.stem for path in directory.glob("*.json")} - {"manifest", "corpus_manifest"}
    if unpaired := sorted(csvs - sidecars):
        raise ValueError(f"{directory / unpaired[0]}.csv: no sidecar {unpaired[0]}.json")
    if unpaired := sorted(sidecars - csvs):
        raise ValueError(f"{directory / unpaired[0]}.json: no CSV {unpaired[0]}.csv")
    manifest = directory / "corpus_manifest.json"
    if manifest.exists():
        listed = _listed_csvs(manifest)
        present = {path.name for path in csv_paths}
        if differ := sorted(listed ^ present):
            name = differ[0]
            raise ValueError(f"{directory / name}: " + (
                f"listed in {manifest.name} but missing" if name in listed
                else f"not listed in {manifest.name}"))
    paths: dict[str, Path] = {}
    metas: dict[str, StockMeta] = {}
    for csv_path in csv_paths:
        meta = read_stock_meta(csv_path.with_suffix(".json"))
        if meta.symbol in paths:
            raise ValueError(f"symbol {meta.symbol!r} names two stocks: "
                             f"{paths[meta.symbol]} and {csv_path}")
        paths[meta.symbol], metas[meta.symbol] = csv_path, meta
    if not paths:
        raise FileNotFoundError(f"no stock CSV/JSON pairs found under {directory}")
    return paths, metas


def load_corpus(corpus, visit: Callable[[TransactionLog, Mapping[str, StockMeta]], object]
                ) -> dict[str, object]:
    """Hand each stock of a corpus to ``visit(log, metas)`` in symbol order,
    with ``metas`` every stock's meta by symbol, and return what each call
    returned by symbol.  A log is parsed only when its stock is visited, so
    memory holds one stock's log unless ``visit`` keeps it.

    ``corpus`` is a directory of SYMBOL.csv/SYMBOL.json pairs, or logs by
    symbol already in memory.  In a directory every ``*.json`` but
    ``manifest.json`` and ``corpus_manifest.json`` is a sidecar.  A CSV
    without its sidecar, a sidecar without its CSV, a CSV that
    ``corpus_manifest.json`` (when present) does not list or a listed one
    that is missing, a bad sidecar, two sidecars naming one symbol and a
    file that does not parse are each a ValueError that names the file; all
    but the last are found before any file is parsed.
    """
    if isinstance(corpus, Mapping):
        metas = {symbol: log.meta for symbol, log in corpus.items()}
        load = corpus.__getitem__
    else:
        paths, metas = _list_corpus(Path(corpus))
        load = lambda symbol: parse_transactions(paths[symbol], metas[symbol])
    return {symbol: visit(load(symbol), metas) for symbol in sorted(metas)}

import datetime as dt
import functools
import gc
import io
import os
import re
import subprocess
import sys
import traceback
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from tradenet import ingest
from tradenet.ingest import (StockMeta, TransactionParseError, _lexsorted,
                             _parse_columns, filter_period, load_corpus,
                             parse_transactions, read_stock_meta, write_stock_meta,
                             write_transactions)
from tradenet.network import TradingNetwork, build_network, write_edge_list
from tradenet.sim import START, SimConfig, simulate, trading_days
from line_oracle import _check_line, _data_lines, build_log
import writer_oracle

META = StockMeta(symbol="TEST", capitalization_bucket="mid", sector="industrials")

HEADER = "date,time,txn_id,buyer_id,seller_id,volume,price\n"

# Properties that parse whole files and compare the log with the reference
# (``line_oracle``) report a failing example as drawn, unshrunk: shrinking
# such files can take minutes and hundreds of MB, where the failure itself
# shows in seconds.
UNSHRUNK = [phase for phase in Phase if phase is not Phase.shrink]


def parse(text: str):
    return parse_transactions(io.StringIO(HEADER + text), META)


def test_single_line():
    log = parse("2004-01-08,09:30:01,1,B1,S1,500,7.25\n")
    assert log.n_records == 1
    assert log.volumes.tolist() == [500]
    assert log.prices.tolist() == [7.25]
    assert log.dates.tolist() == [dt.date(2004, 1, 8).toordinal()]
    assert log.times.tolist() == [9 * 3600 + 30 * 60 + 1]
    assert log.txn_names == ("1",) and log.txns.tolist() == [0]
    assert log.accounts[log.buyers[0]] == "B1"
    assert log.accounts[log.sellers[0]] == "S1"


def test_out_of_order_lines_resorted():
    log = parse("2004-01-08,10:00:00,2,B1,S1,100,5.0\n"
                "2004-01-08,09:30:00,1,B2,S2,200,5.1\n")
    assert log.times.tolist() == [9 * 3600 + 30 * 60, 10 * 3600]
    assert log.txn_names[log.txns[0]] == "1"


def test_accounts_in_first_appearance_order():
    log = parse("2004-01-08,10:00:00,2,B1,S1,100,5.0\n"
                "2004-01-08,09:30:00,1,S2,B1,200,5.1\n"
                "2004-01-09,09:00:00,1,A9,S1,300,5.2\n")
    assert log.accounts == ("S2", "B1", "S1", "A9")
    assert log.buyers.tolist() == [0, 1, 3]
    assert log.sellers.tolist() == [1, 2, 2]


def test_intra_second_tiebreak_by_txn_id():
    log = parse("2004-01-08,10:00:00,b,B1,S1,100,5.0\n"
                "2004-01-08,10:00:00,a,B2,S2,200,5.1\n")
    assert log.txn_names == ("a", "b") and log.txns.tolist() == [0, 1]


def test_zero_volume_rejected_with_line_number():
    with pytest.raises(TransactionParseError, match="line 3.*volume must be >= 1"):
        parse("2004-01-08,09:30:01,1,B1,S1,500,7.25\n"
              "2004-01-08,09:30:02,2,B1,S1,0,7.25\n")


def test_negative_price_rejected():
    with pytest.raises(TransactionParseError, match="price"):
        parse("2004-01-08,09:30:01,1,B1,S1,500,-1.0\n")


def test_duplicate_txn_id_within_day_rejected():
    with pytest.raises(TransactionParseError, match="duplicate"):
        parse("2004-01-08,09:30:01,7,B1,S1,500,7.25\n"
              "2004-01-08,11:00:00,7,B2,S2,100,7.30\n")


def test_same_txn_id_on_different_days_allowed():
    log = parse("2004-01-08,09:30:01,7,B1,S1,500,7.25\n"
                "2004-01-09,09:30:01,7,B2,S2,100,7.30\n")
    assert log.n_records == 2


def test_unparseable_timestamp():
    with pytest.raises(TransactionParseError, match="line 2.*timestamp"):
        parse("2004-13-40,09:30:01,1,B1,S1,500,7.25\n")
    with pytest.raises(TransactionParseError, match="timestamp"):
        parse("2004-01-08,9h30,1,B1,S1,500,7.25\n")


def test_wrong_field_count():
    with pytest.raises(TransactionParseError, match="expected 7 fields"):
        parse("2004-01-08,09:30:01,1,B1,S1,500\n")


def test_bad_header():
    with pytest.raises(TransactionParseError, match="header"):
        parse_transactions(io.StringIO("a,b,c\n"), META)


def test_accepts_bytes_source():
    data = (HEADER + "2004-01-08,09:30:01,1,B1,S1,500,7.25\n").encode()
    assert parse_transactions(data, META).n_records == 1


def test_first_of_several_bad_lines_is_named():
    with pytest.raises(TransactionParseError, match="line 4: bad volume"):
        parse("2004-01-08,09:30:01,1,B1,S1,500,7.25\n"
              "\n"
              "2004-01-08,09:30:02,2,B1,S1,x,7.25\n"
              "2004-01-08,09:30:03,3,B1,S1,500\n"
              "2004-01-08,09:30:04,1,B1,S1,500,7.25\n")


def test_parse_error_keeps_its_cause_but_not_the_parses_locals():
    """The error of the first bad line carries the parse's own error as its
    cause, and that one its cause in turn, but no frame on their tracebacks
    still holds the parse's columns."""
    with pytest.raises(TransactionParseError) as exc:
        parse("2004-01-08,09:30:01,1,B1,S1,500,7.25\n"
              "2004-01-08,25:30:02,2,B1,S1,500,7.25\n")
    cause = exc.value.__cause__
    assert str(exc.value) == f"line 3: {cause}"
    assert str(cause).startswith("unparseable timestamp: time '25:30:02'")
    assert isinstance(cause.__cause__, ValueError)
    for error in (cause, cause.__cause__):
        frames = [frame for frame, _ in traceback.walk_tb(error.__traceback__)]
        assert "_parse_columns" in {frame.f_code.co_name for frame in frames}
        assert all(frame.f_locals == {} for frame in frames
                   if frame.f_code.co_name != "parse_transactions")


@pytest.mark.parametrize("body", ["2004-01-08,09:30:01,1,B1,S1,500,7.25\n",
                                  "2004-01-08,09:30:01,1,B1,S1,0,7.25\n"])
def test_parsing_a_path_closes_the_file(tmp_path, body):
    path = tmp_path / "t.csv"
    path.write_text(HEADER + body)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            parse_transactions(path, META)
        except TransactionParseError:
            pass
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_error_from_a_path_names_the_file(tmp_path):
    """A path source puts the file name before the line; bytes and streams
    have no name to give.  The line number is the same from every source."""
    data = (HEADER + "2004-01-08,09:30:01,1,B1,S1,500,7.25\n"
            "2004-01-08,09:30:02,2,B1,S1,0,7.25\n").encode()
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    for source, prefix in ((path, f"{path}: "), (str(path), f"{path}: "), (data, ""),
                           (io.BytesIO(data), "")):
        with pytest.raises(TransactionParseError) as exc:
            parse_transactions(source, META)
        assert str(exc.value) == f"{prefix}line 3: volume must be >= 1, got 0"
        assert exc.value.lineno == 3


def test_caller_stream_left_open():
    stream = io.BytesIO((HEADER + "2004-01-08,09:30:01,1,B1,S1,0,7.25\n").encode())
    with pytest.raises(TransactionParseError):
        parse_transactions(stream, META)
    gc.collect()
    assert not stream.closed


def test_roundtrip_identity():
    log = parse("2004-01-08,10:00:00,2,B1,S1,100,5.0\n"
                "2004-01-08,09:30:00,1,B2,S2,200,5.125\n"
                "2004-01-09,09:30:00,1,B1,S2,300,4.9\n")
    buf = io.StringIO()
    write_transactions(log, buf)
    again = parse_transactions(io.StringIO(buf.getvalue()), META)
    assert again == log


def test_roundtrip_simulated_log(tmp_path):
    """Every generated log must survive the file format bit for bit."""
    res = simulate(SimConfig(rng_seed=5, n_traders=150, n_days=15,
                             trades_per_day=40.0, n_colluders=30))
    path = tmp_path / "sim.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_transactions(res.log, fh)
    again = parse_transactions(path, res.log.meta)
    assert again == res.log


def test_written_files_take_the_column_pass(tmp_path, monkeypatch):
    """Only a bad file is parsed more than once: a file write_transactions
    made takes one column pass, from any kind of source."""
    res = simulate(SimConfig(rng_seed=5, n_traders=150, n_days=15,
                             trades_per_day=40.0, n_colluders=30))
    path = tmp_path / "sim.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_transactions(res.log, fh)

    passes = []

    def counted(buf, size, meta):
        passes.append(size)
        return _parse_columns(buf, size, meta)

    monkeypatch.setattr(ingest, "_parse_columns", counted)
    data = path.read_bytes()
    for source in (path, str(path), data, io.BytesIO(data),
                   io.StringIO(data.decode())):
        passes.clear()
        assert parse_transactions(source, res.log.meta) == res.log
        assert passes == [len(data)]


# ------------------------------------------------ column writers vs per-line writers

def _written(writer, obj) -> str:
    buf = io.StringIO()
    writer(obj, buf)
    return buf.getvalue()


@pytest.mark.parametrize("changes", [
    {},
    {"manipulated": True},
    {"manipulated": True, "manipulation_window": (START, trading_days(START, 15)[9])},
    {"manipulated": True, "wash_volume_fraction": 0.0},
], ids=["honest", "manipulated", "partial-window", "no-wash"])
def test_writers_match_oracle_on_simulated_logs(changes):
    res = simulate(SimConfig(rng_seed=5, n_traders=150, n_days=15,
                             trades_per_day=40.0, n_colluders=30, **changes))
    assert (_written(write_transactions, res.log)
            == _written(writer_oracle.write_transactions, res.log))
    net = build_network(res.log)
    assert _written(write_edge_list, net) == _written(writer_oracle.write_edge_list, net)


class _CountingWrites(io.StringIO):
    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("n_rows", [0, 3, 6, 7],
                         ids=["empty", "one-block", "two-blocks", "partial-block"])
def test_block_writer_matches_oracle_at_block_edges(monkeypatch, n_rows):
    """Blocks of 3 lines: one write for the header and one per block, and
    the bytes of the per-line writers, for a log of ``n_rows`` records and
    an edge list of ``n_rows`` edges."""
    monkeypatch.setattr(ingest, "WRITE_BLOCK", 3)
    log = build_log(META, [START.toordinal()] * n_rows, range(n_rows),
                    [str(i) for i in range(n_rows)], [f"B{i % 2}" for i in range(n_rows)],
                    [f"S{i % 3}" for i in range(n_rows)], range(1, n_rows + 1),
                    [5.0 + i / 8 for i in range(n_rows)])
    edges = np.arange(n_rows)
    net = TradingNetwork(node_count=max(n_rows, 1), edge_sellers=edges % 4,
                         edge_buyers=edges[::-1], edge_weights=100 * edges ** 3 + 1)
    for writer, oracle, obj in ((write_transactions, writer_oracle.write_transactions, log),
                                (write_edge_list, writer_oracle.write_edge_list, net)):
        buf = _CountingWrites()
        writer(obj, buf)
        assert buf.getvalue() == _written(oracle, obj)
        assert buf.writes == 1 + -(-n_rows // 3)


class _Discard:
    def write(self, text):
        return len(text)


def test_writer_peak_memory_per_row():
    """Writing a log of 48,000 rows peaks under 100 traced bytes per row
    above the log (about 70 measured): cells are gathered one block of rows
    at a time, and each column is held as its distinct strings and one
    narrow code per row, not as one string per row."""
    log = simulate(SimConfig(rng_seed=1, n_days=60, trades_per_day=800.0)).log
    assert log.n_records >= 40_000
    tracemalloc.start()
    try:
        write_transactions(log, _Discard())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100 * log.n_records


def test_parser_peak_memory_per_row():
    """Parsing a written manipulated log of 41,879 rows (50 bytes per line)
    peaks under 170 traced bytes per row, the file's own bytes included
    (about 157 measured, 261 when field bounds were int64, the columns in
    order were gathered again and the word columns were copied to mask and
    swap them): the log itself holds 57."""
    log = simulate(SimConfig(rng_seed=7, manipulated=True, n_days=32)).log
    assert log.n_records >= 40_000
    data = _written(write_transactions, log).encode()
    tracemalloc.start()
    try:
        parsed = parse_transactions(data, log.meta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert parsed == log
    assert peak < 170 * log.n_records


@pytest.mark.parametrize("bad_last", [False, True], ids=["good", "bad-last"])
def test_offset_width_leaves_the_outcome(monkeypatch, bad_last):
    """A file is cut into int32 field offsets when it fits in
    ``_OFFSET32_BYTES`` with its slack, and into int64 ones past that; both
    widths give the same log, or name the same bad line through the same
    bisection."""
    log = simulate(SimConfig(rng_seed=3, manipulated=True, n_days=2)).log
    data = _written(write_transactions, log).encode()
    if bad_last:
        data += b"2004-01-05,09:30:00,x,B,S,0,7.25\n"
    padded = len(data) + ingest._SLACK
    cut, widths = ingest._fields, []  # the offset width of each parse, in turn

    def fields(bounds, k, m=1):
        if k == 0:  # the first field a parse cuts
            widths.append(bounds.dtype)
        return cut(bounds, k, m)

    monkeypatch.setattr(ingest, "_fields", fields)
    outcomes = []
    for limit, first, rest in ((padded, np.int32, np.int32), (padded - 1, np.int64, np.int32),
                               (0, np.int64, np.int64)):
        monkeypatch.setattr(ingest, "_OFFSET32_BYTES", limit)
        widths.clear()
        try:
            outcomes.append(parse_transactions(data, log.meta))
        except TransactionParseError as exc:
            outcomes.append((exc.lineno, str(exc)))
        assert widths[0] == first and set(widths[1:]) <= {np.dtype(rest)}
        assert (len(widths) > 1) == bad_last  # the bisection parsed prefixes
    bad = log.n_records + 2
    assert outcomes == [(bad, f"line {bad}: volume must be >= 1, got 0") if bad_last else log] * 3


def test_empty_log_matches_oracle():
    log = build_log(META, *[()] * 7)
    text = _written(write_transactions, log)
    assert text == HEADER == _written(writer_oracle.write_transactions, log)
    assert parse_transactions(io.StringIO(text), META) == log


# Ids hold anything but the characters a CSV line cannot; the numbers reach
# the extremes of their spellings: years 1 and 9999, the first and last
# second of a day, int64 volumes, and prices whose repr needs an exponent or
# all 17 digits.
# No UTF-8 file holds a lone surrogate (category Cs), so no log has one.
ident = st.text(st.characters(exclude_characters=",\n\r\x00", exclude_categories=("Cs",)),
                min_size=1, max_size=4)
PRICES = [5e-324, 1e16, 0.1 + 0.2, 1.7976931348623157e308]
record = st.tuples(
    st.one_of(st.sampled_from([1, dt.date(9999, 12, 31).toordinal()]),
              st.integers(1, dt.date(9999, 12, 31).toordinal())),
    st.one_of(st.sampled_from([0, 86399]), st.integers(0, 86399)),
    ident, ident, ident,
    st.one_of(st.just(np.iinfo(np.int64).max), st.integers(1, np.iinfo(np.int64).max)),
    st.one_of(st.sampled_from(PRICES),
              st.floats(5e-324, 1.7976931348623157e308, allow_infinity=False)))


@settings(max_examples=150, phases=UNSHRUNK)
@given(records=st.lists(record, max_size=8, unique_by=lambda r: (r[0], r[2])))
def test_writer_matches_oracle_and_roundtrips(records):
    log = build_log(META, *(list(zip(*records)) or [()] * 7))
    text = _written(write_transactions, log)
    assert text == _written(writer_oracle.write_transactions, log)
    assert parse_transactions(io.StringIO(text), META) == log


@pytest.mark.parametrize("txn_ids, message", [
    (["1", "2", "1"], "duplicate (date, txn_id) = (2004-01-05, 1)"),
    (["1", "2", "2"], "duplicate (date, txn_id) = (2004-01-05, 2)"),
], ids=["txn-repeat-unsorted", "txn-repeat-sorted"])
def test_repeated_txn_id_rejected(txn_ids, message):
    """A repeated (date, txn_id) is found whether or not the rows already
    run in (date, txn_id) order, in the words the line check uses."""
    with pytest.raises(ValueError, match=re.escape(message)):
        build_log(META, [dt.date(2004, 1, 5).toordinal()] * 3, [3600, 3700, 3800],
                  txn_ids, ["B1"] * 3, ["S1"] * 3, [5] * 3, [7.25] * 3)


@pytest.mark.parametrize("field", ["txn_id", "buyer_id", "seller_id"])
@pytest.mark.parametrize("bad, message", [
    ("B,1", "expected 7 fields, got 8"),
    ("B\n1", None),
    ("B\r1", "NUL or carriage return inside a line"),
    ("B\x001", "NUL or carriage return inside a line"),
    ("", "empty identifier field"),
], ids=["comma", "newline", "carriage-return", "nul", "empty"])
def test_parser_rejects_unwritable_id(field, bad, message):
    """No log holds an id that a CSV field cannot: the parser refuses each
    such field on its line.  A newline cuts the line after the field's
    first half, so the line holds only the fields up to it."""
    row = ROW.split(",")
    column = ingest.CSV_HEADER.index(field)
    row[column] = bad
    if message is None:
        message = f"expected 7 fields, got {column + 1}"
    with pytest.raises(TransactionParseError) as exc:
        parse_transactions((HEADER + ",".join(row) + "\n").encode(), META)
    assert str(exc.value) == f"line 2: {message}"
    assert exc.value.lineno == 2


@pytest.mark.parametrize("column, text, message", [
    ("volume", "0", "volume must be >= 1, got 0"),
    ("price", "0.0", "price must be > 0, got 0.0"),
    ("price", "-0.0", "bad price '-0.0'"),
    ("price", "nan", "bad price 'nan'"),
    ("price", "inf", "bad price 'inf'"),
    ("time", "-00:00:01",
     "unparseable timestamp: time '-00:00:01' is not HH:MM:SS within a day"),
    ("time", "24:00:00",
     "unparseable timestamp: time '24:00:00' is not HH:MM:SS within a day"),
], ids=["volume-0", "price-0", "price-minus-0", "price-nan", "price-inf", "time-negative",
        "time-86400"])
def test_parser_rejects_unwritable_record(column, text, message):
    """The volume, price and time rules hold on every log because the
    parser checks them on every line; `_sorted_log` does not repeat them.
    The bad value sits on the third row, after two good ones."""
    rows = [ROW.replace(",1,", f",{i},").split(",") for i in (1, 2, 3)]
    rows[2][ingest.CSV_HEADER.index(column)] = text
    data = (HEADER + "".join(",".join(row) + "\n" for row in rows)).encode()
    with pytest.raises(TransactionParseError) as exc:
        parse_transactions(data, META)
    assert str(exc.value) == f"line 4: {message}"
    assert exc.value.lineno == 4


# ------------------------------------------------ column pass vs line loop
#
# The reference parser checks each line on its own: on every source that
# holds a file, parse_transactions must give its log or raise its error for
# the same line.

def _reference(data: bytes, meta):
    seen = set()
    rows = [_check_line(lineno, line, seen) for lineno, line in _data_lines(data)]
    return build_log(meta, *(list(zip(*rows)) or [()] * 7))


def _outcome(parser, source):
    try:
        log = parser(source, META)
    except ValueError as exc:
        return type(exc), getattr(exc, "lineno", None), str(exc)
    return log


def _assert_same_as_loop(data: bytes, newline=None) -> None:
    """bytes, a binary stream, a StringIO and a text stream reading with
    ``newline`` each give the reference outcome on the bytes, or the UTF-8
    of the text, that they hold."""
    def wrapped():
        return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=newline)

    expected = _outcome(_reference, data)
    assert _outcome(parse_transactions, data) == expected
    assert _outcome(parse_transactions, io.BytesIO(data)) == expected
    try:
        held = wrapped().read().encode("utf-8")
    except UnicodeDecodeError:
        # No text holds these bytes: the stream raises its own error as it is read.
        with pytest.raises(UnicodeDecodeError):
            parse_transactions(wrapped(), META)
        return
    assert _outcome(parse_transactions, io.StringIO(data.decode("utf-8"))) == expected
    assert _outcome(parse_transactions, wrapped()) == _outcome(_reference, held)


DAYS = ["2004-01-08", "2004-01-09", "2004-01-12"]
clock = st.builds("{:02d}:{:02d}:{:02d}".format, st.integers(0, 23),
                  st.integers(0, 59), st.integers(0, 59))
# Few short txn ids over few days, so one id recurs across days (legal);
# account ids vary in width and include non-ASCII.
txn_id = st.text("0123", min_size=1, max_size=3)
account = st.text("AB7xé", min_size=1, max_size=9)
volume = st.integers(1, 10**6).map(str)
price = st.one_of(st.floats(0.01, 1e4).map(repr),
                  st.integers(1, 10**4).map(lambda c: f"{c / 100:.2f}"))
row = st.tuples(st.sampled_from(DAYS), clock, txn_id, account, account, volume, price)
# Unique (date, txn_id), so a file is bad only where an edit made it so.
rows = st.lists(row, min_size=1, max_size=10, unique_by=lambda r: (r[0], r[2])).map(
    lambda rs: [list(r) for r in rs])
layout = dict(ending=st.sampled_from(["\n", "\r\n"]),
              blanks=st.lists(st.integers(0, 20), max_size=3),
              final_newline=st.booleans(),
              newline=st.sampled_from([None, "", "\n", "\r", "\r\n"]))


def _render(rows, edits, ending, blanks, final_newline) -> bytes:
    """The CSV of ``rows`` after each ``(row, field, spelling)`` edit
    (spelling None drops the field), with blank lines at ``blanks``."""
    for r, f, spelling in edits:
        fields = rows[r % len(rows)]
        if spelling is None:
            del fields[f % len(fields)]
        elif fields:
            fields[f % len(fields)] = spelling
    lines = [",".join(fields) for fields in rows]
    for pos in blanks:
        lines.insert(pos % (len(lines) + 1), "")
    text = HEADER.rstrip("\n") + ending + ending.join(lines)
    # "\udcff" stands for the byte 0xff, which is not UTF-8.
    return (text + ending if final_newline else text).encode("utf-8", "surrogateescape")


@settings(max_examples=150, phases=UNSHRUNK)
@given(rows=rows, **layout)
def test_valid_logs_match_line_loop(rows, ending, blanks, final_newline, newline):
    data = _render(rows, [], ending, blanks, final_newline)
    _assert_same_as_loop(data, newline)
    # One column pass alone gives a well-formed file's log.
    assert _parse_columns(data + bytes(8), len(data), META) == _reference(data, META)


# Spellings that Python's int, float, date and time parsers each treat in
# their own way; a trailing NUL would vanish in a numpy bytes column.
NUMBERS = ["+5", "007", " 7", "7 ", "1e1", "nan", "inf", "-inf", "0", "-1",
           "1_0", "_1", "1e400", "99999999999999999999", "-0.0", "٣", "7\x00", ""]
TIMES = ["9:30:01", "24:00:00", "23:59:60", "09:60:00", "09:30", "09:30:01.5",
         "0930:01", " 9:30:01", "+9:30:01", "09:30:1", "٠9:30:01", "09:30:01\x00", ""]
DATES = ["20040108", "2004-1-08", "2004-13-01", "2004-01-08T00", "2004-W02-4",
         " 2004-01-08", "2004-01-08\x00", ""]
odd_spelling = st.one_of(
    st.tuples(st.sampled_from([5, 6]), st.sampled_from(NUMBERS)),
    st.tuples(st.just(1), st.sampled_from(TIMES)),
    st.tuples(st.just(0), st.sampled_from(DATES)))


@settings(max_examples=200, phases=UNSHRUNK)
@given(rows=rows, edits=st.lists(st.builds(lambda r, fs: (r, *fs), st.integers(0, 9),
                                           odd_spelling), min_size=1, max_size=3),
       **layout)
def test_odd_spellings_match_line_loop(rows, edits, ending, blanks, final_newline, newline):
    _assert_same_as_loop(_render(rows, edits, ending, blanks, final_newline), newline)


# Dropped fields (None), an extra field, empty identifiers, a lone "\r",
# a NUL, non-ASCII text, a byte that is not UTF-8, and txn ids that may
# repeat one on the same day.
SHAPES = [None, "x,y", "", "a\rb", "a\x00", "é", "\udcff", "0", "1"]


@settings(max_examples=200, phases=UNSHRUNK)
@given(rows=rows, edits=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 6),
                                           st.sampled_from(SHAPES)),
                                 min_size=1, max_size=3), **layout)
def test_odd_shapes_match_line_loop(rows, edits, ending, blanks, final_newline, newline):
    _assert_same_as_loop(_render(rows, edits, ending, blanks, final_newline), newline)


# Bytes spliced anywhere after the header, even inside a UTF-8 sequence or a
# "\r\n": the column pass must name the line the reference parser names.
SPLICES = [b"\r", b"\n", b"\r\n", b"\x00", b",", b"\xff", b"\xc3", b"9", b"-", b":", b" "]


@settings(max_examples=200, phases=UNSHRUNK)
@given(rows=rows, splices=st.lists(st.tuples(st.integers(0, 10**4), st.sampled_from(SPLICES)),
                                   min_size=1, max_size=3), **layout)
def test_spliced_bytes_match_line_loop(rows, splices, ending, blanks, final_newline,
                                       newline):
    data = _render(rows, [], ending, blanks, final_newline)
    for pos, piece in splices:
        at = len(HEADER) + pos % (len(data) - len(HEADER) + 1)
        data = data[:at] + piece + data[at:]
    _assert_same_as_loop(data, newline)


def test_each_odd_field_matches_line_loop():
    """Every spelling and shape above, alone in the middle line of a
    well-formed file."""
    cases = ([(f, s) for f in (5, 6) for s in NUMBERS] + [(1, s) for s in TIMES]
             + [(0, s) for s in DATES] + [(f, s) for f in range(7) for s in SHAPES])
    for field, spelling in cases:
        rows = [["2004-01-08", "09:30:01", "1", "B1", "S1", "500", "7.25"],
                ["2004-01-08", "09:30:02", "2", "B2", "S1", "100", "7.5"],
                ["2004-01-09", "09:30:01", "1", "S1", "B1", "300", "7.0"]]
        data = _render(rows, [(1, field, spelling)], "\n", [], True)
        try:
            _assert_same_as_loop(data)
        except AssertionError as exc:
            raise AssertionError(f"field {field} = {spelling!r}") from exc


# ------------------------------------------------ ids at word and width-class edges
#
# The column pass compares fields as 8-byte words, in width classes of up to
# 8, 16, 32, ... bytes: these ids sit at the edges of both.

def _sized(stem: str, size: int) -> str:
    """``stem`` cut to at most ``size`` UTF-8 bytes, whole characters only,
    then padded with "z" to exactly ``size``."""
    while len(stem.encode()) > size:
        stem = stem[:-1]
    return stem + "z" * (size - len(stem.encode()))


def _edge_ids(size: int) -> list[str]:
    """Distinct ids of ``size`` bytes: two that differ only in their last
    byte, ones that agree with those in just their first 8 or 16 bytes, ones
    whose "€" (3 bytes) straddles byte 8 or 16, and one apart in its first."""
    stems = ["q" * (size - 1) + "a", "q" * (size - 1) + "b", "q" * 8, "q" * 16,
             "q" * 4 + "€", "q" * 6 + "€", "q" * 14 + "€", "a"]
    return list(dict.fromkeys(_sized(stem, size) for stem in stems
                              if len(stem.encode()) <= size))


@pytest.mark.parametrize("size", [7, 8, 9, 16, 17, 33])
@pytest.mark.parametrize("field", [2, 3, 4], ids=["txn_id", "buyer_id", "seller_id"])
def test_ids_at_word_edges_match_line_loop(field, size):
    """One id column of ``size``-byte ids, alone and with a 40-byte id that
    begins with one of them (a second width class, tied with it on its
    words); each file again with a bad line in the middle and at the end,
    so the bisection runs, and with a txn id repeated on its day."""
    ids = _edge_ids(size)

    def rows(column):
        out = [["2004-01-08", f"09:30:{i:02d}", str(i + 1), f"B{i % 2}", f"S{i % 3}", "500",
                "7.25"] for i in range(len(column))]
        for fields, ident in zip(out, column):
            fields[field] = ident
        return out

    for column in (ids, [*ids, _sized(ids[0] + "w" * 40, 40)]):
        for edits in ([], [(len(column) // 2, 5, "0")], [(len(column) - 1, 5, "0")]):
            _assert_same_as_loop(_render(rows(column), edits, "\n", [], True))
    if field == 2:
        _assert_same_as_loop(_render(rows([*ids, ids[1]]), [], "\n", [], True))


# Ids of 7 to 40 bytes from a few stems, so they share their first 8 or 16
# bytes, their widths mix classes in one column, and a multibyte character
# may straddle a word boundary.
edge_id = st.builds(_sized, st.builds(
    str.__add__, st.sampled_from(["", "q" * 8, "q" * 16, "q" * 6 + "€", "q" * 14 + "é"]),
    st.text("ab€é", max_size=8)), st.sampled_from([7, 8, 9, 16, 17, 33, 40]))
edge_rows = st.lists(
    st.tuples(st.sampled_from(DAYS), clock, edge_id, edge_id, edge_id, volume, price),
    min_size=1, max_size=8, unique_by=lambda r: (r[0], r[2])).map(lambda rs: [list(r) for r in rs])
BAD_FIELDS = [(5, "0"), (1, "24:00:00"), (2, ""), (4, "a\x00")]


@settings(max_examples=100, phases=UNSHRUNK)
@given(rows=edge_rows, at=st.integers(0, 9), bad=st.sampled_from(BAD_FIELDS))
def test_ids_across_word_edges_match_line_loop(rows, at, bad):
    """Files of such ids, and each again with one bad line."""
    _assert_same_as_loop(_render([r[:] for r in rows], [], "\n", [], True))
    _assert_same_as_loop(_render(rows, [(at, *bad)], "\n", [], True))


@pytest.mark.parametrize("text", ["", "a,b,c\n", HEADER, HEADER + "\n\n",
                                  "\ufeff" + HEADER + "2004-01-08,09:30:01,1,B1,S1,5,7.25\n",
                                  HEADER + "2004-01-08,09:30:01,1,B1,S1,5,7.25\r"])
@pytest.mark.parametrize("newline", [None, "", "\n", "\r", "\r\n"])
def test_edge_files_match_line_loop(text, newline, tmp_path):
    data = text.encode("utf-8")
    _assert_same_as_loop(data, newline)
    path = tmp_path / "edge.csv"
    path.write_bytes(data)
    expected = _outcome(_reference, data)
    if isinstance(expected, tuple):  # an error from a path names the file
        kind, lineno, message = expected
        expected = kind, lineno, f"{path}: {message}"
    assert _outcome(parse_transactions, path) == expected


ROW = "2004-01-08,09:30:01,1,B1,S1,500,7.25"
BEHAVIOUR = [  # (file, line of the error or None for a log, message)
    (HEADER + ROW.replace("B1", "B\r1") + "\n", 2, "carriage return"),
    (HEADER + ROW.replace("B1", "B\x001") + "\n", 2, "NUL"),
    (HEADER + ROW + "\r\r\n", 2, "carriage return"),
    (HEADER.replace("\n", "\r") + ROW + "\r" + ROW.replace(",1,", ",2,") + "\r", 1,
     "bad header"),
    (HEADER + ROW.replace("500", str(2**63)) + "\n", 2,
     f"volume {2**63} exceeds int64"),
    (HEADER + ROW.replace("2004-01-08", "20040108") + "\n", 2, "unparseable timestamp"),
    (HEADER + ROW.replace("2004-01-08", "2004-W02-4") + "\n", 2, "unparseable timestamp"),
    # Times, volumes and prices in ASCII digits only: Python's int and float
    # also take these spellings.
    *[(HEADER + ROW.replace("09:30:01", t) + "\n", 2, "unparseable timestamp")
      for t in ("9:30:01", "+9:30:01", "\u06609:30:01", "09:30:1")],
    *[(HEADER + ROW.replace("500", v) + "\n", 2, "bad volume") for v in ("1_0", "\u0663", " 7")],
    *[(HEADER + ROW.replace("7.25", p) + "\n", 2, "bad price")
      for p in ("1_0.5", "\u0663.5", "+5", " 7")],
    (HEADER.replace("\n", "\r"), None, None),
    # A line's faults are named in field order, ids after the numbers.
    (HEADER + ROW.replace("B1", "").replace("500", "x") + "\n", 2, "bad volume"),
    # "\udcff" stands for the byte 0xff, which is not UTF-8.
    (HEADER + ROW + "\n" + ROW.replace("B1", "B\udcff") + "\n", 3, "invalid UTF-8"),
    (HEADER + ROW.replace("2004-01-08", "2004-13-08") + "\n" + ROW.replace(",1,", ",2,")
     + "\n" + ROW.replace("B1", "B\udcff") + "\n", 2, "unparseable timestamp"),
]


@pytest.mark.parametrize("text, lineno, message", BEHAVIOUR,
                         ids=["lone-cr", "nul", "cr-cr-lf", "cr-only-endings",
                              "volume-2**63", "basic-date", "week-date",
                              "time-one-digit-hour", "time-plus", "time-arabic-indic",
                              "time-one-digit-second", "volume-underscore",
                              "volume-arabic-indic", "volume-blank", "price-underscore",
                              "price-arabic-indic", "price-plus", "price-blank",
                              "header-only-final-cr", "empty-id-and-bad-volume",
                              "invalid-utf8", "bad-date-before-invalid-utf8"])
@pytest.mark.parametrize("kind", ["bytes", "path", "StringIO", "surrogateescape"])
def test_same_content_same_outcome(text, lineno, message, kind, tmp_path):
    """One line rule for every source: a line ends at "\\n" or the end of
    the file, one "\\r" before that end is dropped, and a NUL or any other
    "\\r" makes the line malformed.  A file opened with
    errors="surrogateescape" holds a byte that is not UTF-8 as a lone
    surrogate, which makes its line malformed as the byte does."""
    data = text.encode("utf-8", "surrogateescape")
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    if kind == "surrogateescape":
        with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
            text = fh.read()
    source = {"bytes": data, "path": path, "StringIO": io.StringIO(text),
              "surrogateescape": io.StringIO(text)}[kind]
    if kind == "StringIO" and "\udcff" in text:
        # No text holds the byte 0xff: a stream of it fails as it is read.
        with pytest.raises(UnicodeDecodeError):
            parse_transactions(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"), META)
        return
    if lineno is None:
        assert parse_transactions(source, META).n_records == 0
        return
    with pytest.raises(TransactionParseError, match=message) as exc:
        parse_transactions(source, META)
    assert exc.value.lineno == lineno


# Run in a fresh interpreter, so its peak RSS before the parse is its own.
# The first line's field ``field`` is an id of ``id_bytes`` bytes.  Prints
# the file's size, the growth of peak RSS in KiB (as Linux reports
# ru_maxrss) and the log's record count or the bad line's number.
MEMORY_PROBE = """
import resource, sys
from tradenet.ingest import StockMeta, TransactionParseError, parse_transactions

n_lines, kind, field, id_bytes = sys.argv[1:]
lines = [f"2004-01-05,09:30:00,{i},B{i % 7},S{i % 5},100,7.25" for i in range(int(n_lines))]
first = ["2004-01-05", "09:30:00", "0", "B", "S", "100", "7.25"]
first[int(field)] = "x" * int(id_bytes)
lines[0] = ",".join(first)
if kind == "bad":
    lines[-1] = lines[-1].replace(",100,", ",0,")
data = "\\n".join(["date,time,txn_id,buyer_id,seller_id,volume,price", *lines]).encode()
meta = StockMeta(symbol="TEST", capitalization_bucket="mid", sector="industrials")
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
try:
    outcome = parse_transactions(data, meta).n_records
except TransactionParseError as exc:
    outcome = exc.lineno
print(len(data), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before, outcome)
"""


@pytest.mark.parametrize("n_lines, kind, field, id_bytes, per_byte, slack_mb", [
    (2000, "good", 2, 20_000, 20, 10), (5000, "good", 2, 20_000, 20, 10),
    (5000, "bad", 2, 20_000, 20, 10), (20_000, "good", 3, 4000, 20, 10),
    (200_000, "good", 2, 1, 7.2, 0), (200_000, "bad", 2, 1, 9.0, 0),
], ids=["2000-lines", "5000-lines", "5000-lines-bad-last", "20000-lines-long-account",
        "200000-lines-no-long-field", "200000-lines-bad-last"])
def test_parse_peak_rss_within_each_files_bound(n_lines, kind, field, id_bytes, per_byte,
                                                slack_mb):
    """Parsing raises peak RSS by less than ``per_byte`` times the file's
    size plus ``slack_mb`` MB.

    A file whose first txn id is 20,000 bytes, or whose first buyer id is
    4,000 bytes, stays under 20 times its size plus 10 MB, also when its
    last line is bad and the bisection parses its prefixes: the long id
    costs words only in its own width class, not one id-wide field per
    line.  An 8 MB file with no long field stays under 7.2 bytes per file
    byte (about 5.6 measured, 8.0 with int64 offsets): its per-line index
    is one 8-row matrix of int32 field bounds, each column's offsets and
    widths are cut from it only while that column is parsed, and it is
    let go before the ids are ranked.  With a bad last line it stays under
    9.0 (7.0 to 7.6 measured, 10.4 with int64 offsets): the error the
    bisection keeps holds no frame of the parse that raised it."""
    src = Path(ingest.__file__).resolve().parents[1]
    probe = subprocess.run([sys.executable, "-c", MEMORY_PROBE, str(n_lines), kind,
                            str(field), str(id_bytes)],
                           check=True, capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": str(src)})
    size, growth_kb, outcome = map(int, probe.stdout.split())
    assert outcome == (n_lines if kind == "good" else n_lines + 1)
    assert growth_kb * 1024 < per_byte * size + slack_mb * 2**20


@settings(max_examples=200)
@given(rows=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.text("ab", max_size=2)),
                     max_size=6),
       presort=st.booleans())
def test_lexsorted_agrees_with_lexsort(rows, presort):
    """The already-in-order shortcut holds exactly when np.lexsort would
    leave the rows where they are."""
    if presort:
        rows.sort()
    primary, secondary, txn = (np.array(c) for c in zip(*rows)) if rows else (np.array([]),) * 3
    keys = (np.asarray(txn, dtype=np.str_), secondary, primary)
    assert _lexsorted(keys) == bool((np.lexsort(keys) == np.arange(len(rows))).all())


def test_meta_sidecar_roundtrip(tmp_path):
    meta = StockMeta(symbol="S1", capitalization_bucket="large", sector="tech",
                     manipulated=True,
                     manipulation_period=(dt.date(2004, 1, 2), dt.date(2004, 9, 3)))
    path = tmp_path / "S1.json"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_stock_meta(meta, fh)
    assert read_stock_meta(path) == meta


def test_meta_period_iff_manipulated():
    with pytest.raises(ValueError):
        StockMeta(symbol="X", capitalization_bucket="mid", sector="s",
                  manipulated=True, manipulation_period=None)
    with pytest.raises(ValueError):
        StockMeta(symbol="X", capitalization_bucket="mid", sector="s",
                  manipulated=False,
                  manipulation_period=(dt.date(2004, 1, 1), dt.date(2004, 2, 1)))


SIDECAR = {"symbol": "S1", "capitalization_bucket": "large", "sector": "tech",
           "manipulated": True, "manipulation_period": ["2004-01-02", "2004-09-03"]}


@pytest.mark.parametrize("field, value", [
    ("manipulated", "false"),
    ("manipulated", 1),
    ("manipulation_period", ["2004-01-02", "2004-09-03", "2004-12-31"]),
    ("manipulation_period", ["2004-01-02"]),
    ("manipulation_period", "2004-01-02"),
    ("symbol", 7),
    *[("symbol", name) for name in ("", ".", "..", "../escaped", "a\\b", "a\x00b")],
])
def test_sidecar_field_types_checked(field, value):
    with pytest.raises(ValueError, match=field):
        StockMeta.from_dict({**SIDECAR, field: value})


def test_load_corpus_rejects_duplicate_symbol(tmp_path):
    log = parse("2004-01-08,09:30:01,1,B1,S1,500,7.25\n")
    for name in ("A", "B"):
        with open(tmp_path / f"{name}.csv", "w", encoding="utf-8", newline="") as fh:
            write_transactions(log, fh)
        with open(tmp_path / f"{name}.json", "w", encoding="utf-8", newline="") as fh:
            write_stock_meta(META, fh)
    with pytest.raises(ValueError, match="'TEST' names two stocks") as exc:
        load_corpus(tmp_path, lambda log, metas: log)
    assert str(tmp_path / "A.csv") in str(exc.value)
    assert str(tmp_path / "B.csv") in str(exc.value)


def test_load_corpus_rejects_a_csv_without_its_sidecar(tmp_path):
    log = parse("2004-01-08,09:30:01,1,B1,S1,500,7.25\n")
    for name in ("A", "B"):
        with open(tmp_path / f"{name}.csv", "w", encoding="utf-8", newline="") as fh:
            write_transactions(log, fh)
    with open(tmp_path / "A.json", "w", encoding="utf-8", newline="") as fh:
        write_stock_meta(META, fh)
    with pytest.raises(ValueError) as exc:
        load_corpus(tmp_path, lambda log, metas: log)
    assert str(exc.value) == f"{tmp_path / 'B.csv'}: no sidecar B.json"


def test_load_corpus_rejects_a_sidecar_without_its_csv(tmp_path):
    log = parse("2004-01-08,09:30:01,1,B1,S1,500,7.25\n")
    with open(tmp_path / "A.csv", "w", encoding="utf-8", newline="") as fh:
        write_transactions(log, fh)
    # The run and corpus manifests are not sidecars, though they sort
    # before the CSV-less "z.json".
    for name in ("A", "z", "manifest", "corpus_manifest"):
        with open(tmp_path / f"{name}.json", "w", encoding="utf-8", newline="") as fh:
            write_stock_meta(META, fh)
    with pytest.raises(ValueError) as exc:
        load_corpus(tmp_path, lambda log, metas: log)
    assert str(exc.value) == f"{tmp_path / 'z.json'}: no CSV z.csv"


class TestFilterPeriod:
    @staticmethod
    @functools.cache
    def _year_log():
        res = simulate(SimConfig(rng_seed=9, n_traders=120, n_days=120,
                                 trades_per_day=25.0, n_colluders=30))
        return res.log

    def test_full_interval_is_identity(self):
        log = self._year_log()
        start, end = log.date_range()
        assert filter_period(log, (start, end)) == log

    def test_disjoint_interval_empty(self):
        log = self._year_log()
        out = filter_period(log, (dt.date(1999, 1, 1), dt.date(1999, 12, 31)))
        assert out.n_records == 0

    def test_window_counts_match_linear_scan(self):
        log = self._year_log()
        interval = (dt.date(2004, 2, 1), dt.date(2004, 4, 30))
        # independent oracle: per-record date scan
        lo, hi = interval
        days = [dt.date.fromordinal(d) for d in log.dates.tolist()]
        expected = sum(1 for day in days if lo <= day <= hi)
        out = filter_period(log, interval)
        assert out.n_records == expected
        assert all(lo <= dt.date.fromordinal(d) <= hi for d in out.dates.tolist())

    # Day offsets from the log's first day (a Monday): the whole period, a
    # weekend and days before the period hold every record or none.
    @settings(max_examples=100)
    @given(offset=st.integers(-5, 175), length=st.integers(0, 180))
    @example(offset=0, length=165)
    @example(offset=5, length=1)
    @example(offset=-5, length=2)
    def test_window_matches_rebuilt_log(self, offset, length):
        """The window is the log build_log makes from the window's records
        as strings: the kept records, their accounts renumbered by first
        appearance (buyer before seller), and only the kept txn ids."""
        log = self._year_log()
        start = log.date_range()[0] + dt.timedelta(days=offset)
        end = start + dt.timedelta(days=length)
        lo, hi = start.toordinal(), end.toordinal()
        columns = (log.dates, log.times, log.txns, log.buyers, log.sellers,
                   log.volumes, log.prices)
        rows = [(d, t, log.txn_names[x], log.accounts[b], log.accounts[s], v, p)
                for d, t, x, b, s, v, p in zip(*(c.tolist() for c in columns))
                if lo <= d <= hi]
        out = filter_period(log, (start, end))
        assert out == build_log(log.meta, *(list(zip(*rows)) or [()] * 7))
        assert out.txn_names == tuple(sorted({row[2] for row in rows}))
        order = [out.accounts[i] for pair in zip(out.buyers, out.sellers) for i in pair]
        assert out.accounts == tuple(dict.fromkeys(order))

    def test_bad_interval(self):
        log = self._year_log()
        with pytest.raises(ValueError):
            filter_period(log, (dt.date(2004, 5, 1), dt.date(2004, 1, 1)))

    def test_complement_partitions_records(self):
        """Complementary windows split the resolved record multiset exactly."""
        log = self._year_log()
        start, end = log.date_range()
        mid = start + (end - start) / 2
        a = filter_period(log, (start, mid))
        b = filter_period(log, (mid + dt.timedelta(days=1), end))

        def resolved(lg):
            return sorted(zip(lg.dates.tolist(), lg.times.tolist(),
                              [lg.txn_names[t] for t in lg.txns],
                              [lg.accounts[b] for b in lg.buyers],
                              [lg.accounts[s] for s in lg.sellers],
                              lg.volumes.tolist(), lg.prices.tolist()))

        assert sorted(resolved(a) + resolved(b)) == resolved(log)
        assert a.n_records + b.n_records == log.n_records


def test_filter_preserves_meta_and_order():
    res = simulate(SimConfig(rng_seed=2, n_traders=100, n_days=40,
                             trades_per_day=20.0, n_colluders=30))
    log = res.log
    start, _ = log.date_range()
    out = filter_period(log, (start, start + dt.timedelta(days=20)))
    assert out.meta == log.meta
    key = np.lexsort((out.txns, out.times, out.dates))
    assert np.array_equal(key, np.arange(out.n_records))

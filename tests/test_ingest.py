import datetime as dt
import gc
import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tradenet import ingest
from tradenet.ingest import (StockMeta, TransactionParseError, _check_line,
                             _data_lines, _lexsorted, _parse_columns, build_log,
                             filter_period, load_corpus, parse_transactions,
                             read_stock_meta, write_stock_meta, write_transactions)
from tradenet.sim import SimConfig, simulate

META = StockMeta(symbol="TEST", capitalization_bucket="mid", sector="industrials")

HEADER = "date,time,txn_id,buyer_id,seller_id,volume,price\n"


def parse(text: str):
    return parse_transactions(io.StringIO(HEADER + text), META)


def test_single_line():
    log = parse("2004-01-08,09:30:01,1,B1,S1,500,7.25\n")
    assert log.n_records == 1
    assert log.volumes.tolist() == [500]
    assert log.prices.tolist() == [7.25]
    assert log.dates.tolist() == [dt.date(2004, 1, 8).toordinal()]
    assert log.times.tolist() == [9 * 3600 + 30 * 60 + 1]
    assert log.txn_ids.tolist() == ["1"]
    assert log.accounts[log.buyers[0]] == "B1"
    assert log.accounts[log.sellers[0]] == "S1"


def test_out_of_order_lines_resorted():
    log = parse("2004-01-08,10:00:00,2,B1,S1,100,5.0\n"
                "2004-01-08,09:30:00,1,B2,S2,200,5.1\n")
    assert log.times.tolist() == [9 * 3600 + 30 * 60, 10 * 3600]
    assert log.txn_ids[0] == "1"


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
    assert log.txn_ids.tolist() == ["a", "b"]


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
    write_transactions(res.log, path)
    again = parse_transactions(path, res.log.meta)
    assert again == res.log


def test_written_files_take_the_column_pass(tmp_path, monkeypatch):
    """The line loop only names bad lines: a file write_transactions made
    never reaches it, from any kind of source."""
    res = simulate(SimConfig(rng_seed=5, n_traders=150, n_days=15,
                             trades_per_day=40.0, n_colluders=30))
    path = tmp_path / "sim.csv"
    write_transactions(res.log, path)

    def fail(data):
        raise AssertionError("line loop reached")

    monkeypatch.setattr(ingest, "_data_lines", fail)
    data = path.read_bytes()
    for source in (path, str(path), data, io.BytesIO(data),
                   io.StringIO(data.decode())):
        assert parse_transactions(source, res.log.meta) == res.log


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
    return log, log.txn_ids.dtype


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
        # No text holds these bytes: reading the stream fails as parsing them does.
        assert _outcome(parse_transactions, wrapped()) == expected
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
row = st.tuples(st.sampled_from(DAYS), clock, txn_id, account, account,
                st.integers(1, 10**6).map(str),
                st.one_of(st.floats(0.01, 1e4).map(repr),
                          st.integers(1, 10**4).map(lambda c: f"{c / 100:.2f}")))
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


@settings(max_examples=150)
@given(rows=rows, **layout)
def test_valid_logs_match_line_loop(rows, ending, blanks, final_newline, newline):
    data = _render(rows, [], ending, blanks, final_newline)
    _assert_same_as_loop(data, newline)
    # A well-formed file never falls back to the loop.
    assert _parse_columns(data, META) is not None


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


@settings(max_examples=200)
@given(rows=rows, edits=st.lists(st.builds(lambda r, fs: (r, *fs), st.integers(0, 9),
                                           odd_spelling), min_size=1, max_size=3),
       **layout)
def test_odd_spellings_match_line_loop(rows, edits, ending, blanks, final_newline, newline):
    _assert_same_as_loop(_render(rows, edits, ending, blanks, final_newline), newline)


# Dropped fields (None), an extra field, empty identifiers, a lone "\r",
# a NUL, non-ASCII text, a byte that is not UTF-8, and txn ids that may
# repeat one on the same day.
SHAPES = [None, "x,y", "", "a\rb", "a\x00", "é", "\udcff", "0", "1"]


@settings(max_examples=200)
@given(rows=rows, edits=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 6),
                                           st.sampled_from(SHAPES)),
                                 min_size=1, max_size=3), **layout)
def test_odd_shapes_match_line_loop(rows, edits, ending, blanks, final_newline, newline):
    _assert_same_as_loop(_render(rows, edits, ending, blanks, final_newline), newline)


# Bytes spliced anywhere after the header, even inside a UTF-8 sequence or a
# "\r\n": the reference parser must name a line wherever the column pass
# declines.
SPLICES = [b"\r", b"\n", b"\r\n", b"\x00", b",", b"\xff", b"\xc3", b"9", b"-", b":", b" "]


@settings(max_examples=200)
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


@pytest.mark.parametrize("text", ["", "a,b,c\n", HEADER, HEADER + "\n\n",
                                  "\ufeff" + HEADER + "2004-01-08,09:30:01,1,B1,S1,5,7.25\n",
                                  HEADER + "2004-01-08,09:30:01,1,B1,S1,5,7.25\r"])
@pytest.mark.parametrize("newline", [None, "", "\n", "\r", "\r\n"])
def test_edge_files_match_line_loop(text, newline, tmp_path):
    data = text.encode("utf-8")
    _assert_same_as_loop(data, newline)
    path = tmp_path / "edge.csv"
    path.write_bytes(data)
    assert _outcome(parse_transactions, path) == _outcome(_reference, data)


ROW = "2004-01-08,09:30:01,1,B1,S1,500,7.25"
BEHAVIOUR = [  # (file, line of the error or None for a log, message)
    (HEADER + ROW.replace("B1", "B\r1") + "\n", 2, "carriage return"),
    (HEADER + ROW.replace("B1", "B\x001") + "\n", 2, "NUL"),
    (HEADER + ROW + "\r\r\n", 2, "carriage return"),
    (HEADER.replace("\n", "\r") + ROW + "\r" + ROW.replace(",1,", ",2,") + "\r", 1,
     "bad header"),
    (HEADER + ROW.replace("500", str(2**63)) + "\n", 2,
     f"volume {2**63} exceeds int64"),
    (HEADER.replace("\n", "\r"), None, None),
]


@pytest.mark.parametrize("text, lineno, message", BEHAVIOUR,
                         ids=["lone-cr", "nul", "cr-cr-lf", "cr-only-endings",
                              "volume-2**63", "header-only-final-cr"])
@pytest.mark.parametrize("kind", ["bytes", "path", "StringIO"])
def test_same_content_same_outcome(text, lineno, message, kind, tmp_path):
    """One line rule for every source: a line ends at "\\n" or the end of
    the file, one "\\r" before that end is dropped, and a NUL or any other
    "\\r" makes the line malformed."""
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    source = {"bytes": text.encode("utf-8"), "path": path,
              "StringIO": io.StringIO(text)}[kind]
    if lineno is None:
        assert parse_transactions(source, META).n_records == 0
        return
    with pytest.raises(TransactionParseError, match=message) as exc:
        parse_transactions(source, META)
    assert exc.value.lineno == lineno


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
    write_stock_meta(meta, path)
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
])
def test_sidecar_field_types_checked(field, value):
    with pytest.raises(ValueError, match=field):
        StockMeta.from_dict({**SIDECAR, field: value})


def test_load_corpus_rejects_duplicate_symbol(tmp_path):
    log = parse("2004-01-08,09:30:01,1,B1,S1,500,7.25\n")
    for name in ("A", "B"):
        write_transactions(log, tmp_path / f"{name}.csv")
        write_stock_meta(META, tmp_path / f"{name}.json")
    with pytest.raises(ValueError, match="'TEST' names two stocks") as exc:
        load_corpus(tmp_path)
    assert str(tmp_path / "A.csv") in str(exc.value)
    assert str(tmp_path / "B.csv") in str(exc.value)


class TestFilterPeriod:
    def _year_log(self):
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

    def test_window_matches_rebuilt_log(self):
        """The kept records and their accounts renumber exactly as if the
        window's records were built into a log from their string ids."""
        log = self._year_log()
        interval = (dt.date(2004, 1, 1), dt.date(2004, 1, 10))
        out = filter_period(log, interval)
        assert len(out.accounts) < len(log.accounts)
        mask = ((log.dates >= interval[0].toordinal())
                & (log.dates <= interval[1].toordinal()))
        ids = np.asarray(log.accounts)
        rebuilt = build_log(log.meta, log.dates[mask], log.times[mask],
                            log.txn_ids[mask], ids[log.buyers[mask]],
                            ids[log.sellers[mask]], log.volumes[mask],
                            log.prices[mask])
        assert out == rebuilt
        assert out.txn_ids.dtype == rebuilt.txn_ids.dtype
        # accounts in first-appearance order, buyer before seller
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
            return sorted(zip(lg.dates.tolist(), lg.times.tolist(), lg.txn_ids.tolist(),
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
    key = np.lexsort((out.txn_ids, out.times, out.dates))
    assert np.array_equal(key, np.arange(out.n_records))

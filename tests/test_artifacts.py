"""Artifact CSV I/O: the array readers and writers against their row-by-row
oracles, value for value and byte for byte, and the ratings loader against
its row parser message for message."""

from __future__ import annotations

import io
import logging
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noisegate import board, dataset, ioutil
from noisegate.board import VOTES_HEADER, Votes, consensus, read_votes, write_votes
from noisegate.board.verdict import Verdict
from noisegate.cli import EXIT_OK, main
from noisegate.dataset import RATINGS_HEADER, Scale, load_ratings
from noisegate.ensemble import (
    CLASSIFICATION_HEADER,
    read_classification,
    write_classification,
)
from noisegate.ensemble.features import FEATURES_HEADER, read_features, write_features
from noisegate.evaluation import ACCURACY_METRICS, DELTA_HEADER, DeltaReport, read_delta_csv
from noisegate.evaluation.deltas import QUADRANTS, write_delta_csv
from noisegate.ioutil import format_floats, read_columns
from noisegate.signature import HITS_HEADER, Hits, SignatureAction, read_hits, write_hits

from . import oracles
from .conftest import make_table
from .test_cli import _run_args

SCALE = Scale(0.5, 5.0)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    """One file path that every hypothesis example rewrites."""
    return tmp_path_factory.mktemp("artifacts") / "artifact.csv"


def _outcome(read, path):
    """("ok", value, warnings) or ("raised", type, message, warnings) of read(path)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = ("ok", read(path))
        except Exception as exc:  # both readers must fail alike, whatever the failure
            outcome = ("raised", type(exc), str(exc))
    return (*outcome, [str(w.message) for w in caught])


def _same_outcome(got, want, same_value) -> None:
    assert got[0] == want[0], (got, want)
    if got[0] == "raised":
        assert got[1:] == want[1:]
    else:
        assert got[2] == want[2]
        same_value(got[1], want[1])


def _without_blank_lines(text: str) -> str:
    """text less its blank lines, split into lines as a file opened with
    newline="" splits them."""
    return "".join(line for line in io.StringIO(text, newline="") if line.strip("\r\n"))


def _matches_row_parser(path, text: str, read, oracle, same_value) -> None:
    """read reads text as the oracle reads it less its blank lines: the same
    bits where read returns, a ValueError naming the path where the oracle
    raises, and where only read raises, the text holds a quote, a '_' digit
    separator or a non-ASCII character."""
    _write(path, text)
    got = _outcome(read, path)
    _write(path, _without_blank_lines(text))
    want = _outcome(oracle, path)
    if got[0] == "ok":
        assert want[0] == "ok", (got, want)
        assert got[2] == want[2]
        same_value(got[1], want[1])
    else:
        assert issubclass(got[1], ValueError) and str(path) in got[2], got
        assert want[0] == "raised" or any(c in '"_' or not c.isascii() for c in text), (got, want)


# -- the float formatter -------------------------------------------------

_SWITCH_POINTS = (
    1e16, 1e-4, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    2.0**53, 2.0**63, 1e22, 123456789012345680.0,
)
_SPECIAL = [
    float(y)
    for p in _SWITCH_POINTS
    for x in (p, math.nextafter(p, 0.0), math.nextafter(p, math.inf))
    for y in (x, -x)
] + [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf]


@settings(max_examples=300, deadline=None)
@given(
    pool=st.lists(st.one_of(st.floats(width=64), st.sampled_from(_SPECIAL)), min_size=1, max_size=8),
    picks=st.lists(st.integers(0, 7), max_size=60),
    width=st.integers(1, 3),
)
@example(pool=_SPECIAL, picks=list(range(8)) * 8, width=1)
def test_format_floats_equals_repr(pool, picks, width):
    values = np.array([pool[k % len(pool)] for k in picks], dtype=np.float64)
    got = format_floats(values)
    assert got.dtype == object and got.tolist() == [repr(float(x)) for x in values.tolist()]
    block = values[: len(values) // width * width].reshape(-1, width)
    assert format_floats(block).tolist() == [[repr(float(x)) for x in row] for row in block.tolist()]


# -- generated CSV text ----------------------------------------------------

_DECORATIONS = (
    lambda c: f" {c} ",
    lambda c: f"+{c}",
    lambda c: f"{c[:1]}_{c[1:]}",
    lambda c: f'"{c}"',
    lambda c: f"#{c}",
    lambda c: f"{c}\t",
    lambda c: f"{c}x",
    lambda c: "",
    lambda c: "١",
)


@st.composite
def _csv_text(draw, header: str, row_cells, odd_cells, alt_headers=()) -> str:
    """A CSV file of rows drawn from row_cells, most of them plain, some
    with one decorated cell, one cell replaced by an odd_cells value, a
    cell too many or too few, and with LF or CRLF line ends, blank lines,
    '#' lines and odd headers mixed in."""
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        cells = draw(row_cells)
        shape = draw(st.integers(0, 19))
        k = draw(st.integers(0, len(cells) - 1))
        if shape == 0:
            cells[k] = draw(st.sampled_from(_DECORATIONS))(cells[k])
        elif shape == 1:
            cells[k] = draw(st.sampled_from(odd_cells))
        elif shape == 2:
            cells = cells[:-1] if draw(st.booleans()) else [*cells, "0"]
        elif shape == 3:
            lines.append(draw(st.sampled_from(["", "#" + ",".join(cells), " "])))
        lines.append(",".join(cells))
    head = draw(st.sampled_from([header] * 6 + list(alt_headers) + [f'"{header}"', ""]))
    ends = draw(st.sampled_from([["\n"], ["\r\n"], ["\n", "\r\n"]]))
    text = head
    for line in lines:
        text += draw(st.sampled_from(ends)) + line
    if draw(st.booleans()):
        text += draw(st.sampled_from(ends))
    return text


def _write(path, text: str) -> None:
    path.write_bytes(text.encode())


_VALUE_CELLS = ("0.5", "1.0", "2.5", "4.5", "5.0", "3.25", "4", "4.50", ".5", "5.", "5e0", "1E0")
_rating_row = st.tuples(
    st.integers(0, 3), st.integers(0, 3), st.sampled_from(_VALUE_CELLS), st.integers(0, 2)
).map(lambda r: [str(r[0]), str(r[1]), r[2], str(r[3])])
_ODD_RATING_CELLS = (
    "-1", "0.0", "7.0", "-1.0", "nan", "inf", "-inf", "Infinity", "5.000000000000001",
    "0.49999999999999994", "99999999999999999999",
)


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages: list[str] = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def _load_with_warnings(path):
    handler = _Messages()
    logger = logging.getLogger("noisegate.dataset")
    logger.addHandler(handler)
    try:
        return load_ratings(path, SCALE), handler.messages
    finally:
        logger.removeHandler(handler)


def _load_oracle(path):
    rows, dropped = oracles.dedupe_rows(dataset._parse_ratings_rows(path, SCALE))
    warned = [
        f"{path}: dropped {dropped} duplicate rating(s), keeping latest timestamp"
    ] if dropped else []
    return make_table(rows, SCALE, dropped_duplicates=dropped), warned


def _same_table(got, want) -> None:
    (table, warned), (oracle, oracle_warned) = got, want
    assert warned == oracle_warned
    assert table.dropped_duplicates == oracle.dropped_duplicates
    for name in ("users", "items", "values", "timestamps"):
        a, b = getattr(table, name), getattr(oracle, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@settings(max_examples=400, deadline=None)
@given(text=_csv_text(
    ",".join(RATINGS_HEADER), _rating_row, _ODD_RATING_CELLS,
    alt_headers=["userId, movieId ,rating,timestamp"],
))
@example(text="userId,movieId,rating,timestamp\n")
@example(text="userId,movieId,rating,timestamp\r\n\r\n")
@example(text="userId,movieId,rating,timestamp\n1,2,3.0,5\n1,2,4.0,5\n1,2,2.0,4\n")
@example(text="userId,movieId,rating,timestamp\r\n1,2,3.0,5\r\r\n")
@example(text="userId,movieId,rating,timestamp\n1,2,3.0,5\r4,5,1.0,6")
@example(text="userId,movieId,rating,timestamp\n1,2,3.0,-5\n")
@example(text="userId,movieId,rating,timestamp\n1,-2,3.0,5\n")
@example(text="userId,movieId,rating,timestamp\n1,2,5.000000000000001,5\n")
def test_load_ratings_matches_row_parser(scratch, text):
    _write(scratch, text)
    _same_outcome(
        _outcome(_load_with_warnings, scratch), _outcome(_load_oracle, scratch), _same_table
    )


def test_ratings_loader_parses_a_rejected_file_once(tmp_path, monkeypatch):
    """A ratings file np.loadtxt rejects goes to the row parser after one
    np.loadtxt call: the loader runs no search for the bad row."""
    path = tmp_path / "ratings.csv"
    rows = [f"{k // 50},{k % 50},3.0,5" for k in range(99_999)]
    path.write_text("\n".join([",".join(RATINGS_HEADER), *rows, '2000,7,3.0,"1000"']) + "\n")
    calls = []
    loadtxt = ioutil._loadtxt
    monkeypatch.setattr(ioutil, "_loadtxt", lambda *a: calls.append(1) or loadtxt(*a))
    table = load_ratings(path, SCALE)
    assert len(calls) == 1
    assert len(table) == 100_000 and table.timestamps.max() == 1000


def test_header_only_ratings_file_is_empty_without_warnings(tmp_path):
    path = tmp_path / "ratings.csv"
    for text in ("userId,movieId,rating,timestamp", "userId,movieId,rating,timestamp\n\r\n"):
        path.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert len(load_ratings(path)) == 0
        assert caught == []


_feature_row = st.tuples(
    st.integers(0, 40), st.integers(0, 40),
    st.lists(st.floats(width=64).map(repr),
             min_size=len(FEATURES_HEADER) - 2, max_size=len(FEATURES_HEADER) - 2),
).map(lambda r: [str(r[0]), str(r[1]), *r[2]])
_ODD_FEATURE_CELLS = (
    "-2", "nan", "-nan", "inf", "-Infinity", "+1.5", "1e5", "1E-3", "-0", "0x1p3", "1.5e", "bogus",
)


def _same_columns(got, want) -> None:
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=250, deadline=None)
@given(text=_csv_text(",".join(FEATURES_HEADER), _feature_row, _ODD_FEATURE_CELLS,
                      alt_headers=[",".join(FEATURES_HEADER[::-1])]))
def test_read_features_matches_row_parser(scratch, text):
    _matches_row_parser(scratch, text, read_features, oracles.read_feature_rows, _same_columns)


@st.composite
def _vote_row(draw):
    votes = [draw(st.sampled_from(["noisy", "clean"])) for _ in range(4)]
    right = board.CONSENSUS[consensus(np.array([[v == "noisy" for v in votes]]))[0]].value
    outcome = draw(st.sampled_from([right] * 6 + ["noisy", "clean", "uncertain"]))
    return [str(draw(st.integers(0, 30))), str(draw(st.integers(0, 30))), *votes, outcome]


_ODD_VOTE_CELLS = ("-1", "uncertain", "Noisy", " clean", "", "noisy" + "y" * 12, "bogus")


def _same_votes(got, want) -> None:
    for name in ("users", "items", "noisy", "consensus"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), name


@settings(max_examples=250, deadline=None)
@given(text=_csv_text(",".join(VOTES_HEADER), _vote_row(), _ODD_VOTE_CELLS))
def test_read_votes_matches_row_parser(scratch, text):
    _matches_row_parser(scratch, text, read_votes, oracles.read_vote_rows, _same_votes)


_classification_row = st.tuples(
    st.integers(0, 30), st.integers(0, 30), st.floats(width=64).map(repr),
    st.sampled_from(["noisy", "clean"]), st.sampled_from(["EL3", "EL4_2"]),
).map(lambda r: [str(r[0]), str(r[1]), *r[2:]])
_ODD_CLASSIFICATION_CELLS = ("-1", "bogus", "", "uncertain", "Clean", "noisy ", "noisy" + "y" * 12)


@settings(max_examples=250, deadline=None)
@given(text=_csv_text(
    ",".join(CLASSIFICATION_HEADER), _classification_row, _ODD_CLASSIFICATION_CELLS
))
# csv.reader reads the quote as opening a field that runs to the end of the file
@example(text='userId,itemId,score,label,variant\n1,2,0.5,clean,"\n3,4,0.5,noisy,EL3\n')
def test_read_classification_matches_row_parser(scratch, text):
    _matches_row_parser(
        scratch, text,
        lambda path: read_classification(path, "EL3"),
        lambda path: oracles.read_classification_rows(path, "EL3"),
        _same_columns,
    )


# -- the line a rejected row is named by ------------------------------------

_PAIR_DTYPE = np.dtype([("a", np.int64), ("b", np.float64)])


@pytest.mark.parametrize(
    "n_rows, bad",
    [(1, [0]), (2, [1]), (300, [0]), (300, [299]), (300, [17, 18, 250]), (257, [128, 3])],
)
@pytest.mark.parametrize(
    "row, message",
    [
        ("3,x", "could not convert string 'x' to float64, column 2."),
        ("3,4,5", "the dtype passed requires 2 columns but 3 were found;"),
        (" ", "the dtype passed requires 2 columns but 1 were found;"),
    ],
    ids=["bad-cell", "extra-field", "space-only"],
)
def test_read_columns_names_the_first_bad_row_by_file_line(scratch, n_rows, bad, row, message):
    """Rows n_rows long with every seventh line blank (LF or CRLF) and the
    given rows bad: the error names the first bad row's line, counting the
    header as line 1 and the blank lines, and numpy's message for that row
    without its row count."""
    lines = ["a,b"]
    for k in range(n_rows):
        if len(lines) % 7 == 6:
            lines.append("" if k % 2 else "\r")
        lines.append(row if k in bad else f"{k},{k}.5")
    _write(scratch, "\n".join(lines) + "\n")
    line = 1 + lines.index(row)
    with pytest.raises(ValueError) as caught:
        read_columns(scratch, ("a", "b"), _PAIR_DTYPE)
    assert str(caught.value).startswith(f"{scratch}:{line}: {message}")


# One reader each: its header, the reader, a row it takes, the index of an
# integer cell in that row, and a row that parses but that it rejects.
_READERS = {
    "votes": (
        VOTES_HEADER, read_votes, "1,1,clean,clean,clean,clean,clean", 0,
        "1,2,noisy,noisy,noisy,clean,noisy",
    ),
    "classification": (
        CLASSIFICATION_HEADER, lambda path: read_classification(path, "EL3"),
        "1,1,0.5,clean,EL3", 0, "1,2,0.5,noisy,EL1",
    ),
    "hits": (
        HITS_HEADER, lambda path: read_hits(path, SignatureAction.REMOVE_USER),
        "optout,1,1970-01-02,1,1,1.0,remove_user", 1,
        "optout,2,1970-01-02,1,1,1.0,remove_last_day",
    ),
    "deltas": (
        DELTA_HEADER, read_delta_csv, "0,0,0.0,0.0,Origin,false", 0, "1,0,0.5,0.5,V,true",
    ),
}


@pytest.mark.parametrize("fault", ["bad-cell", "extra-field", "rejected"])
@pytest.mark.parametrize("reader", list(_READERS))
def test_readers_name_the_line_of_a_rejected_row(scratch, reader, fault):
    """A bad row under a good row and a blank line is on line 4, whether
    np.loadtxt or the reader's own check rejects it."""
    header, read, good, int_cell, rejected = _READERS[reader]
    cells = good.split(",")
    cells[int_cell] = "x"
    bad = {"bad-cell": ",".join(cells), "extra-field": good + ",0", "rejected": rejected}[fault]
    _write(scratch, ",".join(header) + "\r\n" + good + "\r\n\r\n" + bad + "\r\n")
    with pytest.raises(ValueError, match=re.escape(f"{scratch}:4: ")):
        read(scratch)


# -- writers against csv.writer ---------------------------------------------

_finite = st.floats(width=64, allow_nan=False)
_keys = st.lists(st.tuples(st.integers(0, 2**40), st.integers(0, 2**40)), unique=True, max_size=12)


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 2**40), st.integers(0, 9), st.sampled_from(list(SCALE.grid())),
                  st.integers(0, 2**40)),
        unique_by=lambda r: r[:2], max_size=20,
    )
)
def test_to_csv_bytes_match_csv_writer(scratch, rows):
    table = make_table(rows, SCALE)
    table.to_csv(scratch)
    assert scratch.read_bytes() == oracles.csv_writer_text(
        RATINGS_HEADER, oracles.ratings_rows(table)
    ).encode()
    back = load_ratings(scratch, SCALE)
    assert oracles.ratings(back) == oracles.ratings(table)


@settings(max_examples=100, deadline=None)
@given(keys=_keys, data=st.data())
def test_features_bytes_match_csv_writer_and_round_trip(scratch, keys, data):
    n_cols = len(FEATURES_HEADER) - 2
    cells = data.draw(st.lists(_finite, min_size=len(keys) * n_cols, max_size=len(keys) * n_cols))
    X = np.array(cells, dtype=np.float64).reshape(len(keys), n_cols)
    users, items = np.array(keys, dtype=np.int64).reshape(-1, 2).T
    write_features(scratch, users, items, X)
    assert scratch.read_bytes() == oracles.csv_writer_text(
        FEATURES_HEADER, oracles.feature_rows(keys, X)
    ).encode()
    _same_columns(read_features(scratch), (users, items, X))


@settings(max_examples=100, deadline=None)
@given(keys=_keys, data=st.data())
def test_votes_bytes_match_csv_writer(scratch, keys, data):
    flags = data.draw(st.lists(st.booleans(), min_size=4 * len(keys), max_size=4 * len(keys)))
    noisy = np.array(flags, dtype=bool).reshape(len(keys), 4)
    users, items = np.array(keys, dtype=np.int64).reshape(-1, 2).T
    votes = Votes(users, items, noisy, consensus(noisy))
    write_votes(votes, scratch)
    assert scratch.read_bytes() == oracles.csv_writer_text(
        VOTES_HEADER, oracles.vote_rows(votes)
    ).encode()
    _same_votes(read_votes(scratch), votes)


@settings(max_examples=100, deadline=None)
@given(
    cells=st.dictionaries(
        st.tuples(st.integers(0, 2**40), st.integers(0, 2**40)),
        st.tuples(st.sampled_from([Verdict.NOISY, Verdict.CLEAN]), _finite),
        max_size=12,
    ),
    variant=st.sampled_from(["EL1", "EL3", "EL4_2"]),
)
def test_classification_bytes_match_csv_writer(scratch, cells, variant):
    users, items = np.array(list(cells), dtype=np.int64).reshape(-1, 2).T
    noisy = np.array([label is Verdict.NOISY for label, _ in cells.values()], dtype=bool)
    scores = np.array([score for _, score in cells.values()], dtype=np.float64)
    write_classification(users, items, noisy, scores, variant, scratch)
    assert scratch.read_bytes() == oracles.csv_writer_text(
        CLASSIFICATION_HEADER, oracles.classification_rows(cells, variant)
    ).encode()
    _same_columns(read_classification(scratch, variant), (users, items, noisy, scores))


@settings(max_examples=60, deadline=None)
@given(
    cells=st.dictionaries(
        st.integers(0, 2**40),
        # lastDay from 1970-01-01 to 9999-12-31, noisy count and the rest of the total
        st.tuples(st.integers(0, 2932896), st.integers(1, 50), st.integers(0, 50)),
        max_size=6,
    ),
    action=st.sampled_from(list(SignatureAction)),
)
def test_hits_bytes_match_csv_writer(scratch, cells, action):
    users = np.array(sorted(cells), dtype=np.int64)
    columns = np.array([cells[u] for u in users.tolist()], dtype=np.int64).reshape(-1, 3)
    days, noisy, extra = columns.T
    hits = Hits(users, days, noisy, noisy + extra, noisy / (noisy + extra))
    write_hits(hits, action, scratch)
    assert scratch.read_bytes() == oracles.csv_writer_text(
        HITS_HEADER, oracles.hit_rows(oracles.hit_records(hits), action)
    ).encode()
    back = read_hits(scratch, action)
    fields = ("users", "days", "noisy_count", "total_count", "ratio")
    _same_columns([getattr(back, f) for f in fields], [getattr(hits, f) for f in fields])


@settings(max_examples=100, deadline=None)
@given(
    users=st.lists(st.integers(0, 2**40), unique=True, max_size=8).map(sorted),
    data=st.data(),
)
def test_deltas_bytes_match_csv_writer(scratch, users, data):
    def column(elements, dtype):
        return np.array(data.draw(st.lists(elements, min_size=len(users), max_size=len(users))),
                        dtype=dtype)

    report = DeltaReport(
        "serendipity-ndcg", np.array(users, dtype=np.int64),
        column(st.integers(0, 9), np.int64), column(_finite, np.float64),
        column(_finite, np.float64), column(st.integers(0, len(QUADRANTS) - 1), np.int8),
        column(st.booleans(), bool), 0.0,
    )
    write_delta_csv(scratch, report)
    assert scratch.read_bytes() == oracles.csv_writer_text(
        DELTA_HEADER, oracles.delta_rows(oracles.delta_records(report))
    ).encode()
    _same_columns(read_delta_csv(scratch), (
        report.users, report.clusters, report.x, report.y, report.quadrant, report.positive
    ))


# -- the artifacts of a data/mini run ---------------------------------------


@pytest.fixture(scope="module")
def mini_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("mini")
    assert main(["run", *_run_args(out, "mini")]) == EXIT_OK
    return out / "mini"


def _no_row_parser(*args):
    raise AssertionError("a split written by the program fell back to the row parser")


def test_mini_artifacts_take_the_array_path_and_match_csv_writer(mini_run, monkeypatch):
    monkeypatch.setattr(dataset, "_parse_ratings_rows", _no_row_parser)

    def matches(name, header, rows):
        text = oracles.csv_writer_text(header, rows)
        assert (mini_run / name).read_bytes() == text.encode(), name

    for split in ("train", "detect", "eval"):
        table = load_ratings(mini_run / "splits" / f"{split}.csv")
        assert len(table)
        matches(f"splits/{split}.csv", RATINGS_HEADER, oracles.ratings_rows(table))
    users, items, X = read_features(mini_run / "features.csv")
    keys = list(zip(users.tolist(), items.tolist()))
    matches("features.csv", FEATURES_HEADER, oracles.feature_rows(keys, X))
    votes = read_votes(mini_run / "votes.csv")
    matches("votes.csv", VOTES_HEADER, oracles.vote_rows(votes))
    users, items, noisy, scores = read_classification(mini_run / "ensemble.csv", "EL3")
    assert len(users)
    cells = {
        (u, i): (Verdict.NOISY if f else Verdict.CLEAN, score)
        for u, i, f, score in zip(users.tolist(), items.tolist(), noisy.tolist(), scores.tolist())
    }
    matches("ensemble.csv", CLASSIFICATION_HEADER, oracles.classification_rows(cells, "EL3"))
    action = SignatureAction.REMOVE_USER
    hits = read_hits(mini_run / "signature.csv", action)
    assert len(hits)
    records = oracles.hit_records(hits)
    matches("signature.csv", HITS_HEADER, oracles.hit_rows(records, action))
    for metric in ACCURACY_METRICS:
        users, clusters, x, y, quadrant, positive = read_delta_csv(
            mini_run / f"deltas-serendipity-{metric}.csv"
        )
        assert len(users)
        report = DeltaReport("", users, clusters, x, y, quadrant, positive, 0.0)
        points = oracles.delta_records(report)
        matches(f"deltas-serendipity-{metric}.csv", DELTA_HEADER, oracles.delta_rows(points))

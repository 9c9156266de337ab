"""Artifact CSV I/O: the array readers and writers against their row-by-row
oracles, value for value, message for message and byte for byte."""

from __future__ import annotations

import logging
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noisegate import board, dataset, ensemble
from noisegate.board import VOTES_HEADER, Votes, consensus, read_votes, write_votes
from noisegate.board.verdict import Verdict
from noisegate.cli import EXIT_OK, main
from noisegate.dataset import RATINGS_HEADER, RatingsTable, Scale, load_ratings
from noisegate.ensemble import (
    CLASSIFICATION_HEADER,
    read_classification,
    write_classification,
)
from noisegate.ensemble import features
from noisegate.ensemble.features import FEATURES_HEADER, read_features, write_features
from noisegate.ioutil import format_floats
from noisegate.signature import (
    HITS_HEADER,
    SignatureAction,
    SignatureHit,
    read_hits,
    write_hits,
)

from . import oracles
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
    return RatingsTable(rows, SCALE, dropped_duplicates=dropped), warned


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
    _write(scratch, text)
    _same_outcome(
        _outcome(read_features, scratch),
        _outcome(features._read_feature_rows, scratch),
        _same_columns,
    )


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
    _write(scratch, text)
    _same_outcome(
        _outcome(read_votes, scratch), _outcome(board._read_vote_rows, scratch), _same_votes
    )


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
    _write(scratch, text)
    _same_outcome(
        _outcome(lambda path: read_classification(path, "EL3"), scratch),
        _outcome(lambda path: ensemble._read_classification_rows(path, "EL3"), scratch),
        _same_columns,
    )


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
    table = RatingsTable(rows, SCALE)
    table.to_csv(scratch)
    assert scratch.read_bytes() == oracles.csv_writer_text(
        RATINGS_HEADER, oracles.ratings_rows(table)
    ).encode()
    back = load_ratings(scratch, SCALE)
    assert back.rows() == table.rows()


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
    hits=st.lists(
        st.builds(
            lambda user, day, noisy, extra: SignatureHit(
                "optout", user, {"last_day": f"2020-01-{day:02d}", "noisy_count": noisy,
                                 "total_count": noisy + extra, "ratio": noisy / (noisy + extra)},
            ),
            st.integers(0, 2**40), st.integers(1, 28), st.integers(1, 50), st.integers(0, 50),
        ),
        unique_by=lambda h: h.user_id, max_size=6,
    ),
    action=st.sampled_from(list(SignatureAction)),
)
def test_hits_bytes_match_csv_writer(scratch, hits, action):
    write_hits(hits, action, scratch)
    assert scratch.read_bytes() == oracles.csv_writer_text(
        HITS_HEADER, oracles.hit_rows(hits, action)
    ).encode()


# -- the artifacts of a data/mini run ---------------------------------------


@pytest.fixture(scope="module")
def mini_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("mini")
    assert main(["run", *_run_args(out, "mini")]) == EXIT_OK
    return out / "mini"


def _no_row_parser(*args):
    raise AssertionError("a plain artifact fell back to the row parser")


def test_mini_artifacts_take_the_array_path_and_match_csv_writer(mini_run, monkeypatch):
    for module, name in [
        (dataset, "_parse_ratings_rows"), (features, "_read_feature_rows"),
        (board, "_read_vote_rows"), (ensemble, "_read_classification_rows"),
    ]:
        monkeypatch.setattr(module, name, _no_row_parser)

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
    hits, action = read_hits(mini_run / "signature.csv")
    matches("signature.csv", HITS_HEADER, oracles.hit_rows(hits, action or SignatureAction.REMOVE_USER))

"""Tests for the trajectory record CSV format.

Oracle: the per-row writer and reader that records.py used before it moved
records column by column, copied here. The column-wise code must write the
same bytes and read back the same arrays.
"""

import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from netdrift.algorithms import run
from netdrift.problems import shifting_consensus
from netdrift.records import CSV_HEADER, read_record, sidecar_path, write_record
from netdrift.topology import build_cycle, uniform_neighbor_weights

SERIES = ("iterations", "tracking_error", "consensus_dev", "avg_error", "y_dev")


def per_row_write(record, csv_path):
    with open(csv_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        for idx in range(len(record)):
            y_val = "" if record.y_dev is None else repr(float(record.y_dev[idx]))
            writer.writerow(
                [
                    int(record.iterations[idx]),
                    repr(float(record.tracking_error[idx])),
                    repr(float(record.consensus_dev[idx])),
                    repr(float(record.avg_error[idx])),
                    y_val,
                ]
            )


def per_row_read(csv_path):
    iterations = []
    columns = {name: [] for name in CSV_HEADER[1:]}
    with open(csv_path, newline="") as handle:
        reader = csv.reader(handle)
        assert next(reader) == CSV_HEADER
        for row in reader:
            iterations.append(int(row[0]))
            for name, value in zip(CSV_HEADER[1:], row[1:]):
                columns[name].append(float(value) if value != "" else math.nan)
    y_raw = np.array(columns["y_dev"])
    return {
        "iterations": np.array(iterations, dtype=np.int64),
        "tracking_error": np.array(columns["tracking_error"]),
        "consensus_dev": np.array(columns["consensus_dev"]),
        "avg_error": np.array(columns["avg_error"]),
        "y_dev": None if np.isnan(y_raw).all() else y_raw,
    }


def _record(algorithm, alpha, horizon):
    sc = shifting_consensus(p=2, shift=1, horizon=max(horizon, 1))
    return run(algorithm, sc, uniform_neighbor_weights(build_cycle(5)), alpha=alpha, horizon=horizon)


# Values at the edges of repr's styles: the shortest round-trip digits, the
# switch to exponent notation on either side, subnormal, largest, non-finite.
REPR_EDGES = (0.0001, 1e-05, 1e16, 9999999999999998.0, 5e-324, 1.7976931348623157e308,
              math.inf, math.nan)


def _repr_edges(tracker):
    # Each series holds every edge value, rotated so that no two share a row.
    record = _record("dgt", 0.1, len(REPR_EDGES) - 1)
    series = [np.roll(REPR_EDGES, shift) for shift in range(4)]
    return replace(record, tracking_error=series[0], consensus_dev=series[1],
                   avg_error=series[2], y_dev=series[3] if tracker else None)


RECORDS = {
    "no_tracker": lambda: _record("diffusion", 0.1, 40),
    "tracker": lambda: _record("dgt", 0.1, 40),
    "diverged": lambda: _record("dgt", 50.0, 400),
    "one_row": lambda: _record("dgt", 0.1, 0),
    "audit_length": lambda: _record("dgt", 0.1, 2000),  # the audit_replay benchmark's 2,001 rows
    "repr_edges": lambda: _repr_edges(tracker=True),
    "repr_edges_no_tracker": lambda: _repr_edges(tracker=False),
}


def _assert_reads_as_the_oracle(path):
    """read_record's series must equal the per-row oracle's, bitwise; returns the record."""
    loaded, expected = read_record(path), per_row_read(path)
    for series in SERIES:
        got, want = getattr(loaded, series), expected[series]
        if want is None:
            assert got is None
            continue
        assert got.dtype == want.dtype and got.shape == want.shape, series
        assert got.tobytes() == want.tobytes(), series
        assert got.flags.c_contiguous, series
    return loaded


@pytest.mark.parametrize("name", RECORDS)
def test_column_writer_and_reader_match_the_per_row_oracle(name, tmp_path):
    record = RECORDS[name]()
    if name == "diverged":
        values = np.concatenate([record.tracking_error, record.y_dev])
        assert np.isnan(values).any() and np.isinf(values).any()
    path, oracle_path = tmp_path / "run.csv", tmp_path / "oracle.csv"
    write_record(record, path)
    per_row_write(record, oracle_path)
    assert path.read_bytes() == oracle_path.read_bytes()
    if name.startswith("repr_edges"):
        cells = {cell for line in path.read_text().splitlines()[1:] for cell in line.split(",")}
        assert {"0.0001", "1e-05", "1e+16", "9999999999999998.0", "5e-324",
                "1.7976931348623157e+308", "inf", "nan"} <= cells

    loaded = _assert_reads_as_the_oracle(path)
    assert (loaded.y_dev is None) == name.endswith("no_tracker")
    assert loaded.metadata == record.metadata


@pytest.mark.parametrize(
    "algorithm, line, edit, message",
    [
        ("dgt", 0, lambda fields: fields[:-1], "unexpected CSV header"),
        ("dgt", 1, lambda fields: ["1.5"] + fields[1:], None),
        ("dgt", 2, lambda fields: fields[:-1], None),
        ("dgt", 2, lambda fields: fields[:2] + ["abc"] + fields[3:], None),
        ("diffusion", 2, lambda fields: fields[:-1], None),
        ("diffusion", -1, lambda fields: fields[:-1], None),
        ("dgt", 2, lambda fields: fields + ["0.5"], None),
        ("diffusion", 2, lambda fields: fields + [""], None),
        ("dgt", -1, lambda fields: ["6"] + fields[1:], "data row 6 has k = 6, expected 5"),
        ("diffusion", 1, lambda fields: ["9"] + fields[1:], "data row 1 has k = 9, expected 0"),
        ("dgt", 4, lambda fields: ["2"] + fields[1:], "data row 4 has k = 2, expected 3"),
    ],
    ids=["wrong_header", "fractional_k", "ragged_row", "non_numeric",
         "no_tracker_lost_trailing_comma", "last_row_lost_trailing_comma", "sixth_field",
         "empty_sixth_field", "k_gap", "k_first_not_zero", "k_repeated"],
)
def test_read_record_rejects_malformed_csv(algorithm, line, edit, message, tmp_path):
    path = tmp_path / "run.csv"
    write_record(_record(algorithm, 0.1, 5), path)
    lines = path.read_text().splitlines()
    lines[line] = ",".join(edit(lines[line].split(",")))
    # An edited last row is written without a line end, as in a truncated file.
    path.write_text("\r\n".join(lines) + ("" if line == -1 else "\r\n"))
    with pytest.raises(ValueError, match=message) as raised:
        read_record(path)
    assert str(path) in str(raised.value)


@pytest.mark.parametrize("rows", [1, 4, 7], ids=["cut_to_one_row", "cut_to_four_rows", "one_row_too_many"])
def test_read_record_rejects_a_row_count_other_than_horizon_plus_one(rows, tmp_path):
    # Each file numbers its rows 0, 1, ..., and each cut ends at a line end,
    # so only the sidecar's horizon tells that rows are missing or added.
    path = tmp_path / "run.csv"
    write_record(_record("dgt", 0.1, 5), path)
    header, *lines = path.read_text().splitlines()
    lines.append(f"6,{lines[-1].partition(',')[2]}")
    path.write_text("\r\n".join([header, *lines[:rows], ""]))
    with pytest.raises(ValueError) as raised:
        read_record(path)
    assert str(raised.value) == f"record {path} has {rows} rows, but its sidecar's horizon 5 needs 6"


# Files that ``netdrift run`` does not write but that read the same arrays as
# the per-row oracle: (method, rows whose y_dev cell is emptied, line end,
# end of the last line).
READABLE_EDITS = {
    "lf_only": ("dgt", (), "\n", "\n"),
    "lf_only_no_tracker": ("diffusion", (), "\n", "\n"),
    "no_final_terminator": ("dgt", (), "\r\n", ""),
    "no_final_terminator_no_tracker": ("diffusion", (), "\r\n", ""),
    "some_empty_y_dev": ("dgt", (1, 3, -1), "\r\n", "\r\n"),
    "some_empty_y_dev_lf_no_final_terminator": ("dgt", (2, -1), "\n", ""),
    "no_tracker": ("diffusion", (), "\r\n", "\r\n"),
}


@pytest.mark.parametrize("name", READABLE_EDITS)
def test_read_record_reads_edited_files_as_the_per_row_oracle(name, tmp_path):
    algorithm, emptied, line_end, last_end = READABLE_EDITS[name]
    path = tmp_path / "run.csv"
    write_record(_record(algorithm, 0.1, 6), path)
    lines = path.read_text().splitlines()
    for row in emptied:
        lines[row] = lines[row].rsplit(",", 1)[0] + ","
    path.write_text(line_end.join(lines) + last_end)
    loaded = _assert_reads_as_the_oracle(path)
    assert (loaded.y_dev is None) == name.endswith("no_tracker")
    if emptied:
        assert np.isnan(loaded.y_dev).sum() == len(emptied) < len(loaded)


def test_read_record_names_an_undecodable_sidecar(tmp_path):
    path = tmp_path / "run.csv"
    write_record(_record("dgt", 0.1, 5), path)
    sidecar = sidecar_path(path)
    sidecar.write_text("{'metadata': {}}\n")
    with pytest.raises(ValueError, match="Expecting property name enclosed in double quotes") as raised:
        read_record(path)
    assert str(sidecar) in str(raised.value)
    assert isinstance(raised.value.__cause__, json.JSONDecodeError)


@pytest.mark.parametrize(
    "key, value, kind",
    [
        ("seed", 1.0, "an integer"),
        ("horizon", True, "an integer"),
        ("mu", False, "a number"),
        ("lipschitz", "1", "a number"),
        ("grad_drift", True, "a number or null"),
        ("algorithm", 3, "a string"),
        ("scenario", None, "a string"),
        ("extra", [], "an object"),
    ],
)
def test_read_record_checks_the_json_type_of_each_sidecar_key(key, value, kind, tmp_path):
    path = tmp_path / "run.csv"
    write_record(_record("dgt", 0.1, 2), path)
    sidecar = sidecar_path(path)
    payload = json.loads(sidecar.read_text())
    payload["metadata"][key] = value
    sidecar.write_text(json.dumps(payload))
    with pytest.raises(ValueError) as raised:
        read_record(path)
    assert str(raised.value) == f"record sidecar {sidecar}: {key} must be {kind}, got {value!r}"


@pytest.mark.parametrize("value, kind", [("x", "a number or null"), (True, "a number or null")])
def test_read_record_checks_the_json_type_of_tracker_identity_max(value, kind, tmp_path):
    path = tmp_path / "run.csv"
    write_record(_record("dgt", 0.1, 2), path)
    sidecar = sidecar_path(path)
    payload = json.loads(sidecar.read_text())
    payload["tracker_identity_max"] = value
    sidecar.write_text(json.dumps(payload))
    with pytest.raises(ValueError) as raised:
        read_record(path)
    assert str(raised.value) == (
        f"record sidecar {sidecar}: tracker_identity_max must be {kind}, got {value!r}"
    )


@pytest.mark.parametrize("value", [0, 2.5e-16, None])
def test_read_record_keeps_a_numeric_or_null_tracker_identity_max(value, tmp_path):
    path = tmp_path / "run.csv"
    write_record(replace(_record("dgt", 0.1, 2), tracker_identity_max=value), path)
    assert read_record(path).tracker_identity_max == value


def test_read_record_accepts_integral_numbers_and_null_drift(tmp_path):
    path = tmp_path / "run.csv"
    record = _record("dgt", 0.1, 2)
    write_record(replace(record, metadata=replace(record.metadata, alpha=1, delta_x=None)), path)
    assert read_record(path).metadata.alpha == 1


@pytest.mark.parametrize("marker", [b"", b"\r\n1,"], ids=["first_byte", "second_data_row"])
def test_read_record_names_an_undecodable_csv(marker, tmp_path):
    # A byte that is not UTF-8 fails with a ValueError naming the CSV, where
    # it is found: before the header, or in the second of three data rows.
    path = tmp_path / "run.csv"
    write_record(_record("dgt", 0.1, 2), path)
    data = path.read_bytes()
    offset = data.index(marker) + len(marker)
    path.write_bytes(data[:offset] + b"\xff" + data[offset:])
    with pytest.raises(ValueError, match=f"can't decode byte 0xff in position {offset}") as raised:
        read_record(path)
    assert str(path) in str(raised.value)
    assert isinstance(raised.value.__cause__, UnicodeDecodeError)


@pytest.mark.parametrize("short", ["tracking_error", "y_dev"])
def test_record_rejects_series_of_unequal_length(short):
    record = _record("dgt", 0.1, 5)
    with pytest.raises(ValueError, match="record series lengths disagree"):
        replace(record, **{short: getattr(record, short)[:-1]})

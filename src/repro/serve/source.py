"""Bucket sources: where a streaming daemon's quartets come from.

The daemon (:class:`repro.serve.daemon.BlameItDaemon`) pulls one
bucket's worth of quartets per step from a :class:`BucketSource`. Two
sources ship:

* :class:`ScenarioSource` — the daemon's pipeline generates each bucket
  from its own scenario, exactly as the batch loop would. This is the
  replay/equivalence mode: a daemon over a scenario source produces a
  report byte-identical to ``pipeline.run()``.
* :class:`JsonlSource` — quartets arrive as JSON-lines rows (one quartet
  per line) produced elsewhere. The file is parsed once, in chunks of
  whole lines, straight into NumPy columns grouped by bucket; each
  bucket is served as a slice of those columns. A row that breaks the
  format stops the load with a :class:`JsonlFormatError` naming the
  file, the line and the reason.

A source must also be able to *replay* buckets it already served: after
a checkpoint restore, the pending (unflushed) probe window's batches are
rebuilt from their bucket times.
"""

from __future__ import annotations

import json
import pathlib
from abc import ABC, abstractmethod
from itertools import chain
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

from repro.core.quartet import Quartet, QuartetBatch
from repro.net.bgp import Timestamp
from repro.net.geo import Region


class BucketSource(ABC):
    """Feeds a daemon one bucket of quartets at a time."""

    @abstractmethod
    def next_batch(self, time: Timestamp) -> "QuartetBatch | None":
        """The raw (pre-chaos, pre-sanitize) quartets of bucket ``time``.

        Returns None when the pipeline should generate the bucket from
        its own scenario (the scenario source's answer); an external
        source returns a batch, possibly empty.
        """

    def replay(self, times: Sequence[Timestamp]) -> "list[QuartetBatch] | None":
        """Raw batches for the given buckets, for resume-window rebuild.

        Returns None when the pipeline's deterministic scenario
        regeneration applies instead (the scenario source's answer).
        """
        return None


class ScenarioSource(BucketSource):
    """Generate buckets from the pipeline's own scenario.

    The daemon's step then takes the pipeline-internal generation path —
    same generator, same per-bucket RNG — so the streamed run is
    byte-identical to the batch run over the same window.
    """

    def next_batch(self, time: Timestamp) -> "QuartetBatch | None":
        return None


# ---------------------------------------------------------------------------
# JSON-lines quartet rows
# ---------------------------------------------------------------------------


def quartet_to_row(quartet: Quartet) -> dict:
    """One quartet as a JSON-safe row (inverse of :func:`quartet_from_row`)."""
    return {
        "time": quartet.time,
        "prefix24": quartet.prefix24,
        "location_id": quartet.location_id,
        "mobile": quartet.mobile,
        "mean_rtt_ms": quartet.mean_rtt_ms,
        "n_samples": quartet.n_samples,
        "users": quartet.users,
        "client_asn": quartet.client_asn,
        "middle": list(quartet.middle),
        "region": quartet.region.name,
    }


def quartet_from_row(row: dict) -> Quartet:
    """Inverse of :func:`quartet_to_row`."""
    return Quartet(
        time=int(row["time"]),
        prefix24=int(row["prefix24"]),
        location_id=row["location_id"],
        mobile=bool(row["mobile"]),
        mean_rtt_ms=float(row["mean_rtt_ms"]),
        n_samples=int(row["n_samples"]),
        users=int(row["users"]),
        client_asn=int(row["client_asn"]),
        middle=tuple(int(asn) for asn in row["middle"]),
        region=Region[row["region"]],
    )


def write_quartets_jsonl(
    path: "str | pathlib.Path", quartets: Iterable[Quartet]
) -> int:
    """Write quartets as JSON lines; returns the number of rows written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for quartet in quartets:
            handle.write(json.dumps(quartet_to_row(quartet)) + "\n")
            count += 1
    return count


class JsonlFormatError(ValueError):
    """A JSON-lines quartet file holds a row :class:`JsonlSource` refuses.

    Attributes:
        path: The file.
        line: The refused row's 1-based line number in the file.
        reason: Which field, and what was wrong with it.
    """

    def __init__(self, path: "str | pathlib.Path", line: int, reason: str) -> None:
        super().__init__(f"{path}:{line}: {reason}")
        self.path = pathlib.Path(path)
        self.line = line
        self.reason = reason


#: Bytes read per chunk. A chunk is cut back to its last whole line and
#: decoded with one ``json.loads``.
_READ_BYTES = 1 << 20

_INTEGER = (frozenset({int}), "a JSON integer within int64")

#: Each row field, the JSON types it may decode to (``bool`` is not an
#: integer here) and the rule a refused value is told.
_FIELDS: dict[str, tuple[frozenset, str]] = {
    "time": _INTEGER,
    "prefix24": _INTEGER,
    "location_id": (frozenset({str}), "a string"),
    "mobile": (frozenset({bool}), "true or false"),
    "mean_rtt_ms": (frozenset({int, float}), "a JSON number within float64"),
    "n_samples": _INTEGER,
    "users": _INTEGER,
    "client_asn": _INTEGER,
    "middle": (frozenset({list}), "a list of JSON integers"),
    "region": (
        frozenset({str}), f"a Region name ({', '.join(Region.__members__)})"
    ),
}

_INT64 = np.iinfo(np.int64)

#: The served batch's array fields and their dtypes (those of
#: :meth:`QuartetBatch.from_quartets`).
_COLUMNS = {
    "time": np.int64,
    "prefix24": np.int64,
    "location_index": np.int64,
    "mobile": np.bool_,
    "mean_rtt_ms": np.float64,
    "n_samples": np.int64,
    "users": np.int64,
    "client_asn": np.int64,
    "middle_index": np.int64,
    "region_index": np.int64,
}


def _show(value: object) -> str:
    text = json.dumps(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _row_error(row: object) -> "str | None":
    """Why a decoded row is refused, or None: the field rules, one row
    at a time (the columnar load checks the same rules a chunk at a
    time)."""
    if type(row) is not dict:
        return f"a row must be a JSON object, got {_show(row)}"
    for name, (types, rule) in _FIELDS.items():
        if name not in row:
            return f"missing field {name!r}"
        value = row[name]
        if type(value) not in types or not _value_fits(name, value):
            return f"field {name!r} must be {rule}, got {_show(value)}"
    return None


def _value_fits(name: str, value: object) -> bool:
    """The part of a field's rule that its JSON type does not settle."""
    if name == "middle":
        return all(type(asn) is int for asn in value)
    if name == "region":
        return value in Region.__members__
    if name == "mean_rtt_ms":
        try:
            float(value)
        except OverflowError:
            return False
        return True
    if type(value) is int:
        return _INT64.min <= value <= _INT64.max
    return True


def _whole_line_chunks(handle: BinaryIO) -> Iterator[tuple[int, bytes]]:
    """``(first line number, chunk)`` pairs of about ``_READ_BYTES``
    each, every chunk ending at a line end (the last may lack one)."""
    line = 1
    tail = b""
    while block := handle.read(_READ_BYTES):
        block = tail + block
        cut = block.rfind(b"\n") + 1
        chunk, tail = block[:cut], block[cut:]
        if chunk:
            yield line, chunk
            line += chunk.count(b"\n")
    if tail:
        yield line, tail


def _columns(
    rows: list, locations: dict, middles: dict, regions: dict
) -> dict[str, np.ndarray]:
    """Transpose decoded rows into columns, coding location, middle and
    region against the file-wide vocabularies (first occurrence first).

    Raises at a row that breaks a field rule; :func:`_refuse` finds
    which one.
    """
    if set(map(type, rows)) != {dict}:
        raise ValueError("a row is not a JSON object")
    # KeyError: a missing field.
    values = [[row[name] for row in rows] for name in _FIELDS]
    for column, (types, _) in zip(values, _FIELDS.values()):
        if not set(map(type, column)) <= types:
            raise ValueError("a field has the wrong JSON type")
    (time, prefix24, location_id, mobile, mean_rtt_ms,
     n_samples, users, client_asn, middle, region) = values
    if not set(map(type, chain.from_iterable(middle))) <= {int}:
        raise ValueError("a middle ASN is not an integer")
    if not set(region) <= Region.__members__.keys():
        raise ValueError("a region is not a Region name")
    # OverflowError below: an integer outside int64, a number past float64.
    return {
        "time": np.array(time, np.int64),
        "prefix24": np.array(prefix24, np.int64),
        "location_index": _codes(location_id, locations),
        "mobile": np.array(mobile, np.bool_),
        "mean_rtt_ms": np.array(mean_rtt_ms, np.float64),
        "n_samples": np.array(n_samples, np.int64),
        "users": np.array(users, np.int64),
        "client_asn": np.array(client_asn, np.int64),
        "middle_index": _codes(map(tuple, middle), middles),
        "region_index": _codes(region, regions),
    }


def _codes(values: Iterable, vocabulary: dict) -> np.ndarray:
    return np.array(
        [vocabulary.setdefault(value, len(vocabulary)) for value in values],
        np.int64,
    )


def _refuse(path: pathlib.Path, chunk: bytes, first_line: int) -> None:
    """Re-parse a chunk that failed to load line by line, and raise
    :class:`JsonlFormatError` at its first bad line."""
    for number, line in enumerate(chunk.split(b"\n"), first_line):
        if not line.strip():
            continue
        try:
            row = json.loads(line.decode())
        except UnicodeDecodeError as exc:
            raise JsonlFormatError(
                path, number, f"not UTF-8: {exc.reason} at byte {exc.start + 1}"
            ) from None
        except json.JSONDecodeError as exc:
            raise JsonlFormatError(
                path, number, f"invalid JSON: {exc.msg} at column {exc.colno}"
            ) from None
        if (reason := _row_error(row)) is not None:
            raise JsonlFormatError(path, number, reason)


def _read_rows(path: pathlib.Path) -> QuartetBatch:
    """Every row of the file, in file order, as one batch over
    file-wide vocabularies."""
    locations: dict[str, int] = {}
    middles: dict[tuple, int] = {}
    regions: dict[str, int] = {}
    parts: list[dict[str, np.ndarray]] = []
    with open(path, "rb") as handle:
        for first_line, chunk in _whole_line_chunks(handle):
            lines = [line for line in chunk.split(b"\n") if line.strip()]
            if not lines:
                continue
            try:
                rows = json.loads((b"[" + b",".join(lines) + b"]").decode())
                if len(rows) != len(lines):
                    raise ValueError("a line holds more or less than one row")
                parts.append(_columns(rows, locations, middles, regions))
            except (ValueError, KeyError, TypeError, OverflowError):
                _refuse(path, chunk, first_line)
                raise
    return QuartetBatch(
        **{
            name: np.concatenate(
                [np.empty(0, dtype), *(part[name] for part in parts)]
            )
            for name, dtype in _COLUMNS.items()
        },
        locations=tuple(locations),
        middles=tuple(middles),
        regions=tuple(Region[name] for name in regions),
    )


def _recode(codes: np.ndarray, vocabulary: tuple) -> tuple[np.ndarray, tuple]:
    """File-wide codes as batch-local ones: dense, numbered in order of
    first occurrence, as :meth:`QuartetBatch.from_quartets` numbers them."""
    values, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(values), dtype=np.int64)
    rank[order] = np.arange(len(values))
    local = rank[inverse]
    local.flags.writeable = False
    return local, tuple(vocabulary[code] for code in values[order].tolist())


class JsonlSource(BucketSource):
    """Quartets from a JSON-lines file, one quartet row per line.

    The whole file is parsed once, when the source is built: each chunk
    of about a megabyte of whole lines is decoded with one ``json.loads``
    and transposed into NumPy columns, with location, middle and region
    held as codes into file-wide vocabularies. The columns are then
    stably sorted by bucket and marked read-only. :meth:`next_batch`
    slices one bucket's rows out and re-codes them against batch-local
    vocabularies, so the batch equals ``QuartetBatch.from_quartets`` of
    the bucket's rows in file order.

    Every parsed column stays resident (about 73 bytes a row) instead of
    streaming: a resumed daemon replays buckets it already served, and
    re-serving from the columns is cheaper than re-parsing the file.

    What the reader assumes, and what happens when a file breaks it:

    ==============================  =====================================
    Assumption                      When it does not hold
    ==============================  =====================================
    One JSON object per line, in    :class:`JsonlFormatError` (path, line,
    UTF-8, following the field      reason); nothing is served
    rules below
    Rows in time order              Not needed: rows are grouped by
                                    bucket, in file order within one
    Each row once                   Not needed: a repeated row is kept
                                    and served as often as it appears
    LF line ends, no blank lines,   Not needed: CRLF, blank lines and a
    a final newline                 missing final newline are accepted
    Only the ten fields             Not needed: extra keys are ignored
    Every bucket has rows           Not needed: a bucket with none is
                                    served as an empty batch
    Finite, positive RTTs           Not checked here: NaN, Infinity and
                                    RTTs <= 0 load, then ``sanitize_batch``
                                    drops them and counts
                                    ``sanitize.quartets_dropped``
    ==============================  =====================================

    The field rules (anything else is refused):

    * ``time``, ``prefix24``, ``n_samples``, ``users``, ``client_asn``:
      JSON integers within int64;
    * ``mobile``: ``true`` or ``false``;
    * ``mean_rtt_ms``: a JSON number within float64;
    * ``middle``: a list of JSON integers;
    * ``location_id``: a string;
    * ``region``: a :class:`~repro.net.geo.Region` name.
    """

    def __init__(self, path: "str | pathlib.Path") -> None:
        self.path = pathlib.Path(path)
        rows = _read_rows(self.path)
        self._by_bucket = rows.take(np.argsort(rows.time, kind="stable"))
        for name in _COLUMNS:
            getattr(self._by_bucket, name).flags.writeable = False
        times, starts = np.unique(self._by_bucket.time, return_index=True)
        ends = [*starts[1:].tolist(), len(self._by_bucket)]
        self._spans = dict(zip(times.tolist(), zip(starts.tolist(), ends)))

    def times(self) -> list[int]:
        """Bucket times present in the file, ascending."""
        return list(self._spans)

    def next_batch(self, time: Timestamp) -> QuartetBatch:
        start, end = self._spans.get(time, (0, 0))
        rows = self._by_bucket
        location_index, locations = _recode(
            rows.location_index[start:end], rows.locations
        )
        middle_index, middles = _recode(rows.middle_index[start:end], rows.middles)
        region_index, regions = _recode(rows.region_index[start:end], rows.regions)
        return QuartetBatch(
            time=rows.time[start:end],
            prefix24=rows.prefix24[start:end],
            mobile=rows.mobile[start:end],
            mean_rtt_ms=rows.mean_rtt_ms[start:end],
            n_samples=rows.n_samples[start:end],
            users=rows.users[start:end],
            client_asn=rows.client_asn[start:end],
            location_index=location_index,
            locations=locations,
            middle_index=middle_index,
            middles=middles,
            region_index=region_index,
            regions=regions,
        )

    def replay(self, times: Sequence[Timestamp]) -> list[QuartetBatch]:
        return [self.next_batch(time) for time in times]

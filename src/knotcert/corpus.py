"""Corpus ingestion: parse a corpus file into validated entries and row errors.

Corpus formats (selected explicitly or inferred from the file suffix):

* json  - one array of entry objects
* jsonl - one entry object per line
* csv   - rows ``name, e00, e01, ..., size`` with size^2 row-major entries
  followed by the size column; a first row is a header only when no cell
  after the name is an integer

Entry objects follow the schema
``{"name": str, "seifert": [[int, ...], ...], "assume_irreducible": bool,
"assume_m0_prime": bool}`` with both flags optional (defaults true/false).
Malformed or invalid rows become per-row error records; they never abort
the parse.  ``write_corpus`` writes entries back in each format.  Every
command parses first, so this module imports only what parsing needs:
certificates, reports and plots are ``knotcert.emit``, and csv is imported
by the functions that read or write it.
"""

from __future__ import annotations

import io
import json
import re
from pathlib import Path
from typing import Iterable, Sequence

from .errors import CorpusParseError, UnknownFormatError, ValidationError
from .record import Record
from .seifert import KnotMetadata, SeifertMatrix, validate


class CorpusEntry(Record, uncompared=("row",)):
    """One named Seifert matrix, validated at parse time, with its user assertions."""

    name: str
    seifert: SeifertMatrix
    assume_irreducible: bool = True
    assume_m0_prime: bool = False
    row: int | None = None  # position in the corpus file

    def metadata(self) -> KnotMetadata:
        return KnotMetadata(
            assume_irreducible=self.assume_irreducible,
            assume_m0_prime=self.assume_m0_prime,
        )


class CorpusError(Record):
    """A row that could not be parsed or validated, with its location.

    ``message`` is the bare reason; str() is the row's one wording,
    ``row N (name): reason``, with ``?`` for a missing name.
    """

    row: int
    name: str | None
    message: str

    def __str__(self) -> str:
        return f"row {self.row} ({self.name or '?'}): {self.message}"


ParsedRow = CorpusEntry | CorpusError

# a C0 control character or DEL in a name could forge an output line or
# break an SVG (XML 1.0 forbids most of them), so the row is an error that
# does not echo the name
_CONTROL_NAME = "name contains a control character"


def _has_control(name: str) -> bool:
    return min(name, default=" ") < " " or "\x7f" in name


# what int() reads in base 10: signed decimal digits, single underscores
# between them, whitespace around them
_INT_LITERAL = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")


class _TooLong:
    """An integer literal past Python's int-string digit limit, in place of its value."""

    __slots__ = ("message",)

    def __init__(self, message: str):
        self.message = message

    def __index__(self) -> int:
        raise ValueError(self.message)


def _int_literal(text: str) -> int | _TooLong:
    """int(text), or a _TooLong for an integer literal past the digit limit.

    Validation reads a _TooLong as a row error, so one such entry does not
    cost the other rows of the file.
    """
    try:
        return int(text)
    except ValueError as exc:
        if not _INT_LITERAL.fullmatch(text):
            raise
        return _TooLong(f"entry too long to read: {exc}")


def _entry_from_obj(obj, row: int) -> ParsedRow:
    if not isinstance(obj, dict):
        return CorpusError(row, None, "entry is not an object")
    name = obj.get("name")
    if not isinstance(name, str) or not name:
        return CorpusError(row, None, "missing or empty 'name'")
    if _has_control(name):
        return CorpusError(row, None, _CONTROL_NAME)
    seifert = obj.get("seifert")
    if not isinstance(seifert, list) or any(not isinstance(r, list) for r in seifert):
        return CorpusError(row, name, "'seifert' must be a matrix (list of lists)")
    flags = {}
    for key in ("assume_irreducible", "assume_m0_prime"):
        if key in obj:
            if not isinstance(obj[key], bool):
                return CorpusError(row, name, f"'{key}' must be a boolean")
            flags[key] = obj[key]
    try:
        matrix = validate(seifert, name=name)
    except (ValidationError, TypeError, ValueError) as exc:
        return CorpusError(row, name, str(exc))
    return CorpusEntry(name=name, seifert=matrix, row=row, **flags)


def _parse_json(text: str) -> list[ParsedRow]:
    try:
        data = json.loads(text, parse_int=_int_literal)
    except (ValueError, RecursionError) as exc:
        # ValueError is a JSONDecodeError; RecursionError comes from arrays
        # nested past the recursion limit
        raise CorpusParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, list):
        raise CorpusParseError("top-level JSON value must be an array of entries")
    return [_entry_from_obj(obj, row) for row, obj in enumerate(data)]


def _parse_jsonl(text: str) -> list[ParsedRow]:
    out: list[ParsedRow] = []
    row = 0
    # only "\n" ends a record: splitlines() would also break at U+2028,
    # U+2029 and U+0085, which JSON allows raw inside strings
    for line in text.split("\n"):
        if not line.strip():
            continue
        try:
            obj = json.loads(line, parse_int=_int_literal)
        except (ValueError, RecursionError) as exc:
            out.append(CorpusError(row, None, f"bad JSON line: {exc}"))
        else:
            out.append(_entry_from_obj(obj, row))
        row += 1
    return out


def _csv_records(text: str):
    """One CSV record per physical line of text, or the csv.Error that rejects it.

    The format has no multi-line fields, so an unbalanced quote is an error
    in its own record (strict mode) instead of swallowing the lines after it.
    """
    import csv

    for line in io.StringIO(text):
        try:
            yield next(csv.reader([line], strict=True))
        except csv.Error as exc:  # such as a cell past csv.field_size_limit()
            yield exc


def _parse_csv(text: str) -> list[ParsedRow]:
    # columns: name, row-major entries, trailing size column
    import csv

    out: list[ParsedRow] = []
    for row, record in enumerate(_csv_records(text)):
        if isinstance(record, csv.Error):
            out.append(CorpusError(row, None, f"bad CSV record: {record}"))
            continue
        if not record or all(not cell.strip() for cell in record):
            continue
        if row == 0 and len(record) >= 2 and not any(map(_INT_LITERAL.fullmatch, record[1:])):
            continue  # header row: no cell after the name is an integer
        if len(record) < 2:
            out.append(CorpusError(row, None, "need at least name and size columns"))
            continue
        name = record[0].strip()
        if _has_control(name):
            out.append(CorpusError(row, None, _CONTROL_NAME))
            continue
        try:
            *cells, size = map(_int_literal, record[1:])
        except ValueError:
            out.append(CorpusError(row, name or None, "non-integer size or entry"))
            continue
        if isinstance(size, _TooLong):
            out.append(CorpusError(row, name or None, size.message))
            continue
        if size < 0 or len(cells) != size * size:
            out.append(
                CorpusError(row, name or None, f"expected {size * size} entries, got {len(cells)}")
            )
            continue
        matrix = [cells[i * size : (i + 1) * size] for i in range(size)]
        out.append(_entry_from_obj({"name": name, "seifert": matrix}, row))
    return out


_PARSERS = {"json": _parse_json, "jsonl": _parse_jsonl, "csv": _parse_csv}
FORMATS = tuple(_PARSERS)


def _format(path: Path, format: str | None) -> str:
    """format, or else the one the suffix of path names; UnknownFormatError if unknown."""
    if format is None:
        format = path.suffix.lstrip(".").lower()
    if format not in FORMATS:
        raise UnknownFormatError(f"unknown corpus format {format!r}; expected one of {FORMATS}")
    return format


def _read(text: str, format: str) -> list[ParsedRow]:
    # a leading byte-order mark, which Excel writes at the start of a CSV, is not data
    return _PARSERS[format](text.removeprefix("\ufeff"))


def parse_corpus(path: str | Path, format: str | None = None) -> list[ParsedRow]:
    """Parse a corpus file into entries and per-row error records, in file order.

    ``format`` is one of json, jsonl, csv; when omitted it is inferred from
    the suffix.  Raises FileNotFoundError, UnknownFormatError, or
    CorpusParseError (the latter only for file-level damage).
    """
    path = Path(path)
    format = _format(path, format)
    return _read(path.read_text(encoding="utf-8"), format)


def write_corpus(
    entries: Sequence[CorpusEntry], path: str | Path, format: str | None = None
) -> None:
    """Serialize entries in a corpus format, inferred from the suffix when omitted.

    The text is parsed back with parse_corpus's reader before anything is
    written; ValueError names the first entry that does not come back equal.
    """
    path = Path(path)
    format = _format(path, format)
    if format == "csv":
        import csv

        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            [e.name, *(x for row in e.seifert.entries for x in row), e.seifert.size]
            for e in entries
        )
        text = buf.getvalue()
    else:
        objs = [
            {
                "name": e.name,
                "seifert": [list(row) for row in e.seifert.entries],
                "assume_irreducible": e.assume_irreducible,
                "assume_m0_prime": e.assume_m0_prime,
            }
            for e in entries
        ]
        lines = [json.dumps(objs, indent=2)] if format == "json" else map(json.dumps, objs)
        text = "".join(line + "\n" for line in lines)
    back = _read(text, format)
    for i, e in enumerate(entries):
        if back[i : i + 1] != [e]:
            raise ValueError(f"entry {i} ({e.name!r}) would not read back unchanged from {format}")
    path.write_text(text, encoding="utf-8")


def _unwritable(entry: CorpusEntry, what: str, numbers: Iterable[object]) -> CorpusError | None:
    """The entry's row error if one of numbers is too long to write as decimal text, else None.

    A valid matrix can give Alexander coefficients or root interval endpoints
    past the interpreter's int-to-str digit limit (4300 digits by default,
    absent on older Pythons), found by trying the conversion; ``what`` names
    the numbers in the message.
    """
    try:
        for x in numbers:
            str(x)
    except ValueError as exc:
        return CorpusError(entry.row, entry.name, f"{what} too long to write: {exc}")
    return None

"""SPICE deck parser for static power-grid analysis.

The parser accepts the subset of SPICE used by PG decks:

- ``R<name> a b value`` resistors,
- ``I<name> a b value`` independent current sources,
- ``V<name> a b value`` independent voltage sources,
- ``C<name> a b value`` capacitors (decap / wire cap; transient only),
- ``*`` comment lines (the first one becomes the netlist title),
- ``.end`` / ``.END`` terminator (optional),
- engineering suffixes on values (``k``, ``m``, ``u``, ``n``, ``p``, ``f``,
  ``meg``, ``g``, ``t``) and plain scientific notation.

A value token is ASCII: ``[+-]`` mantissa (``1``, ``1.``, ``1.5``,
``.5``), optional ``e``/``E`` exponent, optional suffix, and its value
must be finite.  Python-only float spellings (``1_000``, non-ASCII
digits, ``inf``/``nan``/``infinity``) and overflowing values such as
``1e999`` are rejected with the line number.

Everything else (subcircuits, capacitors, ...) raises
:class:`SpiceParseError` — static PG decks must be purely resistive.
"""

from __future__ import annotations

import itertools
import math
import os
import re

import numpy as np

from repro.spice.ast import ElementColumns, Netlist


class SpiceParseError(ValueError):
    """Raised on malformed or unsupported SPICE input."""

    def __init__(self, message: str, line_no: int | None = None) -> None:
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


_SUFFIXES = {
    "t": 1e12,
    "g": 1e9,
    "meg": 1e6,
    "k": 1e3,
    "m": 1e-3,
    "u": 1e-6,
    "n": 1e-9,
    "p": 1e-12,
    "f": 1e-15,
}

_VALUE_RE = re.compile(
    r"([+-]?(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?)(meg|[tgkmunpf])?",
    re.ASCII | re.IGNORECASE,
)

#: Element letter (upper-cased) → the Netlist kind it lands in.
_ELEMENT_KINDS = {
    "R": "resistors",
    "I": "current_sources",
    "V": "voltage_sources",
    "C": "capacitors",
}


def parse_value(token: str, line_no: int | None = None) -> float:
    """Parse a SPICE numeric token with optional engineering suffix.

    ``meg`` wins over ``m`` (milli); suffix matching is case-insensitive
    as in SPICE.  The result must be finite.
    """
    text = token.strip()
    if not text:
        raise SpiceParseError("empty numeric token", line_no)
    match = _VALUE_RE.fullmatch(text)
    if match is None:
        raise SpiceParseError(f"bad numeric token {token!r}", line_no)
    mantissa, suffix = match.groups()
    value = float(mantissa)
    if suffix is not None:
        value *= _SUFFIXES[suffix.lower()]
    if not math.isfinite(value):
        raise SpiceParseError(f"non-finite numeric token {token!r}", line_no)
    return value


class _Malformed(Exception):
    """The bulk path met a line it does not accept; rescan for the error."""


def parse_spice(text: str) -> Netlist:
    """Parse a SPICE deck from a string into a :class:`Netlist`.

    The whole deck is tokenised at once and each element kind's columns
    are cut from the flat token list; only suffixed value tokens go
    through :func:`parse_value` one by one.  A deck the bulk path does
    not accept is rescanned line by line, so the error names the first
    bad line exactly as a line-at-a-time parser would.
    """
    lines = text.splitlines()
    try:
        return _parse_lines(lines)
    except _Malformed:
        _raise_first_error(lines)
        raise AssertionError("deck was rejected but no line is malformed")


def _parse_lines(lines: list[str]) -> Netlist:
    rows = [line.split() for line in lines]
    # One character per line: the first character of its first token,
    # or " " for a blank line (no token starts with whitespace).
    heads = "".join([row[0][0] if row else " " for row in rows])
    title = None
    end = len(rows)
    skipped: list[int] = []
    for match in re.finditer(r"[*.]", heads):
        index = match.start()
        if heads[index] == "*":
            if title is None:
                title = lines[index].strip().lstrip("*").strip()
        else:
            directive = rows[index][0].lower()
            if directive == ".end":
                end = index
                break
            if directive not in (".ends", ".op"):
                raise _Malformed
        skipped.append(index)

    # Element rows are the runs between comments/directives before .end.
    bounds = list(zip([-1, *skipped], [*skipped, end]))
    element_rows = list(
        itertools.chain.from_iterable(rows[lo + 1 : hi] for lo, hi in bounds)
    )
    counts = np.fromiter(map(len, element_rows), np.int64, len(element_rows))
    if np.any((counts != 4) & (counts != 0)):
        raise _Malformed
    tokens = list(itertools.chain.from_iterable(element_rows))
    names, node_1, node_2 = (np.array(tokens[k::4], dtype=object) for k in range(3))
    values = _bulk_values(tokens[3::4])

    letters = "".join([heads[lo + 1 : hi] for lo, hi in bounds]).replace(" ", "")
    upper = letters.upper()
    if len(upper) == len(letters):
        kinds = np.frombuffer(upper.encode("utf-32-le"), dtype="<U1")
    else:  # some letter upper-cases to several characters
        kinds = np.array([letter.upper() for letter in letters], dtype=object)

    columns: dict[str, ElementColumns] = {}
    claimed = 0
    for letter, kind in _ELEMENT_KINDS.items():
        mask = kinds == letter
        count = int(np.count_nonzero(mask))
        if not count:
            continue
        claimed += count
        kind_values = values[mask]
        if kind in ("resistors", "capacitors") and np.any(kind_values < 0):
            raise _Malformed
        columns[kind] = ElementColumns(
            names[mask].tolist(), node_1[mask].tolist(), node_2[mask].tolist(), kind_values
        )
    if claimed != len(names):
        raise _Malformed
    return Netlist.from_columns(title or "", **columns)


def _bulk_values(tokens: list[str]) -> np.ndarray:
    """Float64 values of *tokens*; suffixed ones go through parse_value.

    An ASCII token without ``_`` that ``float()`` accepts is a grammar
    literal, or ``inf``/``nan`` spelled out, which the finiteness check
    rejects — so one bulk ``float()`` pass covers every unsuffixed token.
    """
    joined = "".join(tokens)
    if not joined.isascii() or "_" in joined:
        raise _Malformed
    try:
        values = np.array(list(map(float, tokens)), dtype=np.float64)
    except ValueError:
        values = np.empty(len(tokens), dtype=np.float64)
        plain = np.ones(len(tokens), dtype=bool)
        suffixed = [k for k, token in enumerate(tokens) if token[-1].isalpha()]
        plain[suffixed] = False
        try:
            values[suffixed] = [parse_value(tokens[k]) for k in suffixed]
            values[plain] = [float(token) for token, keep in zip(tokens, plain) if keep]
        except ValueError as exc:  # SpiceParseError is a ValueError
            raise _Malformed from exc
    if not np.isfinite(values).all():
        raise _Malformed
    return values


def _raise_first_error(lines: list[str]) -> None:
    """Walk the deck line by line and raise the first line's error."""
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("*"):
            continue
        if line.startswith("."):
            directive = line.split()[0].lower()
            if directive == ".end":
                return
            if directive in (".ends", ".op"):
                continue
            raise SpiceParseError(f"unsupported directive {directive!r}", line_no)
        _check_element_line(line.split(), line_no)


def _check_element_line(tokens: list[str], line_no: int) -> None:
    if len(tokens) != 4:
        raise SpiceParseError(
            f"expected 'NAME node node value', got {len(tokens)} tokens", line_no
        )
    name, _, _, value_token = tokens
    kind = name[0].upper()
    value = parse_value(value_token, line_no)
    if kind not in _ELEMENT_KINDS:
        raise SpiceParseError(
            f"unsupported element {name!r} (PG decks hold only R/I/V/C)",
            line_no,
        )
    if value < 0 and kind == "R":
        raise SpiceParseError(f"negative resistance {value}", line_no)
    if value < 0 and kind == "C":
        raise SpiceParseError(f"negative capacitance {value}", line_no)


def parse_spice_file(path: str | os.PathLike[str]) -> Netlist:
    """Parse a SPICE deck from a file path."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_spice(handle.read())

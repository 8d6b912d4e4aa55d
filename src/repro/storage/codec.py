"""Value rendering and the on-disk codecs of sorted value files.

Two decisions from the paper are encoded here:

* **TO_CHAR semantics.**  The ``minus`` SQL statement (Fig. 3) casts both
  sides with ``to_char`` before comparing, and Sec. 4.1 notes that in the life
  sciences "even attributes containing solely integers are represented as
  string".  We therefore compare *rendered strings*: integer ``144`` and
  string ``"144"`` are the same value for IND purposes.

* **Lexicographic order.**  Sec. 3.2: "We can use lexicographic sorting for
  all values including numeric values, because the actual order of values is
  irrelevant as long as it is consistent over all sets."  Spool files are
  sorted by plain Python string comparison (code-point order), which is a
  total order and consistent everywhere.

Escaping makes the newline separator of a block payload loss-free for
arbitrary strings (including embedded newlines and backslashes): the v2
block codec packs escaped values into length-prefixed blocks
(:func:`encode_block` / :func:`decode_block`, per value :func:`escape_line`
/ :func:`unescape_line`), so a reader decodes a few thousand values with one
``bytes.decode`` + ``str.split`` instead of one Python-level read per value.
See ``docs/spool_format.md``.

The v3 layout reuses the v2 block codec and adds an optional zlib layer
around each payload (:func:`compress_payload` / :func:`decompress_payload`)
— CPU-for-I/O on large exports, selected per file by the frame flags byte
(:mod:`repro.storage.blockio`).
"""

from __future__ import annotations

import zlib
from bisect import bisect_left
from collections.abc import Iterable
from typing import Any

from repro.errors import SpoolError

#: Spool payload compression schemes.  ``zlib`` upgrades the file to the v3
#: frame (flags byte ``0x01``); ``none`` keeps the v2 frame byte-identical.
COMPRESSION_NONE = "none"
COMPRESSION_ZLIB = "zlib"
SPOOL_COMPRESSIONS = (COMPRESSION_NONE, COMPRESSION_ZLIB)

#: zlib level 6: the default trade-off — decompression speed is level
#: independent, and the validator hot path only ever decompresses.
_ZLIB_LEVEL = 6


def render_value(value: Any) -> str:
    """Render a stored value to its canonical comparison string.

    NULLs never reach the spool files, so ``None`` is a programming error
    here.  Floats with integral value render without a fractional part, as
    ``TO_CHAR`` would (``1.0`` → ``"1"``); other floats use ``repr``, the
    shortest round-tripping form.  Bytes (BLOB) render as lowercase hex —
    BLOBs are excluded from candidates but still appear in statistics.
    """
    if value is None:
        raise SpoolError("NULL values cannot be rendered into a value set")
    if isinstance(value, bool):
        raise SpoolError(f"boolean value {value!r} has no TO_CHAR rendering")
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        # is_integer() is false for NaN and the infinities: they take repr.
        return str(int(value)) if value.is_integer() else repr(value)
    if isinstance(value, bytes):
        return value.hex()
    raise SpoolError(f"cannot render value of type {type(value).__name__}")


def render_distinct(values: list[Any]) -> set[str]:
    """The set of rendered strings of a bag of non-NULL values.

    The unsorted form of :func:`render_distinct_sorted`, which calls it
    for every column that is not all ``str`` or all ``int``.  Columns of
    plain ``str``, ``int`` or ``float`` values are deduplicated *raw*
    first, then only the distinct values are rendered: equal raw values
    render equally, so the result is the same set :func:`render_value`
    would give value by value.  Any other mix of types — ``bool``,
    ``bytes``, subclasses, unrenderable objects — takes the per-value
    :func:`render_value` path, which is the reference semantics and raises
    the same :class:`SpoolError` on the same value.
    """
    return _render_distinct(values, set(map(type, values)))


def _render_distinct(values: list[Any], kinds: set[type]) -> set[str]:
    if kinds <= {str}:
        return set(values)
    if kinds == {int}:
        return set(map(str, set(values)))
    if kinds == {float}:
        distinct = set(values)
        integral = set(filter(float.is_integer, distinct))
        return set(map(repr, distinct - integral)).union(
            map(str, map(int, integral))
        )
    return set(map(render_value, values))


def escape_line(text: str) -> str:
    r"""Escape a rendered value so it occupies exactly one file line.

    Backslash becomes ``\\``, newline ``\n``, carriage return ``\r``.  The
    mapping is injective, so sorting escaped lines is *not* guaranteed to sort
    the underlying values — which is why the spool writer sorts values first
    and escapes second.
    """
    return (
        text.replace("\\", "\\\\").replace("\n", "\\n").replace("\r", "\\r")
    )


def unescape_line(line: str) -> str:
    r"""Inverse of :func:`escape_line`."""
    out: list[str] = []
    i = 0
    n = len(line)
    while i < n:
        ch = line[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= n:
            raise SpoolError(f"dangling escape at end of line: {line!r}")
        nxt = line[i + 1]
        if nxt == "\\":
            out.append("\\")
        elif nxt == "n":
            out.append("\n")
        elif nxt == "r":
            out.append("\r")
        else:
            raise SpoolError(f"unknown escape sequence \\{nxt} in {line!r}")
        i += 2
    return "".join(out)


def encode_block(values: list[str]) -> bytes:
    r"""Encode a batch of values into one v2 block payload.

    The payload is the escaped values joined by ``\n`` and UTF-8 encoded.
    Escaping guarantees the separator never occurs inside a value, so the
    decoder can split the whole payload at C speed.  The value *count* is not
    part of the payload — the block frame (see :mod:`repro.storage.blockio`)
    carries it, which is what disambiguates the empty payload of a zero-value
    block from a block holding one empty string.

    Escaping is only needed when some value holds ``\``, ``\r`` or a
    newline; the join is checked once and the per-value
    :func:`escape_line` pass runs only for such a batch, so the payload is
    always ``"\n".join(map(escape_line, values))``, encoded.
    """
    joined = "\n".join(values)
    if (
        "\\" in joined
        or "\r" in joined
        or joined.count("\n") != len(values) - 1
    ):
        joined = "\n".join(map(escape_line, values))
    return joined.encode("utf-8")


def decode_block(payload: bytes, count: int) -> list[str]:
    """Inverse of :func:`encode_block` for a block of ``count`` values.

    Mirrors the encoder's single check: the decoded payload is searched
    once for a backslash, and a block without one is returned as split.
    Only a block holding an escape sequence unescapes line by line.
    """
    if count == 0:
        if payload:
            raise SpoolError(
                f"zero-value block carries {len(payload)} payload bytes"
            )
        return []
    text = payload.decode("utf-8")
    lines = text.split("\n")
    if len(lines) != count:
        raise SpoolError(
            f"corrupt block: header promises {count} values, "
            f"payload holds {len(lines)}"
        )
    if "\\" not in text:
        return lines
    return [unescape_line(line) if "\\" in line else line for line in lines]


class PayloadSet:
    r"""A sorted value set held as its value file's decoded block payloads.

    Built from ``(max_value, payload)`` per block, in file order, as a
    :class:`~repro.storage.cursors.BlockValueCursor` collects them; the
    payloads of a compressed file are the inflated ones.  Membership
    bisects the block maxima for the one block whose range can hold the
    value, then searches that block's payload for the value's escaped
    encoding between two separators.  Escaping keeps ``\n`` out of every
    encoded value, so such a match is exactly one whole value, and the
    answer is the one ``value in set(values)`` gives.  The payloads take
    a fraction of the memory of the decoded set, but a probe costs a
    substring search instead of a hash lookup.
    """

    __slots__ = ("_maxima", "_payloads")

    def __init__(self, blocks: Iterable[tuple[str, bytes]]) -> None:
        self._maxima: list[str] = []
        self._payloads: list[bytes] = []
        for max_value, payload in blocks:
            self._maxima.append(max_value)
            self._payloads.append(b"".join((b"\n", payload, b"\n")))

    @staticmethod
    def probes(values: Iterable[str]) -> list[tuple[str, bytes]]:
        """``values`` with the needles :meth:`holds_all` searches for."""
        return [
            (value, b"\n%b\n" % escape_line(value).encode("utf-8"))
            for value in values
        ]

    def holds_all(self, probes: list[tuple[str, bytes]]) -> bool:
        """Whether every value of ``probes`` (see :meth:`probes`) is held."""
        maxima, payloads = self._maxima, self._payloads
        end = len(maxima)
        for value, needle in probes:
            block = bisect_left(maxima, value)
            if block == end or needle not in payloads[block]:
                return False
        return True


def compress_payload(payload: bytes) -> bytes:
    """Deflate one block payload for a v3 compressed frame."""
    return zlib.compress(payload, _ZLIB_LEVEL)


def decompress_payload(payload: bytes, path: str, ordinal: int) -> bytes:
    """Inflate one v3 block payload, failing loudly on corruption.

    A bad stream raises :class:`SpoolError` naming the file and the block
    ordinal — never a bare ``zlib.error`` — so a truncated or bit-flipped
    spool is diagnosable from the exception alone.
    """
    try:
        return zlib.decompress(payload)
    except zlib.error as exc:
        raise SpoolError(
            f"corrupt compressed block {ordinal} in {path}: {exc}"
        ) from exc


def render_distinct_sorted(
    values: list[Any], kinds: set[type] | None = None
) -> list[str]:
    """Render a bag of non-NULL values into the sorted set ``s(a)``.

    The one kernel that renders and sorts a column: profiling builds each
    column's list with it, and export writes that list (or, for a column
    profiling did not hand over, calls it again).  It specialises by
    type.  An all-``str`` column sorts its raw set.  An all-``int`` column
    sorts ``map(str, set(values))``: ``str`` is injective on ``int``, so
    the rendered strings are already distinct and need no second set.
    Every other mix sorts :func:`render_distinct`'s set.  The result is
    ``sorted(render_distinct(values))`` on any input, errors included.
    ``kinds``, the set of ``type(value)`` over ``values``, spares the
    type pass when the caller already made it.

    This is the in-memory path; :mod:`repro.storage.external_sort` provides
    the bounded-memory path for sets that do not fit.
    """
    if kinds is None:
        kinds = set(map(type, values))
    if kinds <= {str}:
        return sorted(set(values))
    if kinds == {int}:
        return sorted(map(str, set(values)))
    return sorted(_render_distinct(values, kinds))

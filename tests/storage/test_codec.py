"""Tests for TO_CHAR-style rendering and the escaped line format."""

import pytest

from repro.errors import SpoolError
from repro.storage.codec import (
    decode_block,
    encode_block,
    escape_line,
    render_distinct_sorted,
    render_value,
    unescape_line,
)


class TestRenderValue:
    def test_strings_pass_through(self):
        assert render_value("abc") == "abc"

    def test_ints(self):
        assert render_value(144) == "144"
        assert render_value(-7) == "-7"

    def test_integral_float_drops_fraction(self):
        assert render_value(1.0) == "1"
        assert render_value(-3.0) == "-3"

    def test_fractional_float(self):
        assert render_value(1.5) == "1.5"

    def test_float_round_trip_shortest(self):
        assert render_value(0.1) == "0.1"

    def test_nan_and_inf(self):
        assert render_value(float("nan")) == "nan"
        assert render_value(float("inf")) == "inf"

    def test_to_char_cross_type_equality(self):
        # The heart of the paper's value semantics: 144 == "144".
        assert render_value(144) == render_value("144")

    def test_bytes_as_hex(self):
        assert render_value(b"\x01\xff") == "01ff"

    def test_none_rejected(self):
        with pytest.raises(SpoolError):
            render_value(None)

    def test_bool_rejected(self):
        with pytest.raises(SpoolError):
            render_value(True)

    def test_unknown_type_rejected(self):
        with pytest.raises(SpoolError):
            render_value(object())


class TestEscaping:
    @pytest.mark.parametrize(
        "text",
        ["plain", "", "tab\tok", "new\nline", "carriage\rreturn",
         "back\\slash", "\\n literal", "mix\\\n\r\\r"],
    )
    def test_roundtrip(self, text):
        assert unescape_line(escape_line(text)) == text

    def test_escaped_has_no_newlines(self):
        assert "\n" not in escape_line("a\nb")
        assert "\r" not in escape_line("a\rb")

    def test_unescape_rejects_dangling(self):
        with pytest.raises(SpoolError):
            unescape_line("abc\\")

    def test_unescape_rejects_unknown_escape(self):
        with pytest.raises(SpoolError):
            unescape_line("ab\\x")


class TestBlockCodec:
    @pytest.mark.parametrize(
        "values",
        [
            [],
            [""],
            ["plain"],
            ["a", "b", "c"],
            ["new\nline", "back\\slash", "carriage\rreturn"],
            ["nul\x00byte", "tab\tok", "ünïcode", "0"],
            ["", "", ""],  # repeated empties survive the count framing
        ],
    )
    def test_roundtrip(self, values):
        assert decode_block(encode_block(values), len(values)) == values

    def test_payload_of_plain_values_is_join(self):
        # The fast path: no escapes, decode is one split, byte-transparent.
        assert encode_block(["a", "b"]) == b"a\nb"

    def test_escaped_values_have_no_raw_separators(self):
        payload = encode_block(["x\ny", "z"])
        assert payload.count(b"\n") == 1  # only the separator survives

    def test_count_mismatch_rejected(self):
        payload = encode_block(["a", "b"])
        with pytest.raises(SpoolError, match="promises 3 values"):
            decode_block(payload, 3)

    def test_count_checked_before_unescaping(self):
        # A dangling escape would fail the unescape, but the header's count
        # is checked first, so the error names the count.
        with pytest.raises(SpoolError, match="promises 3 values"):
            decode_block(b"a\nb\\", 3)

    def test_one_escaped_value_among_plain_ones(self):
        values = ["plain", "back\\slash", "new\nline", "tail"]
        assert decode_block(encode_block(values), len(values)) == values

    def test_zero_count_with_payload_rejected(self):
        with pytest.raises(SpoolError, match="zero-value block"):
            decode_block(b"junk", 0)

    def test_zero_count_empty_payload(self):
        assert decode_block(b"", 0) == []

    def test_large_block_roundtrip(self):
        values = [f"value-{i:05d}" for i in range(5000)]
        assert decode_block(encode_block(values), 5000) == values


class TestRenderDistinctSorted:
    def test_dedupes_and_sorts(self):
        out = render_distinct_sorted([3, 1, 2, 1, "1"])
        # "1" and 1 collapse; lexicographic order.
        assert out == ["1", "2", "3"]

    def test_lexicographic_not_numeric(self):
        out = render_distinct_sorted([9, 10, 100])
        assert out == ["10", "100", "9"]

    def test_empty(self):
        assert render_distinct_sorted([]) == []

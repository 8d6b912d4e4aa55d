"""Payload membership equals set membership.

A :class:`~repro.storage.codec.PayloadSet` answers ``value in s`` from a
value file's decoded block payloads, as the sampling pretest of an
incremental round does for referenced attributes it carried over.  Its
answer must be the decoded set's for every probe: values with escapes
(``\\``, ``\\n``, ``\\r``), the empty string, non-BMP and combining
characters, files of many small blocks, and zlib spools.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.candidates import Candidate
from repro.core.pruning import SamplingPretest
from repro.db.schema import AttributeRef
from repro.storage.codec import PayloadSet
from repro.storage.cursors import IOStats
from repro.storage.sorted_sets import SpoolDirectory

#: Characters that stress the encoding: escapes, separators, a combining
#: accent, a non-BMP emoji, and plain letters for ordinary values.
_ALPHABET = st.sampled_from(
    ["a", "b", "z", "\\", "\n", "\r", "n", "r", "\u0301", "\U0001F600", " "]
)
_VALUE = st.text(_ALPHABET, max_size=6)

REF = AttributeRef("t", "c")


def _payload_set(spool: SpoolDirectory, ref: AttributeRef) -> PayloadSet:
    blocks: list[tuple[str, bytes]] = []
    cursor = spool.open_cursor(ref, None, blocks)
    try:
        while cursor.read_batch(4096):
            pass
    finally:
        cursor.close()
    return PayloadSet(blocks)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    values=st.sets(_VALUE, max_size=25),
    probes=st.lists(_VALUE, max_size=25),
    block_size=st.sampled_from([1, 3, 1024]),
    compression=st.sampled_from(["none", "zlib"]),
)
def test_payload_membership_equals_set_membership(
    tmp_path_factory, values, probes, block_size, compression
):
    spool = SpoolDirectory.create(
        tmp_path_factory.mktemp("spool"),
        block_size=block_size,
        compression=compression,
    )
    spool.add_values(REF, sorted(values))
    payloads = _payload_set(spool, REF)
    for probe in [*probes, *values, ""]:
        held = payloads.holds_all(PayloadSet.probes([probe]))
        assert held is (probe in values), repr(probe)
    # Whole samples too, as the pretest asks: every value, and each value
    # set beside one probe.
    assert payloads.holds_all(PayloadSet.probes(sorted(values)))
    for probe in probes:
        sample = sorted({*list(values)[:3], probe})
        assert payloads.holds_all(PayloadSet.probes(sample)) is set(
            sample
        ).issubset(values)


def test_a_multi_block_file_keeps_one_payload_per_block(tmp_path):
    spool = SpoolDirectory.create(tmp_path / "s", block_size=3)
    values = sorted(["", "a\\n", "a\nb", "b\r", "é", "\U0001F600", "z"])
    spool.add_values(REF, values)
    blocks: list[tuple[str, bytes]] = []
    cursor = spool.open_cursor(REF, None, blocks)
    assert cursor.read_batch(100) == values
    cursor.close()
    assert [max_value for max_value, _ in blocks] == [
        block.max_value for block in spool.get(REF).blocks
    ]
    assert len(blocks) == 3


class TestCarriedPayloadsInThePretest:
    """A sampler seeded with payload sets gives a fresh sampler's verdicts
    without opening the referenced files."""

    def _spool(self, tmp_path, compression="none"):
        spool = SpoolDirectory.create(
            tmp_path / "s", block_size=3, compression=compression
        )
        refs = {
            AttributeRef("t", "all"): [f"{i:02d}" for i in range(30)],
            AttributeRef("t", "even"): [f"{i:02d}" for i in range(0, 30, 2)],
            AttributeRef("t", "odd"): [f"{i:02d}" for i in range(1, 30, 2)],
            AttributeRef("t", "lines"): [f"{i:02d}\n" for i in range(9)],
        }
        for ref, values in refs.items():
            spool.add_values(ref, sorted(values))
        return spool, sorted(refs)

    def test_seeded_verdicts_equal_fresh_ones(self, tmp_path):
        for compression in ("none", "zlib"):
            spool, refs = self._spool(tmp_path / compression, compression)
            pairs = [(d, r) for d in refs for r in refs if d != r]
            first = SamplingPretest(spool, sample_size=4, seed=3, payloads={})
            fresh = {pair: first.passes(*pair) for pair in pairs}
            assert set(first.payloads) == set(refs)
            io = IOStats()
            seeded = SamplingPretest(
                spool,
                sample_size=4,
                seed=3,
                samples=first.samples,
                payloads=first.payloads,
            )
            assert {pair: seeded.passes(*pair, io) for pair in pairs} == fresh
            assert io.files_opened == 0
            assert True in fresh.values() and False in fresh.values()

    def test_a_sampler_without_payloads_keeps_none(self, tmp_path):
        spool, refs = self._spool(tmp_path)
        sampler = SamplingPretest(spool, sample_size=4)
        assert sampler.pretest(Candidate(refs[0], refs[1])) in (True, False)
        assert sampler.payloads is None

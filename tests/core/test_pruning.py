"""Tests for transitivity pruning and the sampling pretest."""

import pytest

from repro.core.candidates import Candidate
from repro.core.pruning import SamplingPretest, TransitivityPruner
from repro.db.schema import AttributeRef
from repro.storage.cursors import IOStats
from repro.storage.sorted_sets import SpoolDirectory

A = AttributeRef("t", "a")
B = AttributeRef("t", "b")
C = AttributeRef("t", "c")
D = AttributeRef("t", "d")


class TestTransitivitySatisfied:
    def test_direct_chain(self):
        pruner = TransitivityPruner()
        pruner.record(Candidate(A, B), True)
        pruner.record(Candidate(B, C), True)
        assert pruner.infer(Candidate(A, C)) is True
        assert pruner.inferred_satisfied == 1

    def test_long_chain(self):
        pruner = TransitivityPruner()
        pruner.record(Candidate(A, B), True)
        pruner.record(Candidate(B, C), True)
        pruner.record(Candidate(C, D), True)
        assert pruner.infer(Candidate(A, D)) is True

    def test_no_inference_without_path(self):
        pruner = TransitivityPruner()
        pruner.record(Candidate(A, B), True)
        assert pruner.infer(Candidate(B, A)) is None

    def test_edges_added_out_of_order(self):
        pruner = TransitivityPruner()
        pruner.record(Candidate(B, C), True)
        pruner.record(Candidate(A, B), True)  # closes the chain afterwards
        assert pruner.infer(Candidate(A, C)) is True


class TestTransitivityRefuted:
    def test_refuted_via_satisfied_prefix(self):
        # A [= B satisfied, A [= C refuted => B [= C must be refuted.
        pruner = TransitivityPruner()
        pruner.record(Candidate(A, B), True)
        pruner.record(Candidate(A, C), False)
        assert pruner.infer(Candidate(B, C)) is False
        assert pruner.inferred_refuted == 1

    def test_refuted_via_satisfied_suffix(self):
        # B [= C satisfied, A [= C refuted => A [= B must be refuted.
        pruner = TransitivityPruner()
        pruner.record(Candidate(B, C), True)
        pruner.record(Candidate(A, C), False)
        assert pruner.infer(Candidate(A, B)) is False

    def test_refuted_via_both_sides(self):
        # X [= D sat, R [= Y sat, X [= Y refuted => D [= R refuted.
        x, y = AttributeRef("t", "x"), AttributeRef("t", "y")
        pruner = TransitivityPruner()
        pruner.record(Candidate(x, D), True)
        pruner.record(Candidate(C, y), True)
        pruner.record(Candidate(x, y), False)
        assert pruner.infer(Candidate(D, C)) is False

    def test_no_false_refutation(self):
        pruner = TransitivityPruner()
        pruner.record(Candidate(A, B), True)
        pruner.record(Candidate(C, D), False)
        assert pruner.infer(Candidate(A, D)) is None

    def test_known_decisions_replayed(self):
        pruner = TransitivityPruner()
        pruner.record(Candidate(A, B), True)
        pruner.record(Candidate(C, D), False)
        assert pruner.infer(Candidate(A, B)) is True
        assert pruner.infer(Candidate(C, D)) is False


class TestTransitivitySoundness:
    def test_against_oracle_on_random_sets(self):
        """Every inference must match ground truth on random set systems."""
        import random

        rng = random.Random(17)
        for trial in range(30):
            attrs = [AttributeRef("t", f"c{i}") for i in range(5)]
            sets = {
                ref: frozenset(rng.sample(range(8), rng.randint(1, 6)))
                for ref in attrs
            }
            pruner = TransitivityPruner()
            candidates = [
                Candidate(d, r) for d in attrs for r in attrs if d != r
            ]
            rng.shuffle(candidates)
            for candidate in candidates:
                truth = sets[candidate.dependent] <= sets[candidate.referenced]
                inferred = pruner.infer(candidate)
                if inferred is not None:
                    assert inferred == truth, (
                        f"trial {trial}: wrong inference for {candidate}"
                    )
                pruner.record(candidate, truth)


class TestSamplingPretest:
    @pytest.fixture()
    def spool(self, tmp_path) -> SpoolDirectory:
        s = SpoolDirectory.create(tmp_path / "s")
        s.add_values(A, [f"{i:03d}" for i in range(100)])
        s.add_values(B, [f"{i:03d}" for i in range(150)])  # superset of A
        s.add_values(C, [f"x{i:02d}" for i in range(50)])  # disjoint
        return s

    def test_true_ind_always_passes(self, spool):
        pretest = SamplingPretest(spool, sample_size=10)
        assert pretest.pretest(Candidate(A, B))
        assert pretest.passed == 1

    def test_disjoint_refuted(self, spool):
        pretest = SamplingPretest(spool, sample_size=5)
        assert not pretest.pretest(Candidate(A, C))
        assert pretest.refuted == 1

    def test_sample_cached_per_attribute(self, spool):
        pretest = SamplingPretest(spool, sample_size=5)
        first = pretest.sample(A)
        second = pretest.sample(A)
        assert first is second

    def test_sample_is_sorted_subset(self, spool):
        pretest = SamplingPretest(spool, sample_size=7, seed=3)
        sample = pretest.sample(A)
        assert sample == sorted(sample)
        assert len(sample) == 7
        full = set(spool.get(A).values())
        assert set(sample) <= full

    def test_sample_smaller_than_set(self, spool):
        pretest = SamplingPretest(spool, sample_size=1000)
        assert len(pretest.sample(C)) == 50

    def test_deterministic_given_seed(self, spool):
        s1 = SamplingPretest(spool, sample_size=5, seed=42).sample(A)
        s2 = SamplingPretest(spool, sample_size=5, seed=42).sample(A)
        assert s1 == s2

    def test_invalid_sample_size(self, spool):
        with pytest.raises(ValueError):
            SamplingPretest(spool, sample_size=0)

    def test_io_counted(self, spool):
        """``io`` pays for loading the referenced set, once."""
        pretest = SamplingPretest(spool, sample_size=5)
        io = IOStats()
        pretest.pretest(Candidate(A, C), io)
        assert io.files_opened == 1
        assert io.items_read == spool.get(C).count
        assert io.open_files == 0
        pretest.pretest(Candidate(B, C), io)
        assert io.files_opened == 1
        assert io.items_read == spool.get(C).count

    def test_shared_referenced_file_opened_once(self, tmp_path):
        """Many candidates, one referenced attribute: one open, one scan."""
        spool = SpoolDirectory.create(tmp_path / "wide")
        target = AttributeRef("r", "id")
        spool.add_values(target, [f"{i:04d}" for i in range(2000)])
        dependents = [AttributeRef("d", f"c{i}") for i in range(40)]
        for i, dep in enumerate(dependents):
            spool.add_values(dep, [f"{j:04d}" for j in range(i, 3000, 37)])
        pretest = SamplingPretest(spool, sample_size=4, seed=1)
        io = IOStats()
        verdicts = [pretest.pretest(Candidate(dep, target), io) for dep in dependents]
        assert io.files_opened == 1
        assert io.items_read == 2000
        assert pretest.passed + pretest.refuted == len(dependents)
        assert True in verdicts and False in verdicts

    def test_never_refutes_true_ind(self, spool):
        """Soundness: a satisfied IND can never be sample-refuted."""
        for seed in range(10):
            pretest = SamplingPretest(spool, sample_size=3, seed=seed)
            assert pretest.pretest(Candidate(A, B)), f"seed={seed}"

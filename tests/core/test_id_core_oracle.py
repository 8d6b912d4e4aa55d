"""Oracle equivalence of the attribute-id core.

Candidate generation, the metadata pretests and the delta planner run on
packed ``(dep_id, ref_id)`` pairs over a run's
:class:`~repro.core.candidates.AttributeIds`.  They replaced code that did
the same work on :class:`Candidate` objects, one attribute lookup at a
time.  That code is vendored below as the oracle, and the id core must
reproduce it exactly:

* candidate order and every :class:`PretestReport` field, over the seeded
  builders, both candidate modes and all 16 pretest combinations — through
  the id functions the runner calls and through the public
  :class:`Candidate` adapters;
* delta plans — the ``delta`` document, the affected candidates and the
  reused satisfied and refuted sets — along the mutation scripts of
  ``tests/test_incremental_stress.py``, whose add-column and drop-column
  steps change the numbering between rounds.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import asdict

import pytest

import test_incremental_stress as stress
from seeded_dbs import (
    build_component_db,
    build_db,
    build_random_db,
)

from repro.core import runner
from repro.core.candidates import (
    AttributeIds,
    Candidate,
    PretestConfig,
    PretestReport,
    all_pairs,
    apply_pretests,
    generate_all_pairs_candidates,
    generate_unique_ref_candidates,
    pretest_pairs,
    unique_ref_pairs,
)
from repro.core.runner import DiscoveryConfig, discover_inds
from repro.db import Column, Database, DataType, TableSchema
from repro.db.stats import collect_column_stats
from repro.storage.spool_cache import attribute_fingerprints

# ------------------------------------------------------------------ oracle


def oracle_dependent_attributes(stats):
    return sorted(
        ref for ref, st in stats.items() if not st.is_empty and not st.dtype.is_lob
    )


def oracle_referenced_attributes(stats):
    return sorted(
        ref for ref, st in stats.items() if st.is_unique and not st.dtype.is_lob
    )


def oracle_unique_ref(stats):
    deps = oracle_dependent_attributes(stats)
    refs = oracle_referenced_attributes(stats)
    return [Candidate(dep, ref) for dep in deps for ref in refs if dep != ref]


def oracle_all_pairs(stats):
    attrs = oracle_dependent_attributes(stats)
    out = []
    for i, a in enumerate(attrs):
        for b in attrs[i + 1 :]:
            if stats[a].distinct_count <= stats[b].distinct_count:
                out.append(Candidate(a, b))
            else:
                out.append(Candidate(b, a))
    return out


def oracle_cardinality(candidate, stats):
    return (
        stats[candidate.dependent].distinct_count
        <= stats[candidate.referenced].distinct_count
    )


def oracle_max_value(candidate, stats):
    dep_max = stats[candidate.dependent].max_value
    ref_max = stats[candidate.referenced].max_value
    if dep_max is None or ref_max is None:
        return False
    return dep_max <= ref_max


def oracle_min_value(candidate, stats):
    dep_min = stats[candidate.dependent].min_value
    ref_min = stats[candidate.referenced].min_value
    if dep_min is None or ref_min is None:
        return False
    return dep_min >= ref_min


_ORACLE_CLASSES = {
    DataType.INTEGER: "numeric",
    DataType.FLOAT: "numeric",
    DataType.VARCHAR: "string",
    DataType.DATE: "date",
    DataType.CLOB: "lob",
    DataType.BLOB: "lob",
}


def oracle_datatype(candidate, stats):
    return (
        _ORACLE_CLASSES[stats[candidate.dependent].dtype]
        == _ORACLE_CLASSES[stats[candidate.referenced].dtype]
    )


def oracle_apply_pretests(candidates, stats, cfg):
    report = PretestReport(initial=len(candidates))
    survivors = []
    for candidate in candidates:
        if cfg.cardinality and not oracle_cardinality(candidate, stats):
            report.removed_by_cardinality += 1
            continue
        if cfg.max_value and not oracle_max_value(candidate, stats):
            report.removed_by_max_value += 1
            continue
        if cfg.min_value and not oracle_min_value(candidate, stats):
            report.removed_by_min_value += 1
            continue
        if cfg.datatype and not oracle_datatype(candidate, stats):
            report.removed_by_datatype += 1
            continue
        survivors.append(candidate)
    report.remaining = len(survivors)
    return survivors, report


def oracle_plan_delta(db, cfg, prior, candidates, fingerprints, prior_refuted):
    """The delta planner over candidates; ``prior_refuted`` holds the
    prior's sampling-refuted pairs as ``(dependent, referenced)`` refs.
    Returns ``(doc, affected, reused_satisfied, reused_refuted)``."""
    reason = None
    if prior is None:
        reason = "no-prior"
    elif prior.database != db.name:
        reason = "database-mismatch"
    elif (
        prior.prior_fingerprints is None
        or prior.prior_sampling_refuted is None
        or prior.prior_config_signature is None
    ):
        reason = "prior-incomplete"
    elif prior.prior_config_signature != runner._config_signature(cfg):
        reason = "config-mismatch"
    if reason is not None:
        return {"mode": "full", "reason": reason}, list(candidates), set(), set()
    before = prior.prior_fingerprints
    changed = {
        ref for ref, digest in fingerprints.items() if before.get(ref) != digest
    }
    changed |= set(before) - set(fingerprints)
    affected, unaffected = [], []
    for candidate in candidates:
        if candidate.dependent in changed or candidate.referenced in changed:
            affected.append(candidate)
        else:
            unaffected.append(candidate)
    satisfied_pairs = {(ind.dependent, ind.referenced) for ind in prior.satisfied}
    reused_satisfied, kept_refuted = set(), set()
    for candidate in unaffected:
        pair = (candidate.dependent, candidate.referenced)
        if pair in satisfied_pairs:
            reused_satisfied.add(candidate.as_ind())
        elif pair in prior_refuted:
            kept_refuted.add(pair)
    doc = {
        "mode": "delta",
        "attributes_changed": len(changed),
        "candidates_revalidated": len(affected),
        "decisions_reused": len(unaffected),
    }
    return doc, affected, reused_satisfied, kept_refuted


# ------------------------------------------------------------------ inputs


def _typed_db() -> Database:
    """Every data type, LOBs, an all-NULL column and equal cardinalities."""
    db = Database("typed")
    t = db.create_table(
        TableSchema(
            "t",
            [
                Column("uniq", DataType.INTEGER),
                Column("dup", DataType.INTEGER),
                Column("text", DataType.VARCHAR),
                Column("ratio", DataType.FLOAT),
                Column("day", DataType.DATE),
                Column("big", DataType.CLOB),
                Column("raw", DataType.BLOB),
                Column("void", DataType.VARCHAR),
            ],
        )
    )
    for i in range(10):
        t.insert(
            {
                "uniq": i + 1,
                "dup": i % 3,
                "text": f"s{i}",
                "ratio": i / 4,
                "day": f"2020-01-{i + 1:02d}",
                "big": "lob-value",
                "raw": b"blob-value",
                "void": None,
            }
        )
    u = db.create_table(
        TableSchema("u", [Column("id", DataType.VARCHAR), Column("n", DataType.INTEGER)])
    )
    for i in range(4):
        u.insert({"id": str(i + 1), "n": i})
    return db


DATABASES = {
    **{f"random{seed}": (lambda seed=seed: build_random_db(seed)) for seed in range(10)},
    "components": build_component_db,
    "pipeline0": lambda: build_db(0),
    "pipeline3": lambda: build_db(3),
    "typed": _typed_db,
}

#: All 16 on/off combinations of the four pretests.
PRETEST_GRID = [
    PretestConfig(*flags) for flags in itertools.product((False, True), repeat=4)
]

MODES = {
    "unique-ref": (unique_ref_pairs, oracle_unique_ref, generate_unique_ref_candidates),
    "all-pairs": (all_pairs, oracle_all_pairs, generate_all_pairs_candidates),
}


# ------------------------------------------------ generation and pretests


class TestGenerationAndPretests:
    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("name", sorted(DATABASES))
    def test_every_pretest_combination(self, name, mode):
        stats = collect_column_stats(DATABASES[name]())
        generate, oracle_generate, adapter = MODES[mode]
        ids = AttributeIds(stats)
        raw = generate(ids)
        expected_raw = oracle_generate(stats)
        assert ids.candidates(raw) == expected_raw
        assert adapter(stats) == expected_raw
        for cfg in PRETEST_GRID:
            expected, expected_report = oracle_apply_pretests(
                expected_raw, stats, cfg
            )
            survivors, report = pretest_pairs(ids, raw, cfg)
            assert ids.candidates(survivors) == expected, cfg
            assert asdict(report) == asdict(expected_report), cfg
            kept, adapter_report = apply_pretests(expected_raw, stats, cfg)
            assert kept == expected, cfg
            assert asdict(adapter_report) == asdict(expected_report), cfg

    @pytest.mark.parametrize("name", sorted(DATABASES))
    def test_attribute_sets_and_single_candidate_pretests(self, name):
        stats = collect_column_stats(DATABASES[name]())
        ids = AttributeIds(stats)
        dependents = [ids.refs[aid] for aid in ids.dependents]
        referenced = [ids.refs[aid] for aid in ids.referenced]
        assert dependents == oracle_dependent_attributes(stats)
        assert referenced == oracle_referenced_attributes(stats)
        # Every ordered pair, the trivial ones and empty or LOB sides too.
        candidates = [
            Candidate(dep, ref) for dep, ref in itertools.product(ids.refs, ids.refs)
        ]
        for rule, oracle in (
            ("cardinality", oracle_cardinality),
            ("max_value", oracle_max_value),
            ("min_value", oracle_min_value),
            ("datatype", oracle_datatype),
        ):
            config = PretestConfig(cardinality=False)
            setattr(config, rule, True)
            survivors, _ = pretest_pairs(ids, ids.pairs_of(candidates), config)
            assert ids.candidates(survivors) == [
                c for c in candidates if oracle(c, stats)
            ], rule

    def test_duplicates_and_foreign_order_survive_the_adapter(self):
        stats = collect_column_stats(build_random_db(4))
        raw = oracle_unique_ref(stats)
        shuffled = raw + raw[::3]
        random.Random(4).shuffle(shuffled)
        cfg = PretestConfig(cardinality=True, max_value=True)
        assert apply_pretests(shuffled, stats, cfg) == oracle_apply_pretests(
            shuffled, stats, cfg
        )


# -------------------------------------------------------------- delta plans


def _decoded_refuted(prior):
    """The prior's refuted carrier as ref pairs, via its own numbering."""
    numbering = sorted(prior.prior_fingerprints)
    m = len(numbering)
    return {
        (numbering[pair // m], numbering[pair % m])
        for pair in prior.prior_sampling_refuted
    }


def _delta_chain(seed: int):
    """Run a stress mutation script; yield each round's two delta plans."""
    vector = stress.TestMutationStressSweep._config_vector(seed)
    rng = random.Random(seed * 7919 + 1)
    model = stress._initial_model(rng)
    cfg = stress._stress_config(
        incremental=True,
        sampling_size=vector["sampling"],
    )
    prior = None
    for round_index in range(6):
        label = stress._mutate(model, rng) if round_index else "initial"
        db = stress._materialise(model, f"ids{seed}")
        stats = collect_column_stats(db)
        fingerprints = attribute_fingerprints(stats)
        ids = AttributeIds(stats)
        pairs, _ = pretest_pairs(ids, unique_ref_pairs(ids), cfg.pretests)
        plan = runner._plan_delta(db, cfg, prior, ids, pairs, fingerprints)
        candidates, _ = oracle_apply_pretests(
            oracle_unique_ref(stats), stats, cfg.pretests
        )
        refuted = _decoded_refuted(prior) if prior is not None else set()
        expected = oracle_plan_delta(
            db, cfg, prior, candidates, fingerprints, refuted
        )
        renumbered = prior is not None and set(prior.prior_fingerprints) != set(
            stats
        )
        yield label, renumbered, ids, plan, expected
        prior = discover_inds(db, cfg, prior=prior)


def _assert_same_plan(ids, plan, expected, context):
    doc, affected, reused_satisfied, kept_refuted = expected
    assert plan.doc == doc, context
    assert ids.candidates(plan.affected) == affected, context
    assert set(plan.reused_satisfied) == reused_satisfied, context
    got_refuted = {
        (c.dependent, c.referenced) for c in ids.candidates(plan.reused_refuted_pairs)
    }
    assert got_refuted == kept_refuted, context


class TestDeltaPlans:
    @pytest.mark.parametrize("seed", stress.STRESS_SEEDS)
    def test_mutation_script(self, seed):
        for label, renumbered, ids, plan, expected in _delta_chain(seed):
            context = f"seed {seed}, {label}, renumbered={renumbered}"
            _assert_same_plan(ids, plan, expected, context)

    def test_scripts_change_the_numbering_under_a_delta_plan(self):
        """The sweep above covers remapped priors, refuted carriers included."""
        renumbered = refuted = 0
        for seed in stress.STRESS_SEEDS:
            for _, moved, _, plan, expected in _delta_chain(seed):
                if plan.mode == "delta" and moved:
                    renumbered += 1
                    refuted += bool(expected[3])
        assert renumbered >= 3
        assert refuted >= 1

    def test_unusable_priors_fall_back_with_the_oracles_reason(self):
        db = build_db(0)
        cfg = DiscoveryConfig(incremental=True, sampling_size=2)
        stats = collect_column_stats(db)
        ids = AttributeIds(stats)
        pairs, _ = pretest_pairs(ids, unique_ref_pairs(ids), cfg.pretests)
        candidates = ids.candidates(pairs)
        fingerprints = attribute_fingerprints(stats)
        priors = [
            None,
            discover_inds(db, DiscoveryConfig(sampling_size=2)),
            discover_inds(db, DiscoveryConfig(incremental=True)),
        ]
        other = build_db(1)
        other.name = "elsewhere"
        priors.append(discover_inds(other, cfg))
        for prior in priors:
            plan = runner._plan_delta(db, cfg, prior, ids, pairs, fingerprints)
            expected = oracle_plan_delta(
                db, cfg, prior, candidates, fingerprints, set()
            )
            _assert_same_plan(ids, plan, expected, plan.doc)
            assert plan.mode == "full"

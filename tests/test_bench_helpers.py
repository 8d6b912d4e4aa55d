"""Tests for the helpers of the paper report, ``benchmarks/report.py``.

``tests/test_paper_report.py`` checks the report's counts against the
committed ``REPORT.json``; these check the machinery that produces them:
the dataset and run cache, the paper's pretest setup, the two kinds of
claim, and what ``main`` writes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))

import report  # noqa: E402  (benchmarks/ is not a package)


def _answer(value, holds=True):
    """A section function with one asserted and one measured claim."""

    def answer(runs):
        section = report.Section("answer", "The answer", "nothing",
                                 note="A note.")
        section.count("answer", value, "42", holds)
        section.seconds("time", 0.25, "fast")
        return section

    return answer


def _written(out_dir: Path) -> tuple[dict, str]:
    return (json.loads((out_dir / "REPORT.json").read_text()),
            (out_dir / "REPORT.md").read_text())


class TestWorkloads:
    def test_caching(self):
        runs = report.Runs("tiny")
        assert runs.dataset("biosql") is runs.dataset("biosql")

    def test_all_three_names(self):
        assert {name for name, _ in report.DATASETS.values()} == {
            "UniProt(BioSQL)",
            "SCOP",
            "PDB(OpenMMS)",
        }

    def test_runs_are_made_once(self):
        runs = report.Runs("tiny")
        first = runs.run("scop", "merge-single-pass")
        assert runs.run("scop", "merge-single-pass") is first
        assert runs.run("scop", "merge-single-pass", max_value=True) is not first

    def test_described_names_the_datasets_and_scale(self):
        text = report.Runs("tiny").described("biosql", "openmms")
        assert text == "UniProt(BioSQL), PDB(OpenMMS) surrogates at scale `tiny`"


class TestRunStrategy:
    @pytest.fixture(scope="class")
    def runs(self):
        return report.Runs("tiny")

    def test_paper_default_pretests(self, runs):
        # Default = cardinality only (the Sec. 2/3 setup).
        pretests = report.paper_config("merge-single-pass").pretests
        assert (pretests.cardinality, pretests.max_value) == (True, False)
        assert not (pretests.min_value or pretests.datatype)
        plain = runs.run("scop", "merge-single-pass")
        pruned = runs.run("scop", "merge-single-pass", max_value=True)
        assert pruned.candidates_after_pretests <= plain.candidates_after_pretests
        assert report._inds(pruned) == report._inds(plain)
        assert plain.satisfied_count > 0

    def test_other_fields_pass_through(self):
        config = report.paper_config("single-pass", True, sampling_size=2)
        assert config.strategy == "single-pass"
        assert config.pretests.max_value and config.sampling_size == 2

    def test_items_vs_sql_rows_exclusive(self, runs):
        external = runs.run("scop", "brute-force").validator_stats
        sql = runs.run("scop", "sql-join").validator_stats
        assert external.items_read > 0 and external.sql_rows_scanned == 0
        assert sql.sql_rows_scanned > 0 and sql.items_read == 0


class TestSection:
    def test_kinds_land_in_separate_fields(self):
        section = _answer(42)(None)
        assert section.values(True) == {"answer": 42}
        assert section.values(False) == {"time": 0.25}

    def test_failures_name_only_asserted_claims_that_do_not_hold(self):
        section = _answer(41, holds=False)(None)
        section.measure("a slow figure", 9.0, "< 1")
        section.check("an answer that holds", True)
        assert section.failures() == ["The answer: answer = 41"]

    def test_a_failed_check_is_recorded_as_false(self):
        section = report.Section("s", "S", "nothing")
        section.check("the INDs agree", 0)
        assert section.values(True) == {"the INDs agree": False}
        assert section.failures() == ["S: the INDs agree = no"]

    def test_floats_are_rounded(self):
        section = report.Section("s", "S", "nothing")
        section.count("ratio", 2 / 3)
        assert section.values(True) == {"ratio": 0.6667}

    def test_seconds_are_measured_and_shown_as_durations(self):
        section = report.Section("s", "S", "nothing")
        section.seconds("run", 75.0)
        (claim,) = section.claims
        assert not claim.asserted and claim.shown == "1 min 15.0 s"

    @pytest.mark.parametrize(
        ("value", "shown"),
        [
            (True, "yes"),
            (False, "no"),
            (1588, "1,588"),
            (0.5, "0.5"),
            ([1588, 899], "1,588 -> 899"),
            (["a.x", "b.y"], "a.x, b.y"),
            ([], "(none)"),
            ({"join": 3, "minus": 1000}, "join 3, minus 1,000"),
            ("merge", "merge"),
        ],
    )
    def test_show(self, value, shown):
        assert report._show(value) == shown


class TestMain:
    def test_default_scale(self, tmp_path):
        assert report.main([], (), tmp_path) == 0
        doc, _ = _written(tmp_path)
        assert doc["scale"] == "small"
        assert doc["asserted"] == doc["measured"] == {}

    def test_scale_from_the_command_line(self, tmp_path):
        assert report.main(["--scale", "tiny"], (), tmp_path) == 0
        assert _written(tmp_path)[0]["scale"] == "tiny"

    def test_unknown_scale_is_refused(self, tmp_path):
        with pytest.raises(SystemExit):
            report.main(["--scale", "huge"], (), tmp_path)
        assert not (tmp_path / "REPORT.json").exists()

    def test_json_keeps_the_kinds_apart(self, tmp_path):
        assert report.main(["--scale", "tiny"], (_answer(42),), tmp_path) == 0
        doc, _ = _written(tmp_path)
        assert doc["asserted"] == {"answer": {"answer": 42}}
        assert doc["measured"] == {"answer": {"time": 0.25}}
        assert set(doc["machine"]) == {"platform", "cpu_count", "python"}

    def test_markdown_has_one_table_per_section(self, tmp_path):
        report.main(["--scale", "tiny"], (_answer(42),), tmp_path)
        markdown = _written(tmp_path)[1]
        assert "--scale tiny" in markdown
        assert "\n## The answer\n\nInput: nothing.\n\nA note.\n" in markdown
        rows = [line for line in markdown.splitlines() if line.startswith("|")]
        assert rows[2:] == ["| answer | [asserted] | 42 | 42 |",
                            "| time | [measured] | fast | 250.0 ms |"]
        assert {row.count("|") for row in rows} == {5}

    def test_moved_counts_are_printed(self, tmp_path, capsys):
        report.main(["--scale", "tiny"], (_answer(42),), tmp_path)
        capsys.readouterr()
        assert report.main(["--scale", "tiny"], (_answer(42),), tmp_path) == 0
        assert "differ" not in capsys.readouterr().err
        # A count that moves is written, and the move is printed.
        assert report.main(["--scale", "tiny"], (_answer(43),), tmp_path) == 0
        assert "answer / answer: 42 -> 43" in capsys.readouterr().err
        assert _written(tmp_path)[0]["asserted"] == {"answer": {"answer": 43}}


class TestCommittedReport:
    def test_fast_sections_are_report_sections(self):
        assert set(report.FAST) <= set(report.SECTIONS)
        assert len(set(report.SECTIONS)) == len(report.SECTIONS)

    def test_markdown_and_json_come_from_one_run(self):
        doc, markdown = _written(BENCHMARKS)
        assert doc["asserted"].keys() == doc["measured"].keys()
        assert len(doc["asserted"]) == len(report.SECTIONS)
        assert markdown.count("\n## ") == len(report.SECTIONS)
        for kind in ("asserted", "measured"):
            for claims in doc[kind].values():
                for name in claims:
                    assert f"| {name} | [{kind}] |" in markdown, name

"""Intra-repo link integrity of the markdown documentation.

Every relative link in ``docs/*.md`` and the repo-level markdown files must
resolve to a file that exists — a broken link in the architecture map is a
documentation bug, and the test suite checks it on every run.  Likewise every
``--flag`` a ``docs/*.md`` page names must be an option of some
``repro-ind`` (sub)command, so a removed flag cannot linger in a recipe
(the repo-level logs, ``CHANGES.md`` and ``ROADMAP.md``, name removed flags
on purpose and are not checked).  External links
(http/https/mailto) and pure in-page anchors are out of scope: checking them
needs the network or a markdown-to-anchor renderer, neither of which belongs
in a hermetic test.  Finally, no ``docs/`` page, ``src/`` module or
``benchmarks/`` script may cite a ROADMAP item by its number, which
changes whenever the roadmap is rewritten.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

#: ``[text](target)`` — good enough for the plain links these docs use
#: (no reference-style links, no angle-bracket autolinks in scope).
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

_EXTERNAL = ("http://", "https://", "mailto:")


def _markdown_files() -> list[Path]:
    files = sorted(REPO_ROOT.glob("*.md")) + sorted(
        REPO_ROOT.glob("docs/**/*.md")
    )
    assert files, "no markdown files found — wrong repo root?"
    return files


def _links(path: Path) -> list[str]:
    return _LINK.findall(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "md_file", _markdown_files(), ids=lambda p: str(p.relative_to(REPO_ROOT))
)
def test_relative_links_resolve(md_file: Path):
    broken = []
    for target in _links(md_file):
        if target.startswith(_EXTERNAL) or target.startswith("#"):
            continue
        relative = target.split("#", 1)[0]  # drop any anchor suffix
        if not relative:
            continue
        resolved = (md_file.parent / relative).resolve()
        if not resolved.exists():
            broken.append(target)
    assert not broken, (
        f"{md_file.relative_to(REPO_ROOT)} has broken intra-repo links: "
        f"{broken}"
    )


def test_docs_index_mentions_every_docs_file():
    """docs/README.md is the index; a doc it does not link is undiscoverable."""
    index = REPO_ROOT / "docs" / "README.md"
    assert index.exists(), "docs/README.md index is missing"
    text = index.read_text(encoding="utf-8")
    for doc in sorted((REPO_ROOT / "docs").glob("*.md")):
        if doc.name == "README.md":
            continue
        assert doc.name in text, f"docs/README.md does not link {doc.name}"


#: A ``--flag`` token: not preceded by a word character or dash, so an
#: em-dash spelled ``--`` in prose or a ``---`` rule never matches.
_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


@pytest.mark.parametrize(
    "md_file",
    sorted((REPO_ROOT / "docs").glob("*.md")),
    ids=lambda p: str(p.relative_to(REPO_ROOT)),
)
def test_named_cli_flags_exist(md_file: Path, cli_parsers):
    options = {
        option
        for parser in cli_parsers
        for action in parser._actions
        for option in action.option_strings
    }
    named = set(_FLAG.findall(md_file.read_text(encoding="utf-8")))
    unknown = named - options
    assert not unknown, (
        f"{md_file.relative_to(REPO_ROOT)} names flags no repro-ind command "
        f"takes: {sorted(unknown)}"
    )


#: A citation of a numbered ROADMAP item ("ROADMAP item 2", "item 9 of
#: [ROADMAP.md](...)").  Items are renumbered whenever the roadmap is
#: rewritten, so docs and code describe the work instead.  Whitespace and
#: comment markers are collapsed first, so a citation wrapped across lines
#: still matches.
_ROADMAP_ITEM = re.compile(
    r"ROADMAP(?:\.md)?(?:\]\([^)]*\))?(?:'s)?\s+items?\s+#?\d"
    r"|\bitems?\s+#?\d+\s+(?:of|in)\s+(?:the\s+)?\[?ROADMAP"
)


def _collapse(text: str) -> str:
    """``text`` with each run of whitespace and comment markers as one space."""
    return re.sub(r"(?:\s|#:?)+", " ", text)


def test_roadmap_item_pattern_catches_the_usual_spellings():
    for raw in (
        "the HTTP service (ROADMAP item 1)",
        "ROADMAP.md item 3",
        "ROADMAP's item 2",
        "holds are per process (item 9 of [ROADMAP.md](../ROADMAP.md))",
        "items 4 in the ROADMAP",
        "ROADMAP\n    #: item 2",
    ):
        assert _ROADMAP_ITEM.search(_collapse(raw)), raw
    assert not _ROADMAP_ITEM.search("open work in [ROADMAP.md](../ROADMAP.md)")


@pytest.mark.parametrize(
    "path",
    sorted(REPO_ROOT.glob("docs/**/*.md"))
    + sorted(REPO_ROOT.glob("src/**/*.py"))
    + sorted(REPO_ROOT.glob("benchmarks/*.py")),
    ids=lambda p: str(p.relative_to(REPO_ROOT)),
)
def test_no_numbered_roadmap_item_is_cited(path: Path):
    """CHANGES.md, ROADMAP.md and indbench/ may cite items; these may not."""
    text = _collapse(path.read_text(encoding="utf-8"))
    cited = [match.group(0) for match in _ROADMAP_ITEM.finditer(text)]
    assert not cited, (
        f"{path.relative_to(REPO_ROOT)} cites numbered ROADMAP items, which "
        f"go stale when the roadmap is renumbered: {cited}"
    )

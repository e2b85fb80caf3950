"""Every Markdown file the code cites exists.

A citation is resolved against the citing file's directory first, then the
repository root (``README.md`` next to a benchmark means that directory's
README; from ``src/`` it means the top-level one).
"""

import re
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CITING_DIRS = ("src", "tests", "benchmarks", "examples")
CITATION = re.compile(r"[\w./-]*\w\.md\b")


@lru_cache(maxsize=None)
def citations():
    found = []
    for top in CITING_DIRS:
        for path in sorted((ROOT / top).rglob("*")):
            if path.suffix not in {".py", ".md", ".json", ".yml"} or "__pycache__" in path.parts:
                continue
            for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
                found.extend((path, lineno, name) for name in CITATION.findall(line))
    return tuple(found)


def cited_file_exists(path, name):
    return (path.parent / name).exists() or (ROOT / name).exists()


def test_the_code_cites_some_documents():
    assert any(name.endswith("README.md") for _, _, name in citations())


@pytest.mark.parametrize("top", CITING_DIRS)
def test_every_cited_document_exists(top):
    dangling = [
        f"{path.relative_to(ROOT)}:{lineno}: {name}"
        for path, lineno, name in citations()
        if path.relative_to(ROOT).parts[0] == top and not cited_file_exists(path, name)
    ]
    assert dangling == []

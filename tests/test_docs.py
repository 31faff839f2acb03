"""Documentation integrity: links resolve and anchors exist.

Runs the same checker CI's docs job uses (`scripts/check_doc_links.py`)
so a broken cross-reference fails locally, not just on GitHub.
"""

import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
CHECKER = REPO_ROOT / "scripts" / "check_doc_links.py"


def test_markdown_links_resolve():
    proc = subprocess.run(
        [sys.executable, str(CHECKER)],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_brackets_in_code_spans_are_not_links(tmp_path):
    page = tmp_path / "page.md"
    page.write_text(
        'Read `expected["2019"]["sha256"]` and `[x](missing.md)`.\n'
        "But [this][nowhere] is a link.\n",
        encoding="utf-8",
    )
    proc = subprocess.run(
        [sys.executable, str(CHECKER), str(page)],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "page.md:2: undefined link reference [nowhere]" in proc.stdout


def test_required_docs_exist():
    for name in ("index.md", "observability.md", "artifacts.md",
                 "architecture.md", "calibration.md", "faults.md"):
        assert (REPO_ROOT / "docs" / name).is_file(), name

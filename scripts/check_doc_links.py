"""Markdown link checker for README.md and docs/ (stdlib only).

Validates every markdown link and image in the repo's top-level
``*.md`` files, ``docs/**/*.md`` (recursive), and ``examples/**/*.md``:

* **inline links** (``[text](target)``) and **reference-style links**
  (``[text][ref]`` resolved through ``[ref]: target`` definitions;
  an undefined reference is itself a broken link);
* **relative links** must point at an existing file or directory
  (resolved against the linking file's directory);
* **fragment links** (``file.md#anchor`` or ``#anchor``) must match a
  heading in the target file, using GitHub's anchor rules (lowercase,
  punctuation stripped, spaces to hyphens, duplicate anchors suffixed
  ``-1``, ``-2``, …);
* **external links** (http/https/mailto) are syntax-checked only — CI
  must not depend on the network.

Exit status is the number of broken links (0 = clean).

Usage::

    python scripts/check_doc_links.py [files...]
"""

from __future__ import annotations

import pathlib
import re
import sys
from typing import Dict, List, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# Inline links/images: [text](target) — target may carry a "title".
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
# Reference-style: [text][ref] uses, [ref]: target definitions.
REF_USE_RE = re.compile(r"!?\[[^\]]+\]\[([^\]]+)\]")
REF_DEF_RE = re.compile(r"^\s*\[([^\]]+)\]:\s+(\S+)")
HEADING_RE = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
CODE_FENCE_RE = re.compile(r"^(```|~~~)")
# Inline code spans: markdown renders their brackets literally.
CODE_SPAN_RE = re.compile(r"`[^`]*`")


def github_anchor(heading: str, seen: Dict[str, int]) -> str:
    """The GitHub anchor id for a heading text (with dedup suffixes)."""
    text = re.sub(r"`([^`]*)`", r"\1", heading)  # strip code spans
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # links -> text
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text, flags=re.UNICODE)
    anchor = text.replace(" ", "-")
    count = seen.get(anchor, 0)
    seen[anchor] = count + 1
    return anchor if count == 0 else f"{anchor}-{count}"


def collect_anchors(path: pathlib.Path) -> List[str]:
    """All heading anchors of one markdown file, GitHub-style."""
    anchors: List[str] = []
    seen: Dict[str, int] = {}
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if CODE_FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = HEADING_RE.match(line)
        if match:
            anchors.append(github_anchor(match.group(2), seen))
    return anchors


def collect_links(path: pathlib.Path) -> List[Tuple[int, str]]:
    """(line number, target) for every link outside code fences and
    inline code spans.

    Inline links contribute their targets directly; reference-style
    uses resolve through the file's ``[ref]: target`` definitions, and
    an undefined reference is reported as ``undefined-ref:NAME``.
    """
    lines = path.read_text(encoding="utf-8").splitlines()
    definitions: Dict[str, str] = {}
    in_fence = False
    for line in lines:
        if CODE_FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        definition = REF_DEF_RE.match(line)
        if definition:
            definitions[definition.group(1).lower()] = definition.group(2)
    links: List[Tuple[int, str]] = []
    in_fence = False
    for number, line in enumerate(lines, start=1):
        if CODE_FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence or REF_DEF_RE.match(line):
            continue
        line = CODE_SPAN_RE.sub("", line)
        for match in LINK_RE.finditer(line):
            links.append((number, match.group(1)))
        stripped = LINK_RE.sub("", line)  # don't re-match [text](url) tails
        for match in REF_USE_RE.finditer(stripped):
            reference = match.group(1).lower()
            target = definitions.get(reference)
            links.append(
                (number, target if target else f"undefined-ref:{reference}")
            )
    return links


def check_file(path: pathlib.Path, anchor_cache: Dict[pathlib.Path, List[str]]) -> List[str]:
    problems: List[str] = []
    try:
        shown = path.relative_to(REPO_ROOT)
    except ValueError:
        shown = path
    for number, target in collect_links(path):
        where = f"{shown}:{number}"
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        if target.startswith("undefined-ref:"):
            problems.append(
                f"{where}: undefined link reference "
                f"[{target.partition(':')[2]}]"
            )
            continue
        if target.startswith("#"):
            base, fragment = path, target[1:]
        else:
            rel, _, fragment = target.partition("#")
            base = (path.parent / rel).resolve()
            if not base.exists():
                problems.append(f"{where}: broken link -> {target}")
                continue
        if fragment:
            if base.suffix != ".md" or not base.is_file():
                problems.append(f"{where}: fragment on non-markdown -> {target}")
                continue
            if base not in anchor_cache:
                anchor_cache[base] = collect_anchors(base)
            if fragment not in anchor_cache[base]:
                problems.append(f"{where}: missing anchor -> {target}")
    return problems


def main(argv: List[str]) -> int:
    if argv:
        files = [pathlib.Path(arg).resolve() for arg in argv]
    else:
        files = (
            sorted(REPO_ROOT.glob("*.md"))
            + sorted((REPO_ROOT / "docs").glob("**/*.md"))
            + sorted((REPO_ROOT / "examples").glob("**/*.md"))
        )
    anchor_cache: Dict[pathlib.Path, List[str]] = {}
    problems: List[str] = []
    for path in files:
        problems.extend(check_file(path, anchor_cache))
    for problem in problems:
        print(problem)
    checked = len(files)
    print(f"checked {checked} markdown files: {len(problems)} broken links")
    return min(len(problems), 125)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Check relative links and file references in the repo's Markdown.

Scans the top-level *.md files and docs/*.md for Markdown links
(``[text](target)``) and fails if a relative target does not exist on
disk. External links (http/https/mailto) are not fetched. Exit status
is the number of broken links, so CI fails on any.

Usage: python3 tools/check_links.py [repo_root]
"""

import re
import sys
from pathlib import Path

LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
SKIP_SCHEMES = ("http://", "https://", "mailto:", "#")


def check_file(md: Path, root: Path) -> list[str]:
    errors = []
    text = md.read_text(encoding="utf-8")
    # Strip fenced code blocks: command examples often contain
    # bracketed text that is not a link.
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    # Likewise inline code spans: `[](Tick) {}` is C++, not a link.
    # A link whose text is code keeps its target: [`x`](y) -> [](y).
    text = re.sub(r"`[^`\n]*`", "", text)
    for match in LINK.finditer(text):
        target = match.group(1)
        if target.startswith(SKIP_SCHEMES):
            continue
        path = target.split("#", 1)[0]
        if not path:
            continue
        resolved = (md.parent / path).resolve()
        if not resolved.exists():
            errors.append(f"{md.relative_to(root)}: broken link -> {target}")
    return errors


def main() -> int:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent
    files = sorted(root.glob("*.md")) + sorted((root / "docs").glob("*.md"))
    errors = []
    for md in files:
        errors.extend(check_file(md, root))
    for error in errors:
        print(error, file=sys.stderr)
    print(f"check_links: {len(files)} files, {len(errors)} broken links")
    return min(len(errors), 125)


if __name__ == "__main__":
    sys.exit(main())

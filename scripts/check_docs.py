#!/usr/bin/env python3
"""Docs drift gate (the CI `docs` job).

Checks, over the markdown files passed on the command line:

1. Links: every relative markdown link resolves to an existing file, and
   every `#anchor` (same-file or cross-file) resolves to a real heading.
   External (http/https/mailto) targets are skipped — no network here.
2. CLI flag tables vs --help: every `--flag` documented in a table row
   (a line whose first cell is a backticked flag) must appear in the
   help text of `wdag solve|batch|sweep|shard|drive|worker|serve|request`,
   and
   every flag the help
   mentions must be documented in some table — drift in either
   direction fails.
3. Required links (--require-link PATH, repeatable): at least one of the
   given files must link to PATH — how CI pins "ARCHITECTURE.md and
   WORKLOADS.md exist and are linked from the README".
4. Citations from code (always run): every markdown file name cited in a
   git-tracked file under CITING_DIRS must name a tracked markdown file,
   either by its repo-relative path or by a bare name found at the repo
   root or under docs/. Run from the repo root.

Exit status 0 = docs in sync, 1 = drift (every finding is printed).

Usage:
  python3 scripts/check_docs.py --binary ./build/wdag \
      --require-link docs/ARCHITECTURE.md --require-link docs/WORKLOADS.md \
      README.md CONTRIBUTING.md docs/*.md
"""

import argparse
import os
import re
import subprocess
import sys

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
DOC_FLAG_ROW_RE = re.compile(r"^\|\s*`(--[a-z][a-z0-9-]*)`")
HELP_FLAG_RE = re.compile(r"--[a-z][a-z0-9-]*")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$")
# A markdown file name cited in code; the look-behind keeps URL tails out.
CITATION_RE = re.compile(r"(?<![\w./:-])([\w./-]+\.md)\b")
# Directories whose tracked files are checked for markdown citations.
CITING_DIRS = ["src", "bench", "tests", "scripts", "examples"]
CLI_COMMANDS = ["solve", "batch", "sweep", "shard", "drive", "worker",
                "serve", "request"]


def slugify(heading):
    """GitHub-style anchor slug of a markdown heading."""
    text = re.sub(r"`([^`]*)`", r"\1", heading.strip().lower())
    text = re.sub(r"[^\w\s-]", "", text)
    return re.sub(r"\s+", "-", text.strip())


def headings_of(path):
    slugs = set()
    with open(path, encoding="utf-8") as f:
        for line in f:
            m = HEADING_RE.match(line)
            if m:
                slugs.add(slugify(m.group(1)))
    return slugs


def check_links(files, require_links):
    problems = []
    linked_targets = set()  # normalized repo-relative targets seen
    heading_cache = {}

    for md in files:
        base = os.path.dirname(md)
        with open(md, encoding="utf-8") as f:
            text = f.read()
        for target in LINK_RE.findall(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part, _, anchor = target.partition("#")
            if path_part:
                resolved = os.path.normpath(os.path.join(base, path_part))
                linked_targets.add(resolved)
                if not os.path.exists(resolved):
                    problems.append(
                        f"{md}: broken link '{target}' "
                        f"({resolved} does not exist)")
                    continue
                anchor_file = resolved
            else:
                anchor_file = md  # same-file anchor
            if anchor and anchor_file.endswith(".md"):
                if anchor_file not in heading_cache:
                    heading_cache[anchor_file] = headings_of(anchor_file)
                if anchor not in heading_cache[anchor_file]:
                    problems.append(
                        f"{md}: link '{target}' names anchor '#{anchor}' "
                        f"not found in {anchor_file}")

    for required in require_links:
        if os.path.normpath(required) not in linked_targets:
            problems.append(
                f"required link missing: no given file links to {required}")
    return problems


def documented_flags(files):
    flags = {}
    for md in files:
        with open(md, encoding="utf-8") as f:
            for line in f:
                m = DOC_FLAG_ROW_RE.match(line)
                if m:
                    flags.setdefault(m.group(1), md)
    return flags


def help_flags(binary):
    flags = set()
    for command in CLI_COMMANDS:
        out = subprocess.run(
            [binary, command, "--help"],
            capture_output=True, text=True, check=False)
        if out.returncode != 0:
            raise RuntimeError(
                f"'{binary} {command} --help' exited {out.returncode}")
        flags.update(HELP_FLAG_RE.findall(out.stdout + out.stderr))
    flags.discard("--help")
    return flags


def check_flags(binary, files):
    problems = []
    documented = documented_flags(files)
    in_help = help_flags(binary)
    for flag, where in sorted(documented.items()):
        if flag not in in_help:
            problems.append(
                f"{where}: documents '{flag}' which --help does not "
                f"mention (stale table row?)")
    for flag in sorted(in_help - set(documented)):
        problems.append(
            f"--help mentions '{flag}' but no flag table documents it "
            f"(add it to the README CLI reference)")
    return problems


def git_files(pathspecs):
    out = subprocess.run(["git", "ls-files", "-z", "--", *pathspecs],
                         capture_output=True, text=True, check=True)
    return [p for p in out.stdout.split("\0") if p]


def check_citations():
    problems = []
    markdown = set(git_files(["*.md"]))
    for path in git_files(CITING_DIRS):
        try:
            with open(path, encoding="utf-8") as f:
                lines = f.readlines()
        except (OSError, UnicodeDecodeError):
            continue  # binary or unreadable: nothing to cite
        for lineno, line in enumerate(lines, 1):
            for name in CITATION_RE.findall(line):
                if "/" in name:
                    targets = {os.path.normpath(name)}
                else:
                    targets = {name, "docs/" + name}
                if not targets & markdown:
                    problems.append(
                        f"{path}:{lineno}: cites '{name}', which is not a "
                        f"tracked markdown file")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("files", nargs="+", help="markdown files to check")
    parser.add_argument("--binary", help="wdag binary for the --help check")
    parser.add_argument("--require-link", action="append", default=[],
                        help="path some given file must link to (repeatable)")
    args = parser.parse_args()

    for md in args.files:
        if not os.path.exists(md):
            print(f"docs-check: no such file {md}", file=sys.stderr)
            return 1

    problems = check_links(args.files, args.require_link)
    problems += check_citations()
    if args.binary:
        problems += check_flags(args.binary, args.files)
    else:
        print("docs-check: no --binary given, skipping the flag-table check")

    for p in problems:
        print(f"DRIFT: {p}")
    if problems:
        print(f"docs-check: {len(problems)} problem(s)")
        return 1
    print(f"docs-check: OK ({len(args.files)} files"
          + (", links, citations + flag tables in sync)" if args.binary
             else ", links + citations in sync)"))
    return 0


if __name__ == "__main__":
    sys.exit(main())

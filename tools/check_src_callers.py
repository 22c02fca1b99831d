#!/usr/bin/env python3
"""Fail when a library header under src/ has no caller outside its own
module file and the tests.

A header counts as called when some file under src/, tools/, bench/,
examples/ or layoutbench/ other than the header itself and its own .cc
(same directory, same stem) includes it. Files under tests/ do not count:
a module that only its tests use is dead weight in the library.

Usage:
    tools/check_src_callers.py [repo_root]

Prints every header without a caller and exits 1, or exits 0 when every
header has one. Only the Python standard library is used.
"""

import os
import re
import sys

CALLER_DIRS = ("src", "tools", "bench", "examples", "layoutbench")
SOURCE_EXTS = (".h", ".hpp", ".cc", ".cpp")
INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)


def source_files(root, top):
    for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(SOURCE_EXTS):
                yield os.path.join(dirpath, name)


def included_headers(root, path):
    """The src/ headers `path` includes, as paths relative to root.
    Quoted includes resolve against src/ (the project's include root) or,
    failing that, the including file's directory."""
    with open(path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    found = set()
    for name in INCLUDE.findall(text):
        for candidate in (os.path.join(root, "src", name),
                          os.path.join(os.path.dirname(path), name)):
            if os.path.isfile(candidate):
                found.add(os.path.relpath(os.path.normpath(candidate), root))
                break
    return found


def own_files(header):
    """The header and its own .cc: includes from these do not count."""
    stem = os.path.splitext(header)[0]
    return {header, stem + ".cc"}


def main():
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else
                           os.path.join(os.path.dirname(__file__), ".."))
    headers = sorted(
        os.path.relpath(p, root) for p in source_files(root, "src")
        if p.endswith(".h"))
    callers = {h: set() for h in headers}
    for top in CALLER_DIRS:
        for path in source_files(root, top):
            rel = os.path.relpath(path, root)
            for header in included_headers(root, path):
                if header in callers and rel not in own_files(header):
                    callers[header].add(rel)
    orphans = [h for h in headers if not callers[h]]
    for h in orphans:
        print(f"{h}: no file under {', '.join(CALLER_DIRS)} includes it "
              "(its own .cc and tests/ do not count)")
    if orphans:
        return 1
    print(f"all {len(headers)} src/ headers have a caller")
    return 0


if __name__ == "__main__":
    sys.exit(main())

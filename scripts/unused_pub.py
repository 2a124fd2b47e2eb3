#!/usr/bin/env python3
"""Lists public library functions that nothing outside tests reaches.

    python3 scripts/unused_pub.py

Scans every `pub fn` declared in `crates/*/src` outside `#[cfg(test)]` code.
A function counts as reached when its name appears, as a whole word, in the
non-test code of `crates/*/src`, `crates/bench/benches`, `src/`, `examples/`
or `benchmark/src`. Comments, string literals, `pub use` re-exports and
function declarations (`fn name`) are not mentions, so an item named only by
its own definition, its docs, a doctest or a unit test is unreached.

Items listed in `scripts/unused_pub_allow.txt` (one `path::name` per line,
followed by ` # reason`) are kept on purpose. The script prints every other
unreached item and exits 1 if there is any. An allowlist entry that is
reached again, or gone, is reported as stale and also fails the run. The match is by name, so a function shares
its mentions with every other item of the same name: dead code that shares
a name with live code goes unnoticed.
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
ALLOW = ROOT / "scripts" / "unused_pub_allow.txt"
REACHED = ["crates/*/src", "crates/bench/benches", "src", "examples", "benchmark/src"]

PUB_FN = re.compile(r"\bpub\s+(?:const\s+)?fn\s+([A-Za-z_][A-Za-z0-9_]*)")
FN_DECL = re.compile(r"\bfn\s+[A-Za-z_][A-Za-z0-9_]*")
PUB_USE = re.compile(r"\bpub(?:\([^)]*\))?\s+use\b[^;]*;")
CFG_TEST = re.compile(r"#\[cfg\(test\)\]")


def blank_comments_and_literals(src):
    """Replaces comments, string and char literals by spaces, keeping newlines
    so line numbers survive."""
    out = list(src)
    i, n = 0, len(src)

    def blank(a, b):
        for k in range(a, b):
            if out[k] != "\n":
                out[k] = " "

    while i < n:
        c = src[i]
        if src.startswith("//", i):
            j = src.find("\n", i)
            j = n if j < 0 else j
            blank(i, j)
            i = j
        elif src.startswith("/*", i):
            depth, j = 1, i + 2
            while j < n and depth:
                if src.startswith("/*", j):
                    depth, j = depth + 1, j + 2
                elif src.startswith("*/", j):
                    depth, j = depth - 1, j + 2
                else:
                    j += 1
            blank(i, j)
            i = j
        elif (m := re.compile(r'b?r(#*)"').match(src, i)) and (i == 0 or not (src[i - 1].isalnum() or src[i - 1] == "_")):
            close = '"' + m.group(1)
            j = src.find(close, m.end())
            j = n if j < 0 else j + len(close)
            blank(i, j)
            i = j
        elif c == '"':
            j = i + 1
            while j < n and src[j] != '"':
                j += 2 if src[j] == "\\" else 1
            blank(i, j + 1)
            i = j + 1
        elif c == "'":
            # A char literal ('x', '\n', '\u{..}'); otherwise a lifetime.
            m = re.compile(r"'(?:\\u\{[0-9a-fA-F]+\}|\\.|[^\\'\n])'").match(src, i)
            if m:
                blank(i, m.end())
                i = m.end()
            else:
                i += 1
        else:
            i += 1
    return "".join(out)


def blank_cfg_test(code):
    """Blanks every item annotated `#[cfg(test)]` (the attribute through the
    item's closing brace or semicolon)."""
    out = list(code)
    for m in CFG_TEST.finditer(code):
        j = m.end()
        while j < len(code) and code[j] not in "{;":
            j += 1
        if j < len(code) and code[j] == "{":
            depth = 0
            while j < len(code):
                depth += {"{": 1, "}": -1}.get(code[j], 0)
                j += 1
                if depth == 0:
                    break
        else:
            j += 1
        for k in range(m.start(), min(j, len(code))):
            if out[k] != "\n":
                out[k] = " "
    return "".join(out)


def blank_pattern(code, pattern):
    return pattern.sub(lambda m: re.sub(r"[^\n]", " ", m.group(0)), code)


def main():
    lines = ALLOW.read_text().splitlines() if ALLOW.exists() else []
    allowed = {entry for entry in (line.split("#", 1)[0].strip() for line in lines) if entry}

    files = sorted({p for pat in REACHED for p in ROOT.glob(pat + "/**/*.rs")})
    declared = []  # (item, name, file:line)
    mentioned = set()
    for path in files:
        rel = path.relative_to(ROOT).as_posix()
        code = blank_cfg_test(blank_comments_and_literals(path.read_text()))
        if rel.startswith("crates/") and "/src/" in rel:
            for m in PUB_FN.finditer(code):
                line = code.count("\n", 0, m.start()) + 1
                module = rel.split("/")[1] + "::" + pathlib.Path(rel).stem
                declared.append((module + "::" + m.group(1), m.group(1), f"{rel}:{line}"))
        code = blank_pattern(blank_pattern(code, PUB_USE), FN_DECL)
        mentioned.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", code))

    unreached = [(item, where) for item, name, where in declared if name not in mentioned]
    bad = [(item, where) for item, where in unreached if item not in allowed]
    for item, where in bad:
        print(f"{where}: {item} is public but nothing outside tests calls it")
    stale = sorted(allowed - {item for item, _ in unreached})
    for item in stale:
        print(f"{ALLOW.relative_to(ROOT)}: {item} is reached or gone; drop it from the allowlist")
    if bad or stale:
        print(f"{len(bad)} unreached public function(s), {len(stale)} stale allowlist entr(y/ies)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

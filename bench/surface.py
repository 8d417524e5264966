#!/usr/bin/env python3
"""The size of the code and the library surface nothing uses.

    python3 bench/surface.py

Prints the .ml + .mli line counts of lib/, of test/ and of bin/ and
bench/ together; the knobs of lib/: the optional parameters of its vals
(`?label:` in lib/**/*.mli outside comments) and the fields of its
`config`, `policy` and `options` records; then every `val` of a lib/**/*.mli whose name, written
`.<name>`, appears in no .ml file outside test/ and outside its own
module: an export that only its own tests call, or nothing at all.

The search is textual, so it errs towards "used": a record field or
another module's value of the same name counts as a use. A value it
lists is a candidate for deletion, not a proof; one it does not list
may still be dead.
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Where a use counts: every .ml of the repo outside test/.
USE_DIRS = ["lib", "bin", "bench", "examples", "perfsuite"]

VAL = re.compile(r"^\s*val\s+([a-z_][A-Za-z0-9_']*)\s*:", re.M)
OPTIONAL = re.compile(r"\?[a-z_][A-Za-z0-9_']*\s*:")
KNOB_RECORD = re.compile(r"\btype\s+(?:config|policy|options)\s*=\s*(?:private\s*)?\{([^}]*)\}")
FIELD = re.compile(r"(?:^|;)\s*(?:mutable\s+)?[a-z_][A-Za-z0-9_']*\s*:")


def uncomment(text):
    """[text] without its (possibly nested) OCaml comments."""
    out, depth, i = [], 0, 0
    while i < len(text):
        two = text[i : i + 2]
        if two == "(*":
            depth += 1
            i += 2
        elif two == "*)" and depth > 0:
            depth -= 1
            i += 2
        else:
            if depth == 0:
                out.append(text[i])
            i += 1
    return "".join(out)


def sources(dirs, exts):
    for d in dirs:
        for base, _, files in os.walk(os.path.join(ROOT, d)):
            for f in sorted(files):
                if f.endswith(exts):
                    yield os.path.join(base, f)


def lines(dirs):
    return sum(
        sum(1 for _ in open(p, encoding="utf-8"))
        for p in sources(dirs, (".ml", ".mli"))
    )


def main():
    print("lines (.ml + .mli)")
    for label, dirs in [
        ("lib/", ["lib"]),
        ("test/", ["test"]),
        ("bin/ + bench/", ["bin", "bench"]),
    ]:
        print("  %-14s %7d" % (label, lines(dirs)))

    optional = fields = 0
    for mli in sources(["lib"], (".mli",)):
        text = uncomment(open(mli, encoding="utf-8").read())
        optional += len(OPTIONAL.findall(text))
        for body in KNOB_RECORD.findall(text):
            fields += len(FIELD.findall(body))
    print("\nlib/ knobs")
    print("  optional parameters        %4d" % optional)
    print("  config/policy/options fields %2d" % fields)

    uses = {
        p: open(p, encoding="utf-8").read()
        for p in sources(USE_DIRS, (".ml",))
    }
    unused = []
    total = 0
    for mli in sorted(sources(["lib"], (".mli",))):
        own = mli[: -len(".mli")] + ".ml"
        names = VAL.findall(open(mli, encoding="utf-8").read())
        total += len(names)
        for name in names:
            pat = re.compile(r"\." + re.escape(name) + r"\b")
            if not any(pat.search(text) for p, text in uses.items() if p != own):
                unused.append((os.path.relpath(mli, ROOT), name))
    print("\nlib/ vals: %d" % total)
    print("used only by their own module or test/: %d" % len(unused))
    for mli, name in unused:
        print("  %s  %s" % (mli, name))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        sys.exit(0)

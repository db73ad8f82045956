#!/usr/bin/env python3
"""Compare two output snapshots (``scripts/snapshot_outputs.py``) file by file,
telling changes in the last bits of numbers from changes in anything else.

    python scripts/compare_snapshots.py DIR_A DIR_B

For each file that differs it prints whether the text around the numbers is
identical, how many numeric tokens the file holds, and the largest absolute
and relative change of a number, with the line it is on. Complex tokens such
as ``-1.000e+00+5.743e-17j`` count as one number; ``nan`` and ``inf`` count
as text. Numbers are paired in order only where the text is identical.
Exit status 0 when no file is missing on either side and every differing
file changes in numbers only; 1 otherwise.
"""
import argparse
import re
import sys
from pathlib import Path

_REAL = r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
NUMBER = re.compile(rf"(?<![\w.])[+-]?(?:{_REAL}[+-]{_REAL}j|{_REAL}j?)(?![\w.])")


def split(text: str):
    """(text with every number cut out, [(line number, token)])."""
    tokens = []
    for m in NUMBER.finditer(text):
        tokens.append((text.count("\n", 0, m.start()) + 1, m.group()))
    return NUMBER.sub("#", text), tokens


def compare_file(a: Path, b: Path) -> bool:
    """Print the comparison of one differing file; True if only numbers moved."""
    text_a, tok_a = split(a.read_text(errors="replace"))
    text_b, tok_b = split(b.read_text(errors="replace"))
    if text_a != text_b:
        line = next(i for i, (x, y) in enumerate(
            zip(text_a.splitlines() + [""], text_b.splitlines() + [""]), 1) if x != y)
        print(f"  text differs (first at line {line}); "
              f"{len(tok_a)} vs {len(tok_b)} numbers")
        return False
    worst_abs = worst_rel = 0.0
    where_abs = where_rel = None
    for (line, x), (_, y) in zip(tok_a, tok_b):
        if x == y:
            continue
        u, v = complex(x), complex(y)
        d = abs(u - v)
        if d == 0.0:  # 0.0 against -0.0, 1e-05 against 1.0e-5
            continue
        rel = d / max(abs(u), abs(v))
        if d > worst_abs:
            worst_abs, where_abs = d, f"line {line}: {x} -> {y}"
        if rel > worst_rel:
            worst_rel, where_rel = rel, f"line {line}: {x} -> {y}"
    print(f"  text identical; {len(tok_a)} numbers")
    for kind, worst, where in (("absolute", worst_abs, where_abs),
                               ("relative", worst_rel, where_rel)):
        print(f"  largest {kind} change {worst:.3g}" + (f" ({where})" if where else ""))
    return True


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("dir_a", type=Path, metavar="DIR_A")
    ap.add_argument("dir_b", type=Path, metavar="DIR_B")
    args = ap.parse_args()

    files_a = {p.relative_to(args.dir_a) for p in args.dir_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(args.dir_b) for p in args.dir_b.rglob("*") if p.is_file()}
    ok = True
    for rel in sorted(files_a ^ files_b):
        print(f"{rel}: only in {args.dir_a if rel in files_a else args.dir_b}")
        ok = False
    same = differ = 0
    for rel in sorted(files_a & files_b):
        a, b = args.dir_a / rel, args.dir_b / rel
        if a.read_bytes() == b.read_bytes():
            same += 1
            continue
        differ += 1
        print(f"{rel}:")
        ok = compare_file(a, b) and ok
    print(f"{same} files identical, {differ} differ")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare two output snapshots (``scripts/snapshot_outputs.py``) file by file,
telling changes in the last bits of numbers from changes in anything else.

    python scripts/compare_snapshots.py DIR_A DIR_B

For each file that differs it prints whether the text around the numbers is
identical, how many numeric tokens the file holds, and the largest absolute
and relative change of a number, with the line it is on. Complex tokens such
as ``-1.000e+00+5.743e-17j`` count as one number; ``nan`` and ``inf`` count
as text. Numbers are paired in order only where the text is identical.

A zero table (``*.zctab``) is compared as a table: both files are read with
``load_table``, and it prints the census, accuracy and max_height on each
side, how many ordinates moved and the largest move |dgamma|, with the
line it is on. A table whose census, accuracy and max_height are equal and
whose ordinates each moved by at most its accuracy changes in numbers only.

Exit status 0 when no file is missing on either side and every differing
file changes in numbers only; 1 otherwise.
"""
import argparse
import re
import sys
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

from zetacontour.errors import ZetaContourError  # noqa: E402
from zetacontour.zero_finder import load_table  # noqa: E402

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


def compare_table(a: Path, b: Path) -> bool:
    """Print the comparison of two differing zero tables; True if only
    ordinates moved, each by at most the table's accuracy."""
    try:
        ta, tb = load_table(a), load_table(b)
    except ZetaContourError as e:
        print(f"  not a readable table: {e}")
        return False
    print(f"  census {len(ta)} vs {len(tb)}, accuracy {ta.accuracy!r} vs "
          f"{tb.accuracy!r}, max_height {ta.max_height!r} vs {tb.max_height!r}")
    if len(ta) != len(tb):
        return False
    moved = [(abs(x - y), i, x, y)
             for i, (x, y) in enumerate(zip(ta.gammas, tb.gammas)) if x != y]
    worst = max(moved, default=None)
    print(f"  {len(moved)} of {len(ta)} ordinates moved" + (
        f", largest |dgamma| {worst[0]:.3g} (line {worst[1] + 4}: "
        f"{worst[2]!r} -> {worst[3]!r})" if worst else ""))
    return (ta.accuracy == tb.accuracy and ta.max_height == tb.max_height
            and (worst is None or worst[0] <= ta.accuracy))


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
        compare = compare_table if rel.suffix == ".zctab" else compare_file
        ok = compare(a, b) and ok
    print(f"{same} files identical, {differ} differ")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

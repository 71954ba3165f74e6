"""Check or rewrite the figure golden (``tests/data/figure_golden.json``).

Runs every figure call pinned in ``tests/test_figures_coverage.py``
(its ``CALLS`` table), compares the rows with the golden by value and
prints a per-row diff. Nothing is written unless ``--write`` is given.

Usage (from the repository root)::

    PYTHONPATH=src python tests/data/regen_figure_golden.py           # check
    PYTHONPATH=src python tests/data/regen_figure_golden.py --write   # rewrite
    PYTHONPATH=src python tests/data/regen_figure_golden.py fig14     # one call

Exit status: 0 when every checked call matches (or after ``--write``),
1 when a row differs.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import pathlib
import sys

TESTS = pathlib.Path(__file__).resolve().parent.parent


def _load_calls():
    spec = importlib.util.spec_from_file_location(
        "test_figures_coverage", TESTS / "test_figures_coverage.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _blocks(rows):
    """A figure returns one row mapping or a list of them."""
    return rows if isinstance(rows, list) else [rows]


def diff_lines(name: str, old, new):
    """Human-readable per-row differences between two plain outputs."""
    if old is None:
        return [f"{name}: not in the golden yet"]
    old_blocks, new_blocks = _blocks(old), _blocks(new)
    if len(old_blocks) != len(new_blocks):
        return [f"{name}: {len(old_blocks)} row blocks -> {len(new_blocks)}"]
    lines = []
    for i, (a, b) in enumerate(zip(old_blocks, new_blocks)):
        for row in sorted(set(a) | set(b)):
            if row not in b:
                lines.append(f"{name}[{i}] {row}: row removed")
            elif row not in a:
                lines.append(f"{name}[{i}] {row}: row added {b[row]}")
            elif a[row] != b[row]:
                for col in sorted(set(a[row]) | set(b[row])):
                    before, after = a[row].get(col), b[row].get(col)
                    if before != after:
                        lines.append(f"{name}[{i}] {row}.{col}: {before!r} -> {after!r}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="calls to check (default: all)")
    parser.add_argument("--write", action="store_true", help="rewrite the golden")
    args = parser.parse_args(argv)

    module = _load_calls()
    path = module.GOLDEN_PATH
    stored = json.loads(path.read_text()) if path.exists() else {}
    names = args.names or list(module.CALLS)
    unknown = sorted(set(names) - set(module.CALLS))
    if unknown:
        parser.error(f"unknown calls {unknown}; known: {sorted(module.CALLS)}")

    fresh = dict(stored)
    changed = 0
    for name in names:
        fresh[name] = module.plain(module.compute(name))
        lines = diff_lines(name, stored.get(name), fresh[name])
        changed += bool(lines)
        print("\n".join(lines) if lines else f"{name}: ok")
    if args.write:
        fresh = {name: fresh[name] for name in module.CALLS if name in fresh}
        path.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
        return 0
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())

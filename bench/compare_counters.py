#!/usr/bin/env python3
"""Compares the counters of two table2_sweeping JSON files.

    python3 bench/compare_counters.py A.json B.json [--ignore KEY]...

Keys, key order and values must match, except every `*_seconds` key and
`runtime_ratio`; each `--ignore KEY` skips one more key everywhere.
Exits 0 on a match, 1 at the first difference (printing its JSON path),
2 on unreadable input.
"""
import argparse
import json
import sys


def compared_keys(obj, ignored):
    return [k for k in obj if k not in ignored and
            not k.endswith("_seconds") and k != "runtime_ratio"]


def first_difference(a, b, path, ignored):
    """Returns the JSON path of the first difference, or None."""
    if isinstance(a, dict) and isinstance(b, dict):
        keys_a, keys_b = compared_keys(a, ignored), compared_keys(b, ignored)
        if keys_a != keys_b:
            return f"{path} (keys {keys_a} vs {keys_b})"
        pairs = [(f"{path}.{k}", a[k], b[k]) for k in keys_a]
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{path} (length {len(a)} vs {len(b)})"
        pairs = [(f"{path}[{i}]", x, y) for i, (x, y) in enumerate(zip(a, b))]
    elif type(a) is not type(b) or a != b:
        return f"{path} ({json.dumps(a)} vs {json.dumps(b)})"
    else:
        return None
    for sub_path, x, y in pairs:
        found = first_difference(x, y, sub_path, ignored)
        if found is not None:
            return found
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--ignore", action="append", default=[],
                        metavar="KEY")
    args = parser.parse_args()
    try:
        with open(args.a) as fa, open(args.b) as fb:
            a, b = json.load(fa), json.load(fb)
    except (OSError, ValueError) as error:
        print(f"cannot read input: {error}", file=sys.stderr)
        return 2
    found = first_difference(a, b, "$", set(args.ignore))
    print(f"differ at {found}" if found else "counters match")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())

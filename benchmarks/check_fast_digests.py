"""Numerics tripwire: every experiment's ``--fast`` markdown, byte for byte.

Compares the sha256 of each ``<module>.md`` that
``python -m repro run all --fast --out DIR`` wrote against the committed
``benchmarks/results/FAST_DIGESTS.json``.  Fast mode runs one seed of the
deterministic simulator, so any change to what an experiment computes or
prints moves its digest.

Usage::

    python -m repro run all --fast --out DIR > /dev/null
    python benchmarks/check_fast_digests.py DIR           # gate: exit 1 on a mismatch
    python benchmarks/check_fast_digests.py DIR --update  # re-record after an intended change
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys

DIGESTS = pathlib.Path(__file__).parent / "results" / "FAST_DIGESTS.json"


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=pathlib.Path, help="the --out DIR of a --fast run of all experiments")
    parser.add_argument("--update", action="store_true", help="rewrite the committed digests")
    args = parser.parse_args(argv)

    committed = json.loads(DIGESTS.read_text())
    measured = {
        stem: hashlib.sha256((args.out_dir / f"{stem}.md").read_bytes()).hexdigest()
        for stem in committed["sha256"]
    }
    if args.update:
        committed["sha256"] = measured
        DIGESTS.write_text(json.dumps(committed, indent=2) + "\n")
        print(f"wrote {len(measured)} digests to {DIGESTS}")
        return 0
    moved = [stem for stem, digest in measured.items() if digest != committed["sha256"][stem]]
    for stem in moved:
        print(f"MOVED  {stem}.md")
    print(f"{len(measured) - len(moved)}/{len(measured)} --fast reports match {DIGESTS.name}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())

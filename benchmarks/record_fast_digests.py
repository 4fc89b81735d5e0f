"""Re-record the ``--fast`` numerics tripwire after an intended change.

Runs every experiment at ``--fast`` in process and writes the sha256 of its
markdown, exactly as ``python -m repro run <name> --fast --out DIR`` writes
``<module>.md`` (``markdown() + "\\n"``), into the committed
``benchmarks/results/FAST_DIGESTS.json``.  The tier-1 test
``tests/harness/test_experiments.py`` checks the same digests.

Usage::

    python benchmarks/record_fast_digests.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.__main__ import EXPERIMENTS  # noqa: E402

DIGESTS = pathlib.Path(__file__).parent / "results" / "FAST_DIGESTS.json"


def main() -> None:
    committed = json.loads(DIGESTS.read_text())
    digests = {}
    for module, _ in EXPERIMENTS.values():
        markdown = module.run(fast=True).markdown() + "\n"
        digests[module.__name__.rsplit(".", 1)[1]] = hashlib.sha256(markdown.encode()).hexdigest()
    committed["sha256"] = digests
    DIGESTS.write_text(json.dumps(committed, indent=2) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Write reference.json: the sha256 of every CSV each workload writes.

Usage, from the root of a source checkout: python3 perfbench/make_reference.py

Run it only when a change is meant to alter output bytes, and say why in the
change. Manifests are not hashed because they carry ``written_at``.
"""

from __future__ import annotations

import json
import sys

from run import BENCH, REFERENCE, output_hashes
from workloads import WORKLOADS

#: Seeds with stored hashes; runs at other seeds check exit codes and row counts only.
SEEDS = range(16)


def main() -> int:
    reference = {
        name: {str(seed): output_hashes(name, seed, BENCH / ".work" / name) for seed in SEEDS}
        for name in WORKLOADS
    }
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

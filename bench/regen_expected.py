"""Regenerate expected_n2.json, the canonical statuses no family rule gives.

The 16 two-element structures with one binary relation fall mostly
outside the four classified families, so their expected statuses come from
the program itself, at a commit whose verdicts were reviewed:

    python3 bench/regen_expected.py
"""

import json

from workloads import BENCH_DIR, polyhom
from polyhom.generate import all_n2_binary

if __name__ == "__main__":
    statuses = {A.name: polyhom.decide_ph(A).status for A in all_n2_binary()}
    path = BENCH_DIR / "expected_n2.json"
    path.write_text(json.dumps(
        {"command": "python3 bench/regen_expected.py",
         "statuses": statuses}, indent=1) + "\n")
    print(path, statuses)

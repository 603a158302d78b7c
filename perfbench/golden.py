"""Regenerate ``golden.json``: per-cell digests of each grid workload's rows.

    python3 perfbench/golden.py 1 2 3

Seeds 1 and 2 are the tuning seeds; seed 3 is held out for claims (a
change that claims a gain must also hold on it).  A digest covers a
row's simulated columns only (``SweepPoint.simulated_key()``), so the
measured overhead columns never break it.  Regenerate only when a
change is meant to alter simulated rows, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv: list[str]) -> int:
    seeds = [int(s) for s in argv] or [1, 2, 3]
    sys.path.insert(0, str(HERE.parent / "src"))
    import cases

    golden: dict[str, dict[str, list[str]]] = {}
    for name, case in cases.CASES.items():
        if not isinstance(case, cases.GridCase):
            continue
        golden[name] = {
            str(seed): case.digests(case.run(case.setup(seed))) for seed in seeds
        }
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

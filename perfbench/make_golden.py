"""Record golden outputs for the default seed: `python3 perfbench/make_golden.py`.

Run from a checkout root at the commit whose outputs are the reference.
Keeps only items that succeeded and passed every invariant, keyed by
item name; see checks.py for how the records are used.
"""

from __future__ import annotations

import json
from pathlib import Path

import checks
import corpus
from run import HERE, Runner, WORKLOADS


def main() -> None:
    root = Path.cwd()
    (HERE / "golden").mkdir(exist_ok=True)
    for workload in WORKLOADS:
        items = [] if workload == "paper_suite" else corpus.WORKLOADS[workload](0)
        runner = Runner(root, workload, items)
        runner.out_dir.mkdir(parents=True, exist_ok=True)
        result = runner.launch(workload, False)
        if workload == "paper_suite":
            golden = checks.paper_summary(result)
        else:
            errors_of, summary = checks.ITEM_CHECKS[workload]
            golden = {
                name: summary(row["out"])
                for (name, line), row in zip(items, result["items"])
                if row["error"] is None and not errors_of(line, row["out"], None)
            }
        path = HERE / "golden" / f"{workload}.json"
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print(f"{path.name}: {len(golden)} records")


if __name__ == "__main__":
    main()

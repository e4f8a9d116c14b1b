"""Record the output digest of every input a workload round can draw.

    python3 perfbench/record.py [WORKLOAD ...]

Rewrites the named workloads' entries in perfbench/expected.json (all
workloads by default) and keeps the others.
An input whose exact check fails or raises is reported and not recorded,
and the script exits nonzero.  Digests are evaluations at fixed rational
points (see digest.py), so they stay valid across changes to how qtalg
stores its values; re-record only when a workload's inputs change.
"""

from __future__ import annotations

import json
import os
import sys
import traceback

from run import EXPECTED, import_qtalg


def main(argv: list[str]) -> int:
    import_qtalg()
    from digest import POINTS, ROOT_INDEX, digest
    from workloads import WORKLOADS

    names = argv or list(WORKLOADS)
    data = {"digests": {}}
    if os.path.exists(EXPECTED):
        with open(EXPECTED) as fh:
            data = json.load(fh)
    data["points"] = [
        {k: [str(x) for x in v] if k == "x" else str(v) for k, v in pt.items()} for pt in POINTS
    ]
    data["root_index"] = ROOT_INDEX
    bad = 0
    for name in names:
        workload = WORKLOADS[name]
        ctx = workload.setup()
        recorded = data["digests"][name] = {}
        for task in workload.inputs(ctx):
            try:
                ok, output = task.fn()
                value = digest(output) if ok else None
            except Exception:
                ok, value = False, traceback.format_exc()
            if not ok:
                bad += 1
                print(f"FAIL {task.key}: {value or 'exact check failed'}", file=sys.stderr)
                continue
            recorded[task.key] = value
            print(f"{task.key} {value}", flush=True)
    with open(EXPECTED, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

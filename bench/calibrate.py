"""Host-speed probe: a fixed, steplab-free Python workload timed around each sample.

Usage: ``python3 bench/calibrate.py``. It prints nothing; the caller times
the whole process, interpreter start included, as it does the timed child.

The work resembles the pipeline's own: JSON lines written and parsed,
records grouped in dicts, sorted, and summed in float loops. It never
changes, so its duration tracks only how fast the host runs Python at that
moment. On a shared host that speed moves by up to 1.8x within seconds,
as other tenants load the cores and caches.
"""

import json

rows = [
    {"id": i, "steps": [f"step {j} of trace {i}" for j in range(6)], "p": i * 0.37 % 1}
    for i in range(30000)
]
text = "\n".join(json.dumps(row, sort_keys=True) for row in rows)
parsed = [json.loads(line) for line in text.splitlines()]
groups: dict[int, list[int]] = {}
for row in parsed:
    groups.setdefault(int(row["p"] * 50), []).append(row["id"])
total = 0.0
for row in sorted(parsed, key=lambda r: (r["p"], r["id"])):
    for step in row["steps"]:
        total += len(step) * row["p"]
if len(groups) != 50 or total <= 0:
    raise SystemExit("calibration workload computed a wrong result")

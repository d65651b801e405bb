"""Timed child: run the steplab CLI once, then report this process's peak RSS.

Usage: ``python3 bench/child.py RESULT_JSON -- <steplab CLI arguments>``
(with ``src`` on ``PYTHONPATH``). Writes ``{"exit_code", "vm_hwm_kb"}`` to
RESULT_JSON and exits with the CLI's code.

Peak memory comes from ``VmHWM`` in ``/proc/self/status``: unlike
``ru_maxrss``, it is not inherited from the parent across fork and exec.
"""

import json
import sys
from pathlib import Path

from steplab.cli import main


def vm_hwm_kb() -> int:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


if __name__ == "__main__":
    result_path, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py RESULT_JSON -- <steplab arguments>")
    code = main(cli_args)
    Path(result_path).write_text(json.dumps({"exit_code": code, "vm_hwm_kb": vm_hwm_kb()}))
    raise SystemExit(code)

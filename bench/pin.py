"""Write ``pins.json``: the ``canonical_digest`` of every item any seed can draw.

    python3 bench/pin.py

Each item runs once through the harness's forked child.  An item that does
not exit 0 is recorded as ``null`` (unpinned).  Pins are the benchmark's
behaviour gate: regenerate them only when the corpus itself changes, never
to make a changed program pass.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import BENCH_DIR, OUT_DIR, load_cmtype, run_item
from workloads import WORKLOADS, all_items


def main() -> int:
    cli = load_cmtype()
    workdir = OUT_DIR / f"pin-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    pins: dict[str, dict[str, str | None]] = {}
    try:
        for workload in WORKLOADS:
            pins[workload] = {}
            for item in all_items(workload):
                path = workdir / "input.ring"
                path.write_text(item.text, encoding="utf-8")
                result = run_item(cli, [item.subcommand, "--json", str(path)], False)
                if result["tb"]:
                    raise RuntimeError(f"{workload} {item.name}: {result['tb']}")
                ok = result["rc"] == 0
                pins[workload][item.name] = json.loads(result["out"])["canonical_digest"] if ok else None
                print(f"{workload} {item.name}: exit {result['rc']}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(BENCH_DIR / "pins.json", "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

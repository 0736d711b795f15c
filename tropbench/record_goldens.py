"""Record the report bytes and exit codes of the fixed CLI commands.

Run from the repository root at the commit the goldens should describe:

    python3 tropbench/record_goldens.py

The cli_cold workload compares every fixed command against these files.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(Path("src").resolve()))
sys.path.insert(0, str(BENCH))

from inputs import GOLDEN_DIR, fixed_commands  # noqa: E402
from workloads import child_env  # noqa: E402


def main() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    manifest = {}
    for name, argv in fixed_commands():
        proc = subprocess.run(
            [sys.executable, "-m", "tropcoh.cli", *argv], stdout=subprocess.PIPE, env=child_env()
        )
        (GOLDEN_DIR / f"{name}.out").write_bytes(proc.stdout)
        manifest[name] = {"argv": list(argv), "exit": proc.returncode}
        print(f"{name}: exit {proc.returncode}, {len(proc.stdout)} bytes")
    (GOLDEN_DIR / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

"""Record SHA-256 digests of `components --genus G --format json` output
for the genera that the default seed draws in components-large.

    python3 bench/record_digests.py

Run it on the commit whose output is the reference; the benchmark then
checks every operation on a recorded genus against these bytes.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from harness import execute  # noqa: E402
from workloads import DIGESTS_FILE, ComponentsLarge  # noqa: E402

DEFAULT_SEED = 1
BLOCKS = 8  # enough for runs of 60 s


def main() -> int:
    workload = ComponentsLarge(digests={})
    digests = {}
    for op in workload.make_ops(DEFAULT_SEED, BLOCKS):
        out = execute(op)
        err = workload.check(op, out)
        if err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        digests[str(op.expect["genus"])] = hashlib.sha256(out.encode()).hexdigest()
    DIGESTS_FILE.write_text(json.dumps(dict(sorted(digests.items(), key=lambda kv: int(kv[0]))), indent=1) + "\n")
    print(f"{len(digests)} digests in {DIGESTS_FILE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the cli_batch reference: digests of the non-'#' artifact lines
and of the deterministic stdout of every batch command, written to
reference_artifacts.json. Run once, from a checkout root, at the commit
whose outputs define correct behaviour:

    python3 benchmarks/record_reference.py
"""

import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

from workloads import OUT_SUBDIR, REFERENCE_FILE, CliBatch  # noqa: E402

work = ROOT / ".bench_out" / "work" / "record_reference"
shutil.rmtree(work, ignore_errors=True)
work.mkdir(parents=True)
os.environ["KKD_OUTPUT_DIR"] = str(work / OUT_SUBDIR)  # it overrides --output-dir
try:
    batch = CliBatch(ROOT, work, 0, False)
    results = batch.run()
    if any(code != 0 for _, code, _, _ in results):
        sys.exit("a batch command failed; no reference written")
    digests = batch.digests(results)
finally:
    shutil.rmtree(work, ignore_errors=True)
REFERENCE_FILE.write_text(json.dumps(dict(sorted(digests.items())), indent=1) + "\n")
print(f"wrote {len(digests)} digests to {REFERENCE_FILE}")

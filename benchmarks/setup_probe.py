"""Child process that times one cold set-up: import, scenario parse, phi
model and initial field, for each scenario file given.

    python benchmarks/setup_probe.py kkdamp.scenario a.cfg [b.cfg ...]

Prints {"setup_s": seconds} as JSON. PYTHONPATH must point at `src`.
"""

import time

t0 = time.perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

importlib.import_module(sys.argv[1])
from kkdamp.scenario import parse_scenario  # noqa: E402

for path in sys.argv[2:]:
    sc = parse_scenario(path)
    sc.phi_model()
    sc.initial_field(sc.grid())
print(json.dumps({"setup_s": time.perf_counter() - t0}))

"""Put the benchmark's modules and ``src/`` on the import path."""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[1]
for entry in (str(E2E.parents[1] / "src"), str(E2E)):
    if entry in sys.path:
        sys.path.remove(entry)
    sys.path.insert(0, entry)
# the benchmark's trace.py must win over the standard library's ``trace``
sys.modules.pop("trace", None)

TINY = {
    "campus_steady": dict(sensors=12, hosts=3, apps=2, queries_per_app=4,
                          per_batch=2, publishes=30, span=20.0, floors=2,
                          rooms=2),
    "lookalike_churn": dict(sensors=16, hosts=2, apps=2, floors=4, rooms=2,
                            subscriptions=40, queries_per_app=2, publishes=32,
                            rotations=8, epochs=4),
    "query_storm": dict(sensors=30, hosts=4, apps=3, floors=1, rooms=3,
                        people=2, batches=3, backups=4, publishes=20,
                        span=20.0),
    "range_federation": dict(floors=2, rooms=4, apps=2, walkers=2, batches=4,
                             batch=4, churn_steps=2, publishes=20, span=60.0),
}

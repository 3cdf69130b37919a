"""A fixed reference kernel that measures the host's current speed.

On a shared 2-core Intel Xeon VM the host's speed was seen to change by up
to 1.7x within minutes (noisy neighbours on shared cores), which no
statistic over a 30-second run can hide.  The worker therefore runs one
reference slice before every request, outside the request's timed region,
and ``run.py`` reports times in *reference seconds*: wall time ×
``NOMINAL_S`` / (median reference slice of the same worker process).  A
change to paracheck does not touch this kernel, so it moves reported times
exactly as it moves wall time; a slow spell of the host moves both the
request and the reference.

The slice mixes what paracheck spends its time on: a truncated-product
scatter of the shape of a dim-5 order-4 jet product at several batch sizes,
JSON round trips of a report-sized document, and a plain interpreter loop.
Its data are fixed; nothing here depends on the workload or its seed.
"""

from __future__ import annotations

import json
from time import perf_counter

import numpy as np

NOMINAL_S = 0.03        # one slice, in reference seconds: sets the unit's scale

_rng = np.random.default_rng(0)
_I, _J = _rng.integers(0, 126, 1001), _rng.integers(0, 126, 1001)
_T = np.sort(_rng.integers(0, 126, 1001))
_A, _B = _rng.random((750, 126)), _rng.random((750, 126))
_DOC = {"checks": [{"id": f"suite.check-{i}", "residual": i * 1e-3, "status": "pass",
                    "tolerance": 1e-8, "anchor": "§3 display " * 4} for i in range(60)]}


def reference_slice() -> float:
    """Wall time of one reference slice (20-40 ms on a 2-core Intel Xeon VM)."""
    t0 = perf_counter()
    for batch in (6, 30, 150, 750):
        out = np.zeros((batch, 126))
        np.add.at(out, (Ellipsis, _T), _A[:batch, _I] * _B[:batch, _J])
    for _ in range(20):
        json.loads(json.dumps(_DOC, sort_keys=True))
    s = 0
    for i in range(40_000):
        s += (i * 7) % 13
    return perf_counter() - t0

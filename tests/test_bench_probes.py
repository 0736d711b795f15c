"""The benchmark's in-process workloads, run once through job, probe and gate.

A library change that breaks a per-layer probe of tropbench/ fails here,
not only in a traced benchmark run.  The benchmark's own modules are imported
as they are, from tropbench/.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "tropbench"
sys.path.insert(0, str(BENCH))

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PER_LAYER = {m["name"] for m in json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]}


@pytest.mark.parametrize("name", ["curve_build", "twist_count", "smooth_check"])
def test_traced_job_and_probe_run_on_the_probe_cases(name):
    wl = WORKLOADS[name]()
    t = Tracer(True)
    for k, case in enumerate(wl.probe_cases(0)):
        t.job = k
        out = t.call("job", wl.job, t, case)
        assert wl.gate(case, out, 0) == []
        t.job = f"p{k}"
        before = len(t.spans), len(t.counts)
        wl.probe(t, case, out)
        spans, counts = t.spans[before[0] :], t.counts[before[1] :]
        assert spans and counts
        # every probe span and count is a declared per-layer metric
        assert {f"{s.name}_s" for s in spans} <= PER_LAYER
        assert {c for _, c, _ in counts} <= PER_LAYER

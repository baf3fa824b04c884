"""The benchmark harness's calls into the package.

``perfbench/`` reaches the package through module attributes, dataclass
fields and patched methods that no other test reads, so renaming or
deleting one of them would only show when the benchmark runs.  This
runs every workload's set-up and one iteration at the harness's smallest
sizes, with its span tracer installed, as a traced benchmark run does.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RUN_WORKLOADS = """
import sys
from pathlib import Path

root = Path(sys.argv[1])
sys.path[:0] = [str(root / "perfbench"), str(root / "src")]
import spans
import workloads

tracer = spans.Tracer()
spans.install(tracer)
try:
    for name, (setup, iterate) in workloads.WORKLOADS.items():
        size = workloads.SIZES["tiny"][name]
        it = iterate(setup(root, size), 0, size, 2)
        assert it.gates and it.legs, f"{name}: no gate or leg"
        failed = [f"{gate}: {detail}" for gate, ok, detail in it.gates if not ok]
        assert not failed, f"{name}: {failed}"
        print(name, len(it.gates), "gates passed")
finally:
    tracer.restore()
"""


def test_benchmark_workloads_run_traced_at_tiny_sizes():
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", RUN_WORKLOADS, str(ROOT)],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert proc.stdout.count("gates passed") == 3, proc.stdout

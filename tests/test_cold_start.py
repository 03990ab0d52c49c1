"""Cold start: the sweep, service and CLI paths never import scipy.

scipy supplies one number in the package, the t quantile of Figure 8's
confidence interval (:func:`repro.stats.ci.relative_difference_ci`), and
importing it costs more than importing the rest of the sweep path.  Every
short-lived process (a ``repro-sim`` call, a spawned sweep worker, the job
daemon) pays for what it imports, so these checks run in a fresh
interpreter in which any ``import scipy`` raises ``ImportError``.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError

import repro
import repro.api
import repro.cli
import repro.experiments.scheduler
import repro.experiments.supervisor  # a spawned worker unpickles from here
import repro.kernel.engine
import repro.service.daemon
from repro.api import SweepOptions, sweep
from repro.workloads.spec import Category
from repro.workloads.suite import make_workload

workload = make_workload("w", Category.SHORT_MOBILE, seed=1, trace_scale=0.02)
grid = sweep(
    workload, SweepOptions(policies=("lru",), cache=sys.argv[1]), engine="fast"
)
assert grid.cell("lru", "w").instructions > 0

try:
    repro.cli.main(["--help"])
except SystemExit as done:
    assert done.code in (0, None), done.code
"""

_CI = """
import json
import sys

if sys.argv[1] == "preloaded":
    import scipy.stats

from repro.stats.ci import relative_difference_ci
from repro.stats.mpki import MPKITable

assert ("scipy" in sys.modules) == (sys.argv[1] == "preloaded")

table = MPKITable()
for i, (lru, ghrp) in enumerate([(4.0, 2.9), (1.5, 1.4), (9.2, 5.1), (2.2, 2.6)]):
    table.set("lru", f"w{i}", lru)
    table.set("ghrp", f"w{i}", ghrp)
result = relative_difference_ci(table, "ghrp")
print(json.dumps({
    "mean": result.mean.hex(),
    "ci_low": result.ci_low.hex(),
    "ci_high": result.ci_high.hex(),
    "sample_count": result.sample_count,
}))
"""


def run_python(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )


def test_sweep_service_and_cli_run_without_scipy(tmp_path):
    child = run_python(_WITHOUT_SCIPY, str(tmp_path / "cache"))
    assert child.returncode == 0, child.stderr
    assert "usage: repro-sim" in child.stdout


def test_interval_is_identical_with_scipy_loaded_late_or_early():
    fresh = run_python(_CI, "fresh")
    preloaded = run_python(_CI, "preloaded")
    assert fresh.returncode == 0, fresh.stderr
    assert preloaded.returncode == 0, preloaded.stderr
    assert json.loads(fresh.stdout) == json.loads(preloaded.stdout)
    assert json.loads(fresh.stdout)["sample_count"] == 4

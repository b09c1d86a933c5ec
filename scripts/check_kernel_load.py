"""Check that a fresh interpreter quantizes through the compiled kernel, and
that loading it cost no build machinery.

    PYTHONPATH=src python scripts/check_kernel_load.py

Imports ``repro``, quantizes once with MX6 and twice each with VSQ6 and
scaled INT8 under delayed scaling (as the Figure 7 sweep runs them), prints
a JSON report and exits 1 when the compiled kernel is not active, when the
compiled FP32-scaled body did not serve every VSQ6 and INT8 call (a wrapper
around ``compiled.scaled_nearest`` counts its results; ``None`` means it
declined to the numpy body), when a build package (setuptools, distutils,
pycparser, cffi) was imported, or when a process was started.  Run it on a
warm cache: the first import after the C source changes builds the kernel,
which does all three.
"""

import json
import sys

BUILD_PACKAGES = {"setuptools", "distutils", "pycparser", "cffi"}
SPAWN_EVENTS = {"subprocess.Popen", "os.system", "os.posix_spawn", "os.spawn",
                "os.exec", "os.fork"}
spawned: list[str] = []
sys.addaudithook(lambda event, args: spawned.append(event) if event in SPAWN_EVENTS else None)

import numpy as np  # noqa: E402

from repro.core import MX6  # noqa: E402
from repro.core.quantize import bdr_quantize  # noqa: E402
from repro.formats import get_format  # noqa: E402
from repro.kernels import compiled  # noqa: E402

scaled_nearest = compiled.scaled_nearest
results: list[bool] = []


def counted_scaled_nearest(*args):
    values = scaled_nearest(*args)
    results.append(values is not None)
    return values


compiled.scaled_nearest = counted_scaled_nearest
bdr_quantize(np.linspace(-1.0, 1.0, 48).reshape(2, 24), MX6)
x = np.random.default_rng(0).normal(size=(256, 256))
served = {}
for name in ("vsq6", "int8"):
    fmt = get_format(name)  # delayed scaling: a scalar scale override per call
    results.clear()
    fmt.quantize(x)
    fmt.quantize(x)
    served[fmt.name] = len(results) >= 2 and all(results)
imported = sorted({name.split(".")[0] for name in sys.modules} & BUILD_PACKAGES)
report = {"kernel": compiled.kernel_path(), "served": served, "imported": imported,
          "spawned": spawned}
print(json.dumps(report))
ok = report["kernel"] and all(served.values()) and not imported and not spawned
sys.exit(0 if ok else 1)

"""Check that a fresh interpreter quantizes through the compiled pow2 kernel,
and that loading it cost no build machinery.

    PYTHONPATH=src python scripts/check_kernel_load.py

Imports ``repro``, quantizes once with MX6, prints a JSON report and exits
1 when the compiled kernel is not active, when a build package
(setuptools, distutils, pycparser, cffi) was imported, or when a process
was started.  Run it on a warm cache: the first import after the C source
changes builds the kernel, which does all three.
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
from repro.kernels import compiled  # noqa: E402

bdr_quantize(np.linspace(-1.0, 1.0, 48).reshape(2, 24), MX6)
imported = sorted({name.split(".")[0] for name in sys.modules} & BUILD_PACKAGES)
report = {"kernel": compiled.kernel_path(), "imported": imported, "spawned": spawned}
print(json.dumps(report))
sys.exit(0 if report["kernel"] and not imported and not spawned else 1)

"""Check that a fresh interpreter quantizes through the compiled kernel, and
that loading it cost no build machinery.

    PYTHONPATH=src python scripts/check_kernel_load.py

Imports ``repro``, quantizes a (2000, 256) ensemble once with MX6 and twice
each with VSQ6 and scaled INT8 under delayed scaling (as the Figure 7 sweep
runs them), and prints a JSON report: the kernel's file, which pow2 body
served the MX6 call (``"avx2"``, ``"scalar"``, or ``null`` for the numpy
body), whether /proc/cpuinfo lists AVX2 (``null`` where it cannot be read),
whether the FP32-scaled body served every VSQ6 and INT8 call, and what was
imported and started.  Exits 1 when the compiled kernel is not active, when
the CPU has AVX2 but the AVX2 body did not serve the MX6 call (a lost vector
path would otherwise show only as a 3x slowdown), when the compiled
FP32-scaled body did not serve every VSQ6 and INT8 call (wrappers around
``compiled.pow2_nearest`` and ``compiled.scaled_nearest`` see each result;
``None`` means it declined to the numpy body), when a build package
(setuptools, distutils, pycparser, cffi) was imported, or when a process was
started.  Run it on a warm cache: the first import after the C source
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

from repro.formats import get_format  # noqa: E402
from repro.kernels import compiled  # noqa: E402


def cpu_has_avx2():
    """Whether /proc/cpuinfo lists AVX2, read apart from the kernel's own
    check; ``None`` where there is no such file."""
    try:
        with open("/proc/cpuinfo") as info:
            return any("avx2" in line.split() for line in info if line.startswith("flags"))
    except OSError:
        return None


pow2_nearest, scaled_nearest = compiled.pow2_nearest, compiled.scaled_nearest
pow2_bodies: list[str | None] = []
results: list[bool] = []


def counted_pow2_nearest(*args):
    values = pow2_nearest(*args)
    pow2_bodies.append(None if values is None else compiled.last_pow2_body())
    return values


def counted_scaled_nearest(*args):
    values = scaled_nearest(*args)
    results.append(values is not None)
    return values


compiled.pow2_nearest = counted_pow2_nearest
compiled.scaled_nearest = counted_scaled_nearest
x = np.random.default_rng(0).normal(size=(2000, 256))  # one sweep ensemble
get_format("mx6").quantize(x)
pow2_body = pow2_bodies[-1] if len(pow2_bodies) == 1 else None
served = {}
for name in ("vsq6", "int8"):
    fmt = get_format(name)  # delayed scaling: a scalar scale override per call
    results.clear()
    fmt.quantize(x[:256])
    fmt.quantize(x[:256])
    served[fmt.name] = len(results) >= 2 and all(results)
imported = sorted({name.split(".")[0] for name in sys.modules} & BUILD_PACKAGES)
avx2_cpu = cpu_has_avx2()
report = {"kernel": compiled.kernel_path(), "pow2_body": pow2_body, "avx2_cpu": avx2_cpu,
          "served": served, "imported": imported, "spawned": spawned}
print(json.dumps(report))
ok = (report["kernel"] and pow2_body in ("scalar", "avx2")
      and (pow2_body == "avx2" or not avx2_cpu)
      and all(served.values()) and not imported and not spawned)
sys.exit(0 if ok else 1)

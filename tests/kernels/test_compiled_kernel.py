"""The compiled kernel's loader: warm loads, racing cold builds and the
fallbacks to the numpy body.  Each load runs in a fresh interpreter."""

import importlib.util
import json
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import MX6
from repro.core.bdr import BDRConfig
from repro.core.quantize import bdr_quantize, bdr_quantize_partial
from repro.kernels import compiled

ROOT = Path(repro.__file__).resolve().parents[2]
SRC = ROOT / "src"

#: prints the kernel's file (or null) and the bits of a few quantizations
PROBE = """
import json
import numpy as np
from repro.core import MX6
from repro.core.bdr import BDRConfig
from repro.core.quantize import bdr_quantize, bdr_quantize_partial
from repro.kernels import compiled
x = np.random.default_rng(0).normal(size=(4, 37))
outs = [bdr_quantize(x, MX6), bdr_quantize(x, BDRConfig.bfp(m=7), axis=0),
        bdr_quantize_partial(x[:, :9], MX6),
        bdr_quantize(x, BDRConfig.int_sw(m=7, k1=16), scale_override=0.01),
        bdr_quantize(x, BDRConfig.vsq(m=5, d2=6, k1=64, k2=16), axis=0)]
print(json.dumps({"kernel": compiled.kernel_path(),
                  "bits": [o.view(np.int64).tolist() for o in outs]}))
"""


def probe_bits():
    x = np.random.default_rng(0).normal(size=(4, 37))
    outs = [bdr_quantize(x, MX6), bdr_quantize(x, BDRConfig.bfp(m=7), axis=0),
            bdr_quantize_partial(x[:, :9], MX6),
            bdr_quantize(x, BDRConfig.int_sw(m=7, k1=16), scale_override=0.01),
            bdr_quantize(x, BDRConfig.vsq(m=5, d2=6, k1=64, k2=16), axis=0)]
    return [o.view(np.int64).tolist() for o in outs]


def interpreter_env(**overrides):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(overrides)
    return env


def source_files():
    return sorted(p for p in SRC.rglob("*") if "__pycache__" not in p.parts)


def empty_cache_env(tmp_path, **overrides):
    """An interpreter env whose every cache root is a fresh directory."""
    roots = {name: tmp_path / name for name in ("cache", "home", "tmp")}
    for root in roots.values():
        root.mkdir()
    return interpreter_env(XDG_CACHE_HOME=str(roots["cache"]), HOME=str(roots["home"]),
                           TMPDIR=str(roots["tmp"]), **overrides)


COMPILER = shlex.split(sysconfig.get_config_var("LDSHARED") or "cc")[0]

#: where the kernel can be built it must be active: a build that broke
#: silently would otherwise show only as a slowdown
requires_build = pytest.mark.skipif(
    importlib.util.find_spec("cffi") is None or shutil.which(COMPILER) is None,
    reason="no cffi or no C compiler here: the numpy body runs",
)


@requires_build
def test_warm_load_imports_no_build_tooling_and_starts_nothing():
    """The same check as stage 3 of scripts/ci.sh, on this process's cache."""
    assert compiled.kernel_path() is not None  # built by now: the check runs warm
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "check_kernel_load.py")],
        env=interpreter_env(), capture_output=True, text=True, timeout=120,
    )
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["kernel"] is not None
    assert report["pow2_body"] == "avx2" or (report["pow2_body"] == "scalar"
                                             and not report["avx2_cpu"])
    assert report["served"] == {"VSQ6": True, "scaled INT8": True}
    assert report["imported"] == [] and report["spawned"] == []
    assert done.returncode == 0


@requires_build
def test_interpreters_racing_on_an_empty_cache_both_load(tmp_path):
    before = source_files()
    env = empty_cache_env(tmp_path)
    racers = [subprocess.Popen([sys.executable, "-c", PROBE], env=env, text=True,
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE)
              for _ in range(2)]
    reports = []
    for racer in racers:
        out, err = racer.communicate(timeout=300)
        assert racer.returncode == 0, err
        reports.append(json.loads(out.strip().splitlines()[-1]))
    assert all(report["kernel"] is not None for report in reports)
    assert all(report["bits"] == probe_bits() for report in reports)
    # one published extension and no build directory left behind
    published = list((tmp_path / "cache" / "repro").iterdir())
    assert [p.suffix for p in published] == [Path(compiled.EXT_SUFFIX).suffix]
    assert source_files() == before  # nothing written inside the checkout


def test_without_a_compiler_the_numpy_body_runs_with_the_same_outputs(tmp_path):
    if os.path.isabs(COMPILER):
        pytest.skip("the compiler is named by absolute path; PATH cannot hide it")
    (tmp_path / "bin").mkdir()
    env = empty_cache_env(tmp_path, PATH=str(tmp_path / "bin"))
    done = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["kernel"] is None
    assert report["bits"] == probe_bits()


def test_no_writable_cache_root_leaves_the_kernel_unloaded(tmp_path, monkeypatch):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    monkeypatch.setattr(compiled, "_cache_roots", lambda: iter([str(blocker / "repro")]))
    assert compiled._load() is None

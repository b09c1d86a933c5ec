"""Backend registry: selection precedence, env var, context manager."""

import numpy as np
import pytest

from repro.core.bdr import BDRConfig
from repro.core.quantize import bdr_quantize
from repro.kernels import (
    ENV_VAR,
    get_backend,
    list_backends,
    set_backend,
    use_backend,
)
from repro.kernels.numpy_backend import NumpyBackend
from repro.kernels.reference import ReferenceBackend


@pytest.fixture(autouse=True)
def reset_override():
    previous = set_backend(None)
    yield
    set_backend(previous)


def test_both_backends_registered():
    assert list_backends() == ["numpy", "reference"]


def test_default_is_numpy(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    assert isinstance(get_backend(), NumpyBackend)


def test_env_var_selects_backend(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "reference")
    assert isinstance(get_backend(), ReferenceBackend)


def test_env_var_is_case_insensitive(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "Reference")
    assert isinstance(get_backend(), ReferenceBackend)


def test_programmatic_override_beats_env(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "reference")
    set_backend("numpy")
    assert isinstance(get_backend(), NumpyBackend)


def test_use_backend_restores_previous():
    set_backend("numpy")
    with use_backend("reference") as backend:
        assert isinstance(backend, ReferenceBackend)
        assert isinstance(get_backend(), ReferenceBackend)
    assert isinstance(get_backend(), NumpyBackend)


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="unknown kernel backend"):
        set_backend("cuda")
    with pytest.raises(ValueError, match="known backends"):
        get_backend("nope")


def test_dispatch_respects_selection():
    """bdr_quantize actually routes through the selected backend."""
    x = np.random.default_rng(0).normal(size=(4, 32))
    config = BDRConfig.mx(m=4)
    calls = []

    class Spy(ReferenceBackend):
        def quantize(self, *args, **kwargs):
            calls.append(1)
            return super().quantize(*args, **kwargs)

    from repro.kernels import registry

    spy = Spy()
    registry._BACKENDS["spy"] = spy
    try:
        with use_backend("spy"):
            bdr_quantize(x, config)
        assert calls
    finally:
        registry._BACKENDS.pop("spy")

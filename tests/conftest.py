import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import gipower.symplectic as symplectic
from gipower import (
    CovarianceMatrix,
    apply_local_symplectic,
    from_standard_form,
    random_local_symplectic,
    random_state,
)

sys.path.insert(0, str(Path(__file__).parent))


def random_physical_cm(rng, a_max=5.0, b_max=5.0, conjugate=False) -> CovarianceMatrix:
    """A random physical state; optionally kicked out of standard form."""
    cm = from_standard_form(random_state(rng, a_max, b_max))
    if conjugate:
        cm = apply_local_symplectic(cm, random_local_symplectic(rng), random_local_symplectic(rng))
    return cm


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)


@pytest.fixture(autouse=True)
def child_warning_policy(monkeypatch):
    """Child processes turn RuntimeWarning into an error, as pyproject's filterwarnings does here."""
    monkeypatch.setenv("PYTHONWARNINGS", "error::RuntimeWarning")


@pytest.fixture
def cholesky_calls(monkeypatch):
    """[scalar, stacked]: the Cholesky factorisations made from here on, of one state
    (float entries) and of a stack of states (array entries), counted apart."""
    calls = [0, 0]
    cholesky = symplectic._cholesky

    def counted(e, sqrt):
        calls[0 if isinstance(e[0], float) else 1] += 1
        return cholesky(e, sqrt)

    monkeypatch.setattr(symplectic, "_cholesky", counted)
    return calls


@pytest.fixture
def value_builds(monkeypatch):
    """{"T": n, "IpResult": n}: the generator maps T (fidelity._generator_map) and the
    IpResults (power.IpResult) built from here on."""
    calls = {"T": 0, "IpResult": 0}
    # gipower.fidelity and gipower.power are also names of functions in gipower
    fidelity, power = (importlib.import_module(f"gipower.{name}") for name in ("fidelity", "power"))
    generator_map, ip_result = fidelity._generator_map, power.IpResult

    def counted_map(frame):
        calls["T"] += 1
        return generator_map(frame)

    def counted_result(*args, **kwargs):
        calls["IpResult"] += 1
        return ip_result(*args, **kwargs)

    monkeypatch.setattr(fidelity, "_generator_map", counted_map)
    monkeypatch.setattr(power, "IpResult", counted_result)
    return calls


@pytest.fixture
def pcg64_constructions(monkeypatch):
    """[count]: the PCG64 bit generators built from here on, by name or by default_rng,
    and by spawn, which builds its children's type: that of a counted generator."""
    calls = [0]

    class CountedPCG64(np.random.PCG64):
        def __init__(self, *args, **kwargs):
            calls[0] += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(np.random, "PCG64", CountedPCG64)
    monkeypatch.setattr("numpy.random._generator.PCG64", CountedPCG64)  # default_rng's
    return calls

import importlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import gipower.symplectic as symplectic
from gipower import (
    CovarianceMatrix,
    StandardForm,
    apply_local_symplectic,
    from_standard_form,
    random_state,
)

sys.path.insert(0, str(Path(__file__).parent))

from oracles import random_local_symplectic


def random_physical_cm(rng, a_max=5.0, b_max=5.0, conjugate=False) -> CovarianceMatrix:
    """A random physical state; optionally kicked out of standard form."""
    cm = from_standard_form(random_state(rng, a_max, b_max))
    if conjugate:
        cm = apply_local_symplectic(cm, random_local_symplectic(rng), random_local_symplectic(rng))
    return cm


def rounded_tmsv(a: float) -> StandardForm:
    """(a, a, c, -c) with c = sqrt(a*a - 1) rounded: a near-pure input off the physical set
    by ~eps a^2 for about half of a, where tmsv steps c down until it is physical."""
    c = math.sqrt(a * a - 1)
    return StandardForm(a, a, c, -c)


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)


@pytest.fixture(autouse=True)
def child_warning_policy(monkeypatch):
    """Child processes turn RuntimeWarning into an error, as pyproject's filterwarnings does here."""
    monkeypatch.setenv("PYTHONWARNINGS", "error::RuntimeWarning")


@pytest.fixture
def factor_calls(monkeypatch):
    """[count]: the Cholesky factorisations of one state (symplectic._nu_pair) made from here on."""
    calls = [0]
    nu_pair = symplectic._nu_pair

    def counted(e):
        calls[0] += 1
        return nu_pair(e)

    monkeypatch.setattr(symplectic, "_nu_pair", counted)
    return calls


@pytest.fixture
def qfi_form_calls(monkeypatch):
    """[count]: the QFI forms (fidelity._qfi_form, also bound in power) built from here on."""
    calls = [0]
    # gipower.fidelity is also the name of a function in gipower
    fidelity, power = (importlib.import_module(f"gipower.{name}") for name in ("fidelity", "power"))
    qfi_form = fidelity._qfi_form

    def counted(standard):
        calls[0] += 1
        return qfi_form(standard)

    monkeypatch.setattr(fidelity, "_qfi_form", counted)
    monkeypatch.setattr(power, "_qfi_form", counted)
    return calls


@pytest.fixture
def standard_nu_calls(monkeypatch):
    """[scalar, stacked]: the sampler's _standard_nu calls made from here on, on one
    standard form (floats) and on a stack of them (arrays), counted apart."""
    families = importlib.import_module("gipower.families")
    calls = [0, 0]
    standard_nu = families._standard_nu

    def counted(a, b, c, d, sqrt, hypot):
        calls[0 if isinstance(a, float) else 1] += 1
        return standard_nu(a, b, c, d, sqrt, hypot)

    monkeypatch.setattr(families, "_standard_nu", counted)
    return calls


@pytest.fixture
def value_builds(monkeypatch):
    """{"T": n, "frame": n, "IpResult": n}: the generator maps T (fidelity._generator_map),
    the mode-A frames F_A (symplectic._mode_a_frame, which _generator_map alone calls) and
    the IpResults (power.IpResult) built from here on."""
    calls = {"T": 0, "frame": 0, "IpResult": 0}
    # gipower.fidelity and gipower.power are also names of functions in gipower
    fidelity, power = (importlib.import_module(f"gipower.{name}") for name in ("fidelity", "power"))
    generator_map, mode_a_frame = fidelity._generator_map, fidelity._mode_a_frame
    ip_result = power.IpResult

    def counted_map(frame):
        calls["T"] += 1
        return generator_map(frame)

    def counted_frame(*frame):
        calls["frame"] += 1
        return mode_a_frame(*frame)

    def counted_result(*args, **kwargs):
        calls["IpResult"] += 1
        return ip_result(*args, **kwargs)

    monkeypatch.setattr(fidelity, "_generator_map", counted_map)
    monkeypatch.setattr(fidelity, "_mode_a_frame", counted_frame)
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

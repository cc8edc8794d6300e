"""The input contract of every public name: a malformed array, integer or number argument raises
``ValueError``, and every other call returns a finite result.

Channel and PDM positions always get a valid object: an object of another type there is
documented (README, "Input contract") and not checked.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import causalcap
from causalcap import (
    OptimizerConfig,
    analytic_shifted_depol,
    apply,
    lemma1_check,
    named_channel,
    pdm_from_channel,
    shifted_depolarizing,
)

CHANNEL = named_channel("amplitude-damping", eta=0.3)
PDM = pdm_from_channel(CHANNEL)
STATE = np.diag([0.75, 0.25]).astype(complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
BAD_INTEGERS = [True, False, "1", None, 1.5, 2.0, -1, 0]
BAD_NUMBERS = [True, "0.1", None, 1j, -0.1, -1, 1.5, np.nan, np.inf, -np.inf, np.array([0.1])]
BAD_SHAPES = [np.array(0.5), np.full(4, 0.25), np.eye(3) / 3, np.ones((2, 3)), np.zeros((0, 0)),
              np.ones((2, 2, 2))]


def integers(lo: int, hi: int):
    return st.integers(lo, hi) | st.sampled_from(BAD_INTEGERS)


def numbers(lo: float, hi: float):
    return st.floats(lo, hi) | st.sampled_from(BAD_NUMBERS)


@st.composite
def arrays(draw, valid: np.ndarray):
    """``valid``, or it with one entry NaN or infinite, or an array of another shape."""
    kind = draw(st.sampled_from(["valid", "non-finite", "shape"]))
    if kind == "shape":
        return draw(st.sampled_from(BAD_SHAPES))
    a = np.array(valid, dtype=complex)
    if kind == "non-finite" and a.size:
        a.flat[draw(st.integers(0, a.size - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return a


def grids(hi: float):
    return st.lists(st.floats(0.0, hi), max_size=3) | st.sampled_from(
        [np.array([np.nan]), np.array([np.inf]), np.array(hi), np.full((2, 2), hi), ["x"], [None]]
    )


def call(*args, **kwargs):
    """A strategy for the arguments (args, kwargs) of one call."""
    return st.tuples(st.tuples(*args), st.fixed_dictionaries(kwargs))


def named_calls(name):
    params = {"identity": {"qubits": integers(1, 3)}, "depolarizing": {"p": numbers(0, 0.25)},
              "shifted-depolarizing": {"p": numbers(0, 0.25), "gamma": numbers(0, 1)},
              "dephasing": {"strength": numbers(0, 1)}, "amplitude-damping": {"eta": numbers(0, 1)}}
    return call(st.just(name), **params.get(name, {}))


channel, pdm, state = st.just(CHANNEL), st.just(PDM), arrays(STATE)
kraus = arrays(np.sqrt(0.5) * np.array([np.eye(2), np.diag([1.0, -1.0])]))
CALLS = {
    "OptimizerConfig": call(restarts=integers(1, 3), seed=integers(0, 3)),
    "PseudoDensityMatrix": call(arrays(np.eye(4) / 4)),
    "QuantumChannel": call(kraus),
    "analytic_shifted_depol": call(numbers(0, 0.25), numbers(0, 1)),
    "apply": call(channel, state),
    "causality_F": call(pdm),
    "causality_bound": call(channel),
    "compare_bounds": call(channel),
    "compose": call(channel, channel),
    "conjugate": call(channel),
    "entanglement_fidelity": call(state, channel),
    "f_tr": call(pdm),
    "fidelity": call(state, state),
    "from_kraus": call(kraus, integers(1, 1) | st.none(), integers(1, 1) | st.none()),
    "fvg_check": call(state, state),
    "hw_bound": call(channel, st.just(OptimizerConfig())),
    "lemma1_check": call(arrays(HADAMARD)),
    "lemma2_suite": call(seed=integers(0, 3), cases=integers(1, 1)),
    "log_negativity": call(arrays(np.eye(4) / 4),
                           st.tuples(integers(2, 2), integers(2, 2)) | integers(2, 2)),
    "maxrains_surrogate": call(channel),
    "named_channel": st.sampled_from([*causalcap.channels.CHANNEL_NAMES, "x", 3, None]).flatmap(
        named_calls),
    "pdm_from_channel": call(channel),
    "pdm_two_point": call(state, channel),
    "random_channel": call(integers(1, 2), integers(1, 2), env_qubits=integers(1, 2),
                           seed=integers(0, 2**31)),
    "shifted_depolarizing": call(numbers(0, 0.25), numbers(0, 1)),
    "sweep_shifted_depol": call(grids(0.25), grids(1.0), workers=integers(1, 2)),
    "swap_matrix": call(integers(1, 2)),
    "tensor": call(channel, channel),
}
NOT_DRAWN = {
    "BoundReport": "a record: keeps the fields it is given",
    "SweepRow": "a record: keeps the fields it is given",
    "FidelityCheckRecord": "a record: keeps the fields it is given",
    "ChannelFormatError": "the exception the file contract raises",
    "load_channel": "a path: the CLI's exit-code fuzz covers files",
    "save_channel": "a channel and a path: writes a file",
}


def finite(x) -> bool:
    """Whether every number in a result, however nested, is finite."""
    if isinstance(x, (int, float, complex, np.number, np.ndarray)):
        return bool(np.isfinite(x).all())
    if isinstance(x, (list, tuple)):
        return all(map(finite, x))
    if isinstance(x, dict):
        return all(map(finite, x.values()))
    if dataclasses.is_dataclass(x):
        return all(finite(getattr(x, f.name)) for f in dataclasses.fields(x))
    return x is None or isinstance(x, str)


def test_every_public_name_is_drawn_or_named():
    assert sorted([*CALLS, *NOT_DRAWN]) == sorted(causalcap.__all__)


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(derandomize=True, max_examples=12, deadline=None, database=None)
@given(data=st.data())
def test_malformed_input_raises_value_error_else_the_result_is_finite(name, data):
    args, kwargs = data.draw(CALLS[name])
    try:
        result = getattr(causalcap, name)(*args, **kwargs)
    except ValueError:
        return
    assert finite(result), (name, args, kwargs, result)


@pytest.mark.parametrize("call, message", [
    (lambda: lemma1_check(np.full((4, 4), np.nan)), "k_map entries must be finite"),
    (lambda: apply(CHANNEL, np.full((2, 2), np.nan)), "rho entries must be finite"),
    (lambda: analytic_shifted_depol("x", 0), "p must be one finite real number, got 'x'"),
    (lambda: analytic_shifted_depol(None, 0), "p must be one finite real number, got None"),
    (lambda: shifted_depolarizing(1j, 0), r"p must be one finite real number, got 1j"),
    (lambda: named_channel(3), "unknown channel name 3"),
], ids=["lemma1-nan", "apply-nan", "analytic-str", "analytic-none", "complex-p", "int-name"])
def test_each_earlier_miss_is_a_value_error_naming_the_argument(call, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        call()

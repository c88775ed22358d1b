"""The field rule of ``bosonsim.fields``, as every constructor and JSON reader applies it."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonsim.bounds import BoundSpec, validate_bound_monte_carlo
from bosonsim.distinguishability import ExplicitModel, GeneralizedOBBModel, HomogeneousModel, model_from_dict
from bosonsim.probability import ExperimentInstance
from bosonsim.randgen import EnsembleSpec, haar_unitary
from bosonsim.sampler import ChainConfig, output_distribution

HALF = HomogeneousModel(0.5)


# Each value has the wrong kind for its field, and the message names the field.
@pytest.mark.parametrize("build, name", [
    pytest.param(lambda: ExperimentInstance(np.eye(2), (1.9, 0), (1, 0), HALF), "input_occupation", id="instance-input"),
    pytest.param(lambda: ExperimentInstance(np.eye(2), (1, 0), np.array([True, False]), HALF), "output_occupation",
                 id="instance-output"),
    pytest.param(lambda: output_distribution(np.eye(3), np.array([1.5, 1, 0], dtype=np.float32), HALF, 1),
                 "input_occupation", id="sampler-input"),
    pytest.param(lambda: HomogeneousModel(True), "x", id="homogeneous-bool"),
    pytest.param(lambda: GeneralizedOBBModel((True, 0.5)), "x", id="obb-bool"),
    pytest.param(lambda: GeneralizedOBBModel(0.5), "x", id="obb-scalar"),
    pytest.param(lambda: BoundSpec("homogeneous_x", 0.5, 1.5), "k", id="bound-order"),
    pytest.param(lambda: BoundSpec("rms", 0.5, 1), "kind", id="bound-kind"),
    pytest.param(lambda: ChainConfig(num_samples=1.5), "num_samples", id="chain-samples"),
    pytest.param(lambda: ChainConfig(num_samples=None), "num_samples", id="chain-none"),
    pytest.param(lambda: ChainConfig(num_samples=10, proposal="gibbs"), "proposal", id="chain-proposal"),
    pytest.param(lambda: EnsembleSpec("haar_unitary", 4.7, 1), "m", id="ensemble-modes"),
    pytest.param(lambda: EnsembleSpec("bernoulli", 4, 1), "kind", id="ensemble-kind"),
    pytest.param(lambda: validate_bound_monte_carlo(3, 9, 1, HALF, trials=50, seed=1.5), "seed", id="validation-seed"),
])
def test_constructor_refuses_a_field_of_the_wrong_kind(build, name):
    with pytest.raises(ValueError, match=f"field '{name}'"):
        build()


# Each value lies outside its field's bounds, and the message names the field and the bound.
@pytest.mark.parametrize("build, name, bound", [
    pytest.param(lambda: EnsembleSpec("haar_unitary", 2, -1), "seed", "at least 0", id="ensemble-seed"),
    pytest.param(lambda: EnsembleSpec("haar_unitary", 0, 1), "m", "at least 1", id="ensemble-modes"),
    pytest.param(lambda: EnsembleSpec("gaussian_iid", 2, 1, 0), "n", "at least 1", id="ensemble-photons"),
    pytest.param(lambda: EnsembleSpec.from_dict({"kind": "haar_unitary", "m": 2, "seed": -1}), "seed", "at least 0",
                 id="ensemble-json-seed"),
    pytest.param(lambda: ChainConfig(num_samples=3, seed=-1), "seed", "at least 0", id="chain-seed"),
    pytest.param(lambda: ChainConfig(num_samples=0), "num_samples", "at least 1", id="chain-samples"),
    pytest.param(lambda: ChainConfig(num_samples=3, burn_in=-1), "burn_in", "at least 0", id="chain-burn-in"),
    pytest.param(lambda: ChainConfig(num_samples=3, thinning=0), "thinning", "at least 1", id="chain-thinning"),
    pytest.param(lambda: BoundSpec("homogeneous_x", 0.5, -1), "k", "at least 0", id="bound-order"),
    pytest.param(lambda: BoundSpec("homogeneous_x", -0.5, 1), "parameter", "at least 0.0", id="bound-parameter"),
    pytest.param(lambda: HomogeneousModel(math.nan), "x", r"in \[0.0, 1.0\]", id="homogeneous-nan"),
    pytest.param(lambda: HomogeneousModel(1.5), "x", r"in \[0.0, 1.0\]", id="homogeneous-above"),
    pytest.param(lambda: GeneralizedOBBModel((0.5, math.nan)), "x", r"in \[0.0, 1.0\]", id="obb-nan"),
    pytest.param(lambda: GeneralizedOBBModel((math.inf,)), "x", r"in \[0.0, 1.0\]", id="obb-inf"),
    pytest.param(lambda: GeneralizedOBBModel([1.5, 0.5]), "x", r"in \[0.0, 1.0\]", id="obb-above"),
    pytest.param(lambda: ExperimentInstance(np.eye(2), (-1, 2), (1, 0), HALF), "input_occupation", "at least 0",
                 id="instance-input"),
    pytest.param(lambda: validate_bound_monte_carlo(3, 9, 1, HALF, trials=50, seed=-1), "seed", "at least 0",
                 id="validation-seed"),
])
def test_constructor_refuses_a_field_out_of_range(build, name, bound):
    with pytest.raises(ValueError, match=f"field '{name}' must (be|lie) {bound}, got "):
        build()


_EYE = np.eye(2).tolist()


@pytest.mark.parametrize("read, data, name", [
    (ExperimentInstance.from_dict, {"unitary": {"re": _EYE, "im": [[0.5]]}, "model": HALF.to_dict()}, "im"),
    (ExperimentInstance.from_dict, {"unitary": {"re": [[1, 0], [0]]}, "model": HALF.to_dict()}, "re"),
    (model_from_dict, {"type": "explicit", "s_real": _EYE, "s_imag": [[0.0]]}, "s_imag"),
    (model_from_dict, {"type": "explicit", "s_real": [[1.0], [0.0, 1.0]]}, "s_real"),
])
def test_matrix_of_another_shape_is_refused_by_field(read, data, name):
    with pytest.raises(ValueError, match=f"field '{name}'"):
        read(data)


def _accepted(build, *args):
    """``build(*args)``, or None if the constructor refuses the arguments."""
    try:
        return build(*args)
    except ValueError:
        return None


def _json(descriptor: dict) -> dict:
    return json.loads(json.dumps(descriptor))


# What a Python caller may pass for a number: the right kind, or bools, fractions and number strings.
_INTEGERS = st.one_of(st.integers(-1, 40), st.integers(1, 40).map(float), st.integers(1, 40).map(str),
                      st.floats(0.0, 40.0), st.booleans())
_REALS = st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1.0).map(np.float64), st.integers(0, 1),
                   st.sampled_from(["0.5", "1", "x", 1.5]), st.booleans())
_CONTAINERS = st.sampled_from([list, tuple, np.array])


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["haar_unitary", "gaussian_iid", "bernoulli"]), m=_INTEGERS, seed=_INTEGERS,
       n=st.one_of(st.none(), _INTEGERS))
def test_ensemble_round_trip(kind, m, seed, n):
    spec = _accepted(EnsembleSpec, kind, m, seed, n)
    if spec is not None:
        assert EnsembleSpec.from_dict(_json(spec.to_dict())) == spec


@settings(max_examples=60, deadline=None)
@given(x=_REALS, xs=st.lists(_REALS, max_size=4), container=_CONTAINERS)
def test_visibility_model_round_trip(x, xs, container):
    for model in (_accepted(HomogeneousModel, x), _accepted(GeneralizedOBBModel, container(xs))):
        if model is not None:
            clone = model_from_dict(_json(model.to_dict()))
            assert type(clone) is type(model) and clone == model


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_explicit_model_round_trip(n, seed):
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    model = ExplicitModel(states.conj() @ states.T)
    np.testing.assert_array_equal(model_from_dict(_json(model.to_dict())).s, model.s)


@settings(max_examples=40, deadline=None)
@given(occupation=st.lists(st.integers(0, 2), min_size=1, max_size=4), data=st.data(), container=_CONTAINERS,
       entry=st.sampled_from([int, float, str, bool]))
def test_instance_round_trip(occupation, data, container, entry):
    output = data.draw(st.permutations(occupation))
    unitary = haar_unitary(len(occupation), seed=len(occupation))
    inst = _accepted(ExperimentInstance, unitary, container([entry(c) for c in occupation]),
                     container([entry(c) for c in output]), HALF)
    if inst is not None:
        assert ExperimentInstance.from_dict(_json(inst.to_dict())).to_dict() == inst.to_dict()

"""The validated spec itself is the campaign work item.

Executors hand :class:`~repro.scenarios.ScenarioSpec` objects to the kernel
(pickled, for worker processes) instead of their plain-dict form.  These
tests show that skipping the dict round trip evaluates the same spec: every
registry spec and every built-in matrix point survives ``to_dict`` /
``from_dict`` and pickling unchanged, and the kernel gives byte-identical
artifacts for a spec and for its dict.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.campaigns import EvaluationKernel, builtin_matrices
from repro.scenarios import ScenarioSpec, default_registry


def _every_spec():
    specs = list(default_registry())
    for matrix in builtin_matrices().values():
        specs.extend(point.spec for point in matrix.points())
    return specs


SPECS = _every_spec()


@pytest.mark.parametrize("spec", SPECS, ids=[spec.name for spec in SPECS])
def test_the_dict_form_parses_back_to_the_same_spec(spec):
    parsed = ScenarioSpec.from_dict(spec.to_dict())
    assert parsed == spec
    # Equal and of equal types too: ``4 == 4.0``, but their reprs differ.
    assert repr(parsed) == repr(spec)


@pytest.mark.parametrize("spec", SPECS, ids=[spec.name for spec in SPECS])
def test_a_pickled_spec_keeps_its_value_and_hashes(spec):
    hashes = (spec.content_hash(), spec.design_hash())
    shipped = pickle.loads(pickle.dumps(spec))
    assert shipped == spec
    assert (shipped.content_hash(), shipped.design_hash()) == hashes


@pytest.mark.parametrize("name", ["small_die_uniform", "small_die_hotspot"])
def test_the_kernel_evaluates_a_spec_and_its_dict_alike(name):
    spec = default_registry().get(name)
    kernel = EvaluationKernel()
    from_spec, spec_stats, _ = kernel.run(spec)
    from_dict, dict_stats, _ = kernel.run(spec.to_dict())
    assert json.dumps(from_spec, sort_keys=True) == json.dumps(
        from_dict, sort_keys=True
    )
    assert spec_stats == dict_stats

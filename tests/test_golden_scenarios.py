"""Golden regression harness: replay every registered scenario, pin its numbers.

Each pinned scenario (the built-in catalogue plus the representative
matrix-generated specs) is run end to end through all four analysis paths — steady, sweep, batched SNR,
transient — and the resulting :class:`~repro.scenarios.ScenarioArtifact` is
compared against the committed reference under ``tests/golden/`` with the
per-quantity tolerances of :mod:`repro.scenarios.golden`.

Workflow
--------
* a change that *should not* move numbers (refactor, optimisation) must keep
  these tests green untouched;
* a change that legitimately moves numbers (model fix, new physics)
  regenerates the references with ``pytest tests/test_golden_scenarios.py
  --update-golden`` and commits the diff — the diff *is* the review artifact;
* editing a registered spec changes its content hash, which fails the
  comparison immediately until the golden is refreshed.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.campaigns import register_golden_representatives
from repro.scenarios import (
    ALL_PATHS,
    ScenarioRegistry,
    ScenarioRunner,
    builtin_scenarios,
    collect_bases,
    compare_artifact_dicts,
)
from repro.thermal import basis_scope

GOLDEN_DIR = Path(__file__).parent / "golden"

# The pinned population: the six hand-registered built-ins plus the three
# representative matrix-generated scenarios (one per new axis family).  A
# local registry keeps the shared default_registry() singleton untouched —
# other tests must not see a population that depends on collection order.
GOLDEN_REGISTRY = ScenarioRegistry()
GOLDEN_REGISTRY.register_many(builtin_scenarios())
register_golden_representatives(GOLDEN_REGISTRY)
SCENARIO_NAMES = GOLDEN_REGISTRY.names()


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


@pytest.mark.golden
@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_scenario_matches_golden(name, update_golden):
    """End-to-end artifact of one scenario matches its committed reference."""
    spec = GOLDEN_REGISTRY.get(name)
    artifact = ScenarioRunner(spec).run(ALL_PATHS)

    # Every path actually produced a section.
    assert sorted(artifact.results) == sorted(ALL_PATHS)
    assert artifact.results["transient"] is not None

    path = golden_path(name)
    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(artifact.to_json())
        return
    assert path.exists(), (
        f"no golden artifact for scenario {name!r}; generate it with "
        "PYTHONPATH=src python -m pytest tests/test_golden_scenarios.py "
        "--update-golden"
    )
    golden = json.loads(path.read_text())
    assert golden["spec_hash"] == artifact.spec_hash, (
        f"spec of scenario {name!r} changed (golden hash "
        f"{golden['spec_hash'][:12]}, current {artifact.spec_hash[:12]}); "
        "refresh the goldens with --update-golden and commit the diff"
    )
    mismatches = compare_artifact_dicts(golden, artifact.to_dict())
    assert not mismatches, (
        f"scenario {name!r} drifted from its golden artifact:\n"
        + "\n".join(mismatches)
    )


@pytest.mark.golden
@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_rom_replay_stays_inside_golden_bands(name):
    """The reduced-order transient path reproduces every golden scenario.

    One collecting run builds the basis (its solve is the exact LU path),
    a second runner replays it with the basis in scope — the campaign
    deployment shape — and the reduced replay must stay inside the
    committed per-quantity tolerance bands.
    """
    path = golden_path(name)
    assert path.exists(), f"no golden artifact for scenario {name!r}"
    golden = json.loads(path.read_text())

    spec = GOLDEN_REGISTRY.get(name)
    with basis_scope(collect_bases([spec])):
        replayed = ScenarioRunner(spec).run(("transient",))

    solver = replayed.results["transient"]["solver"]
    assert solver["method"] == "rom", (
        f"scenario {name!r} did not replay on the reduced path: {solver}"
    )
    assert not solver["rom_fallback"]
    golden_transient = copy.deepcopy(golden["results"]["transient"])
    fresh_transient = copy.deepcopy(replayed.results["transient"])
    # ``worst_sample`` selects the argmin over all (time, link) samples; when
    # the minimum is attained at numerically tied samples (a settled trace
    # revisits the identical state), any last-ulps perturbation flips which
    # tie wins.  The worst *value* must still agree within the SNR band —
    # only the discrete pick is exempt.
    golden_worst = golden_transient["snr"].pop("worst_sample")
    fresh_worst = fresh_transient["snr"].pop("worst_sample")
    assert fresh_worst["snr_db"] == pytest.approx(
        golden_worst["snr_db"], rel=1e-4, abs=1e-4
    )
    mismatches = compare_artifact_dicts(
        {"results": {"transient": golden_transient}},
        {"results": {"transient": fresh_transient}},
    )
    assert not mismatches, (
        f"reduced-order replay of scenario {name!r} drifted outside the "
        "golden tolerance bands:\n" + "\n".join(mismatches)
    )


@pytest.mark.golden
def test_no_stale_golden_files():
    """Every committed golden corresponds to a registered scenario."""
    committed = {path.stem for path in GOLDEN_DIR.glob("*.json")}
    registered = set(SCENARIO_NAMES)
    orphans = sorted(committed - registered)
    assert not orphans, (
        f"golden artifacts without a registered scenario: {orphans}; "
        "delete them or register the scenarios"
    )


@pytest.mark.golden
def test_artifact_regeneration_is_deterministic():
    """Running the same spec twice yields byte-identical artifact JSON."""
    spec = GOLDEN_REGISTRY.get("small_die_uniform")
    first = ScenarioRunner(spec).run(ALL_PATHS).to_json()
    second = ScenarioRunner(spec).run(ALL_PATHS).to_json()
    assert first == second

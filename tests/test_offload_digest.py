"""Pinned offload and economics outputs.

Each digest is a sha256 over the ``repr`` of a list of result rows, so
every greedy pick and every float (at full ``repr`` precision) is part
of it:

* economics trial rows (timing fields dropped), measured both through
  the trial-batch views and per trial against a built world;
* offload study rows for peer groups 1-4, both paths again;
* complete ``greedy_expansion`` and ``greedy_reachability`` step lists
  on reference worlds for peer groups 1-4.

The literals were computed with the matrix-product greedy cover that
preceded the lazy one, so a cover, peer-group or bitset change that
moves any pick or any float of these runs fails here.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, replace

import pytest

from repro.core.offload import (
    ALL_GROUPS,
    OffloadEstimator,
    PeerGroups,
    greedy_expansion,
    greedy_reachability,
)
from repro.experiments import (
    EconomicsStudy,
    EconomicsVariant,
    OffloadStudy,
    offload_grid_variants,
)
from repro.experiments.engine import expand_trials
from repro.sim.offload_world import build_offload_world
from repro.sim.scenarios import offload_preset_config

TIMING_FIELDS = ("build_s", "study_s")
PATHS = ["batched", "per_trial"]


def rows_digest(rows) -> str:
    """sha256 over the ``repr`` of each row, one per line."""
    return hashlib.sha256(
        "\n".join(repr(row) for row in rows).encode()
    ).hexdigest()


def _untimed(result) -> dict:
    row = asdict(result)
    for name in TIMING_FIELDS:
        row.pop(name)
    return row


def study_rows(study, seeds, batched: bool) -> list[dict]:
    """One study's untimed rows, batched per variant or built per trial."""
    specs = expand_trials(study, seeds)
    if batched:
        results = []
        for variant in study.variant_names():
            results += study.run_batch(
                [s for s in specs if s.variant == variant]
            )
        results.sort(key=lambda r: r.trial_id)
    else:
        results = [study.measure(s, study.build(s), 0.0) for s in specs]
    return [_untimed(r) for r in results]


def economics_study(preset: str) -> EconomicsStudy:
    return EconomicsStudy(variants=(EconomicsVariant(
        name=preset, world=offload_preset_config(preset),
    ),))


def offload_study() -> OffloadStudy:
    return OffloadStudy(variants=offload_grid_variants(
        world=offload_preset_config("small"), groups=ALL_GROUPS,
    ))


def expansion_rows(preset: str, seed: int) -> list:
    """Full traffic and address-space expansions, groups 1-4."""
    world = build_offload_world(
        replace(offload_preset_config(preset), seed=seed)
    )
    estimator = OffloadEstimator(world, PeerGroups.build(world))
    rows: list = []
    for group in ALL_GROUPS:
        rows.append(("traffic", group, greedy_expansion(estimator, group)))
        rows.append((
            "addresses", group,
            greedy_reachability(world, estimator.groups, group),
        ))
    return rows


ECONOMICS_SMALL_SEEDS = tuple(range(16))
ECONOMICS_SMALL_DIGEST = (
    "d5c654acdc2ae89d68ce7c8b9c4e74c5631c73aabb44cee5f5a0ce49d96c3d66"
)

ECONOMICS_PAPER65_SEEDS = tuple(range(8))
ECONOMICS_PAPER65_DIGEST = (
    "f6ec2e4232885681117ace9257acbb2b38489d23a06a551e9741d2a6151029ea"
)

OFFLOAD_SMALL_SEEDS = tuple(range(4))
OFFLOAD_SMALL_DIGEST = (
    "322e9f719fc30a5d0b9a003b826189a2651feeb66e8753d9a8b30a1ae54ce082"
)

SMALL_EXPANSION_DIGESTS = {
    0: "4cfc35cf9cf61e10bcb39003ee4cd618872dfe5648385ccc2977c310aaac91c6",
    1: "c3ffb091f6bafb864e63e60bb265f9d1add1d6ad7e3497ab64652af74824357a",
    2: "fdf7ef3f47da36bacae57c5591b89b0035b7ea5a9d7f148fd1be2da6180f20bd",
    3: "3bb5c0f0b9075bde7adac4b93ffc171c8e8d4ee19fcda14f0bb6a6c33e1cbd2d",
    4: "195adda2a5216d2035ca224427618ad8476fe1832aa35377d68f396ad1060829",
    5: "16159bce89d2c5250ff575b3c23666b79b828d5d838e0f48519d7ae9c75b9207",
    6: "fd68efe4ca4e56076852fa8e56247896e76a3d8dd725945ca00690f0e96761fc",
    7: "e3784fa4cfee4b084764e995a27d9e16a02459e38fc4aa8859e347a62ef75815",
    8: "5874a013b65f4483d3ee7920fa6e4663535535238e2c47cf1936110e62bafe7e",
    9: "29f838fd3dc6be803e92d60bce4728735be51ec37f23e57c697cc5cb0bd160f8",
    10: "a1851730bbce49032aa21bfa34e282d99c43dc7764a161195b350d9cb07ec88f",
    11: "c964e04dd770baab23658b4e6e0c13bc47c4de383bbe64015bb2eddef835a812",
}

PAPER65_EXPANSION_DIGESTS = {
    0: "fef894fede019d7fb4249a104041a82c4e6458fb145985704c8e0fa5c5be48d0",
    1: "a714b6393d82237efe17ef50dbea13b9693012165633e402e82ab797f63d5474",
    2: "6da2d814113e4b47591a9335f87e51801665dd5752a4230fd731f3b5e1341bf3",
}


@pytest.mark.parametrize("batched", [True, False], ids=PATHS)
def test_small_economics_rows_are_pinned(batched):
    rows = study_rows(economics_study("small"), ECONOMICS_SMALL_SEEDS, batched)
    assert rows_digest(rows) == ECONOMICS_SMALL_DIGEST


@pytest.mark.parametrize("batched", [True, False], ids=PATHS)
def test_offload_rows_are_pinned(batched):
    rows = study_rows(offload_study(), OFFLOAD_SMALL_SEEDS, batched)
    assert rows_digest(rows) == OFFLOAD_SMALL_DIGEST


@pytest.mark.parametrize("seed", sorted(SMALL_EXPANSION_DIGESTS))
def test_small_expansions_are_pinned(seed):
    assert rows_digest(expansion_rows("small", seed)) == \
        SMALL_EXPANSION_DIGESTS[seed]


@pytest.mark.slow
@pytest.mark.parametrize("batched", [True, False], ids=PATHS)
def test_paper65_economics_rows_are_pinned(batched):
    rows = study_rows(
        economics_study("paper65"), ECONOMICS_PAPER65_SEEDS, batched
    )
    assert rows_digest(rows) == ECONOMICS_PAPER65_DIGEST


@pytest.mark.slow
@pytest.mark.parametrize("seed", sorted(PAPER65_EXPANSION_DIGESTS))
def test_paper65_expansions_are_pinned(seed):
    assert rows_digest(expansion_rows("paper65", seed)) == \
        PAPER65_EXPANSION_DIGESTS[seed]

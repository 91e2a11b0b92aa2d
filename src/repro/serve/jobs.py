"""Request resolution: JSON study submissions → (name, Study, StudyConfig).

``POST /studies`` bodies are declarative — they name a registered study
or scenario and describe its configuration as plain JSON — so they can
be journaled verbatim by the scheduler and replayed after a service
restart (a live ``Study`` object cannot be rebuilt from a journal line;
a request payload can).  :func:`resolve_request` is the one resolver
the service injects into :class:`~repro.experiments.scheduler.
StudyScheduler`; everything it accepts is therefore recoverable.

The request shape::

    {
      "study": "detection" | "offload" | "economics" | "scenario",
      "priority": 0,                      # higher runs first
      "config": { ... study-specific ... }
    }

Common ``config`` keys (all studies):

``seeds``
    Either an explicit list (``[0, 1, 7]``) or a range spec
    (``{"count": 16, "offset": 0}``).
``workers`` / ``trial_timeout_s`` / ``trial_retries`` / ``trial_batch``
    Passed through to :class:`~repro.experiments.engine.StudyConfig`
    unchanged (same validation, same errors).

Study-specific keys:

``detection``
    ``preset`` (``mini3``/``paper22``, default ``mini3``), ``ixps`` (an
    explicit IXP-acronym list overriding the preset), ``threshold_ms``
    (a remoteness-threshold grid).
``offload``
    ``preset`` (``small``/``paper65``, default ``small``), ``groups``
    (peer groups, default ``[4]``), ``max_ixps``.
``economics``
    ``preset`` (``small``/``paper65``), ``group``, ``max_ixps`` and the
    Section 5 price knobs (``transit_price``, ``direct_fixed``,
    ``direct_unit``, ``remote_fixed``, ``remote_unit``,
    ``price_per_mbps``).
``scenario``
    ``name`` (one of :func:`repro.experiments.scenarios.scenario_names`)
    and ``preset`` (``small``/``paper``) — the registered scenario's own
    grid builder does the rest.

Integer keys (``group``, ``max_ixps``, the ``groups`` entries) take JSON
integers; the price keys take finite JSON numbers.  Booleans, strings,
nulls, lists and non-finite numbers are rejected rather than coerced.

Bad payloads raise :class:`~repro.errors.ConfigurationError`, which the
HTTP layer maps to a 400 response.
"""

from __future__ import annotations

import math
from typing import Any

from repro.errors import ConfigurationError, EconomicsError
from repro.experiments.engine import Study, StudyConfig

#: Study kinds this resolver understands (the service's registry).
STUDY_KINDS = ("detection", "offload", "economics", "scenario")


def parse_seeds(value: Any) -> tuple[int, ...]:
    """Seeds from either an explicit list or a ``{count, offset}`` range."""
    if isinstance(value, dict):
        count = value.get("count")
        offset = value.get("offset", 0)
        if not isinstance(count, int) or count < 1:
            raise ConfigurationError(
                "seeds.count must be a positive integer"
            )
        if not isinstance(offset, int):
            raise ConfigurationError("seeds.offset must be an integer")
        return tuple(range(offset, offset + count))
    if isinstance(value, list) and value and all(
        isinstance(s, int) and not isinstance(s, bool) for s in value
    ):
        return tuple(value)
    raise ConfigurationError(
        "seeds must be a non-empty integer list or {count, offset}"
    )


def _integer(value: Any, key: str) -> int:
    """A JSON integer (not a bool, string or float), or a 400."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{key} must be an integer, got {value!r}")
    return value


def _number(value: Any, key: str) -> float:
    """A finite JSON number (not a bool or string), or a 400."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        raise ConfigurationError(
            f"{key} must be a finite number, got {value!r}"
        )
    return float(value)


def _study_config(config: dict[str, Any], seeds: tuple[int, ...]) -> StudyConfig:
    """Engine config from the request's common keys (engine-validated)."""
    kwargs: dict[str, Any] = {"seeds": seeds}
    for key in ("workers", "trial_timeout_s", "trial_retries",
                "trial_batch", "transport"):
        if key in config:
            kwargs[key] = config[key]
    try:
        return StudyConfig(**kwargs)
    except TypeError as error:
        raise ConfigurationError(f"bad study config: {error}")


def _detection(config: dict[str, Any], seeds: tuple[int, ...]):
    from repro.experiments import DetectionStudy, grid_variants
    from repro.ixp.catalog import spec_by_acronym
    from repro.sim.detection_world import DetectionWorldConfig
    from repro.sim.scenarios import detection_preset_specs

    ixps = config.get("ixps")
    if ixps is not None:
        if not isinstance(ixps, list) or not ixps:
            raise ConfigurationError("ixps must be a non-empty list")
        specs = tuple(spec_by_acronym(name) for name in dict.fromkeys(ixps))
    else:
        specs = detection_preset_specs(config.get("preset", "mini3"))
    axes: dict[str, tuple[Any, ...]] = {}
    thresholds = config.get("threshold_ms")
    if thresholds:
        if not isinstance(thresholds, list):
            raise ConfigurationError("threshold_ms must be a list")
        try:
            axes["campaign.remoteness_threshold_ms"] = tuple(
                dict.fromkeys(thresholds)
            )
        except TypeError as error:  # an unhashable JSON list or object
            raise ConfigurationError(f"bad threshold_ms: {error}")
    study = DetectionStudy(variants=grid_variants(
        world=DetectionWorldConfig(specs=specs), axes=axes,
    ))
    return "detection", study, _study_config(config, seeds)


def _offload(config: dict[str, Any], seeds: tuple[int, ...]):
    from repro.experiments import OffloadStudy, offload_grid_variants
    from repro.sim.scenarios import offload_preset_config

    world = offload_preset_config(config.get("preset", "small"))
    groups = config.get("groups", [4])
    if not isinstance(groups, list) or not groups:
        raise ConfigurationError("groups must be a non-empty list")
    study = OffloadStudy(variants=offload_grid_variants(
        world=world,
        groups=tuple(dict.fromkeys(_integer(g, "groups") for g in groups)),
        max_ixps=_integer(config.get("max_ixps", 8), "max_ixps"),
    ))
    return "offload", study, _study_config(config, seeds)


def _economics(config: dict[str, Any], seeds: tuple[int, ...]):
    from repro.experiments import EconomicsStudy, EconomicsVariant
    from repro.sim.scenarios import offload_preset_config

    preset = config.get("preset", "small")
    prices = {
        key: _number(config.get(key, default), key)
        for key, default in (
            ("transit_price", 5.0), ("direct_fixed", 1.0),
            ("direct_unit", 0.5), ("remote_fixed", 0.25),
            ("remote_unit", 1.5), ("price_per_mbps", 1.0),
        )
    }
    try:
        variant = EconomicsVariant(
            name=preset,
            world=offload_preset_config(preset),
            group=_integer(config.get("group", 4), "group"),
            max_ixps=_integer(config.get("max_ixps", 20), "max_ixps"),
            **prices,
        )
    except EconomicsError as error:  # a price structure eq. 14 rejects
        raise ConfigurationError(f"bad prices: {error}")
    study = EconomicsStudy(variants=(variant,))
    return "economics", study, _study_config(config, seeds)


def _scenario(config: dict[str, Any], seeds: tuple[int, ...]):
    from repro.experiments.scenarios import get_scenario

    name = config.get("name")
    if not isinstance(name, str):
        raise ConfigurationError("scenario requests need a 'name'")
    run = get_scenario(name).build(
        preset=config.get("preset", "small"),
        seeds=seeds,
        workers=_integer(config.get("workers", 0), "workers"),
    )
    # The scenario builder owns the full StudyConfig (workers included);
    # layer the request's engine knobs on top of it.
    base = run.study_config
    overlay = {
        key: config[key]
        for key in ("trial_timeout_s", "trial_retries", "trial_batch",
                    "transport")
        if key in config
    }
    if overlay:
        from dataclasses import replace

        base = replace(base, **overlay)
    return f"scenario:{name}", run.study, base


_RESOLVERS = {
    "detection": _detection,
    "offload": _offload,
    "economics": _economics,
    "scenario": _scenario,
}


def resolve_request(payload: dict[str, Any]) -> tuple[str, Study, StudyConfig]:
    """Resolve one ``POST /studies`` body into the scheduler's inputs.

    Returns ``(display name, study, config)``; raises
    :class:`ConfigurationError` on anything malformed — unknown study
    kind, bad seeds, engine-invalid knobs — so submissions fail at the
    API boundary, not inside a scheduler thread.
    """
    if not isinstance(payload, dict):
        raise ConfigurationError("request body must be a JSON object")
    kind = payload.get("study")
    resolver = _RESOLVERS.get(kind) if isinstance(kind, str) else None
    if resolver is None:
        raise ConfigurationError(
            f"unknown study kind {kind!r} (expected one of {STUDY_KINDS})"
        )
    config = payload.get("config", {})
    if not isinstance(config, dict):
        raise ConfigurationError("config must be a JSON object")
    seeds = parse_seeds(config.get("seeds", {"count": 16}))
    return resolver(config, seeds)

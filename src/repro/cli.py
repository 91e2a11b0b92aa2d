"""Command-line entry points: ``repro-detect``, ``repro-offload``,
``repro-econ``, ``repro-ensemble``, ``repro-offload-ensemble`` — and the
``repro <command>`` dispatcher that fronts them all.

Each command builds the corresponding synthetic world, runs the study, and
prints the paper-shaped report as plain text.  The unified multi-seed
front end is ``repro study detection|offload|economics|joint``: every
study runs on the shared engine (seed × grid expansion, per-variant world
caching, process-pool fan-out, resumable ``--out`` artifacts).
``detection`` and ``offload`` are the Section 3/4 ensembles (``repro
ensemble`` and ``repro offload-ensemble`` are their long-standing
aliases, byte-for-byte identical reports); ``economics`` chains
Sections 3+4+5 — measured offload curve → decay fit → 95th-percentile
billing → eq. 14 viability vote — across seeds; ``joint`` replays each
seed's measured detection confusion onto the offload world's peer map
and prices the oracle-vs-detected gap.  ``repro scenarios list|run``
fronts the scenario library (:mod:`repro.experiments.scenarios`): the
ROADMAP's scenario backlog as named presets.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.tables import render_table
from repro.core.detection import CampaignConfig, ProbeCampaign
from repro.core.detection.classify import BAND_LABELS
from repro.core.economics import (
    CostModel,
    CostParameters,
    fit_exponential_decay,
    viability_condition,
)
from repro.core.offload import (
    GROUP_LABELS,
    OffloadEstimator,
    PeerGroups,
    greedy_expansion,
)
from repro.ixp.catalog import paper_catalog
from repro.sim import (
    DetectionWorldConfig,
    OffloadWorldConfig,
    build_detection_world,
    build_offload_world,
)
from repro.units import format_rate


def detect_main(argv: list[str] | None = None) -> int:
    """Run the Section 3 detection study and print per-IXP findings."""
    parser = argparse.ArgumentParser(
        prog="repro-detect",
        description="Ping-based detection of remote peering at the 22 "
        "studied IXPs (synthetic world).",
    )
    parser.add_argument("--seed", type=int, default=42, help="world seed")
    parser.add_argument(
        "--threshold-ms", type=float, default=10.0,
        help="remoteness threshold (paper: 10 ms)",
    )
    parser.add_argument(
        "--ixps", nargs="*", default=None,
        help="restrict to these IXP acronyms (default: all 22)",
    )
    args = parser.parse_args(argv)
    from repro.errors import ConfigurationError

    try:
        config = CampaignConfig(
            seed=args.seed, remoteness_threshold_ms=args.threshold_ms
        )
    except ConfigurationError as error:
        parser.error(str(error))

    specs = paper_catalog()
    if args.ixps:
        specs = tuple(s for s in specs if s.acronym in set(args.ixps))
        if not specs:
            parser.error("no matching IXPs")
    world = build_detection_world(
        DetectionWorldConfig(seed=args.seed, specs=specs)
    )
    result = ProbeCampaign(world, config).run()

    bands = result.band_counts_by_ixp()
    rows = []
    for acronym in sorted(bands):
        counts = bands[acronym]
        remote = sum(v for k, v in counts.items() if k != "<10ms")
        rows.append([acronym, *(counts[label] for label in BAND_LABELS), remote])
    print(render_table(
        ["IXP", *BAND_LABELS, "remote"],
        rows,
        title="Analyzed interfaces by minimum-RTT band",
    ))
    print()
    print(f"analyzed interfaces : {result.analyzed_count()}")
    print(f"identified networks : {len(result.identified_networks())}")
    print(f"remotely peering    : {len(result.remotely_peering_networks())}")
    print(f"IXPs with remote peering: "
          f"{len(result.ixps_with_remote_peering())}/{len(result.studied_ixps())} "
          f"({result.remote_spread_fraction():.0%})")
    return 0


def offload_main(argv: list[str] | None = None) -> int:
    """Run the Section 4 offload study and print the greedy expansion."""
    parser = argparse.ArgumentParser(
        prog="repro-offload",
        description="Transit-offload potential of a RedIRIS-like NREN over "
        "the 65 Euro-IX IXPs (synthetic world).",
    )
    parser.add_argument("--seed", type=int, default=42, help="world seed")
    parser.add_argument(
        "--group", type=int, default=4, choices=(1, 2, 3, 4),
        help="peer group (paper Section 4.2)",
    )
    parser.add_argument(
        "--max-ixps", type=int, default=10, help="greedy expansion depth"
    )
    args = parser.parse_args(argv)

    world = build_offload_world(OffloadWorldConfig(seed=args.seed))
    estimator = OffloadEstimator(world, PeerGroups.build(world))
    all_ixps = estimator.reachable_ixps()
    fi, fo = estimator.offload_fractions(all_ixps, args.group)
    print(f"peer group {args.group} ({GROUP_LABELS[args.group]})")
    print(f"candidates after exclusions: {estimator.groups.candidate_count()}")
    print(f"max offload at {len(all_ixps)} IXPs: "
          f"inbound {fi:.1%}, outbound {fo:.1%}")
    print()
    rows = []
    for step in greedy_expansion(estimator, args.group, max_ixps=args.max_ixps):
        rows.append([
            step.rank,
            step.ixp,
            format_rate(step.gained_total_bps),
            format_rate(step.remaining_total_bps),
        ])
    print(render_table(
        ["#", "IXP", "gained", "remaining transit"],
        rows,
        title="Greedy IXP expansion",
    ))
    return 0


def report_main(argv: list[str] | None = None) -> int:
    """Run every study and write one combined plain-text report."""
    parser = argparse.ArgumentParser(
        prog="repro-report",
        description="Run the detection, offload, and economics studies and "
        "write a combined report.",
    )
    parser.add_argument("--seed", type=int, default=42, help="world seed")
    parser.add_argument(
        "--output", "-o", default="-",
        help="output file (default: stdout)",
    )
    parser.add_argument(
        "--small", action="store_true",
        help="use the small scenarios (seconds instead of ~20 s)",
    )
    args = parser.parse_args(argv)

    from repro.core.detection import CampaignConfig, ProbeCampaign
    from repro.reporting import (
        detection_report,
        economics_report,
        offload_report,
    )
    from repro.sim import scenarios

    world = scenarios.mini3(args.seed) if args.small else scenarios.paper22(args.seed)
    result = ProbeCampaign(world, CampaignConfig(seed=args.seed)).run()
    offload_world = (
        scenarios.rediris_small(args.seed) if args.small
        else scenarios.rediris(args.seed)
    )
    estimator = OffloadEstimator(offload_world, PeerGroups.build(offload_world))

    divider = "\n\n" + "=" * 72 + "\n\n"
    text = divider.join([
        detection_report(world, result),
        offload_report(estimator),
        economics_report(estimator),
    ])
    if args.output == "-":
        print(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"report written to {args.output}")
    return 0


def econ_main(argv: list[str] | None = None) -> int:
    """Evaluate the Section 5 viability condition for given prices."""
    parser = argparse.ArgumentParser(
        prog="repro-econ",
        description="Economic viability of remote peering vs transit and "
        "direct peering (paper eq. 14).",
    )
    parser.add_argument("--transit-price", "-p", type=float, default=5.0)
    parser.add_argument("--direct-fixed", "-g", type=float, default=1.0)
    parser.add_argument("--direct-unit", "-u", type=float, default=0.5)
    parser.add_argument("--remote-fixed", "-H", type=float, default=0.25)
    parser.add_argument("--remote-unit", "-v", type=float, default=1.5)
    parser.add_argument(
        "--decay", "-b", type=float, default=None,
        help="transit decay rate b; default: fit it from the offload world",
    )
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)

    b = args.decay
    if b is None:
        import numpy as np

        from repro.core.offload import remaining_traffic_series

        world = build_offload_world(OffloadWorldConfig(seed=args.seed))
        estimator = OffloadEstimator(world, PeerGroups.build(world))
        series = remaining_traffic_series(estimator, 4, max_ixps=20)
        fit = fit_exponential_decay(np.array(series))
        b = fit.rate
        print(f"fitted b = {b:.3f} from the offload world "
              f"(floor {fit.floor:.0%} of traffic stays on transit)")
    params = CostParameters(
        p=args.transit_price, g=args.direct_fixed, u=args.direct_unit,
        h=args.remote_fixed, v=args.remote_unit, b=b,
    )
    model = CostModel(params)
    verdict = viability_condition(params)
    print(f"optimal direct-peering IXPs  ñ = {model.optimal_direct():.2f}")
    print(f"optimal remote extension     m̃ = {model.optimal_remote_extra():.2f}")
    print(f"viability ratio g(p-v)/(h(p-u)) = {verdict.ratio:.2f} "
          f"vs e^b = {verdict.threshold:.2f}")
    print(f"remote peering viable: {'YES' if verdict.viable else 'NO'}")
    return 0


def ensemble_main(argv: list[str] | None = None) -> int:
    """Run a multi-seed (optionally multi-config) detection ensemble."""
    parser = argparse.ArgumentParser(
        prog="repro-ensemble",
        description="Multi-seed ensemble of the detection study: "
        "mean ± 95% CI for precision, recall, per-filter discards and "
        "per-IXP remote fractions.",
    )
    parser.add_argument(
        "--scenario", choices=("mini3", "paper22"), default="mini3",
        help="world to replicate (default: the fast 3-IXP mini world)",
    )
    parser.add_argument(
        "--ixps", nargs="*", default=None,
        help="override the scenario with these IXP acronyms",
    )
    parser.add_argument(
        "--seeds", type=int, default=16,
        help="number of trial seeds (default: 16)",
    )
    parser.add_argument(
        "--seed-offset", type=int, default=0,
        help="first seed (seeds are offset..offset+N-1)",
    )
    parser.add_argument(
        "--threshold-ms", type=float, nargs="*", default=None,
        help="remoteness threshold grid (default: just 10 ms)",
    )
    parser.add_argument(
        "--engine", choices=("vectorized", "scalar"), default="vectorized",
        help="world-builder engine (default: vectorized)",
    )
    parser.add_argument(
        "--workers", type=int, default=0,
        help="trial processes (0 = one per core, 1 = inline)",
    )
    parser.add_argument(
        "--trial-batch", type=int, default=1,
        help="seeds per trial batch (results are bit-identical per seed; "
        ">1 groups same-variant seeds and suspends GC per group)",
    )
    parser.add_argument(
        "--per-ixp", action="store_true",
        help="also print per-IXP detected remote fractions",
    )
    parser.add_argument(
        "--out", default=None, metavar="DIR",
        help="artifact directory: completed trials are written as JSONL "
        "and skipped on rerun (resumable ensembles)",
    )
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    if args.workers < 0:
        parser.error("--workers cannot be negative")
    if args.trial_batch < 1:
        parser.error("--trial-batch must be at least 1")

    from repro.errors import ConfigurationError
    from repro.experiments import (
        EnsembleConfig,
        grid_variants,
        render_ensemble_report,
        run_ensemble,
    )
    from repro.sim.scenarios import detection_preset_specs

    if args.ixps:
        from repro.ixp.catalog import spec_by_acronym

        try:
            # Resolve each name individually so typos fail loudly instead
            # of silently shrinking the ensemble.
            specs = tuple(spec_by_acronym(name) for name in dict.fromkeys(args.ixps))
        except ConfigurationError as error:
            parser.error(str(error))
    else:
        specs = detection_preset_specs(args.scenario)
    world = DetectionWorldConfig(specs=specs, engine=args.engine)
    axes = {}
    if args.threshold_ms:
        # Dedup: repeated values would produce same-named variants.
        axes["campaign.remoteness_threshold_ms"] = tuple(
            dict.fromkeys(args.threshold_ms)
        )
    try:
        # CampaignConfig validates each threshold (positive, finite).
        variants = grid_variants(world=world, axes=axes)
    except ConfigurationError as error:
        parser.error(str(error))
    config = EnsembleConfig(
        seeds=tuple(range(args.seed_offset, args.seed_offset + args.seeds)),
        variants=variants,
        workers=args.workers,
        trial_batch=args.trial_batch,
    )
    result = run_ensemble(config, out_dir=args.out)
    print(render_ensemble_report(result, per_ixp=args.per_ixp))
    return 0


def offload_ensemble_main(argv: list[str] | None = None) -> int:
    """Run a multi-seed (optionally multi-config) offload ensemble."""
    parser = argparse.ArgumentParser(
        prog="repro-offload-ensemble",
        description="Multi-seed ensemble of the Section 4 offload study: "
        "mean ± 95% CI offload fractions, offloadable-network counts and "
        "the greedy IXP expansion consensus across seeds × config grid.",
    )
    parser.add_argument(
        "--scenario", choices=("small", "paper65"), default="paper65",
        help="world scale: the full 29,570-network paper world (default) "
        "or the ~3k-network small world",
    )
    parser.add_argument(
        "--seeds", type=int, default=16,
        help="number of trial seeds (default: 16)",
    )
    parser.add_argument(
        "--seed-offset", type=int, default=0,
        help="first seed (seeds are offset..offset+N-1)",
    )
    parser.add_argument(
        "--groups", type=int, nargs="*", default=(4,), choices=(1, 2, 3, 4),
        help="peer groups to study (default: group 4)",
    )
    parser.add_argument(
        "--member-tier2-fraction", type=float, nargs="*", default=None,
        help="grid axis over OffloadWorldConfig.member_tier2_fraction",
    )
    parser.add_argument(
        "--tier1-only-stub-fraction", type=float, nargs="*", default=None,
        help="grid axis over OffloadWorldConfig.tier1_only_stub_fraction",
    )
    parser.add_argument(
        "--max-ixps", type=int, default=8, help="greedy expansion depth"
    )
    parser.add_argument(
        "--engine", choices=("vectorized", "scalar"), default="vectorized",
        help="offload-world engine (default: vectorized)",
    )
    parser.add_argument(
        "--workers", type=int, default=0,
        help="trial processes (0 = one per core, 1 = inline)",
    )
    parser.add_argument(
        "--trial-batch", type=int, default=1,
        help="seeds per trial batch: >1 realizes same-variant seed "
        "batches as one array program (bit-identical per seed, "
        "several times faster at paper scale)",
    )
    parser.add_argument(
        "--out", default=None, metavar="DIR",
        help="artifact directory: completed trials are written as JSONL "
        "and skipped on rerun (resumable ensembles)",
    )
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    if args.workers < 0:
        parser.error("--workers cannot be negative")
    if args.trial_batch < 1:
        parser.error("--trial-batch must be at least 1")
    if args.max_ixps < 1:
        parser.error("--max-ixps must be at least 1")
    if not args.groups:
        parser.error("--groups needs at least one group")

    from repro.experiments import (
        OffloadEnsembleConfig,
        offload_grid_variants,
        render_offload_ensemble_report,
        run_offload_ensemble,
    )
    from repro.sim.scenarios import offload_preset_config

    world = offload_preset_config(args.scenario, engine=args.engine)
    axes = {}
    if args.member_tier2_fraction:
        axes["world.member_tier2_fraction"] = tuple(
            dict.fromkeys(args.member_tier2_fraction)
        )
    if args.tier1_only_stub_fraction:
        axes["world.tier1_only_stub_fraction"] = tuple(
            dict.fromkeys(args.tier1_only_stub_fraction)
        )
    from repro.errors import ConfigurationError

    try:
        # Grid values feed straight into OffloadWorldConfig validation;
        # surface bad fractions as argparse errors, not tracebacks.
        config = OffloadEnsembleConfig(
            seeds=tuple(range(args.seed_offset, args.seed_offset + args.seeds)),
            variants=offload_grid_variants(
                world=world,
                axes=axes,
                groups=tuple(dict.fromkeys(args.groups)),
                max_ixps=args.max_ixps,
            ),
            workers=args.workers,
            trial_batch=args.trial_batch,
        )
    except ConfigurationError as error:
        parser.error(str(error))
    result = run_offload_ensemble(config, out_dir=args.out)
    print(render_offload_ensemble_report(result))
    return 0


def economics_study_main(argv: list[str] | None = None) -> int:
    """Run the Sections 3+4+5 economics ensemble: savings CIs + eq. 14 vote."""
    parser = argparse.ArgumentParser(
        prog="repro-study-economics",
        description="Multi-seed ensemble of the end-to-end economics "
        "pipeline: per-seed offload world -> measured decay fit -> "
        "95th-percentile billing -> eq. 14 viability; reports mean ± 95% "
        "CI transit-bill savings and the viability vote across seeds.",
    )
    parser.add_argument(
        "--scenario", choices=("small", "paper65"), default="small",
        help="world scale: the ~3k-network small world (default, seconds) "
        "or the full 29,570-network paper world",
    )
    parser.add_argument(
        "--seeds", type=int, default=16,
        help="number of trial seeds (default: 16)",
    )
    parser.add_argument(
        "--seed-offset", type=int, default=0,
        help="first seed (seeds are offset..offset+N-1)",
    )
    parser.add_argument(
        "--group", type=int, default=4, choices=(1, 2, 3, 4),
        help="peer group (paper Section 4.2; default: 4)",
    )
    parser.add_argument(
        "--max-ixps", type=int, default=20,
        help="depth of the fitted remaining-traffic series (default: 20)",
    )
    parser.add_argument("--transit-price", "-p", type=float, default=5.0)
    parser.add_argument("--direct-fixed", "-g", type=float, default=1.0)
    parser.add_argument("--direct-unit", "-u", type=float, default=0.5)
    parser.add_argument("--remote-fixed", "-H", type=float, default=0.25)
    parser.add_argument("--remote-unit", "-v", type=float, default=1.5)
    parser.add_argument(
        "--price-per-mbps", type=float, default=1.0,
        help="billing price for the NetFlow 95th-percentile bill",
    )
    parser.add_argument(
        "--engine", choices=("vectorized", "scalar"), default="vectorized",
        help="offload-world engine (default: vectorized)",
    )
    parser.add_argument(
        "--workers", type=int, default=0,
        help="trial processes (0 = one per core, 1 = inline)",
    )
    parser.add_argument(
        "--trial-batch", type=int, default=1,
        help="seeds per trial batch: >1 realizes same-variant seed "
        "batches as one array program (bit-identical per seed)",
    )
    parser.add_argument(
        "--out", default=None, metavar="DIR",
        help="artifact directory: completed trials are written as JSONL "
        "and skipped on rerun (resumable ensembles)",
    )
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    if args.workers < 0:
        parser.error("--workers cannot be negative")
    if args.trial_batch < 1:
        parser.error("--trial-batch must be at least 1")

    from repro.errors import ConfigurationError, EconomicsError
    from repro.experiments import (
        EconomicsEnsembleConfig,
        EconomicsVariant,
        render_economics_ensemble_report,
        run_economics_ensemble,
    )
    from repro.sim.scenarios import offload_preset_config

    try:
        config = EconomicsEnsembleConfig(
            seeds=tuple(range(args.seed_offset, args.seed_offset + args.seeds)),
            variants=(
                EconomicsVariant(
                    name=args.scenario,
                    world=offload_preset_config(
                        args.scenario, engine=args.engine
                    ),
                    group=args.group,
                    max_ixps=args.max_ixps,
                    transit_price=args.transit_price,
                    direct_fixed=args.direct_fixed,
                    direct_unit=args.direct_unit,
                    remote_fixed=args.remote_fixed,
                    remote_unit=args.remote_unit,
                    price_per_mbps=args.price_per_mbps,
                ),
            ),
            workers=args.workers,
            trial_batch=args.trial_batch,
        )
    except (ConfigurationError, EconomicsError) as error:
        parser.error(str(error))
    result = run_economics_ensemble(config, out_dir=args.out)
    print(render_economics_ensemble_report(result))
    return 0


def joint_study_main(argv: list[str] | None = None) -> int:
    """Run the joint detection→offload ensemble: gap + billing error CIs."""
    parser = argparse.ArgumentParser(
        prog="repro-study-joint",
        description="Multi-seed joint detection->offload study: per seed, "
        "run the Section 3 campaign, replay its measured confusion onto "
        "the offload world's peer map, and feed the *detected* remote-peer "
        "set into the offload estimator and the 95th-percentile bill; "
        "reports mean ± 95% CI precision/recall, the offload fraction via "
        "the detected set, the oracle-vs-detected gap, and billing savings.",
    )
    parser.add_argument(
        "--preset", choices=("small", "paper"), default="small",
        help="world family: mini3 detection + ~3k-AS offload world "
        "(default, seconds) or the full paper-scale pair",
    )
    parser.add_argument(
        "--seeds", type=int, default=16,
        help="number of trial seeds (default: 16)",
    )
    parser.add_argument(
        "--seed-offset", type=int, default=0,
        help="first seed (seeds are offset..offset+N-1)",
    )
    parser.add_argument(
        "--group", type=int, default=4, choices=(1, 2, 3, 4),
        help="peer group (paper Section 4.2; default: 4)",
    )
    parser.add_argument(
        "--remote-fraction", type=float, default=None,
        help="oracle remote share of candidate members (default: the "
        "detection world's measured ground-truth remote fraction)",
    )
    parser.add_argument(
        "--price-per-mbps", type=float, default=1.0,
        help="billing price for the NetFlow 95th-percentile bill",
    )
    parser.add_argument(
        "--workers", type=int, default=0,
        help="trial processes (0 = one per core, 1 = inline)",
    )
    parser.add_argument(
        "--out", default=None, metavar="DIR",
        help="artifact directory: completed trials are written as JSONL "
        "and skipped on rerun (resumable ensembles)",
    )
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    if args.workers < 0:
        parser.error("--workers cannot be negative")

    from repro.errors import ConfigurationError
    from repro.experiments import (
        JointEnsembleConfig,
        JointVariant,
        render_joint_ensemble_report,
        run_joint_ensemble,
    )
    from repro.sim.scenarios import joint_preset_configs

    try:
        detection_world, offload_world = joint_preset_configs(args.preset)
        config = JointEnsembleConfig(
            seeds=tuple(range(args.seed_offset,
                              args.seed_offset + args.seeds)),
            variants=(
                JointVariant(
                    name=args.preset,
                    detection_world=detection_world,
                    offload_world=offload_world,
                    group=args.group,
                    remote_fraction=args.remote_fraction,
                    price_per_mbps=args.price_per_mbps,
                ),
            ),
            workers=args.workers,
        )
    except ConfigurationError as error:
        parser.error(str(error))
    result = run_joint_ensemble(config, out_dir=args.out)
    print(render_joint_ensemble_report(result))
    return 0


def mega_study_main(argv: list[str] | None = None) -> int:
    """Run the mega-scale Euro-IX expansion study (10⁵+ network worlds)."""
    parser = argparse.ArgumentParser(
        prog="repro-study-mega",
        description="Multi-seed mega-scale expansion study: a CAIDA-style "
        "tiered world over a columnar 10⁵+-network pool and the full "
        "Euro-IX catalog, dispatched to workers over zero-copy "
        "shared-memory transport; reports mean ± 95% CI covered-traffic "
        "fractions and the greedy IXP expansion.",
    )
    parser.add_argument(
        "--scenario", choices=("mega-smoke", "mega"), default="mega-smoke",
        help="world scale: the ~20k-network CI smoke world (default) or "
        "the 100k-network mega world",
    )
    parser.add_argument(
        "--seeds", type=int, default=4,
        help="number of trial seeds (default: 4)",
    )
    parser.add_argument(
        "--seed-offset", type=int, default=0,
        help="first seed (seeds are offset..offset+N-1)",
    )
    parser.add_argument(
        "--max-ixps", type=int, default=8, help="greedy expansion depth"
    )
    parser.add_argument(
        "--workers", type=int, default=0,
        help="trial processes (0 = one per core, 1 = inline)",
    )
    parser.add_argument(
        "--transport", choices=("shm", "pickle"), default="shm",
        help="world transport to workers: zero-copy shared-memory "
        "segments (default) or per-group pickling",
    )
    parser.add_argument(
        "--strict-transport", action="store_true",
        help="fail (exit 1) if any trial fell back from shared-memory "
        "to pickle transport",
    )
    parser.add_argument(
        "--out", default=None, metavar="DIR",
        help="artifact directory: completed trials are written as JSONL "
        "and skipped on rerun (resumable studies)",
    )
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    if args.workers < 0:
        parser.error("--workers cannot be negative")
    if args.max_ixps < 1:
        parser.error("--max-ixps must be at least 1")

    from repro.errors import ConfigurationError
    from repro.experiments import MegaStudy, MegaVariant
    from repro.experiments.engine import StudyConfig, run_study
    from repro.sim.scenarios import mega_preset_config

    try:
        study = MegaStudy(
            variants=(
                MegaVariant(
                    name=args.scenario,
                    world=mega_preset_config(args.scenario),
                    max_ixps=args.max_ixps,
                ),
            ),
        )
        config = StudyConfig(
            seeds=tuple(range(args.seed_offset, args.seed_offset + args.seeds)),
            workers=args.workers,
            out_dir=args.out,
            transport=args.transport,
        )
    except ConfigurationError as error:
        parser.error(str(error))
    result = run_study(study, config)

    def _pct(ci) -> str:
        if ci is None:
            return "n/a"
        return f"{ci.mean:.1%} ± {ci.half_width:.1%}"

    rows = []
    for variant in study.variant_names():
        stats = result.streaming.get(variant, {})
        covered = stats.get("covered_fraction")
        five = stats.get("five_ixp_share")
        members = stats.get("covered_networks")
        rows.append([
            variant,
            _pct(covered),
            _pct(five),
            "n/a" if members is None else f"{members.mean:,.0f}",
        ])
    trials = len(result.trials) + len(result.failures)
    print(render_table(
        ["variant", "covered traffic", "5-IXP share", "covered networks"],
        rows,
        title=(
            f"Mega expansion: {trials} trials "
            f"({len(study.variants)} variant(s) x {args.seeds} seed(s), "
            f"{result.wall_s:.1f} s wall, transport={args.transport})"
        ),
    ))
    if result.trials:
        first = result.trials[0]
        print(
            f"\nWorld: {first.network_count:,} networks, "
            f"{first.member_total:,} IXP memberships "
            f"(build {first.build_s:.2f} s, trial {first.study_s:.2f} s)."
        )
        print("Greedy expansion (seed "
              f"{first.seed}): {' -> '.join(first.expansion)}")
    note = result.coverage_note()
    if note:
        print(f"\nNote: {note}")
    if args.strict_transport and result.transport_fallbacks:
        print(
            f"error: --strict-transport set and {result.transport_fallbacks} "
            "trial(s) fell back to pickle transport",
            file=sys.stderr,
        )
        return 1
    return 0


def lint_main(argv: list[str] | None = None) -> int:
    """``repro lint`` — the determinism & draw-stream static analysis.

    Lazy import: the devtools package is developer tooling and must not
    slow down study start-up.
    """
    from repro.devtools.lint.cli import lint_main as run_lint

    return run_lint(argv)


def serve_main(argv: list[str] | None = None) -> int:
    """``repro serve`` — the study engine as a long-running HTTP service.

    Lazy import: the serve package spins up scheduler threads and an
    asyncio loop, none of which belongs in study start-up.
    """
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve studies over HTTP: POST /studies submits a "
        "declarative study request onto a priority job queue, GET "
        "/studies/{id}?watch=1 streams progress, and repeated identical "
        "submissions are answered from the content-addressed result "
        "store without recomputing a single trial.",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address",
    )
    parser.add_argument(
        "--port", type=int, default=8072,
        help="TCP port (0 = ephemeral; default: 8072)",
    )
    parser.add_argument(
        "--store", default="runs/store", metavar="DIR",
        help="content-addressed artifact store + job journal "
        "(default: runs/store)",
    )
    parser.add_argument(
        "--threads", type=int, default=2,
        help="concurrent studies (each may fan out its own trial "
        "processes; default: 2)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="run the end-to-end service smoke (ephemeral port, temp "
        "store) and exit 0 on success instead of serving",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        from repro.serve.smoke import run_smoke

        return run_smoke()
    if args.threads < 1:
        parser.error("--threads must be at least 1")
    from repro.serve import serve

    return serve(
        host=args.host, port=args.port, store_dir=args.store,
        threads=args.threads,
    )


def scenarios_main(argv: list[str] | None = None) -> int:
    """``repro scenarios list|run <name>`` — the scenario-library front end."""
    parser = argparse.ArgumentParser(
        prog="repro-scenarios",
        description="Named, parameterized study grids: the ROADMAP's "
        "scenario backlog as runnable presets on the study engine.",
    )
    sub = parser.add_subparsers(dest="action", required=True)
    sub.add_parser("list", help="show every registered scenario")
    runner = sub.add_parser("run", help="run one scenario preset")
    runner.add_argument("name", help="scenario name (see `scenarios list`)")
    runner.add_argument(
        "--preset", choices=("small", "paper"), default="small",
        help="world scale (default: small, seconds; paper = full scale)",
    )
    runner.add_argument(
        "--seeds", type=int, default=16,
        help="number of trial seeds (default: 16)",
    )
    runner.add_argument(
        "--seed-offset", type=int, default=0,
        help="first seed (seeds are offset..offset+N-1)",
    )
    runner.add_argument(
        "--workers", type=int, default=0,
        help="trial processes (0 = one per core, 1 = inline)",
    )
    runner.add_argument(
        "--out", default=None, metavar="DIR",
        help="artifact directory: completed trials are written as JSONL "
        "and skipped on rerun (resumable ensembles)",
    )
    args = parser.parse_args(argv)

    from repro.errors import ConfigurationError
    from repro.experiments.scenarios import SCENARIOS, get_scenario

    if args.action == "list":
        rows = []
        for scenario in SCENARIOS.values():
            run = scenario.build(preset="small", seeds=(0,))
            rows.append([
                scenario.name,
                scenario.study_kind,
                len(run.study.variant_names()),
                scenario.description,
            ])
        print(render_table(
            ["scenario", "study", "variants", "description"],
            rows,
            title="Scenario library (presets: small, paper)",
        ))
        return 0

    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    if args.workers < 0:
        parser.error("--workers cannot be negative")
    try:
        run = get_scenario(args.name).build(
            preset=args.preset,
            seeds=tuple(range(args.seed_offset,
                              args.seed_offset + args.seeds)),
            workers=args.workers,
        )
    except ConfigurationError as error:
        parser.error(str(error))
    _, report = run.execute(args.out)
    print(report)
    return 0


#: The ``repro study`` sub-dispatcher: one entry point per study kind.
#: ``detection`` and ``offload`` are the existing ensemble commands (so
#: their reports are byte-identical to ``repro ensemble`` /
#: ``repro offload-ensemble`` on the same arguments); ``economics`` is
#: the Sections 3+4+5 pipeline; ``joint`` chains detection into offload
#: and billing with the measured confusion replayed onto the peer map.
_STUDIES = {}  # populated below (after the mains are defined)


def study_main(argv: list[str] | None = None) -> int:
    """``repro study <kind> [args...]`` — the unified study front end."""
    parser = argparse.ArgumentParser(
        prog="repro-study",
        description="Run a multi-seed study: detection (Section 3), "
        "offload (Section 4), economics (Sections 3+4+5) or joint (the "
        "detection->offload->billing chain with measured detection errors "
        "propagated into the peer map).  All studies share the engine's "
        "seed grids, world caching, parallelism and resumable --out "
        "artifacts.",
    )
    parser.add_argument("kind", choices=sorted(_STUDIES))
    parser.add_argument("args", nargs=argparse.REMAINDER)
    parsed = parser.parse_args(argv)
    return _STUDIES[parsed.kind](parsed.args)


#: Subcommands of the ``repro`` dispatcher.
_COMMANDS = {
    "detect": detect_main,
    "offload": offload_main,
    "offload-ensemble": offload_ensemble_main,
    "econ": econ_main,
    "report": report_main,
    "ensemble": ensemble_main,
    "scenarios": scenarios_main,
    "serve": serve_main,
    "study": study_main,
    "lint": lint_main,
}

_STUDIES.update({
    "detection": ensemble_main,
    "offload": offload_ensemble_main,
    "economics": economics_study_main,
    "joint": joint_study_main,
    "mega": mega_study_main,
})


def main(argv: list[str] | None = None) -> int:
    """``repro <command> [args...]`` — dispatch to the study entry points."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Remote-peering reproduction studies.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("args", nargs=argparse.REMAINDER)
    parsed = parser.parse_args(argv)
    return _COMMANDS[parsed.command](parsed.args)


if __name__ == "__main__":  # pragma: no cover - module execution guard
    sys.exit(main())

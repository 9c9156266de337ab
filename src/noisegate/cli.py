"""Command-line interface for the noise management pipeline.

Every stage is its own subcommand, so a run can execute end to end
(`run`) or stage by stage (`ingest`, `detect`, `ensemble`, `signature`,
`evaluate`) against the same artifact directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

from .board import CONSENSUS, DETECTOR_IDS
from .dataset import Scale, load_ratings
from .pipeline import (
    STAGES,
    _REPORT_ENTRIES,
    ConfigError,
    DataError,
    NoiseKind,
    PipelineConfig,
    RunResult,
    StageError,
    _checked_json,
    _read,
    config_from_dict,
    inject_noise,
    load_config,
    run_baseline,
    run_framework,
    run_paths,
    run_stage,
    write_mask,
)

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_STAGE = 4


def _common_parent() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--verbose", action="store_true", help="log stage progress")
    return p


def _config_parent() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--config", metavar="FILE", help="JSON file of config key-value pairs")
    defaults = PipelineConfig()
    for f in dataclasses.fields(PipelineConfig):
        flag = "--" + f.name.replace("_", "-")
        p.add_argument(
            flag,
            dest=f.name,
            default=None,
            metavar="V",
            help=f"config key {f.name} (default: {getattr(defaults, f.name)!r})",
        )
    return p


def _resolve_config(args: argparse.Namespace) -> PipelineConfig:
    """The config file's keys, if one is given, with the explicit flags laid over them."""
    flags = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(PipelineConfig)
        if getattr(args, f.name, None) is not None
    }
    return load_config(args.config, flags) if args.config else config_from_dict(flags)


def build_parser() -> argparse.ArgumentParser:
    common = _common_parent()
    config = _config_parent()
    parser = argparse.ArgumentParser(
        prog="noisegate",
        description="Natural-noise management for rating data: detect, arbitrate, "
        "de-obfuscate, remove, and measure the before/after impact.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, stage in STAGES.items():
        sub.add_parser(name, parents=[common, config], help=stage.help)
    sub.add_parser("run", parents=[common, config],
                   help="all stages end to end")

    pb = sub.add_parser("baseline", parents=[common, config],
                        help="single-detector removal with the identical protocol")
    pb.add_argument("--detector", required=True, choices=DETECTOR_IDS)

    pi = sub.add_parser("inject-noise", parents=[common],
                        help="perturb a seeded share of ratings and write the mask")
    pi.add_argument("--ratings", required=True, help="input ratings CSV")
    pi.add_argument("--rate", type=float, required=True, help="share to perturb, in [0, 0.5]")
    pi.add_argument("--kind", required=True, choices=[k.value for k in NoiseKind])
    pi.add_argument("--seed", type=int, default=0)
    pi.add_argument("--out-ratings", required=True, help="output ratings CSV")
    pi.add_argument("--out-mask", required=True, help="output mask JSON")
    pi.add_argument("--scale-min", type=float, default=0.5)
    pi.add_argument("--scale-max", type=float, default=5.0)

    pr = sub.add_parser("report", parents=[common], help="summarize a report.json")
    pr.add_argument("path", help="path to report.json")
    return parser


def _print_json(data: dict) -> None:
    print(json.dumps(data, indent=2, sort_keys=True))


def _cmd_inject(args: argparse.Namespace) -> None:
    if not 0.0 <= args.rate <= 0.5:
        raise ConfigError(f"rate must be in [0, 0.5], got {args.rate}")
    if args.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {args.seed}")
    try:
        scale = Scale(args.scale_min, args.scale_max)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    path = Path(args.ratings)
    if not path.exists():
        raise DataError(f"ratings file not found: {path}")
    table = _read(load_ratings, path, scale)
    noisy, mask = inject_noise(table, args.rate, NoiseKind(args.kind), args.seed)
    noisy.to_csv(args.out_ratings)
    write_mask(mask, args.out_mask)
    _print_json(
        {
            "perturbed": len(mask.keys),
            "total": len(table),
            "kind": mask.kind.value,
            "ratings": str(args.out_ratings),
            "mask": str(args.out_mask),
        }
    )


def _cmd_report(args: argparse.Namespace) -> None:
    path = Path(args.path)
    if not path.exists():
        raise DataError(f"report file not found: {path}")
    r = _read(_checked_json, path, "report", _REPORT_ENTRIES)
    c, b, e, rm, ev = r["counts"], r["board"], r["ensemble"], r["removal"], r["evaluation"]
    print(f"mode: {r['mode']}" + (f" (detector {r['detector']})" if r["detector"] else ""))
    print(f"ratings: {c['ratings_after_filter']} "
          f"(train {c['train']} / detect {c['detect']} / eval {c['eval']})")
    print("consensus:", ", ".join(f"{k.value} {b['consensus'][k.value]}" for k in CONSENSUS))
    print("per-detector noisy:",
          ", ".join(f"{d} {b['per_detector_noisy'][d]}" for d in DETECTOR_IDS))
    if e["variant"]:
        print(f"ensemble {e['variant']}: {e['classified_noisy']} noisy / "
              f"{e['classified_clean']} clean of {e['uncertain_total']} uncertain")
    print(f"signature hits: {r['signature']['count']} user(s) {r['signature']['flagged_users']}")
    print(f"removal: {rm['noisy_ratings_removed']} noisy + {rm['signature_ratings_removed']} "
          f"signature ratings; corpus {rm['corpus_size']} -> {rm['cleaned_size']}")
    print(f"evaluated users: {ev['universe_users']} (excluded: {len(ev['excluded_users'])})")
    for pair, sec in sorted(ev["pairs"].items()):
        print(f"  {pair}: percent positive {sec['percent_positive']:.2f} "
              f"quadrants {sec['quadrant_counts']}")
    print(f"critical groups: before {ev['critical_group_pct_before']:.2f}% "
          f"-> after {ev['critical_group_pct_after']:.2f}%")
    if "ground_truth" in r:
        gt = r["ground_truth"]
        print(f"ground truth ({gt['kind']}, rate {gt['rate']}): consensus precision "
              f"{gt['consensus']['precision']:.3f} recall {gt['consensus']['recall']:.3f}")


def _evaluated(result: RunResult) -> dict:
    """The summary an evaluation prints: its report path and percent positive per pair."""
    pairs = result.report_dict["evaluation"]["pairs"]
    return {
        "report": str(result.paths.report),
        "percent_positive": {pair: sec["percent_positive"] for pair, sec in pairs.items()},
    }


def _run(cfg: PipelineConfig, args: argparse.Namespace) -> dict:
    result = run_framework(cfg)
    return {
        **_evaluated(result),
        "critical_group_pct_after": result.report_dict["evaluation"]["critical_group_pct_after"],
        "flagged_users": result.report_dict["signature"]["flagged_users"],
    }


def _baseline(cfg: PipelineConfig, args: argparse.Namespace) -> dict:
    return {**_evaluated(run_baseline(cfg, args.detector)), "detector": args.detector}


def _staged(cfg: PipelineConfig, args: argparse.Namespace) -> dict:
    """Run one stage of STAGES; evaluate's RunResult prints as _evaluated."""
    result = run_stage(args.command, cfg, run_paths(cfg))
    return _evaluated(result) if isinstance(result, RunResult) else result


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.command == "inject-noise":
            _cmd_inject(args)
        elif args.command == "report":
            _cmd_report(args)
        else:
            command = {"run": _run, "baseline": _baseline}.get(args.command, _staged)
            _print_json(command(_resolve_config(args), args))
        sys.stdout.flush()
        return EXIT_OK
    except BrokenPipeError:
        # The reader closed stdout: send the rest of the output to devnull,
        # as the signal module's documentation advises, and exit 1.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except StageError as exc:
        print(f"stage error: {exc}", file=sys.stderr)
        return EXIT_STAGE


if __name__ == "__main__":
    sys.exit(main())

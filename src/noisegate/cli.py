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
import sys
from pathlib import Path

from .board.verdict import DETECTOR_IDS
from .dataset import Scale, load_ratings
from .ioutil import read_json
from .pipeline import (
    STAGES,
    ConfigError,
    DataError,
    NoiseKind,
    PipelineConfig,
    RunResult,
    StageError,
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


def _cmd_inject(args: argparse.Namespace) -> int:
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
    try:
        table = load_ratings(path, scale)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
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
    return EXIT_OK


_NUMBER = (int, float)
_KINDS = {dict: "an object", list: "a list", _NUMBER: "a number"}


def _cmd_report(args: argparse.Namespace) -> int:
    path = Path(args.path)
    if not path.exists():
        raise DataError(f"report file not found: {path}")
    try:
        r = read_json(path)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc
    if not isinstance(r, dict):
        raise DataError(f"{path}: expected a JSON object")

    def entry(name: str, kind: type | tuple = dict):
        """The entry at a dotted name, which must be a kind of _KINDS."""
        value = r
        for key in name.split("."):
            value = value.get(key) if isinstance(value, dict) else None
        if not isinstance(value, kind) or isinstance(value, bool):
            raise DataError(f"{path}: report entry {name!r} is missing or not {_KINDS[kind]}")
        return value

    lines: list[str] = []
    lines.append(f"mode: {r.get('mode')}"
                 + (f" (detector {r['detector']})" if r.get("detector") else ""))
    c = entry("counts")
    lines.append(
        f"ratings: {c.get('ratings_after_filter')} "
        f"(train {c.get('train')} / detect {c.get('detect')} / eval {c.get('eval')})"
    )
    b = entry("board.consensus")
    lines.append(
        f"consensus: noisy {b.get('noisy')}, clean {b.get('clean')}, "
        f"uncertain {b.get('uncertain')}"
    )
    pd = entry("board.per_detector_noisy")
    lines.append("per-detector noisy: " + ", ".join(f"{d} {pd[d]}" for d in sorted(pd)))
    e = entry("ensemble")
    if e.get("variant"):
        lines.append(
            f"ensemble {e['variant']}: {e.get('classified_noisy')} noisy / "
            f"{e.get('classified_clean')} clean of {e.get('uncertain_total')} uncertain"
        )
    s = entry("signature")
    lines.append(f"signature hits: {s.get('count')} user(s) {s.get('flagged_users')}")
    rm = entry("removal")
    lines.append(
        f"removal: {rm.get('noisy_ratings_removed')} noisy + "
        f"{rm.get('signature_ratings_removed')} signature ratings; "
        f"corpus {rm.get('corpus_size')} -> {rm.get('cleaned_size')}"
    )
    ev = entry("evaluation")
    excluded = entry("evaluation.excluded_users", list)
    lines.append(f"evaluated users: {ev.get('universe_users')} (excluded: {len(excluded)})")
    for pair in sorted(entry("evaluation.pairs")):
        pct = entry(f"evaluation.pairs.{pair}.percent_positive", _NUMBER)
        lines.append(f"  {pair}: percent positive {pct:.2f} "
                     f"quadrants {ev['pairs'][pair].get('quadrant_counts')}")
    before = entry("evaluation.critical_group_pct_before", _NUMBER)
    after = entry("evaluation.critical_group_pct_after", _NUMBER)
    lines.append(f"critical groups: before {before:.2f}% -> after {after:.2f}%")
    if r.get("ground_truth"):
        gt = entry("ground_truth")
        precision = entry("ground_truth.consensus.precision", _NUMBER)
        recall = entry("ground_truth.consensus.recall", _NUMBER)
        lines.append(
            f"ground truth ({gt.get('kind')}, rate {gt.get('rate')}): "
            f"consensus precision {precision:.3f} recall {recall:.3f}"
        )
    print("\n".join(lines))
    return EXIT_OK


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
            return _cmd_inject(args)
        if args.command == "report":
            return _cmd_report(args)
        command = {"run": _run, "baseline": _baseline}.get(args.command, _staged)
        _print_json(command(_resolve_config(args), args))
        return EXIT_OK
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

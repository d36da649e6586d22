"""Command-line surface: validate, report, synth, oracle-check.

Exit codes: 0 success, 1 internal error, 2 input error. Logs go to stderr
(level via the ECHOSCOPE_LOG environment variable); data only ever goes to
stdout or the requested output paths.

Only ``ingest`` is imported at load time: ``report`` (with ``scipy``) and
``synth`` are imported by the commands that run them, so ``--help``,
``validate`` and ``synth`` start without ``scipy``.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import EchoscopeError, InputFormatError
from .ingest import (
    atomic_open,
    config_bool,
    load_dataset,
    read_key_values,
    validate_dataset,
    write_domain_scores,
    write_events,
    write_follow_edges,
)

if TYPE_CHECKING:
    from .report import ReportBundle, RunConfig

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2


def _setup_logging() -> None:
    level_name = os.environ.get("ECHOSCOPE_LOG", "WARNING").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(
        level=level,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )


def _parse_window(text: Optional[str]) -> Optional[tuple[int, int]]:
    if text is None:
        return None
    if ".." not in text:
        raise InputFormatError(f"window must look like FROM..TO, got {text!r}")
    lo_s, _, hi_s = text.partition("..")
    try:
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise InputFormatError(f"window bounds must be integers, got {text!r}") from None
    if hi < lo:
        raise InputFormatError(f"window is empty: {text!r}")
    return lo, hi


# report config-file keys, each read by its cast; each key is also the dest
# of the flag that overrides it
REPORT_KEYS = {
    "scores": str,
    "edges": str,
    "events": str,
    "out": str,
    "window": str,
    "k_min": int,
    "k_max": int,
    "entropy_bins": int,
    "reps": int,
    "baseline_users": int,
    "seed": int,
    "overlap_mode": str,
    "unique_domains": config_bool,
    "threads": int,
    "no_cache": config_bool,
    "heatmap_bins": int,
    "sample_n": int,
}


def _build_run_config(args: argparse.Namespace) -> RunConfig:
    from .report import RunConfig

    values = read_key_values(args.config, REPORT_KEYS) if args.config else {}
    for key in REPORT_KEYS:
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag
    missing = [key for key in ("scores", "edges", "events", "out") if key not in values]
    if missing:
        raise InputFormatError(f"missing required options: {', '.join('--' + m for m in missing)}")
    window = _parse_window(values.pop("window", None))
    return RunConfig(out_dir=values.pop("out"), window=window, **values)


def run_report(cfg: RunConfig) -> ReportBundle:
    """``report.run_report``, importing ``report`` on first use.

    A name of this module, like ``load_dataset`` and ``validate_dataset``,
    so that ``perfbench/tracer.py`` can wrap it before a command runs.
    """
    from . import report

    return report.run_report(cfg)


def cmd_validate(args: argparse.Namespace) -> int:
    bundle = load_dataset(args.scores, args.edges, args.events)
    report = validate_dataset(bundle)
    payload = report.to_json()
    if args.out:
        with atomic_open(args.out) as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    return EXIT_OK if report.ok else EXIT_INPUT


def cmd_report(args: argparse.Namespace) -> int:
    cfg = _build_run_config(args)
    report = run_report(cfg)
    log.info("report written to %s (%d markers)", cfg.out_dir, len(report.sections["markers"]))
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    from .synth import SynthConfig, generate, write_truth

    cfg = SynthConfig.from_file(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    bundle, truth = generate(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_domain_scores(bundle.scores, str(out / "scores.csv"))
    write_follow_edges(bundle.edges, str(out / "edges.csv"))
    write_events(bundle.log, str(out / "events.jsonl"))
    write_truth(truth, str(out / "truth.json"))
    log.info(
        "synthetic dataset with %d users / %d events written to %s",
        cfg.n_users,
        len(bundle.log),
        out,
    )
    return EXIT_OK


def cmd_oracle_check(args: argparse.Namespace) -> int:
    from .synth import compare_with_oracle

    bundle = load_dataset(args.scores, args.edges, args.events)
    diff = compare_with_oracle(
        bundle,
        k=args.k,
        n_bins=args.entropy_bins,
        unique_domains=args.unique_domains,
        max_events=args.max_events,
    )
    payload = {
        "ok": diff.ok(args.tolerance),
        "tolerance": args.tolerance,
        "max_abs_diff": diff.max_abs_diff,
        "worst_metric": diff.worst_metric,
        "n_compared": diff.n_compared,
        "presence_mismatches": list(diff.presence_mismatches),
        "class_mismatches": list(diff.class_mismatches),
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with atomic_open(args.out) as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK if payload["ok"] else EXIT_INPUT


def _add_input_flags(parser: argparse.ArgumentParser, required: bool = True) -> None:
    parser.add_argument("--scores", required=required, help="domain score CSV")
    parser.add_argument("--edges", required=required, help="follow edge CSV")
    parser.add_argument("--events", required=required, help="tweet event JSONL")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="echoscope",
        description="Quantify echo chamber effects in follower vs retweet networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="referential checks over the three inputs")
    _add_input_flags(p)
    p.add_argument("--out", help="write the validation report JSON here instead of stdout")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("report", help="full analysis: metrics, correlations, plot data")
    _add_input_flags(p, required=False)
    p.add_argument("--out", help="output directory")
    p.add_argument("--config", help="key=value config file; flags override it")
    p.add_argument("--k-min", dest="k_min", type=int)
    p.add_argument("--k-max", dest="k_max", type=int)
    p.add_argument("--entropy-bins", dest="entropy_bins", type=int)
    p.add_argument("--reps", type=int, help="baseline repetitions per user")
    p.add_argument("--baseline-users", dest="baseline_users", type=int,
                   help="cap on users entering the random baseline (0 = all)")
    p.add_argument("--seed", type=int)
    p.add_argument("--window", help="restrict events to FROM..TO epoch seconds")
    p.add_argument("--overlap-mode", dest="overlap_mode", choices=["account", "content", "both"])
    p.add_argument("--unique-domains", dest="unique_domains", action="store_true", default=None)
    p.add_argument("--threads", type=int, help="accepted for compatibility; has no effect")
    p.add_argument("--no-cache", dest="no_cache", action="store_true", default=None)
    p.add_argument("--heatmap-bins", dest="heatmap_bins", type=int)
    p.add_argument("--sample-n", dest="sample_n", type=int)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--config", required=True, help="key=value synthesis config")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("oracle-check", help="engine vs brute-force oracle diff")
    _add_input_flags(p)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--entropy-bins", dest="entropy_bins", type=int, default=5)
    p.add_argument("--unique-domains", dest="unique_domains", action="store_true", default=False)
    p.add_argument("--max-events", dest="max_events", type=int, default=1000)
    p.add_argument("--tolerance", type=float, default=1e-12)
    p.add_argument("--out", help="write the diff report JSON here instead of stdout")
    p.set_defaults(func=cmd_oracle_check)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EchoscopeError as exc:
        log.error("%s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception:  # pragma: no cover - defensive
        logging.exception("internal error")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

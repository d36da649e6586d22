"""Command-line surface: validate, report, synth, oracle-check.

Exit codes: 0 success, 1 internal error or a closed stdout, 2 input error.
Logs go to stderr (level via the ECHOSCOPE_LOG environment variable); data
only ever goes to stdout or the requested output paths.

Only the standard library and ``errors`` are imported at load time, so
``--help`` and usage errors load no numpy. Each command imports what it
runs, and every command runs on numpy alone: none loads scipy.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from .errors import EchoscopeError, InputFormatError

if TYPE_CHECKING:
    from .ingest import DatasetBundle, ValidationReport
    from .report import ReportBundle, RunConfig

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2


def _setup_logging() -> None:
    level = getattr(logging, os.environ.get("ECHOSCOPE_LOG", "WARNING").upper(), None)
    logging.basicConfig(
        level=level if isinstance(level, int) else logging.WARNING,  # BASIC_FORMAT names no level
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )


OVERLAP_MODES = ("account", "content", "both")


def _window(text: str) -> tuple[int, int]:
    """``FROM..TO`` epoch seconds as a pair; ValueError when malformed or empty."""
    if ".." not in text:
        raise ValueError(f"window must look like FROM..TO, got {text!r}")
    lo_s, _, hi_s = text.partition("..")
    try:
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise ValueError(f"window bounds must be integers, got {text!r}") from None
    if hi < lo:
        raise ValueError(f"window is empty: {text!r}")
    return lo, hi


def _overlap_mode(text: str) -> str:
    if text not in OVERLAP_MODES:
        raise ValueError(f"unknown overlap mode {text!r}")
    return text


def config_bool(text: str) -> bool:
    """A config switch: ``1/true/yes`` or ``0/false/no``, in any case."""
    word = text.lower()
    if word in ("1", "true", "yes"):
        return True
    if word in ("0", "false", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# each report option once, under its config-file key, which is also the dest
# of the flag that overrides it (``k_min`` is ``--k-min``): the cast a
# config-file value goes through, and the flag's argparse settings
REPORT_OPTIONS: dict[str, tuple[Callable[[str], object], dict[str, Any]]] = {
    "scores": (str, {"help": "domain score CSV"}),
    "edges": (str, {"help": "follow edge CSV"}),
    "events": (str, {"help": "tweet event JSONL"}),
    "out": (str, {"help": "output directory"}),
    "k_min": (int, {"type": int}),
    "k_max": (int, {"type": int}),
    "entropy_bins": (int, {"type": int}),
    "reps": (int, {"type": int, "help": "baseline repetitions per user"}),
    "baseline_users": (
        int, {"type": int, "help": "cap on users entering the random baseline (0 = all)"}
    ),
    "seed": (int, {"type": int}),
    "window": (_window, {"help": "restrict events to FROM..TO epoch seconds"}),
    "overlap_mode": (_overlap_mode, {"choices": OVERLAP_MODES}),
    "unique_domains": (config_bool, {"action": "store_true", "default": None}),
    "threads": (int, {"type": int, "help": "accepted for compatibility; has no effect"}),
    "no_cache": (config_bool, {"action": "store_true", "default": None}),
    "heatmap_bins": (int, {"type": int}),
    "sample_n": (int, {"type": int, "help": "accepted for compatibility; has no effect"}),
}


def _build_run_config(args: argparse.Namespace) -> RunConfig:
    values = {}
    if args.config:
        from .ingest import read_key_values

        casts = {key: cast for key, (cast, _) in REPORT_OPTIONS.items()}
        values = read_key_values(args.config, casts)
    for key in REPORT_OPTIONS:
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag
    if args.window is not None:  # the flag's text, parsed here so its faults keep their message
        try:
            values["window"] = _window(args.window)
        except ValueError as exc:
            raise InputFormatError(str(exc)) from None
    for key in ("threads", "sample_n"):  # accepted for compatibility; they have no effect
        values.pop(key, None)
    missing = [key for key in ("scores", "edges", "events", "out") if key not in values]
    if missing:
        raise InputFormatError(f"missing required options: {', '.join('--' + m for m in missing)}")
    from .report import RunConfig

    return RunConfig(out_dir=values.pop("out"), **values)


def _make_out_dir(path: str) -> None:
    """Make an ``--out`` directory and its parents where missing; a path that
    cannot be one is an input error that names it."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise EchoscopeError(f"{path}: cannot write directory: {exc.strerror}") from None


# ``load_dataset``, ``validate_dataset`` and ``run_report`` are names of this
# module that import their own module on first use, so that
# ``perfbench/tracer.py`` can wrap them before a command runs.


def load_dataset(scores_path: str, edges_path: str, events_path: str) -> DatasetBundle:
    from . import ingest

    return ingest.load_dataset(scores_path, edges_path, events_path)


def validate_dataset(bundle: DatasetBundle) -> ValidationReport:
    from . import ingest

    return ingest.validate_dataset(bundle)


def run_report(cfg: RunConfig) -> ReportBundle:
    from . import report

    return report.run_report(cfg)


def _write_payload(text: str, out: Optional[str]) -> bool:
    """Write a command's JSON text to ``out``, or to stdout when there is
    none. False if whoever read stdout has gone: then, as Python's signal
    docs do, stdout is pointed at devnull, so the flush at exit does not
    fail again."""
    if out:
        from .ingest import atomic_open

        with atomic_open(out) as fh:
            fh.write(text + "\n")
        return True
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return False
    return True


def cmd_validate(args: argparse.Namespace) -> int:
    bundle = load_dataset(args.scores, args.edges, args.events)
    report = validate_dataset(bundle)
    if not _write_payload(report.to_json(), args.out):
        return EXIT_INTERNAL
    return EXIT_OK if report.ok else EXIT_INPUT


def cmd_report(args: argparse.Namespace) -> int:
    cfg = _build_run_config(args)
    _make_out_dir(cfg.out_dir)
    report = run_report(cfg)
    log.info("report written to %s (%d markers)", cfg.out_dir, len(report.sections["markers"]))
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    from .ingest import write_domain_scores, write_events, write_follow_edges
    from .synth import SynthConfig, generate, write_truth

    cfg = SynthConfig.from_file(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    bundle, truth = generate(cfg)
    _make_out_dir(args.out)
    out = Path(args.out)
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
    if args.k < 1:
        raise EchoscopeError("--k must be >= 1")
    if args.entropy_bins < 2:
        raise EchoscopeError("--entropy-bins must be >= 2")
    if args.max_events < 0:
        raise EchoscopeError("--max-events must be >= 0")
    if not 0.0 <= args.tolerance < math.inf:  # NaN fails both comparisons
        raise EchoscopeError(f"--tolerance must be finite and >= 0, got {args.tolerance}")
    from .oracle import compare_with_oracle

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
        "k": args.k,
        "entropy_bins": args.entropy_bins,
        "unique_domains": args.unique_domains,
        "max_events": args.max_events,
        "tolerance": args.tolerance,
        "max_abs_diff": diff.max_abs_diff,
        "worst_metric": diff.worst_metric,
        "n_compared": diff.n_compared,
        "presence_mismatches": list(diff.presence_mismatches),
        "class_mismatches": list(diff.class_mismatches),
    }
    if not _write_payload(json.dumps(payload, indent=2, sort_keys=True), args.out):
        return EXIT_INTERNAL
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
    p.add_argument("--config", help="key=value config file; flags override it")
    for key, (_, flag) in REPORT_OPTIONS.items():
        p.add_argument("--" + key.replace("_", "-"), **flag)
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
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception:  # pragma: no cover - defensive
        logging.exception("internal error")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

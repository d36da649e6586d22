"""Output checks: a run passes only if every one of them holds.

* the invocation exited 0 and wrote exactly the expected file set;
* every output file is byte-identical across all runs of the workload on
  the same inputs and program (the first run's hashes are remembered in the
  work directory);
* the numbers agree with what the input generator knows, for any seed;
* on the default seeds, report.json counts and validate counters equal the
  recorded references exactly, and correlations and class fractions match
  them within 1e-9 relative.
"""
from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Optional

from workloads import Workload, sha256_file

REFERENCES = Path(__file__).with_name("references.json")
REL_TOL = 1e-9


def output_hashes(out_dir: Path) -> dict[str, str]:
    return {p.name: sha256_file(p) for p in sorted(out_dir.iterdir()) if p.is_file()}


def _close(got, want, path: str, problems: list[str]) -> None:
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            problems.append(f"{path}: keys {sorted(got)} != {sorted(want)}")
            return
        for key in want:
            _close(got[key], want[key], f"{path}.{key}", problems)
    elif isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0):
            problems.append(f"{path}: {got!r} != {want!r} (rel tol {REL_TOL})")
    elif got != want or type(got) is not type(want):
        problems.append(f"{path}: {got!r} != {want!r}")


def reference_for(w: Workload, seed: int, scale: str) -> Optional[dict]:
    if scale != "full" or seed != w.default_seed or not REFERENCES.exists():
        return None
    return json.loads(REFERENCES.read_text()).get(w.name)


def _check_report(out_dir: Path, meta: dict, reference: Optional[dict], problems: list[str]) -> None:
    report = json.loads((out_dir / "report.json").read_text())
    counts = report["counts"]
    for key, want in meta["counts"].items():
        if counts.get(key) != want:
            problems.append(f"counts.{key}: {counts.get(key)!r} != generated {want!r}")
    for k, block in report["correlations"].items():
        for name in ("ms_vs_mef", "ms_vs_mer", "delta_vs_ms"):
            r = block[name]["r"]
            if r is not None and not -1.0 <= r <= 1.0:
                problems.append(f"correlations.{k}.{name}.r out of [-1, 1]: {r}")
    for kind, by_class in report["class_fractions"].items():
        for cls, frac in by_class.items():
            if frac["n_users"] and not math.isclose(
                frac["frac_moderate"] + frac["frac_hardline"], 1.0, rel_tol=1e-9
            ):
                problems.append(f"class_fractions.{kind}.{cls} do not sum to 1")
    if reference is not None:
        for section in ("counts", "correlations", "class_fractions"):
            _close(report[section], reference[section], section, problems)


def _check_validate(out_dir: Path, meta: dict, reference: Optional[dict], problems: list[str]) -> None:
    got = json.loads((out_dir / "validate.json").read_text())
    summary = {
        "ok": got["ok"],
        "counters": got["counters"],
        "n_dangling_retweets": got["n_dangling_retweets"],
        "n_dangling_authors": len(got["dangling_retweet_authors"]),
        "frac_events_with_scored_domain": got["frac_events_with_scored_domain"],
    }
    want = {key: meta[key] for key in summary if key != "ok"}
    want["ok"] = True
    _close(summary, want, "validate", problems)
    if reference is not None:
        _close(summary, reference, "validate(reference)", problems)


def check_outputs(
    w: Workload,
    returncode: int,
    out_dir: Path,
    meta: dict,
    reference: Optional[dict],
    known_hashes: Optional[dict[str, str]],
) -> tuple[list[str], dict[str, str]]:
    """Problems found (empty when the run passes) and the output hashes."""
    if returncode != 0:
        return [f"exit code {returncode}"], {}
    hashes = output_hashes(out_dir)
    if set(hashes) != w.expected_files:
        missing = sorted(w.expected_files - set(hashes))
        extra = sorted(set(hashes) - w.expected_files)
        return [f"file set differs: missing {missing}, unexpected {extra}"], hashes
    problems: list[str] = []
    if known_hashes is not None:
        problems += [
            f"{name} differs from an earlier run" for name in sorted(hashes)
            if hashes[name] != known_hashes.get(name)
        ]
    try:
        if w.command == "report":
            _check_report(out_dir, meta, reference, problems)
        else:
            _check_validate(out_dir, meta, reference, problems)
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"malformed output: {exc!r}")
    return problems, hashes

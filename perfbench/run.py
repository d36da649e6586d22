"""echoscope benchmark: end-to-end runs through the real CLI, plus a traced run.

    python3 perfbench/run.py --workload crit9 --seed 99 --seconds 5 --trace 0
    python3 perfbench/run.py --self-test

Load model: closed loop with one client. One ``echoscope`` child process runs
at a time, single-threaded and on one CPU at a time, against inputs generated
from ``--seed`` before any timing starts. With ``--trace 0`` the run measures
the set-up cost, then repeats the workload invocation until ``--seconds``
have passed (at least once) and reports medians. With ``--trace 1`` it makes
one untraced and one traced invocation and reports the per-layer metrics of
the traced one. Every invocation's outputs are checked (see checks.py); a
run that fails a check counts as failed and is never dropped.

Timings are scaled to a reference host speed: a probe spins on a second CPU
throughout, trading CPUs with the program (see hostspeed.py), and each time
is multiplied by the probe's rate over that invocation's window, as a share
of the reference rate. The ``norm_`` metrics, ``setup_s`` and the traced
run's layer times are scaled; the raw wall and CPU times and the speed factor
of every invocation are printed and kept in the record.

The program measured is the ``src/`` tree of the checkout this file sits in,
put on PYTHONPATH; the benchmark refuses to run if ``echoscope`` imports from
anywhere else. Inputs, outputs and result records live in ``.perfbench_work/``
at the checkout root. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import checks
import hostspeed
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

E2E_UNITS = {
    "setup_s": "s",
    "norm_wall_s": "s",
    "norm_cpu_s": "s",
    "peak_rss_mb": "MiB",
    "norm_records_per_s": "1/s",
    "output_mb": "MiB",
}
# printed beside the end-to-end metrics, unscaled
RAW_UNITS = {"setup_raw_s": "s", "wall_s": "s", "cpu_s": "s", "records_per_s": "1/s", "speed": "ratio"}
SETUP_SAMPLES = 3
INVOCATION_TIMEOUT_S = 150.0


class BenchError(Exception):
    """The benchmark cannot measure this checkout."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def pick_cpus() -> tuple[int, int]:
    """The program's CPU and the host-speed probe's, which they trade while the program runs."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        raise BenchError(f"needs two CPUs, one for the program and one for the speed probe; has {cpus}")
    return cpus[0], cpus[1]


def spawn(cmd: list[str], stderr_path: Path, probe: hostspeed.Probe) -> dict:
    """Run one child to completion; wall time from spawn to exit, rusage of that child."""
    with open(stderr_path, "wb") as err:
        start = probe.mark()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            with probe.sharing(proc.pid):
                _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        end = probe.mark()
    proc.returncode = os.waitstatus_to_exitcode(status)
    speed = probe.speed(start, end)
    wall, cpu = end[0] - start[0], usage.ru_utime + usage.ru_stime
    return {
        "rc": proc.returncode,
        "wall_s": wall,
        "cpu_s": cpu,
        "speed": speed,
        "norm_wall_s": wall * speed,
        "norm_cpu_s": cpu * speed,
        "peak_rss_mb": usage.ru_maxrss / 1024,
    }


def program_info() -> dict:
    """Where echoscope imports from, refusing anything outside this checkout's src/."""
    proc = subprocess.run(
        [sys.executable, "-c", "import echoscope, echoscope.cli; print(echoscope.__file__)"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=INVOCATION_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"cannot import echoscope from {SRC}:\n{proc.stderr[-1500:]}")
    where = Path(proc.stdout.strip()).resolve()
    if not where.is_relative_to(SRC.resolve()):
        raise BenchError(f"echoscope resolves to {where}, outside {SRC}")
    sys.path.insert(0, str(SRC))  # the input generators use echoscope.synth in-process
    import echoscope

    if not Path(echoscope.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"echoscope resolves to {echoscope.__file__} in the benchmark process")

    def version(dist: str):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    info = {
        "echoscope_file": str(where),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": None,
        "git_dirty": None,
    }
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT, capture_output=True, text=True)
        if top.returncode == 0 and Path(top.stdout.strip()).resolve() == ROOT:
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                   cwd=ROOT, capture_output=True, text=True)
            info["git_commit"] = head.stdout.strip() or None
            info["git_dirty"] = bool(dirty.stdout.strip())
    except OSError:
        pass  # no git here: the checkout is measured without a commit id
    return info


def program_key() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "echoscope").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def measure_setup(probe: hostspeed.Probe) -> list[dict]:
    """Fresh-interpreter start-up: import echoscope.cli and build its parser."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        r = spawn([sys.executable, "-m", "echoscope.cli", "--help"], WORK / "runs" / "setup.stderr", probe)
        if r["rc"] != 0:
            raise BenchError("echoscope --help failed")
        samples.append(r)
    return samples


class Session:
    """One benchmark run of one workload: its inputs, invocations and checks."""

    def __init__(self, w: workloads.Workload, seed: int, scale: str, info: dict, probe: hostspeed.Probe) -> None:
        self.w, self.seed, self.scale, self.info, self.probe = w, seed, scale, info, probe
        self.input_dir, self.meta = workloads.inputs_for(w, seed, scale, WORK, SRC)
        self.reference = checks.reference_for(w, seed, scale)
        key = hashlib.sha256(f"{program_key()}|{self.input_dir.name}|{w.flags[scale]}".encode())
        self.hash_file = WORK / "hashes" / f"{w.name}-{scale}-s{seed}-{key.hexdigest()[:16]}.json"
        self.known = json.loads(self.hash_file.read_text()) if self.hash_file.exists() else None
        self.samples: list[dict] = []
        self.problems: list[str] = []
        shutil.rmtree(WORK / "runs", ignore_errors=True)
        (WORK / "runs").mkdir(parents=True)

    def invoke(self, traced_json: Path | None = None) -> tuple[dict, Path]:
        """One checked invocation; its output directory is kept until the caller drops it."""
        out = WORK / "runs" / f"out{len(self.samples)}"
        argv = self.w.argv(self.input_dir.relative_to(ROOT), out.relative_to(ROOT), self.scale)
        if self.w.command == "validate":
            out.mkdir()
        if traced_json is None:
            cmd = [sys.executable, "-m", "echoscope.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(traced_json), "--", *argv]
        sample = spawn(cmd, WORK / "runs" / f"stderr{len(self.samples)}", self.probe)
        problems, hashes = checks.check_outputs(
            self.w, sample["rc"], out, self.meta, self.reference, self.known
        )
        if out.exists():
            sample["output_mb"] = sum(p.stat().st_size for p in out.iterdir()) / 2**20
        sample["records_per_s"] = self.meta["records"] / sample["wall_s"]
        sample["norm_records_per_s"] = self.meta["records"] / sample["norm_wall_s"]
        sample["ok"] = not problems
        if problems:
            tail = (WORK / "runs" / f"stderr{len(self.samples)}").read_text(errors="replace")[-1500:]
            self.problems += [f"run {len(self.samples)}: {p}" for p in problems]
            print(f"run {len(self.samples)} failed: {problems}\n{tail}", file=sys.stderr)
        elif self.known is None:
            self.known = hashes
            self.hash_file.parent.mkdir(parents=True, exist_ok=True)
            self.hash_file.write_text(json.dumps(hashes, indent=1, sort_keys=True))
        self.samples.append(sample)
        return sample, out

    def record(self, trace: int, metrics: dict, extra: dict) -> dict:
        failed = sum(1 for s in self.samples if not s["ok"])
        result = {
            "correct": failed == 0,
            "attempted": len(self.samples),
            "failed": failed,
            "metrics": metrics,
        }
        record = {
            "workload": self.w.name, "seed": self.seed, "scale": self.scale, "trace": trace,
            "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "program": self.info, "inputs": self.meta["files"], "records": self.meta["records"],
            "samples": self.samples, "problems": self.problems, "result": result, **extra,
        }
        out = WORK / "results" / f"{self.w.name}-{self.scale}-s{self.seed}-trace{trace}-{time.time_ns()}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(record, indent=1))
        return result


def run_untraced(s: Session, seconds: float) -> dict:
    setup = measure_setup(s.probe)
    t0 = time.perf_counter()
    while True:
        _, out = s.invoke()
        shutil.rmtree(out, ignore_errors=True)
        if time.perf_counter() - t0 >= seconds:
            break
    n = len(s.samples)
    samples = {"setup_s": [x["norm_wall_s"] for x in setup], "setup_raw_s": [x["wall_s"] for x in setup]}
    units = {**E2E_UNITS, **RAW_UNITS}
    for name in units:
        samples.setdefault(name, [x[name] for x in s.samples if name in x])
    medians = {name: statistics.median(values) if values else 0.0 for name, values in samples.items()}
    failed = sum(1 for x in s.samples if not x["ok"])
    print(f"{'metric':<20}{'value':>16}  {'unit':<6}{'n':>4}")
    for name, unit in units.items():
        print(f"{name:<20}{medians[name]:>16.6g}  {unit:<6}{len(samples[name]):>4}")
    print(f"{'fail_ratio':<20}{failed / n:>16.6g}  {'ratio':<6}{n:>4}")
    metrics = {name: {"value": medians[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    return s.record(0, metrics, {"setup_samples": setup})


def run_traced(s: Session) -> dict:
    plain, plain_out = s.invoke()
    trace_json = WORK / "runs" / "trace.json"
    traced, traced_out = s.invoke(trace_json)
    values = {name: 0.0 if unit == "s" else 0 for name, unit in tracer.LAYER_UNITS.items()}
    if traced["ok"] and trace_json.exists():
        trace = json.loads(trace_json.read_text())
        values = tracer.layer_metrics(trace, traced_out, traced["norm_wall_s"] - plain["norm_wall_s"])
        values.update(  # layer times at the reference host speed, like the end-to-end ones
            (name, values[name] * traced["speed"]) for name, unit in tracer.LAYER_UNITS.items()
            if unit == "s" and name != "trace.overhead_s"
        )
    shutil.rmtree(plain_out, ignore_errors=True)
    shutil.rmtree(traced_out, ignore_errors=True)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in tracer.LAYER_UNITS.items()}
    print(f"{'layer metric':<30}{'value':>16}  unit")
    for name, m in metrics.items():
        print(f"{name:<30}{m['value']:>16.6g}  {m['unit']}")
    return s.record(1, metrics, {})


def run(name: str, seed: int | None, seconds: float, trace: int, scale: str = "full") -> dict:
    w = workloads.WORKLOADS[name]
    info = program_info()  # before pinning, so it counts every CPU the benchmark may use
    allowed = os.sched_getaffinity(0)
    cpus = pick_cpus()
    os.sched_setaffinity(0, {cpus[0]})  # inherited by every child
    try:
        with hostspeed.Probe(cpus, WORK / "probe.counter") as probe:
            s = Session(w, w.default_seed if seed is None else seed, scale, info, probe)
            print(f"workload {w.name} seed {s.seed} scale {scale}: {w.why}")
            print(f"program {s.info['echoscope_file']} commit {s.info['git_commit']} dirty {s.info['git_dirty']}")
            print(f"program and speed probe on CPUs {cpus}, swapping every {hostspeed.SWAP_S} s")
            result = run_traced(s) if trace else run_untraced(s, seconds)
    finally:
        os.sched_setaffinity(0, allowed)
    for problem in s.problems:
        print(f"check failed: {problem}")
    return result


def self_test() -> int:
    """Tiny-scale generate -> run -> check -> trace for every workload."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            result = run(name, None, 0.0, trace, scale="tiny")
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != want[trace]:
                failures.append(f"{name} trace {trace}: metrics {got} != BENCHMARK.json {want[trace]}")
            if not result["correct"]:
                failures.append(f"{name} trace {trace}: {result['failed']} of {result['attempted']} runs failed")
    print("\n".join(failures) or "self-test passed")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, help="input seed (default: the workload's reference seed)")
    parser.add_argument("--seconds", type=float, default=5.0, help="minimum measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="tiny-scale check of every workload")
    args = parser.parse_args()
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        if args.seed is not None and args.seed < 0:
            parser.error("--seed must be >= 0")
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

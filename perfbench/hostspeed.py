"""Host-speed probe: a fixed pure-Python loop spinning on a CPU of its own.

The benchmark runs on a few CPUs of a shared host, and the speed of a fixed
loop there swings by 30-60% as other tenants come and go, in phases of
10-30 s. That is as long as one invocation of a workload, so taking more
invocations does not average it away. The benchmark therefore runs the
program under test on one CPU and this probe on another, reads the probe's
counter at the start and the end of each invocation, and scales the
invocation's times by the probe's rate over exactly that window divided by
``REF_RATE``. A timing scaled this way reads what it would on a host where
the probe runs at ``REF_RATE``; the raw times are kept beside it.

Each CPU has phases of its own, so while an invocation runs the program and
the probe swap CPUs every ``SWAP_S``: over the window both spend equal time
on each CPU, and the probe's rate is the speed the program saw.

The probe is a child process that counts in an 8-byte file both processes
map; it stops by itself if the benchmark process goes away.
"""
from __future__ import annotations

import contextlib
import ctypes
import mmap
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

CHUNK = 1_000  # loop iterations per counter increment, about 0.1 ms
# chunks per second: about the probe's rate on a 2.1 GHz Xeon vCPU, between
# the rates of that host's busy and quiet phases (8,700 and 13,800)
REF_RATE = 10_000.0
PARENT_CHECK = 5_000  # chunks between checks that the benchmark is still alive
START_TIMEOUT_S = 60.0
SWAP_S = 0.25


def _spin(counter: ctypes.c_uint64, cpu: int, parent: int) -> None:
    os.sched_setaffinity(0, {cpu})
    while os.getppid() == parent:
        for _ in range(PARENT_CHECK):
            s = 0
            for i in range(CHUNK):
                s += i * i % 7
            counter.value += 1


def _pin_threads(pid: int, cpu: int) -> None:
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except FileNotFoundError:
        return  # the process has ended
    for tid in tids:
        with contextlib.suppress(ProcessLookupError):
            os.sched_setaffinity(int(tid), {cpu})


class Probe:
    """The probe process, from entering the ``with`` block to leaving it.

    ``cpus`` are the program's CPU and the probe's, in that order; the
    benchmark process is expected to be pinned to the first already.
    """

    def __init__(self, cpus: tuple[int, int], counter_path: Path) -> None:
        self.cpus, self.path = cpus, counter_path

    def __enter__(self) -> "Probe":
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_bytes(bytes(8))
        with open(self.path, "r+b") as fh:
            self.map = mmap.mmap(fh.fileno(), 8)
        self.counter = ctypes.c_uint64.from_buffer(self.map)
        self.proc = subprocess.Popen(
            [sys.executable, __file__, str(self.cpus[1]), str(self.path), str(os.getpid())]
        )
        deadline = time.monotonic() + START_TIMEOUT_S
        try:
            while self.counter.value == 0:
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError("the host-speed probe did not start")
                time.sleep(0.01)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        del self.counter  # the map cannot close while the counter views it
        self.map.close()

    @contextlib.contextmanager
    def sharing(self, pid: int):
        """Swap the CPUs of process ``pid`` and of the probe every SWAP_S until the block ends."""
        stop = threading.Event()

        def swap() -> None:
            k = 0
            while not stop.wait(SWAP_S):
                k ^= 1
                _pin_threads(pid, self.cpus[k])
                os.sched_setaffinity(self.proc.pid, {self.cpus[1 - k]})

        swapper = threading.Thread(target=swap, daemon=True)
        swapper.start()
        try:
            yield
        finally:
            stop.set()
            swapper.join()
            os.sched_setaffinity(self.proc.pid, {self.cpus[1]})

    def mark(self) -> tuple[float, int]:
        return time.perf_counter(), self.counter.value

    @staticmethod
    def speed(start: tuple[float, int], end: tuple[float, int]) -> float:
        """The probe's rate between two marks, as a share of REF_RATE."""
        (t0, n0), (t1, n1) = start, end
        return (n1 - n0) / (t1 - t0) / REF_RATE


if __name__ == "__main__":
    cpu, path, parent = int(sys.argv[1]), sys.argv[2], int(sys.argv[3])
    with open(path, "r+b") as fh:
        shared = mmap.mmap(fh.fileno(), 8)
    _spin(ctypes.c_uint64.from_buffer(shared), cpu, parent)

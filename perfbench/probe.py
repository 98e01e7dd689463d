"""Speed probe: measures how fast the ops' CPU runs while the ops run on it.

The benchmark's host is shared with other tenants, and a CPU-bound loop on it
runs up to 2x slower in spells that last from under a second to tens of
seconds. An op's wall or CPU time alone therefore measures the host as much as
the program. The probe runs a fixed unit of pure-Python ``Fraction``
arithmetic in a loop, in a forked process at nice 19 pinned to the CPU the ops
are pinned to. While an op runs, the scheduler gives the probe about 1.5% of
that CPU in short slices between the op's own, so the probe's units per
CPU-second track the speed the op ran at. After each unit it publishes its
unit count and its CPU time in shared memory, and the harness reads them
when each op starts and ends.

``stop`` turns that into a scale: an op's CPU time times the factor is the
CPU time it would have taken with the probe running at ``REFERENCE_RATE``.
The probe's work does not depend on the program, so a program change moves
the scaled time as it moves the CPU time.
"""

from __future__ import annotations

import mmap
import os
import signal
import struct
import time
from fractions import Fraction

# Probe units per CPU-second that count as the reference speed, chosen so
# that scaled times come out close to the CPU times of the fast spells of
# the baseline machine (a 2.0 GHz Xeon vCPU, Python 3.11).
REFERENCE_RATE = 16000.0
# A rate measured over fewer units than this takes in earlier ops too.
MIN_UNITS = 32


_RECORD = struct.Struct("qq")  # units done, CPU ns at the end of the last unit
_TERMS = tuple(Fraction(i + 1, 2 * i + 3) for i in range(16))


def _unit() -> Fraction:
    acc = Fraction(0)
    for term in _TERMS:
        acc += term * term
    return acc


class SpeedProbe:
    """Context manager that runs the probe process; ``cpu`` is where ops must run."""

    def __init__(self) -> None:
        self._allowed = os.sched_getaffinity(0)
        allowed = sorted(self._allowed)
        self.cpu = allowed[-1]
        # the harness keeps off the ops' CPU when it has another one
        self._harness_cpus = set(allowed[:-1]) or {self.cpu}
        self._shm = mmap.mmap(-1, _RECORD.size)
        self._pid = 0
        self._start = (0, 0)
        # (units, CPU ns) the probe did during each op; the first entry is
        # its start-up, alone on the CPU, which only the first ops fall back on
        self._intervals: list[tuple[int, int]] = []

    def __enter__(self) -> SpeedProbe:
        self._pid = os.fork()
        if self._pid == 0:
            try:
                self._loop(os.getppid())
            finally:
                os._exit(0)
        os.sched_setaffinity(0, self._harness_cpus)
        while _RECORD.unpack_from(self._shm)[0] < MIN_UNITS:
            time.sleep(0.001)
        self._intervals.append(self._read())
        return self

    def __exit__(self, *exc) -> None:
        os.kill(self._pid, signal.SIGKILL)
        os.waitpid(self._pid, 0)
        os.sched_setaffinity(0, self._allowed)
        self._shm.close()

    def _loop(self, parent: int) -> None:
        os.nice(19)
        os.sched_setaffinity(0, {self.cpu})
        shm, pack_into, cpu_ns = self._shm, _RECORD.pack_into, time.thread_time_ns
        units = 0
        while True:
            _unit()
            units += 1
            pack_into(shm, 0, units, cpu_ns())
            if units % 256 == 0 and os.getppid() != parent:
                return  # the harness died without stopping the probe

    def _read(self) -> tuple[int, int]:
        while True:
            first = _RECORD.unpack_from(self._shm)
            if _RECORD.unpack_from(self._shm) == first:  # not torn by a concurrent write
                return first

    def start(self) -> None:
        """Call once the op's process runs on ``cpu``."""
        self._start = self._read()

    def stop(self) -> float:
        """Call just after the op ends; return the probe rate during it over REFERENCE_RATE.

        When the probe did fewer than MIN_UNITS units during the op, the
        earlier ops are taken in as well, back to the MIN_UNITS units, so a
        short op is not scaled by a count of a few units. The time between
        ops, when the probe runs alone, is never taken in.
        """
        units, cpu_ns = self._read()
        self._intervals.append((units - self._start[0], cpu_ns - self._start[1]))
        done = spent = 0
        for op_units, op_ns in reversed(self._intervals):
            done += op_units
            spent += op_ns
            if done >= MIN_UNITS:
                break
        return done / (spent / 1e9) / REFERENCE_RATE

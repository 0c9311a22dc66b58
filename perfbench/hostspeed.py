"""Host-speed calibration interleaved with a timed stretch of work.

The benchmark runs on shared cores whose speed switches between a fast
and a slower mode (about 1.45x apart) for a second to minutes at a
time, because of other tenants' load. Process time tracks wall time,
so neither clock can tell the program's cost from the host's state,
and whole runs can fall in one mode.

:class:`HostClock` therefore runs a fixed pure-Python calibration pass
at the start and end of every stretch of work, and between stretches
at call boundaries the capture hooks mark (at most every
:data:`INTERVAL_S`). Each stretch's seconds are scaled by
:data:`REFERENCE_S` over the mean of the calibrations on either side,
giving *reference seconds*: what the stretch would take at the speed
where the loop takes :data:`REFERENCE_S`. The calibrations themselves
are not counted.
"""

from __future__ import annotations

import time

#: Steps of one calibration pass.
STEPS = 1_500

#: Seconds one pass takes at the reference speed: its fast-mode time
#: between stretches of simulator work on the 2.0 GHz Intel Xeon VM the
#: benchmark was tuned on, so reference seconds read close to host
#: seconds there.
REFERENCE_S = 0.3e-3

#: Least seconds of work between two calibrations.
INTERVAL_S = 0.05


class _Op:
    __slots__ = ("kind", "dst", "src")

    def __init__(self, kind: str, dst: int, src: int) -> None:
        self.kind = kind
        self.dst = dst
        self.src = src


#: A fixed 64-operation program for the toy register machine.
_KINDS = ("add", "sub", "mul", "jmp", "ld", "st")
_PROGRAM = tuple(
    _Op(_KINDS[index * 7 % 6], index % 8, index * 3 % 8) for index in range(64)
)


def calibrate() -> float:
    """Seconds of one calibration pass: :data:`STEPS` steps of a toy
    register machine (string dispatch, slotted operands, a dict for
    memory), interpreted the way the simulator interprets traces.
    Regressing ``wear_aware_spec`` repetition times on the calibration
    times gave this pass a slope of 1.0-1.2, so its slowdown tracks the
    simulator's. A tight arithmetic loop and a pointer chase gave
    1.3-1.5: the simulator slowed more than they did."""
    started = time.perf_counter()
    registers = [1] * 8
    memory: dict[int, int] = {}
    for step in range(STEPS):
        op = _PROGRAM[step % 64]
        kind = op.kind
        if kind == "add":
            registers[op.dst] = (registers[op.dst] + registers[op.src]) & 0xFFFF
        elif kind == "sub":
            registers[op.dst] = (registers[op.dst] - registers[op.src]) & 0xFFFF
        elif kind == "mul":
            registers[op.dst] = (registers[op.dst] * 3 + 1) & 0xFFFF
        elif kind == "ld":
            registers[op.dst] = memory.get(registers[op.src] & 0xFF, step)
        elif kind == "st":
            memory[registers[op.dst] & 0xFF] = registers[op.src]
        else:
            registers[op.src] ^= step
    return time.perf_counter() - started


class HostClock:
    """Times the work inside a ``with`` block, calibrating the host's
    speed around it and at :meth:`mark` calls.

    ``seconds`` is the block's host time without the calibrations;
    ``reference_seconds`` is the same time at the reference speed.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self.reference_seconds = 0.0
        self.calibrations = 0
        self._speed = 0.0
        self._started = 0.0

    def __enter__(self) -> "HostClock":
        self._speed = calibrate()
        self._started = time.perf_counter()
        return self

    def mark(self) -> None:
        """A call boundary: close the stretch if it is long enough."""
        now = time.perf_counter()
        if now - self._started >= INTERVAL_S:
            self._close(now)
            self._started = time.perf_counter()

    def __exit__(self, *exc) -> None:
        self._close(time.perf_counter())

    def _close(self, now: float) -> None:
        speed = calibrate()
        work = now - self._started
        self.seconds += work
        self.reference_seconds += work * 2 * REFERENCE_S / (self._speed + speed)
        self.calibrations += 1
        self._speed = speed

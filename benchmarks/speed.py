"""Times at a reference machine speed.

The benchmark's host is a share of a machine whose speed moves by a quarter
or more over seconds to minutes (a fixed pure-Python loop: 70 to 130 ms in
one 40 s stretch, in CPU time as in wall time).  A time measured there says
as much about the neighbours as about the program.  So the benchmark runs a
fixed calibration loop, which does not touch the program, every
``EVERY_S`` seconds between commands, and reports each command's time
scaled by ``REF_MS / calibration`` where the calibration is the mean of the
samples taken just before and just after the command.  The result is the
command's time on a machine where the calibration loop takes ``REF_MS``;
the program's own speed-ups and slow-downs pass through unchanged, the
machine's do not.  Raw wall times are kept beside the scaled ones.
"""

from __future__ import annotations

import argparse
import bisect
import time

REF_MS = 1.1  # the calibration loop's typical time on the baseline's host
EVERY_S = 0.05
REPEATS = 5  # a sample is the fastest of this many loops


def calibration_loop() -> None:
    """Build a command-line parser with subcommands and parse one argv.

    Generic interpreter work (classes, small dicts and lists, strings,
    regular expressions) that tracks both the shortest and the longest
    commands across changes of machine speed better than arithmetic or
    allocation loops, which move more than the commands do.
    """
    parser = argparse.ArgumentParser(prog="calibrate")
    sub = parser.add_subparsers(dest="command")
    for name in ("alpha", "beta", "gamma", "delta", "epsilon", "zeta"):
        cmd = sub.add_parser(name, help=f"the {name} command")
        cmd.add_argument("path")
        cmd.add_argument("--n", type=int, default=2)
        cmd.add_argument("--json", action="store_true")
    parser.parse_args(["gamma", "in.json", "--n", "3", "--json"])


class Meter:
    """Calibration samples on one timeline, and scaling against them."""

    def __init__(self):
        self.at: list[float] = []  # perf_counter at the end of each sample
        self.ms: list[float] = []
        self.spent = 0.0  # seconds spent calibrating

    def sample(self) -> None:
        start = time.perf_counter()
        best = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            calibration_loop()
            best = min(best, time.perf_counter() - t0)
        now = time.perf_counter()
        self.at.append(now)
        self.ms.append(best * 1e3)
        self.spent += now - start

    def maybe_sample(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= EVERY_S:
            self.sample()

    def scaled(self, start: float, seconds: float) -> float:
        """``seconds`` from ``start`` on, at the reference speed.

        Uses the last sample before ``start`` and the first one after the
        interval; call :meth:`sample` once after the last interval.
        """
        i = bisect.bisect_right(self.at, start) - 1
        j = bisect.bisect_left(self.at, start + seconds)
        around = [self.ms[k] for k in {max(i, 0), min(j, len(self.ms) - 1)}]
        return seconds * REF_MS * len(around) / sum(around)

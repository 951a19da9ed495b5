"""Timing at a reference machine speed, and the record of one operation.

The machine the benchmark runs on is shared: its speed drifts by up to a
third over a few seconds as other tenants come and go, which moves a plain
median by 10-35% from one run to the next. So every timed piece of work (a
set-up, or one step of an operation) runs between calibrate() calls, and its
time is also reported at a reference speed: multiplied by CALIBRATION_REF_S
over the mean calibrate() time of its set-up or operation. The benchmark reports
both; its JSON result carries the scaled figures, all but the latency tail
(see end_to_end in run.py).
"""

import time
from dataclasses import dataclass, field

import numpy as np

CALIBRATION_REF_S = 0.01  # about calibrate()'s time on one idle core of a 2-vCPU Xeon

now = time.perf_counter


def calibrate():
    """Time a fixed mix of interpreter and small-array numpy work."""
    t = now()
    total = 0
    for i in range(100_000):
        total += i * i
    a = np.ones(13)
    for _ in range(2500):
        a = np.logaddexp(a, a[::-1]) - 0.5
    return now() - t


def calibrated(fn, *args):
    """fn(*args), its wall time, and the factor that scales it to the reference speed."""
    before = calibrate()
    t = now()
    value = fn(*args)
    seconds = now() - t
    after = calibrate()
    return value, seconds, CALIBRATION_REF_S / ((before + after) / 2)


@dataclass
class OpResult:
    """Timings, outputs and failures of one operation.

    Each piece of the operation runs between calibrate() calls; the whole
    operation's times are scaled by one factor, CALIBRATION_REF_S over the
    mean of those calibrations. One factor per operation (a second or two)
    is steadier than one per piece: a single calibrate() is itself noisy,
    and the machine's speed changes over seconds, not milliseconds.
    """

    index: int
    timings: dict = field(default_factory=dict)  # name -> (raw seconds, units)
    latencies: list = field(default_factory=list)  # raw seconds per single-sentence call
    busy: float = 0.0  # raw seconds inside timed pieces
    dev_f1: float = float("nan")
    attempted: int = 0
    failures: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)  # what check() inspects
    calibrations: list = field(default_factory=list)

    def timed(self, name, units, fn, *args):
        """Run one piece of the operation between calibrate() runs and add its
        time and units to timings[name] (name None: time it, record nothing)."""
        if not self.calibrations:
            self.calibrations.append(calibrate())
        t = now()
        value = fn(*args)
        seconds = now() - t
        self.calibrations.append(calibrate())
        self.busy += seconds
        if name is not None:
            raw, count = self.timings.get(name, (0.0, 0))
            self.timings[name] = (raw + seconds, count + units)
        return value

    @property
    def scale(self):
        """Factor that takes this operation's raw times to the reference speed."""
        if not self.calibrations:
            return 1.0
        return CALIBRATION_REF_S * len(self.calibrations) / sum(self.calibrations)

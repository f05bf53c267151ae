"""The benchmark's workloads: which relufreq CLI invocations make one unit of work.

Every workload is a closed loop of in-process ``relufreq.cli.run(argv)``
calls: the next invocation starts when the previous one has returned and its
artifacts have been checked. A unit is the fixed amount of work whose wall
time is reported; a run repeats units until its time is used up. Seeds
cycle through ``cycle`` consecutive values starting at the workload seed, so
a run revisits each seed and the digests recorded for the default seed cover
every invocation a run can make.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

DEFAULT_SEED = 0

# The train-compare dataset: 3 classes x 300 samples, mini-batches of 32.
TRAIN_SAMPLES = 900
BATCH_SIZE = 32
VARIANTS = 3

Argv = List[str]


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: int
    unit: Callable[[int], List[Argv]]  # seed of this unit -> invocations
    warmup: Callable[[int], List[Argv]]  # workload seed -> untimed invocations

    def unit_at(self, seed: int, index: int) -> List[Argv]:
        return self.unit(seed + index % self.cycle)


def _train_compare(reps: int, epochs: int) -> Callable[[int], List[Argv]]:
    def unit(seed: int) -> List[Argv]:
        return [
            ["train-compare", "--reps", str(reps), "--epochs", str(epochs), "--seed", str(seed)]
        ]

    return unit


def _analysis_sweep(seed: int) -> List[Argv]:
    return [
        ["approx"],
        ["proto", "--kind", "dif"],
        ["proto", "--kind", "avg"],
        ["heart-demo"],
        ["zero-train", "--seed", str(seed)],
    ]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("train_compare", 4, _train_compare(2, 50), _train_compare(1, 1)),
        Workload("train_short", 8, _train_compare(2, 2), _train_compare(1, 1)),
        Workload("analysis_sweep", 8, _analysis_sweep, _analysis_sweep),
    )
}


def flag(argv: Argv, name: str) -> Optional[str]:
    return argv[argv.index(name) + 1] if name in argv else None


def model_steps(argv: Argv) -> int:
    """Optimizer steps a train-compare invocation performs, from its flags alone."""
    if argv[0] != "train-compare":
        return 0
    reps, epochs = int(flag(argv, "--reps")), int(flag(argv, "--epochs"))
    return reps * VARIANTS * epochs * math.ceil(TRAIN_SAMPLES / BATCH_SIZE)

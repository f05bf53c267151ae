import numpy as np
import pytest

from relufreq import trainer


@pytest.fixture
def sequential_repetitions():
    """The reference for run_comparison: _run_repetition looped in this process over its seeds.

    Returns a function of run_comparison's arguments that gives one
    {variant name: TrainingRecord} dict per repetition, in row order.
    """

    def run(n_repetitions, base_seed, epochs, spec):
        master = np.random.Generator(np.random.PCG64(base_seed))
        seeds = master.integers(0, 2**31 - 1, size=(n_repetitions, 1 + 2 * len(trainer.VARIANTS)))
        offsets = np.array([trainer.DEFAULT_DC_LEVELS[c] for c in range(spec.n_classes)])
        archs = {
            name: trainer._comparison_architecture(activation, spec)
            for name, (activation, _) in trainer.VARIANTS.items()
        }
        return [trainer._run_repetition(spec, offsets, archs, epochs, row) for row in seeds]

    return run

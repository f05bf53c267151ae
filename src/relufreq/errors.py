"""Exception types shared across the package."""


class ReluFreqError(Exception):
    """Base class for all relufreq errors."""


class AliasingError(ReluFreqError):
    """A tone frequency is at or above the Nyquist frequency."""


class EmptyToneError(ReluFreqError):
    """A multi-tone with no tones was used where content is required."""


class ZeroReferenceError(ReluFreqError):
    """The reference signal of a relative error metric has zero norm."""


class DegenerateInputError(ReluFreqError):
    """The input leaves the requested quantity undefined.

    All tone amplitudes are zero, so the mean power is not positive; or
    two classes share a mean DC, so a nearest-prototype accuracy would
    measure only how ties are broken.
    """


class DivergenceError(ReluFreqError):
    """A series or a training run produced a non-finite value."""

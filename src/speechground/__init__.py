"""Speech decoding and grounding numerics toolkit."""

import importlib

from .errors import DataError, NumericError, SpeechGroundError, UsageError

__version__ = "0.1.0"

__all__ = [
    "DataError", "NumericError", "SpeechGroundError", "UsageError",
    "__version__", "ctc", "decode", "dsp", "fft", "grounding", "lm",
    "metrics", "selfsup",
]


def __getattr__(name):  # PEP 562: each submodule loads on first use
    # only names not bound above get here, so the ones in __all__ are submodules
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return importlib.import_module(f".{name}", __name__)

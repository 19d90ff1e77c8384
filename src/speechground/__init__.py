"""Speech decoding and grounding numerics toolkit."""

import importlib

from . import ctc, decode, dsp, fft, lm, metrics
from .errors import DataError, NumericError, SpeechGroundError, UsageError

__version__ = "0.1.0"

__all__ = [
    "DataError", "NumericError", "SpeechGroundError", "UsageError",
    "__version__", "ctc", "decode", "dsp", "fft", "grounding", "lm",
    "metrics", "selfsup",
]


def __getattr__(name):  # PEP 562: grounding and selfsup load on first use
    if name not in ("grounding", "selfsup"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return importlib.import_module(f".{name}", __name__)

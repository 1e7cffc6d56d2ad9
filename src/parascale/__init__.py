"""Saturation-corrected parallel-scaling model and benchmark analysis.

``import parascale`` loads the model core only (:mod:`parascale.model` and
:mod:`parascale.contributions`).  The names from :mod:`parascale.ingest`
load on first use, so a program that never reads a dataset never imports
the CSV parser.
"""

from .contributions import (AlphaDecomposition, MachineModel, ModelDomainError,
                            PeakPoint, alpha_os, alpha_total, analytic_peak_n,
                            peak_point, preset, rmax_of_rpeak)
from .model import (ParallelSystem, PerformancePoint, RelativisticParams,
                    alpha_from_measurement, classic_speed, classic_total_perf,
                    efficiency, efficiency_from_nonparallel, modern_total_perf,
                    relativistic_speed, saturation_limit)

__version__ = "0.1.0"

__all__ = [
    "AlphaDecomposition", "DerivedRecord", "MachineModel", "MachineRecord",
    "ModelDomainError", "ParallelSystem", "ParseError", "PeakPoint",
    "PerformancePoint", "RelativisticParams", "TimelineEntry",
    "alpha_from_measurement", "alpha_os", "alpha_total", "analytic_peak_n",
    "classic_speed", "classic_total_perf", "derive", "efficiency",
    "efficiency_from_nonparallel", "modern_total_perf", "parse_records",
    "peak_point", "preset", "relativistic_speed", "rmax_of_rpeak",
    "saturation_limit", "serialize_records", "timeline",
]


def __getattr__(name):  # PEP 562: runs only for a name not bound above
    # the names of __all__ bound above are the model core's; the rest are ingest's
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import ingest
    globals()[name] = value = getattr(ingest, name)  # later lookups skip this
    return value


def __dir__():
    return sorted({*globals(), *__all__})

"""Saturation-corrected parallel-scaling model and benchmark analysis."""

from .contributions import (AlphaDecomposition, MachineModel, ModelDomainError,
                            PeakPoint, alpha_os, alpha_total, analytic_peak_n,
                            peak_point, preset, rmax_of_rpeak)
from .ingest import (DerivedRecord, MachineRecord, ParseError, TimelineEntry,
                     derive, parse_records, serialize_records, timeline)
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

"""The four workloads by name."""

from __future__ import annotations

from .w_cli import CliCalls
from .w_oracles import OracleChecks
from .w_risk import RiskQueries
from .w_sweeps import FigureSweeps

CLASSES = {cls.NAME: cls for cls in (RiskQueries, FigureSweeps, OracleChecks, CliCalls)}


def make(name: str, seed: int, smoke: bool = False):
    if name not in CLASSES:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(CLASSES)}")
    return CLASSES[name](seed, smoke=smoke)

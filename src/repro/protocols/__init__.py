"""Baseline protocols the paper compares against."""

from repro.protocols.benor import BenOrProcess, run_benor
from repro.protocols.cr_avss import EpsilonAVSSCoin, EpsilonCoinOracle, cr_coin

__all__ = [
    "BenOrProcess",
    "EpsilonAVSSCoin",
    "EpsilonCoinOracle",
    "cr_coin",
    "run_benor",
]

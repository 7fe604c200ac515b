"""First-order radio energy model with a free-space/multipath crossover.

Transmitting k bits over distance d costs e_elect*k + eps_fs*k*d^2 below the
crossover distance d0 = sqrt(eps_fs/eps_mp) and e_elect*k + eps_mp*k*d^4 at or
beyond it; the two branches meet continuously at d0. Receiving costs
e_elect*k, and aggregating costs e_da*k per message.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class RadioParams:
    """Radio constants: joule costs per bit and the packet size in bits."""

    e_elect: float = 50e-9      # J/bit, transmit/receive electronics
    e_da: float = 5e-9          # J/bit/message, aggregation
    eps_fs: float = 10e-12      # J/bit/m^2, free-space amplifier
    eps_mp: float = 0.0013e-12  # J/bit/m^4, multipath amplifier
    packet_bits: int = 4000

    def __post_init__(self) -> None:
        for name in ("e_elect", "e_da", "eps_fs", "eps_mp", "packet_bits"):
            if not 0 < getattr(self, name) <= sys.float_info.max:
                raise ConfigurationError(f"radio parameter {name} must be > 0 and a finite float")

    @property
    def d0(self) -> float:
        """Crossover distance between the d^2 and d^4 amplifier regimes."""
        return math.sqrt(self.eps_fs / self.eps_mp)


def tx_energy(p: RadioParams, k: int, d: float | np.ndarray) -> float | np.ndarray:
    """Energy to transmit k bits over distance d meters.

    ``d`` is a float or a numpy array of distances. An array is priced
    element by element, bitwise equal to pricing each distance alone.
    """
    if isinstance(d, np.ndarray):
        if np.any(d < 0):
            raise ValueError("distances must be >= 0")
        # In place, in the scalar branches' order c1 + ((c2·d)·d), so the
        # temporaries are two arrays of d's size and a mask.
        fs = p.eps_fs * k * d
        fs *= d
        fs += p.e_elect * k
        mp = p.eps_mp * k * d
        mp *= d
        mp *= d
        mp *= d
        mp += p.e_elect * k
        np.copyto(mp, fs, where=d < p.d0)
        return mp
    if d < 0:
        raise ValueError(f"distance must be >= 0, got {d}")
    if d < p.d0:
        return p.e_elect * k + p.eps_fs * k * d * d
    return p.e_elect * k + p.eps_mp * k * d * d * d * d


def rx_energy(p: RadioParams, k: int) -> float:
    """Energy to receive k bits."""
    return p.e_elect * k


def aggregation_energy(p: RadioParams, k: int, n_messages: int) -> float:
    """Energy to aggregate n_messages of k bits each."""
    if n_messages < 0:
        raise ValueError(f"message count must be >= 0, got {n_messages}")
    return p.e_da * k * n_messages

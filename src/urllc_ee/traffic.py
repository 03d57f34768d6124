"""Effective bandwidth of the Poisson arrival process.

The effective bandwidth is the minimal constant service rate (packets/frame)
that keeps the probability of exceeding a queueing-delay bound of
``delay_frames`` frames below ``eps_q``.
"""

from __future__ import annotations

import math


def effective_bandwidth(lam: float, eps_q: float, delay_frames: int) -> float:
    """Poisson effective bandwidth in packets/frame.

    E = ln(1/eps_q) / (D * ln(1 + ln(1/eps_q) / (lam * D))) with D the delay
    bound in frames.  Tends to lam as eps_q -> 1 and exceeds lam otherwise.
    """
    if lam <= 0:
        raise ValueError("arrival rate must be positive")
    if not (0.0 < eps_q < 1.0):
        raise ValueError("eps_q must lie strictly in (0, 1)")
    if delay_frames < 1:
        raise ValueError("delay_frames must be at least 1")
    big_l = -math.log(eps_q)
    return big_l / (delay_frames * math.log1p(big_l / (lam * delay_frames)))

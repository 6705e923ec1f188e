"""blackscholes — Black–Scholes option pricing (PARSEC financial kernel).

The input portfolio is highly redundant, mirroring the paper's observation
about the simlarge input set: the underlying asset price takes only four
distinct values, two of which cover over 98 % of the options; strikes,
volatilities and times similarly come from small discrete sets. The option
parameters are annotated approximate (they are read repeatedly but never
updated), and each option's price is computed with the closed-form
Black–Scholes formula.

Output error (Section IV-A): the percentage of option prices whose relative
error versus precise execution exceeds 1 %.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from repro.sim.frontend import MemoryFrontend
from repro.workloads.base import Workload

#: Spot prices: two dominant values (98 %) plus two rare outliers — the
#: distribution the paper reports for simlarge.
_SPOTS = np.array([100.0, 98.0, 42.0, 173.0])
_SPOT_PROBS = np.array([0.55, 0.43, 0.01, 0.01])
_STRIKES = np.array([90.0, 95.0, 100.0, 105.0, 110.0, 120.0])
_VOLS = np.array([0.20, 0.22, 0.35, 0.50])
_TIMES = np.array([0.25, 0.5, 1.0, 2.0])
_RATE = 0.02


def _cdf(x: float) -> float:
    """Standard normal CDF via the error function."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def black_scholes_price(
    spot: float, strike: float, rate: float, vol: float, time: float, is_call: bool
) -> float:
    """Closed-form Black–Scholes price of a European option."""
    spot = max(spot, 1e-9)
    strike = max(strike, 1e-9)
    vol = max(vol, 1e-6)
    time = max(time, 1e-6)
    sigma_rt = vol * math.sqrt(time)
    d1 = (math.log(spot / strike) + (rate + 0.5 * vol * vol) * time) / sigma_rt
    d2 = d1 - sigma_rt
    if is_call:
        return spot * _cdf(d1) - strike * math.exp(-rate * time) * _cdf(d2)
    return strike * math.exp(-rate * time) * _cdf(-d2) - spot * _cdf(-d1)


class Blackscholes(Workload):
    """Price a portfolio of European options with annotated inputs."""

    name = "blackscholes"
    float_data = True
    workload_id = 1

    def default_params(self) -> dict:
        return {
            "n_options": 4096,
            #: Non-load instructions per option (calibrates MPKI towards the
            #: paper's Table I figure of ~0.9 for precise execution).
            "compute_cost": 620,
        }

    @staticmethod
    def small_params() -> dict:
        return {"n_options": 256, "compute_cost": 620}

    def run(self, mem: MemoryFrontend, rng: np.random.Generator) -> List[float]:
        n = self.params["n_options"]
        cost = self.params["compute_cost"]

        spots = rng.choice(_SPOTS, size=n, p=_SPOT_PROBS)
        strikes = rng.choice(_STRIKES, size=n)
        vols = rng.choice(_VOLS, size=n)
        times = rng.choice(_TIMES, size=n)
        is_call = rng.random(n) < 0.5

        region_spot = mem.space.alloc("spot", n)
        region_strike = mem.space.alloc("strike", n)
        region_vol = mem.space.alloc("vol", n)
        region_time = mem.space.alloc("time", n)
        region_type = mem.space.alloc("otype", n)
        options = zip(
            spots.tolist(), strikes.tolist(), vols.tolist(), times.tolist(),
            is_call.tolist(),
        )
        for i, (spot, strike, vol, time, call) in enumerate(options):
            mem.store(region_spot.addr(i), spot)
            mem.store(region_strike.addr(i), strike)
            mem.store(region_vol.addr(i), vol)
            mem.store(region_time.addr(i), time)
            mem.store(region_type.addr(i), int(call))

        pc_spot = self.pcs.site("load_spot")
        pc_strike = self.pcs.site("load_strike")
        pc_vol = self.pcs.site("load_vol")
        pc_time = self.pcs.site("load_time")
        pc_type = self.pcs.site("load_otype")

        load = mem.load
        load_approx = mem.load_approx
        advance = mem.advance
        prices: List[float] = []
        for i in range(n):
            mem.set_thread(i % self.threads)
            spot = load_approx(pc_spot, region_spot.addr(i))
            strike = load_approx(pc_strike, region_strike.addr(i))
            vol = load_approx(pc_vol, region_vol.addr(i))
            time = load_approx(pc_time, region_time.addr(i))
            # The option type drives control flow, so it is loaded precisely
            # (Section IV: never approximate data that directly steers
            # control flow).
            call = load(pc_type, region_type.addr(i))
            advance(cost)
            prices.append(
                black_scholes_price(spot, strike, _RATE, vol, time, bool(call))
            )
        return prices

    def output_error(self, precise: List[float], approx: List[float]) -> float:
        """Fraction of prices with relative error above 1 % (Section IV-A)."""
        assert len(precise) == len(approx)
        bad = 0
        for p, a in zip(precise, approx):
            denom = abs(p) if abs(p) > 1e-9 else 1e-9
            if abs(a - p) / denom > 0.01:
                bad += 1
        return bad / len(precise) if precise else 0.0

"""Registry entry for the paper's load value approximator.

The implementation stays in :mod:`repro.core.approximator` (it is the
paper's central artifact, not a baseline); this module only registers it
as the ``"lva"`` entry so ``Mode.PREDICTOR`` runs and the cross-predictor
comparison resolve it by name. The factory is the class itself — exactly
what ``Mode.LVA`` has always constructed, so the registry path is
bit-for-bit identical to the historical hard-coded one.
"""

from __future__ import annotations

from repro.core.approximator import LoadValueApproximator
from repro.predictors.registry import PredictorInfo, register_predictor

register_predictor(
    PredictorInfo(
        name="lva",
        factory=LoadValueApproximator,
        description="load value approximation: approximate f(LHB) values, no rollback",
        zero_output_error=False,
    )
)

"""Bundled reprolint rules; importing this package registers them all.

=========  ==============================================================
Rule id    Check
=========  ==============================================================
``D101``   stdlib ``random`` outside ``utils/rng.py``
``D102``   wall-clock reads outside observer modules
``D103``   bare-set iteration feeding an ordering-sensitive sink
``D104``   unsorted filesystem listings
``D105``   ``time.sleep`` outside ``core/faults.py``
``D106``   tainted (clock/RNG/env/set-order) value reaching an artifact
``C201``   stage context access outside the declared reads/writes
``C202``   undeclared context access through helpers the stage calls
``E401``   exception-contract violation in stage-reachable code
``A501``   public-API drift (broken export / unreachable symbol)
=========  ==============================================================

D101–D105 are per-file (and cacheable by content hash); D106, C202,
E401 and A501 are whole-program rules built on the shared
:class:`repro.analysis.graph.ProjectGraph` (D106 adds the taint pass of
:mod:`repro.analysis.dataflow`).
The full catalog with rationale and examples lives in
``docs/ANALYSIS.md``.
"""

from repro.analysis.rules.api import ApiDriftRule
from repro.analysis.rules.contracts import (
    ALWAYS_ALLOWED,
    StageContract,
    StageContractRule,
    TransitiveStageContractRule,
    param_access_summaries,
    stage_contracts,
)
from repro.analysis.rules.determinism import (
    SetOrderRule,
    UnseededRandomRule,
    UnsortedListingRule,
    WallClockRule,
    WallSleepRule,
    is_set_expr,
)
from repro.analysis.rules.exceptions import ExceptionContractRule
from repro.analysis.rules.taint import TaintToArtifactRule

__all__ = [
    "ALWAYS_ALLOWED",
    "ApiDriftRule",
    "ExceptionContractRule",
    "SetOrderRule",
    "StageContract",
    "StageContractRule",
    "TaintToArtifactRule",
    "TransitiveStageContractRule",
    "UnseededRandomRule",
    "UnsortedListingRule",
    "WallClockRule",
    "WallSleepRule",
    "is_set_expr",
    "param_access_summaries",
    "stage_contracts",
]

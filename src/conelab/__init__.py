"""Chart-based Riemannian geometry verification engine.

Builds metric cones, contact metric / K-contact / Sasakian structures and
almost-Kaehler diagnostics over closed-form catalog manifolds, and certifies
the identities relating them by residual, using exact truncated-Taylor (jet)
differentiation throughout.
"""

from .chart import ManifoldChart, jet_point
from .catalog import CatalogEntry
from .cone import ConeChart, build_cone, lift_form
from .contact import ConeSymplecticData, ContactMetricStructure
from .errors import (
    DegenerateMetricError,
    DegeneratePairError,
    DomainError,
    EngineError,
    ImpossiblePairError,
    JetOrderError,
)
from .jets import Jet
from .pairs import StructurePair, anticommutator_lambda
from .report import CheckReport, SuiteConfig, report_json
from .suites import SUITES, integrate_level_set, run_suite
from .weitzenboeck import WeitzenboeckPointData, weitzenboeck_data

__version__ = "0.1.0"

"""Exception types raised by the verification engine."""


class EngineError(Exception):
    """Base class for all engine-level failures."""


class DomainError(EngineError):
    """Point lies outside a chart's coordinate domain."""


class DegenerateMetricError(EngineError):
    """Metric matrix failed to be symmetric positive definite."""


class JetOrderError(EngineError):
    """A derivative was requested beyond the available jet order."""


class DegeneratePairError(EngineError):
    """Two structures coincide up to sign; no third structure exists."""


class ImpossiblePairError(EngineError):
    """Anticommutator trace violates the Cauchy-Schwarz bound |lambda| <= 2."""

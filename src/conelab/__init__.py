"""Chart-based Riemannian geometry verification engine.

Builds metric cones, contact metric / K-contact / Sasakian structures and
almost-Kaehler diagnostics over closed-form catalog manifolds, and certifies
the identities relating them by residual, using exact truncated-Taylor (jet)
differentiation throughout.
"""

from . import report, suites

__version__ = report.ENGINE_VERSION

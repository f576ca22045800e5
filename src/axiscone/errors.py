"""Exception hierarchy shared by all toolkit modules."""


class AxisConeError(Exception):
    """Base class for all toolkit errors."""


class NonConvergence(AxisConeError):
    """Eigensolver failed to converge (ill-conditioned input)."""


class SemigroupOverflow(NonConvergence):
    """exp(-s T), or its image of a vector, leaves the float range at heat time s."""


class DegenerateTop(AxisConeError):
    """Largest eigenvalue is not simple within the requested gap tolerance."""


class DegenerateBottom(AxisConeError):
    """Smallest eigenvalue is not simple within the requested gap tolerance."""


class NegativeTime(AxisConeError):
    """Heat semigroup requested at s < 0."""


class DimensionMismatch(AxisConeError):
    """Operator and cone (or vector) dimensions disagree."""


class AxisNotEigenvector(AxisConeError):
    """Supplied axis is not an eigenvector for the extremal eigenvalue."""


class NotPositiveSemidefinite(AxisConeError):
    """Operator has an eigenvalue below -tolerance where PSD is required."""


class NotOutside(AxisConeError):
    """Vector is inside the cone where an outside point was required."""


class NotBoundary(AxisConeError):
    """Vector is not on the cone boundary where a boundary point was required."""


class NotInCone(AxisConeError):
    """Vector is outside the cone (or zero) where a cone element was required."""


class PrereqFailed(AxisConeError):
    """A check's prerequisite (positivity, preservation) does not hold."""


class GapCollapsed(AxisConeError):
    """Uniform spectral gap is non-positive over the perturbation grid."""


class RatioSaturated(AxisConeError):
    """The budget's spectral ratio alpha = 1 - exp(-s0 delta) rounds to 0 or 1."""


class HeatTimeUnresolved(AxisConeError):
    """At a heat time s, exp(-s T) has no top gap beyond tau_gap."""


class RelativeBoundUncertified(AxisConeError):
    """A claimed ||S x|| <= a ||T x|| + b ||x|| is neither certified nor implied by b >= ||S||."""


class BudgetViolated(AxisConeError):
    """Perturbation size exceeds what the drift bound chain admits."""


class ContractViolation(AxisConeError):
    """A theorem-backed numerical invariant failed; indicates a toolkit bug."""


class AsymmetricPotential(AxisConeError):
    """Potential or vector potential is not an even grid function."""


class ConfigInvalid(AxisConeError):
    """Experiment configuration failed schema validation."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"config field '{field}': {message}")

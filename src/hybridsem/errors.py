"""Exception types shared across the library.

Each error names the contract it enforces; callers catch the base class
HybridSemError when they only care about pass/fail.
"""


class HybridSemError(Exception):
    pass


class NegativeTime(HybridSemError):
    pass


class DurationBelowZeta(HybridSemError):
    pass


class EmptyIntersection(HybridSemError):
    pass


class NonConsecutive(HybridSemError):
    pass


class NotStartingAtZero(HybridSemError):
    pass


class GapBetweenConfigurations(HybridSemError):
    pass


class LastNotClosed(HybridSemError):
    pass


class EmptyConfiguration(HybridSemError):
    pass


class TruncatedInput(HybridSemError):
    pass


class NonConsecutiveEdge(HybridSemError):
    pass


class FinalNotClosed(HybridSemError):
    pass


class BranchingExplosion(HybridSemError):
    pass


class NotASubset(HybridSemError):
    pass


class LawsViolated(HybridSemError):
    pass


class NonOverlappingPair(HybridSemError):
    pass


class EndpointSymbolsUnbound(HybridSemError):
    pass


class UniverseTooLarge(HybridSemError):
    pass


class SyncRequiresWellNesting(HybridSemError):
    pass


class NotSliceClosed(HybridSemError):
    pass


class NoInitialWitness(HybridSemError):
    pass


class LocalSimulationGap(HybridSemError):
    # internal soundness alarm: a matcher step failed even though the
    # global simulation check passed
    pass


class MissingIntermediateWitness(HybridSemError):
    pass


class PremiseFailed(HybridSemError):
    pass


class Misaligned(HybridSemError):
    pass


class DomainGapAtGridPoint(HybridSemError):
    pass


class ParamConstraintViolated(HybridSemError):
    pass


class ParseError(HybridSemError):
    pass


class UnknownFixture(HybridSemError):
    pass

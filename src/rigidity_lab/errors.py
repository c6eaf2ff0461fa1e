"""Exception types shared across the package."""


class RigidityLabError(Exception):
    """Base class for all package errors."""


class InvalidSurface(RigidityLabError):
    """Surface failed validation; carries the offending report when available."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class DegenerateVertexSet(RigidityLabError):
    pass


class NonPositiveLength(RigidityLabError):
    pass


class BadEdgeLabel(RigidityLabError):
    pass


class DegenerateTetra(RigidityLabError):
    pass


class TriangleInequalityViolated(RigidityLabError):
    pass


class InvalidTriangulation(RigidityLabError):
    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class TooManyVertices(RigidityLabError):
    pass


class OutOfDomain(RigidityLabError):
    pass


class NotConvex(RigidityLabError):
    pass


class BadParams(RigidityLabError):
    pass


class ImaginaryHeight(RigidityLabError):
    pass


class DegenerateDepth(RigidityLabError):
    pass


class SelfIntersecting(RigidityLabError):
    pass


class NoNontrivialMode(RigidityLabError):
    pass


class UnknownGenerator(RigidityLabError):
    pass


class ParseError(RigidityLabError):
    pass


class BadRange(RigidityLabError):
    pass

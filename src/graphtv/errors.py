"""Exception and warning types shared across the toolkit."""


class GraphTVError(Exception):
    """Base class for every error raised by this package."""


class IsolatedNodeError(GraphTVError):
    """A node ended up with zero degree; the normalization needs d_i > 0.

    ``reason``, when given, says why the node lost its edges and what to change.
    """

    def __init__(self, node, reason=None):
        self.node = int(node)
        message = f"node {self.node} is isolated (zero degree)"
        if reason is not None:
            message = f"{message}: {reason}"
        super().__init__(message)


class DegenerateFeaturesError(GraphTVError):
    """Feature rows unusable for the requested metric (e.g. zero norm with cosine)."""


class NoConvergenceError(GraphTVError):
    """An iterative routine hit its iteration cap before reaching tolerance.

    Carries the last iterate so callers can inspect how far the run got.
    """

    def __init__(self, message, last_iterate=None):
        self.last_iterate = last_iterate
        super().__init__(message)


class ShapeMismatchError(GraphTVError):
    """An input does not have the shape or size it must have."""


class EmptyClassError(GraphTVError):
    """A class has no seed node."""

    def __init__(self, label):
        self.label = int(label)
        super().__init__(f"class {self.label} has no seeds")


class NonFiniteError(GraphTVError):
    """NaN or Inf appeared in an iterate or in an operator's input."""

    def __init__(self, message, iteration=None):
        self.iteration = iteration
        super().__init__(message)


class GenerationFailedError(GraphTVError):
    """A random generator could not produce a valid instance within its retry budget."""


class FractionTooSmallError(GraphTVError):
    """The labeled fraction is too small to give every class at least one seed."""


class ParseError(GraphTVError):
    """A file is malformed or holds NaN/Inf.  ``line`` is 1-based when applicable."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DegenerateClassError(GraphTVError):
    """A ranking metric got all-positive or all-negative ground truth."""


class InvalidExperimentError(GraphTVError):
    """An experiment grid is empty or otherwise unrunnable."""


class DegenerateClassWarning(UserWarning):
    """A class had no positives (or no negatives) in the evaluation set."""


class NoProgressWarning(UserWarning):
    """The outer loop stagnated on its first iteration."""


class SeedlessComponentWarning(UserWarning):
    """Some connected component holds no seed; its nodes are returned tied."""

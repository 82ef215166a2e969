"""Exception types shared across the package."""


class ConsrepError(Exception):
    """Base class for all errors raised by this package."""


# --- expression evaluation ---

class UnboundFunction(ConsrepError):
    """A Call names a function missing from the function table."""


class UnboundVariable(ConsrepError):
    """An expression supposed to be closed contains a free variable."""


class TypeMismatch(ConsrepError):
    """A built-in function received an argument outside its domain."""


class PatternMismatch(ConsrepError):
    """A substituted value does not fit the shape of the variable pattern."""


# --- network evaluation ---

class UndefinedConstant(ConsrepError):
    """A process constant has no defining equation."""


class NonTermination(ConsrepError):
    """Evaluation did not reach a fixed point within the step budget."""


class NotFullyEvaluated(ConsrepError):
    """A network is not the flat parallel form of an evaluation fixed point."""


# --- representatives ---

class NotReachableShape(ConsrepError):
    """A fully evaluated component matches no shape of the encoding."""


class InvariantViolation(ConsrepError):
    """A representative breaks one of its structural invariants."""


class EmptyKnowledge(ConsrepError):
    """A knowledge vector with no known entry reached the decision step."""


# --- transition system ---

class TiAlreadySet(ConsrepError):
    """Trusted-immortal selection applied to a configuration that has one."""


class StepNotEnabled(ConsrepError):
    """A trace schedule names a transition that is not enabled."""

    def __init__(self, step, enabled):
        self.step = step
        self.enabled = list(enabled)
        super().__init__(
            f"step {step!r} not enabled; enabled: {', '.join(self.enabled) or '(none)'}"
        )


# --- exploration ---

class BoundExceeded(ConsrepError):
    """State-space exploration hit its state bound.

    Carries the partial graph explored so far.
    """

    def __init__(self, graph, bound):
        self.graph = graph
        self.bound = bound
        super().__init__(f"state bound {bound} exceeded")


class GraphTruncated(ConsrepError):
    """A whole-graph check was asked to run on a truncated graph."""

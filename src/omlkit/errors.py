"""Exception types shared across the toolkit."""


class OmlkitError(Exception):
    """Base class for all toolkit errors."""


class UnknownLabel(OmlkitError):
    """An element label does not occur in the structure."""

    def __init__(self, label):
        self.label = label
        super().__init__(f"unknown element label: {label!r}")


class UnknownName(OmlkitError):
    """No builtin structure with the requested name."""

    def __init__(self, name):
        self.name = name
        super().__init__(f"unknown builtin structure: {name!r}")


class CycleError(OmlkitError):
    """The supplied order pairs close into a cycle, so antisymmetry fails."""

    def __init__(self, labels):
        self.labels = tuple(labels)
        super().__init__("order relation is cyclic through: " + ", ".join(self.labels))


class NoBoundsError(OmlkitError):
    """The poset has no unique bottom element or no unique top element."""


class MalformedTable(OmlkitError):
    """An operation table is not square, not total, or mentions non-elements."""


class NotAnRlse(OmlkitError):
    """A structure that must satisfy the event-ring axioms does not."""

    def __init__(self, report):
        self.report = report
        failed = ", ".join(f.axiom for f in report.failures)
        super().__init__(f"structure fails event-ring axioms: {failed}")


class CustomPlusInvalid(OmlkitError):
    """A user-supplied addition table violates one of the required identities."""

    def __init__(self, failure):
        self.failure = failure
        super().__init__(
            f"custom addition table fails {failure.axiom} at {failure.witness}"
        )


class OracleMismatch(OmlkitError):
    """Two independent verification routes disagree; indicates a bug."""


class EmptyCorpus(OmlkitError):
    """A term-filtering run was asked to use an empty structure corpus."""


class DimensionMismatch(OmlkitError):
    """A state vector has the wrong number of entries for the structure."""

    def __init__(self, expected, got):
        self.expected = expected
        self.got = got
        super().__init__(f"state vector has {got} entries, structure has {expected}")


class NotUncomparable(OmlkitError):
    """A separating state was requested for a comparable pair x <= y."""

    def __init__(self, x, y):
        self.x = x
        self.y = y
        super().__init__(f"{x} <= {y}: no state can separate a comparable pair")


class InvalidState(OmlkitError):
    """A supplied vector is not a state on the given structure."""

    def __init__(self, position, failure):
        self.position = position
        self.failure = failure
        super().__init__(f"state #{position} is invalid: {failure}")


class NotFull(OmlkitError):
    """A state set that must determine the order fails to."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"state set is not order-determining, witness pair {witness}")


class NotLatticeOrdered(OmlkitError):
    """A set of event vectors has a pair with no infimum or supremum in the set."""

    def __init__(self, kind, pair):
        self.kind = kind
        self.pair = pair
        super().__init__(f"event pair {pair} has no {kind} within the set")


class NotAnEventAlgebra(OmlkitError):
    """A set of event vectors fails one of the probability-algebra axioms."""

    def __init__(self, report):
        self.report = report
        super().__init__("event set fails the probability-algebra axiom "
                         f"{report.failures[0][0]}")


class ParseError(OmlkitError):
    """A structure file or term string could not be parsed."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {column}" if column else "")
        super().__init__(message + where)


class ValidationError(OmlkitError):
    """A parsed file is structurally sound but semantically inconsistent."""

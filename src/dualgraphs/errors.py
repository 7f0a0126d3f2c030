"""Exception types shared across the package, and constants two of them report.

The CLI maps these onto exit codes, so user-facing failure modes get a
dedicated class here instead of bare ValueErrors. Every command loads this
module, so its parser reads the constants without loading their users.
"""

#: Default vertex cap for the regularity sweep (2^n restrictions).
DEFAULT_MAX_HOCHSTER_VERTICES = 20

#: What ``complexes.generate_complex`` and ``graphs.generate_graph`` build.
COMPLEX_FAMILIES = ("crosspolytope", "simplex", "tadpole")
GRAPH_FAMILIES = ("hypercube", "path", "complete", "forbidden6")


class DualGraphsError(Exception):
    """Base class for all package-specific errors."""


class InputError(DualGraphsError):
    """Bad user input: unparseable files, invalid parameters, unknown names."""


class ParseError(InputError):
    """A text or JSON input file could not be parsed."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnknownFamilyError(InputError):
    """Requested generator family does not exist."""


class VoidComplexError(DualGraphsError):
    """An operation received (or would produce) the void complex."""


class NonPureComplexError(DualGraphsError):
    """A purity-requiring operation received a non-pure complex."""


class NotAFaceError(DualGraphsError):
    """The given vertex set is not a face of the complex."""


class ResourceCapError(DualGraphsError):
    """A configured size cap was exceeded (exponential enumeration guard)."""


class EmptyGraphError(DualGraphsError):
    """A graph operation needs at least one (or two) vertices."""


class FieldError(DualGraphsError):
    """Invalid coefficient field."""


class NotUnmixedError(DualGraphsError):
    """Arrangement components do not all have the same height."""


class HypothesisError(DualGraphsError):
    """A theorem-verifier was called on input violating its hypotheses."""


class SectionError(DualGraphsError):
    """Generic hyperplane section failed after exhausting its retry budget."""

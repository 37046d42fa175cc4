"""Exception types shared across the package.

Most errors signal bad user input (malformed documents, degenerate fans,
missing data) and derive from ValueError so callers can catch broadly.
Each class carries the command-line exit code of its failures,
``exit_code``, which subclasses inherit.
"""


class ToricMirrorError(ValueError):
    """Base class for all package-specific errors."""

    exit_code = 2


# --- integer lattice algebra ---

class NotFullRank(ToricMirrorError):
    """Matrix rows are linearly dependent where full row rank is required."""


class ZeroVector(ToricMirrorError):
    """A nonzero vector was required."""


class DependentGenerators(ToricMirrorError):
    """Cone generators were expected to be linearly independent."""


class DimensionMismatch(ToricMirrorError):
    """Operands live in lattices of different rank."""


# --- fan validation ---

class InvalidFan(ToricMirrorError):
    """Base class for fan validation failures."""

    exit_code = 3


class NonPrimitiveRay(InvalidFan):
    """A ray generator is zero, non-primitive, or duplicated."""


class NonUnimodularCone(InvalidFan):
    """A maximal cone is not simplicial-unimodular (smoothness fails)."""


class IncompleteFan(InvalidFan):
    """The cones do not cover the ambient space (facet pairing fails)."""


class BadFaceIntersection(InvalidFan):
    """Two cones meet in a set that is not a common face."""


class FocusNotFound(InvalidFan):
    """No cone of the fan contains the sum of a primitive collection."""


class NotFano(ToricMirrorError):
    """Operation requires a Fano fan."""

    exit_code = 4


# --- Kahler / polytope data ---

class EmptyInterior(ToricMirrorError):
    """The moment polytope has no interior point."""


class NotInBasisSpan(ToricMirrorError):
    """Class has no integer coordinates in the chosen homology basis, or
    a negative one where a q-polynomial needs a nonnegative exponent."""


class LambdaNotQExpressible(ToricMirrorError):
    """A support constant is not -1 times a nonnegative integer combination
    of the basis areas, so exp(lambda) is not a q-monomial."""


# --- Gromov-Witten data ---

class UnknownInvariant(ToricMirrorError):
    """A Gromov-Witten value was requested that no source can supply."""

    exit_code = 5


class BadChernDegree(ToricMirrorError):
    """A class with nonzero first-Chern pairing where zero is required."""


class FingerprintMismatch(ToricMirrorError):
    """A data table is bound to a different fan."""


class InconsistentTable(ToricMirrorError):
    """A loaded table contradicts the built-in invariant rule."""


# --- documents / CLI ---

class SchemaError(ToricMirrorError):
    """An input document does not match its JSON schema."""


class NotBundleShaped(ToricMirrorError):
    """Fan is not a recognized projectivized-canonical-bundle fan."""

    exit_code = 3


# --- evaluation / solving ---

class ZeroCoordinate(ToricMirrorError):
    """Laurent polynomials cannot be evaluated on the coordinate axes."""


class NoConvergence(RuntimeError):
    """The multistart Newton solver found no critical point."""

    exit_code = 6


class RootBoundExceeded(RuntimeError):
    """The solver verified more distinct critical points than Kouchnirenko's
    bound allows: copies of one root were kept apart."""

    exit_code = 7

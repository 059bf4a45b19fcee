"""Exception types shared across the package.

Every error raised by the library derives from :class:`MubkitError`, so
callers (the CLI in particular) can distinguish domain failures from bugs.
"""


class MubkitError(Exception):
    """Base class for all library errors."""


# -- finite field ------------------------------------------------------------

class NonPrime(MubkitError):
    """The requested characteristic is not a prime number."""


class NonPositiveDegree(MubkitError):
    """The requested extension degree n is below 1."""


class ReduciblePolynomial(MubkitError):
    """A supplied modulus polynomial is not irreducible over F_p."""


class TooLarge(MubkitError):
    """The request exceeds a supported size: a field order above 2**16, or
    an axiom suite whose d^4 real arrays exceed ``axioms.MAX_ARRAY_BYTES``."""


class IndexOutOfRange(MubkitError):
    """An element index is outside 0..d-1."""


class ZeroInverse(MubkitError):
    """Multiplicative inverse of the zero element was requested."""


# -- linear algebra ----------------------------------------------------------

class ShapeMismatch(MubkitError):
    """Operands have incompatible shapes."""


class NotHermitian(MubkitError):
    """Matrix is not Hermitian within tolerance."""


class NotUnitary(MubkitError):
    """Matrix is not unitary within tolerance."""


class NotCommuting(MubkitError):
    """Operator family is not pairwise commuting within tolerance."""


class DegenerateFamily(MubkitError):
    """Random-combination diagonalization failed repeatedly: the family
    shares a genuine eigenspace."""


# -- Hadamards, MUBs, UEBs ---------------------------------------------------

class NotHadamard(MubkitError):
    """Matrix fails the Hadamard conditions."""


class NotControlledHadamard(MubkitError):
    """Family fails the controlled-Hadamard conditions."""


class NotLatinSquare(MubkitError):
    """Grid rows/columns are not permutations of 0..d-1."""


class WrongFamilySize(MubkitError):
    """A basis family does not contain exactly d+1 bases."""


class NotPartitionedUeb(MubkitError):
    """Operator table fails the partitioned unitary-error-basis laws."""


class NotCanonicalForm(MubkitError):
    """The distinguished commuting class is not diagonal, but an operation
    requiring canonical form was requested."""


class PreconditionFailed(MubkitError):
    """A construction input violates one of its stated laws; the message
    names the violated law."""


class DephasingWarning(UserWarning):
    """Hadamard data satisfies only the relaxed column conditions rather
    than full dephased form (non-fatal)."""

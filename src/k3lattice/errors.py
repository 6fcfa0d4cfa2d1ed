"""Exception and warning types shared across the package."""


class LatticeError(ValueError):
    """Base class for all lattice-arithmetic errors."""


class InvalidGramError(LatticeError):
    """Gram matrix is not square, not symmetric, or not integral."""


class DegenerateLatticeError(LatticeError):
    """A (sub)lattice turned out to have determinant zero."""


class DomainError(LatticeError):
    """An argument is outside the operation's domain (bad n, bad prime, ...)."""


class StructureError(LatticeError):
    """Input lacks the structure the operation requires (not an isometry,
    not isotropic, discriminant not of the expected shape, ...)."""


class CapacityError(LatticeError):
    """An input or a search would pass one of the package's limits."""


def check_limit(name, limit, what, value):
    """Raise CapacityError "<what> <value> exceeds <name> = <limit>" if
    value > limit."""
    if value > limit:
        raise CapacityError(f"{what} {value} exceeds {name} = {limit}")


class Budget:
    """The work one call may do, charged before it is done: past limit,
    charge raises CapacityError "<what> more than <name> = <limit> <unit>"."""

    def __init__(self, name, limit, what, unit):
        self.left = limit
        self.message = f"{what} more than {name} = {limit} {unit}"

    def charge(self, amount):
        self.left -= amount
        if self.left < 0:
            raise CapacityError(self.message)


class InconsistencyError(LatticeError):
    """Input data is internally inconsistent (e.g. samples not generated by
    any symmetric form, or a claimed q(xi, xi) that they contradict)."""


class UnverifiedHypothesisWarning(UserWarning):
    """The Gram matrix neither shows nor rules out U + U (an odd lattice, or
    an even one of rank l + 4, l > 0, without literal planes); the result
    assumes it."""

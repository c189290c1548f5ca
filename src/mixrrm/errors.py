"""Exception and warning types raised across the package."""


class Error(Exception):
    """Base class of every error bad input (file, option, fit JSON) can cause."""


# --- data ingestion -------------------------------------------------------

class MalformedCsv(Error, ValueError):
    """Not UTF-8, not CSV, a short row, or a non-integer identifier cell."""


class MissingColumn(Error):
    def __init__(self, name):
        super().__init__(f"column {name!r} not found in file header")
        self.name = name


class NonBinaryChoice(Error):
    def __init__(self, row, value):
        super().__init__(f"row {row}: choice value {value!r} is not 0 or 1")
        self.row = row
        self.value = value


class _SituationError(Error):
    """A rule broken by one choice situation; ``problem`` says which."""

    problem = ""

    def __init__(self, individual_id, situation_id):
        super().__init__(
            f"individual {individual_id}, situation {situation_id}: {self.problem}"
        )
        self.individual_id = individual_id
        self.situation_id = situation_id


class MultipleChosen(_SituationError):
    problem = "more than one alternative marked chosen"


class NoneChosen(_SituationError):
    problem = "no alternative marked chosen"


class SituationTooSmall(_SituationError):
    problem = "a choice situation needs at least 2 alternatives"


class DuplicateAlternative(_SituationError):
    def __init__(self, individual_id, situation_id, alternative_id):
        self.problem = f"alternative {alternative_id} appears more than once"
        super().__init__(individual_id, situation_id)
        self.alternative_id = alternative_id


class NonFiniteAttribute(Error):
    def __init__(self, row, col):
        super().__init__(f"row {row}: attribute {col!r} is missing or not finite")
        self.row = row
        self.col = col


class MissingStubColumn(Error):
    def __init__(self, name):
        super().__init__(f"wide file is missing stub column {name!r}")
        self.name = name


class InconsistentAltCount(Error):
    pass


class ClusterVariesWithinIndividual(Error):
    def __init__(self, individual_id):
        super().__init__(
            f"cluster column is not constant within individual {individual_id}"
        )
        self.individual_id = individual_id


# --- draws ----------------------------------------------------------------

class NonPrimeBase(Error):
    def __init__(self, base):
        super().__init__(f"Halton base must be a prime >= 2, got {base}")
        self.base = base


class DomainError(Error, ValueError):
    """Argument outside the mathematical domain of a function."""


# --- estimation -----------------------------------------------------------

class NonConvergence(Error):
    """Optimizer hit its iteration cap with the gradient above tolerance.

    Carries the (unconverged) fit on ``result`` so callers can still
    inspect or report it.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class SingularHessian(Error):
    pass


class InvalidOption(Error, ValueError):
    """An option (or starting point) outside its range or of the wrong form."""


class InvalidFitFile(Error, ValueError):
    """A fit JSON that is not JSON, lacks a field, has a field of the wrong
    type or an unknown schema, or disagrees with its own model block."""


class FewerClustersThanParameters(UserWarning):
    """Sandwich meat is rank-deficient: fewer clusters than parameters."""


# --- post-estimation ------------------------------------------------------

class SpecMismatch(Error):
    pass


class AttrNotLognormal(Error):
    def __init__(self, attr):
        super().__init__(f"{attr!r} is not a log-normal random attribute of this fit")
        self.attr = attr


class EmptyInput(Error):
    pass

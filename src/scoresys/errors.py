"""Exception types raised across the package, and the one way input
files are opened."""


class ScoresysError(Exception):
    """Base class for everything this package raises on purpose."""


class DataError(ScoresysError, ValueError):
    """Malformed cells, bad labels, or empty data."""


class DomainError(ScoresysError, ValueError):
    """Invalid coefficient domain or tier specification."""


class ConfigError(ScoresysError, ValueError):
    """Penalty/weight/budget settings outside their meaningful ranges."""


class ReportError(ScoresysError, ValueError):
    """Scoring-system analysis that cannot be produced (non-binary
    features, too many active features, unparseable sheet)."""


class VerifyError(ScoresysError, ValueError):
    """A solution file fails the exported model's constraints or its
    objective disagrees with the recomputed one.  Carries the list of
    violations as strings: a violated row with its detail, the name of
    a variable the solution misses, adds or sets off its domain, or
    "objective"."""

    def __init__(self, message, violations=()):
        super().__init__(message)
        self.violations = list(violations)


def read_file(path, parse, error):
    """parse(fh) for the file at path opened as UTF-8 text, with line
    ends as in the file and without the byte-order mark that some
    programs (Excel's "CSV UTF-8" among them) write first.  A file that
    is not UTF-8 text raises error(message) naming path; one that
    cannot be opened raises the OSError of open, which carries the
    file name."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            return parse(fh)
    except UnicodeDecodeError as e:
        raise error(f"cannot read {path}: not UTF-8 text ({e.reason})") from None

"""Exception types shared across the package."""


class ProbirError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ProbirError):
    """A line of an input file could not be parsed."""

    def __init__(self, path, line_no, reason):
        self.path = str(path)
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"{self.path}:{line_no}: {reason}")


class DuplicateDocIdError(ParseError):
    """Two records of one input file share an id (a doc_id or a query_id)."""


class EmptyCollectionError(ProbirError):
    """An operation that requires documents was given none."""


class EmptyQueryError(ProbirError):
    """Query construction or translation produced no usable terms."""


class DocumentNotFoundError(ProbirError):
    """A doc_id was requested that the index does not contain."""


class IndexLoadError(ProbirError):
    """A persisted index could not be loaded (corruption, version, mode)."""


class ZeroDocumentFrequencyError(ProbirError):
    """idf() was asked for a term that appears in no document."""


class CalibrationError(ProbirError):
    """Threshold calibration had no two-character fragments to work with."""

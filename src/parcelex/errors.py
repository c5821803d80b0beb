"""Exception types shared across the toolkit."""


class ParcelexError(Exception):
    """Base class for all toolkit errors."""


class MalformedCelexError(ParcelexError, ValueError):
    """Input text does not match the CELEX identifier grammar."""


class UnsupportedEndpointError(ParcelexError, ValueError):
    """The requested endpoint cannot serve this identifier (e.g. bracketed id on smartapi)."""


class DecodeError(ParcelexError, ValueError):
    """Raw document bytes are not valid under the expected encoding."""


class InsufficientTrainingDataError(ParcelexError, ValueError):
    """Training text is too short to build a usable language profile."""


class EmptyTextError(ParcelexError, ValueError):
    """Operation requires non-empty text."""


class UnknownLanguageError(ParcelexError, ValueError):
    """Language code outside the configured language set."""


class InconsistentBoundariesError(ParcelexError, ValueError):
    """Section boundaries out of range or out of order."""


class MalformedXmlError(ParcelexError, ValueError):
    """Input is not well-formed XML in the expected dialect."""


class SchemaViolationError(ParcelexError, ValueError):
    """Well-formed XML but mandatory elements are missing or inconsistent."""


class UnsupportedArityError(ParcelexError, ValueError):
    """Bead arity outside the supported set."""


class InstanceTooLargeError(ParcelexError, ValueError):
    """Instance exceeds the exhaustive oracle's size bound."""


class MalformedProfileError(ParcelexError, ValueError):
    """A language profile line is not ``<ngram><TAB><rank>``, or its ranks have gaps."""


class NoOneToOneLinksError(ParcelexError, ValueError):
    """Lexicon bootstrapping found no 1-1 links to sample from."""


class EmptyCollectionError(ParcelexError, ValueError):
    """Statistic requested over an empty collection."""


class DanglingPointerError(ParcelexError, LookupError):
    """Alignment link references a paragraph number missing from the document."""


class MismatchedDocumentsError(ParcelexError, ValueError):
    """The two alignment collections do not cover the same documents."""


def decode_utf8(data: bytes, where, error: type[ParcelexError]) -> str:
    """``data`` as UTF-8 text; an invalid byte raises ``error`` naming ``where`` and the offset."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{where}: not valid UTF-8 at byte {exc.start}") from None

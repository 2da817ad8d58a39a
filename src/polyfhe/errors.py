"""Exception types shared across the library, and the shape check of stored
JSON objects that raises IntegrityError.

Every error raised by polyfhe derives from :class:`PolyFheError`, so callers
(and the CLI shim) can catch one base class and still report the specific
contract that was violated.
"""


class PolyFheError(Exception):
    """Base class for all polyfhe errors."""


class CapacityExceeded(PolyFheError):
    """Plaintext longer than the context's slot capacity."""


class KeyMismatch(PolyFheError):
    """Operation across ciphertexts (or a context) with different keys."""


class DepthExceeded(PolyFheError):
    """A multiplication would exceed the context's depth budget."""


class InfeasibleParams(PolyFheError):
    """Not enough distinct nonzero coefficients in the requested range."""


class InputTooShort(PolyFheError):
    """Embedding shorter than the polynomial window width."""


class IllConditioned(PolyFheError):
    """Polynomial fit system is numerically singular at this degree."""


class ZeroVector(PolyFheError):
    """Cosine similarity is undefined for a zero vector."""


class DomainViolation(PolyFheError):
    """A value falls outside a polynomial approximation's fitted domain."""


class ZeroPrefix(PolyFheError):
    """Prefix compression hit an all-zero prefix; cannot renormalize."""


class DegenerateLabels(PolyFheError):
    """Classifier training needs at least two distinct classes."""


class DimensionMismatch(PolyFheError):
    """Feature dimension does not match the classifier."""


class ZeroBaseline(PolyFheError):
    """Suppression rate is undefined when the baseline accuracy is zero."""


class UnknownParamsId(PolyFheError):
    """A gallery record references a params_id absent from the store."""


class IntegrityError(PolyFheError, ValueError):
    """Stored or decrypted data fails a check: a serialized ciphertext of the
    wrong length, a gallery or params file that is malformed or does not
    match its tag or hash, or a search score that no pair of unit-norm
    templates can give."""


def check_json_object(obj, keys: dict, where: str):
    """Raise IntegrityError unless obj is a dict whose value at each key has
    exactly the type keys gives it (a JSON bool is not an int)."""
    if not isinstance(obj, dict):
        raise IntegrityError(f"{where} is not a JSON object")
    for key, typ in keys.items():
        if type(obj.get(key)) is not typ:
            raise IntegrityError(f"{where} needs {key!r} as a JSON {typ.__name__}")


class EmptyDataset(PolyFheError):
    """A dataset file holds a header but no samples."""


class MalformedDataset(PolyFheError):
    """A dataset row has the wrong number of fields or a value that is not a finite number."""


class EmptyGallery(PolyFheError):
    """A saved gallery lists no records."""

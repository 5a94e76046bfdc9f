"""Immutable sparse integer maps: the shared core of the algebra side.

A ``SparseMap`` is a finite map from keys to nonzero values, held in one
dict in the ``_terms`` slot.  Zero values are dropped on construction, so
two maps are equal exactly when their dicts are, and the empty map is the
zero of the group.  ``LaurentPoly`` (exponent -> coefficient) and
``FormalCharacter`` (weight -> multiplicity) are its subclasses; each adds
only its own key checks and operations.
"""


class SparseMap:
    """A finite key -> nonzero value map, compared, hashed and summed by content.

    Built from a dict or an iterable of (key, value) pairs; the values of a
    repeated key are summed.  Subclasses may override ``_key`` to check or
    normalize each key of such outside input, and ``_coerce`` to accept
    more operand types than their own class.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        acc = {}
        if terms:
            for key, value in terms.items() if isinstance(terms, dict) else terms:
                key = self._key(key, value)
                acc[key] = acc.get(key, 0) + value
        object.__setattr__(self, "_terms", {k: v for k, v in acc.items() if v})

    @classmethod
    def _new(cls, terms):
        """A map that takes ownership of ``terms``, a dict of valid keys and values.

        Only zero values are dropped: callers build ``terms`` themselves, so
        there are no duplicate keys to merge and no outside input to check.
        """
        if 0 in terms.values():
            terms = {k: v for k, v in terms.items() if v}
        self = object.__new__(cls)
        object.__setattr__(self, "_terms", terms)
        return self

    @staticmethod
    def _key(key, value):
        return key

    @classmethod
    def _coerce(cls, other):
        return other if isinstance(other, cls) else None

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def items(self):
        """(key, value) pairs, keys descending."""
        return tuple(sorted(self._terms.items(), reverse=True))

    def __len__(self):
        return len(self._terms)

    def __bool__(self):
        return bool(self._terms)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self._terms)
        for k, v in other._terms.items():
            out[k] = out.get(k, 0) + v
        return self._new(out)

    __radd__ = __add__

    def __neg__(self):
        return self._new({k: -v for k, v in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self._terms)
        for k, v in other._terms.items():
            out[k] = out.get(k, 0) - v
        return self._new(out)

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else other - self

    def __eq__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        return f"{type(self).__name__}({dict(self.items())!r})"

"""Hash-consing support for the immutable AST.

Every term, temporal annotation, message and formula node is a frozen
dataclass, and the belief store, pattern matcher and proof machinery all
key on them constantly.  The dataclass-generated ``__hash__`` re-walks
the whole subtree on every call, which dominates dictionary lookups once
formulas get deep (a threshold attribute certificate's idealization is
~8 levels of nesting).

:func:`cached_hash` wraps a frozen dataclass so the structural hash is
computed once, on first use, and memoized on the instance.  Child nodes
memoize too, so hashing a deep tree is amortized O(1) after the first
walk instead of O(tree) per lookup.  The memo stays out of pickles: a
string's hash depends on the process's ``PYTHONHASHSEED``, so a hash
carried into another process would disagree with the structural hash
of an equal node built there.

:func:`memoized`, which :func:`cached_hash` is built on, does the same
for any zero-argument method whose result is a pure function of the
fields (a certificate's signed payload bytes, a key's fingerprint):
computed on first call, then read back from the instance.  The memo
never takes part in equality, hashing or ``repr``, which the dataclass
generates from the fields alone.

:func:`interned` builds a memoizing constructor for leaf-ish nodes
(principals, groups, key references, point times) so hot paths that
rebuild the same leaves per request share one instance — equality
checks then short-circuit on identity.

:func:`plain_repr` and :func:`memoized_repr` give a class the text of
its dataclass-generated ``__repr__`` at a lower cost: the authorization
protocol digests ``repr`` of every grant's message receipts.
"""

from __future__ import annotations

from dataclasses import fields
from functools import lru_cache, wraps
from typing import Callable, Type, TypeVar

__all__ = ["cached_hash", "memoized", "interned", "plain_repr", "memoized_repr"]

T = TypeVar("T")

_SENTINEL = object()


def memoized(method: Callable[[T], object]) -> Callable[[T], object]:
    """Method decorator: compute a frozen instance's derived value once.

    The value is stored in the instance ``__dict__`` under
    ``_memo_<name>``, written with ``object.__setattr__`` to bypass the
    frozen guard.  Only for methods whose result depends on the
    dataclass fields and nothing else; ``dataclasses.replace`` builds a
    new instance, so a changed copy never sees the old value.
    """
    slot = f"_memo_{method.__name__}"

    @wraps(method)
    def wrapper(self):
        value = self.__dict__.get(slot, _SENTINEL)
        if value is _SENTINEL:
            value = method(self)
            object.__setattr__(self, slot, value)
        return value

    return wrapper


def cached_hash(cls: Type[T]) -> Type[T]:
    """Class decorator: memoize the dataclass-generated structural hash.

    Apply *after* ``@dataclass(frozen=True)`` so the generated hash
    (which agrees with ``__eq__``) is the one being cached.
    """
    base_hash = cls.__hash__
    if base_hash is None:  # pragma: no cover - misuse guard
        raise TypeError(f"{cls.__name__} is unhashable; nothing to cache")
    cls.__hash__ = memoized(base_hash)  # type: ignore[assignment]
    cls.__getstate__ = _state_without_hash  # type: ignore[assignment]
    return cls


_HASH_SLOT = "_memo___hash__"


def _state_without_hash(self) -> dict:
    """Pickled state of a :func:`cached_hash` node: its dict, minus the hash."""
    state = self.__dict__
    if _HASH_SLOT in state:
        state = dict(state)
        del state[_HASH_SLOT]
    return state


def interned(constructor: Callable[..., T], maxsize: int = 65536) -> Callable[..., T]:
    """A memoizing wrapper for a node constructor.

    Suitable only for constructors whose arguments are hashable and
    fully determine the node (true for all our frozen AST classes).
    """
    return lru_cache(maxsize=maxsize)(constructor)


def plain_repr(cls: Type[T]) -> Type[T]:
    """Class decorator: the dataclass ``__repr__`` text, without its guard.

    Apply *after* ``@dataclass``.  The generated method is the one
    :mod:`dataclasses` writes, ``Name(field=value!r, ...)`` over the
    ``repr=True`` fields, minus the ``reprlib.recursive_repr`` wrapper,
    which guards against cycles an immutable tree cannot have and
    costs more than the formatting itself.
    """
    body = ", ".join(f"{f.name}={{self.{f.name}!r}}" for f in fields(cls) if f.repr)
    namespace: dict = {}
    exec(  # the same code generation dataclasses uses
        f"def __repr__(self):\n"
        f"    return f'{{self.__class__.__qualname__}}({body})'",
        namespace,
    )
    method = namespace["__repr__"]
    method.__qualname__ = f"{cls.__qualname__}.__repr__"
    cls.__repr__ = method  # type: ignore[assignment]
    return cls


def memoized_repr(cls: Type[T]) -> Type[T]:
    """:func:`plain_repr`, computed once per instance.

    For interned leaves (principals, key references) that appear in
    every receipt: the text is a function of the fields, like a hash.
    """
    plain_repr(cls)
    cls.__repr__ = memoized(cls.__repr__)  # type: ignore[assignment]
    return cls

"""Messages of the logic (set M_Gamma of Appendix A).

Messages are built by mutual induction with formulas: every formula is a
message (M1), primitive terms are messages (M2), and function images --
in particular signed messages ``<X>_{K^-1}`` and encrypted messages
``{X}_K`` -- are messages (M3).  Tuples model multi-part messages such as
the joint write request of Figure 2(b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

from .hashcons import cached_hash, plain_repr
from .terms import KeyRef

__all__ = ["Data", "Signed", "Encrypted", "MessageTuple", "Message", "submessages"]


@cached_hash
@plain_repr
@dataclass(frozen=True)
class Data:
    """An uninterpreted data constant, e.g. '"write" O' or a nonce."""

    value: str

    def __str__(self) -> str:
        return self.value


@cached_hash
@plain_repr
@dataclass(frozen=True)
class Signed:
    """``<X>_{K^-1}``: message X signed with the private half of key K."""

    body: "Message"
    key: KeyRef

    def __str__(self) -> str:
        return f"<{self.body}>_{self.key}^-1"


@cached_hash
@dataclass(frozen=True)
class Encrypted:
    """``{X}_K``: message X encrypted under public key K."""

    body: "Message"
    key: KeyRef

    def __str__(self) -> str:
        return f"{{{self.body}}}_{self.key}"


@cached_hash
@dataclass(frozen=True)
class MessageTuple:
    """An ordered tuple of messages, e.g. a joint access request."""

    parts: Tuple["Message", ...]

    def __str__(self) -> str:
        return "(" + ", ".join(str(p) for p in self.parts) + ")"


# A message is a formula, a data constant, or a crypto/function image.
# Formula is imported lazily to avoid the circular definition; the union
# is structural: anything with these types is accepted by the axioms.
Message = Union[Data, Signed, Encrypted, MessageTuple, "Formula"]  # noqa: F821


def submessages(message: "Message", keys: frozenset = frozenset()) -> set:
    """The submsgs_K(M) closure of Appendix C.

    Messages derivable from ``message`` by splitting tuples, stripping
    signatures (readable with or without the verification key), and
    decrypting with private keys in ``keys`` (a set of KeyRef whose
    private halves are held).
    """
    out = {message}
    if isinstance(message, MessageTuple):
        for part in message.parts:
            out |= submessages(part, keys)
    elif isinstance(message, Signed):
        out |= submessages(message.body, keys)
    elif isinstance(message, Encrypted):
        if message.key in keys:
            out |= submessages(message.body, keys)
    else:
        # Formulas: include the body of At annotations (Appendix C d).
        body = getattr(message, "body", None)
        if body is not None and type(message).__name__ == "At":
            out |= submessages(body, keys)
    return out

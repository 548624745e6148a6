"""Textbook RSA with full-domain-hash signatures, built from scratch.

This is the conventional public-key system of the paper's Case I: one
public key owned by exactly one principal.  Domain identity CAs and the
Case I coalition AA baseline sign with these keys.  Signatures are
RSA-FDH (hash the message onto ``Z_N`` and exponentiate); encryption is
raw RSA over an FDH-derived session representation, sufficient for the
protocol-shape reproduction (see DESIGN.md substitutions).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from ..core.hashcons import memoized
from .hashing import full_domain_hash
from .numtheory import is_probable_prime, modinv, random_prime

__all__ = [
    "RSAPublicKey",
    "RSAPrivateKey",
    "RSAKeyPair",
    "generate_keypair",
    "hybrid_encrypt",
    "hybrid_decrypt",
]

DEFAULT_PUBLIC_EXPONENT = 65_537


@dataclass(frozen=True)
class RSAPublicKey:
    """An RSA public key ``(N, e)``."""

    modulus: int
    exponent: int

    @property
    def bits(self) -> int:
        return self.modulus.bit_length()

    def verify(self, message: bytes, signature: int) -> bool:
        """Check an RSA-FDH signature."""
        if not 0 < signature < self.modulus:
            return False
        expected = full_domain_hash(message, self.modulus)
        return pow(signature, self.exponent, self.modulus) == expected

    def encrypt_int(self, plaintext: int) -> int:
        """Raw RSA encryption of an integer already in ``Z_N``."""
        if not 0 <= plaintext < self.modulus:
            raise ValueError("plaintext out of range for modulus")
        return pow(plaintext, self.exponent, self.modulus)

    @memoized
    def fingerprint(self) -> str:
        """Short stable identifier: hash of (N, e), used as a key ID.

        Section 3.2 of the paper identifies the shared key by "the hash of
        N and the public exponent e"; we use the same convention for every
        key in the system.
        """
        import hashlib

        material = f"{self.modulus}:{self.exponent}".encode()
        return hashlib.sha256(material).hexdigest()[:16]


@dataclass(frozen=True)
class RSAPrivateKey:
    """An RSA private key; retains the factorization for CRT speedups."""

    modulus: int
    exponent: int  # d
    prime_p: int
    prime_q: int
    # CRT parameters (d mod p-1, d mod q-1, q^-1 mod p), fixed by the
    # fields above and computed once here rather than on every use.
    _crt: Tuple[int, int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        p, q = self.prime_p, self.prime_q
        crt = (self.exponent % (p - 1), self.exponent % (q - 1), modinv(q, p))
        object.__setattr__(self, "_crt", crt)

    def sign(self, message: bytes) -> int:
        """Produce an RSA-FDH signature using CRT exponentiation."""
        h = full_domain_hash(message, self.modulus)
        return self._power(h)

    def decrypt_int(self, ciphertext: int) -> int:
        """Raw RSA decryption of an integer in ``Z_N``."""
        if not 0 <= ciphertext < self.modulus:
            raise ValueError("ciphertext out of range for modulus")
        return self._power(ciphertext)

    def _power(self, base: int) -> int:
        """CRT-accelerated modular exponentiation by ``d``."""
        p, q = self.prime_p, self.prime_q
        dp, dq, q_inv = self._crt
        mp = pow(base % p, dp, p)
        mq = pow(base % q, dq, q)
        h = (q_inv * (mp - mq)) % p
        return (mq + h * q) % self.modulus


@dataclass(frozen=True)
class RSAKeyPair:
    """A matched RSA public/private key pair."""

    public: RSAPublicKey
    private: RSAPrivateKey


def generate_keypair(
    bits: int = 512, public_exponent: int = DEFAULT_PUBLIC_EXPONENT
) -> RSAKeyPair:
    """Generate an RSA key pair with a ``bits``-bit modulus.

    The default 512 bits keeps unit tests fast; benchmarks sweep larger
    sizes.  ``public_exponent`` must be odd and > 2.
    """
    if bits < 64:
        raise ValueError("modulus must be at least 64 bits")
    if public_exponent < 3 or public_exponent % 2 == 0:
        raise ValueError("public exponent must be an odd integer >= 3")
    half = bits // 2
    while True:
        p = random_prime(half)
        q = random_prime(bits - half)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        phi = (p - 1) * (q - 1)
        try:
            d = modinv(public_exponent, phi)
        except ValueError:
            continue
        public = RSAPublicKey(modulus=n, exponent=public_exponent)
        private = RSAPrivateKey(modulus=n, exponent=d, prime_p=p, prime_q=q)
        return RSAKeyPair(public=public, private=private)


def hybrid_encrypt(public: RSAPublicKey, plaintext: bytes) -> Tuple[int, bytes]:
    """Encrypt arbitrary bytes: RSA-wrapped random seed + MGF1 stream.

    Realizes the ``{Object O}_{K_u}`` response of Figure 2(d) for
    contents of any length.  Returns ``(wrapped_seed, ciphertext)``.
    """
    import secrets

    from .hashing import _mgf1

    seed = secrets.randbelow(public.modulus - 2) + 1
    wrapped = public.encrypt_int(seed)
    seed_bytes = seed.to_bytes((public.modulus.bit_length() + 7) // 8, "big")
    stream = _mgf1(seed_bytes, len(plaintext))
    ciphertext = bytes(a ^ b for a, b in zip(plaintext, stream))
    return wrapped, ciphertext


def hybrid_decrypt(
    private: RSAPrivateKey, wrapped_seed: int, ciphertext: bytes
) -> bytes:
    """Inverse of :func:`hybrid_encrypt`."""
    from .hashing import _mgf1

    seed = private.decrypt_int(wrapped_seed)
    seed_bytes = seed.to_bytes((private.modulus.bit_length() + 7) // 8, "big")
    stream = _mgf1(seed_bytes, len(ciphertext))
    return bytes(a ^ b for a, b in zip(ciphertext, stream))


def generate_safe_keypair(
    bits: int = 512, public_exponent: int = DEFAULT_PUBLIC_EXPONENT
) -> Tuple[RSAKeyPair, int, int]:
    """Generate a key pair from *safe* primes; returns (pair, p', q').

    Shoup threshold signatures require ``N = pq`` with ``p = 2p'+1`` and
    ``q = 2q'+1`` for primes p', q'.  Returns the key pair together with
    the Sophie Germain primes.
    """
    from .numtheory import random_safe_prime

    half = bits // 2
    while True:
        p = random_safe_prime(half)
        q = random_safe_prime(bits - half)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        p_prime = (p - 1) // 2
        q_prime = (q - 1) // 2
        m = p_prime * q_prime
        if public_exponent <= max(p_prime, q_prime) and not is_probable_prime(
            public_exponent
        ):
            raise ValueError("public exponent must be prime for Shoup keys")
        try:
            d = modinv(public_exponent, m)
        except ValueError:
            continue
        public = RSAPublicKey(modulus=n, exponent=public_exponent)
        private = RSAPrivateKey(modulus=n, exponent=d, prime_p=p, prime_q=q)
        return RSAKeyPair(public=public, private=private), p_prime, q_prime

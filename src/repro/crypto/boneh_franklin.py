"""Boneh-Franklin shared RSA key generation (Crypto '97), simulated in-process.

This is the algorithm the paper selects in Section 3.1 because it needs no
trusted dealer: ``n`` domains jointly generate a modulus ``N = p*q`` and
exponents ``e``/``d`` such that

* every domain is convinced ``N`` is biprime,
* no domain learns the factorization,
* ``d`` ends up additively shared (``n``-of-``n``) so that *all* domains
  must cooperate to sign — exactly the consensus property Requirement III
  demands.

Pipeline per candidate round (all message flows simulated in-process):

1. **Share sampling** — party 1 picks ``p_1 == q_1 == 3 (mod 4)``, parties
   ``i > 1`` pick ``p_i == q_i == 0 (mod 4)``; the sums are the candidate
   primes with ``p == q == 3 (mod 4)``.
2. **Distributed trial division** (:mod:`repro.crypto.trial_division`).
3. **BGW multiplication** (:mod:`repro.crypto.bgw`) opens ``N`` only.
4. **Distributed Fermat biprimality test**
   (:mod:`repro.crypto.biprimality`).
5. **Shared decryption exponent**: with ``phi_1 = N - p_1 - q_1 + 1`` and
   ``phi_i = -(p_i + q_i)``, the parties reveal ``phi mod e``, set
   ``k = -(phi mod e)^-1 mod e`` and take ``d_i = floor(k * phi_i / e)``
   (party 1 adds the ``+1``).  The flooring loses up to ``n-1`` from the
   exact ``d``; a public trial-signature correction ``r`` repairs it —
   the trial-and-error correction used by Malkin, Wu and Boneh's
   implementation.

A fast **trusted-dealer** path (:func:`dealer_shared_rsa`) produces the
same share format for higher layers and tests that do not need the
dealerless property.
"""

from __future__ import annotations

import math
import secrets
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.hashcons import memoized
from .bgw import bgw_multiply
from .biprimality import biprimality_test
from .hashing import full_domain_hash
from .numtheory import modinv
from .rsa import DEFAULT_PUBLIC_EXPONENT, generate_keypair
from .sharing import additive_share
from .trial_division import passes_trial_division

__all__ = [
    "SharedRSAPublicKey",
    "PrivateKeyShare",
    "SharedKeyGenResult",
    "generate_shared_rsa",
    "dealer_shared_rsa",
]


@dataclass(frozen=True)
class SharedRSAPublicKey:
    """Public half of a shared RSA key owned by a compound principal.

    ``correction`` is the public trial-signature fix-up exponent ``r``
    such that ``prod(M^{d_i}) * M^r`` is the true signature ``M^d``.
    """

    modulus: int
    exponent: int
    n_parties: int
    correction: int = 0

    @property
    def bits(self) -> int:
        return self.modulus.bit_length()

    def verify(self, message: bytes, signature: int) -> bool:
        """Check an RSA-FDH signature made with the shared private key."""
        if not 0 < signature < self.modulus:
            return False
        expected = full_domain_hash(message, self.modulus)
        return pow(signature, self.exponent, self.modulus) == expected

    @memoized
    def fingerprint(self) -> str:
        """Key ID: hash of (N, e), per Section 3.2 of the paper."""
        import hashlib

        material = f"{self.modulus}:{self.exponent}".encode()
        return hashlib.sha256(material).hexdigest()[:16]


@dataclass(frozen=True)
class PrivateKeyShare:
    """One domain's additive share ``d_i`` of the shared private key."""

    index: int  # 1-based party index
    value: int  # d_i; may be negative in the dealerless construction
    modulus: int

    def partial_power(self, base: int) -> int:
        """Compute ``base^{d_i} mod N``, handling negative shares."""
        if self.value >= 0:
            return pow(base, self.value, self.modulus)
        return modinv(pow(base, -self.value, self.modulus), self.modulus)


@dataclass
class SharedKeyGenResult:
    """Outcome of a shared key generation run, with protocol statistics."""

    public_key: SharedRSAPublicKey
    shares: List[PrivateKeyShare]
    candidate_rounds: int = 0
    trial_division_rejects: int = 0
    biprimality_rejects: int = 0
    dealerless: bool = True
    # Abstract communication cost: number of point-to-point messages the
    # real protocol would have exchanged (used by benchmark E7).
    messages_exchanged: int = 0


def _sample_prime_shares(n_parties: int, prime_bits: int) -> List[int]:
    """Sample per-party additive contributions to a prime candidate.

    Party 1 contributes ``3 (mod 4)``; others ``0 (mod 4)``.  Shares are
    sized so the sum has roughly ``prime_bits`` bits with the top bit set.
    """
    shares: List[int] = []
    # Party 1 carries the magnitude; others add ~ (prime_bits - 2) bits.
    lead = (secrets.randbits(prime_bits - 1) | (1 << (prime_bits - 2))) * 4 + 3
    shares.append(lead)
    for _ in range(n_parties - 1):
        shares.append(secrets.randbits(max(prime_bits - 2, 3)) * 4)
    return shares


def _derive_private_shares(
    p_shares: Sequence[int],
    q_shares: Sequence[int],
    modulus_n: int,
    public_exponent: int,
) -> Optional[List[int]]:
    """Derive additive shares of ``d`` without reconstructing ``phi(N)``.

    Returns None when ``gcd(phi, e) != 1`` (caller retries the candidate).
    """
    n_parties = len(p_shares)
    phi_shares = [modulus_n - p_shares[0] - q_shares[0] + 1]
    phi_shares.extend(
        -(p_shares[i] + q_shares[i]) for i in range(1, n_parties)
    )
    # Each party publishes phi_i mod e; the sum reveals only phi mod e.
    zeta = sum(phi % public_exponent for phi in phi_shares) % public_exponent
    if math.gcd(zeta, public_exponent) != 1:
        return None
    k = (-modinv(zeta, public_exponent)) % public_exponent
    d_shares: List[int] = []
    for i, phi in enumerate(phi_shares):
        numerator = k * phi + (1 if i == 0 else 0)
        # Floor division keeps each share an integer; the cumulative error
        # (0..n-1) is repaired by the public trial-signature correction.
        d_shares.append(numerator // public_exponent)
    return d_shares


def _find_correction(
    d_shares: Sequence[int], modulus_n: int, public_exponent: int
) -> Optional[int]:
    """Public trial-signature correction exponent ``r``.

    Finds ``r`` in ``[0, n]`` with ``(prod(h^{d_i}) * h^r)^e == h (mod N)``
    for a fixed public trial base.  None when no correction works (the
    candidate was not actually biprime, or ``gcd(phi, e) != 1`` slipped
    through) -- the caller retries.
    """
    h = 2
    if math.gcd(h, modulus_n) != 1:  # pragma: no cover - N is odd
        h = 3
    combined = 1
    for i, d in enumerate(d_shares):
        share = PrivateKeyShare(index=i + 1, value=d, modulus=modulus_n)
        combined = (combined * share.partial_power(h)) % modulus_n
    for r in range(len(d_shares) + 1):
        candidate = (combined * pow(h, r, modulus_n)) % modulus_n
        if pow(candidate, public_exponent, modulus_n) == h % modulus_n:
            return r
    return None


def generate_shared_rsa(
    n_parties: int,
    bits: int = 256,
    public_exponent: int = DEFAULT_PUBLIC_EXPONENT,
    max_rounds: int = 100_000,
) -> SharedKeyGenResult:
    """Dealerless shared RSA key generation for ``n_parties`` domains.

    Args:
        n_parties: number of domains (>= 3; BGW needs an honest majority
            structure to open the product polynomial).
        bits: modulus size.  256 keeps tests quick; benchmarks sweep up.
        public_exponent: must be an odd prime (65537 by default).
        max_rounds: safety valve on candidate sampling.

    Returns:
        A :class:`SharedKeyGenResult` whose shares sum (with the public
        correction) to a valid private exponent.
    """
    if n_parties < 3:
        raise ValueError(
            "dealerless generation requires >= 3 parties; "
            "use dealer_shared_rsa for smaller coalitions"
        )
    if bits < 48:
        raise ValueError("modulus too small")
    prime_bits = bits // 2
    stats = SharedKeyGenResult(
        public_key=SharedRSAPublicKey(0, public_exponent, n_parties),
        shares=[],
    )
    # Message-count model per round: trial-division masks + BGW dealing +
    # opening + biprimality broadcasts.  Kept abstract but monotone in n.
    msgs_per_round = n_parties * (n_parties - 1) * 4

    for round_no in range(1, max_rounds + 1):
        stats.candidate_rounds = round_no
        stats.messages_exchanged += msgs_per_round
        p_shares = _sample_prime_shares(n_parties, prime_bits)
        q_shares = _sample_prime_shares(n_parties, prime_bits)
        if not passes_trial_division(p_shares) or not passes_trial_division(
            q_shares
        ):
            stats.trial_division_rejects += 1
            continue
        p = sum(p_shares)
        q = sum(q_shares)
        max_product = 1 << (2 * (prime_bits + n_parties.bit_length() + 2))
        modulus_n = bgw_multiply(p_shares, q_shares, max_product)
        assert modulus_n == p * q  # BGW opening is exact by construction
        if not biprimality_test(p_shares, q_shares, modulus_n):
            stats.biprimality_rejects += 1
            continue
        d_shares = _derive_private_shares(
            p_shares, q_shares, modulus_n, public_exponent
        )
        if d_shares is None:
            continue
        correction = _find_correction(d_shares, modulus_n, public_exponent)
        if correction is None:  # pragma: no cover - biprimality guards this
            continue
        public = SharedRSAPublicKey(
            modulus=modulus_n,
            exponent=public_exponent,
            n_parties=n_parties,
            correction=correction,
        )
        stats.public_key = public
        stats.shares = [
            PrivateKeyShare(index=i + 1, value=d, modulus=modulus_n)
            for i, d in enumerate(d_shares)
        ]
        return stats
    raise RuntimeError(f"no biprime found within {max_rounds} rounds")


def dealer_shared_rsa(
    n_parties: int,
    bits: int = 512,
    public_exponent: int = DEFAULT_PUBLIC_EXPONENT,
) -> SharedKeyGenResult:
    """Trusted-dealer additive sharing of a freshly generated RSA key.

    Produces the same :class:`SharedKeyGenResult` shape as the dealerless
    path (with ``correction == 0``), so all higher layers are agnostic to
    how the sharing came about.  Used as the fast path in tests and when
    ``n_parties < 3``.
    """
    if n_parties < 1:
        raise ValueError("need at least one party")
    pair = generate_keypair(bits=bits, public_exponent=public_exponent)
    n = pair.public.modulus
    raw = additive_share(pair.private.exponent, n_parties, bound=n * n)
    public = SharedRSAPublicKey(
        modulus=n,
        exponent=public_exponent,
        n_parties=n_parties,
        correction=0,
    )
    shares = [
        PrivateKeyShare(index=s.index, value=s.value, modulus=n) for s in raw
    ]
    return SharedKeyGenResult(
        public_key=public,
        shares=shares,
        candidate_rounds=1,
        dealerless=False,
        messages_exchanged=n_parties,
    )

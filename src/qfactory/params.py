"""Parameter sets for the LWE-based two-regular function family.

Two profiles exist:

* ``paper``: dimensions scaled for classical-only testing (keygen, inversion,
  estimators).
* ``toy``: everything small enough that the full quantum register
  (``total_bits`` qubits) fits in a statevector and the whole domain can be
  enumerated.  Toy parameters are intentionally insecure.

The noise set is realized as the integer box ``[-2^a, 2^a - 1]`` where
``2^a`` is the smallest power of two >= mu.  Every bit pattern of the noise
field then decodes to an in-box value, so a uniform superposition over noise
bits is exact.  When mu itself is a power of two the box carries zero invalid
mass; otherwise values with ``|e| > mu`` decode as invalid.

Z_q values are int64 arrays.  q is a power of two that divides 2^64, so a
matrix product that wraps around in int64 is still exact mod q after ``% q``.
q is capped at ``MAX_Q`` = 2^62, which keeps q and q/2 int64 scalars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

# Largest modulus: q and q/2 stay int64 scalars (paper_params(n) for n <= 256).
MAX_Q = 1 << 62

TOY_TOTAL_BITS_CAP = 14


@dataclass(frozen=True)
class ParamSet:
    """Lattice dimensions, modulus and noise bounds; governs every other type."""

    n: int
    q: int
    m: int
    mu: int
    mu_prime: int
    profile: str  # "toy" | "paper"
    ell_q: int = field(init=False)
    ell_e: int = field(init=False)

    def __post_init__(self):
        if self.profile not in ("toy", "paper"):
            raise ValueError(f"unknown profile {self.profile!r}")
        if self.q < 4 or (self.q & (self.q - 1)) != 0:
            raise ValueError("q must be a power of two >= 4")
        if self.q > MAX_Q:
            raise ValueError(f"q = {self.q} is above the int64 envelope MAX_Q = {MAX_Q}")
        object.__setattr__(self, "ell_q", self.q.bit_length() - 1)
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be positive")
        if self.mu < 1:
            raise ValueError("mu must be >= 1")
        if 2 * self.mu >= self.q // 2:
            raise ValueError("need 2*mu < q/2 for injectivity")
        box = noise_box_half(self.mu)
        object.__setattr__(self, "ell_e", box.bit_length())
        # The box [-B, B-1] may be wider than [-mu, mu]; injectivity needs the
        # whole representable range to stay below q/2.
        if 2 * box > self.q // 2:
            raise ValueError("noise box too wide: need 2^(ell_e) <= q/2")
        if self.profile == "toy":
            if self.mu_prime >= self.mu:
                raise ValueError("toy profile needs mu_prime < mu")
            if self.total_bits > TOY_TOTAL_BITS_CAP:
                raise ValueError(
                    f"toy register would need {self.total_bits} qubits "
                    f"(cap {TOY_TOTAL_BITS_CAP})"
                )
        else:
            if self.mu_prime > self.mu // self.m:
                raise ValueError("paper profile needs mu_prime <= mu/m")

    @property
    def noise_box(self) -> int:
        """Half-width B of the noise box [-B, B-1]."""
        return noise_box_half(self.mu)

    @property
    def total_bits(self) -> int:
        return self.n * self.ell_q + self.m * self.ell_e + 2


def noise_box_half(mu: int) -> int:
    """Smallest power of two >= mu."""
    return 1 << max(0, (mu - 1).bit_length())


def paper_params(n: int) -> ParamSet:
    """Parameter formulas giving the 2-regular-with-constant-probability family.

    mu is rounded up and mu' down, which preserves the direction of the
    2*mu < q/2 slack.
    """
    log_n = math.ceil(math.log2(n))
    q = 1 << (5 * log_n + 21)
    m = 23 * n + 5 * n * log_n
    mu = math.ceil(2 * m * n * math.sqrt(23 + 5 * math.log2(n)))
    mu_prime = mu // m
    return ParamSet(n=n, q=q, m=m, mu=mu, mu_prime=mu_prime, profile="paper")


def toy_params(n: int = 1, q: int = 8, m: int = 2, mu: int = 1, mu_prime: int = 0) -> ParamSet:
    return ParamSet(n=n, q=q, m=m, mu=mu, mu_prime=mu_prime, profile="toy")


# Named toys used throughout the tests and the acceptance suite.  Dimensions
# are constrained by a pigeonhole bound: injectivity of the base map needs
# q^n * (2*(B + mu'))^m * 2 to fit inside q^m with room to spare.

#: The smallest enumeration-scale toy: 7-qubit register, mu' = 0.
TOY_MICRO = toy_params(n=1, q=8, m=2, mu=1, mu_prime=0)

#: Smallest toy carrying a real gadget trapdoor (m > n*ell_q): 10 qubits.
TOY_GADGET = toy_params(n=1, q=8, m=5, mu=1, mu_prime=0)

#: Nonzero mu', so two-preimage probability is strictly below 1 (13 qubits).
TOY_REG = toy_params(n=1, q=32, m=3, mu=2, mu_prime=1)

#: Same noise at a larger modulus (14 qubits, right at the toy cap).
TOY_WIDE = toy_params(n=1, q=64, m=3, mu=2, mu_prime=1)


def params_by_name(name: str) -> ParamSet:
    presets = {
        "toy": TOY_GADGET,
        "toy-micro": TOY_MICRO,
        "toy-reg": TOY_REG,
        "toy-wide": TOY_WIDE,
        "paper": paper_params(4),
    }
    if name in presets:
        return presets[name]
    raise KeyError(f"unknown parameter preset {name!r}")

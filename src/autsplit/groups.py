"""Group specifications and elements.

A finite abelian p-group is given here by its canonical homocyclic
decomposition: a prime p and an ordered list of (exponent, rank) blocks with
strictly increasing exponents.  Block i contributes a summand isomorphic to
(Z/p^n_i)^{r_i}.  Elements are tuples of residue vectors, one vector per
block, always stored canonically reduced.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, isqrt, prod

from .errors import (
    BudgetExceeded,
    EmptyBlocks,
    NonIncreasingExponents,
    NonPrime,
    ShapeMismatch,
    SingleBlock,
    SpecError,
    TrivialResult,
    ZeroRank,
)

#: Default cap on element enumeration.
DEFAULT_ELEMENT_BUDGET = 2 ** 20

#: Default cap on enumeration of the kernel of reduction mod p.
DEFAULT_DELTA_BUDGET = 2 ** 16

GroupElement = tuple[tuple[int, ...], ...]


#: Miller-Rabin with the first 13 prime bases is exact below this bound.
PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; exact for p < PRIME_TEST_BOUND."""
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    """A proper factor of the odd composite n, by Brent's variant of rho.

    Deterministic: the start is fixed and the constant c steps 1, 2, ...
    until a step finds a factor other than n itself.
    """
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: retrace it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def _factorize(n: int) -> dict[int, int]:
    """The prime factorization of n >= 1 as {prime: multiplicity}, sorted.

    Trial division by the numbers below 1000, then Pollard-Brent on the
    cofactors; `_is_prime` confirms every factor reported.
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: dict[int, int] = {}
    for d in itertools.chain((2,), range(3, 1000, 2)):
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if _is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        root = isqrt(m)
        d = root if root * root == m else _pollard_brent(m)
        stack += [d, m // d]
    return dict(sorted(out.items()))


def primitive_root(p: int) -> int:
    """The smallest generator of the units mod the prime p (1 for p = 2)."""
    qs = _factorize(p - 1)
    return next(g for g in itertools.count(1)
                if all(pow(g, (p - 1) // q, p) != 1 for q in qs))


@dataclass(frozen=True)
class PGroupSpec:
    """The prime p and the ordered (exponent, rank) blocks defining G."""

    p: int
    blocks: tuple[tuple[int, int], ...]

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def exponents(self) -> tuple[int, ...]:
        return tuple(n for n, _ in self.blocks)

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(r for _, r in self.blocks)

    @property
    def moduli(self) -> tuple[int, ...]:
        """p^n_i per block."""
        return tuple(self.p ** n for n, _ in self.blocks)

    @property
    def total_rank(self) -> int:
        return sum(self.ranks)

    def describe(self) -> str:
        body = " + ".join(f"(Z/{self.p}^{n})^{r}" for n, r in self.blocks)
        return f"p={self.p}: {body}"


def validate_spec(p: int, blocks) -> PGroupSpec:
    """Validate raw input and build a PGroupSpec.

    p, n and r must be ints (a bool is not); anything else is a SpecError,
    never coerced.  Raises NonPrime, EmptyBlocks, ZeroRank or
    NonIncreasingExponents, and SpecError for p >= PRIME_TEST_BOUND.
    """
    blocks = tuple((n, r) for n, r in blocks)
    named = [("p", p)] + [x for n, r in blocks for x in (("n", n), ("r", r))]
    for name, value in named:
        if type(value) is not int:  # also rejects bool
            raise SpecError(f"{name} = {value!r} is not an integer")
    if p >= PRIME_TEST_BOUND:
        raise SpecError(f"p = {p} is past the primality test's bound "
                        f"{PRIME_TEST_BOUND}")
    if not _is_prime(p):
        raise NonPrime(f"p = {p!r} is not prime")
    if not blocks:
        raise EmptyBlocks("at least one block is required")
    for n, r in blocks:
        if n < 1:
            raise SpecError(f"exponent {n} must be >= 1")
        if r < 1:
            raise ZeroRank(f"rank {r} must be >= 1")
    for (n1, _), (n2, _) in zip(blocks, blocks[1:]):
        if n2 <= n1:
            raise NonIncreasingExponents(
                f"exponents must be strictly increasing, got {n1} then {n2}"
            )
    return PGroupSpec(p=p, blocks=blocks)


def spec_from_json(obj: dict) -> PGroupSpec:
    """Parse {"p": int, "blocks": [{"n": int, "r": int}, ...]}.

    Blocks must already be in increasing-exponent order; we reject rather
    than sort.
    """
    if not isinstance(obj, dict) or "p" not in obj or "blocks" not in obj:
        raise SpecError("spec JSON must have 'p' and 'blocks' keys")
    try:
        blocks = [(b["n"], b["r"]) for b in obj["blocks"]]
    except (TypeError, KeyError) as exc:
        raise SpecError(f"malformed blocks entry: {exc}") from exc
    return validate_spec(obj["p"], blocks)


def spec_to_json(spec: PGroupSpec) -> dict:
    return {"p": spec.p, "blocks": [{"n": n, "r": r} for n, r in spec.blocks]}


# --- elements ---

def check_element(spec: PGroupSpec, a: GroupElement) -> None:
    if len(a) != spec.num_blocks:
        raise ShapeMismatch(f"expected {spec.num_blocks} blocks, got {len(a)}")
    for vec, (n, r) in zip(a, spec.blocks):
        if len(vec) != r:
            raise ShapeMismatch(f"block vector has length {len(vec)}, expected {r}")


def add_elements(spec: PGroupSpec, a: GroupElement, b: GroupElement) -> GroupElement:
    """Coordinatewise sum, block i reduced mod p^n_i."""
    check_element(spec, a)
    check_element(spec, b)
    return tuple(
        tuple((x + y) % m for x, y in zip(va, vb))
        for va, vb, m in zip(a, b, spec.moduli)
    )


# --- orders ---

def group_order(spec: PGroupSpec) -> int:
    return prod(spec.p ** (n * r) for n, r in spec.blocks)


def gl_order(p: int, r: int) -> int:
    """|GL_r(F_p)| = prod_{k=0}^{r-1} (p^r - p^k)."""
    if r < 1:
        raise ValueError("rank must be >= 1")
    return prod(p ** r - p ** k for k in range(r))


def delta_order_exponent(spec: PGroupSpec) -> int:
    """Exponent a with |ker(reduction mod p)| = p^a.

    Each diagonal cell contributes r_i^2 (n_i - 1) to a (the diagonal is
    constrained to vanish mod p); an off-diagonal cell (j,k) contributes
    r_j r_k min(n_j, n_k), the divisibility constraint eating the rest.
    """
    a = 0
    for i, (ni, ri) in enumerate(spec.blocks):
        a += ri * ri * (ni - 1)
        for k, (nk, rk) in enumerate(spec.blocks):
            if k != i:
                a += ri * rk * min(ni, nk)
    return a


def delta_order(spec: PGroupSpec) -> int:
    """Number of automorphisms congruent to the identity mod p."""
    return spec.p ** delta_order_exponent(spec)


def pi_order(spec: PGroupSpec) -> int:
    """Order of the product of the blockwise general linear groups."""
    return prod(gl_order(spec.p, r) for _, r in spec.blocks)


def aut_order(spec: PGroupSpec) -> int:
    """|Aut(G)|: the kernel count times the product of GL orders."""
    return delta_order(spec) * pi_order(spec)


# --- derived specifications ---

def derive_pk_spec(spec: PGroupSpec, k: int) -> PGroupSpec:
    """The spec of p^k G: drop blocks with n_i <= k, lower the rest by k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k >= spec.exponents[-1]:
        raise TrivialResult(f"p^{k} G is trivial for {spec.describe()}")
    blocks = tuple((n - k, r) for n, r in spec.blocks if n > k)
    return PGroupSpec(p=spec.p, blocks=blocks)


def derive_tail_spec(spec: PGroupSpec) -> PGroupSpec:
    """The spec with the first block removed."""
    if spec.num_blocks < 2:
        raise SingleBlock("cannot drop the only block")
    return PGroupSpec(p=spec.p, blocks=spec.blocks[1:])


# --- enumeration ---

def enumerate_elements(spec: PGroupSpec, budget: int = DEFAULT_ELEMENT_BUDGET):
    """Yield every element once, odometer order (last coordinate fastest)."""
    order = group_order(spec)
    if order > budget:
        raise BudgetExceeded(f"group order {order} exceeds budget {budget}")
    ranges = [range(m) for (_, r), m in zip(spec.blocks, spec.moduli) for _ in range(r)]
    ranks = spec.ranks
    for flat in itertools.product(*ranges):
        out = []
        pos = 0
        for r in ranks:
            out.append(flat[pos:pos + r])
            pos += r
        yield tuple(out)

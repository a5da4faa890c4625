"""Splitting decision and explicit sections.

The reduction map from Aut(G) onto the product of blockwise general linear
groups splits exactly when every homocyclic block individually admits a
section; the per-block answer depends only on (p, exponent, rank):

  * exponent 1 (elementary abelian): always splits;
  * otherwise rank <= 1 for p >= 5, rank <= 2 for p = 3, rank <= 3 for p = 2.

A failing block rules splitting out for p >= 5 unconditionally, and for
p = 2, 3 whenever consecutive exponents differ by more than 1.  In the
remaining p = 2, 3 tight-gap region no verdict is available and the
classifier says so rather than extrapolate.

Where a section exists we build it explicitly.  Each block has fixed
generators of GL_r(F_p), the same in every spec, and its section is given
by their images in the block's diagonal cell (`block_section`): the
generators themselves for elementary blocks, their multiplicative lifts
for rank-1 blocks, and the images of a searched (or cached) certificate
for the exceptional small-rank p = 2, 3 blocks.  The section of G is their
block-diagonal sum: `build_verified_section` writes each block's images
into the rows of one `BlockEndo` per quotient generator and proves the
certificate once, in full and block by block (`verify_section`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .endo import (
    BlockEndo,
    QElement,
    block_graphs,
    bmul,
    cayley_graph,
    endo_from_json,
    endo_to_json,
    extend_along_rows,
    extend_by_blocks,
    identity_q,
    layout,
    q_from_json,
    q_is_invertible,
    q_mul,
    q_to_json,
    sigma,
)
from .errors import (
    BudgetExceeded,
    NotSplitBlock,
    Overflow,
    ShapeMismatch,
    VerificationFailed,
)
from .groups import (
    DEFAULT_ELEMENT_BUDGET,
    PGroupSpec,
    gl_order,
    pi_order,
    spec_from_json,
    spec_to_json,
    validate_spec,
)
from .matrices import Matrix
from .oracle import (
    DEFAULT_ASSIGNMENT_BUDGET,
    complement_lift_search,
    find_generators_of_Q,
    gl_generators,
)

#: Largest rank for which a non-elementary block still splits.
RANK_BOUND = {2: 3, 3: 2}


def rank_bound(p: int) -> int:
    return RANK_BOUND.get(p, 1)


@dataclass(frozen=True)
class BlockVerdict:
    n: int
    r: int
    outcome: str  # "Splits" | "DoesNotSplit"
    rule: str

    def to_json(self) -> dict:
        return {"n": self.n, "r": self.r, "outcome": self.outcome,
                "rule": self.rule}


@dataclass(frozen=True)
class SplitVerdict:
    outcome: str  # "Splits" | "DoesNotSplit" | "Unknown"
    rule: str
    per_block: tuple[BlockVerdict, ...]
    gaps_ok: bool

    def to_json(self) -> dict:
        return {
            "outcome": self.outcome,
            "rule": self.rule,
            "per_block": [b.to_json() for b in self.per_block],
            "gaps_ok": self.gaps_ok,
        }


def classify_block(p: int, n: int, r: int) -> BlockVerdict:
    """Per-block splitting verdict from (p, exponent, rank) alone."""
    if n == 1:
        return BlockVerdict(n, r, "Splits", "elementary-abelian")
    if r <= rank_bound(p):
        return BlockVerdict(n, r, "Splits", "rank-within-bound")
    return BlockVerdict(n, r, "DoesNotSplit", "rank-exceeds-bound")


def classify(spec: PGroupSpec) -> SplitVerdict:
    """Whole-group verdict assembled from the per-block criteria."""
    per_block = tuple(classify_block(spec.p, n, r) for n, r in spec.blocks)
    gaps_ok = all(n2 - n1 > 1 for (n1, _), (n2, _)
                  in zip(spec.blocks, spec.blocks[1:]))
    if all(b.outcome == "Splits" for b in per_block):
        return SplitVerdict("Splits", "all-blocks-split", per_block, gaps_ok)
    if spec.p >= 5:
        return SplitVerdict("DoesNotSplit", "failing-block", per_block, gaps_ok)
    if gaps_ok:
        return SplitVerdict("DoesNotSplit", "failing-block-wide-gaps",
                            per_block, gaps_ok)
    return SplitVerdict("Unknown", "outside-gap-hypothesis", per_block, gaps_ok)


# --- per-block sections ---

def teichmuller_section(p: int, n: int):
    """The multiplicative lift of units: a -> a^(p^(n-1)) mod p^n.

    Reduces to a mod p, is multiplicative, and lands in the (p-1)-torsion.
    For p = 2 the domain is the trivial group.  It is the root of x^(p-1) = 1
    that is a mod p, so Newton's iteration x <- x - x (x^(p-1) - 1) / (p-1),
    mod p^k with k doubling and 1/(p-1) = -(p^k - 1)/(p-1), finds it in a
    few products at the size of p^n; the power takes n*log2(p) of them.
    """

    def omega(a: int) -> int:
        if a % p == 0:
            raise ValueError(f"{a} is not a unit mod {p}")
        x, k = a % p, 1
        while k < n:
            k = min(2 * k, n)
            q = p ** k
            x = (x + x * (pow(x, p - 1, q) - 1) * ((q - 1) // (p - 1))) % q
        return x

    return omega


@lru_cache(maxsize=None)
def _searched_block(spec: PGroupSpec, assignment_budget: int):
    """The lift search of a one-block spec, run once per process and key."""
    # the coset scan can only prove that a block does not split
    return complement_lift_search(spec, assignment_budget=assignment_budget,
                                  pre_obstruction=False)


def block_section(p: int, n: int, r: int,
                  oracle_budget: int = DEFAULT_ASSIGNMENT_BUDGET,
                  cache=None) -> tuple[Matrix, ...]:
    """One block's section, as its images of the block's fixed generators.

    Every spec gives block (p, n, r) the generators of GL_r(F_p) that
    `gl_generators` fixes, so these images are the block's diagonal cell in
    the image of each of them.  They are the generators themselves for
    exponent 1 and their multiplicative lifts for rank 1; otherwise they
    are the images in the block's certificate, loaded from the cache
    (unproved: it is proved inside the section it goes into) or searched
    for, once per process, and proved before it is stored.  The
    certificate that holds the images is proved in full
    (`build_verified_section`).  Each image is an r x r matrix, a
    canonical tuple of rows over Z/p^n.
    """
    verdict = classify_block(p, n, r)
    if verdict.outcome != "Splits":
        raise NotSplitBlock(f"(p={p}, n={n}, r={r}) does not split")
    gens = gl_generators(p, r)
    if n == 1:
        return gens
    if r == 1:
        omega = teichmuller_section(p, n)
        return tuple(((omega(m[0][0]),),) for m in gens)

    loaded = cache.load_block(p, n, r) if cache is not None else None
    if loaded is None:
        spec = validate_spec(p, [(n, r)])
        result = _searched_block(spec, oracle_budget)
        if result.outcome == "BudgetExceeded":
            raise BudgetExceeded(
                f"section search for (p={p}, n={n}, r={r}) ran out of "
                f"budget: {result.evidence}")
        if result.outcome != "Found":
            raise NotSplitBlock(
                f"search found no section for (p={p}, n={n}, r={r})")
        images = result.images
        if cache is not None:
            cert = SectionCertificate(spec=spec, generators=result.generators,
                                      images=images, verification={})
            cache.store_block(p, n, r, replace(
                cert, verification=verify_section(cert).to_json()))
    else:
        images = loaded.images
    return tuple(img.rows for img in images)


# --- certificates ---

@dataclass(frozen=True)
class SectionCertificate:
    """Generating-set-to-image table witnessing a section."""

    spec: PGroupSpec
    generators: tuple[QElement, ...]
    images: tuple[BlockEndo, ...]
    verification: dict

    def to_json(self) -> dict:
        return {
            "spec": spec_to_json(self.spec),
            "generators": [q_to_json(g) for g in self.generators],
            "images": [endo_to_json(e) for e in self.images],
            "verification": dict(self.verification),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SectionCertificate":
        """Read a certificate; malformed input raises an AutSplitError."""
        if (not isinstance(obj, dict) or "spec" not in obj
                or not isinstance(obj.get("generators"), list)
                or not isinstance(obj.get("images"), list)
                or not isinstance(obj.get("verification", {}), dict)):
            raise VerificationFailed(
                "certificate JSON needs 'spec', lists 'generators' and "
                "'images', and an optional object 'verification'")
        spec = spec_from_json(obj["spec"])
        generators = tuple(q_from_json(spec, g) for g in obj["generators"])
        images = tuple(endo_from_json(spec, e) for e in obj["images"])
        return cls(spec=spec, generators=generators, images=images,
                   verification=dict(obj.get("verification", {})))


def _block_graphs(cert: SectionCertificate):
    """`block_graphs` of the certificate's generators, which must span Q.

    The largest block is checked against DEFAULT_ELEMENT_BUDGET before any
    graph is built: a proof walks every block, and a stored certificate may
    name any block.
    """
    spec = cert.spec
    largest = gl_order(spec.p, max(spec.ranks))
    if largest > DEFAULT_ELEMENT_BUDGET:
        raise VerificationFailed(
            f"a block of the quotient has {largest} elements, more than the "
            f"{DEFAULT_ELEMENT_BUDGET} a proof may walk")
    try:
        moves, graphs = block_graphs(spec, [g.mats for g in cert.generators])
    except (Overflow, ShapeMismatch) as exc:
        raise VerificationFailed(f"generators: {exc}") from None
    for j, (r, graph) in enumerate(zip(spec.ranks, graphs)):
        if graph is None:
            raise VerificationFailed(f"generators of block {j} do not "
                                     f"generate GL_{r}(F_{spec.p})")
    return moves, graphs


def block_tables(cert: SectionCertificate) -> tuple[list[np.ndarray], int]:
    """Prove that the images extend to a section, block by block.

    The images must extend to a homomorphism T of Q (`extend_by_blocks`),
    and each T_j(m), m in GL_rj(F_p), must reduce to m in block j and to 1
    in the other diagonal cells.  Returns the tables T_j, in the order of
    the block graphs' elements, and `verify_section`'s pairs_checked.
    """
    spec = cert.spec
    lay = layout(spec)
    moves, graphs = _block_graphs(cert)
    tables = extend_by_blocks(moves, graphs, [img.rows for img in cert.images],
                              lay)
    if tables is None:
        raise VerificationFailed("generator images are inconsistent")
    for j, (graph, table) in enumerate(zip(graphs, tables)):
        bad = np.zeros(len(table), dtype=bool)
        for k, (start, stop) in enumerate(zip(lay.offsets, lay.offsets[1:])):
            want = (graph.elements if k == j
                    else np.eye(stop - start, dtype=int))
            bad |= np.any(table[:, start:stop, start:stop] % spec.p != want,
                          axis=(1, 2))
        if bad.any():
            mats = list(identity_q(spec).mats)
            mats[j] = graph.element(int(np.argmax(bad)))
            raise VerificationFailed(
                "table image has wrong reduction",
                counterexample=QElement(p=spec.p, mats=tuple(mats)))
    sizes = [len(ks) for ks in moves]
    pairs = (sum(graph.size * n for graph, n in zip(graphs, sizes))
             + sum(a * b for a, b in itertools.combinations(sizes, 2)))
    return tables, pairs


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of `verify_section`.

    `tables` is the proven section on each block, as `block_tables`
    returns it ("cayley-edges" only); it is not part of the JSON form.
    """

    mode: str
    pairs_checked: int
    ok: bool
    tables: tuple | None = field(default=None, compare=False, repr=False)

    def to_json(self) -> dict:
        return {"mode": self.mode, "pairs": self.pairs_checked, "ok": self.ok}


def verify_section(cert: SectionCertificate, mode: str = "cayley-edges",
                   full_table_limit: int = 10_000) -> VerificationReport:
    """Prove that a certificate defines a section of sigma.

    Raises VerificationFailed on the first failed check.  The default mode,
    "cayley-edges", is a complete proof that never walks Q.  Let S be the
    generators, each checked to be invertible, to have an image that
    reduces to it, and to be the identity in every block but at most one,
    as in every certificate this tool writes.  Q is the direct product of
    the GL_rj(F_p), so `block_tables` proves that g -> T(g) extends to a
    homomorphism T : Q -> Aut(G) with the checks of `extend_by_blocks`:

      * per block j, the generators of j span GL_rj(F_p) and the images
        extend along every edge of their Cayley graph: T_j(1) = 1 and
        T_j(m*g) = T_j(m)*T(g), so T_j is a homomorphism by induction on
        word length;
      * images of generators of different blocks commute, so the T_j(GL_rj)
        commute and T(q) = prod_j T_j(q_j) is a homomorphism;
      * a generator that moves no block maps to 1.

    T(q)*T(q^-1) = T(1) = 1 makes every T(q) an automorphism.  Finally
    reduction: sigma(T_j(m)) is m in block j and 1 elsewhere, for every
    block and element, so sigma(T(q)) = q and T is a section.
    `pairs_checked` counts sum_j |GL_rj(F_p)|*|S_j| edges and one
    commutation per pair of generators of different blocks.  A block of
    more than DEFAULT_ELEMENT_BUDGET elements fails before any graph is
    built.

    "full-table" is the reference the tests compare against, and shares
    none of this: it extends the images along the generators' Cayley graph
    over all of Q (`cayley_graph`, `extend_along_rows`), checks
    sigma(T(q)) == q, then composes every pair of quotient elements, |Q|^2
    compositions, refusing quotients larger than `full_table_limit`.
    """
    if mode not in ("cayley-edges", "full-table"):
        raise ValueError(f"unknown verification mode {mode!r}")
    if len(cert.generators) != len(cert.images):
        raise VerificationFailed(
            f"{len(cert.generators)} generators but {len(cert.images)} images")
    for g, img in zip(cert.generators, cert.images):
        if not q_is_invertible(g):
            raise VerificationFailed("generator is not invertible mod p",
                                     counterexample=g)
        if sigma(img) != g:
            raise VerificationFailed("image does not reduce to its generator",
                                     counterexample=g)

    if mode == "cayley-edges":
        tables, pairs = block_tables(cert)
        return VerificationReport(mode=mode, pairs_checked=pairs, ok=True,
                                  tables=tuple(tables))

    spec = cert.spec
    size = pi_order(spec)
    if size > full_table_limit:
        raise VerificationFailed(
            f"quotient too large for full-table mode ({size})")
    lay = layout(spec)
    elements, targets = cayley_graph(cert.generators, q_mul, identity_q(spec),
                                     cap=size)
    rows = extend_along_rows(targets, len(elements),
                             [img.rows for img in cert.images], lay)
    if len(elements) != size or rows is None:
        raise VerificationFailed("generator images do not extend to Q")
    if any(sigma(BlockEndo(spec=spec, rows=t)) != q
           for q, t in zip(elements, rows)):
        raise VerificationFailed("table image has wrong reduction")
    table = np.array(rows, dtype=lay.dtype)
    index = {q: i for i, q in enumerate(elements)}
    pairs = 0
    for q1, e1 in zip(elements, table):
        want = table[[index[q_mul(q1, q2)] for q2 in elements]]
        bad = np.any(bmul(lay, e1, table) != want, axis=(1, 2))
        if bad.any():
            raise VerificationFailed(
                "homomorphism property fails",
                counterexample=(q1, elements[int(np.argmax(bad))]))
        pairs += len(elements)
    return VerificationReport(mode=mode, pairs_checked=pairs, ok=True)


def _section_certificate(spec: PGroupSpec, oracle_budget: int, cache
                         ) -> SectionCertificate:
    """The unproved block-diagonal certificate of spec."""
    generators = find_generators_of_Q(spec)
    lay = layout(spec)
    D = spec.total_rank
    images = []
    for (n, r), start in zip(spec.blocks, lay.offsets):
        for cell in block_section(spec.p, n, r, oracle_budget=oracle_budget,
                                  cache=cache):
            rows = list(lay.identity)
            rows[start:start + r] = [(0,) * start + row + (0,) * (D - start - r)
                                     for row in cell]
            images.append(BlockEndo(spec=spec, rows=tuple(rows)))
    return SectionCertificate(spec=spec, generators=generators,
                              images=tuple(images),
                              verification={"mode": "unverified", "pairs": 0})


def build_verified_section(spec: PGroupSpec, mode: str = "cayley-edges",
                           oracle_budget: int = DEFAULT_ASSIGNMENT_BUDGET,
                           cache=None,
                           ) -> tuple[SectionCertificate, VerificationReport]:
    """The block-diagonal section of spec, proved once as a whole.

    Each generator of the quotient moves one block, and `block_section`
    gives that block's image of it, which goes straight into the block's
    diagonal cell of an otherwise identity `BlockEndo`; the certificate is
    then proved by `verify_section`.  Cached blocks are proved only there.
    If that proof fails, the cache proves each entry it gave alone
    (`CertificateCache.recheck`); when one fails, it is a miss, and the
    section is built and proved once more, searching that block again.
    When none fails, the cache did not cause the failure, which is raised.
    """
    verdict = classify(spec)
    if verdict.outcome != "Splits":
        raise NotSplitBlock(f"classifier verdict is {verdict.outcome}")
    cert = _section_certificate(spec, oracle_budget, cache)
    try:
        report = verify_section(cert, mode=mode)
    except VerificationFailed:
        if cache is None or not cache.recheck(spec):
            raise
        cert = _section_certificate(spec, oracle_budget, cache)
        report = verify_section(cert, mode=mode)
    return replace(cert, verification=report.to_json()), report

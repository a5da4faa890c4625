"""Independent brute-force ground truth.

Nothing in this module trusts the closed-form criteria it is used to check:
bijectivity is decided by applying a map to every group element, kernel
membership by direct enumeration, and splitting by an exhaustive search over
generator lifts.  The two proofs that sweep the whole kernel Delta (the
coset obstruction and the lift search) hold it as one (N, D, D) array and
apply each operation to all N elements at once, with the stack kernel of
`endo` (`bmul`, `bpow`, `is_identity`); `enumerate_delta` still yields them
one by one, in the same odometer order.  The lift search tests each
assignment with the check that also proves a section certificate
(`endo.extend_by_blocks`), batched the same way: one product per level of
each block graph's spanning tree, of that level by every generator, which
fills in the next level and checks the level's edges, so an assignment
that breaks a relation is dropped at the level where it breaks.  Kernel
elements are inverted by their finite Neumann series (`_delta_inverses`).
Each GL_r(F_p) block has fixed generators (`gl_generators`), and its
Cayley graph is walked once per process (`endo.gl_span`, a
level-synchronous BFS on integer arrays).  Budgets are explicit and
enumeration order is fixed, so every run is reproducible.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import matrices as mx
from .endo import (
    BlockEndo,
    QElement,
    Rows,
    add_endos,
    block_graphs,
    bmul,
    bpow,
    endo_to_json,
    extend_by_blocks,
    identity_endo,
    is_automorphism,
    is_identity,
    layout,
    mul_rows,
    pow_endo,
    pow_rows,
    q_mul,
    q_order,
    q_to_json,
    zero_endo,
)
from .errors import (
    BudgetExceeded,
    NotAUnit,
    PreconditionViolation,
    RankTooSmall,
)
from .groups import (
    DEFAULT_DELTA_BUDGET,
    DEFAULT_ELEMENT_BUDGET,
    PGroupSpec,
    delta_order,
    delta_order_exponent,
    group_order,
    gl_order,
    primitive_root,
    spec_to_json,
)

#: Default cap on the number of lift assignments tried by the search.
DEFAULT_ASSIGNMENT_BUDGET = 2 ** 22

#: Largest (|Delta|, D, D) array of 8-byte entries that a sweep of Delta
#: may build; its temporaries take the peak to about five times that.
KERNEL_BYTES = 2 ** 28


# --- vectorized element table ---

@lru_cache(maxsize=None)
def _element_table(spec: PGroupSpec):
    """All group elements as rows of flat coordinates, odometer order."""
    mods = layout(spec).moduli
    grids = np.meshgrid(*[np.arange(m, dtype=np.int64) for m in mods],
                        indexing="ij")
    table = np.stack([g.reshape(-1) for g in grids], axis=1)
    table.flags.writeable = False
    return table


def brute_force_is_bijective(e: BlockEndo,
                             budget: int = DEFAULT_ELEMENT_BUDGET) -> bool:
    """Apply e to every element; true iff the image has no collisions."""
    spec = e.spec
    order = group_order(spec)
    if order > budget:
        raise BudgetExceeded(f"group order {order} exceeds budget {budget}")
    table = _element_table(spec)
    mods = layout(spec).mods[:, 0]
    img = (table @ _flat(e).T) % mods
    weights = np.concatenate(([1], np.cumprod(mods[:-1])))
    hit = np.zeros(order, dtype=bool)  # packed codes lie in [0, order)
    hit[(img @ weights).astype(np.intp, copy=False)] = True
    return bool(hit.all())


# --- enumeration of the kernel and of all endomorphisms ---

def _free_entry_ranges(spec: PGroupSpec, kernel: bool):
    """Per-entry (row, col, step, count) of the flat matrix, odometer order.

    Entries run cell by cell, (j, k) row-major, and row-major inside a
    cell.  Entry (i, c) takes the values step * t for t < count.  With
    kernel=True the diagonal cells are restricted to multiples of p.
    """
    p = spec.p
    off = layout(spec).offsets
    out = []
    for j, (nj, rj) in enumerate(spec.blocks):
        for k, (nk, rk) in enumerate(spec.blocks):
            if j == k:
                step = p if kernel else 1
                count = p ** (nj - 1) if kernel else p ** nj
            else:
                step = p ** max(nj - nk, 0)
                count = p ** min(nj, nk)
            out += [(off[j] + a, off[k] + b, step, count)
                    for a in range(rj) for b in range(rk)]
    return out


def _endo_stream(spec: PGroupSpec, kernel: bool, offset: BlockEndo | None):
    entries = _free_entry_ranges(spec, kernel)
    lay = layout(spec)
    base = offset.rows if offset is not None else zero_endo(spec).rows
    for combo in itertools.product(*[range(c) for *_, c in entries]):
        grid = [list(row) for row in base]
        for (i, c, step, _), t in zip(entries, combo):
            grid[i][c] += step * t
        yield BlockEndo(spec=spec, rows=tuple(
            tuple(x % m for x in row) for row, m in zip(grid, lay.moduli)))


def enumerate_delta(spec: PGroupSpec, budget: int = DEFAULT_DELTA_BUDGET):
    """Yield the kernel of reduction mod p: identity plus the ideal, odometer order."""
    size = delta_order(spec)
    if size > budget:
        raise BudgetExceeded(f"kernel size {size} exceeds budget {budget}")
    yield from _endo_stream(spec, kernel=True, offset=identity_endo(spec))


def endo_count(spec: PGroupSpec) -> int:
    """Number of endomorphisms of G."""
    total = 1
    for *_, count in _free_entry_ranges(spec, kernel=False):
        total *= count
    return total


def enumerate_endos(spec: PGroupSpec, budget: int = DEFAULT_ELEMENT_BUDGET):
    """Yield every endomorphism once, odometer order over free parameters."""
    total = endo_count(spec)
    if total > budget:
        raise BudgetExceeded(f"endomorphism count {total} exceeds budget {budget}")
    yield from _endo_stream(spec, kernel=False, offset=None)


def count_bijective_endos(spec: PGroupSpec,
                          endo_budget: int = DEFAULT_ELEMENT_BUDGET,
                          element_budget: int = DEFAULT_ELEMENT_BUDGET) -> int:
    """Brute-force |Aut(G)|: test every endomorphism for bijectivity."""
    return sum(
        1 for e in enumerate_endos(spec, budget=endo_budget)
        if brute_force_is_bijective(e, budget=element_budget)
    )


# --- Delta as one (N, D, D) array, in `endo.layout(spec).dtype` ---

def _flat(e: BlockEndo) -> np.ndarray:
    """The flat matrix of e as a numpy array."""
    return np.array(e.rows, dtype=layout(e.spec).dtype)


def _unflat(spec: PGroupSpec, rows: list[list[int]]) -> BlockEndo:
    """The BlockEndo with these rows (from `.tolist()`)."""
    return BlockEndo(spec=spec, rows=tuple(map(tuple, rows)))


def _kernel_size(spec: PGroupSpec, budget: int) -> int:
    """|Delta|; BudgetExceeded past `budget` or past KERNEL_BYTES."""
    size = delta_order(spec)
    if size > budget:
        raise BudgetExceeded(f"kernel size {size} exceeds budget {budget}")
    if size * spec.total_rank ** 2 * 8 > KERNEL_BYTES:
        raise BudgetExceeded(f"kernel array exceeds {KERNEL_BYTES} bytes")
    return size


def _delta_array(spec: PGroupSpec,
                 budget: int = DEFAULT_DELTA_BUDGET) -> np.ndarray:
    """All of Delta as an (N, D, D) array, in the order of enumerate_delta.

    Row t holds the odometer digits of t, last entry fastest, each times its
    entry's step; the identity is added and the rows reduced in place.
    """
    size = _kernel_size(spec, budget)
    lay = layout(spec)
    out = np.zeros((size,) + lay.ident.shape, dtype=lay.dtype)
    rest = np.arange(size)
    for i, c, step, count in reversed(_free_entry_ranges(spec, kernel=True)):
        rest, digit = np.divmod(rest, count)
        out[:, i, c] = digit.astype(lay.dtype) * step
    out += lay.ident
    out %= lay.mods
    return out


# --- random endomorphisms (seeded, for sampling-style checks) ---

def _random_entries(spec: PGroupSpec, rng: random.Random,
                    kernel: bool) -> BlockEndo:
    """One uniform draw per free entry, in odometer order."""
    D = spec.total_rank
    grid = [[0] * D for _ in range(D)]
    for i, c, step, count in _free_entry_ranges(spec, kernel):
        grid[i][c] = step * rng.randrange(count)
    return BlockEndo(spec=spec, rows=tuple(map(tuple, grid)))


def random_endo(spec: PGroupSpec, rng: random.Random) -> BlockEndo:
    """A uniformly random endomorphism respecting the divisibility constraints."""
    return _random_entries(spec, rng, kernel=False)


def random_unit(spec: PGroupSpec, rng: random.Random,
                max_tries: int = 1000) -> BlockEndo:
    for _ in range(max_tries):
        e = random_endo(spec, rng)
        if is_automorphism(e):
            return e
    raise RuntimeError("failed to sample a unit; p too small and unlucky")


def random_ideal_element(spec: PGroupSpec, rng: random.Random) -> BlockEndo:
    """Random element of the ideal (diagonal cells vanish mod p)."""
    return _random_entries(spec, rng, kernel=True)


def random_delta_element(spec: PGroupSpec, rng: random.Random) -> BlockEndo:
    return add_endos(identity_endo(spec), random_ideal_element(spec, rng))


# --- agreement report: unit criterion vs brute force ---

@dataclass(frozen=True)
class AgreementReport:
    spec: PGroupSpec
    checked: int
    disagreements: int
    exhaustive: bool
    seed: int

    def to_json(self) -> dict:
        return {
            "spec": spec_to_json(self.spec),
            "checked": self.checked,
            "disagreements": self.disagreements,
            "exhaustive": self.exhaustive,
            "seed": self.seed,
        }


def bijective_equivalence_report(spec: PGroupSpec, samples: int = 10_000,
                                 seed: int = 0,
                                 endo_budget: int = 2 ** 14,
                                 element_budget: int = DEFAULT_ELEMENT_BUDGET,
                                 ) -> AgreementReport:
    """Compare is_automorphism with brute-force bijectivity.

    Exhausts the endomorphism set when it fits in endo_budget, otherwise
    checks structured edge cases plus `samples` random endomorphisms.
    """
    def agree(e: BlockEndo) -> bool:
        return is_automorphism(e) == brute_force_is_bijective(
            e, budget=element_budget)

    checked = 0
    bad = 0
    if endo_count(spec) <= endo_budget:
        for e in enumerate_endos(spec, budget=endo_budget):
            checked += 1
            bad += 0 if agree(e) else 1
        return AgreementReport(spec, checked, bad, exhaustive=True, seed=seed)

    rng = random.Random(seed)
    structured = [identity_endo(spec), zero_endo(spec)]
    structured += [random_delta_element(spec, rng) for _ in range(16)]
    for e in structured:
        checked += 1
        bad += 0 if agree(e) else 1
    for _ in range(samples):
        e = random_endo(spec, rng)
        checked += 1
        bad += 0 if agree(e) else 1
    return AgreementReport(spec, checked, bad, exhaustive=False, seed=seed)


# --- generators of the quotient product ---

@lru_cache(maxsize=None)
def gl_generators(p: int, r: int) -> tuple[mx.Matrix, ...]:
    """The fixed generators of GL_r(F_p): none, one, or a pair.

    GL_1(F_p) is cyclic, generated by a primitive root omega.  For r >= 2
    the pair is that of D. E. Taylor, "Pairs of generators for matrix
    groups. I" (1987), as GAP uses it: a = diag(omega, 1, ..., 1) and c
    with c[0][0] = -1, c[0][r-1] = 1, c[i][i-1] = -1 below the diagonal and
    0 elsewhere.  For p = 2, a is the transvection I + E_12 instead and c
    comes first.  That the pair generates GL_r(F_p), and that the first
    generator's order is prime to p, rests on a finite check, made by the
    tests with `gl_span` for every (p, r) with r >= 2 and |GL_r(F_p)| <=
    2^20; every proof walks the generators' Cayley graph again.  The lift
    search prefers a first generator of order prime to p: it prunes that
    generator's whole candidate coset down to a few kernel-conjugacy
    classes.
    """
    if gl_order(p, r) == 1:
        return ()
    omega = primitive_root(p)
    if r == 1:
        return (((omega,),),)
    a = [list(row) for row in mx.identity(r)]
    if p == 2:
        a[0][1] = 1
    else:
        a[0][0] = omega
    c = [[0] * r for _ in range(r)]
    c[0][0], c[0][r - 1] = p - 1, 1
    for i in range(1, r):
        c[i][i - 1] = p - 1
    a, c = tuple(map(tuple, a)), tuple(map(tuple, c))
    return (c, a) if p == 2 else (a, c)


@lru_cache(maxsize=None)
def find_generators_of_Q(spec: PGroupSpec) -> tuple[QElement, ...]:
    """A generating set of the product of blockwise GL groups.

    Each block's fixed generators (`gl_generators`), embedded with identity
    matrices elsewhere, block by block; so every spec with a block of rank r
    gives it the generators of the one-block certificate of that rank.
    Cached per spec.  Raises BudgetExceeded past DEFAULT_ELEMENT_BUDGET
    elements in a block, which no proof walks.
    """
    if gl_order(spec.p, max(spec.ranks)) > DEFAULT_ELEMENT_BUDGET:
        raise BudgetExceeded("quotient too large to verify generators")
    idents = [mx.identity(r) for r in spec.ranks]
    gens: list[QElement] = []
    for i, r in enumerate(spec.ranks):
        for g in gl_generators(spec.p, r):
            mats = list(idents)
            mats[i] = g
            gens.append(QElement(p=spec.p, mats=tuple(mats)))
    return tuple(gens)


# --- complement search over generator lifts ---

@dataclass(frozen=True)
class SearchResult:
    """Outcome of the exhaustive lift search.

    outcome is one of Found / NotFound / BudgetExceeded; evidence says how a
    NotFound was reached ("exhausted" is a proof of non-splitting,
    "obstruction" means the order-p coset pre-pass already ruled a section
    out), and which bound a BudgetExceeded met: "quotient too large",
    "kernel too large", "assignment budget" or "time budget".
    """

    spec: PGroupSpec
    outcome: str
    evidence: str
    generators: tuple[QElement, ...] = ()
    images: tuple[BlockEndo, ...] = ()
    assignments_tried: int = 0

    def to_json(self) -> dict:
        out = {
            "spec": spec_to_json(self.spec),
            "verdict": self.outcome,
            "evidence": self.evidence,
            "assignments_tried": self.assignments_tried,
        }
        if self.outcome == "Found":
            out["generators"] = [q_to_json(g) for g in self.generators]
            out["images"] = [endo_to_json(e) for e in self.images]
        return out


def _diagonal_int_lift(spec: PGroupSpec, q: QElement) -> BlockEndo:
    """Entrywise integer lift of a quotient element, block diagonal."""
    D = spec.total_rank
    grid = [[0] * D for _ in range(D)]
    for o, m in zip(layout(spec).offsets, q.mats):
        for a, row in enumerate(m):
            grid[o + a][o:o + len(row)] = map(int, row)
    return BlockEndo(spec=spec, rows=tuple(map(tuple, grid)))


def _delta_inverses(spec: PGroupSpec, deltas: np.ndarray) -> np.ndarray:
    """The inverses of a stack of kernel elements d = 1 + x, checked.

    x lies in the ideal J of endomorphisms whose diagonal cells vanish mod
    p, which is nilpotent: |J| = p^a with a = `delta_order_exponent`, and
    each power of J is at most 1/p of the one before, so J^(a + 1) = 0.
    The inverse is then the finite Neumann series sum_k (-x)^k, summed
    until the stack of powers is all zero; for (Z/p^2)^r, x^2 = 0 already,
    so d^-1 = 2 - d.  Raises NotAUnit when a + 1 powers do not reach zero
    (a stack outside Delta) or when some d * d^-1 is not 1.
    """
    lay = layout(spec)
    neg_x = (lay.ident - deltas) % lay.mods
    power = inverse = np.broadcast_to(lay.ident, deltas.shape)
    for _ in range(delta_order_exponent(spec) + 1):
        power = bmul(lay, power, neg_x)
        if not power.any():
            break
        inverse = (inverse + power) % lay.mods
    else:
        raise NotAUnit("a stack is not in the kernel: its Neumann series "
                       "does not end")
    if not is_identity(lay, bmul(lay, deltas, inverse)).all():
        raise NotAUnit("a kernel element failed its inverse check")
    return inverse


def _coset_codes(spec: PGroupSpec, hs: np.ndarray) -> np.ndarray:
    """The odometer index in Delta of each h of one coset lift(g) * Delta.

    Entry (i, c) of h is digit * step plus, in a diagonal cell, g's entry
    below p; so h // step gives the digits of `_free_entry_ranges`, and
    with them the index of h's digits in the order of `enumerate_delta`.
    The codes are int64 in [0, |Delta|), and they tell the coset's elements
    apart.
    """
    rows, cols, steps, counts = map(np.array, zip(
        *_free_entry_ranges(spec, kernel=True)))
    weights = np.cumprod(np.append(1, counts[:0:-1]))[::-1]
    digits = hs[:, rows, cols] // steps.astype(hs.dtype)
    return (digits.astype(np.int64) * weights).sum(axis=1)


def _lift_candidates(spec: PGroupSpec, gens: tuple[QElement, ...],
                     delta_budget: int) -> list[list[Rows]] | None:
    """Per generator g, the lifts of g that a section may choose, as rows.

    These are the h in lift(g) * Delta with h^ord(g) = 1, and for the first
    generator one h per kernel-conjugacy class; None when some generator
    has no such lift.  Both filters run batched, over Delta as one
    (N, D, D) array: the orbit of h is d^-1 * h * d for all d at once, with
    d^-1 the Neumann series of `_delta_inverses`, checked by d * d^-1 = 1.
    The orbit stays in h's coset, so it is marked off by the coset codes
    of its elements (`_coset_codes`).  Rows stay in the odometer order of
    `enumerate_delta`, so the candidates are those of the
    element-by-element search.  The arithmetic is exact in int64 while
    D * (p^n_R - 1)^2 < 2^63, and runs on Python ints (dtype=object) past
    that bound.
    """
    lay = layout(spec)
    deltas = _delta_array(spec, budget=delta_budget)
    stacks = []
    for g in gens:
        hs = bmul(lay, _flat(_diagonal_int_lift(spec, g)), deltas)
        hs = hs[is_identity(lay, bpow(lay, hs, q_order(g)))]
        if not len(hs):
            return None
        stacks.append(hs)

    delta_invs = _delta_inverses(spec, deltas)
    codes = _coset_codes(spec, stacks[0])
    seen = np.zeros(len(deltas), dtype=bool)  # by coset code
    unseen = np.ones(len(codes), dtype=bool)
    reps = []
    while unseen.any():
        i = int(np.argmax(unseen))  # the first h in no orbit found so far
        reps.append(i)
        orbit = bmul(lay, bmul(lay, delta_invs, stacks[0][i]), deltas)
        seen[_coset_codes(spec, orbit)] = True
        unseen = ~seen[codes]
    stacks[0] = stacks[0][reps]
    return [[tuple(map(tuple, h)) for h in hs.tolist()] for hs in stacks]


def complement_lift_search(spec: PGroupSpec,
                           assignment_budget: int = DEFAULT_ASSIGNMENT_BUDGET,
                           delta_budget: int = DEFAULT_DELTA_BUDGET,
                           pre_obstruction: bool = True,
                           time_budget: float | None = None) -> SearchResult:
    """Decide splitting by exhausting generator-lift assignments.

    Fix a generating set {g} of the quotient product.  Any section's images
    of the generators are lifts h_g in the coset (integer lift of g) times
    the kernel, generate a subgroup of exactly the quotient's order, and
    meet the kernel trivially; conversely such an assignment spans a
    complement.  Trying every assignment is therefore a complete decision
    procedure: NotFound after exhaustion proves non-splitting.

    The test of an assignment is the check that proves a section
    certificate (`verify_section`).  Given sigma(h_g) = g, the h_g span a
    subgroup of order |Q| that meets the kernel trivially exactly when
    g -> h_g extends to a homomorphism Q -> Aut(G), which
    `extend_by_blocks` decides block by block: the images of different
    blocks commute, and each block's images extend along every edge of its
    Cayley graph, one product per level of the graph's spanning tree.  An
    accepted assignment is checked on every edge; a rejected one stops at
    the first level with an edge that disagrees.  The block graphs are
    taken once before the loop, and once per process for each GL_r(F_p)
    (`gl_span`), so no search walks a group twice, and none walks Q.

    A budget ends the search with a BudgetExceeded result whose evidence
    names it (`SearchResult`); the search raises none.

    Pruning, all soundness-preserving: lifts must have the same order as the
    generator they cover (a complement forces this); the first generator's
    lift is only tried up to kernel-conjugacy (conjugating a complement by a
    kernel element yields another complement); for each assignment the
    pairwise product orders are checked before the walk.  The pre-check
    stays: it costs a few products per assignment and rejects most of them
    before any walk (on (Z/p^2)^2, 110 of 121 for p = 11 and 20 of 25 for
    p = 5).
    """
    start = time.monotonic()
    if gl_order(spec.p, max(spec.ranks)) > DEFAULT_ELEMENT_BUDGET:
        return SearchResult(spec, "BudgetExceeded", "quotient too large")
    try:
        _kernel_size(spec, delta_budget)
    except BudgetExceeded:
        return SearchResult(spec, "BudgetExceeded", "kernel too large")
    # the scan needs ranks[0] >= 2, so the quotient is not trivial here
    if pre_obstruction and spec.ranks[0] >= 2:
        try:
            report = order_p_coset_obstruction(spec, budget=delta_budget)
            if report.verdict == "NoOrderPLift":
                return SearchResult(spec, "NotFound", "obstruction")
        except (RankTooSmall, BudgetExceeded):
            pass

    gens = find_generators_of_Q(spec)
    if not gens:  # trivial quotient: the identity is a complement
        return SearchResult(spec, "Found", "trivial quotient",
                            generators=(), images=())

    candidates = _lift_candidates(spec, gens, delta_budget)
    if candidates is None:
        return SearchResult(spec, "NotFound", "exhausted",
                            assignments_tried=0)

    # ord(xy) = ord(yx), so unordered pairs suffice for the pre-check
    pair_orders = {}
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            pair_orders[(i, j)] = q_order(q_mul(gens[i], gens[j]))

    lay = layout(spec)
    moves, graphs = block_graphs(spec, [g.mats for g in gens])
    if None in graphs:  # NotFound would prove nothing
        raise RuntimeError("the fixed generators do not generate the quotient")
    tried = 0
    for assignment in itertools.product(*candidates):
        tried += 1
        if tried > assignment_budget:
            return SearchResult(spec, "BudgetExceeded", "assignment budget",
                                assignments_tried=tried - 1)
        if time_budget is not None and time.monotonic() - start > time_budget:
            return SearchResult(spec, "BudgetExceeded", "time budget",
                                assignments_tried=tried - 1)
        if any(pow_rows(mul_rows(assignment[i], assignment[j], lay.moduli),
                        o, lay) != lay.identity
               for (i, j), o in pair_orders.items()):
            continue
        if extend_by_blocks(moves, graphs, assignment, lay) is not None:
            images = tuple(BlockEndo(spec=spec, rows=h) for h in assignment)
            return SearchResult(spec, "Found", "exhaustive lift search",
                                generators=gens, images=images,
                                assignments_tried=tried)
    return SearchResult(spec, "NotFound", "exhausted",
                        assignments_tried=tried)


# --- the order-p coset obstruction ---

@dataclass(frozen=True)
class ObstructionReport:
    spec: PGroupSpec
    coset_size: int
    orders_histogram: dict
    verdict: str  # "NoOrderPLift" | "OrderPLiftExists"
    witness: BlockEndo | None = field(default=None, compare=False)

    def to_json(self) -> dict:
        out = {
            "spec": spec_to_json(self.spec),
            "coset_size": self.coset_size,
            "orders_histogram": {str(k): v for k, v in
                                 sorted(self.orders_histogram.items())},
            "verdict": self.verdict,
        }
        if self.witness is not None:
            out["witness"] = endo_to_json(self.witness)
        return out


def _transvection_perturbation(spec: PGroupSpec) -> BlockEndo:
    """Zero everywhere except a single 1 in the top-right of cell (1,1)."""
    r1 = spec.ranks[0]
    if r1 < 2:
        raise RankTooSmall("leading block has rank 1: no transvection")
    D = spec.total_rank
    top = tuple(int(c == r1 - 1) for c in range(D))
    return BlockEndo(spec=spec, rows=(top,) + ((0,) * D,) * (D - 1))


def order_p_coset_obstruction(spec: PGroupSpec,
                              budget: int = DEFAULT_DELTA_BUDGET,
                              ) -> ObstructionReport:
    """Scan the kernel coset of the transvection lift for an order-p element.

    A section must send the order-p transvection to an order-p element of
    that coset, so NoOrderPLift is a sound proof of non-splitting.  Finding
    one is inconclusive.

    The scan is batched: the coset is base * Delta, one (N, D, D) array, and
    each round raises the rows not yet at the identity to the p-th power.
    Rows keep the odometer order of `enumerate_delta`, so the witness is the
    first order-p element of the element-by-element scan.  The arithmetic is
    exact in int64 while D * (p^n_R - 1)^2 < 2^63, and runs on Python ints
    (dtype=object) past that bound.
    """
    p = spec.p
    pert = _transvection_perturbation(spec)
    deltas = _delta_array(spec, budget=budget)  # the bounds before the layout
    lay = layout(spec)
    coset = bmul(lay, _flat(add_endos(identity_endo(spec), pert)), deltas)
    # k[i] counts the p-th powers that row i needs to reach the identity;
    # only the rows not there yet are carried into the next round
    k = np.zeros(len(coset), dtype=np.int64)
    idx = np.flatnonzero(~is_identity(lay, coset))
    x = coset[idx]
    for _ in range(spec.exponents[-1] + 2):
        if not len(idx):
            break
        k[idx] += 1
        x = bpow(lay, x, p)
        keep = ~is_identity(lay, x)
        idx, x = idx[keep], x[keep]
    if len(idx):
        raise RuntimeError("element order is not a small p-power")
    ks, counts = np.unique(k, return_counts=True)
    hist = {p ** kk: c for kk, c in zip(ks.tolist(), counts.tolist())}
    witness = None
    if hist.get(p, 0):
        witness = _unflat(spec, coset[int(np.argmax(k == 1))].tolist())
    verdict = "OrderPLiftExists" if hist.get(p, 0) else "NoOrderPLift"
    return ObstructionReport(spec=spec, coset_size=len(coset),
                             orders_histogram=hist, verdict=verdict,
                             witness=witness)


@dataclass(frozen=True)
class BinomialReport:
    spec: PGroupSpec
    trials: int
    failures: int
    seed: int

    def to_json(self) -> dict:
        return {
            "spec": spec_to_json(self.spec),
            "trials": self.trials,
            "failures": self.failures,
            "seed": self.seed,
        }


def binomial_obstruction_check(spec: PGroupSpec, trials: int = 1000,
                               seed: int = 0) -> BinomialReport:
    """Entry-level congruence behind the obstruction.

    For p >= 5, first exponent 2, leading rank >= 2: the p-th power of
    (identity + transvection perturbation + random ideal element) must have
    its top-right entry of cell (1,1) congruent to p mod p^2, which is why
    no order-p lift can exist there.
    """
    p = spec.p
    if p < 5:
        raise PreconditionViolation("requires p >= 5")
    if spec.blocks[0][0] != 2:
        raise PreconditionViolation("requires first exponent 2")
    if spec.ranks[0] < 2:
        raise PreconditionViolation("requires leading rank >= 2")
    pert = _transvection_perturbation(spec)
    ident = identity_endo(spec)
    rng = random.Random(seed)
    r1 = spec.ranks[0]
    failures = 0
    for _ in range(trials):
        c = random_ideal_element(spec, rng)
        m = pow_endo(add_endos(ident, add_endos(pert, c)), p)
        entry = m.rows[0][r1 - 1]
        if entry % (p * p) != p:
            failures += 1
    return BinomialReport(spec=spec, trials=trials, failures=failures,
                          seed=seed)

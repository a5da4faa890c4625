"""Block-matrix model of the endomorphism ring and automorphism group.

An endomorphism of G = sum of homocyclic blocks is stored flat, as one
D x D integer matrix (D = total rank) with the blocks in spec order.  Row i
lives mod the modulus p^n of the block holding it, so every entry lies in
[0, p^n_row).  Cell (j, k), the rows of block j and the columns of block k,
maps source block k into target block j; it must be divisible by
p^(n_j - n_k) whenever the target exponent exceeds the source exponent
(there is no other way to map a small cyclic group into a bigger one
homomorphically).  Cells are views: `BlockEndo.cell(j, k)` slices them out.
`Layout` holds the block offsets and per-row moduli of a spec; no other
module computes them.

Stacks of flat matrices, (..., D, D) arrays in `Layout.dtype`, have one
kernel (`bmul`, `bpow`, `is_identity`): the walks here, the Delta sweeps of
`oracle` and the full-table proof of `splitting` all use it.

Constraints are checked once, where raw data enters (`block_endo`,
`endo_from_json`); the operations here keep them and do not re-check.

Maps on Q = prod GL_ri(F_p) are checked block by block (`block_graphs`,
`extend_by_blocks`), on integer numpy stacks: `gl_bfs` multiplies a whole
BFS level at once, and `extend_along` fills in and checks a table level
by level.  `cayley_graph` and `extend_along_rows` are the plain versions,
which the reference proof and the tests use.

Convention: column vectors, maps act on the left.  apply(e, v) computes the
usual matrix-times-vector product, and compose(a, b) applies b first.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from operator import mul

import numpy as np

from . import matrices as mx
from .errors import (
    ConstraintViolation,
    NotAUnit,
    Overflow,
    PreconditionGap,
    ShapeMismatch,
    SingleBlock,
    SpecMismatch,
)
from .groups import (
    GroupElement,
    PGroupSpec,
    _factorize,
    aut_order,
    check_element,
    delta_order_exponent,
    derive_pk_spec,
    derive_tail_spec,
    gl_order,
)
from .matrices import Matrix

Rows = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Layout:
    """Where the blocks of a spec sit in the flat D x D matrix.

    Block j spans rows and columns offsets[j]:offsets[j + 1].  Per row i:
    moduli[i] and exponents[i] are p^n and n of its block, and spans[i] the
    columns of its diagonal cell.  dtype is what holds the flat matrix in
    numpy: int64 is exact while a row of D products fits, that is
    D * (p^n_R - 1)^2 < 2^63, and Python ints (object) take over past it.
    `mods` (the moduli as a column) and `ident` (the identity) are read-only
    arrays in that dtype.
    """

    p: int
    offsets: tuple[int, ...]
    moduli: tuple[int, ...]
    exponents: tuple[int, ...]
    spans: tuple[tuple[int, int], ...]
    identity: Rows
    dtype: type
    mods: np.ndarray = field(compare=False, repr=False)
    ident: np.ndarray = field(compare=False, repr=False)


@lru_cache(maxsize=None)
def layout(spec: PGroupSpec) -> Layout:
    """The flat layout of spec, computed once per spec."""
    offsets = tuple(itertools.accumulate(spec.ranks, initial=0))
    per_row = [(n, m, (offsets[j], offsets[j + 1]))
               for j, ((n, r), m) in enumerate(zip(spec.blocks, spec.moduli))
               for _ in range(r)]
    D = spec.total_rank
    moduli = tuple(m for _, m, _ in per_row)
    identity = tuple(tuple(int(i == c) for c in range(D)) for i in range(D))
    big = spec.moduli[-1] - 1  # big >= 2^32 puts D * big^2 past 2^63 unsquared
    dtype = np.int64 if big < 2 ** 32 and D * big ** 2 < 2 ** 63 else object
    mods = np.array(moduli, dtype=dtype)[:, None]
    ident = np.array(identity, dtype=dtype)
    mods.flags.writeable = ident.flags.writeable = False
    return Layout(
        p=spec.p,
        offsets=offsets,
        moduli=moduli,
        exponents=tuple(n for n, _, _ in per_row),
        spans=tuple(s for _, _, s in per_row),
        identity=identity,
        dtype=dtype,
        mods=mods,
        ident=ident,
    )


@dataclass(frozen=True)
class BlockEndo:
    """An endomorphism of G as one flat matrix, row i reduced mod its block."""

    spec: PGroupSpec
    rows: Rows

    def cell(self, j: int, k: int) -> Matrix:
        off = layout(self.spec).offsets
        return tuple(row[off[k]:off[k + 1]]
                     for row in self.rows[off[j]:off[j + 1]])


@dataclass(frozen=True)
class QElement:
    """A tuple of square matrices over F_p, one per block.

    The codomain of the reduction map sigma; invertible tuples are the
    elements of the product of the blockwise general linear groups.
    """

    p: int
    mats: tuple[Matrix, ...]


# --- the flat product ---

def mul_rows(a: Rows, b: Rows, moduli: tuple[int, ...]) -> Rows:
    """a @ b with row i reduced mod moduli[i]: `compose` on bare rows."""
    cols = list(zip(*b))
    return tuple([tuple([sum(map(mul, row, col)) % m for col in cols])
                  for row, m in zip(a, moduli)])


def pow_rows(a: Rows, m: int, lay: Layout) -> Rows:
    """a^m (m >= 0) by square-and-multiply over `mul_rows`."""
    if m < 0:
        raise ValueError("negative power; invert first")
    result = lay.identity
    while m:
        if m & 1:
            result = mul_rows(result, a, lay.moduli)
        m >>= 1
        if m:
            a = mul_rows(a, a, lay.moduli)
    return result


def bmul(lay: Layout, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`mul_rows` on stacks, broadcasting over the leading axes."""
    return np.matmul(a, b) % lay.mods


def bpow(lay: Layout, a: np.ndarray, m: int) -> np.ndarray:
    """`pow_rows` on a stack: a^m (m >= 0) by square-and-multiply."""
    result = np.broadcast_to(lay.ident, a.shape)
    while m:
        if m & 1:
            result = bmul(lay, result, a)
        m >>= 1
        if m:
            a = bmul(lay, a, a)
    return result


def is_identity(lay: Layout, a: np.ndarray) -> np.ndarray:
    """Boolean mask over the leading axes: which matrices are the identity."""
    return np.all(a == lay.ident, axis=(-2, -1))


def mats_mul(a: tuple[Matrix, ...], b: tuple[Matrix, ...],
             p: int) -> tuple[Matrix, ...]:
    """The blockwise product of two tuples of matrices over F_p."""
    return tuple([mul_rows(x, y, itertools.repeat(p)) for x, y in zip(a, b)])


# --- Cayley graphs as integer arrays ---

@dataclass(frozen=True, eq=False)
class CayleyGraph:
    """The Cayley graph of a group of r x r matrices, held as integer arrays.

    `elements` is the stack of its matrices.  targets[i, k] is the index of
    element i times generator k.  A breadth-first spanning tree hangs from
    element 0, and its depths are consecutive index ranges: depth 0 is
    element 0, and each next depth follows the one before.  tree[L], one
    entry per depth L down to the deepest, picks out of the edges that
    leave depth L (its rows of `targets`, read row by row) the tree edge
    into each element at depth L + 1, in index order; the deepest depth's
    entry is empty.  So a walk can multiply a whole depth by every
    generator at once and take the next depth from those products.  The
    arrays are read-only.
    """

    elements: np.ndarray
    targets: np.ndarray
    tree: tuple[np.ndarray, ...]

    def __post_init__(self):
        for a in (self.elements, self.targets, *self.tree):
            a.flags.writeable = False

    @property
    def size(self) -> int:
        return len(self.targets)

    def element(self, i: int) -> Matrix:
        return tuple(map(tuple, self.elements[i].tolist()))


def gl_bfs(p: int, r: int, mats: tuple[Matrix, ...],
           cap: int) -> CayleyGraph:
    """The Cayley graph of the subgroup of GL_r(F_p) that `mats` generate.

    A level-synchronous breadth-first walk: the whole frontier is multiplied
    by every generator in one batched product mod p, and each product is
    keyed by its base-p code.  New elements are numbered in the order they
    are first met, frontier element by element and generator by generator,
    so the elements and targets are exactly those of `cayley_graph` on
    `mul_rows` mod p, and each element's tree edge is the first edge into
    it.  Raises Overflow as soon as the group would exceed `cap` elements.
    """
    # codes below p^(r*r) and product entries below r*p^2 must fit in int64;
    # callers keep |GL_r(F_p)| within DEFAULT_ELEMENT_BUDGET, far below that
    assert max(p ** (r * r), r * p * p) < 2 ** 63
    k = len(mats)
    gens = np.array(mats, dtype=np.int64).reshape(k, r, r)
    weights = p ** np.arange(r * r - 1, -1, -1, dtype=np.int64)
    frontier = np.eye(r, dtype=np.int64)[None]
    known = frontier.reshape(1, -1) @ weights  # sorted codes seen so far
    known_index = np.zeros(1, dtype=np.int64)  # their element indices
    stacks = [frontier]
    targets, tree = [], []
    size = 1
    while len(frontier):
        prods = (np.matmul(frontier[:, None], gens) % p).reshape(-1, r, r)
        codes = prods.reshape(-1, r * r) @ weights
        pos = np.minimum(np.searchsorted(known, codes), len(known) - 1)
        hit = known[pos] == codes
        found = np.where(hit, known_index[pos], 0)
        miss = np.flatnonzero(~hit)
        new, first, inverse = np.unique(codes[miss], return_index=True,
                                        return_inverse=True)
        if size + len(new) > cap:
            raise Overflow(f"closure exceeds cap {cap}")
        order = np.argsort(first)  # the new codes in first-seen order
        index = np.empty(len(new), dtype=np.int64)
        index[order] = np.arange(size, size + len(new))
        found[miss] = index[inverse]
        targets.append(found)
        seen = miss[first[order]]  # where each new element was first met
        tree.append(seen)
        at = np.searchsorted(known, new)
        known = np.insert(known, at, new)
        known_index = np.insert(known_index, at, index)
        frontier = prods[seen]
        stacks.append(frontier)
        size += len(new)
    return CayleyGraph(elements=np.concatenate(stacks),
                       targets=np.concatenate(targets).reshape(size, k),
                       tree=tuple(tree))


@lru_cache(maxsize=None)
def gl_span(p: int, r: int, mats: tuple[Matrix, ...]):
    """The subgroup of GL_r(F_p) that the invertible r x r `mats` generate.

    Returns (size, graph), where graph is its `gl_bfs` Cayley graph when
    `mats` generate all of GL_r(F_p), and None when they span a proper
    subgroup.  Each (p, r, mats) is walked once per process; only the
    graphs of generating sets are kept.  Raises Overflow past |GL_r(F_p)|
    elements, which only singular matrices can reach.
    """
    order = gl_order(p, r)
    graph = gl_bfs(p, r, mats, cap=order)
    return graph.size, (graph if graph.size == order else None)


def block_graphs(spec: PGroupSpec, generators):
    """Sort generators by the block they move, and take each block's graph.

    `generators` are tuples of per-block matrices (`QElement.mats`).
    Returns (moves, graphs): moves[j] lists the indices of the generators
    that move block j, and graphs[j] is the `gl_span` graph of their block-j
    matrices, None when they do not generate GL_rj(F_p).  A generator in no
    moves[j] is the identity.  Raises ShapeMismatch for a generator that
    moves two blocks.
    """
    idents = [mx.identity(r) for r in spec.ranks]
    moves: list[list[int]] = [[] for _ in idents]
    for k, mats in enumerate(generators):
        moved = [j for j, (m, e) in enumerate(zip(mats, idents)) if m != e]
        if len(moved) > 1:
            raise ShapeMismatch(f"generator {k} moves blocks {moved[0]} "
                                f"and {moved[1]}")
        if moved:
            moves[moved[0]].append(k)
    return moves, [gl_span(spec.p, r, tuple(generators[k][j] for k in ks))[1]
                   for j, (r, ks) in enumerate(zip(spec.ranks, moves))]


def extend_along(graph: CayleyGraph, hs: np.ndarray,
                 lay: Layout) -> np.ndarray | None:
    """Extend generator images along the edges of a Cayley graph, batched.

    `hs` is the (k, D, D) stack of the images in `lay.dtype`, one per
    generator of `graph`.  Sets T[0] = 1 and walks the graph's tree one
    depth at a time: T[i] times every hs[k] for the whole depth, in one
    batched product, gives the next depth's T (its tree edges, `graph.tree`)
    and is then compared with T[targets[i, k]] on every edge out of the
    depth.  In a breadth-first tree those targets lie at most one depth
    deeper, so they are known by then.  The values that agree with every
    edge are unique, so this accepts, rejects and returns exactly what the
    edge-by-edge walk `extend_along_rows` does, with size*k compositions
    when it accepts; a rejected walk stops at the first depth with an edge
    that disagrees.  The arithmetic is `lay.dtype`: int64 where it is
    exact, Python ints past that.
    Returns T as a (size, D, D) array, rows reduced as `mul_rows` reduces
    them, or None when some edge reaches a value that disagrees.
    """
    D = len(lay.moduli)
    table = np.empty((graph.size, D, D), dtype=lay.dtype)
    table[0] = lay.ident
    start, stop = 0, 1  # the elements at the current depth
    for edges in graph.tree:
        prods = bmul(lay, table[start:stop, None], hs)
        table[stop:stop + len(edges)] = prods.reshape(-1, D, D)[edges]
        if not (prods == table[graph.targets[start:stop]]).all():
            return None
        start, stop = stop, stop + len(edges)
    return table


def extend_by_blocks(moves, graphs, images,
                     lay: Layout) -> list[np.ndarray] | None:
    """Extend generator images (bare rows) to a homomorphism of Q, by blocks.

    Q is the direct product of its blocks: the relations of each block and
    the commutators of generators of different blocks present it.  So, with
    the moves and graphs of `block_graphs`, the images extend to a
    homomorphism Q -> Aut(G) exactly when a generator that moves no block
    maps to 1, images of generators of different blocks commute, and each
    block's images extend along its graph (`extend_along`, on the full
    D x D images).  Returns each block's table, or None when a check fails.
    """
    D = len(lay.moduli)
    hs = np.array(images, dtype=lay.dtype).reshape(len(images), D, D)
    if not is_identity(lay, np.delete(hs, sum(moves, []), axis=0)).all():
        return None
    for j, ks in enumerate(moves):
        a, b = hs[ks][:, None], hs[sum(moves[j + 1:], [])][None]
        if not np.array_equal(bmul(lay, a, b), bmul(lay, b, a)):
            return None
    tables = [extend_along(graph, hs[ks], lay)
              for ks, graph in zip(moves, graphs)]
    return None if any(t is None for t in tables) else tables


# --- the plain references: the full-table proof and the tests use them ---

def cayley_graph(generators, mul, identity, cap: int):
    """The elements of the group spanned by `generators`, and its Cayley edges.

    Returns (elements, targets): the elements in breadth-first order from
    `identity`, and a flat list with
    elements[i] * generators[k] == elements[targets[i * len(generators) + k]].
    Raises Overflow the moment the group would exceed `cap` elements.
    """
    index = {identity: 0}
    elements = [identity]
    targets = []
    for x in elements:  # grows while it is read: breadth-first order
        for g in generators:
            y = mul(x, g)
            j = index.get(y)
            if j is None:
                if len(elements) >= cap:
                    raise Overflow(f"closure exceeds cap {cap}")
                j = index[y] = len(elements)
                elements.append(y)
            targets.append(j)
    return elements, targets


def extend_along_rows(targets, size: int, images,
                      lay: Layout) -> list[Rows] | None:
    """`extend_along` edge by edge, on bare rows and a `cayley_graph`.

    Sets T[0] = 1 and T[j] = T[i] * images[k] for each edge i -> j of
    generator k, in the graph's order; that order reaches every j > 0 first
    from some i < j, so T[i] is always known.  Returns T, or None at the
    first edge that reaches a known element with a different value.
    """
    moduli = lay.moduli
    n = len(images)
    table: list[Rows | None] = [None] * size
    table[0] = lay.identity
    for i, x in enumerate(table):
        for h, j in zip(images, targets[i * n:(i + 1) * n]):
            y = mul_rows(x, h, moduli)
            known = table[j]
            if known is None:
                table[j] = y
            elif known != y:
                return None
    return table


# --- construction and validation ---

def hom_divisor(spec: PGroupSpec, j: int, k: int) -> int:
    """p^(n_j - n_k) when positive, else 1: the forced divisor of cell (j,k)."""
    nj = spec.blocks[j][0]
    nk = spec.blocks[k][0]
    return spec.p ** max(nj - nk, 0)


def _divisibility_violation(spec: PGroupSpec, rows: Rows):
    """(j, k, divisor) of the first cell missing its divisor, else None."""
    off = layout(spec).offsets
    for j in range(spec.num_blocks):
        for k in range(j):  # exponents increase, so only k < j is forced
            d = hom_divisor(spec, j, k)
            if any(x % d for row in rows[off[j]:off[j + 1]]
                   for x in row[off[k]:off[k + 1]]):
                return j, k, d
    return None


def check_hom_constraints(e: BlockEndo) -> bool:
    """True iff every cell's entries carry the forced p-power divisor.

    Raises ShapeMismatch unless the flat matrix is D x D.
    """
    D = e.spec.total_rank
    if len(e.rows) != D or any(len(row) != D for row in e.rows):
        raise ShapeMismatch(f"expected a {D}x{D} matrix")
    return _divisibility_violation(e.spec, e.rows) is None


def _is_grid(obj, r: int, c: int) -> bool:
    """Whether obj is a list (or tuple) of r lists (or tuples) of c items."""
    return (isinstance(obj, (list, tuple)) and len(obj) == r
            and all(isinstance(row, (list, tuple)) and len(row) == c
                    for row in obj))


def _check_matrix(obj, r: int, c: int, what: str) -> None:
    """ShapeMismatch unless obj is an r x c grid, ConstraintViolation unless
    its entries are ints (a bool or a float is not one)."""
    if not _is_grid(obj, r, c):
        raise ShapeMismatch(f"{what} is not {r}x{c}")
    if any(type(x) is not int for row in obj for x in row):
        raise ConstraintViolation(
            f"{what} has an entry that is not an integer")


def block_endo(spec: PGroupSpec, cells) -> BlockEndo:
    """Validate a raw [target][source] cell grid and canonicalize it.

    Raises ShapeMismatch for a grid or cell of the wrong shape and
    ConstraintViolation, naming the cell, for an entry that is not an int
    or a divisibility violation.
    """
    R = spec.num_blocks
    if not _is_grid(cells, R, R):
        raise ShapeMismatch(f"expected a {R}x{R} cell grid")
    rows = []
    for j, (row, rj, m) in enumerate(zip(cells, spec.ranks, spec.moduli)):
        for k, (cell, rk) in enumerate(zip(row, spec.ranks)):
            _check_matrix(cell, rj, rk, f"cell ({j},{k})")
        rows += [tuple(x % m for cell in row for x in cell[a])
                 for a in range(rj)]
    rows = tuple(rows)
    bad = _divisibility_violation(spec, rows)
    if bad is not None:
        j, k, d = bad
        raise ConstraintViolation(f"cell ({j},{k}) violates divisibility by {d}")
    return BlockEndo(spec=spec, rows=rows)


def zero_endo(spec: PGroupSpec) -> BlockEndo:
    D = spec.total_rank
    return BlockEndo(spec=spec, rows=((0,) * D,) * D)


def identity_endo(spec: PGroupSpec) -> BlockEndo:
    return BlockEndo(spec=spec, rows=layout(spec).identity)


def _same_spec(a: BlockEndo, b: BlockEndo) -> None:
    if a.spec != b.spec:
        raise SpecMismatch("endomorphisms of different groups")


def add_endos(a: BlockEndo, b: BlockEndo) -> BlockEndo:
    _same_spec(a, b)
    return BlockEndo(spec=a.spec, rows=tuple(
        tuple((x + y) % m for x, y in zip(ra, rb))
        for ra, rb, m in zip(a.rows, b.rows, layout(a.spec).moduli)
    ))


def compose(a: BlockEndo, b: BlockEndo) -> BlockEndo:
    """a after b: the flat product, row i reduced mod the modulus of its block.

    Cell by cell this is sum_l a(j,l) b(l,k) mod p^n_j, and it is
    well-defined despite the mixed moduli: perturbing b(l,k) by p^n_l
    changes the sum by a(j,l) p^n_l, which the divisibility constraint on
    a(j,l) pushes into p^n_j Z.  The result needs no check either: the
    forced divisors of a(j,l) and b(l,k) multiply to at least the one of
    cell (j,k).
    """
    _same_spec(a, b)
    return BlockEndo(spec=a.spec,
                     rows=mul_rows(a.rows, b.rows, layout(a.spec).moduli))


def apply(e: BlockEndo, v: GroupElement) -> GroupElement:
    """Matrix action on an element: block j = sum_k cell(j,k) v_k."""
    spec = e.spec
    check_element(spec, v)
    lay = layout(spec)
    flat = [x for vec in v for x in vec]
    out = [sum(map(mul, row, flat)) % m for row, m in zip(e.rows, lay.moduli)]
    off = lay.offsets
    return tuple(tuple(out[off[j]:off[j + 1]]) for j in range(spec.num_blocks))


def pow_endo(e: BlockEndo, m: int) -> BlockEndo:
    """e composed with itself m times (m >= 0)."""
    return BlockEndo(spec=e.spec, rows=pow_rows(e.rows, m, layout(e.spec)))


# --- the reduction map ---

def sigma(e: BlockEndo) -> QElement:
    """Reduce the diagonal cells mod p: the image in the matrix tuple monoid."""
    p = e.spec.p
    return QElement(p=p, mats=tuple(
        mx.mat(e.cell(i, i), p) for i in range(e.spec.num_blocks)
    ))


def identity_q(spec: PGroupSpec) -> QElement:
    return QElement(p=spec.p, mats=tuple(mx.identity(r) for r in spec.ranks))


def q_mul(a: QElement, b: QElement) -> QElement:
    if a.p != b.p or len(a.mats) != len(b.mats):
        raise SpecMismatch("tuple elements of different shapes")
    return QElement(p=a.p, mats=mats_mul(a.mats, b.mats, a.p))


def q_is_invertible(q: QElement) -> bool:
    return all(mx.is_invertible_mod_p(m, q.p) for m in q.mats)


def q_order(q: QElement) -> int:
    """Multiplicative order of an invertible tuple; iterative, desk scale."""
    if not q_is_invertible(q):
        raise NotAUnit("tuple is not invertible mod p")
    ident = tuple(mx.identity(len(m)) for m in q.mats)
    x = q.mats
    o = 1
    while x != ident:
        x = mats_mul(x, q.mats, q.p)
        o += 1
    return o


# --- units ---

def is_automorphism(e: BlockEndo) -> bool:
    """Unit test: every diagonal cell invertible mod p.

    This is exactly invertibility of the induced maps on the blocks of
    G/pG; the brute-force bijectivity oracle cross-checks it on small
    groups.
    """
    p = e.spec.p
    return all(
        mx.is_invertible_mod_p(e.cell(i, i), p)
        for i in range(e.spec.num_blocks)
    )


def weighted_lift(e: BlockEndo) -> Matrix:
    """Flatten to a single square matrix by exponent weighting.

    Entry (i, c) becomes e[i][c] * p^(n_c - n_i), with n_i and n_c the
    exponents of the blocks of row i and column c; the division is exact by
    the divisibility constraint when n_c < n_i.  Mod p the result is block
    lower-triangular with the diagonal cells mod p on the diagonal, so it
    is invertible mod p^n_R precisely when e is a unit.  Products are
    respected modulo p^n_k in block column k.
    """
    spec = e.spec
    p = spec.p
    big = spec.moduli[-1]
    ex = layout(spec).exponents
    return tuple(
        tuple((x * p ** (nc - ni) if nc >= ni else x // p ** (ni - nc)) % big
              for x, nc in zip(row, ex))
        for row, ni in zip(e.rows, ex)
    )


def invert(e: BlockEndo) -> BlockEndo:
    """Group inverse of a unit.

    Inverts the weighted lift over Z/p^n_R with unit pivots, unscales each
    entry back (asserting the divisibilities), and certifies the result by
    composing.
    """
    if not is_automorphism(e):
        raise NotAUnit("endomorphism is not an automorphism")
    spec = e.spec
    p = spec.p
    lay = layout(spec)
    ex = lay.exponents
    M = mx.inv_mod(weighted_lift(e), spec.moduli[-1], p)
    rows = []
    for row, ni, m in zip(M, ex, lay.moduli):
        out = []
        for x, nc in zip(row, ex):
            if ni >= nc:
                out.append(x * p ** (ni - nc) % m)
            else:
                d = p ** (nc - ni)
                if x % d:
                    raise ConstraintViolation(
                        "unscaling divisibility failed; not a unit?")
                out.append(x // d % m)
        rows.append(tuple(out))
    result = BlockEndo(spec=spec, rows=tuple(rows))
    if compose(e, result) != identity_endo(spec):
        raise NotAUnit("inverse certification failed")
    return result


def in_delta(e: BlockEndo) -> bool:
    """Membership in the kernel of the reduction map.

    Equivalent formulations: e is a unit with trivial reduction, or
    e - identity has all diagonal cells vanishing mod p.
    """
    lay = layout(e.spec)
    for i, (row, (s, t)) in enumerate(zip(e.rows, lay.spans)):
        for c in range(s, t):
            if (row[c] - (c == i)) % lay.p:
                return False
    return True


@lru_cache(maxsize=None)
def _aut_order_factors(spec: PGroupSpec) -> tuple[tuple[int, int], ...]:
    """Prime factorization of |Aut(G)| as ((q, multiplicity), ...).

    The p-part is the kernel exponent plus p^(r(r-1)/2) from each GL factor;
    the rest comes from factoring p^k - 1 terms.
    """
    p = spec.p
    factors: dict[int, int] = {p: delta_order_exponent(spec)}
    for _, r in spec.blocks:
        factors[p] += r * (r - 1) // 2
        for k in range(1, r + 1):
            for q, mult in _factorize(p ** k - 1).items():
                factors[q] = factors.get(q, 0) + mult
    return tuple(sorted((q, m) for q, m in factors.items() if m > 0))


def element_order(e: BlockEndo) -> int:
    """Least m >= 1 with e^m = identity, using the factored group order."""
    if not is_automorphism(e):
        raise NotAUnit("order is defined for units only")
    spec = e.spec
    ident = identity_endo(spec)
    total = aut_order(spec)
    order = 1
    for q, mult in _aut_order_factors(spec):
        t = pow_endo(e, total // q ** mult)
        while t != ident:
            t = pow_endo(t, q)
            order *= q
    return order


# --- induced maps on derived groups ---

def restrict_to_pk(e: BlockEndo, k: int) -> BlockEndo:
    """The endomorphism a unit induces on p^k G.

    In coordinates (a p^k G element with block-i coordinate w_i corresponds
    to the G element with coordinate p^k w_i), the induced cell is just the
    original cell reduced mod p^(n_j - k), restricted to surviving blocks.
    The surviving blocks (n > k) are a suffix, so this is a trailing square
    of the flat matrix.
    """
    if not is_automorphism(e):
        raise NotAUnit("restriction is defined for units here")
    spec = e.spec
    sub = derive_pk_spec(spec, k)  # raises TrivialResult when k too large
    start = spec.total_rank - sub.total_rank
    return BlockEndo(spec=sub, rows=tuple(
        tuple(x % m for x in row[start:])
        for row, m in zip(e.rows[start:], layout(sub).moduli)
    ))


def truncate_tail(e: BlockEndo) -> BlockEndo:
    """Delete the rows and columns of block 1; an endomorphism of the tail.

    Not multiplicative on all units (cross terms through block 1 survive
    mod the larger moduli); it is multiplicative at the mod-p level.
    """
    sub = derive_tail_spec(e.spec)  # raises SingleBlock
    r1 = e.spec.ranks[0]
    return BlockEndo(spec=sub, rows=tuple(row[r1:] for row in e.rows[r1:]))


def embed_tail(e2: BlockEndo, spec: PGroupSpec) -> BlockEndo:
    """Extend a tail endomorphism by the identity on block 1.

    Multiplicative and unit-preserving.  Meaningful as a section of the
    truncation mainly when the first block is elementary (n_1 = 1); we warn
    otherwise.
    """
    if spec.num_blocks < 2:
        raise SingleBlock("ambient spec has a single block")
    if e2.spec != derive_tail_spec(spec):
        raise SpecMismatch("operand is not an endomorphism of the tail group")
    if spec.blocks[0][0] != 1:
        warnings.warn("embedding a tail with non-elementary first block",
                      stacklevel=2)
    r1 = spec.ranks[0]
    top = layout(spec).identity[:r1]
    return BlockEndo(spec=spec,
                     rows=top + tuple((0,) * r1 + row for row in e2.rows))


def corner_mu(e: BlockEndo, strict: bool = True) -> Matrix:
    """The (1,1) cell of a unit, as a map of the first block.

    Multiplicative exactly when n_1 = 2 and every later exponent is >= 4:
    the cross terms through block k then carry a factor p^(n_k - n_1) which
    dies mod p^2.  Outside that range the cell is still returned when
    strict=False, with a warning, but products are not respected.
    """
    if not is_automorphism(e):
        raise NotAUnit("corner map is taken on units")
    spec = e.spec
    gap_ok = spec.blocks[0][0] == 2 and all(n >= 4 for n, _ in spec.blocks[1:])
    if not gap_ok:
        if strict:
            raise PreconditionGap(
                "corner map needs first exponent 2 and later exponents >= 4"
            )
        warnings.warn("corner map is not multiplicative for this spec",
                      stacklevel=2)
    return e.cell(0, 0)


# --- serialization ---

def endo_to_json(e: BlockEndo) -> dict:
    """{"cells": [[cell rows]]} indexed [target][source]."""
    R = e.spec.num_blocks
    return {"cells": [[[list(r) for r in e.cell(j, k)] for k in range(R)]
                      for j in range(R)]}


def endo_from_json(spec: PGroupSpec, obj: dict) -> BlockEndo:
    """Read {"cells": [[cell rows]]} indexed [target][source].

    Validated as `block_endo` validates: divisibility violations name the
    offending cell.
    """
    if not isinstance(obj, dict) or "cells" not in obj:
        raise ConstraintViolation("endomorphism JSON must have a 'cells' key")
    return block_endo(spec, obj["cells"])


def q_to_json(q: QElement) -> list:
    return [[list(r) for r in m] for m in q.mats]


def q_from_json(spec: PGroupSpec, obj: list) -> QElement:
    """Read a list of block matrices, validated as `block_endo` validates."""
    if not isinstance(obj, (list, tuple)) or len(obj) != spec.num_blocks:
        raise ShapeMismatch("wrong number of block matrices")
    for i, (m, r) in enumerate(zip(obj, spec.ranks)):
        _check_matrix(m, r, r, f"block matrix {i}")
    return QElement(p=spec.p, mats=tuple(mx.mat(m, spec.p) for m in obj))

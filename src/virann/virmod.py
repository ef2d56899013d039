"""Level-truncated unitary lowest-weight modules for the Virasoro algebra.

Conventions used throughout the package:

    [L_m, L_n] = (m - n) L_{m+n} + (c/12)(m^3 - m) delta_{m+n,0}
    L_n* = L_{-n},   L_0 v = h v,   L_n v = 0 for n > 0.

A module is built from the free (Verma) action on words L_{-p1}...L_{-pk} v,
indexed by integer partitions, by quotienting null directions of the invariant
inner product and orthonormalizing level by level.  ``build_module`` makes one
pass over the levels: level k's mode actions L_a (a = 1..k, to level k - a)
come from ``VirasoroOracle.apply_mode``, its inner-product matrix from them
and the lower levels' matrices by the bracket, and its blocks of every L_n
from them and the lower levels' bases, so each level is built once.
Everything at or below a cutoff level N is kept; the matrices ``lmat(n)``
are the compressions of L_n to the truncation.  They are real in the
orthonormal basis, so a module, built or loaded, stores each L_n with
n >= 1 once, in float64; L_0 is the diagonal h + k, ``lmat(-n)`` is the
transposed view of ``lmat(n)``, and every level block is a view into its
L_n.  On vectors supported in levels <= N - |n| the compression acts exactly
as the infinite-dimensional operator, which is what makes the truncated
identities testable at tight tolerances.

Scalars may be ``fractions.Fraction`` (exact arithmetic, used by the oracle
tests) or floats; the reduction code is generic over both.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ArgumentError, ModuleRangeError, NonUnitaryError

Partition = tuple[int, ...]

#: relative eigenvalue threshold below which a gram direction is quotiented
DEFAULT_NULLTOL = 1e-9


# ---------------------------------------------------------------------------
# partitions


@lru_cache(maxsize=None)
def partitions_of(k: int) -> tuple[Partition, ...]:
    """All partitions of ``k`` with parts in weakly decreasing order.

    The list itself is in reverse-lexicographic order, e.g. for k = 2 it is
    ((2,), (1, 1)); the empty partition () is the sole partition of 0.
    """
    if k < 0:
        raise ArgumentError("negative level has no partitions")
    if k == 0:
        return ((),)

    def gen(rem: int, maxpart: int):
        if rem == 0:
            yield ()
            return
        for part in range(min(rem, maxpart), 0, -1):
            for tail in gen(rem - part, part):
                yield (part,) + tail

    return tuple(gen(k, k))


def enumerate_basis(N: int) -> tuple[tuple[Partition, ...], ...]:
    """Partition labels for levels 0..N, each level in reverse-lex order."""
    if N < 0:
        raise ArgumentError("truncation level must be >= 0")
    return tuple(partitions_of(k) for k in range(N + 1))


# ---------------------------------------------------------------------------
# exact normal ordering


class VirasoroOracle:
    """Normal ordering of Virasoro words applied to a lowest-weight vector.

    States are stored as dicts {partition: coefficient} meaning
    sum_lambda coeff * L_{-lambda_1}...L_{-lambda_k} v.  All reductions use
    only the bracket, L_0 v = h v and L_n v = 0 (n > 0), so with Fraction
    inputs every coefficient is exact.
    """

    def __init__(self, c, h):
        self.c = c
        self.h = h
        self._zero = c * 0  # scalar zero in the working arithmetic
        self._apply_cache: dict[tuple[int, Partition], dict[Partition, object]] = {}
        self._pair_cache: dict[tuple[Partition, Partition], object] = {}

    # -- single-mode action

    def apply_mode(self, n: int, lam: Partition) -> dict[Partition, object]:
        """Coefficients of L_n L_{-lam} v in the partition basis."""
        key = (n, lam)
        cached = self._apply_cache.get(key)
        if cached is not None:
            return cached

        out: dict[Partition, object] = {}
        if not lam:
            if n < 0:
                out[(-n,)] = self._one()
            elif n == 0:
                if self.h != 0:
                    out[()] = self.h + self._zero
            # n > 0 annihilates v
        elif n < 0 and -n >= lam[0]:
            out[(-n,) + lam] = self._one()
        else:
            head, rest = lam[0], lam[1:]
            # L_n L_{-head} = L_{-head} L_n + (n + head) L_{n-head}
            #                (+ central term when n == head)
            for mu, a in self.apply_mode(n, rest).items():
                for nu, b in self.apply_mode(-head, mu).items():
                    _acc(out, nu, a * b)
            coeff = n + head
            if coeff != 0:
                for mu, a in self.apply_mode(n - head, rest).items():
                    _acc(out, mu, a * coeff)
            if n == head:
                central = (self.c * (n**3 - n)) / 12
                if central != 0:
                    _acc(out, rest, central)

        out = {p: v for p, v in out.items() if v != 0}
        self._apply_cache[key] = out
        return out

    def _one(self):
        return self._zero + 1

    # -- words

    def reduce_word(self, word: list[int] | tuple[int, ...]) -> dict[Partition, object]:
        """Normal order L_{word[0]} L_{word[1]} ... L_{word[-1]} v.

        The coefficients are exact rationals when c and h are Fractions.
        """
        state: dict[Partition, object] = {(): self._one()}
        for n in reversed(list(word)):
            nxt: dict[Partition, object] = {}
            for lam, a in state.items():
                for mu, b in self.apply_mode(n, lam).items():
                    _acc(nxt, mu, a * b)
            state = {p: v for p, v in nxt.items() if v != 0}
        return state

    # -- Shapovalov pairing

    def pairing(self, lam: Partition, mu: Partition):
        """<L_{-lam} v, L_{-mu} v> with <v, v> = 1."""
        if sum(lam) != sum(mu):
            return self._zero
        if not lam:
            return self._one() if not mu else self._zero
        key = (lam, mu)
        cached = self._pair_cache.get(key)
        if cached is not None:
            return cached
        # <L_{-a} L_{-rest} v, .> = <L_{-rest} v, L_a .>
        total = self._zero
        for nu, b in self.apply_mode(lam[0], mu).items():
            total = total + b * self.pairing(lam[1:], nu)
        self._pair_cache[key] = total
        self._pair_cache[(mu, lam)] = total  # the form is symmetric here
        return total

    def gram(self, k: int) -> list[list[object]]:
        basis = partitions_of(k)
        return [[self.pairing(lam, mu) for mu in basis] for lam in basis]


def _acc(d: dict, key, val) -> None:
    cur = d.get(key)
    d[key] = val if cur is None else cur + val


def _is_exact(params: ModuleParams) -> bool:
    """Whether c and h are both Fractions, so that the Shapovalov matrices
    are exact rationals."""
    return isinstance(params.c, Fraction) and isinstance(params.h, Fraction)


def gram_matrix(params: "ModuleParams", level: int) -> np.ndarray:
    """Shapovalov matrix at one level, in the partition basis.

    Exact (dtype=object with Fractions) when c and h are Fractions, float64
    otherwise.
    """
    if level > params.N:
        raise ArgumentError(f"level {level} exceeds cutoff N = {params.N}")
    exact = _is_exact(params)
    oracle = (VirasoroOracle(params.c, params.h) if exact
              else VirasoroOracle(*params.as_floats()))
    rows = oracle.gram(level)
    if exact:
        arr = np.empty((len(rows), len(rows)), dtype=object)
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                arr[i, j] = x
        return arr
    return np.array(rows, dtype=float)


# ---------------------------------------------------------------------------
# module parameters and unitarity screening


@dataclass(frozen=True)
class ModuleParams:
    """Central charge, lowest weight and truncation level."""

    c: "float | Fraction"
    h: "float | Fraction"
    N: int

    def __post_init__(self):
        if self.N < 0:
            raise ArgumentError("truncation level N must be >= 0")
        if self.c < 0 or self.h < 0:
            raise NonUnitaryError(
                f"(c, h) = ({self.c}, {self.h}) lies outside the closed unitary region"
            )

    def as_floats(self) -> tuple[float, float]:
        return float(self.c), float(self.h)


def check_unitarity(params: ModuleParams) -> tuple[bool, str]:
    """Screen (c, h) for unitarity.

    c >= 1, h >= 0 is accepted outright.  Below c = 1 the verdict is
    empirical: the gram matrices up to level 6 (capped by N) must be
    positive semidefinite up to the relative tolerance DEFAULT_NULLTOL
    (``gram_negativity``).  This accepts the discrete-series points and
    rejects generic (c, h) with c < 1.
    """
    c, h = params.as_floats()
    if h < 0 or c < 0:
        return False, "negative c or h"
    if c >= 1:
        return True, "c >= 1 and h >= 0"
    neg, level, depth = gram_negativity(params)
    if neg > DEFAULT_NULLTOL:
        return False, f"gram not positive semidefinite at level {level}"
    return True, f"gram positive semidefinite through level {depth}"


def gram_negativity(params: ModuleParams) -> tuple[float, int, int]:
    """Worst -w_min / max(w_max, 1) over the float gram matrices of levels
    1..depth, each scaled to unit diagonal, the level where it occurs, and
    depth = min(N, 6).

    The worst ratio and its level are (0.0, 0) when every level is
    positive semidefinite.
    """
    depth = min(params.N, 6)
    oracle = VirasoroOracle(*params.as_floats())
    worst, level = 0.0, 0
    for k in range(1, depth + 1):
        scaled, _ = _scale_unit_diagonal(np.array(oracle.gram(k), dtype=float))
        if scaled.size:
            w = np.linalg.eigvalsh(scaled)
            ratio = float(-w.min() / max(w.max(), 1.0))
            if ratio > worst:
                worst, level = ratio, k
    return worst, level, depth


def _scale_unit_diagonal(g: np.ndarray):
    """Drop exactly-null rows (zero diagonal) and rescale to unit diagonal.

    Returns (scaled gram, (kept index array, scale factors)).  Scaling keeps
    the eigensolve well conditioned: raw Shapovalov entries legitimately
    spread over many orders of magnitude at high level (the cut must NOT be
    relative to the largest diagonal), while the normalized matrix stays
    tame.  A diagonal entry <L_{-lam} v, L_{-lam} v> vanishes only for an
    identically null vector, and then it vanishes exactly, in floats too,
    because every term in the reduction carries a factor that is exactly 0.
    """
    diag = np.diag(g).astype(float).copy()
    if diag.size == 0 or diag.max(initial=0.0) <= 0.0:
        return np.zeros((0, 0)), (np.array([], dtype=int), np.array([]))
    keep = np.flatnonzero(diag > 0.0)
    scale = 1.0 / np.sqrt(diag[keep])
    sub = g[np.ix_(keep, keep)]
    return sub * scale[:, None] * scale[None, :], (keep, scale)


# ---------------------------------------------------------------------------
# the module


class ModuleData:
    """A truncation: graded orthonormal basis plus the compressed L_n.

    ``ModuleData(params, dims, lmats)`` is the one constructor, for built
    and loaded modules alike.  dims[k] is the surviving dimension at level
    k after the null quotient, and ``lmats`` holds the real (dim, dim)
    matrices L_1, ..., L_lmax, each zero outside the blocks that map level
    k to level k - n.  The constructor derives L_0 = diag(h + k), sets
    L_{-n} to the transposed view of L_n (L_n* = L_{-n} in a real
    orthonormal basis), flags every matrix read-only and cuts each nonzero
    level block of every |n| <= lmax once, as a view into L_n, for the
    products of ``field.pi_field``.  ``lmat_by_n`` maps n to L_n.
    """

    def __init__(self, params: ModuleParams, dims: Sequence[int],
                 lmats: Sequence[np.ndarray]):
        self.params = params
        self.dims = tuple(dims)
        self.lmat_by_n = {0: _read_only(np.diag(self.weights()))}
        for n, mat in enumerate(lmats, start=1):
            self.lmat_by_n[n] = _read_only(mat)
            self.lmat_by_n[-n] = mat.T
        off = self.level_offsets
        self._blocks = {}
        for n, mat in self.lmat_by_n.items():
            blocks = []
            for k in range(max(n, 0), self.N + 1 + min(n, 0)):
                dst = slice(off[k - n], off[k - n + 1])
                src = slice(off[k], off[k + 1])
                block = mat[dst, src]
                if block.any():
                    blocks.append((dst, src, block))
            self._blocks[n] = tuple(blocks)

    @property
    def N(self) -> int:
        return self.params.N

    @property
    def lmax(self) -> int:
        return len(self.lmat_by_n) // 2

    @property
    def basis(self) -> tuple[tuple[Partition, ...], ...]:
        """Partition labels of the Verma module's levels 0..N, before the
        null quotient."""
        return enumerate_basis(self.N)

    @property
    def dim(self) -> int:
        return int(sum(self.dims))

    @property
    def level_offsets(self) -> np.ndarray:
        return _level_offsets(self.dims)

    def level_index(self) -> np.ndarray:
        """Level of each coordinate, shape (dim,)."""
        return np.repeat(np.arange(self.N + 1), self.dims)

    def weights(self) -> np.ndarray:
        """L_0 eigenvalue h + k of each coordinate."""
        return float(self.params.h) + self.level_index().astype(float)

    def _check_mode(self, n: int) -> None:
        if abs(n) > self.lmax:
            raise ModuleRangeError(
                f"module built with lmax = {self.lmax}, no matrix for L_{n}"
            )

    def lmat(self, n: int) -> np.ndarray:
        self._check_mode(n)
        return self.lmat_by_n[n]

    def level_blocks(self, n: int) -> tuple[tuple[slice, slice, np.ndarray], ...]:
        """The level blocks of L_n: (rows of level k - n, rows of level
        k, block) for every level k whose block is nonzero."""
        self._check_mode(n)
        return self._blocks[n]

    def protected_dim(self, budget: int) -> int:
        """Dimension of the span of levels <= N - budget."""
        top = self.N - budget
        if top < 0:
            return 0
        return int(self.level_offsets[top + 1])


def _to_longdouble(x) -> np.longdouble:
    """Exact-as-possible conversion of a gram scalar to 80-bit precision."""
    if isinstance(x, Fraction):
        return np.longdouble(x.numerator) / np.longdouble(x.denominator)
    return np.longdouble(x)


def build_module(params: ModuleParams, nulltol: float = DEFAULT_NULLTOL,
                 lmax: int | None = None) -> ModuleData:
    """Construct the truncated module at ``params``.

    One pass over the levels k = 0..N, each built once from the levels
    below it (``_levels``): take the Shapovalov matrix G_k (exactly when c
    and h are both Fractions), quotient directions with relative eigenvalue
    below ``nulltol``, orthonormalize to a basis B_k, keep G_k B_k, and cut
    the level blocks (G_{k-n} B_{k-n})^T (C_n B_k) of L_1..L_lmax that map
    level k down.  Raises ArgumentError unless 0 < nulltol < 1,
    ModuleRangeError before any level work when the dense L_n would not fit
    in physical memory, and NonUnitaryError on an eigenvalue that is
    negative beyond tolerance.  ``lmax`` bounds which L_n matrices are
    assembled (default: all |n| <= N).  Each L_n with n >= 1 is written
    once as a real matrix from its blocks and handed to the ``ModuleData``
    constructor, which derives the rest.

    Numerical note: the partition-monomial basis becomes severely
    ill-conditioned with level (normalized gram condition ~1e8 at level 12),
    and the contraction B^T G C B mixes entries spread over ~17 orders of
    magnitude.  The cancellation-heavy products G B and C B are therefore
    evaluated in 80-bit arithmetic (C B as a sum over the nonzeros of C in
    column order, term for term the dense product), and the float64
    eigenbasis is refined to G-orthonormality there by Newton-Schulz
    updates (``_refine``).  Each update roughly squares the error
    max|B^T G B - I| until it meets the rounding floor of the 80-bit
    product, which rises with the conditioning of G_k: at c=2, h=1/2 it is
    about 1e-19 at the lowest levels, 1e-16 at level 8 and 1e-13 to 5e-13
    at levels 12-16, where the float64 eigenbasis starts at 2e-10 to 4e-9;
    one update reaches it.  The loop updates again only while the error is
    at least 1e-17 and fell tenfold since its last measurement, at most 4
    times, and keeps the measured iterate with the smallest error.  Where
    G and B are plain float64 the first update already meets the floor and
    the loop stops after one or two.  This keeps commutator residuals of the
    assembled matrices near float64 roundoff.  At default nulltol, levels
    >= 13 may still quotient a few genuinely positive directions whose
    normalized eigenvalue sinks below the cut; pass a smaller nulltol to
    keep them.
    """
    if not 0.0 < nulltol < 1.0:  # NaN fails every comparison
        raise ArgumentError(f"nulltol must lie in (0, 1), got {nulltol!r}")
    N = params.N
    if lmax is None:
        lmax = N
    lmax = max(0, min(lmax, N))
    _check_fits(N, lmax)

    if _is_exact(params):
        oracle = VirasoroOracle(params.c, params.h)
        to_ld = np.vectorize(_to_longdouble, otypes=[np.longdouble])
    else:
        oracle = VirasoroOracle(_to_longdouble(params.c), _to_longdouble(params.h))
        to_ld = np.asarray

    gbs: list[np.ndarray] = []  # G_k B_k, the left factor of every block
    dims: list[int] = []
    blocks = {}  # (n, k) -> the block of L_n from level k to level k - n
    for k, (g, modes) in enumerate(_levels(oracle, N)):
        g_ld = to_ld(g)
        scaled, (keep, scale) = _scale_unit_diagonal(g_ld.astype(float))
        if scaled.size == 0:
            gbs.append(np.zeros((len(g), 0), dtype=np.longdouble))
            dims.append(0)
            continue
        w, v = np.linalg.eigh(scaled)
        wmax = w.max()
        if w.min() < -max(nulltol, 1e3 * np.finfo(float).eps) * wmax:
            raise NonUnitaryError(
                f"negative gram eigenvalue {w.min():.3e} at level {k}",
                level=k, eigenvalue=float(w.min()),
            )
        retained = np.flatnonzero(w > nulltol * wmax)
        b_small = (v[:, retained] / np.sqrt(w[retained])) * scale[:, None]
        b = np.zeros((len(g), b_small.shape[1]), dtype=np.longdouble)
        b[keep] = b_small
        b, gb, _ = _refine(g_ld, b)
        d = b.shape[1]
        gbs.append(gb)
        dims.append(d)
        for n in range(1, min(k, lmax) + 1):
            if dims[k - n] == 0:
                continue
            dst, src, coeff = modes[n]
            # (G B)^T (C B): G B is where 17 orders of magnitude cancel
            cb = _gather(dst, src, to_ld(coeff), b, len(gbs[k - n]),
                         np.longdouble(0))
            blocks[n, k] = _dot(gbs[k - n].T, cb).astype(float)

    offsets = _level_offsets(dims)
    dim = int(offsets[-1])
    lmats = [np.zeros((dim, dim)) for _ in range(lmax)]
    for (n, k), block in blocks.items():
        lmats[n - 1][offsets[k - n]:offsets[k - n + 1],
                     offsets[k]:offsets[k + 1]] = block
    return ModuleData(params, dims, lmats)


def _refine(g: np.ndarray, b: np.ndarray):
    """Newton-Schulz refinement of G-orthonormality, B <- B (3I - B^T G B)/2.

    Every iterate, the first included, is measured by err = max|B^T G B - I|.
    The loop updates again only while err >= 1e-17 and err fell at least
    tenfold since the previous measurement (the first measurement needs
    only the floor), at most 4 times.  The error roughly squares with each
    update until it meets the rounding floor of the arithmetic, after which
    updates only stir the rounding.  Returns (B, G B, errors): the measured
    iterate with the smallest err, its G B and every measured err in order.
    """
    ident = np.eye(b.shape[1], dtype=b.dtype)
    errs: list[float] = []
    while True:
        gb = _dot(g, b)
        e = _dot(b.T, gb) - ident
        err = float(np.abs(e).max())
        if not errs or err < best[2]:
            best = (b, gb, err)
        stalled = bool(errs) and err > errs[-1] / 10
        errs.append(err)
        if err < 1e-17 or stalled or len(errs) > 4:  # 4 updates made
            return best[0], best[1], errs
        b = _dot(b, ident - 0.5 * e)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.dot(a, b)`` with both inner-product operands at unit stride.

    For long double, which has no BLAS, np.dot sums each entry from zero in
    index order along a row of ``a`` and a column of ``b``; a row-contiguous
    ``a`` and a column-contiguous ``b`` keep both walks unit-stride, with the
    same terms in the same order, so the result is bit for bit np.dot's.
    """
    return np.dot(np.ascontiguousarray(a), np.asfortranarray(b))


def _levels(oracle: VirasoroOracle, N: int):
    """Yield (G_k, modes) for the levels k = 0..N of the Verma module.

    G_k is the Shapovalov matrix of level k in the partition basis, in the
    oracle's arithmetic (dtype object for Fractions).  ``modes`` maps
    a = 1..k to the action of L_a from level k to level k - a as the
    nonzero triplets (dst, src, coeff) of ``apply_mode``, source by source
    in basis order, each source's terms in apply_mode's order.

    G_k is the matrix form of ``VirasoroOracle.pairing``: its row
    lam = (a, rest) is <L_{-rest} v, L_a L_{-mu} v>, row ``rest`` of
    G_{k-a} C_a, each entry summed from zero over the terms of
    apply_mode(a, mu) in their order, and its lower triangle mirrors the
    upper.  That is the pairing's recursion term for term, so G_k equals
    ``VirasoroOracle.gram(k)`` bit for bit in every arithmetic.
    """
    zero = oracle._zero
    dtype = np.asarray(zero).dtype
    basis = enumerate_basis(N)
    index = [{lam: i for i, lam in enumerate(level)} for level in basis]
    grams: list[np.ndarray] = []
    for k, level in enumerate(basis):
        modes = {}
        for a in range(1, k + 1):
            dst_index = index[k - a]
            dst, src, coeff = [], [], []
            for j, mu in enumerate(level):
                for nu, x in oracle.apply_mode(a, mu).items():
                    dst.append(dst_index[nu])
                    src.append(j)
                    coeff.append(x)
            modes[a] = (np.array(dst, dtype=int), np.array(src, dtype=int),
                        np.array(coeff, dtype=dtype))
        g = np.full((len(level), len(level)), zero, dtype=dtype)
        if k == 0:
            g[0, 0] = oracle._one()
        for a, (dst, src, coeff) in modes.items():
            rows = [i for i, lam in enumerate(level) if lam[0] == a]
            rest = [index[k - a][level[i][1:]] for i in rows]
            # the columns mu >= rows[0] of G_{k-a}[rest] C_a, which hold
            # the upper triangle of these rows; G_{k-a} is symmetric
            top = src >= rows[0]
            g[rows, rows[0]:] = _gather(
                src[top] - rows[0], dst[top], coeff[top],
                grams[k - a][:, rest], len(level) - rows[0], zero).T
        lower = np.tril_indices(len(level), -1)
        g[lower] = g.T[lower]
        grams.append(g)
        yield g, modes


def _gather(keys: np.ndarray, cols: np.ndarray, vals: np.ndarray,
            x: np.ndarray, nkeys: int, zero) -> np.ndarray:
    """out[r] = sum of vals[e] * x[cols[e]] over the entries e with
    keys[e] == r, added to ``zero`` one by one in the entries' order."""
    order = np.argsort(keys, kind="stable")
    keys, cols, vals = keys[order], cols[order], vals[order]
    slot = np.arange(len(keys)) - np.searchsorted(keys, keys)
    out = np.full((nkeys, x.shape[1]), zero, dtype=x.dtype)
    for t in range(slot.max(initial=-1) + 1):
        e = slot == t  # each key's t-th entry
        out[keys[e]] += vals[e][:, None] * x[cols[e]]
    return out


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _check_fits(N: int, lmax: int) -> None:
    """Raise ModuleRangeError when the dense L_1..L_lmax of a module at
    cutoff N, sized before the null quotient, exceed physical memory."""
    counts = [1] + [0] * N  # p(0..N), counted without listing partitions
    for part in range(1, N + 1):
        for k in range(part, N + 1):
            counts[k] += counts[k - part]
    need = lmax * sum(counts) ** 2 * 8
    have = _physical_memory()
    if have is not None and need > have:
        raise ModuleRangeError(
            f"a module at N = {N} with lmax = {lmax} needs {need / 1e9:.1f} GB "
            f"for its dense L_n, more than the {have / 1e9:.1f} GB of "
            f"physical memory"
        )


def _level_offsets(dims) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(dims)]).astype(int)


def _read_only(mat: np.ndarray) -> np.ndarray:
    """``mat``, flagged so that an in-place write raises ValueError."""
    mat.flags.writeable = False
    return mat


def sobolev_norm(v, n: float, module: ModuleData) -> float:
    """|| (1 + L_0)^n v ||, i.e. sqrt(sum_k (1 + h + k)^{2n} ||v_k||^2)."""
    coeffs = np.asarray(v)
    if coeffs.shape != (module.dim,):
        raise ArgumentError("vector does not match module dimension")
    factors = (1.0 + module.weights()) ** float(n)
    return float(np.linalg.norm(factors * coeffs))


def random_protected_vector(module: ModuleData, budget: int,
                            rng: np.random.Generator) -> np.ndarray:
    """Random complex unit vector supported in levels <= N - budget."""
    p = module.protected_dim(budget)
    if p == 0:
        raise ModuleRangeError("no protected levels left at this budget")
    v = np.zeros(module.dim, dtype=complex)
    v[:p] = rng.standard_normal(p) + 1j * rng.standard_normal(p)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# serialization


def module_to_dict(module: ModuleData) -> dict:
    """JSON-ready form: {"c","h","N","dims","lmat":{n: [[[re,im],...],...]}}."""
    c, h = module.params.as_floats()
    return {
        "c": c,
        "h": h,
        "N": module.N,
        "dims": list(module.dims),
        "lmat": {
            str(n): _complex_matrix_to_json(m)
            for n, m in sorted(module.lmat_by_n.items())
        },
    }


def module_from_dict(data: dict) -> ModuleData:
    """Inverse of ``module_to_dict``.

    Raises ArgumentError unless c, h and every matrix entry are finite and
    every L_n with n >= 0 has the graded shape of a module: a (dim, dim)
    matrix, zero outside the level blocks that map level k to level k - n,
    and real.  L_0 must be the diagonal h + k.  The file lists L_n for
    every n in 1..lmax; an L_{-n} it lists must be exactly the transpose of
    L_n.  The block products of ``field.pi_field`` read exactly that
    structure, so a file breaking it would otherwise act as another
    operator.  The real parts of L_1..L_lmax go to the ``ModuleData``
    constructor, which derives L_0 and every L_{-n}.
    """
    c, h = float(data["c"]), float(data["h"])
    if not (math.isfinite(c) and math.isfinite(h)):
        raise ArgumentError(f"c = {c} and h = {h} must be finite")
    params = ModuleParams(c, h, int(data["N"]))
    dims = tuple(int(d) for d in data["dims"])
    if len(dims) != params.N + 1:
        raise ArgumentError(f"dims lists {len(dims)} levels, N = {params.N} "
                            f"needs {params.N + 1}")
    lmat = {int(n): _complex_matrix_from_json(m) for n, m in data["lmat"].items()}
    for n in sorted(lmat):
        if n < 0 and -n not in lmat:
            raise ArgumentError(f"lmat {n} is given without lmat {-n}")
    lmax = max(lmat, default=0)
    missing = [n for n in range(1, lmax) if n not in lmat]
    if missing:
        raise ArgumentError(f"lmat lists modes up to {lmax} but not {missing}")
    _check_graded(h, dims, {n: m for n, m in lmat.items() if n >= 0})
    for n in range(1, lmax + 1):
        if -n in lmat and not np.array_equal(lmat[-n], lmat[n].T):
            raise ArgumentError(f"lmat {-n} is not exactly the transpose of "
                                f"lmat {n}")
    return ModuleData(params, dims, [np.ascontiguousarray(lmat[n].real)
                                     for n in range(1, lmax + 1)])


def _check_graded(h: float, dims: tuple[int, ...], mats: dict) -> None:
    level = np.repeat(np.arange(len(dims)), dims)
    dim = level.size
    shift = level[None, :] - level[:, None]  # n of the blocks holding (i, j)
    for n, m in sorted(mats.items()):
        if m.shape != (dim, dim):
            raise ArgumentError(f"lmat {n} has shape {m.shape}, the dims "
                                f"give ({dim}, {dim})")
        if not np.isfinite(m).all():
            raise ArgumentError(f"lmat {n} has non-finite entries")
        if m.imag.any():
            raise ArgumentError(f"lmat {n} has a nonzero imaginary part")
        if n == 0:  # the diagonal h + k, to the rounding of a text file
            w = h + level.astype(float)
            outside = np.abs(m.real - np.diag(w)) > 1e-13 * w.max(initial=1.0)
        else:
            outside = np.where(shift == n, 0.0, m.real)
        if outside.any():
            raise ArgumentError(
                f"lmat {n} has nonzero entries outside the level blocks of "
                f"L_{n}" + (" (L_0 must be the diagonal h + k)" if n == 0 else "")
            )


def _complex_matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m)
    return np.stack((m.real, m.imag), -1).tolist()


def _complex_matrix_from_json(rows: list) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])

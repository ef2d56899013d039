"""Module construction: partitions, normal ordering, gram matrices, L_n."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from virann import virmod
from virann.errors import (ArgumentError, ModuleRangeError, NonUnitaryError,
                           TruncationError)
from virann.verify import bracket_residual
from virann.virmod import (
    ModuleParams,
    VirasoroOracle,
    _levels,
    build_module,
    check_unitarity,
    enumerate_basis,
    gram_matrix,
    gram_negativity,
    module_from_dict,
    module_to_dict,
    partitions_of,
    random_protected_vector,
    sobolev_norm,
)

F = Fraction


def exact_params(c, h, N=4):
    return ModuleParams(F(c), F(h), N)


# ---------------------------------------------------------------------------
# partitions


def test_level_zero_is_single_empty_partition():
    assert partitions_of(0) == ((),)
    assert enumerate_basis(0) == (((),),)


def test_level_two_order():
    # reverse-lexicographic: [2] before [1,1]
    assert partitions_of(2) == ((2,), (1, 1))
    basis = enumerate_basis(2)
    assert tuple(len(b) for b in basis) == (1, 1, 2)


def test_total_count_through_level_five():
    assert sum(len(b) for b in enumerate_basis(5)) == 19  # 1+1+2+3+5+7


def test_negative_level_rejected():
    with pytest.raises(ArgumentError):
        enumerate_basis(-1)


@given(st.integers(min_value=0, max_value=14))
def test_partition_parts_decrease_and_sum(k):
    parts_list = partitions_of(k)
    assert len(set(parts_list)) == len(parts_list)
    for lam in parts_list:
        assert all(a >= b for a, b in zip(lam, lam[1:]))
        assert all(p >= 1 for p in lam)
        assert sum(lam) == k


@given(st.integers(min_value=1, max_value=12))
def test_partition_counts_match_pentagonal_recurrence(k):
    # p(k) = sum_j (-1)^{j+1} [p(k - j(3j-1)/2) + p(k - j(3j+1)/2)]
    total = 0
    j = 1
    while True:
        g1 = j * (3 * j - 1) // 2
        g2 = j * (3 * j + 1) // 2
        if g1 > k:
            break
        sign = 1 if j % 2 == 1 else -1
        total += sign * len(partitions_of(k - g1))
        if g2 <= k:
            total += sign * len(partitions_of(k - g2))
        j += 1
    assert len(partitions_of(k)) == total


# ---------------------------------------------------------------------------
# normal-ordering oracle


def test_single_bracket_lowering():
    out = VirasoroOracle(F(2), F(1)).reduce_word([1, -1])
    assert out == {(): F(2)}  # 2h with h=1


def test_level_two_scalar_with_central_term():
    out = VirasoroOracle(F(3), F(1, 4)).reduce_word([2, -2])
    assert out == {(): 4 * F(1, 4) + F(3) / 2}  # 4h + c/2


def test_two_step_reduction():
    out = VirasoroOracle(F(7), F(1, 3)).reduce_word([2, -1, -1])
    assert out == {(): 6 * F(1, 3)}  # 6h, independent of c


def test_reduce_word_annihilates_on_positive_mode():
    assert VirasoroOracle(F(2), F(1)).reduce_word([5]) == {}


def test_oracle_mixed_word_stays_exact():
    out = VirasoroOracle(F(1, 2), F(1, 16)).reduce_word([1, -2])
    # [L_1, L_{-2}] = 3 L_{-1}
    assert out == {(1,): F(3)}


# ---------------------------------------------------------------------------
# gram matrices


def test_gram_level_zero_and_one():
    p = exact_params(2, F(3, 4))
    assert gram_matrix(p, 0).tolist() == [[1]]
    assert gram_matrix(p, 1).tolist() == [[2 * F(3, 4)]]


def test_gram_level_two_closed_form_exact():
    for c, h in [(F(2), F(1, 2)), (F(1), F(0)), (F(1, 2), F(1, 16))]:
        g = gram_matrix(ModuleParams(c, h, 4), 2)
        expect = [[4 * h + c / 2, 6 * h], [6 * h, 4 * h * (2 * h + 1)]]
        assert g.tolist() == expect


def test_gram_float_mode_matches_exact():
    for c, h in [(2.0, 0.5), (1.0, 0.0), (0.5, 0.0625)]:
        pf = ModuleParams(c, h, 4)
        pe = ModuleParams(F(c), F(h), 4)
        for k in range(5):
            gf = gram_matrix(pf, k)
            ge = gram_matrix(pe, k).astype(float) if k > 0 else np.array([[1.0]])
            scale = max(1.0, np.abs(ge).max())
            assert np.abs(gf - ge).max() <= 1e-12 * scale


def test_gram_symmetric():
    g = gram_matrix(ModuleParams(2.0, 0.5, 6), 5)
    assert np.abs(g - g.T).max() == 0.0


def test_gram_beyond_cutoff_rejected():
    with pytest.raises(ArgumentError):
        gram_matrix(ModuleParams(2.0, 0.5, 2), 3)


def test_ising_level_two_determinant_vanishes_exactly():
    g = gram_matrix(exact_params(F(1, 2), F(1, 16)), 2)
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    assert det == 0


def test_gram_matrix_of_mixed_params_is_float():
    # exact only when c and h are both Fractions, as in build_module
    for c, h in [(F(1, 2), 0.0625), (0.5, F(1, 16))]:
        g = gram_matrix(ModuleParams(c, h, 2), 2)
        assert g.dtype == np.float64
        assert np.array_equal(g, gram_matrix(ModuleParams(0.5, 0.0625, 2), 2))


@pytest.mark.parametrize("c, h", [(F(2), F(1, 2)), (F(1, 2), F(1, 16))])
def test_level_grams_equal_the_exact_oracle(c, h):
    """The build's matrix recursion against the oracle's dict recursion."""
    grams = [g for g, _ in _levels(VirasoroOracle(c, h), 8)]
    for k, g in enumerate(grams):
        assert g.dtype == object
        assert g.tolist() == gram_matrix(ModuleParams(c, h, 8), k).tolist()


def test_level_grams_equal_the_float_oracle():
    grams = [g for g, _ in _levels(_build_oracle(2.0, 0.5), 10)]
    for k, g in enumerate(grams):
        assert g.dtype == np.longdouble
        assert np.array_equal(g.astype(float),
                              gram_matrix(ModuleParams(2.0, 0.5, 10), k))


def test_level_grams_sum_as_the_pairing_recursion():
    # in 80-bit at a point whose entries round: the same terms in the same
    # order as VirasoroOracle.pairing, so the same bits
    oracle = _build_oracle(0.7, 0.0375)
    for k, (g, _) in enumerate(_levels(oracle, 10)):
        want = np.array(oracle.gram(k), dtype=np.longdouble)
        assert np.array_equal(g, want)


def _build_oracle(c, h):
    """The oracle build_module uses at float parameters."""
    return VirasoroOracle(np.longdouble(c), np.longdouble(h))


# ---------------------------------------------------------------------------
# module construction


def test_vacuum_level_one_is_null():
    params = ModuleParams(2.0, 0.0, 1)
    assert build_module(params).dims == (1, 0)
    assert gram_matrix(params, 1).tolist() == [[0.0]]


def test_generic_point_keeps_everything():
    mod = build_module(ModuleParams(2.0, 0.5, 2))
    assert mod.dims == (1, 1, 2)


def test_ising_quotient_and_deeper_dims():
    mod = build_module(ModuleParams(F(1, 2), F(1, 16), 6))
    assert mod.dims == (1, 1, 1, 2, 2, 3, 4)


def test_c1_vacuum_character():
    mod = build_module(ModuleParams(1.0, 0.0, 12))
    assert mod.dims == (1, 0, 1, 1, 2, 2, 4, 4, 7, 8, 12, 14, 21)


def test_full_verma_dims_at_n12(mod12):
    assert mod12.dims == (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77)


def test_dims_survive_tight_nulltol_at_n14(mod14):
    assert mod14.dims[-2:] == (101, 135)


@pytest.mark.parametrize("c, h, dims", [
    (0.5, 1 / 16, (1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10, 12, 15, 18, 22)),
    (0.7, 3 / 80, (1, 1, 2, 3, 4, 6, 8, 11, 15, 20, 26, 34, 44, 56, 71)),
    (1.0, 0.25, (1, 1, 1, 2, 3, 4, 6, 8, 11, 15, 20, 26, 35, 45, 58)),
])
def test_null_heavy_dims_at_n14(c, h, dims):
    """The dims of the null-heavy points of perfbench's build-sweep."""
    assert build_module(ModuleParams(c, h, 14)).dims == dims


def test_module_beyond_physical_memory_refused(monkeypatch):
    # N=8 needs 8 * 67^2 * 8 = 287,296 bytes of dense L_n before the quotient
    monkeypatch.setattr(virmod, "_physical_memory", lambda: 287_295)
    with pytest.raises(ModuleRangeError, match="physical memory"):
        build_module(ModuleParams(2.0, 0.5, 8))
    assert build_module(ModuleParams(2.0, 0.5, 8), lmax=7).lmax == 7
    monkeypatch.setattr(virmod, "_physical_memory", lambda: None)
    assert build_module(ModuleParams(2.0, 0.5, 8)).lmax == 8


def _eigenbasis(g):
    """build_module's float64 starting basis at a level without nulls."""
    scaled, (keep, scale) = virmod._scale_unit_diagonal(g.astype(float))
    assert len(keep) == len(g)
    w, v = np.linalg.eigh(scaled)
    return (v / np.sqrt(w)) * scale[:, None]


def _orthonormality_error(g, b):
    e = virmod._dot(b.T, virmod._dot(g, b)) - np.eye(b.shape[1],
                                                      dtype=b.dtype)
    return float(np.abs(e).max())


def test_refinement_returns_its_best_measured_iterate(monkeypatch):
    calls = []
    refine = virmod._refine

    def spy(g, b):
        out = refine(g, b)
        calls.append((g, out))
        return out

    monkeypatch.setattr(virmod, "_refine", spy)
    build_module(ModuleParams(2.0, 0.5, 14))
    assert len(calls) == 15
    for g, (b, gb, errs) in calls:
        assert 1 <= len(errs) <= 5  # at most 4 updates
        for before, after in zip(errs, errs[1:-1]):
            assert before >= 1e-17 and after <= before / 10
        assert np.array_equal(gb, np.dot(g, b))
        assert _orthonormality_error(g, b) == min(errs)


def test_refinement_stops_on_float64_inputs():
    # float64 has no digits beyond the starting basis: the first update
    # already meets the rounding floor, and the loop must not run to its cap
    g = gram_matrix(ModuleParams(2.0, 0.5, 12), 12)
    b, gb, errs = virmod._refine(g, _eigenbasis(g))
    assert b.dtype == np.float64
    assert len(errs) <= 3
    assert _orthonormality_error(g, b) == min(errs)


def test_unit_stride_product_is_np_dot_bit_for_bit():
    rng = np.random.default_rng(23)
    a = rng.standard_normal((37, 29)).astype(np.longdouble) / 3
    b = rng.standard_normal((29, 31)).astype(np.longdouble) / 7
    c = rng.standard_normal((37, 31)).astype(np.longdouble) / 5
    for x, y in ((a, b), (a.T, c), (c.T, a), (b.T, a.T), (a[::2], b[:, 1::3])):
        assert np.array_equal(virmod._dot(x, y), np.dot(x, y))


@pytest.mark.parametrize("nulltol", [np.nan, np.inf, 2.0, 1.0, 0.0, -1.0])
def test_nulltol_outside_zero_one_rejected(nulltol):
    with pytest.raises(ArgumentError, match="nulltol"):
        build_module(ModuleParams(2.0, 0.5, 3), nulltol=nulltol)


def test_nonunitary_point_raises():
    # level-2 gram has a negative eigenvalue at (c, h) = (0.5, 0.3)
    with pytest.raises(NonUnitaryError):
        build_module(ModuleParams(0.5, 0.3, 4))


def test_params_domain_validation():
    with pytest.raises(ArgumentError):
        ModuleParams(2.0, 0.5, -1)
    with pytest.raises(NonUnitaryError):
        ModuleParams(-0.5, 0.5, 4)
    with pytest.raises(NonUnitaryError):
        ModuleParams(2.0, -0.1, 4)


def test_check_unitarity_verdicts():
    assert check_unitarity(ModuleParams(2.0, 0.5, 6))[0]
    assert check_unitarity(ModuleParams(0.5, 0.0625, 6))[0]
    ok, why = check_unitarity(ModuleParams(0.5, 0.3, 6))
    assert not ok and why == "gram not positive semidefinite at level 2"


def test_gram_negativity_names_the_worst_level():
    assert gram_negativity(ModuleParams(2.0, 0.5, 8)) == (0.0, 0, 6)
    neg, level, depth = gram_negativity(ModuleParams(0.5, 0.3, 6))
    assert neg > 1e-2 and level == 2 and depth == 6
    assert gram_negativity(ModuleParams(0.5, 0.3, 1)) == (0.0, 0, 1)


# ---------------------------------------------------------------------------
# the assembled matrices


def test_lmat_zero_is_diagonal_weights(mod12):
    got = mod12.lmat(0)
    expect = np.diag(0.5 + mod12.level_index().astype(float))
    assert np.abs(got - expect).max() == 0.0


def _loaded(mod):
    return module_from_dict(json.loads(json.dumps(module_to_dict(mod))))


def test_adjoint_pairing_exact_by_construction(mod12):
    for mod in (mod12, _loaded(mod12)):
        for n in range(1, mod.lmax + 1):
            assert np.array_equal(mod.lmat(-n), mod.lmat(n).T)
            assert np.shares_memory(mod.lmat(-n), mod.lmat(n))


def test_each_lmat_is_stored_once_as_a_real_matrix(mod12):
    for mod in (mod12, _loaded(mod12)):
        mats = [mod.lmat(n) for n in range(-mod.lmax, mod.lmax + 1)]
        assert all(m.dtype == np.float64 for m in mats)
        owners = {id(o): o for o in (m if m.base is None else m.base
                                     for m in mats)}
        stored = sum(o.nbytes for o in owners.values())
        assert stored <= (mod.lmax + 1) * mod.dim ** 2 * 8


def test_stored_lmat_is_read_only():
    built = build_module(ModuleParams(2.0, 0.5, 4))
    for mod in (built, _loaded(built)):
        for n in range(-mod.lmax, mod.lmax + 1):
            with pytest.raises(ValueError, match="read-only"):
                mod.lmat(n)[0, 0] = 1.0


def test_graded_block_structure(mod12):
    off = mod12.level_offsets
    for n in (1, 2, 3):
        m = mod12.lmat(n).copy()
        for k in range(n, mod12.N + 1):
            m[off[k - n]:off[k - n + 1], off[k]:off[k + 1]] = 0.0
        assert np.abs(m).max() == 0.0


def test_bracket_on_protected_columns(mod12):
    """[L_m, L_n] = (m-n)L_{m+n} + (c/12)(m^3-m) on levels the cutoff
    cannot touch."""
    assert bracket_residual(mod12) < 1e-10


def test_matrix_elements_match_exact_oracle():
    """The float matrices vs exact rational pairings of the cyclic vectors
    L_{-lam} e_0, which do not depend on the module's basis."""
    _check_matrix_elements(F(2), F(1, 2), 6)


def test_matrix_elements_match_exact_oracle_across_the_quotient():
    # the Ising point loses states from level 2; the pairings of the cyclic
    # vectors, null ones included, still descend to the quotient
    _check_matrix_elements(F(1, 2), F(1, 16), 8)


def _check_matrix_elements(c, h, N):
    mod = build_module(ModuleParams(c, h, N))
    oracle = VirasoroOracle(c, h)
    e0 = np.zeros(mod.dim)
    e0[0] = 1.0

    def cyclic(lam):  # L_{-lam_1} ... L_{-lam_k} e_0
        v = e0
        for part in reversed(lam):
            v = mod.lmat(-part) @ v
        return v

    vecs = {lam: cyclic(lam) for level in mod.basis for lam in level}

    def close(got, exact):
        want = np.array(exact, dtype=float)
        return np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    for k in range(mod.N + 1):
        vs = np.array([vecs[lam] for lam in mod.basis[k]])
        assert close(vs @ vs.T, oracle.gram(k))
    for n in (-2, -1, 1, 2, 3):
        for k in range(max(n, 0), mod.N + 1 + min(n, 0)):
            for lam in mod.basis[k]:
                image = mod.lmat(n) @ vecs[lam]
                got = [vecs[mu] @ image for mu in mod.basis[k - n]]
                exact = [sum(coeff * oracle.pairing(mu, nu) for nu, coeff
                             in oracle.apply_mode(n, lam).items())
                         for mu in mod.basis[k - n]]
                assert close(np.array(got), exact)


def test_lmax_budget_enforced():
    mod = build_module(ModuleParams(2.0, 0.5, 8), lmax=3)
    mod.lmat(3)
    with pytest.raises(TruncationError):
        mod.lmat(4)


def test_singular_values_of_lowering_by_one(mod12):
    # ||L_{-1} (lowest weight)||^2 = 2h exactly
    e0 = np.zeros(mod12.dim)
    e0[0] = 1.0
    assert abs(np.linalg.norm(mod12.lmat(-1) @ e0) - np.sqrt(1.0)) < 1e-12


# ---------------------------------------------------------------------------
# vectors and norms


def test_sobolev_norm_examples():
    m0 = build_module(ModuleParams(2.0, 0.0, 2))
    v = np.zeros(m0.dim, dtype=complex)
    v[0] = 1.0
    assert abs(sobolev_norm(v, 1, m0) - 1.0) < 1e-15
    w = np.zeros(m0.dim, dtype=complex)
    w[m0.level_offsets[2]] = 1.0
    assert abs(sobolev_norm(w, 1, m0) - 3.0) < 1e-15
    mh = build_module(ModuleParams(2.0, 0.5, 2))
    u = np.zeros(mh.dim, dtype=complex)
    u[mh.level_offsets[1]] = 1.0
    assert abs(sobolev_norm(u, 2, mh) - 6.25) < 1e-12


@given(st.floats(min_value=-4, max_value=4, allow_nan=False),
       st.floats(min_value=-4, max_value=4, allow_nan=False))
@settings(max_examples=25, deadline=None)
def test_sobolev_norm_absolutely_homogeneous(re, im):
    mod = build_module(ModuleParams(2.0, 0.5, 3))
    v = np.linspace(1.0, 2.0, mod.dim).astype(complex)
    a = complex(re, im)
    assert abs(sobolev_norm(a * v, 1.5, mod)
               - abs(a) * sobolev_norm(v, 1.5, mod)) < 1e-9


def test_random_protected_vector_support(mod12, rng):
    v = random_protected_vector(mod12, 4, rng)
    p = mod12.protected_dim(4)
    assert np.abs(v[p:]).max() == 0.0
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# serialization


def test_module_json_round_trip(mod8):
    doc = module_to_dict(mod8)
    text = json.dumps(doc, sort_keys=True)
    back = module_from_dict(json.loads(text))
    assert back.dims == mod8.dims
    for n in range(-mod8.lmax, mod8.lmax + 1):
        assert back.lmat(n).dtype == np.float64
        assert np.array_equal(back.lmat(n), mod8.lmat(n))


def test_serialization_deterministic():
    a = module_to_dict(build_module(ModuleParams(2.0, 0.5, 4)))
    b = module_to_dict(build_module(ModuleParams(2.0, 0.5, 4)))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_module_to_dict_matches_the_per_entry_writer(mod8):
    def per_entry(m):  # the entry-by-entry writer, kept as the reference
        return [[[float(z.real), float(z.imag)] for z in row]
                for row in np.asarray(m)]

    doc = module_to_dict(mod8)
    ref = dict(doc, lmat={str(n): per_entry(m)
                          for n, m in sorted(mod8.lmat_by_n.items())})
    assert json.dumps(doc) == json.dumps(ref)


def _module_doc_with(doc, n, edit):
    doc = json.loads(json.dumps(doc))
    m = np.array([[complex(re, im) for re, im in row]
                  for row in doc["lmat"][str(n)]])
    m = edit(m)
    doc["lmat"][str(n)] = [[[z.real, z.imag] for z in row] for row in m]
    return doc


def _set(m, i, j, value):
    m = m.copy()
    m[i, j] = value
    return m


@pytest.mark.parametrize("n, edit, message", [
    (1, lambda m: m[:-1, :-1], "shape"),
    (1, lambda m: _set(m, 0, 1, 1e-3j), "imaginary"),
    (2, lambda m: _set(m, 0, 1, 0.5), "outside the level blocks"),
    (0, lambda m: _set(m, 2, 2, 3.0), "outside the level blocks"),
    (0, lambda m: _set(m, 1, 2, 0.1), "outside the level blocks"),
])
def test_module_file_must_be_graded(mod8, n, edit, message):
    # index 1 is level 1, indices 2 and 3 span level 2
    doc = _module_doc_with(module_to_dict(mod8), n, edit)
    with pytest.raises(ArgumentError, match=message):
        module_from_dict(doc)


def test_module_file_dims_must_list_every_level(mod8):
    doc = module_to_dict(mod8)
    doc["N"] = 9
    with pytest.raises(ArgumentError, match="dims lists 9 levels"):
        module_from_dict(doc)


def test_module_file_lmat_minus_n_must_be_the_transpose(mod8):
    doc = _module_doc_with(module_to_dict(mod8), -1, lambda m: 2 * m)
    with pytest.raises(ArgumentError,
                       match="lmat -1 is not exactly the transpose of lmat 1"):
        module_from_dict(doc)


def test_module_file_lists_every_mode_up_to_lmax(mod8):
    doc = module_to_dict(mod8)
    del doc["lmat"]["2"]
    with pytest.raises(ArgumentError, match="lmat -2 is given without lmat 2"):
        module_from_dict(doc)
    del doc["lmat"]["-2"]
    with pytest.raises(ArgumentError, match=r"up to 8 but not \[2\]"):
        module_from_dict(doc)


def test_module_file_without_negative_modes_loads(mod8):
    doc = module_to_dict(mod8)
    for n in range(1, mod8.lmax + 1):
        del doc["lmat"][str(-n)]
    back = module_from_dict(doc)
    assert back.lmax == mod8.lmax
    for n in range(-mod8.lmax, mod8.lmax + 1):
        assert np.array_equal(back.lmat(n), mod8.lmat(n))


def test_level_blocks_are_the_real_blocks_of_lmat(mod8):
    off = mod8.level_offsets
    for mod in (mod8, _loaded(mod8)):
        for n in range(-mod.lmax, mod.lmax + 1):
            blocks = mod.level_blocks(n)
            assert mod.level_blocks(n) is blocks  # cut once
            rebuilt = np.zeros((mod.dim, mod.dim))
            for dst, src, block in blocks:
                k = next(k for k in range(mod.N + 1) if off[k] == src.start)
                assert (dst.start, dst.stop) == (off[k - n], off[k - n + 1])
                assert block.base is not None  # a view, not a copy
                assert np.shares_memory(block, mod.lmat(n))
                assert np.shares_memory(block, mod.lmat(abs(n)))
                rebuilt[dst, src] = block
            assert np.array_equal(rebuilt, mod.lmat(n))
        with pytest.raises(TruncationError):
            mod.level_blocks(mod.lmax + 1)

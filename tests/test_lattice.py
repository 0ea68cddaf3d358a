import itertools
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from padic_tate.errors import (
    DimensionMismatch,
    FieldMismatch,
    FullRank,
    InconsistentDimensions,
    SearchSpaceTooLarge,
)
from padic_tate import lattice
from padic_tate.field import PadicElement, make_field
from padic_tate.lattice import (
    RotundVerdict,
    SubgroupLattice,
    atypical,
    determinant,
    dim_image,
    full_subgroup,
    hstack,
    identity,
    kernel_lattice,
    lattice_intersection_rank,
    lemma_vm_bound,
    mat_mul,
    matrix,
    mult_dependence_mod_kernel,
    persistently_likely,
    quotient_dim,
    rank,
    relation_false_positive_bound,
    relation_search,
    rotund_check,
    smith_normal_form,
    zeros,
)
from padic_tate.prng import random_element, random_unit, stream

from oracles import rank_over_Q, relation_search_box, rotund_check_brute, smith_normal_form_pair


@pytest.fixture
def lattice_calls(count_calls):
    """counted(call) -> (calls of lattice._bareiss and lattice.mat_mul, call's result)."""
    return count_calls((lattice, "_bareiss"), (lattice, "mat_mul"))


# both parts of full rank, so no row is killed by both and none refutes
FULL_RANK_3 = SubgroupLattice(3, matrix([[1, 2, 0], [0, 1, -1], [2, 0, 1]]),
                              matrix([[2, 1, 1], [1, -1, 0], [0, 1, 2]]))

# both parts kill exactly the multiples of (1, 2, 3), so the joint left
# kernel is nonzero and the only witness is that row, of height 3: below
# height 3 every candidate is tested and none refutes
KERNEL_3 = SubgroupLattice(3, matrix([[2, 3], [-1, 0], [0, -1]]),
                           matrix([[2, 3], [-1, 0], [0, -1]]))


def _joint_kernel(V):
    """A basis of {v : v L_mult = v L_ell = 0} as rows, from the Smith form
    of the transposed [0 | L_mult | L_ell]; the zero column leaves the
    kernel as it is and keeps the matrix from having no columns."""
    joint = tuple(sum(row, (0,)) for row in zip(*[p for p in (V.mult, V.ell) if p]))
    return list(zip(*kernel_lattice(tuple(zip(*(joint or zeros(V.n, 1)))))))


def _random_part(rng, n):
    """An n-row part of rank at most r, r drawn from 0..n; rank 0 comes as
    (), zeros(n, 0) or a zero matrix with columns."""
    r = rng.randint(0, n)
    if r == 0:
        return rng.choice([(), zeros(n, 0), zeros(n, rng.randint(1, n))])
    k = rng.randint(r, n)
    A = matrix([[rng.randint(-2, 2) for _ in range(r)] for _ in range(n)])
    B = matrix([[rng.randint(-2, 2) for _ in range(k)] for _ in range(r)])
    return mat_mul(A, B)


class TestMatrix:
    @pytest.mark.parametrize("rows", [[1, 2], [[1], 2], "12", 5, [[[1]]], [[1.5]], [["1"]]],
                             ids=["flat", "mixed", "string", "scalar", "nested",
                                  "float", "string-entry"])
    def test_malformed_rows_rejected(self, rows):
        with pytest.raises(ValueError):
            matrix(rows)


class TestSmith:
    def test_identity(self):
        I3 = identity(3)
        U, D, V = smith_normal_form(I3)
        assert D == I3 and U == I3 and V == I3

    def test_worked_example(self):
        M = matrix([[2, 4], [6, 8]])
        U, D, V = smith_normal_form(M)
        assert (D[0][0], D[1][1]) == (2, 4)
        assert mat_mul(mat_mul(U, M), V) == D
        assert abs(determinant(U)) == 1 and abs(determinant(V)) == 1

    def test_zero_matrix(self):
        M = zeros(3, 2)
        _, D, _ = smith_normal_form(M)
        assert D == M and rank(M) == 0

    @pytest.mark.parametrize("M, rk, det", [
        ((), 0, 1),
        (zeros(3, 0), 0, None),
        (matrix([[1, 2, 3], [1, 2, 3]]), 1, None),
        (matrix([[4, -6], [4, -6]]), 1, 0),
        (matrix([[0, 2, 4], [0, 1, 2], [0, 3, 7]]), 2, 0),
        (matrix([[0, 0, 3], [0, 0, 5], [2, 1, 1]]), 2, 0),
        (matrix([[0, 1], [1, 0]]), 2, -1),
        (matrix([[0, 2, 1], [3, 0, 0], [1, 1, 1]]), 3, -3),
    ], ids=["0x0", "3x0", "repeated-row", "repeated-square", "zero-column",
            "two-zero-columns", "swap", "swap-3x3"])
    def test_rank_and_determinant_examples(self, M, rk, det):
        assert rank(M) == rk == rank_over_Q(M)
        if det is None:
            with pytest.raises(DimensionMismatch):
                determinant(M)
        else:
            assert determinant(M) == det

    def test_seeded_against_rational_rank(self):
        for i in range(200):
            rng = stream(61, "snf", i)
            r, c = rng.randint(1, 8), rng.randint(1, 8)
            M = matrix([[rng.randint(-10 ** 6, 10 ** 6) for _ in range(c)]
                        for _ in range(r)])
            U, D, V = smith_normal_form(M)
            assert mat_mul(mat_mul(U, M), V) == D
            assert abs(determinant(U)) == 1
            assert abs(determinant(V)) == 1
            diag = [D[k][k] for k in range(min(r, c))]
            for a, b in zip(diag, diag[1:]):
                assert (a == 0) <= (b == 0)
                if a:
                    assert b % a == 0
            assert sum(1 for d in diag if d) == rank_over_Q(M) == rank(M)
            if r == c:
                assert abs(determinant(M)) == math.prod(diag)

    def test_seeded_against_two_matrix_oracle(self):
        # the empty shapes, then three matrices of every shape 1..9 x 1..9 at
        # each of three magnitudes and three densities: (U, D, V) and the
        # kernel are the oracle's
        cases = [(), matrix([[]]), zeros(3, 0)]
        for n, (mag, density, r, c, _) in enumerate(itertools.product(
                (9, 10 ** 6, 10 ** 12), (1, 0.5, 0.2), range(1, 10), range(1, 10), range(3))):
            rng = stream(83, "snf-oracle", n)
            cases.append(matrix([[rng.randint(-mag, mag) if rng.random() < density else 0
                                  for _ in range(c)] for _ in range(r)]))
        assert len(cases) >= 2000
        seen = []

        def recording(A):
            seen.append((A, smith_normal_form(A)))
            return seen[-1][1]
        for i, M in enumerate(cases):
            want = smith_normal_form_pair(M)
            with mock.patch.object(lattice, "smith_normal_form", lambda _: want):
                kernel = kernel_lattice(M)
            # the library's one SNF of M is recorded inside its kernel_lattice;
            # the empty shapes return before any SNF, so they call it directly
            seen.clear()
            with mock.patch.object(lattice, "smith_normal_form", recording):
                assert kernel_lattice(M) == kernel, M
            if i < 3:
                seen.append((M, smith_normal_form(M)))
            assert seen == [(M, want)], M


class TestKernel:
    def test_obvious_kernel(self):
        K = kernel_lattice(matrix([[1, 1]]))
        assert rank(K) == 1
        assert K[0][0] + K[1][0] == 0

    def test_identity_kernel_trivial(self):
        assert rank(kernel_lattice(identity(3))) == 0

    def test_saturation(self):
        K = kernel_lattice(matrix([[2, 4]]))
        assert rank(K) == 1
        col = [K[0][0], K[1][0]]
        # primitive generator of {2a + 4b = 0}: (2, -1) up to sign
        assert sorted(map(abs, col)) == [1, 2]
        from math import gcd
        assert gcd(*map(abs, col)) == 1

    def test_kernel_is_annihilated(self):
        for i in range(50):
            rng = stream(67, "ker", i)
            r, c = rng.randint(1, 5), rng.randint(1, 5)
            M = matrix([[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)])
            K = kernel_lattice(M)
            if K and K[0]:
                prod = mat_mul(M, K)
                assert all(all(x == 0 for x in row) for row in prod)
            assert rank(K) == c - rank(M)


class TestDimImage:
    def test_identity_action(self):
        T = full_subgroup(2)
        assert dim_image(identity(2), T) == T.dim == 4

    def test_zero_action(self):
        assert dim_image(zeros(2, 2), full_subgroup(2)) == 0

    def test_worked_example(self):
        T = SubgroupLattice(2, identity(2), zeros(2, 0))
        assert dim_image(matrix([[1, 0], [0, 0]]), T) == 1

    def test_mismatch(self):
        with pytest.raises(DimensionMismatch):
            dim_image(identity(3), full_subgroup(2))


class TestRotund:
    def test_full_ambient_verified(self):
        verdict = rotund_check(full_subgroup(1), 4)
        assert not verdict.refuted

    def test_skew_refuted_with_reverified_witness(self):
        V = SubgroupLattice(2, matrix([[1], [0]]), matrix([[1], [0]]))
        verdict = rotund_check(V, 2)
        assert verdict.refuted
        assert dim_image(verdict.witness, V) < rank(verdict.witness)

    def test_identity_times_E_verified(self):
        V = SubgroupLattice(1, zeros(1, 0), identity(1))
        assert not rotund_check(V, 4).refuted

    def test_search_space_guard(self, monkeypatch):
        monkeypatch.setattr(lattice, "_MAX_CANDIDATES", 1000)
        with pytest.raises(SearchSpaceTooLarge):
            rotund_check(full_subgroup(4), 40)

    def test_guard_message_matches_brute_force(self, monkeypatch):
        monkeypatch.setattr(lattice, "_MAX_CANDIDATES", 2743)
        with pytest.raises(SearchSpaceTooLarge) as fast:
            rotund_check(FULL_RANK_3, 1)
        with pytest.raises(SearchSpaceTooLarge) as brute:
            rotund_check_brute(FULL_RANK_3, 1)
        assert str(fast.value) == str(brute.value) == "2744 candidate matrices at height 1"
        monkeypatch.setattr(lattice, "_MAX_CANDIDATES", 2744)
        assert not rotund_check(FULL_RANK_3, 1).refuted

    @pytest.mark.parametrize("V, height, witness", [
        # dim V = 1 < 2 and (3, -1) is the only row killing the torus part,
        # so below height 3 the first witness has two distinct nonzero rows
        (SubgroupLattice(2, matrix([[1], [3]]), ()), 1, ((0, 1), (1, -1))),
        (SubgroupLattice(2, matrix([[1], [3]]), ()), 3, ((0, 0), (3, -1))),
        (SubgroupLattice(2, matrix([[1], [0]]), matrix([[1], [0]])), 2,
         ((0, 0), (0, 1))),
        (SubgroupLattice(3, zeros(3, 0), ()), 2,
         ((0, 0, 0), (0, 0, 0), (0, 0, 1))),
        # rows killing the torus part span e2, e3; the elliptic part is
        # killed only by (0, 1, 2), of height 2
        (SubgroupLattice(3, matrix([[1], [0], [0]]),
                         matrix([[1, 0], [0, 2], [0, -1]])), 1,
         ((0, 0, 0), (0, 0, 1), (0, 1, -1))),
        (SubgroupLattice(3, matrix([[1], [0], [0]]),
                         matrix([[1, 0], [0, 2], [0, -1]])), 2,
         ((0, 0, 0), (0, 0, 0), (0, 1, 2))),
        (FULL_RANK_3, 1, None),
        (KERNEL_3, 1, None),
        (SubgroupLattice(0, (), ()), 2, None),
    ], ids=["distinct-rows", "zero-row", "skew", "repeated-zero-row",
            "rank-two-witness", "height-two", "full-rank", "joint-kernel", "n0"])
    def test_first_witness_matches_brute_force(self, V, height, witness):
        verdict = rotund_check(V, height)
        assert verdict == rotund_check_brute(V, height)
        assert verdict == RotundVerdict(witness is not None, witness, height)

    def test_seeded_against_brute_force(self):
        seen = set()
        for i in range(120):
            rng = stream(109, "rotund", i)
            n = rng.randint(1, 3)
            height = rng.randint(0, 1 if n == 3 else 3)
            V = SubgroupLattice(n, _random_part(rng, n), _random_part(rng, n))
            verdict = rotund_check(V, height)
            assert verdict == rotund_check_brute(V, height), (V, height)
            seen.add((n, rank(V.mult), rank(V.ell), verdict.refuted))
        # every dimension meets refuted and verified lattices, and parts of
        # every rank 0..n
        for n in (1, 2, 3):
            assert {refuted for m, _, _, refuted in seen if m == n} == {False, True}
            assert {r for m, r, _, _ in seen if m == n} == set(range(n + 1))

    def test_joint_kernel_witness_at_its_height(self):
        # the brute force would walk 146^3 tuples here; this witness was
        # recorded while every row set was walked, and it is re-verified
        verdict = rotund_check(KERNEL_3, 3)
        assert verdict == RotundVerdict(True, ((0, 0, 0), (0, 0, 0), (1, 2, 3)), 3)
        assert dim_image(verdict.witness, KERNEL_3) < rank(verdict.witness)

    def test_joint_kernel_decides_rotundity(self, monkeypatch):
        # the criterion checked against the brute force and the definition,
        # not against the exit in rotund_check that relies on it
        seen = set()
        for i in range(120):
            rng = stream(113, "rotund-kernel", i)
            n = rng.randint(1, 3)
            V = SubgroupLattice(n, _random_part(rng, n), _random_part(rng, n))
            kernel = _joint_kernel(V)
            seen.add((n, rank(V.mult), rank(V.ell), bool(kernel)))
            if not kernel:
                height = rng.randint(0, 1 if n == 3 else 2)
                assert not rotund_check_brute(V, height).refuted, (V, height)
                continue
            # a saturated basis vector is primitive; as the one nonzero row
            # it is a witness, and the walk meets every one-row set first,
            # so a budget past the box's size costs nothing
            v = min(kernel, key=lambda row: max(map(abs, row)))
            M = zeros(n - 1, n) + (v,)
            assert dim_image(M, V) < rank(M) == 1
            height = max(map(abs, v))
            with monkeypatch.context() as patch:
                patch.setattr(lattice, "_MAX_CANDIDATES", 10 ** 12)
                verdict = rotund_check(V, height)
            assert verdict.refuted, (V, height)
            assert dim_image(verdict.witness, V) < rank(verdict.witness)
        for n in (1, 2, 3):
            assert {k for m, _, _, k in seen if m == n} == {False, True}
            assert {r for m, r, _, _ in seen if m == n} == set(range(n + 1))
            assert {r for m, _, r, _ in seen if m == n} == set(range(n + 1))

    def test_each_row_set_ranked_once(self, lattice_calls):
        # 14 candidate rows at n = 3, H = 1: 14 + 91 + 364 = 469 sets of 1..3
        # rows, three ranks each, against 14^3 = 2744 tuples and 8232 ranks;
        # one more rank finds the joint kernel nonzero
        counts, verdict = lattice_calls(lambda: rotund_check(KERNEL_3, 1))
        assert not verdict.refuted
        assert counts == {"_bareiss": 1408, "mat_mul": 2}
        counts, brute = lattice_calls(lambda: rotund_check_brute(KERNEL_3, 1))
        assert brute == verdict
        assert counts == {"_bareiss": 8232, "mat_mul": 5488}

    def test_height_zero_tests_one_candidate(self, lattice_calls):
        counts, verdict = lattice_calls(lambda: rotund_check(KERNEL_3, 0))
        assert verdict == RotundVerdict(False, None, 0)
        assert counts == {"_bareiss": 4, "mat_mul": 2}

    @pytest.mark.parametrize("height", [0, 1, 2, 3])
    def test_full_joint_rank_walks_nothing(self, height, lattice_calls):
        counts, verdict = lattice_calls(lambda: rotund_check(FULL_RANK_3, height))
        assert verdict == RotundVerdict(False, None, height)
        assert counts == {"_bareiss": 1}

    def test_negative_dimension_rejected(self):
        with pytest.raises(ValueError, match="n must be >= 0"):
            SubgroupLattice(-1, (), ())

    @pytest.mark.parametrize("height", [0, 1])
    def test_dimension_refused_before_any_candidate(self, height, monkeypatch):
        # one candidate matrix of n * n entries is itself beyond the budget,
        # so no candidate row is made
        with monkeypatch.context() as patch, pytest.raises(SearchSpaceTooLarge) as err:
            patch.setattr(lattice, "_normalized_rows", None)
            rotund_check(SubgroupLattice(10 ** 6, (), ()), height)
        assert str(err.value) == "1000000x1000000 candidate matrices exceed 5000000 entries"
        monkeypatch.setattr(lattice, "_MAX_CANDIDATES", 8)
        with pytest.raises(SearchSpaceTooLarge, match="^3x3 candidate matrices exceed 8 entries$"):
            rotund_check(FULL_RANK_3, 0)
        monkeypatch.setattr(lattice, "_MAX_CANDIDATES", 9)
        assert rotund_check(FULL_RANK_3, 0) == RotundVerdict(False, None, 0)


class TestLemmaVM:
    def test_zero_matrix_vacuous(self):
        V = full_subgroup(2)
        out = lemma_vm_bound(V, zeros(2, 2))
        assert out.r == 2 and out.bound == V.dim

    def test_worked_example(self):
        # full V of dim 4, M = diag(1, 0): r = 1, bound = 3, and the
        # kernel-lattice intersection has dimension 2 (one torus factor
        # plus one elliptic factor), within the bound
        out = lemma_vm_bound(full_subgroup(2), matrix([[1, 0], [0, 0]]))
        assert (out.r, out.bound) == (1, 3)
        assert out.intersection_dim == 2
        assert out.intersection_dim <= out.bound
        assert out.image_dim == 2

    def test_full_rank_rejected(self):
        with pytest.raises(FullRank):
            lemma_vm_bound(full_subgroup(2), identity(2))

    def test_fibre_dimension_identity(self):
        for i in range(80):
            rng = stream(71, "fibre", i)
            n = rng.randint(1, 4)

            def lat_part():
                k = rng.randint(0, n)
                if k == 0:
                    return zeros(n, 0)
                return matrix([[rng.randint(-4, 4) for _ in range(k)]
                               for _ in range(n)])

            V = SubgroupLattice(n, lat_part(), lat_part())
            M = matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            ker = kernel_lattice(M)
            inter = lattice_intersection_rank(V.mult, ker) + \
                lattice_intersection_rank(V.ell, ker)
            assert V.dim == dim_image(M, V) + inter


class TestPersistentlyLikely:
    def test_trivial_quotient(self):
        diag = matrix([[1], [1]])
        out = persistently_likely(diag, diag, [zeros(2, 0)], 2)
        assert out[0].ok and (out[0].lhs, out[0].rhs) == (2, 2)

    def test_failing_quotient(self):
        e1 = matrix([[1], [0]])
        out = persistently_likely(e1, e1, [e1], 2)
        assert not out[0].ok and (out[0].lhs, out[0].rhs) == (0, 1)

    def test_translation_invariance_is_structural(self):
        # cosets carry no data beyond the subgroup lattice, so quotient
        # dimensions are translation invariant by construction
        L = matrix([[1, 0], [0, 2], [1, 1]])
        T = matrix([[1], [0], [0]])
        assert quotient_dim(L, T) == rank(hstack(L, T)) - rank(T)


class TestAtypical:
    def test_examples(self):
        assert atypical(1, 1, 1, 3) is True
        assert atypical(0, 1, 2, 3) is False
        assert atypical(2, 2, 2, 2) is False

    def test_inconsistent(self):
        with pytest.raises(InconsistentDimensions):
            atypical(3, 1, 2, 4)


class TestRelationSearch:
    def test_planted_pair(self, Q5):
        x = random_unit(stream(73, "plant"), Q5, 60)
        assert relation_search([x, x * 2], 4) == [(2, -1)]

    def test_planted_triple(self, Q5):
        z1 = PadicElement.from_int(Q5, 5, 60)
        z2 = PadicElement.from_int(Q5, 25, 60)
        z3 = z2 * 2 - z1 * 3
        found = relation_search([z1, z2, z3], 10)
        assert (3, -2, 1) in found
        # every reported vector is an exact integer relation here
        assert all(m[0] * 5 + m[1] * 25 + m[2] * 35 == 0 for m in found)

    def test_random_empty(self, Q5):
        zs = [random_unit(stream(79, "none", i), Q5, 60) for i in range(3)]
        assert relation_search(zs, 10) == []

    def test_no_elements_is_no_relation(self):
        assert relation_search([], 3) == []

    def test_false_positive_bound_past_the_float_range_is_inf(self):
        # 9 * 5^398 still fits a float; 5^498 alone does not
        assert relation_false_positive_bound(2, 1, 5, 1, -398) == 9 * 5.0 ** 398
        assert relation_false_positive_bound(2, 1, 5, 1, -498) == math.inf
        assert relation_false_positive_bound(3, 10, 5, 1, 50) == 21.0 ** 3 * 5.0 ** -50

    def test_fields_must_match(self, Q5, Q3):
        # the congruence is solved on coefficient vectors, which are only
        # comparable within one field
        with pytest.raises(FieldMismatch):
            relation_search([PadicElement.one(Q5, 20), PadicElement.one(Q3, 20)], 2)

    def test_guard(self, Q5, monkeypatch):
        monkeypatch.setattr(lattice, "_MAX_CANDIDATES", 10 ** 5)
        zs = [PadicElement.one(Q5, 50)] * 6
        with pytest.raises(SearchSpaceTooLarge):
            relation_search(zs, 20)

    def test_guard_count_is_written_out_while_it_fits(self, Q5):
        # 3^9012 has 4300 digits, the longest decimal Python writes by
        # default; 3^9013 has 4301 and is refused without being formed
        with pytest.raises(SearchSpaceTooLarge) as err:
            relation_search([PadicElement.one(Q5, 50)] * 9012, 1)
        assert str(err.value) == f"{3 ** 9012} candidates at height 1"
        with pytest.raises(SearchSpaceTooLarge, match="^3\\^9013 candidates at height 1$"):
            relation_search([PadicElement.one(Q5, 50)] * 9013, 1)
        height = 10 ** 4000
        with pytest.raises(SearchSpaceTooLarge) as err:
            relation_search([PadicElement.one(Q5, 50)] * 2, height)
        assert str(err.value) == f"{2 * height + 1}^2 candidates at height {height}"


class TestMultDependence:
    def test_planted_square(self, Q5):
        q = PadicElement.from_int(Q5, 25, 60)
        w = random_unit(stream(83, "w"), Q5, 60)
        assert mult_dependence_mod_kernel(q, [w, w * w], 4) == [((2, -1), 0)]

    def test_planted_kernel_factor(self, Q5):
        q = PadicElement.from_int(Q5, 25, 60)
        w = random_unit(stream(89, "w"), Q5, 60)
        assert mult_dependence_mod_kernel(q, [q * w, w], 4) == [((1, -1), 1)]

    def test_random_empty(self, Q5):
        q = PadicElement.from_int(Q5, 25, 60)
        us = [random_unit(stream(97, "u", i), Q5, 60) for i in range(2)]
        assert mult_dependence_mod_kernel(q, us, 5) == []

    def test_odd_powers_miss_the_valuation_of_q(self, Q5):
        # v(5^m) = m is a multiple of v(25) = 2 only for even m
        q = PadicElement.from_int(Q5, 25, 60)
        five = PadicElement.from_int(Q5, 5, 60)
        assert mult_dependence_mod_kernel(q, [five], 3) == [((2,), 1)]


@given(st.lists(st.lists(st.integers(min_value=-50, max_value=50),
                         min_size=3, max_size=3), min_size=2, max_size=5))
@settings(max_examples=100, deadline=None)
def test_smith_identity_hypothesis(rows):
    M = matrix(rows)
    U, D, V = smith_normal_form(M)
    assert mat_mul(mat_mul(U, M), V) == D
    assert abs(determinant(U)) == 1
    assert abs(determinant(V)) == 1
    diag = [D[k][k] for k in range(min(len(M), len(M[0])))]
    assert sum(1 for d in diag if d) == rank_over_Q(M) == rank(M)
    if len(M) == len(M[0]):
        assert abs(determinant(M)) == math.prod(diag)


class TestImageBounds:
    def test_dim_image_bound_seeded(self):
        # dim(M T) <= min(2 rank(M), dim T), with equality at M = identity
        for i in range(60):
            rng = stream(101, "imgb", i)
            n = rng.randint(1, 4)

            def lat_part():
                k = rng.randint(0, n)
                if k == 0:
                    return zeros(n, 0)
                return matrix([[rng.randint(-5, 5) for _ in range(k)]
                               for _ in range(n)])

            T = SubgroupLattice(n, lat_part(), lat_part())
            M = matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            img = dim_image(M, T)
            assert img <= min(2 * rank(M), T.dim)
            assert dim_image(identity(n), T) == T.dim


class TestRelationCompleteness:
    def test_randomly_planted_relations_found(self, Q5):
        # draw a primitive vector m, solve for the last coordinate, search
        for i in range(20):
            rng = stream(103, "complete", i)
            n = rng.randint(2, 3)
            height = 6
            while True:
                m = [rng.randint(-height, height) for _ in range(n)]
                from math import gcd
                g = 0
                for x in m:
                    g = gcd(g, x)
                if g == 1 and m[-1] != 0:
                    break
            zs = [random_unit(stream(103, "complete", i, j), Q5, 60)
                  for j in range(n - 1)]
            partial = zs[0] * m[0]
            for j in range(1, n - 1):
                partial = partial + zs[j] * m[j]
            zs.append(partial * Fraction(-1, m[-1]))
            found = relation_search(zs, height)
            lead = next(x for x in m if x)
            normalized = tuple(m) if lead > 0 else tuple(-x for x in m)
            assert normalized in found


# the three base fields, an eisenstein field over p = 5 and one over p = 2,
# and unramified fields of degree 2 and 3
RELATION_FIELDS = [
    make_field(2),
    make_field(3),
    make_field(5),
    make_field(5, "eisenstein", e=4, c=-1),
    make_field(2, "eisenstein", e=3, c=3),
    make_field(2, "unramified", f=2),
    make_field(3, "unramified", f=3),
]


def _relation_case(i):
    """(z, height, slack) for seeded case i: coordinates at shifts -1..3 and
    abs_prec 4..24, some imprecise zeros (every fourth case one at -2, below
    every other shift), slack from -2 to 10, and in every other case a
    relation planted in the last coordinate."""
    rng = stream(131, "relbox", i)
    field = RELATION_FIELDS[i % len(RELATION_FIELDS)]
    n = rng.randint(1, 4)
    height = rng.randint(0, 5 if n < 4 else 2)
    z = []
    for _ in range(n):
        prec = rng.randint(4, 24)
        if rng.random() < 0.15:
            z.append(PadicElement.zero(field, rng.randint(2, prec)))
        else:
            z.append(random_element(rng, field, prec, -1, 3))
    if i % 4 == 3:
        z[rng.randrange(n)] = PadicElement.zero(field, -2)
    if i % 2 and n > 1 and height:
        m = [rng.randint(-height, height) for _ in range(n - 1)]
        acc = z[0] * m[0]
        for x, k in zip(z[1:], m[1:]):
            acc = acc + x * k
        z[-1] = acc * rng.choice([1, -1])
    return z, height, rng.choice([-2, -1, 0, 1, 3, 10])


class TestRelationSearchMatchesBox:
    """relation_search solves for one coordinate; the box walk kept in
    tests/oracles.py sums every vector.  Same hits, same order."""

    def test_seeded_inputs(self):
        hits = 0
        for i in range(600):
            z, height, slack = _relation_case(i)
            want = relation_search_box(z, height, slack)
            assert relation_search(z, height, slack) == want, i
            hits += len(want)
        assert hits > 1000

    def test_box_of_four_at_height_five(self):
        for i, field in enumerate(RELATION_FIELDS):
            rng = stream(131, "relbox4", i)
            z = [random_element(rng, field, 12, 0, 2) for _ in range(3)]
            z.append(z[0] * 2 - z[1] + z[2] * 3)
            want = relation_search_box(z, 5, 0)
            assert (2, -1, 3, -1) in want
            assert relation_search(z, 5, 0) == want


class TestRelationConfirmations:
    """Each candidate is confirmed by one _sum_terms of the n products
    m_i * z_i; the solved coordinate leaves at most one candidate per vector
    of the other coordinates."""

    @pytest.fixture
    def confirmations(self, count_calls):
        """confirmed(z, height, slack) -> (confirmations, hits) of one search."""
        counted = count_calls((lattice, "_sum_terms"))

        def confirmed(z, height, slack=10):
            calls, hits = counted(lambda: relation_search(z, height, slack))
            return calls["_sum_terms"], len(hits)
        return confirmed

    def test_planted_pair(self, Q5, confirmations):
        x = random_unit(stream(73, "plant"), Q5, 60)
        assert confirmations([x, x * 2], 4) == (1, 1)

    def test_harness_random_empty(self, Q5, confirmations):
        zs = [random_unit(stream(0, "relrand", i), Q5, 60) for i in range(3)]
        assert confirmations(zs, 10) == (0, 0)

    def test_planted_triple(self, Q5, confirmations):
        z1 = PadicElement.from_int(Q5, 5, 60)
        z2 = z1 * z1
        z3 = z2 * 2 - z1 * 3
        assert confirmations([z1, z2, z3], 5) == (7, 7)

    def test_at_most_one_per_other_vector(self, confirmations):
        # elements at prec 40 with shifts 0..3 and slack 10 leave r >= 27, so
        # the modulus p^ceil(r/e) is at least 2^9 (Q2(pi^3=6)), far above 2H
        for i, field in enumerate(RELATION_FIELDS):
            rng = stream(137, "relgate", i)
            for n in (2, 3, 4):
                height = 4 if n < 4 else 2
                z = [random_element(rng, field, 40, 0, 3) for _ in range(n)]
                done, hits = confirmations(z, height)
                assert hits <= done <= (2 * height + 1) ** (n - 1)

import ast
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from int_rows import ref_rref_rows
from spektoy import dense_oracle as do
from spektoy import phase_algebra as pa
from spektoy import subtheory as stt
from spektoy.circuits import ATOL_CONSTRUCT, branch_tree, parse_circuit
from spektoy.errors import (
    CircuitParseError,
    DimensionMismatch,
    GuardExceeded,
    InvalidGenerators,
)


class TestPauliOperators:
    def test_identity(self):
        assert np.allclose(do.pauli([0], [0], 2), np.eye(2))

    def test_zx_is_iy(self):
        assert np.allclose(do.pauli([1], [1], 2), [[0, 1], [-1, 0]])

    def test_qutrit_shift_minus_convention(self):
        v = do.shift_x(1, 3) @ do.basis_state([0], 3)
        assert abs(v[2] - 1) < 1e-12

    def test_product_phase_matches_beta_bookkeeping(self):
        # 500 random label pairs at d in {2, 3}: the product phase of plain
        # Z(p)X(q) operators is chi(q . p') exactly
        rng = np.random.default_rng(0)
        for d in (2, 3):
            for _ in range(250):
                n = int(rng.integers(1, 3))
                q1, p1 = rng.integers(0, d, n), rng.integers(0, d, n)
                q2, p2 = rng.integers(0, d, n), rng.integers(0, d, n)
                lhs = do.pauli(q1, p1, d) @ do.pauli(q2, p2, d)
                phase = do.chi(int(q1 @ p2) % d, d)
                rhs = phase * do.pauli((q1 + q2) % d, (p1 + p2) % d, d)
                assert np.allclose(lhs, rhs, atol=1e-12)


def ref_pauli(q, p, d):
    """The Kronecker chain of the site operators Z(p_j) X(q_j)."""
    out = np.array([[1.0 + 0j]])
    for qj, pj in zip(q, p):
        out = np.kron(out, do.phase_z(pj % d, d) @ do.shift_x(qj % d, d))
    return out


#: the interleaved (q, p) site label of each Pauli letter
REF_LETTER_QP = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}


def signed_gens(*signed):
    """Signed Hermitian words such as '-XX' as (interleaved label, outcome)
    pairs, outcome 1 for a leading '-'."""
    return [(sum((REF_LETTER_QP[c] for c in s[1:]), ()), int(s[0] == "-")) for s in signed]


def ref_word(lam):
    """The Pauli word of a d=2 interleaved label."""
    letter = {qp: c for c, qp in REF_LETTER_QP.items()}
    return "".join(letter[(q, p)] for q, p in zip(lam[0::2], lam[1::2]))


def ref_pauli_op(word):
    """The Kronecker chain of the letter matrices I, X, Y, Z."""
    letters = {
        "I": np.eye(2, dtype=complex),
        "X": np.array([[0, 1], [1, 0]], dtype=complex),
        "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    }
    out = np.array([[1.0 + 0j]])
    for c in word:
        out = np.kron(out, letters[c])
    return out


class TestPauliBuilders:
    @pytest.mark.parametrize("d, n_max", [(2, 3), (3, 2), (5, 1)])
    def test_pauli_matches_kron_chain_for_every_label(self, d, n_max):
        for n in range(n_max + 1):
            for q in itertools.product(range(d), repeat=n):
                for p in itertools.product(range(d), repeat=n):
                    got, ref = do.pauli(q, p, d), ref_pauli(q, p, d)
                    assert got.dtype == ref.dtype and got.shape == ref.shape
                    assert np.array_equal(got, ref), (q, p, d)

    def test_pauli_reduces_unreduced_labels(self):
        assert np.array_equal(do.pauli((4, -1), (-2, 7), 3), ref_pauli((1, 2), (1, 1), 3))

    def test_pauli_op_matches_kron_chain_for_every_word(self):
        for n in range(4):
            for letters in itertools.product("IXYZ", repeat=n):
                word = "".join(letters)
                got, ref = do.pauli_op(word), ref_pauli_op(word)
                assert got.dtype == ref.dtype and got.shape == ref.shape
                assert np.array_equal(got, ref), word

    def test_pauli_guard_and_length_checks_still_raise(self):
        with pytest.raises(GuardExceeded):
            do.pauli((0,) * 7, (0,) * 7, 2)
        with pytest.raises(GuardExceeded):
            do.pauli_op("X" * 7)
        with pytest.raises(DimensionMismatch):
            do.pauli((0, 1), (0,), 2)
        with pytest.raises(DimensionMismatch):
            do.pauli((0,), (0,), 4)

    @pytest.mark.parametrize("word", ["XQ", "xz", "X Z", "-X"])
    def test_pauli_op_rejects_bad_letters(self, word):
        with pytest.raises(CircuitParseError, match="bad Pauli letter"):
            do.pauli_op(word)


class TestNamedGates:
    def test_h_squares_to_identity(self):
        H = do.gate("H", (0,), 1)
        assert np.allclose(H @ H, np.eye(2), atol=1e-12)

    def test_t_squared_is_s_and_s_squared_is_z(self):
        T = do.gate("T", (0,), 1)
        S = do.gate("S", (0,), 1)
        assert np.allclose(T @ T, S, atol=1e-12)
        assert np.allclose(S @ S, do.gate("Z", (0,), 1), atol=1e-12)

    def test_cz_conjugation_of_ix(self):
        cz = do.gate("CZ", (0, 1), 2)
        lhs = cz @ do.gate("X", (1,), 2) @ cz
        Z = do.gate("Z", (0,), 1)
        X = do.gate("X", (0,), 1)
        assert np.allclose(lhs, np.kron(Z, X), atol=1e-12)

    def test_all_named_gates_unitary(self):
        for d, names in ((2, ["X", "Y", "Z", "H", "S", "T"]), (3, ["X", "Z", "F", "P"])):
            for name in names:
                U = do.gate(name, (0,), 1, d)
                assert np.allclose(U.conj().T @ U, np.eye(d), atol=1e-12)
        for name in ("CNOT", "CZ", "SWAP"):
            U = do.gate(name, (0, 1), 2)
            assert np.allclose(U.conj().T @ U, np.eye(4), atol=1e-12)

    def test_cz_ccz_diagonal(self):
        for name, nw in (("CZ", 2), ("CCZ", 3)):
            U = do.gate(name, tuple(range(nw)), nw)
            assert np.allclose(U, np.diag(np.diag(U)))

    def test_clifford_conjugation_returns_signed_pauli_exhaustive(self):
        # every named Clifford gate maps every Hermitian Pauli string to a
        # signed Pauli string, exhaustively at n <= 3: the candidate s P
        # with the largest overlap |tr(P M)| / 2^n must equal the image M
        paulis = {
            n: np.stack([
                ref_pauli_op("".join(word)) for word in itertools.product("IXYZ", repeat=n)
            ])
            for n in (1, 2, 3)
        }
        cliffords = [("H", 1), ("S", 1), ("X", 1), ("Y", 1), ("Z", 1),
                     ("CNOT", 2), ("CZ", 2), ("SWAP", 2)]
        for name, arity in cliffords:
            for n in range(arity, 4):
                for wires in itertools.permutations(range(n), arity):
                    U = do.gate(name, wires, n)
                    for P in paulis[n]:
                        M = U @ P @ U.conj().T
                        overlaps = np.einsum("kij,ji->k", paulis[n], M) / 2**n
                        best = int(np.argmax(np.abs(overlaps)))
                        s = np.sign(overlaps[best].real)
                        assert np.allclose(M, s * paulis[n][best], rtol=0, atol=1e-10)

    def test_embed_against_kron(self):
        A = do.gate("H", (0,), 1)
        B = do.gate("S", (0,), 1)
        assert np.allclose(
            do.embed(np.kron(A, B), (0, 1), 2), np.kron(A, B), atol=1e-12
        )
        assert np.allclose(
            do.embed(np.kron(A, B), (1, 0), 2),
            np.kron(B, A),
            atol=1e-12,
        )
        assert np.allclose(
            do.embed(A, (1,), 3), np.kron(np.eye(2), np.kron(A, np.eye(2)))
        )

    def test_scale_guard(self):
        with pytest.raises(GuardExceeded):
            do.gate("X", (0,), 7, 2)
        with pytest.raises(GuardExceeded):
            do.gate("X", (0,), 5, 3)


#: named Cliffords on two qubits, the alphabet of the random words below
CLIFFORDS_2 = [("H", (0,)), ("H", (1,)), ("S", (0,)), ("S", (1,)), ("X", (1,)),
               ("Y", (0,)), ("Z", (1,)), ("CNOT", (0, 1)), ("CNOT", (1, 0)),
               ("CZ", (0, 1)), ("SWAP", (0, 1))]


def random_clifford_word(rng, n, length):
    U = np.eye(2**n, dtype=complex)
    for _ in range(length):
        name, wires = CLIFFORDS_2[int(rng.integers(len(CLIFFORDS_2)))]
        if max(wires) < n:
            U = U @ do.gate(name, wires, n)
    return U


class TestPauliAction:
    def test_words_are_lex_ordered_and_read_only(self):
        words, ops = do.pauli_words(2)
        assert words == tuple(map("".join, itertools.product("IXYZ", repeat=2)))
        assert ops.shape == (16, 4, 4) and not ops.flags.writeable
        for w, op in zip(words, ops):
            assert np.array_equal(op, do.pauli_op(w))
        assert do.pauli_words(2)[1] is ops

    def test_word_guard_fires_before_building(self, monkeypatch):
        def unreachable(word):
            raise AssertionError("Pauli operator built past the guard")

        monkeypatch.setattr(do, "pauli_op", unreachable)
        with pytest.raises(GuardExceeded, match="Pauli stack has 16777216 > 1048576 entries"):
            do.pauli_words(6)

    @pytest.mark.parametrize("n", [1, 2])
    def test_action_of_a_product_is_the_product_of_actions(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            U = random_clifford_word(rng, n, int(rng.integers(1, 8)))
            V = random_clifford_word(rng, n, int(rng.integers(1, 8)))
            KU, KV = do.pauli_action(U), do.pauli_action(V)
            assert np.array_equal(do.pauli_action(U @ V), KU @ KV)
            # global phase drops out; the action is a signed permutation
            assert np.array_equal(do.pauli_action(1j * U), KU)
            assert np.array_equal(np.abs(KU).sum(axis=0), np.ones(4**n))
            assert np.array_equal(np.abs(KU).sum(axis=1), np.ones(4**n))

    def test_action_matches_the_dense_conjugation(self):
        words, ops = do.pauli_words(2)
        U = random_clifford_word(np.random.default_rng(5), 2, 12)
        K = do.pauli_action(U)
        for w, op in zip(words, ops):
            s, v = do.pauli_image(K, w)
            assert np.allclose(U @ op @ U.conj().T, s * do.pauli_op(v), rtol=0, atol=1e-12)

    def test_named_images(self):
        cz = do.pauli_action(do.gate("CZ", (0, 1), 2))
        assert [do.pauli_image(cz, w) for w in ("XI", "IX", "XX", "ZZ")] == [
            (1, "XZ"), (1, "ZX"), (1, "YY"), (1, "ZZ")]
        s = do.pauli_action(do.gate("S", (0,), 1))
        assert [do.pauli_image(s, w) for w in "IXYZ"] == [(1, "I"), (1, "Y"), (-1, "X"), (1, "Z")]
        assert np.array_equal(do.pauli_action(np.eye(8)), np.eye(64, dtype=np.int64))

    @pytest.mark.parametrize("name,n", [("T", 1), ("CCZ", 3)])
    def test_non_clifford_is_refused(self, name, n):
        with pytest.raises(InvalidGenerators):
            do.pauli_action(do.gate(name, tuple(range(n)), n))


def ref_stabilizer_state(generators, d, n):
    """The one-state construction the per-Lagrangian one replaced: every check
    per call, commutation on each pair of the given outcome projectors."""
    gens = [(tuple(int(x) % d for x in lam), int(k) % d) for lam, k in generators]
    projs = [do.label_projectors(lam, d)[k] for lam, k in gens]
    dim = d**n
    for i in range(len(projs)):
        for j in range(i + 1, len(projs)):
            a, b = projs[i], projs[j]
            if not np.allclose(a @ b, b @ a, rtol=0, atol=ATOL_CONSTRUCT * dim):
                raise InvalidGenerators("generators do not commute")
    rows = [list(lam) for lam, _ in gens]
    if rows and len(ref_rref_rows(rows, 2 * n, d)[0]) != len(rows):
        raise InvalidGenerators("dependent generator set")
    rho = np.eye(dim, dtype=complex)
    for proj in projs:
        rho = rho @ proj
    tr = float(np.trace(rho).real)
    if abs(tr - dim / d ** len(projs)) > ATOL_CONSTRUCT * dim:
        raise InvalidGenerators(f"inconsistent generator signs (trace {tr})")
    if len(projs) < n:
        raise InvalidGenerators("generator string under-determines the state; add generators")
    vals, vecs = np.linalg.eigh((rho + rho.conj().T) / 2)
    if abs(vals[-1] - 1.0) > 1e-9:
        raise InvalidGenerators("projector is not rank one")
    return do.canonical_phase(vecs[:, -1])


def ref_commutes(labels, ks, d, n):
    """The dense rule stabilizer_states held before the label check: the
    outcome projectors at ks commute pairwise, at ATOL_CONSTRUCT * dim."""
    P = np.array([do.label_projectors(lam, d)[k] for lam, k in zip(labels, ks)])
    return bool(np.abs(P[:, None] @ P - P @ P[:, None]).max() <= ATOL_CONSTRUCT * d**n)


class TestStabilizerStates:
    @pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (3, 1), (5, 1)])
    def test_label_commutation_is_the_dense_rule(self, d, n):
        # on every label pair and outcome pair: [a, b] = 0 mod d exactly
        # when the dense projectors commute, and stabilizer_state refuses
        # the pair as anticommuting exactly when they do not
        for a, b in itertools.product(pa.all_points(d, n), repeat=2):
            commute = pa.symplectic_product(a, b, d) == 0
            for ks in itertools.product(range(d), repeat=2):
                assert ref_commutes([a, b], ks, d, n) == commute
            try:
                do.stabilizer_state([(a, 0), (b, 0)], d=d, n=n)
                refused = False
            except InvalidGenerators as e:
                refused = "do not commute" in str(e)
            assert refused == (not commute)

    def test_plus_z_gives_ground_state(self):
        assert np.allclose(do.stabilizer_state(signed_gens("+Z")), [1, 0])

    def test_bell_pair(self):
        state = do.stabilizer_state(signed_gens("+XX", "+ZZ"))
        assert np.allclose(state, np.array([1, 0, 0, 1]) / math.sqrt(2))

    def test_signed_bell_pair(self):
        state = do.stabilizer_state(signed_gens("-XX", "+ZZ"))
        assert np.allclose(state, np.array([1, 0, 0, -1]) / math.sqrt(2))

    @pytest.mark.parametrize("generators,d,n", [
        (signed_gens("+ZI"), 2, 2), (signed_gens("+ZII", "+IZI"), 2, 3), ([], 2, 1),
        ([((0, 1, 0, 2), 0)], 3, 2),
    ])
    def test_under_determined_is_refused(self, generators, d, n):
        # a set that pins no single state is refused; no projector is returned
        with pytest.raises(InvalidGenerators, match="under-determines the state"):
            do.stabilizer_state(generators, d=d, n=n)

    def test_anticommuting_rejected(self):
        with pytest.raises(InvalidGenerators):
            do.stabilizer_state(signed_gens("+X", "+Z"))

    def test_dependent_rejected(self):
        with pytest.raises(InvalidGenerators):
            do.stabilizer_state(signed_gens("+XX", "+ZZ", "-YY"))

    @pytest.mark.parametrize("generators,d,n,message", [
        (signed_gens("+XI", "+ZZ"), 2, 2, "do not commute"),
        ([((1, 0), 0), ((0, 1), 0)], 3, 1, "do not commute"),
        # XX ZZ = -YY: +YY contradicts +XX, +ZZ; the rank check sees it first
        (signed_gens("+XX", "+ZZ", "+YY"), 2, 2, "dependent"),
        ([((1, 0, 1, 0), 0), ((2, 0, 2, 0), 1)], 3, 2, "dependent"),
        (signed_gens("+ZI"), 2, 2, "under-determines the state"),
        ([((0, 1, 0, 2), 0)], 3, 2, "under-determines the state"),
    ])
    def test_invalid_sets_rejected_by_both_calls(self, generators, d, n, message, monkeypatch):
        with pytest.raises(InvalidGenerators, match=message):
            do.stabilizer_state(generators, d=d, n=n)
        # the rejection is exact label arithmetic at the entry: it comes
        # before the builder, and before any projector is built
        def unreached(*args):
            raise AssertionError("an invalid set reached the dense builder")

        monkeypatch.setattr(do, "stabilizer_states", unreached)
        monkeypatch.setattr(do, "label_projectors", unreached)
        with pytest.raises(InvalidGenerators, match=message):
            do.stabilizer_state(generators, d=d, n=n)

    def test_inconsistent_signs_rejected(self, monkeypatch):
        # commuting independent Weyl labels admit every outcome tuple, so the
        # builder's trace check is a backstop: projectors with an empty
        # product (X's label handed Z's projectors, outcome 1 against Z's
        # outcome 0) trip it
        real = do.label_projectors
        monkeypatch.setattr(
            do, "label_projectors", lambda lam, d: real((0, 1) if tuple(lam) == (1, 0) else lam, d)
        )
        with pytest.raises(InvalidGenerators, match="inconsistent generator signs"):
            do.stabilizer_states([(1, 0), (0, 1)], [(1, 0)], 2, 1)

    @pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)])
    def test_per_lagrangian_states_equal_the_one_state_call(self, d, n):
        # bit for bit, against stabilizer_state and the per-state reference
        outcomes = list(itertools.product(range(d), repeat=n))
        for M in pa.maximal_isotropic_subspaces(d, n):
            states = do.stabilizer_states(M.gens, outcomes, d, n)
            assert len(states) == d**n
            for ks, psi in zip(outcomes, states):
                gens = list(zip(M.gens, ks))
                assert np.array_equal(psi, do.stabilizer_state(gens, d=d, n=n))
                assert np.array_equal(psi, ref_stabilizer_state(gens, d, n))

    def test_every_census_state_is_its_generators_joint_eigenstate(self):
        # the census builds each state from interleaved-point pairs; the
        # state is a +1 eigenvector of each generator's outcome projector,
        # rebuilt here from the reference Kronecker chains
        for d, n in ((2, 1), (2, 2), (3, 1)):
            for M in pa.maximal_isotropic_subspaces(d, n):
                for ks in itertools.product(range(d), repeat=M.dim):
                    psi = do.stabilizer_state(list(zip(M.gens, ks)), d=d, n=n)
                    assert psi.shape == (d**n,)
                    for lam, k in zip(M.gens, ks):
                        if d == 2:
                            op, eigenvalue = ref_pauli_op(ref_word(lam)), (-1) ** k
                        else:
                            op, eigenvalue = ref_pauli(lam[0::2], lam[1::2], d), do.chi(k, d)
                        assert np.allclose(op @ psi, eigenvalue * psi, atol=1e-10)

    @pytest.mark.parametrize(
        "generators,n",
        [([((1, 0), 0), ((0, 0, 1, 0), 0)], None), ([((1, 0, 0, 0), 0)], 1)],
    )
    def test_label_width_mismatch_rejected_before_projectors(self, generators, n, monkeypatch):
        def unreachable(*args):
            raise AssertionError("projector built before the width check")

        monkeypatch.setattr(do, "label_projectors", unreachable)
        with pytest.raises(InvalidGenerators, match="sites"):
            do.stabilizer_state(generators, n=n)

    def test_census_counts(self):
        assert len(stt.all_stabilizer_states(2, 1)) == 6
        assert len(stt.all_stabilizer_states(2, 2)) == 60
        assert len(stt.all_stabilizer_states(3, 1)) == 12

    def test_census_distinct_up_to_phase(self):
        states = stt.all_stabilizer_states(2, 2)
        for i, a in enumerate(states):
            for b in states[i + 1 :]:
                assert not do.states_equal(a, b)


class TestLabelProjectors:
    @pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_outcome_rule_on_every_label(self, d, n):
        # the label's operator is rebuilt from its letters (d=2, Hermitian
        # form) or its bare Weyl form (odd d) by the reference Kronecker
        # chains, not through label_projectors
        dim = d**n
        for lam in itertools.product(range(d), repeat=2 * n):
            op = ref_pauli_op(ref_word(lam)) if d == 2 else ref_pauli(lam[0::2], lam[1::2], d)
            projs = do.label_projectors(lam, d)
            assert len(projs) == d
            assert np.allclose(sum(projs), np.eye(dim), atol=1e-12)
            for k, P in enumerate(projs):
                assert np.allclose(P, P.conj().T, atol=1e-12)
                assert np.allclose(P @ P, P, atol=1e-12)
                eigenvalue = (-1) ** k if d == 2 else do.chi(k, d)
                assert np.allclose(op @ P, eigenvalue * P, atol=1e-12)
                if any(lam):
                    assert abs(np.trace(P) - dim / d) < 1e-9


def ref_label_projectors(lam, d):
    """The per-call builder the cached label_projectors replaced: a list of
    d fresh (d^n, d^n) projectors."""
    lam = tuple(int(x) % d for x in lam)
    if d == 2:
        herm = do._hermitian(lam)
        eye = np.eye(herm.shape[0])
        return [(eye + herm) / 2, (eye - herm) / 2]
    return do.weyl_char_projectors(do.pauli(lam[0::2], lam[1::2], d), d)


class TestLabelProjectorCache:
    @pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1)])
    def test_equals_the_per_call_builder(self, d, n):
        for lam in itertools.product(range(d), repeat=2 * n):
            projs = do.label_projectors(lam, d)
            assert projs.shape == (d, d**n, d**n)
            assert np.array_equal(projs, ref_label_projectors(lam, d))
            with pytest.raises(ValueError):
                projs[0, 0, 0] = 0

    def test_one_object_per_reduced_label(self):
        projs = do.label_projectors((1, 0, 2, 1), 3)
        for form in ([1, 0, 2, 1], np.array([1, 0, 2, 1]), (4, -3, 2, 7), np.array([-2, 3, 5, 1])):
            assert do.label_projectors(form, 3) is projs
        assert do.label_projectors((1, 0, 2, 1), 5) is not projs

    @pytest.mark.parametrize("d,n", [(2, 2), (3, 1)])
    def test_census_equals_the_reference_built_one(self, d, n, monkeypatch):
        census = stt.all_stabilizer_states(d, n)
        monkeypatch.setattr(do, "label_projectors", ref_label_projectors)
        ref = stt._census(d, n)
        assert len(census) == len(ref)
        assert all(np.array_equal(a, b) for a, b in zip(census, ref))


class TestLabelNames:
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_basis_label_inverts_label_name_at_d2(self, n):
        for lam in itertools.product((0, 1), repeat=2 * n):
            name = do.label_name(lam, 2)
            assert name == ref_word(lam)
            assert do.basis_label(name, range(n), n) == lam

    @pytest.mark.parametrize("lam,d,name", [
        ((2, 1, 0, 0), 3, "X2Z.I"),
        ((1, 2, 0, 0, 0, 1), 3, "XZ2.I.Z"),
        ((0, 0, 1, 0), 3, "I.X"),
        ((4, 3, 0, 1), 5, "X4Z3.Z"),
        ((5, -1, 1, 1), 3, "X2Z2.XZ"),
        ((3, -1), 2, "Y"),
    ])
    def test_pinned_names(self, lam, d, name):
        # labels are read mod d before they are named
        assert do.label_name(lam, d) == name


class TestRunCircuit:
    def test_empty_circuit(self):
        c = parse_circuit("")
        branches = do.run_circuit(c, do.basis_state([0]))
        assert len(branches) == 1 and abs(branches[0].prob - 1) < 1e-12

    def test_prepare_plus_measure_z(self):
        c = parse_circuit("GATE H 0\nMEAS Z 0 -> m\n")
        branches = do.run_circuit(c)
        assert len(branches) == 2
        assert all(abs(b.prob - 0.5) < 1e-12 for b in branches)

    def test_injection_gadget_for_s_gate(self):
        # resource S|+> on wire 1, input |+> on wire 0; both branches give
        # S|+> on the resource wire up to phase
        c = parse_circuit(
            "GATE CNOT 1 0\n"
            "MEAS Z 0 -> m\n"
            "CORR X 1 IF m\n"
            "CORR Z 1 IF m\n"
        )
        splus = do.parse_state_spec("S|+>")
        branches = do.run_circuit(c, np.kron(do.plus_state(1), splus))
        assert len(branches) == 2
        for b in branches:
            out = b.state.reshape(2, 2)[b.outcomes["m"]]
            assert do.states_equal(out, splus)

    def test_branch_probabilities_sum_to_one_random(self):
        rng = np.random.default_rng(7)
        gates = ["H", "S", "X", "Z"]
        for _ in range(200):
            n = int(rng.integers(1, 4))
            lines = []
            nmeas = 0
            for _ in range(int(rng.integers(1, 6))):
                if rng.random() < 0.5:
                    lines.append(f"GATE {gates[rng.integers(0, 4)]} {rng.integers(0, n)}")
                else:
                    lines.append(f"MEAS Z {rng.integers(0, n)} -> m{nmeas}")
                    nmeas += 1
            c = parse_circuit("\n".join(lines), n_wires=n)
            branches = do.run_circuit(c, do.plus_state(n))
            assert abs(sum(b.prob for b in branches) - 1.0) < 1e-9

    def test_classical_control_powers_mod3(self):
        c = parse_circuit("MEAS Z 0 -> m\nCORR X 0 IF 2*m\n")
        branches = do.run_circuit(c, do.basis_state([1], 3), d=3)
        # outcome m=1 deterministic (Z-measurement residue), X applied twice
        assert len(branches) == 1
        b = branches[0]
        assert b.outcomes["m"] == 1
        # X(1)^2 |1> = |1-2> = |2>
        assert do.states_equal(b.state, do.basis_state([2], 3))

    def test_correction_compiled_once_per_step(self, monkeypatch):
        # two CORR steps on a level of four branches (X readings of |00>)
        c = parse_circuit("MEAS X 0 -> a\nMEAS X 1 -> b\nCORR Z 0 IF a + b\nCORR X 1 IF a*b\n")
        parses = []
        real_parse = ast.parse
        monkeypatch.setattr(ast, "parse", lambda *a, **k: parses.append(a) or real_parse(*a, **k))
        branches = do.run_circuit(c)
        assert len(branches) == 4 and len(parses) == 2

    def test_correction_with_an_unbound_variable_raises(self):
        step = do._correct_step(do.gate("Z", (0,), 1), "a + c", ["a", "b"], 2)
        with pytest.raises(CircuitParseError, match="unbound"):
            step([(0, 1)], do.basis_state([0])[None])


def ref_readout_kraus(site, basis, n):
    """A destructive readout of qubit site of n as a rectangular (2,
    2^(n-1), 2^n) stack: I (x) <k| (x) I, <k| the k-th bra of the Z or X
    basis, a row of I or of H."""
    bras = np.eye(2) if basis == "Z" else do.gate("H", (0,), 1)
    return np.stack([np.kron(np.kron(np.eye(2**site), bra[None]), np.eye(2 ** (n - 1 - site)))
                     for bra in bras])


class TestWalkerSteps:
    def test_incomplete_measurement_trips_sum_check(self):
        p0 = do.label_projectors((0, 1), 2)[0]
        with pytest.raises(AssertionError, match="sum to"):
            branch_tree(do.plus_state(1)[None], [do.measure_step([p0])])

    def test_readout_removes_the_site(self):
        # |0>|+> read in X on site 1 leaves |0> with outcome 0 for certain
        branches = branch_tree(
            np.kron(do.basis_state([0]), do.plus_state(1))[None],
            [do.measure_step(ref_readout_kraus(1, "X", 2))],
        )
        assert len(branches) == 1
        outcomes, prob, state = branches[0]
        assert outcomes == (0,) and abs(prob - 1) < 1e-12
        assert np.allclose(state, do.basis_state([0]))

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
        st.lists(st.sampled_from(["gate", "measure", "readout"]), max_size=6),
    )
    def test_random_dense_steps_sum_to_one_deterministically(self, n, seed, kinds):
        rng = np.random.default_rng(seed)
        state = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        state /= np.linalg.norm(state)
        steps = []
        for kind in kinds:
            if kind == "gate":
                z = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
                steps.append(do.gate_step(np.linalg.qr(z)[0]))
            elif kind == "measure":
                basis = "".join(rng.choice(list("IXYZ"), size=n))
                steps.append(do.measure_step(
                    do.label_projectors(do.basis_label(basis, range(n), n), 2)))
            elif n > 1:
                site, basis = int(rng.integers(0, n)), "ZX"[rng.integers(0, 2)]
                steps.append(do.measure_step(ref_readout_kraus(site, basis, n)))
                n -= 1
        first = branch_tree(state[None], steps)
        second = branch_tree(state[None], steps)
        assert abs(sum(p for _, p, _ in first) - 1.0) < 1e-9
        assert len(first) == len(second)
        for (o1, p1, s1), (o2, p2, s2) in zip(first, second):
            assert o1 == o2 and p1 == p2 and np.array_equal(s1, s2)
            assert s1.shape == (2**n,) and abs(np.linalg.norm(s1) - 1) < 1e-9


class TestStateSpecLanguage:
    def test_ket_literals(self):
        assert np.allclose(do.parse_state_spec("0"), [1, 0])
        assert np.allclose(do.parse_state_spec("+"), do.plus_state(1))
        assert np.allclose(do.parse_state_spec("-"), [1 / math.sqrt(2), -1 / math.sqrt(2)])
        assert np.allclose(do.parse_state_spec("01"), do.basis_state([0, 1]))

    def test_gate_applied_kets(self):
        tplus = do.parse_state_spec("T|+>")
        assert do.states_equal(tplus, do.gate("T", (0,), 1) @ do.plus_state(1))
        czpp = do.parse_state_spec("CZ|++>")
        assert do.states_equal(czpp, do.gate("CZ", (0, 1), 2) @ do.plus_state(2))

    def test_generator_strings(self):
        assert do.states_equal(
            do.parse_state_spec("+XX,+ZZ"), do.stabilizer_state(signed_gens("+XX", "+ZZ"))
        )

    def test_qutrit_generator_strings(self):
        psi = do.parse_state_spec("+Z", d=3)
        assert do.states_equal(psi, do.basis_state([0], 3))
        bell3 = do.parse_state_spec("X1X1,Z1Z2", d=3)
        expect = np.zeros(9, dtype=complex)
        expect[[0, 4, 8]] = 1 / math.sqrt(3)
        assert do.states_equal(bell3, expect)

    @pytest.mark.parametrize("d", [-3, 0, 1, 4, 9])
    def test_unsupported_d_is_refused_before_any_arithmetic(self, d):
        for spec in ("0", "+", "+X", "X1Z1", "T|+>"):
            with pytest.raises(DimensionMismatch, match=f"d={d} unsupported"):
                do.parse_state_spec(spec, d=d)

    def test_every_form_must_fit_n(self):
        for spec in ("T|+>", "+XX,+ZZ", "01"):
            with pytest.raises(CircuitParseError, match="state spec is not on 3 wires"):
                do.parse_state_spec(spec, n=3)

"""Resource-state injection of diagonal gates, with branch-exhaustive
verification and circuit-element audits.

The gadget for a diagonal n-qubit U: consume the resource U|+>^n, couple it
to the input with n transversal CNOTs (resource wire controls, input wire
targets), measure Z on every input wire, and fix the resource register with
U X^m U* keyed by the outcome bits m.  Every branch then holds U|input> on
the resource register.  Every part is fixed, so the gadget is one Kraus
map, K_m = C_m R_m CNOTs (I (x) resource): each scheme builds that stack
once, and the walker runs the gadget as one step.

Each outcome's correction is classified as Pauli / Pauli times CZ / other,
so the audit can tell host-native corrections from ones that need a
previously injected gate (tier 2) or fall outside the Clifford group
entirely.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from . import dense_oracle as do
from . import subtheory as stt
from .circuits import ATOL_CONSTRUCT, ATOL_END2END, Step, branch_tree
from .errors import DimensionMismatch


@functools.lru_cache(maxsize=None)
def cnot(wires: tuple[int, int], n: int) -> np.ndarray:
    """CNOT on (control, target) of n qubits, embedded once and read-only."""
    U = do.gate("CNOT", wires, n, 2)
    U.setflags(write=False)
    return U


# ---------------------------------------------------------------------------
# correction classification

@dataclass(frozen=True)
class Correction:
    operator: np.ndarray = field(repr=False)
    kind: str  # "pauli" | "pauli-cz" | "non-clifford"
    name: str
    factors: tuple[tuple[str, tuple[int, ...]], ...]  # primitive gate sequence


def classify_correction(C: np.ndarray, n: int) -> Correction:
    """Match C (up to global phase) against Pauli times a CZ product.

    Z(p)X(q) CZ_E maps |x> to (-1)^{E(x) + p.(x+q)} |x+q>, so the shift q
    is the row of column 0's largest entry, and f(x) = C[x+q, x] / C[q, 0]
    = (-1)^{E(x) + p.x} gives p_i = [f(e_i) < 0] and the edge (i, j)
    exactly when f(e_i + e_j) f(e_i) f(e_j) = -1.  The one candidate this
    reads off is then checked against C; if it fails, no Pauli times CZ
    product matches and C is non-Clifford.
    """
    dim = 2**n
    bit = [1 << (n - 1 - w) for w in range(n)]  # wire 0 is the top bit
    top = int(np.argmax(np.abs(C[:, 0])))
    q = tuple(int(bool(top & b)) for b in bit)

    def f(x: int) -> complex:
        return C[x ^ top, x] / C[top, 0]

    p = tuple(int(f(b).real < 0) for b in bit)
    edges = tuple(
        (i, j)
        for i, j in itertools.combinations(range(n), 2)
        if (f(bit[i] | bit[j]) * f(bit[i]) * f(bit[j])).real < 0
    )
    czprod = np.eye(dim, dtype=complex)
    for e in edges:
        czprod = czprod @ do.gate("CZ", e, n, 2)
    cand = do.pauli(q, p, 2) @ czprod
    if not abs(np.vdot(cand.reshape(-1), C.reshape(-1))) / dim > 1 - ATOL_END2END:
        return Correction(C, "non-clifford", "non-clifford", ())
    factors = []
    for w in range(n):
        if q[w]:
            factors.append(("X", (w,)))
        if p[w]:
            factors.append(("Z", (w,)))
    factors.extend(("CZ", e) for e in edges)
    name = do.label_name(sum(zip(q, p), ()), 2) + "".join(f"*CZ({i},{j})" for i, j in edges)
    return Correction(C, "pauli-cz" if edges else "pauli", name, tuple(factors))


@functools.cache
def _outcome_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """The 2^n outcome bit tuples of n readouts in product order."""
    return tuple(itertools.product((0, 1), repeat=n))


@dataclass(frozen=True)
class InjectionScheme:
    gate_name: str
    n: int
    target: np.ndarray = field(repr=False)
    resource_state: np.ndarray = field(repr=False)
    corrections: Mapping = field(repr=False)  # outcome bits -> Correction, read-only

    @functools.cached_property
    def kraus(self) -> np.ndarray:
        """The gadget's Kraus stack, built on first use and read-only:
        K_m = C_m R_{m_{n-1}} ... R_{m_0} CNOTs (I (x) |resource>), one
        (2^n, 2^n) operator per outcome bits m in product order.

        The resource is appended at the tail, resource wire n+j controls a
        CNOT onto data wire j, and the Z readouts R of data wires 0..n-1
        keep row block m of the coupled register, which leaves the resource
        register.  C_m is the correction operator; the trivial one is not
        multiplied in."""
        n, dim = self.n, 2**self.n
        coupled = do.append_isometry(dim, self.resource_state)
        for j in range(n):
            coupled = cnot((n + j, j), 2 * n) @ coupled
        stack = coupled.reshape(dim, dim, dim)
        for i, m in enumerate(itertools.product((0, 1), repeat=n)):
            corr = self.corrections[m]
            if corr.kind != "pauli" or corr.factors:
                stack[i] = corr.operator @ stack[i]
        stack.setflags(write=False)
        return stack


def build_injection(U: np.ndarray, n: int, name: str = "U") -> InjectionScheme:
    """Precompute the scheme for a diagonal U: resource state and the full
    2^n correction table."""
    dim = 2**n
    if U.shape != (dim, dim):
        raise DimensionMismatch(f"gate shape {U.shape} != ({dim}, {dim})")
    if not np.allclose(U, np.diag(np.diag(U)), rtol=0, atol=ATOL_CONSTRUCT):
        raise DimensionMismatch("state injection needs a diagonal gate")
    resource = U @ do.plus_state(n)
    corrections = {}
    for m in itertools.product((0, 1), repeat=n):
        Xm = np.eye(dim, dtype=complex)
        for j, mj in enumerate(m):
            if mj:
                Xm = Xm @ do.gate("X", (j,), n, 2)
        corrections[m] = classify_correction(U @ Xm @ U.conj().T, n)
    return InjectionScheme(name, n, U, resource, MappingProxyType(corrections))


@functools.cache
def scheme_for(gate_name: str) -> InjectionScheme:
    """The injection scheme of a named gate, built once per process; its
    arrays and correction table are read-only, since every caller shares
    them."""
    gate_name = gate_name.upper()
    arity = do.gate_arity(gate_name, 2)
    U = do.gate(gate_name, tuple(range(arity)), arity, 2)
    scheme = build_injection(U, arity, gate_name)
    operators = [c.operator for c in scheme.corrections.values()]
    for array in (U, scheme.resource_state, *operators):
        array.setflags(write=False)
    return scheme


# ---------------------------------------------------------------------------
# branch bookkeeping

@dataclass
class InjectionRecord:
    outcomes: tuple[int, ...]
    probability: float
    correction: str
    final_state: np.ndarray
    fidelity: float


@dataclass
class AuditTrail:
    """Counter of circuit elements plus the tier-2 and off-host ones.

    host defaults to the two-rebit minimal subtheory, the smallest with
    CNOT; the minimality probe passes reduced hosts to show which
    capability each element carries.
    """

    elements: Counter = field(default_factory=Counter)
    tier2: Counter = field(default_factory=Counter)
    violations: list = field(default_factory=list)
    host: stt.Subtheory = field(default_factory=lambda: stt.minimal_rebit_subtheory(2))

    def use_gate(self, name: str, injected: frozenset = frozenset(), count: int = 1):
        name = name.upper()
        if name == "SWAP":  # three alternating CNOTs
            self.use_gate("CNOT", injected, 3 * count)
            return
        self.elements[name] += count
        if name in self.host.allowed_gate_names:
            return
        if name in injected:
            self.tier2[name] += count
        else:
            self.violations += [name] * count

    def use_measurement(self, basis: str):
        key = f"MEAS {basis.upper()}"
        self.elements[key] += 1
        if do.basis_label(basis, (0,), self.host.n) not in self.host.observables:
            self.violations.append(key)

    def use_resource(self, name: str):
        self.elements[f"RESOURCE {name}"] += 1

    def report(self) -> dict:
        return {
            "elements": dict(sorted(self.elements.items())),
            "tier2_gates": dict(sorted(self.tier2.items())),
            "violations": sorted(set(self.violations)),
            "clean": not self.violations,
        }


def _gadget(scheme: InjectionScheme, audit: AuditTrail, injected: frozenset) -> Step:
    """Walker step of the gadget on a register of exactly scheme.n data
    wires: one product with the scheme's Kraus stack maps each branch to
    its 2^n children, each with its tuple of n readout bits, and leaves the
    resource register, which holds the gate's output.

    Every joint outcome has probability exactly 2^-n, because the
    resource's amplitudes all have modulus 2^(-n/2).  So the walker's prune
    never drops one, and pruning the joint outcome gives the same tree as
    pruning each readout.  Every branch thus meets every correction: the
    audit counts each correction's factors, and a non-Clifford one as a
    violation, once per outcome and step, times the branches.
    """
    n = scheme.n
    audit.use_resource(f"{scheme.gate_name}|+>^{n}")
    audit.use_gate("CNOT", count=n)
    for _ in range(n):
        audit.use_measurement("Z")
    measure, rows = do.measure_step(scheme.kraus), _outcome_rows(n)

    def step(outcomes, level):
        b = len(level)
        for corr in scheme.corrections.values() if b else ():
            if corr.kind == "non-clifford":
                # still verifiable densely; flagged in the audit
                audit.violations += [f"non-clifford correction ({corr.name})"] * b
            for name, _ in corr.factors:
                audit.use_gate(name, injected, b)
        _, pks, children = measure(outcomes, level)
        return rows * b, pks, children

    return step


def run_injection(
    scheme: InjectionScheme,
    input_state: np.ndarray,
    injected: frozenset = frozenset(),
    audit: AuditTrail | None = None,
) -> list[InjectionRecord]:
    """Exhaustive branch tree of one injection; every record's final state
    lives on the resource register and is compared against target@input."""
    if input_state.shape[0] != 2**scheme.n:
        raise DimensionMismatch("input dimension mismatch")
    audit = audit if audit is not None else AuditTrail()
    target_out = scheme.target @ input_state
    branches = branch_tree(input_state[None], [_gadget(scheme, audit, injected)])
    return [
        InjectionRecord(
            m, float(prob), scheme.corrections[m].name, out, do.fidelity(out, target_out)
        )
        for m, prob, out in branches
    ]


def inject_on_wires(scheme: InjectionScheme, audit: AuditTrail) -> list[Step]:
    """Walker steps applying the injected gate in place to a register of
    exactly scheme.n wires: the gadget's one step, whose output on the
    resource register takes the data wires' place, audited as one SWAP per
    wire."""
    audit.use_gate("SWAP", count=scheme.n)
    return [_gadget(scheme, audit, frozenset())]


# ---------------------------------------------------------------------------
# named constructions

@functools.cache
def _x_readout_kraus() -> np.ndarray:
    """K_s = X^s (<s|_X (x) I) = <s|_X (x) X^s on two qubits, read-only:
    the Hadamard's X readout of wire 0, a row of H, and its X correction."""
    H, X = do.gate("H", (0,), 1), do.gate("X", (0,), 1)
    stack = np.stack([np.kron(H[:1], np.eye(2)), np.kron(H[1:], X)])
    stack.setflags(write=False)
    return stack


def _hadamard_from_cz(input_state: np.ndarray, audit: AuditTrail) -> list[tuple]:
    """The leaves of the Hadamard from CZ on |input>|+>: the injected CZ,
    then one step on _x_readout_kraus.  After the CZ the register holds
    a|0>|+> + b|1>|->, so each X outcome has probability exactly 1/2 and
    the walker never prunes one: one X gate per parent branch counts the X
    gates of the branches that read s = 1."""
    steps = inject_on_wires(scheme_for("CZ"), audit)
    audit.use_measurement("X")
    measure = do.measure_step(_x_readout_kraus())

    def x_readout(outcomes, level):
        audit.use_gate("X", count=len(level))
        return measure(outcomes, level)

    root = do.append_isometry(2, do.plus_state(1)) @ input_state
    return branch_tree(root[None], [*steps, x_readout])


def hadamard_via_cz(input_state: np.ndarray) -> tuple[list[InjectionRecord], AuditTrail]:
    """Hadamard from one CZ and an X measurement.

    Couple |psi> to a |+> ancilla with CZ, measure X on the input wire, and
    X-correct the ancilla, which then holds H|psi>: a fixed map, one Kraus
    step after the CZ, which runs as an injection block, so every element
    is a host one.
    """
    if input_state.shape[0] != 2:
        raise DimensionMismatch("single-qubit construction")
    audit = AuditTrail()
    target = do.gate("H", (0,), 1) @ input_state
    return [
        InjectionRecord(outcomes, float(prob), "X^s", out, do.fidelity(out, target))
        for outcomes, prob, out in _hadamard_from_cz(input_state, audit)
    ], audit


def ccz_scheme_demo(input_state: np.ndarray) -> dict:
    """The two-injection pipeline: a CZ injection bootstraps the CZ gate
    (its corrections are host Paulis), and the CCZ injection then uses
    direct CZ applications in its corrections, audited as tier 2.

    Returns a report with all 4 x 8 leaves, correction names, fidelities,
    and the combined element audit.
    """
    if input_state.shape[0] != 8:
        raise DimensionMismatch("three-qubit pipeline")
    audit = AuditTrail()
    cz_scheme = scheme_for("CZ")
    boot_records = run_injection(cz_scheme, do.plus_state(2), audit=audit)
    cz_target = do.gate("CZ", (0, 1), 2, 2) @ do.plus_state(2)
    boot_ok = all(
        r.fidelity >= 1 - ATOL_END2END and do.states_equal(r.final_state, cz_target)
        for r in boot_records
    )

    ccz_scheme = scheme_for("CCZ")
    ccz_records = run_injection(
        ccz_scheme, input_state, injected=frozenset({"CZ"}), audit=audit
    )
    ccz_target = ccz_scheme.target @ input_state
    leaves = []
    for rb in boot_records:
        for rc in ccz_records:
            leaves.append(
                {
                    "cz_outcomes": list(rb.outcomes),
                    "ccz_outcomes": list(rc.outcomes),
                    "probability": round(rb.probability * rc.probability, 12),
                    "correction": rc.correction,
                    "fidelity": round(rc.fidelity, 12),
                }
            )
    min_fid = min(
        min(r.fidelity for r in boot_records), min(r.fidelity for r in ccz_records)
    )
    return {
        "cz_bootstrap_ok": bool(boot_ok),
        "cz_branches": len(boot_records),
        "ccz_branches": len(ccz_records),
        "leaves": leaves,
        "leaf_count": len(leaves),
        "min_fidelity": float(min_fid),
        "correction_table": {
            "".join(map(str, m)): c.name for m, c in sorted(ccz_scheme.corrections.items())
        },
        "cz_applications_in_corrections": int(audit.tier2.get("CZ", 0)),
        "resources": {
            k.removeprefix("RESOURCE "): v
            for k, v in audit.elements.items()
            if k.startswith("RESOURCE")
        },
        "audit": audit.report(),
        "all_leaves_match_target": bool(
            all(
                do.states_equal(rc.final_state, ccz_target)
                for rc in ccz_records
            )
            and boot_ok
        ),
    }


@functools.cache
def cz_images() -> Mapping[str, tuple[int, str]]:
    """CZ's conjugates of the host words XI, IX, XX, as word -> (s, v) with
    CZ word CZ = s v: lookups in CZ's exact Pauli action, read once per
    process and shared read-only."""
    K = do.pauli_action(do.gate("CZ", (0, 1), 2))
    return MappingProxyType({w: do.pauli_image(K, w) for w in ("XI", "IX", "XX")})


def clifford_completion_demo() -> dict:
    """Certify the injection chain CZ -> H -> S and what it unlocks.

    Steps: (1) CZ injection with host-Pauli corrections, (2) Hadamard built
    from CZ and X measurements, (3) S injection whose correction is the
    Pauli Y (host-expressible up to phase), (4) single-qubit Clifford
    closure count for <H, S>, with CNOT already host-native, (5) the three
    conjugation identities that unlock the remaining two-qubit observables,
    (6) the universality note for Hadamard plus CCZ.
    """
    report: dict = {"steps": []}

    cz_scheme = scheme_for("CZ")
    audit1 = AuditTrail()
    recs = run_injection(cz_scheme, do.plus_state(2), audit=audit1)
    kinds = {c.kind for c in cz_scheme.corrections.values()}
    report["steps"].append(
        {
            "step": "inject-CZ",
            "branches": len(recs),
            "min_fidelity": min(r.fidelity for r in recs),
            "correction_kinds": sorted(kinds),
            "corrections_host_native": kinds == {"pauli"},
            "audit": audit1.report(),
        }
    )

    h_records, audit2 = hadamard_via_cz(do.basis_state([0]))
    report["steps"].append(
        {
            "step": "hadamard-from-CZ",
            "branches": len(h_records),
            "min_fidelity": min(r.fidelity for r in h_records),
            "audit": audit2.report(),
        }
    )

    s_scheme = scheme_for("S")
    audit3 = AuditTrail()
    s_recs = run_injection(s_scheme, do.plus_state(1), audit=audit3)
    y_corr = s_scheme.corrections[(1,)]
    report["steps"].append(
        {
            "step": "inject-S",
            "branches": len(s_recs),
            "min_fidelity": min(r.fidelity for r in s_recs),
            "correction_name": y_corr.name,
            "correction_is_pauli": y_corr.kind == "pauli",
            "audit": audit3.report(),
        }
    )

    group = stt.generated_gate_group(
        [do.gate("H", (0,), 1), do.gate("S", (0,), 1)], max_size=1000
    )
    report["single_qubit_clifford_order"] = len(group)
    report["generators_complete"] = len(group) == 24  # full 1q Clifford mod phase

    images = cz_images()
    identities = {
        f"CZ.{w}.CZ": {"equals": expect, "verified": images[w] == (1, expect)}
        for w, expect in zip(images, ("XZ", "ZX", "YY"))
    }
    report["unlocked_observables"] = identities
    report["universality_note"] = (
        "Hadamard plus CCZ is a universal gate set; see the CCZ pipeline"
    )
    report["chain"] = ["CZ", "H", "S"]
    report["passed"] = bool(
        all(s["min_fidelity"] >= 1 - ATOL_END2END for s in report["steps"])
        and report["generators_complete"]
        and all(v["verified"] for v in identities.values())
        and all(s["audit"]["clean"] for s in report["steps"])
    )
    return report


def minimality_probe() -> dict:
    """Show that each host element carries an injection capability.

    Re-runs the injection constructions against the default host with that
    element removed and records the violation that appears: losing any of
    the CNOT, X or Z generators, the Z observables, or the X observables
    breaks a documented step of the chain.
    """
    host = AuditTrail().host
    probes = {
        name: dataclasses.replace(
            host, gate_generators=tuple(g for g in host.gate_generators if g.name != name))
        for name in ("CNOT", "X", "Z")
    }
    for element, letter in (("Z-measurement", "Z"), ("X-observables", "X")):
        kept = tuple(lam for lam in host.observables if letter not in do.label_name(lam, 2))
        probes[element] = dataclasses.replace(host, observables=kept)
    out = {}
    for element, reduced in probes.items():
        audit = AuditTrail(host=reduced)
        if element == "X-observables":
            # the Hadamard construction is the X-measurement consumer
            _hadamard_from_cz(do.basis_state([0]), audit)
        elif element == "Z":
            # Z appears in CZ-injection corrections (XZ / ZX branches)
            run_injection(scheme_for("CZ"), do.plus_state(2), audit=audit)
        else:
            run_injection(scheme_for("S"), do.plus_state(1), audit=audit)
        report = audit.report()
        out[element] = {
            "capability": {
                "CNOT": "transversal coupling of the resource register",
                "X": "Pauli corrections (incl. Y = X.Z for the S gate)",
                "Z": "Pauli corrections of the CZ injection",
                "Z-measurement": "reading the coupled input register",
                "X-observables": "the Hadamard-from-CZ readout",
            }[element],
            "violations": report["violations"],
            "breaks": not report["clean"],
        }
    return out

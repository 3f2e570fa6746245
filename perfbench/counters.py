"""Layer counters read at the layer boundaries of a traced pass.

Each counter is computed from the arguments and results of wrapped calls,
so it measures the work where it happens.  `attach` registers the hooks on
a tracer; `per_layer_metrics` turns the tracer's aggregates and these
counters into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import numpy as np

from spektoy import phase_algebra as pa

import tracer as tr


class LayerCounters:
    def __init__(self):
        self.rref_inputs: set = set()
        self.pauli_inputs: set = set()
        self.coset_points = 0
        self.coset_guard_frac = 0.0
        self.affine_enum_guard_frac = 0.0
        self.support_points = 0
        self.permute_lookups = 0
        self.dense_max_dim = 0
        self.max_deviation = 0.0
        self.toy_outcomes = 0
        self.dense_outcomes = 0
        self.injection_branches = 0
        self.assignments_checked = 0

    def attach(self, tracer: tr.Tracer) -> None:
        on = tracer.on_return
        on("_modmath.rref", self._rref)
        on("phase_algebra.coset_members", self._coset)
        on("wigner.fit_covariance", self._fit_covariance)
        for fn in ("apply_affine", "outcome_distribution", "posterior"):
            on(f"toy_model.{fn}", self._support_scan)
        on("subtheory.permutes_states", self._permutes)
        on("dense_oracle.pauli", self._pauli)
        on("dense_oracle.embed", self._dense_dim)
        on("dense_oracle.stabilizer_state", self._dense_dim)
        on("equivalence.compare_statistics", self._deviation)
        on("toy_model.statistics", self._toy_outcomes)
        on("equivalence.dense_statistics", self._dense_outcomes)
        on("injection.run_injection", self._branches)
        on("injection.inject_on_wires", self._branches)
        on("witness.assignment_search", self._assignments)
        on("witness.ghz_report", self._assignments)

    # -- hooks: (args, kwargs, result) --------------------------------------

    def _rref(self, args, kwargs, result):
        mat = np.asarray(_arg(args, kwargs, 0, "mat"), dtype=np.int64)
        p = _arg(args, kwargs, 1, "p")
        self.rref_inputs.add((p, mat.shape, mat.tobytes()))

    def _coset(self, args, kwargs, result):
        self.coset_points += len(result)
        self.coset_guard_frac = max(self.coset_guard_frac, len(result) / pa.COSET_GUARD)

    def _fit_covariance(self, args, kwargs, result):
        # the exhaustive search walks sp_order * d^2n candidates at most
        spec = _arg(args, kwargs, 1, "spec")
        total = pa.sp_order(spec.n, spec.d) * spec.d ** (2 * spec.n)
        self.affine_enum_guard_frac = max(
            self.affine_enum_guard_frac, total / pa.AFFINE_ENUM_GUARD
        )

    def _support_scan(self, args, kwargs, result):
        self.support_points += len(_arg(args, kwargs, 0, "state").support)

    def _permutes(self, args, kwargs, result):
        states = _arg(args, kwargs, 1, "states")
        ok, first_bad = result
        self.permute_lookups += len(states) if ok else first_bad + 1

    def _pauli(self, args, kwargs, result):
        q, p, d = (_arg(args, kwargs, i, k) for i, k in enumerate(("q", "p", "d")))
        self.pauli_inputs.add((tuple(int(x) % d for x in q), tuple(int(x) % d for x in p), d))
        self._dense_dim(args, kwargs, result)

    def _dense_dim(self, args, kwargs, result):
        self.dense_max_dim = max(self.dense_max_dim, int(result.shape[0]))

    def _deviation(self, args, kwargs, result):
        self.max_deviation = max(self.max_deviation, float(result))

    def _toy_outcomes(self, args, kwargs, result):
        self.toy_outcomes += len(result)

    def _dense_outcomes(self, args, kwargs, result):
        self.dense_outcomes += len(result)

    def _branches(self, args, kwargs, result):
        self.injection_branches += len(result)

    def _assignments(self, args, kwargs, result):
        sweep = result if "assignments_checked" in result else result.get("sweep", {})
        self.assignments_checked += int(sweep.get("assignments_checked", 0))


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: tr.Tracer, counters: LayerCounters) -> dict[str, float]:
    """Every per-layer metric except those the runner measures itself
    (`trace.overhead`, `cli.import_s`)."""
    wall = tracer.traced_wall_s
    out: dict[str, float] = {}
    for layer in tr.LAYERS:
        name = tr.metric_prefix(layer)
        out[f"{name}.calls"] = tracer.layer_calls[layer]
        out[f"{name}.self_s"] = tracer.self_s[layer]
        out[f"{name}.share"] = _ratio(tracer.self_s[layer], wall)
    calls = tracer.fn_calls
    rref_calls = calls["_modmath.rref"]
    pauli_calls = calls["dense_oracle.pauli"]
    out.update(
        {
            "modmath.rref.calls": rref_calls,
            "modmath.rref.distinct_ratio": _ratio(len(counters.rref_inputs), rref_calls),
            "phase_algebra.from_generators.calls": calls["phase_algebra.Subspace.from_generators"],
            "phase_algebra.coset_points": counters.coset_points,
            "phase_algebra.coset_guard_frac": counters.coset_guard_frac,
            "phase_algebra.affine_enum_guard_frac": counters.affine_enum_guard_frac,
            "toy_model.support_points": counters.support_points,
            "dense_oracle.states_equal.calls": calls["dense_oracle.states_equal"],
            "subtheory.compares_per_lookup": _ratio(
                calls["dense_oracle.states_equal"], counters.permute_lookups
            ),
            "dense_oracle.pauli.calls": pauli_calls,
            "dense_oracle.pauli.distinct_ratio": _ratio(len(counters.pauli_inputs), pauli_calls),
            "dense_oracle.embed.calls": calls["dense_oracle.embed"],
            "dense_oracle.max_dim": counters.dense_max_dim,
            "wigner.tables": calls["wigner.wigner_of_state"],
            "wigner.fit_covariance.calls": calls["wigner.fit_covariance"],
            "equivalence.max_deviation": counters.max_deviation,
            "equivalence.toy_outcomes": counters.toy_outcomes,
            "equivalence.dense_outcomes": counters.dense_outcomes,
            "injection.branches": counters.injection_branches,
            "witness.assignments_checked": counters.assignments_checked,
        }
    )
    return out

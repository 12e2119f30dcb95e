"""The benchmark's metrics: names, units, direction, and what each should move.

``END_TO_END`` and ``PER_LAYER`` are the lists BENCHMARK.json carries (the
benchmark's tests keep the two in step).  Each per-layer entry also records
the workload that exercises it, whose traced pass it is read from, and the
end-to-end metric it should move there.
"""

from __future__ import annotations

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_ratio", "ratio", "higher", 0.01),
)

P1, VF, DK, ALL = "protocol1", "verify", "dicke", "all"
WALL, WALL_RSS = "wall_s", "wall_s,peak_rss_mb"


def _fn(name, kinds, workload, moves=WALL):
    units = {"calls": ("count", "lower"), "s": ("s", "lower"), "self_s": ("s", "lower")}
    return [(f"{name}.{k}", *units[k], workload, moves) for k in kinds]


VERIFY_CHECKS = (
    "deletion_oracle", "ad_oracle", "schur_dimension", "syt_counts", "sequential_split",
    "kl_gnu", "general_qec", "pflag", "deletion_qfi_monotone",
)
COMMANDS = {
    "protocol1": P1, "verify": VF, "ad": DK, "fi-scan": DK, "delete": DK,
    "qec-delete": DK, "polytope": DK, "fqec-scan": DK, "protocol3": DK,
}

# name, unit, better, workload that exercises it, end-to-end metric it should move
PER_LAYER = (
    # protocols: the lattice batch and its export
    *_fn("protocols.trajectory_rng", ("calls", "s"), P1),
    *_fn("protocols.run_protocol1_batch", ("s", "self_s"), P1),
    *_fn("protocols.one_deletion_ratios", ("calls", "s"), P1),
    *_fn("protocols.fi_phase_readout_vec", ("s",), P1),
    *_fn("protocols.expected_fi_p1", ("s", "self_s"), P1),
    *_fn("qec.pflag_closed_form", ("s",), P1),
    *_fn("protocols.write_trajectories_jsonl", ("s",), P1),
    ("protocols.write_trajectories_jsonl.bytes", "B", "lower", P1, WALL),
    ("protocols.traj_rounds", "count", "higher", P1, WALL),
    ("protocols.deletions", "count", "higher", P1, WALL),
    ("protocols.flagged", "count", "lower", P1, WALL),
    ("protocols.invalid", "count", "lower", P1, WALL),
    ("protocols.success_ratio", "ratio", "higher", P1, WALL),
    ("protocols.us_per_traj_round", "us", "lower", P1, WALL),
    # protocols: the exact reference path
    *_fn("protocols.run_protocol1", ("calls", "s", "self_s"), DK),
    ("protocols.run_protocol1.ms_per_traj", "ms", "lower", DK, WALL),
    # codes, qec, symcore: rebuilt every round of the reference path
    *_fn("codes.logical_pair", ("calls", "s", "self_s"), DK),
    *_fn("codes.make_logical", ("s",), DK),
    *_fn("qec.q_vectors", ("calls", "s", "self_s"), DK),
    *_fn("qec.zeta", ("calls", "s"), DK),
    *_fn("symcore.apply_signal", ("calls", "s"), DK),
    *_fn("symcore.jz_moments", ("s",), DK),
    # noise: scalar Dicke-block channel loops
    *_fn("noise.amplitude_damp", ("calls", "s"), DK),
    ("noise.amplitude_damp.ops", "ops_computed", "lower", DK, WALL),
    ("noise.amplitude_damp.ns_per_op", "ns", "lower", DK, WALL),
    ("noise.amplitude_damp.kept_ratio", "ratio", "higher", DK, WALL),
    *_fn("noise.ad_qfi_bound", ("s",), DK),
    *_fn("noise.delete", ("calls", "s", "self_s"), DK),
    *_fn("noise.deletion_qfi", ("s", "self_s"), DK),
    # metrology and the Fraction LP
    *_fn("metrology.fi_code_basis", ("calls", "s"), DK),
    *_fn("metrology.qfi_pure", ("s", "self_s"), DK),
    *_fn("optimizer.solve_lp", ("calls", "s", "self_s"), DK),
    *_fn("optimizer.write_polytope_csv", ("s", "self_s"), DK),
    *_fn("optimizer.p2_exponent", ("calls", "s", "self_s"), DK),
    ("optimizer.feasible_vertices.kept_ratio", "ratio", "higher", DK, WALL),
    # fullspace: the dense 2^N oracles
    *_fn("fullspace.general_qec_smallN", ("s", "self_s"), VF, WALL_RSS),
    *_fn("fullspace.kl_check", ("s", "self_s"), VF, WALL_RSS),
    *_fn("fullspace.pauli_op", ("calls",), VF, WALL_RSS),
    ("fullspace.pauli_op.bytes", "B_computed", "lower", VF, WALL_RSS),
    *_fn("fullspace.symmetrize_channel", ("calls", "s"), VF, WALL_RSS),
    *_fn("fullspace.schur_blocks", ("s",), VF, WALL_RSS),
    *_fn("fullspace.enumerate_syt", ("s",), VF, WALL_RSS),
    *_fn("fullspace.sequential_j2_measure", ("calls", "s", "self_s"), VF, WALL_RSS),
    *_fn("fullspace.embed_sym", ("calls", "s"), VF, WALL_RSS),
    *_fn("fullspace.partial_trace_first", ("s",), VF, WALL_RSS),
    # verify: the nine oracle checks; ad_oracle's self time is the Kraus-string brute force
    *(m for c in VERIFY_CHECKS for m in _fn(f"verify.check_{c}", ("s", "self_s"), VF)),
    # cli: one entry per command, and the layer's own time
    *(m for c, w in COMMANDS.items() for m in _fn(f"cli.main.{c}", ("s",), w)),
    ("cli.main.self_s", "s", "lower", ALL, WALL),
    # per pass
    ("process.cpu_s", "s", "lower", ALL, WALL),
    ("trace.overhead_s", "s", "lower", ALL, WALL),
)


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def per_layer_values(traces: dict, rows: dict, cpu_s: dict, overhead_s: dict) -> dict:
    """Every PER_LAYER metric, each from the reduced trace
    (trace_layers.reduce_spans) of its workload; the per-pass ones are summed
    over the workloads.  ``rows`` are the protocol1 row counts
    (checks.check_protocol1); a workload without a trace reads 0."""
    per_w = {w: _trace_values(spans, rows, cpu_s[w], overhead_s[w])
             for w, spans in traces.items()}
    values = {}
    for name, _, _, workload, _ in PER_LAYER:
        if workload == ALL:
            values[name] = sum(v[name] for v in per_w.values())
        else:
            values[name] = per_w[workload][name] if workload in per_w else 0.0
    return values


def _trace_values(spans: dict, rows: dict, cpu_s: float, overhead_s: float) -> dict:
    calls, incl, self_s, stats = spans["calls"], spans["s"], spans["self_s"], spans["stats"]
    derived = {
        "protocols.write_trajectories_jsonl.bytes":
            stats["protocols.write_trajectories_jsonl.bytes"],
        "protocols.traj_rounds": rows.get("traj_rounds", 0),
        "protocols.deletions": rows.get("deletions", 0),
        "protocols.flagged": rows.get("flagged", 0),
        "protocols.invalid": rows.get("invalid", 0),
        "protocols.success_ratio": _ratio(rows.get("successful", 0), rows.get("attempted", 0)),
        "protocols.us_per_traj_round": _ratio(
            self_s["protocols.run_protocol1_batch"], rows.get("traj_rounds", 0), 1e6),
        "protocols.run_protocol1.ms_per_traj": _ratio(
            incl["protocols.run_protocol1"], calls["protocols.run_protocol1"], 1e3),
        "noise.amplitude_damp.ops": stats["noise.amplitude_damp.ops"],
        "noise.amplitude_damp.ns_per_op": _ratio(
            incl["noise.amplitude_damp"], stats["noise.amplitude_damp.ops"], 1e9),
        "noise.amplitude_damp.kept_ratio": _ratio(
            stats["noise.amplitude_damp.kept"], stats["noise.amplitude_damp.branches"]),
        "fullspace.pauli_op.bytes": stats["fullspace.pauli_op.bytes"],
        "optimizer.feasible_vertices.kept_ratio": _ratio(
            stats["optimizer.feasible_vertices.kept"],
            stats["optimizer.feasible_vertices.candidates"]),
        # the cli layer's own time: main plus the cmd_* functions it dispatches to
        "cli.main.self_s": sum(v for k, v in self_s.items() if k.startswith("cli.")),
        "process.cpu_s": cpu_s,
        "trace.overhead_s": overhead_s,
    }
    values = {}
    for name, *_ in PER_LAYER:
        if name in derived:
            values[name] = derived[name]
        elif name.startswith("cli.main."):
            values[name] = spans["tagged"][name.removesuffix(".s")]
        else:
            fn, kind = name.rsplit(".", 1)
            values[name] = {"calls": calls, "s": incl, "self_s": self_s}[kind][fn]
    return values

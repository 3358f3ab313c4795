"""Layer hooks of sqgdiag and the per-layer metrics derived from them.

Layers are the package modules.  ``constants`` (milliseconds of scalar
arithmetic) and ``cli`` (an argparse front end over ``harness``) get no
layer metrics.  Every byte count below is computed from array sizes; none
is a measured bandwidth.
"""

import os

import numpy as np


def _count(key, amount):
    def after(tracer, args, result):
        tracer.counts[key] += amount(args, result)

    return after


def _transform_bytes(args, result):
    return np.asarray(args[0]).nbytes + result.nbytes


def _phi_built(tracer, args, result):
    tracer.counts["solver.tables_pending"] += 1


def _coefficient_bytes(tracer, args, result):
    # _coefficients returns the cached table; a phi build since the last
    # call means this table is new
    if tracer.counts["solver.tables_pending"]:
        tracer.counts["solver.tables_pending"] = 0
        tracer.counts["solver.phi_cache_bytes"] += sum(v.nbytes for v in result.values())


def _w3_zero(tracer, args, result):
    tracer.counts["oscillation.w3_zero"] += int(not np.any(result))


# (span name, module, attribute, after-hook)
HOOKS = (
    ("spectral.fft2", "numpy.fft", "fft2", _count("spectral.transform_bytes", _transform_bytes)),
    ("spectral.ifft2", "numpy.fft", "ifft2", _count("spectral.transform_bytes", _transform_bytes)),
    ("spectral.rfft2", "sqgdiag.solver", "rfft2", _count("spectral.transform_bytes", _transform_bytes)),
    ("spectral.irfft2", "sqgdiag.solver", "irfft2", _count("spectral.transform_bytes", _transform_bytes)),
    ("spectral.displacement", "sqgdiag.spectral", "Grid.displacement", None),
    ("spectral.lattice_eval", "sqgdiag.spectral", "evaluate_on_lattice", None),
    ("solver.run", "sqgdiag.solver", "run", None),
    ("solver.step", "sqgdiag.solver", "SqgSolver.step_spectral", None),
    ("solver.nonlinear", "sqgdiag.solver", "SqgSolver.nonlinear_spectral", None),
    ("solver.coefficients", "sqgdiag.solver", "SqgSolver._coefficients", _coefficient_bytes),
    ("solver.phi_build", "sqgdiag.solver", "_phi_coefficients", _phi_built),
    ("solver.audit", "sqgdiag.solver", "audit_energy",
     _count("solver.audit_snap_levels", lambda a, r: len(a[0]) * len(a[1]))),
    ("solver.checkpoint_write", "sqgdiag.solver", "write_checkpoint",
     _count("solver.checkpoint_bytes", lambda a, r: os.path.getsize(a[0]))),
    ("solver.checkpoint_read", "sqgdiag.solver", "read_checkpoint", None),
    ("extension.extend", "sqgdiag.extension", "extend",
     _count("extension.extend_levels", lambda a, r: len(a[1]))),
    ("extension.trace", "sqgdiag.extension", "neumann_trace", None),
    ("extension.dirichlet", "sqgdiag.extension", "weighted_dirichlet_energy", None),
    ("degiorgi.sample_points", "sqgdiag.degiorgi", "WeightedRegion.sample_points",
     _count("degiorgi.mc_samples", lambda a, r: r.shape[1])),
    ("degiorgi.measure", "sqgdiag.degiorgi", "weighted_measure", None),
    ("degiorgi.isoperimetric", "sqgdiag.degiorgi", "isoperimetric_check", None),
    ("degiorgi.local_energy", "sqgdiag.degiorgi", "local_energy_check", None),
    ("oscillation.split_build", "sqgdiag.oscillation", "VelocitySplit.__post_init__", None),
    ("oscillation.kernel_sum", "sqgdiag.oscillation", "_kernel_sum", None),
    ("oscillation.w2", "sqgdiag.oscillation", "VelocitySplit.w2", None),
    ("oscillation.w3", "sqgdiag.oscillation", "VelocitySplit.w3", _w3_zero),
    ("oscillation.recenter", "sqgdiag.oscillation", "recenter_flow", None),
    ("oscillation.rescale", "sqgdiag.oscillation", "rescale_recenter", None),
    ("oscillation.osc", "sqgdiag.oscillation", "oscillation", None),
    ("oscillation.normalize", "sqgdiag.oscillation", "normalize_window", None),
    ("oscillation.suite", "sqgdiag.oscillation", "run_iteration_suite", None),
    ("harness.simulate", "sqgdiag.harness", "simulate", None),
    ("harness.diagnose", "sqgdiag.harness", "diagnose", None),
    ("harness.extension_report", "sqgdiag.harness", "extension_report", None),
    ("harness.isoperimetric_report", "sqgdiag.harness", "isoperimetric_report", None),
)

TRANSFORMS = ("spectral.fft2", "spectral.ifft2", "spectral.rfft2", "spectral.irfft2")


def install(tracer):
    # import every layer first so that the module-global scan sees them all
    import sqgdiag  # noqa: F401

    for name, module, attr, after in HOOKS:
        tracer.install(name, module, attr, after)


def _percentile_ms(values, q):
    return float(np.percentile(values, q)) * 1e3 if values else 0.0


def metrics(tracer):
    """Per-layer metric values (unit-less floats) from one traced unit.

    A metric whose hook is absent, or whose layer the workload never
    enters, reads 0.
    """
    s = tracer.summary()
    c = tracer.counts

    def calls(*names):
        return sum(s.get(n, {}).get("calls", 0) for n in names)

    def own(*names):
        return sum(s.get(n, {}).get("self_s", 0.0) for n in names)

    def total(name):
        return s.get(name, {}).get("total_s", 0.0)

    steps = tracer.durations("solver.step")
    snap_levels = c["solver.audit_snap_levels"]
    w3_calls = calls("oscillation.w3")
    return {
        "spectral.transforms": calls(*TRANSFORMS),
        "spectral.transform_self_s": own(*TRANSFORMS),
        "spectral.transform_bytes": c["spectral.transform_bytes"],
        "spectral.displacement_calls": calls("spectral.displacement"),
        "spectral.displacement_self_s": own("spectral.displacement"),
        "spectral.lattice_eval_calls": calls("spectral.lattice_eval"),
        "spectral.lattice_eval_self_s": own("spectral.lattice_eval"),
        "solver.steps": len(steps),
        "solver.step_self_s": own("solver.step"),
        "solver.step_ms_p50": _percentile_ms(steps, 50),
        "solver.step_ms_p99": _percentile_ms(steps, 99),
        "solver.nonlinear_calls": calls("solver.nonlinear"),
        "solver.nonlinear_self_s": own("solver.nonlinear"),
        "solver.run_self_s": own("solver.run"),
        "solver.phi_builds": calls("solver.phi_build"),
        "solver.phi_build_s": total("solver.phi_build"),
        "solver.phi_cache_bytes": c["solver.phi_cache_bytes"],
        "solver.audit_self_s": own("solver.audit"),
        "solver.audit_ms_per_snap_level": (
            total("solver.audit") * 1e3 / snap_levels if snap_levels else 0.0
        ),
        "solver.checkpoint_bytes": c["solver.checkpoint_bytes"],
        "solver.checkpoint_write_s": total("solver.checkpoint_write"),
        "solver.checkpoint_read_s": total("solver.checkpoint_read"),
        "extension.extend_calls": calls("extension.extend"),
        "extension.extend_levels": c["extension.extend_levels"],
        "extension.extend_self_s": own("extension.extend"),
        "extension.trace_self_s": own("extension.trace"),
        "extension.dirichlet_calls": calls("extension.dirichlet"),
        "extension.dirichlet_self_s": own("extension.dirichlet"),
        "degiorgi.mc_samples": c["degiorgi.mc_samples"],
        "degiorgi.measure_self_s": own("degiorgi.measure"),
        "degiorgi.isoperimetric_self_s": own("degiorgi.isoperimetric"),
        "degiorgi.local_energy_self_s": own("degiorgi.local_energy"),
        "oscillation.splits_built": calls("oscillation.split_build"),
        "oscillation.split_build_self_s": own("oscillation.split_build"),
        "oscillation.kernel_sums": calls("oscillation.kernel_sum"),
        "oscillation.w2_self_s": own("oscillation.w2"),
        "oscillation.w3_self_s": own("oscillation.w3"),
        "oscillation.recenter_self_s": own("oscillation.recenter"),
        "oscillation.rescale_self_s": own("oscillation.rescale"),
        "oscillation.osc_self_s": own("oscillation.osc"),
        "oscillation.w3_zero_frac": c["oscillation.w3_zero"] / w3_calls if w3_calls else 0.0,
        "harness.simulate_self_s": own("harness.simulate"),
        "harness.diagnose_self_s": own("harness.diagnose"),
    }

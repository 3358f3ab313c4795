"""Run configuration, orchestration, persistence and reporting.

A run is described by a flat key = value config file (``#`` starts a
comment; keys match RunConfig field names exactly) and produces binary
checkpoints (see solver.write_checkpoint), a ``series.csv`` time series and
a ``report.json``.  Reports are JSON; time series are CSV with a one-line
header, so standard plotting tools consume both directly.

All randomness derives from the single 64-bit config seed through the
documented splitting rule: numpy Generators are seeded with the sequence
[seed, purpose, counter], where purpose 0 is initial data, 1 Monte Carlo
sampling, 2 calibration families.  Any individual diagnostic can therefore
be re-run in isolation, bit-identically.
"""

import json
import os
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from .degiorgi import (
    ISOPERIMETRIC_CONSTANT,
    WeightedRegion,
    isoperimetric_check,
    isoperimetric_family,
    linear_reference_profile,
)
from .extension import calibrate_dtn_constant, extend, neumann_trace, trace_ladder
from .solver import (
    SolverConfig,
    audit_energy,
    check_l2_monotone,
    check_linf_decay,
    read_checkpoint,
    run,
    write_checkpoint,
)
from .spectral import (
    Grid,
    ScalarField,
    fractional_laplacian,
    l2_norm,
    random_band_limited,
)
from .oscillation import TAIL_CONSTANT, tail_series

DIAGNOSTIC_NAMES = ("l2_monotone", "energy_audit", "linf_decay", "tail")
INITIAL_CONDITIONS = ("single_mode", "random_band_limited", "file")


@dataclass(frozen=True)
class RunConfig:
    """One simulation: grid, solver, initial condition, snapshots, output."""

    n: int = 64
    side_length: float = 2.0 * np.pi
    alpha: float = 1.0
    dt: float = 1e-3
    t_end: float = 1.0
    seed: int = 0
    initial_condition: str = "single_mode"
    ic_k_max: int = 4
    ic_amplitude: float = 1.0
    ic_file: str = ""
    snapshot_interval: float = 0.1
    output_dir: str = "out"

    def __post_init__(self):
        # the grid and the solver check their own ranges
        Grid(self.n, self.side_length)
        SolverConfig(self.alpha, self.dt, self.t_end)
        if not 0 < self.snapshot_interval < np.inf:
            raise ValueError(
                f"snapshot_interval must be positive and finite, got {self.snapshot_interval!r}"
            )
        if self.initial_condition not in INITIAL_CONDITIONS:
            raise ValueError(f"unknown initial condition {self.initial_condition!r}")
        if self.initial_condition == "file" and not self.ic_file:
            raise ValueError("initial_condition = file needs an ic_file")
        if self.ic_k_max < 1:
            raise ValueError(f"ic_k_max must be at least 1, got {self.ic_k_max}")
        # zero is the identically zero field, on which every check passes
        if not (np.isfinite(self.ic_amplitude) and self.ic_amplitude != 0):
            raise ValueError(
                f"ic_amplitude must be finite and nonzero, got {self.ic_amplitude!r}"
            )


def parse_config(text):
    """Parse the flat key = value format back into a RunConfig.

    Each value is checked on its own line, against the defaults of the
    other fields, so an error names the line that holds the bad value.  A
    key may be set once.  The one rule across fields (a file initial
    condition needs an ic_file) is checked once every line is read.
    """
    field_types = {f.name: f.type for f in fields(RunConfig)}
    kwargs = {}
    set_on = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {ln}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in field_types:
            raise ValueError(f"config line {ln}: unknown key {key!r}")
        if key in set_on:
            raise ValueError(f"config line {ln}: {key}: already set on line {set_on[key]}")
        set_on[key] = ln
        try:
            kwargs[key] = field_types[key](value)
            # ic_file stands in until its own line is read: the file rule waits
            RunConfig(**{"ic_file": "-", key: kwargs[key]})
        except ValueError as exc:
            raise ValueError(f"config line {ln}: {key}: {exc}") from None
    return RunConfig(**kwargs)


def load_config(path):
    with open(path, "r") as fh:
        return parse_config(fh.read())


def initial_field(config):
    grid = Grid(config.n, config.side_length)
    if config.initial_condition == "single_mode":
        x1, _ = grid.coordinates()
        unit = 2.0 * np.pi / config.side_length
        values = config.ic_amplitude * np.sin(unit * x1)
        return ScalarField(grid, values)
    if config.initial_condition == "random_band_limited":
        return random_band_limited(
            grid, config.ic_k_max, [config.seed, 0, 0], config.ic_amplitude
        )
    field, _ = read_checkpoint(config.ic_file, side_length=config.side_length)
    return field


@dataclass
class RunReport:
    """Sections with their verdicts, stage timings and work counters.

    Counters are named as perfbench's layer metrics (``solver.steps``,
    ``solver.phi_builds``), so a report and a traced benchmark run compare
    number for number; a report that counts nothing carries ``{}``.
    """

    config_echo: dict
    sections: list
    timings: dict
    counters: dict

    @property
    def passed(self):
        """The report's verdict: every section passed."""
        return all(s["passed"] for s in self.sections)

    def to_json(self):
        return json.dumps(
            {
                "config": self.config_echo,
                "sections": self.sections,
                "timings": self.timings,
                "counters": self.counters,
                "passed": self.passed,
            },
            indent=2,
            default=float,
        )


def snapshot_schedule(config):
    k = int(np.floor(config.t_end / config.snapshot_interval + 1e-9))
    times = [i * config.snapshot_interval for i in range(k + 1)]
    if times[-1] < config.t_end - 1e-12:
        times.append(config.t_end)
    return times


def simulate(config, out_dir=None):
    """Run the configured simulation; write checkpoints, series and report.

    Returns (checkpoint paths, RunReport).  Bit-identical output for the
    same config and seed.
    """
    out = out_dir or config.output_dir
    os.makedirs(out, exist_ok=True)
    t0 = time.perf_counter()
    theta0 = initial_field(config)
    sc = SolverConfig(config.alpha, config.dt, config.t_end)
    result = run(theta0, sc, snapshot_times=snapshot_schedule(config))
    wall = time.perf_counter() - t0

    paths = []
    for i, snap in enumerate(result.history):
        path = os.path.join(out, f"checkpoint_{i:04d}.sqgd")
        write_checkpoint(path, snap, config.alpha)
        paths.append(path)
    series_path = os.path.join(out, "series.csv")
    with open(series_path, "w") as fh:
        fh.write("time,l2_norm,linf_norm\n")
        for t, a, b in zip(result.times, result.l2_norms, result.linf_norms):
            fh.write(f"{t!r},{a!r},{b!r}\n")

    report = RunReport(
        config_echo=asdict(config),
        sections=[
            {
                "name": "simulation",
                "passed": True,
                "snapshots": len(paths),
                "final_time": float(result.final.time_stamp),
                "final_l2": float(result.l2_norms[-1]),
                "final_linf": float(result.linf_norms[-1]),
            }
        ],
        timings={"simulate_seconds": wall},
        counters={"solver.steps": result.steps, "solver.phi_builds": result.phi_builds},
    )
    with open(os.path.join(out, "report.json"), "w") as fh:
        fh.write(report.to_json())
    return paths, report


def load_checkpoints(paths, side_length=2.0 * np.pi):
    """Decode a checkpoint series; grids and alpha must agree."""
    if not paths:
        raise ValueError("no checkpoint given")
    history = []
    alpha = None
    for p in paths:
        field, a = read_checkpoint(p, side_length=side_length)
        if alpha is None:
            alpha = a
            n = field.grid.n
        elif a != alpha or field.grid.n != n:
            raise ValueError(f"checkpoint {p} disagrees on grid or alpha")
        history.append(field)
    history.sort(key=lambda f: f.time_stamp)
    return history, alpha


def diagnose(paths, toggles, side_length=2.0 * np.pi, config=None):
    """Fan out the enabled diagnostics over a checkpoint series.

    Each toggle computes its own section from the snapshots; the energy
    audit runs only for ``energy_audit``.  The report passes iff every
    enabled check passes.
    """
    for t in toggles:
        if t not in DIAGNOSTIC_NAMES:
            raise ValueError(f"unknown diagnostic {t!r}")
    t0 = time.perf_counter()
    history, alpha = load_checkpoints(paths, side_length=side_length)
    sections = []
    for name in toggles:
        if name == "l2_monotone":
            sections.append({"name": name, "passed": check_l2_monotone(history)})
        elif name == "energy_audit":
            theta0 = history[0]
            levels = np.linspace(theta0.values.min(), theta0.values.max(), 16)
            audit = audit_energy(history, levels, alpha)
            sections.append(
                {
                    "name": name,
                    "passed": audit.passed,
                    "levels": [float(v) for v in levels],
                    "violations": audit.violations[:20],
                }
            )
        elif name == "linf_decay":
            try:
                fit = check_linf_decay(history, alpha)
                sections.append(
                    {
                        "name": name,
                        "passed": bool(fit.passed),
                        "constant": fit.constant,
                        "slope": fit.slope,
                    }
                )
            except ValueError as exc:
                sections.append({"name": name, "passed": False, "error": str(exc)})
        elif name == "tail":
            series = tail_series(history, TAIL_CONSTANT, alpha)
            sections.append(
                {
                    "name": name,
                    "passed": bool(all(e.passed for e in series)),
                    "constant": TAIL_CONSTANT,
                    "worst_ratio": max(e.tail_value / e.bound_basic for e in series),
                }
            )

    return RunReport(
        config_echo=asdict(config) if config else {},
        sections=sections,
        timings={"diagnose_seconds": time.perf_counter() - t0},
        counters={},
    )


def extension_report(epsilons=(0.0, 0.05, 0.1), n=64, seed=0):
    """DtN verification: trace matches the spectral operator per epsilon."""
    grid = Grid(n)
    theta = random_band_limited(grid, 6, [seed, 0, 0], amplitude=1.0)
    sections = []
    for eps in epsilons:
        ds = [calibrate_dtn_constant(grid, eps, wavenumber=k) for k in (1, 2, 4, 8)]
        spread = (max(ds) - min(ds)) / abs(np.mean(ds))
        ext = extend(theta, trace_ladder(grid), eps)
        trace = neumann_trace(ext)
        target = fractional_laplacian(theta, 1.0 - eps)
        rel = l2_norm(
            ScalarField(grid, trace.values / ds[0] - target.values)
        ) / l2_norm(target)
        sections.append(
            {
                "name": f"dtn_eps_{eps}",
                "passed": bool(rel <= 0.01 and spread <= 0.005),
                "d_eps": ds[0],
                "mode_spread": spread,
                "trace_rel_error": rel,
            }
        )
    return RunReport(config_echo={}, sections=sections, timings={}, counters={})


def isoperimetric_report(count=20, seed=2025, samples=100_000):
    """Family sweep against the frozen isoperimetric constant, eps = 0 and 0.1."""
    sections = []
    for eps in (0.0, 0.1):
        mc = WeightedRegion(sample_count=samples, seed=seed)
        fields = [linear_reference_profile(eps)] + isoperimetric_family(count, eps, seed)
        results = isoperimetric_check(fields, ISOPERIMETRIC_CONSTANT, mc)
        sections.append(
            {
                "name": f"isoperimetric_eps_{eps}",
                "passed": bool(all(r.passed for r in results)),
                "constant": ISOPERIMETRIC_CONSTANT,
                "family_size": len(results),
                "worst_margin": min(r.margin for r in results),
            }
        )
    return RunReport(config_echo={}, sections=sections, timings={}, counters={})

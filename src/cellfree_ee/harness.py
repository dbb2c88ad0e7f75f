"""Experiment runner: seeded Monte Carlo over topologies and scheme comparison.

An instance draws one topology, builds the fading and estimation statistics,
and estimates the zero-forcing expectations; none of this depends on the
per-AP transmit power. A run point evaluates three power-control schemes on
an instance at one transmit power: the equal-power baseline, the perfect-CSI
optimizer, and the imperfect-CSI optimizer. Sweeps build each instance once,
aggregate run points over AP counts or per-AP transmit powers, and write
schema-stable CSV files. Along the transmit powers of one instance, each
point reuses the optimum at the previous power where no per-AP row binds, and
each imperfect-CSI solve otherwise starts next to it.
"""

from __future__ import annotations

import csv
import dataclasses
import io
from dataclasses import dataclass, field

import numpy as np

from .dinkelbach import solve_pce
from .inner import InfeasibleStartError, NonConcaveObjectiveError
from .power import (
    PowerAllocation,
    QosSpec,
    energy_efficiency,
    equal_power_allocation,
    make_power_params,
    noise_power_watts,
    per_user_rate,
)
from .propagation import generate_topology, large_scale_fading, mmse_stats
from .reports import STATUS_CONVERGED, STATUS_ERROR
from .sca import solve_ipce
from .zfstats import ZF_BATCH, SharedNormals, SingularChannelError, ZfStatistics, estimate_zf_statistics

CSV_HEADER = "scheme,M,K,rho_f_w,qos_rule,seed,ee_bits_per_joule,sum_se,iters,status,wall_ms"
AGGREGATE_HEADER = (
    "scheme,M,K,rho_f_w,qos_rule,n_runs,n_converged,n_failed,"
    "ee_mean_bits_per_joule,ee_stderr,sum_se_mean,iters_mean"
)
ALL_SCHEMES = ("equal", "ipce", "pce")
QOS_EQUAL_POWER_RATE = "equal-power-rate"
# Busiest per-AP load up to which an optimum counts as leaving every per-AP
# row slack, so that it carries over to another per-AP power cap.
REUSE_MAX_LOAD = 1.0 - 1e-3


class ConfigError(ValueError):
    """Bad experiment configuration (unknown key, missing value, bad range)."""


@dataclass
class ExperimentConfig:
    """Sweep definition plus the frozen physical and power-model constants."""

    m_list: list[int] = field(default_factory=lambda: [20, 40, 60, 80, 100, 120])
    k: int = 16
    area_side_km: float = 1.0
    sigma_shad_db: float = 8.0
    d_min_km: float = 0.01
    tau: int = 200
    tau_u: str = "K"  # "K" or a fixed sample count
    rho_f_w_list: list[float] = field(default_factory=lambda: [0.2])
    rho_r_w: float = 0.1
    qos: str = QOS_EQUAL_POWER_RATE  # rule name, scalar, or comma list
    bandwidth_hz: float = 20e6
    noise_figure_db: float = 9.0
    drain_efficiency: float = 0.388
    p_cir_w: float = 9.0
    p_cm_w: float = 0.2
    p_0m_w: float = 0.2
    p_bt_w_per_gbps: float = 0.25
    n_topologies: int = 30
    n_mc: int = 1000
    master_seed: int = 1
    schemes: tuple[str, ...] = ALL_SCHEMES

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            if f.type in ("float", "list[float]") and not np.all(np.isfinite(getattr(self, f.name))):
                raise ConfigError(f"{f.name} must be finite")
        for name in ("area_side_km", "bandwidth_hz", "drain_efficiency", "rho_r_w"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("sigma_shad_db", "d_min_km", "p_cir_w", "p_cm_w", "p_0m_w", "p_bt_w_per_gbps", "master_seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative")
        if not self.m_list:
            raise ConfigError("m_list must not be empty")
        if not self.rho_f_w_list:
            raise ConfigError("rho_f_w_list must not be empty")
        if any(rho <= 0 for rho in self.rho_f_w_list):
            raise ConfigError("entries of rho_f_w_list must be positive")
        for name in ("m_list", "rho_f_w_list", "schemes"):
            entries = getattr(self, name)
            if len(set(entries)) != len(entries):
                raise ConfigError(f"{name} must not repeat an entry")
        if self.k < 1:
            raise ConfigError("k must be at least 1")
        if any(m <= self.k for m in self.m_list):
            raise ConfigError("every M must exceed K for the zero-forcing statistics")
        tau_u = self.tau_u_samples()
        if tau_u < self.k:
            raise ConfigError(f"tau_u={tau_u} must be at least K={self.k}")
        if self.tau <= tau_u:
            raise ConfigError(f"tau={self.tau} must exceed tau_u={tau_u}")
        if self.n_topologies < 1 or self.n_mc < 1:
            raise ConfigError("n_topologies and n_mc must be at least 1")
        unknown = set(self.schemes) - set(ALL_SCHEMES)
        if unknown or not self.schemes:
            raise ConfigError(f"schemes must be a nonempty subset of {ALL_SCHEMES}")
        self.qos_floor_for(self.k)  # validates the rule spelling

    def tau_u_samples(self) -> int:
        if isinstance(self.tau_u, str) and self.tau_u.strip().upper() == "K":
            return self.k
        try:
            return int(self.tau_u)
        except (TypeError, ValueError):
            raise ConfigError(f"tau_u must be 'K' or an integer, got {self.tau_u!r}")

    def qos_floor_for(self, k: int):
        """Fixed floors as a vector, or None for the equal-power-rate rule."""
        rule = str(self.qos).strip()
        if rule == QOS_EQUAL_POWER_RATE:
            return None
        try:
            values = [float(part) for part in rule.split(",")]
        except ValueError:
            raise ConfigError(f"qos must be '{QOS_EQUAL_POWER_RATE}', a number, or a comma list, got {self.qos!r}")
        if not all(0.0 <= v < np.inf for v in values):
            raise ConfigError("qos floors must be finite and nonnegative")
        if len(values) == 1:
            return np.full(k, values[0])
        if len(values) != k:
            raise ConfigError(f"qos list has {len(values)} entries but K={k}")
        return np.array(values)

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        """Read `key = value` lines; each key is a field, parsed by its annotation, and appears once."""
        parsers = {f.name: _PARSERS[f.type] for f in dataclasses.fields(cls)}
        config = cls()
        seen = {}
        try:
            with open(path, "r", encoding="utf-8") as handle:
                lines = handle.readlines()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text: {exc}")
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in parsers:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in seen:
                raise ConfigError(f"{path}:{lineno}: key {key!r} repeats line {seen[key]}")
            seen[key] = lineno
            try:
                setattr(config, key, parsers[key](value))
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}")
        config.validate()
        return config


def comma_list(text: str, item=str) -> list:
    """The nonempty entries of a comma list, stripped and converted by item."""
    return [item(part.strip()) for part in text.split(",") if part.strip()]


# Config value parser by the annotation of its ExperimentConfig field.
_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "list[int]": lambda text: comma_list(text, int),
    "list[float]": lambda text: comma_list(text, float),
    "tuple[str, ...]": lambda text: tuple(comma_list(text)),
}


@dataclass(frozen=True)
class ResultRow:
    scheme: str
    m: int
    k: int
    rho_f_w: float
    qos_rule: str
    seed: int
    ee_bits_per_joule: float
    sum_se: float
    iters: int
    status: str
    # Power coefficients behind the row, None when the solve gave none; not
    # written to the CSV and not compared.
    eta: np.ndarray | None = field(default=None, compare=False, repr=False)

    @property
    def failed(self) -> bool:
        """Infeasible and error rows carry a NaN EE; every other row a finite one."""
        return not np.isfinite(self.ee_bits_per_joule)


def run_seed(config: ExperimentConfig, topology_index: int) -> int:
    """Per-topology seed derived from the master seed; shared across points."""
    ss = np.random.SeedSequence([config.master_seed, topology_index])
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class Instance:
    """The rho_f-independent part of a run point: one topology at one AP count."""

    seed: int
    zf: ZfStatistics


def build_instance(config: ExperimentConfig, m: int, seed: int, normals: SharedNormals | None = None) -> Instance:
    """Topology, fading, MMSE and zero-forcing statistics for one topology draw.

    Nothing here depends on the per-AP transmit power, so one instance serves
    every rho_f of a sweep. Fully deterministic given (config, m, seed).
    normals, optional, is a SharedNormals stream built from the same seed's
    zero-forcing seed, as run_topology builds it; reading it gives the same
    instance as drawing alone.
    """
    s_topo, s_shadow, s_zf = _instance_seeds(seed)
    topo = generate_topology(m, config.k, config.area_side_km, s_topo)
    beta = large_scale_fading(topo, config.sigma_shad_db, config.d_min_km, np.random.default_rng(s_shadow))
    # The same normalization make_power_params applies to the uplink power.
    rho_r = config.rho_r_w / noise_power_watts(config.bandwidth_hz, config.noise_figure_db)
    stats = mmse_stats(beta, rho_r, config.tau_u_samples())
    zf = estimate_zf_statistics(stats, config.n_mc, np.random.default_rng(s_zf) if normals is None else normals)
    return Instance(seed=seed, zf=zf)


def _instance_seeds(seed: int) -> list:
    """Seed sequences of the topology, the shadow fading and the zero-forcing draws."""
    return np.random.SeedSequence(seed).spawn(3)


def run_point(config: ExperimentConfig, instance: Instance, rho_f_w: float, warm=None) -> list:
    """One instance evaluated at one per-AP power under every requested scheme.

    warm, optional, is the list of rows run_point gave on the same instance
    at another per-AP power. Scaling a row's eta by rho_f_prev / rho_f_w
    keeps every SINR, QoS row and watt of amplifier power, and scales every
    AP load by that ratio: with x = rho_f * eta only the per-AP rows
    theta @ x <= rho_f see the cap. So an optimized row is reused, not
    solved, when the floors are fixed (the equal-power-rate floors move with
    the power), the row is `converged`, and its busiest AP load is at most
    REUSE_MAX_LOAD both before and after scaling. A reused row has the
    scaled eta, the source's status and 0 iterations, and its EE and sum SE
    at this cap. Otherwise the IPCE solve starts next to the scaled point
    where there is one (solve_ipce steps towards it only as far as every row
    allows), and every other solve cold-starts, as every solve does without
    warm.

    Fully deterministic given (config, instance, rho_f_w, warm). config must
    have passed validate(), which rejects unknown schemes. Infeasible or
    failed solves are reported as rows with their status rather than dropped;
    a solve that raises NonConcaveObjectiveError or InfeasibleStartError gives
    a NaN row with status `error:<exception name>`. Each row carries its power
    coefficients in `eta`.
    """
    zf = instance.zf
    m = zf.n_aps
    params = make_power_params(
        m=m,
        bandwidth_hz=config.bandwidth_hz,
        p_tx_watts=rho_f_w,
        p_ul_watts=config.rho_r_w,
        noise_figure_db=config.noise_figure_db,
        tau=config.tau,
        tau_u=config.tau_u_samples(),
        drain_efficiency=config.drain_efficiency,
        p_cir_watts=config.p_cir_w,
        p_cm_watts=config.p_cm_w,
        p_0m_watts=config.p_0m_w,
        p_bt_watts_per_gbps=config.p_bt_w_per_gbps,
    )

    equal = equal_power_allocation(zf.theta)
    floors = config.qos_floor_for(config.k)
    fixed_floors = floors is not None
    if floors is None:
        # Equal-power-rate rule: floor every user at the baseline's worst rate,
        # which keeps the baseline feasible and the comparison meaningful.
        floors = np.full(config.k, float(per_user_rate(equal.eta, zf.gamma, params).min()))
    qos = QosSpec.from_floor(floors, params)
    sources = {r.scheme: r for r in warm or ()}

    zf_perfect = dataclasses.replace(zf, gamma=np.zeros_like(zf.gamma))
    rows = []
    for scheme in config.schemes:
        source = sources.get(scheme)
        scaled = None if source is None or source.eta is None else source.eta * (source.rho_f_w / rho_f_w)
        if scheme == "equal":
            alloc, iters, status = equal, 0, STATUS_CONVERGED
        elif (fixed_floors and scaled is not None and source.status == STATUS_CONVERGED
              and max(np.max(zf.theta @ source.eta), np.max(zf.theta @ scaled)) <= REUSE_MAX_LOAD):
            alloc, iters, status = PowerAllocation(eta=scaled), 0, source.status
        else:
            try:
                if scheme == "pce":
                    alloc, report = solve_pce(zf, params, qos)
                else:
                    alloc, report = solve_ipce(zf, params, qos, warm=scaled)
                iters, status = report.outer_iterations, report.status
            except (NonConcaveObjectiveError, InfeasibleStartError) as exc:
                # One failed solve becomes a NaN row; the sweep goes on.
                alloc, iters, status = None, 0, f"{STATUS_ERROR}:{type(exc).__name__}"
        ee, sum_se = _scheme_metrics(alloc, zf_perfect if scheme == "pce" else zf, params)
        rows.append(
            _row(config, m, rho_f_w, instance.seed, scheme, ee_bits_per_joule=ee, sum_se=sum_se, iters=iters,
                 status=status, eta=None if alloc is None else alloc.eta)
        )
    return rows


def _row(config: ExperimentConfig, m: int, rho_f_w: float, seed: int, scheme: str, **result) -> ResultRow:
    return ResultRow(scheme=scheme, m=m, k=config.k, rho_f_w=rho_f_w, qos_rule=str(config.qos).strip(), seed=seed,
                     **result)


def _scheme_metrics(alloc, zf_view, params) -> tuple:
    if alloc is None:
        return float("nan"), float("nan")
    rates = per_user_rate(alloc.eta, zf_view.gamma, params)
    return energy_efficiency(alloc.eta, zf_view, params), float(rates.sum())


def sweep_m(config: ExperimentConfig) -> list:
    """Rows over every (M, topology) pair at the first configured rho_f."""
    return _sweep(config, config.m_list, config.rho_f_w_list[:1])


def sweep_rho_f(config: ExperimentConfig) -> list:
    """Rows over every (rho_f, topology) pair at the first configured M."""
    return _sweep(config, config.m_list[:1], config.rho_f_w_list)


def _sweep(config: ExperimentConfig, m_list: list, rho_f_list: list) -> list:
    """Every topology's rows over m_list and rho_f_list, sorted."""
    config.validate()
    rows = []
    for t in range(config.n_topologies):
        rows.extend(run_topology(config, m_list, t, rho_f_list))
    return _sorted_rows(rows)


def run_topology(config: ExperimentConfig, m_list: list, topology_index: int, rho_f_list: list) -> list:
    """Rows of one topology at every AP count of m_list and every power of rho_f_list.

    An instance at M reads 2 * b * M * K normals per batch of b draws from
    its topology's zero-forcing stream, so every M reads a prefix of what
    the largest M reads: one SharedNormals stream serves them all. It
    pre-draws the largest M's first batch, which that M would allocate at
    once anyway, and is released when the call returns.

    At each M the powers are chained in list order: each run_point gets the
    rows of the power just before it as warm, so it reuses or warm-starts
    from them as run_point describes. The first power cold-starts, and so
    does the IPCE solve after an infeasible or error IPCE row. A
    SingularChannelError while building an instance gives NaN rows with
    status `error:SingularChannelError` for every power and scheme at that M
    only.
    """
    seed = run_seed(config, topology_index)
    prefix = 2 * min(ZF_BATCH, config.n_mc) * max(m_list) * config.k
    normals = SharedNormals(_instance_seeds(seed)[2], prefix)
    rows = []
    for m in m_list:
        try:
            instance = build_instance(config, m, seed, normals)
        except SingularChannelError as exc:
            status = f"{STATUS_ERROR}:{type(exc).__name__}"
            nan = float("nan")
            rows.extend(
                _row(config, m, rho, seed, scheme, ee_bits_per_joule=nan, sum_se=nan, iters=0, status=status)
                for rho in rho_f_list
                for scheme in config.schemes
            )
            continue
        warm = None
        for rho_f_w in rho_f_list:
            warm = run_point(config, instance, rho_f_w, warm=warm)
            rows.extend(warm)
    return rows


def _sorted_rows(rows: list) -> list:
    return sorted(rows, key=lambda r: (r.m, r.rho_f_w, r.scheme, r.seed))


def rows_to_csv(rows: list) -> str:
    """Schema-stable per-run CSV; deterministic bytes for identical rows."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for r in rows:
        writer.writerow(
            [
                r.scheme,
                r.m,
                r.k,
                _fmt(r.rho_f_w),
                r.qos_rule,
                r.seed,
                _fmt(r.ee_bits_per_joule),
                _fmt(r.sum_se),
                r.iters,
                r.status,
                "0",  # wall_ms, kept for the stable schema
            ]
        )
    return buffer.getvalue()


def aggregate_rows(rows: list) -> str:
    """Per-point means and standard errors over successfully solved runs.

    n_converged counts the rows whose status is `converged`, n_failed the
    rows with a NaN EE; a row that stopped short (`max-iter`) is in
    neither, but its finite EE enters the means.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(AGGREGATE_HEADER.split(","))
    groups: dict = {}
    for r in rows:
        groups.setdefault((r.m, r.rho_f_w, r.scheme), []).append(r)
    for (m, rho_f_w, scheme) in sorted(groups):
        members = groups[(m, rho_f_w, scheme)]
        solved = [r for r in members if not r.failed]
        n_failed = len(members) - len(solved)
        ee = np.array([r.ee_bits_per_joule for r in solved])
        se = np.array([r.sum_se for r in solved])
        iters = np.array([r.iters for r in solved], dtype=float)
        ee_mean = float(ee.mean()) if ee.size else float("nan")
        ee_stderr = float(ee.std(ddof=1) / np.sqrt(ee.size)) if ee.size > 1 else float("nan")
        writer.writerow(
            [
                scheme,
                m,
                members[0].k,
                _fmt(rho_f_w),
                members[0].qos_rule,
                len(members),
                sum(r.status == STATUS_CONVERGED for r in members),
                n_failed,
                _fmt(ee_mean),
                _fmt(ee_stderr),
                _fmt(float(se.mean()) if se.size else float("nan")),
                _fmt(float(iters.mean()) if iters.size else float("nan")),
            ]
        )
    return buffer.getvalue()


def _fmt(value: float) -> str:
    if isinstance(value, float) and not np.isfinite(value):
        return "nan"
    return format(float(value), ".10g")


def write_outputs(rows: list, out_path: str) -> tuple:
    """Write the per-run CSV and its aggregate sibling; returns both paths.

    Both texts are rendered first and the per-run CSV is written last, so a
    failed write leaves no new per-run CSV behind.
    """
    agg_path = _aggregate_path(out_path)
    texts = ((agg_path, aggregate_rows(rows)), (out_path, rows_to_csv(rows)))
    for path, text in texts:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    return out_path, agg_path


def _aggregate_path(out_path: str) -> str:
    if out_path.endswith(".csv"):
        return out_path[: -len(".csv")] + "_agg.csv"
    return out_path + "_agg.csv"

"""The ``scaling`` panel: the paper's Fig. 7 weak-scaling sweep.

One cell per application (stencil / iPiC3D / TPC), each sweeping AllScale
and MPI over the node counts of the mode: the paper's 1–64 node x-axis in
``full``, 1/4/16 in ``quick``, 1/4 in ``smoke``.  The reduced modes
shrink the workloads too, so each mode pins its own throughput values.

Calibration (single-node anchors, see DESIGN.md §5):

* stencil — effective 2.4 GFLOP/s/core ⇒ ≈45 GFLOPS/node, matching the
  paper's leftmost stencil point;
* iPiC3D — ``flops_per_particle_update = 7·10⁵`` ⇒ ≈6.5·10⁴ particle
  updates/s/node;
* TPC — ``visit_flops=150 / point_flops=30`` ⇒ ≈600 q/s single node.

The gates are the paper's §4.2 shape claims: stencil and iPiC3D stay
within a constant factor of MPI and scale near-linearly; TPC starts level
with MPI, MPI keeps improving, and (full sweep only) AllScale flattens
after 8 nodes and ends well below MPI at 64.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.apps.common import AppResult
from repro.apps.ipic3d import IPic3DWorkload, ipic3d_allscale, ipic3d_mpi
from repro.apps.stencil import StencilWorkload, stencil_allscale, stencil_mpi
from repro.apps.tpc import TPCWorkload, make_problem, tpc_allscale, tpc_mpi
from repro.bench.panel import BASELINE_ROOT, Results, Values
from repro.bench.report import render_rows
from repro.runtime.config import RuntimeConfig
from repro.sim.cluster import Cluster, meggie_like_spec

#: the node counts of the paper's Fig. 7 x-axis
FIG7_NODE_COUNTS: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64)


@dataclass
class ScalingPoint:
    """One x-position of a Fig. 7 panel."""

    nodes: int
    allscale: float
    mpi: float

    @property
    def ratio(self) -> float:
        """AllScale throughput as a fraction of MPI's."""
        return self.allscale / self.mpi if self.mpi else float("nan")


@dataclass
class ScalingSeries:
    """One full panel: throughput vs node count for both systems."""

    app: str
    metric: str
    points: list[ScalingPoint] = field(default_factory=list)

    def add(self, allscale: AppResult, mpi: AppResult) -> None:
        if allscale.nodes != mpi.nodes:
            raise ValueError("mismatched node counts in a scaling point")
        self.points.append(
            ScalingPoint(allscale.nodes, allscale.throughput, mpi.throughput)
        )

    def linear(self, system: str = "allscale") -> list[float]:
        """The ideal-scaling reference line anchored at the first point."""
        if not self.points:
            return []
        base = getattr(self.points[0], system) / self.points[0].nodes
        return [base * p.nodes for p in self.points]

    def point_at(self, nodes: int) -> ScalingPoint:
        for p in self.points:
            if p.nodes == nodes:
                return p
        raise KeyError(f"no point at {nodes} nodes")

    def values(self) -> Values:
        """The series as a cell's pinned values."""
        return {
            "metric": self.metric,
            "points": [
                {"nodes": p.nodes, "allscale": p.allscale, "mpi": p.mpi}
                for p in self.points
            ],
        }

    @classmethod
    def of(cls, app: str, values: Values) -> "ScalingSeries":
        return cls(app, values["metric"], [ScalingPoint(**p) for p in values["points"]])


def parallel_efficiency(series: ScalingSeries, system: str) -> float:
    """Efficiency at the largest node count vs the single-node anchor."""
    first, last = series.points[0], series.points[-1]
    base = getattr(first, system) / first.nodes
    return getattr(last, system) / (base * last.nodes)


def sweep(
    app: str,
    metric: str,
    node_counts: tuple[int, ...],
    run_allscale: Callable[[int], AppResult],
    run_mpi: Callable[[int], AppResult],
) -> ScalingSeries:
    """Run both systems across the node counts and collect a series."""
    series = ScalingSeries(app=app, metric=metric)
    for nodes in node_counts:
        series.add(run_allscale(nodes), run_mpi(nodes))
    return series


def node_counts(mode: str) -> tuple[int, ...]:
    return {"full": FIG7_NODE_COUNTS, "quick": (1, 4, 16), "smoke": (1, 4)}[mode]


def runtime_config(**knobs: Any) -> RuntimeConfig:
    """The Fig. 7 runtime knobs every panel starts from."""
    # modest oversubscription keeps task counts (and simulation cost)
    # reasonable without changing the scaling shape
    return RuntimeConfig(functional=False, oversubscription=2, **knobs)


#: each application's AllScale port, by cell name
ALLSCALE: dict[str, Callable[..., AppResult]] = {
    "stencil": stencil_allscale,
    "ipic3d": ipic3d_allscale,
    "tpc": tpc_allscale,
}


def _cluster(nodes: int) -> Cluster:
    return Cluster(meggie_like_spec(nodes))


def fig7_stencil(mode: str) -> ScalingSeries:
    """Fig. 7, left panel: stencil throughput [GFLOPS]."""
    full = mode == "full"
    workload = StencilWorkload(
        n_per_node=20_000 if full else 4_000,
        timesteps=4 if full else 2,
        functional=False,
    )
    return sweep(
        "stencil",
        "GFLOPS",
        node_counts(mode),
        lambda n: stencil_allscale(_cluster(n), workload, runtime_config()),
        lambda n: stencil_mpi(_cluster(n), workload),
    )


def fig7_ipic3d(mode: str) -> ScalingSeries:
    """Fig. 7, middle panel: iPiC3D throughput [particles/s]."""
    full = mode == "full"
    workload = IPic3DWorkload(
        particles_per_node=48_000_000,
        cells_per_node_side=16 if full else 8,
        timesteps=3 if full else 2,
    )
    return sweep(
        "ipic3d",
        "particles/s",
        node_counts(mode),
        lambda n: ipic3d_allscale(_cluster(n), workload, runtime_config()),
        lambda n: ipic3d_mpi(_cluster(n), workload),
    )


def fig7_tpc(mode: str) -> ScalingSeries:
    """Fig. 7, right panel: TPC throughput [queries/s].

    Offered load: a fixed window of queries per measurement (see the
    ``queries_total`` note in :class:`~repro.apps.tpc.TPCWorkload`); both
    systems process the identical window.
    """
    workload = TPCWorkload(
        total_points=2**29,
        depth=16,
        queries_total=384 if mode == "full" else 128,
        functional=False,
        visit_flops=150.0,
        point_flops=30.0,
        task_subtree_height=9,
    )
    series = ScalingSeries(app="tpc", metric="queries/s")
    for nodes in node_counts(mode):
        problem = make_problem(workload, nodes)
        series.add(
            tpc_allscale(_cluster(nodes), workload, runtime_config(), problem=problem),
            tpc_mpi(_cluster(nodes), workload, problem=problem),
        )
    return series


_BUILDERS = {"stencil": fig7_stencil, "ipic3d": fig7_ipic3d, "tpc": fig7_tpc}


def _comparable_and_linear(series: ScalingSeries) -> list[str]:
    """Stencil / iPiC3D: "comparable performance and scalability"."""
    app, problems = series.app, list[str]()
    for point in series.points:
        if not 0.5 <= point.ratio <= 1.2:
            problems.append(
                f"{app}: AllScale/MPI ratio {point.ratio:.2f} at "
                f"{point.nodes} nodes outside the 'comparable performance' band"
            )
    for system in ("allscale", "mpi"):
        if not parallel_efficiency(series, system) > 0.6:
            problems.append(f"{app}: {system} parallel efficiency <= 0.6")
    for prev, cur in zip(series.points, series.points[1:]):
        if not cur.allscale > prev.allscale:
            problems.append(f"{app}: AllScale not increasing at {cur.nodes} nodes")
        if not cur.mpi > prev.mpi:
            problems.append(f"{app}: MPI not increasing at {cur.nodes} nodes")
    return problems


def _tpc_shape(series: ScalingSeries, mode: str) -> list[str]:
    """TPC: MPI scales, AllScale only gains up to ~8 nodes."""
    problems: list[str] = []
    first = series.points[0]
    if not first.ratio > 0.8:
        problems.append("tpc: single-node systems should be comparable")
    for prev, cur in zip(series.points, series.points[1:]):
        if not cur.mpi > prev.mpi:
            problems.append(f"tpc: MPI not improving at {cur.nodes} nodes")
    if mode != "full":
        return problems
    last, mid = series.point_at(64), series.point_at(8)
    claims = {
        f"expected AllScale ≪ MPI at 64 nodes, got ratio {last.ratio:.2f}": (
            last.ratio < 0.5
        ),
        "the AllScale/MPI gap does not grow with node count": (
            last.ratio < first.ratio
        ),
        "AllScale 8→64 gain not far below the 8x ideal": (
            last.allscale / mid.allscale < 3.0
        ),
        "MPI 8→64 gain below 3x": last.mpi / mid.mpi > 3.0,
    }
    return [f"tpc: {claim}" for claim, holds in claims.items() if not holds]


def render_series(series: ScalingSeries) -> str:
    """One Fig. 7 panel as a table: nodes | AllScale | MPI | linear."""
    rows = {
        str(point.nodes): {
            "AllScale": point.allscale,
            "MPI": point.mpi,
            "linear": ideal,
            "AS/MPI": f"{point.ratio:.2f}",
        }
        for point, ideal in zip(series.points, series.linear("allscale"))
    }
    title = f"Fig. 7 — {series.app} throughput [{series.metric}]"
    return render_rows(title, rows, "nodes")


class ScalingPanel:
    name = "scaling"
    baseline_path = BASELINE_ROOT / "BENCH_scaling_baseline.json"

    def cells(self, mode: str) -> list[str]:
        return list(_BUILDERS)

    def run_cell(self, mode: str, cell: str) -> Values:
        return _BUILDERS[cell](mode).values()

    def gates(self, mode: str, results: Results) -> list[str]:
        series = {app: ScalingSeries.of(app, v) for app, v in results.items()}
        problems = _comparable_and_linear(series["stencil"])
        problems += _comparable_and_linear(series["ipic3d"])
        # calibration anchor: single node in the 10⁴–10⁵ updates/s decade
        if not 2e4 <= series["ipic3d"].points[0].allscale <= 2e5:
            problems.append("ipic3d: single-node throughput off its anchor")
        return problems + _tpc_shape(series["tpc"], mode)

    def render(self, mode: str, results: Results) -> str:
        return "\n\n".join(
            render_series(ScalingSeries.of(app, v)) for app, v in results.items()
        )

"""Regeneration of the paper's Table 1 (list of target application codes).

The table rows derive from the actual workload dataclasses rather than
being hard-coded prose, so the table stays true to what the benchmarks
run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.ipic3d import IPic3DWorkload
from repro.apps.stencil import StencilWorkload
from repro.apps.tpc import TPCWorkload


@dataclass(frozen=True)
class Table1Row:
    name: str
    description: str
    data_structure: str
    problem_size: str
    metric: str


def table1(
    stencil: StencilWorkload | None = None,
    ipic3d: IPic3DWorkload | None = None,
    tpc: TPCWorkload | None = None,
) -> list[Table1Row]:
    """Build Table 1 from (possibly customized) workload definitions."""
    stencil = stencil or StencilWorkload()
    ipic3d = ipic3d or IPic3DWorkload()
    tpc = tpc or TPCWorkload()
    return [
        Table1Row(
            name="stencil",
            description="2D stencil kernel [12]",
            data_structure="regular 2D grid",
            problem_size=f"{stencil.n_per_node:,}² elements per node",
            metric="FLOPS",
        ),
        Table1Row(
            name="iPiC3D",
            description="particle-in-cell simulator [13]",
            data_structure="multiple regular 3D grids",
            problem_size=(
                f"{ipic3d.particles_per_node / 1e6:.0f} · 10⁶ particles per node"
            ),
            metric="particle updates per second",
        ),
        Table1Row(
            name="TPC",
            description="two-point-correlation search [14]",
            data_structure="kd-tree",
            problem_size=(
                f"2^{tpc.total_points.bit_length() - 1} points in "
                f"[{tpc.low:g}, {tpc.high:g})^{tpc.dims} with radius "
                f"{tpc.radius:g}"
            ),
            metric="queries per second",
        ),
    ]


#: the default instantiation — what the paper's Table 1 shows
TABLE1_ROWS = table1()

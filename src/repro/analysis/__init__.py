"""Experiment regeneration: one function per paper table/figure.

Each ``figN_*`` function returns plain data structures (dicts/arrays)
with the same series the paper plots; the benchmark harness prints and
shape-checks them, and EXPERIMENTS.md records paper-vs-measured.
"""

from repro._lazy import lazy_exports

__all__ = [
    "fig10_scenario1",
    "fig11_scenario2",
    "fig3_breakdown",
    "fig4_pack_vs_spread",
    "fig5_nvlink_bandwidth",
    "fig6_collocation",
    "fig8_prototype",
    "fig9_sim_validation",
    "format_breakdown_table",
    "format_collocation_table",
    "format_scenario_table",
    "format_speedup_table",
    "scenario1_jobs",
    "scenario2_jobs",
    "sec32_pcie_vs_nvlink",
    "sec553_overhead",
    "table1_jobs",
]

# names resolve on first use (PEP 562): a module that needs only the
# scenario traces or the bench harness does not load the figure code
__getattr__ = lazy_exports(__name__, {
    "repro.analysis.scenarios": ("scenario1_jobs", "scenario2_jobs", "table1_jobs"),
    "repro.analysis.figures": (
        "fig3_breakdown", "fig4_pack_vs_spread", "fig5_nvlink_bandwidth",
        "fig6_collocation", "fig8_prototype", "fig9_sim_validation",
        "fig10_scenario1", "fig11_scenario2", "sec32_pcie_vs_nvlink",
        "sec553_overhead",
    ),
    "repro.analysis.tables": (
        "format_breakdown_table", "format_collocation_table",
        "format_scenario_table", "format_speedup_table",
    ),
})

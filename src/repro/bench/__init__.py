"""Experiment harness: one driver per paper table/figure, plus ablations."""

from repro.bench.ablations import (DeoptResult, KeepAliveOutcome,
                                   PolicyComparison,
                                   run_aot_comparison,
                                   run_catalyzer_comparison,
                                   run_deopt_experiment,
                                   run_keepalive_policy_comparison,
                                   run_policy_comparison,
                                   run_regeneration_demo,
                                   run_remote_store_ablation,
                                   run_restore_policy_ablation,
                                   run_store_eviction_demo)
from repro.bench.concurrency import BurstResult, run_burst
from repro.bench.engine import (ResultCache, experiment_ids,
                                run_experiments)
from repro.bench.stats import LatencyStats, histogram, percentile
from repro.bench.factors import FactorRow, run_factor_analysis
from repro.bench.faasdom_experiments import run_faasdom_benchmark
from repro.bench.cluster import (ClusterPolicyOutcome,
                                 run_cluster_scheduling)
from repro.bench.harness import (cold_and_warm, drain, fireworks_invocation,
                                 fresh_cluster_platform, fresh_platform,
                                 install_all, install_chain,
                                 invoke_once, provision_warm)
from repro.bench.export import export_all
from repro.bench.memory import (FACTOR_CONFIGS, fig12_improvements,
                                run_fig4_view, run_fig10_platform,
                                run_fig12_workload)
from repro.bench.paper import comparison_summary, headline_comparisons
from repro.bench.realworld import run_fig9
from repro.bench.results import (FigureResult, LatencyRow, MemoryPoint,
                                 MemorySeries, PaperComparison,
                                 format_comparisons, geometric_mean)
from repro.bench.tables import (run_snapshot_creation_times, run_table1,
                                run_table2)

__all__ = [
    "BurstResult",
    "ClusterPolicyOutcome",
    "DeoptResult",
    "FACTOR_CONFIGS",
    "FactorRow",
    "FigureResult",
    "KeepAliveOutcome",
    "LatencyRow",
    "LatencyStats",
    "MemoryPoint",
    "MemorySeries",
    "PaperComparison",
    "PolicyComparison",
    "ResultCache",
    "cold_and_warm",
    "comparison_summary",
    "drain",
    "experiment_ids",
    "export_all",
    "fig12_improvements",
    "headline_comparisons",
    "fireworks_invocation",
    "format_comparisons",
    "fresh_cluster_platform",
    "fresh_platform",
    "geometric_mean",
    "histogram",
    "install_all",
    "install_chain",
    "invoke_once",
    "percentile",
    "provision_warm",
    "run_aot_comparison",
    "run_burst",
    "run_experiments",
    "run_catalyzer_comparison",
    "run_cluster_scheduling",
    "run_deopt_experiment",
    "run_faasdom_benchmark",
    "run_keepalive_policy_comparison",
    "run_factor_analysis",
    "run_fig4_view",
    "run_fig9",
    "run_fig10_platform",
    "run_fig12_workload",
    "run_policy_comparison",
    "run_regeneration_demo",
    "run_remote_store_ablation",
    "run_restore_policy_ablation",
    "run_snapshot_creation_times",
    "run_store_eviction_demo",
    "run_table1",
    "run_table2",
]

"""Per-figure experiment drivers: one module per paper figure.

Each driver regenerates the rows/series of its figure as a
:class:`~repro.experiments.common.FigureResult`, and its module also
holds the study's claims function: the paper's qualitative statements
about that figure, each checked on the result as a
:class:`~repro.experiments.common.Claim`.  ``repro run`` prints the
tables with a verdict per claim; the tier-1 suite
(``tests/test_paper_claims.py``) requires every claim to hold at test
scale.
"""

from . import (
    ablations,
    attribution_study,
    fig01_locality,
    fig03_pollution,
    fig04_instrumentation,
    fig06_summary,
    fig07_traffic_miss,
    fig08_line_size,
    fig09_size_assoc,
    fig10_latency,
    fig11_blocking,
    fig12_prefetch,
    headroom_study,
    hierarchy_study,
    policy_study,
    related_work,
    transforms_study,
)
from .common import FigureResult

#: Every figure driver, in paper order: name -> zero-config callable.
ALL_FIGURES = {
    "fig1a": fig01_locality.reuse_distances,
    "fig1b": fig01_locality.vector_lengths,
    "fig3a": fig03_pollution.bypass_study,
    "fig3b": fig03_pollution.victim_study,
    "fig4a": fig04_instrumentation.tag_fractions,
    "fig4b": fig04_instrumentation.time_distribution,
    "fig6a": fig06_summary.amat_breakdown,
    "fig6b": fig06_summary.hit_repartition,
    "fig7a": fig07_traffic_miss.traffic,
    "fig7b": fig07_traffic_miss.miss_ratios,
    "fig8a": fig08_line_size.virtual_sweep,
    "fig8b": fig08_line_size.physical_sweep,
    "fig9a": fig09_size_assoc.cache_size_study,
    "fig9b": fig09_size_assoc.associativity_study,
    "fig10a": fig10_latency.kernel_study,
    "fig10b": fig10_latency.latency_sweep,
    "fig11a": fig11_blocking.block_size_sweep,
    "fig11b": fig11_blocking.copying_study,
    "fig12": fig12_prefetch.prefetch_study,
}

#: Studies beyond the paper's figures: §5 related-work comparisons and
#: the prose-claim ablations.
EXTENSION_STUDIES = {
    "related-work": related_work.baseline_comparison,
    "related-work-traffic": related_work.baseline_traffic,
    "related-work-streams": related_work.stream_buffer_study,
    "related-work-placement": related_work.placement_study,
    "related-work-subblock": related_work.subblock_study,
    "transform-interchange": transforms_study.interchange_study,
    "transform-expansion": transforms_study.expansion_study,
    "attribution": attribution_study.miss_concentration,
    "policy": policy_study.policy_comparison,
    "headroom": headroom_study.headroom,
    "hierarchy": hierarchy_study.l2_retrospective,
    "ablation-bbsize": ablations.bounce_back_size,
    "ablation-bbassoc": ablations.bounce_back_associativity,
    "ablation-admission": ablations.admission_policy,
    "ablation-reset": ablations.temporal_reset,
    "ablation-physline": ablations.physical_line,
    "ablation-writepolicy": ablations.write_policy,
}

#: Study id -> ``claims(result, scale) -> List[Claim]``.  Every study
#: but ``ablation-writepolicy`` (a traffic illustration with no claim
#: in the paper) has one.  Claims never run inside a driver: callers
#: evaluate them on the driver's result.
CLAIMS = {
    "fig1a": fig01_locality.reuse_distances_claims,
    "fig1b": fig01_locality.vector_lengths_claims,
    "fig3a": fig03_pollution.bypass_study_claims,
    "fig3b": fig03_pollution.victim_study_claims,
    "fig4a": fig04_instrumentation.tag_fractions_claims,
    "fig4b": fig04_instrumentation.time_distribution_claims,
    "fig6a": fig06_summary.amat_breakdown_claims,
    "fig6b": fig06_summary.hit_repartition_claims,
    "fig7a": fig07_traffic_miss.traffic_claims,
    "fig7b": fig07_traffic_miss.miss_ratios_claims,
    "fig8a": fig08_line_size.virtual_sweep_claims,
    "fig8b": fig08_line_size.physical_sweep_claims,
    "fig9a": fig09_size_assoc.cache_size_study_claims,
    "fig9b": fig09_size_assoc.associativity_study_claims,
    "fig10a": fig10_latency.kernel_study_claims,
    "fig10b": fig10_latency.latency_sweep_claims,
    "fig11a": fig11_blocking.block_size_sweep_claims,
    "fig11b": fig11_blocking.copying_study_claims,
    "fig12": fig12_prefetch.prefetch_study_claims,
    "related-work": related_work.baseline_comparison_claims,
    "related-work-traffic": related_work.baseline_traffic_claims,
    "related-work-streams": related_work.stream_buffer_study_claims,
    "related-work-placement": related_work.placement_study_claims,
    "related-work-subblock": related_work.subblock_study_claims,
    "transform-interchange": transforms_study.interchange_study_claims,
    "transform-expansion": transforms_study.expansion_study_claims,
    "attribution": attribution_study.miss_concentration_claims,
    "policy": policy_study.policy_comparison_claims,
    "headroom": headroom_study.headroom_claims,
    "hierarchy": hierarchy_study.l2_retrospective_claims,
    "ablation-bbsize": ablations.bounce_back_size_claims,
    "ablation-bbassoc": ablations.bounce_back_associativity_claims,
    "ablation-admission": ablations.admission_policy_claims,
    "ablation-reset": ablations.temporal_reset_claims,
    "ablation-physline": ablations.physical_line_claims,
}

__all__ = ["FigureResult", "ALL_FIGURES", "EXTENSION_STUDIES", "CLAIMS"]

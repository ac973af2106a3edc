"""Analysis: statistics, breakdowns, attribution, diffing, rendering."""

from repro.analysis.attribution import (
    ATTRIBUTION_CAUSES,
    AttributionReport,
    CounterfactualVerdict,
    ViolationRecord,
    attribute_trace,
    render_attribution_html,
    render_attribution_report,
    write_attribution_json,
)
from repro.analysis.breakdown import TailBreakdown, tail_breakdown_of
from repro.analysis.cost_report import (
    ComplianceCost,
    cost_of_compliance,
    render_cost_report,
    write_cost_frontier_svg,
    write_cost_json,
)
from repro.analysis.trace_diff import (
    PhaseDelta,
    TraceDiff,
    diff_traces,
    render_trace_diff,
)
from repro.analysis.report import (
    SCHEME_LABELS,
    format_value,
    render_kv,
    render_table,
    scheme_label,
)
from repro.analysis.timeline import (
    hardware_timeline,
    rate_sparkline,
    render_run_timeline,
)
from repro.analysis.request_forensics import (
    exemplar_requests,
    phase_decomposition,
    render_forensics_report,
    render_waterfall,
    render_waterfall_svg,
    worst_requests,
)
from repro.analysis.trace_report import (
    BREAKDOWN_COMPONENTS,
    breakdown_totals,
    decision_rows,
    load_trace,
    render_trace_report,
    slowest_request_rows,
    switch_rows,
)
from repro.analysis.stats import (
    RunSummary,
    cdf_points,
    compliance_percent,
    drop_outliers,
    mean_without_outliers,
    normalize,
    percentile,
    summarize_runs,
)

__all__ = [
    "ATTRIBUTION_CAUSES", "AttributionReport", "BREAKDOWN_COMPONENTS",
    "ComplianceCost", "CounterfactualVerdict", "PhaseDelta", "RunSummary",
    "SCHEME_LABELS", "TailBreakdown", "TraceDiff", "ViolationRecord",
    "attribute_trace", "breakdown_totals", "cdf_points",
    "compliance_percent", "cost_of_compliance", "decision_rows",
    "diff_traces", "drop_outliers", "exemplar_requests", "format_value",
    "hardware_timeline", "load_trace",
    "mean_without_outliers", "normalize", "percentile",
    "phase_decomposition", "rate_sparkline", "render_attribution_html",
    "render_attribution_report", "render_cost_report",
    "render_forensics_report", "render_kv", "render_run_timeline",
    "render_table", "render_trace_diff", "render_trace_report",
    "render_waterfall", "render_waterfall_svg", "scheme_label",
    "slowest_request_rows", "summarize_runs", "switch_rows",
    "tail_breakdown_of", "worst_requests", "write_attribution_json",
    "write_cost_frontier_svg", "write_cost_json",
]
